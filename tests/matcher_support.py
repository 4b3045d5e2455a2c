"""What several matcher test suites share: light configs, a name corpus and
the previous bodies the kernels are pinned against with ``==`` — the uncached
thesaurus (PR 19), the eager ``MatchResult``, ``relatedness`` and SemProp's
per-cell ``match_prepared`` loop (PR 20).
Cupid's per-pair, multi-level TreeMatch is kept the same way, with the
element-level ``linguistic_similarity`` it called.
``jaccard_matrix`` is kept as a pure-Python equality count, one pair of
signatures (tuples of ints) at a time, so no reference shares the matrix
kernels it checks.
So are the LSH refine loop (``LakeIndex.candidate_columns`` +
``candidate_tables``, one Python comparison per colliding column pair) over
the dict buckets the index filled one band key at a time before its bands
were sorted arrays (rebuilt here from the rows of the index's signature
matrices, as tuples of ints), and
the per-candidate ``candidate_signals``, as they were before the index kept
a columnar copy of its columns.  The two-row and banded Levenshtein DPs
(with their ``max_distance`` cutoff) and the Jaccard–Levenshtein fuzzy pass
that called the banded one are kept as they were before the bit-parallel
kernel.  The generic schema-tree traversals (``is_leaf``, ``leaves``,
``walk``, ``leaf_by_name``) live here too, since only the TreeMatch
reference walks a tree.  A sketch row in the canonical-JSON codec
the sketch store wrote before its rows were sectioned is kept too, as the
bytes every reader must now refuse.
The column profile, ``sketch_table``, SemProp's value hashing and
``table_content_hash`` are kept as they were before one memoised scan per
column fed the first three and the last hashed one buffer per column: cell
by cell, over ``set`` and dict scans, with the scalar MinHash for the
signatures.  ``Column.scan`` is kept as it was before plain cells were
checked for missingness by their normalised string (``is_missing`` per
distinct value, a slot lookup per normalised string), and
``MatchResult.from_column_scores`` as it was before matchers handed over
their score grid: one ref, score and pair per entry of a name-keyed dict.

``tests/`` is on ``sys.path`` (the root ``conftest.py`` lives here), so any
test module can ``from matcher_support import ...``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import pickle
import random
from collections import Counter
import sys
from pathlib import Path
from typing import AbstractSet, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.artifacts.manifest import Manifest
from repro.artifacts.transport import LocalTransport
from repro.data.csv_io import read_csv, write_csv
from repro.data.profiling import ColumnProfile
from repro.data.table import Column, ColumnRef, ColumnScan, Table, TableHeader
from repro.data.types import (
    TYPE_INDEX,
    DataType,
    is_missing,
    parse_numeric_values,
    type_compatibility,
)
from repro.datasets.fabricated_sources import tpcdi_prospect_table
from repro.discovery.cascade import CandidateSignals
from repro.discovery.relatedness import RelatednessScores
from repro.discovery.search import DatasetRepository
from repro.fabrication.splitting import split_horizontal, split_vertical
from repro.lake.build import build_from_paths
from repro.lake.engine import LakeDiscoveryEngine
from repro.lake.index import CandidateTable, LakeIndex
from repro.distributions.histograms import build_histogram
from repro.lake.profiles import SketchConfig, TableSketch
from repro.lake.store import SketchStore
from repro.matchers.base import Match, MatchResult, PreparedTable
from repro.matchers.cupid.linguistic import name_similarities
from repro.matchers.cupid.schema_tree import SchemaElement, SchemaTree
from repro.matchers.cupid.structural import CupidWeights
from repro.matchers.semprop.matcher import SemPropMatcher
from repro.matchers.semprop.semantic import coherence_score
from repro.sketches.minhash import (
    DEFAULT_SEED,
    _stable_hash,
    hash_normalized_values,
    hash_normalized,
    minhash_signatures_from_hashes,
    minhash_signatures_scalar,
    normalize_values,
)
from repro.telemetry import recorder as telemetry
from repro.text.stemmer import stem
from repro.text.thesaurus import _HYPERNYM_PAIRS, _SYNONYM_GROUPS, Thesaurus
from repro.text.tokenize import ABBREVIATIONS, tokenize_identifier

__all__ = [
    "LIGHT_MATCHER_CONFIGS",
    "RANKING_READS",
    "ReferenceMatchResult",
    "batch_minhash",
    "category_compatibility",
    "is_leaf",
    "leaf_by_name",
    "leaves",
    "linguistic_similarity",
    "lakebench_column_names",
    "lakebench_lake",
    "load_manifest",
    "prospect_lake",
    "reference_candidate_signals",
    "reference_candidate_tables",
    "reference_column_scan",
    "reference_from_column_scores",
    "reference_fuzzy_jaccard_sets",
    "reference_histogram_distance",
    "reference_jaccard",
    "reference_jaccard_matrix",
    "reference_levenshtein_distance",
    "reference_relatedness",
    "reference_profile_column",
    "reference_relation_score",
    "reference_semprop_match_prepared",
    "reference_semprop_signatures",
    "reference_sketch_table",
    "reference_table_content_hash",
    "reference_tree_match",
    "reference_unionability",
    "semprop_signatures",
    "signature_rows",
    "SketchColumn",
    "sketch_columns",
    "sketch_from_columns",
    "term_corpus",
    "walk",
]

#: One lightweight configuration per registered matcher: every payload shape
#: and scoring path at seconds scale.  ``test_cascade_engine.py`` asserts the
#: map covers the registry, so a newly registered matcher fails loudly there
#: until it is added here.
LIGHT_MATCHER_CONFIGS: dict[str, dict[str, object]] = {
    "comaschema": {},
    "comainstance": {"sample_size": 50},
    "cupid": {},
    "distributionbased": {"sample_size": 50},
    "embdi": {
        "dimensions": 8,
        "sentence_length": 8,
        "walks_per_node": 1,
        "epochs": 1,
        "max_rows": 4,
    },
    "jaccardlevenshtein": {"sample_size": 8},
    "semprop": {"num_permutations": 16, "sample_size": 50},
    "similarityflooding": {"max_iterations": 50},
}

_LAKEGEN = Path(__file__).resolve().parents[1] / "benchmarks" / "lakebench" / "lakegen.py"


def _lakegen():
    """lakebench's generator module (stdlib + numpy, imports nothing of ``repro``)."""
    module = sys.modules.get("_lakegen_schemas")
    if module is None:
        spec = importlib.util.spec_from_file_location("_lakegen_schemas", _LAKEGEN)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses resolve annotations through it
        spec.loader.exec_module(module)
    return module


def load_manifest(artifact_dir: Path) -> Manifest:
    """The manifest of an artifact directory, read as a pull reads it."""
    return Manifest.from_bytes(LocalTransport(artifact_dir).read_manifest())


def lakebench_lake(out_dir: Path, profile: str = "families") -> Path:
    """Write a lake of one of the gate's two profiles, just smaller.

    ``families``: ``<out_dir>/lake/*.csv`` are four planted relatives plus
    two background tables (30 rows each), ``<out_dir>/queries/*.csv`` a wide
    (14-column) and a narrow query.  ``overlap``: four tables sharing a
    falling share of the query's values and four value-disjoint ones, all
    with the same five ``field_N`` columns (30 rows each), and one query.
    """
    module = _lakegen()
    shape = {
        "families": module.LakeShape("families", tables=6, rows=30, groups=1, queries_per_group=1),
        "overlap": module.LakeShape(
            "overlap", tables=8, rows=30, groups=1, queries_per_group=1, cohort=4
        ),
    }[profile]
    module.generate(out_dir, 1, shape)
    return out_dir


#: A sketch row as a schema-2 sketch store held it (and a format-1 manifest
#: pinned it): canonical JSON, decimal MinHash signatures.
LEGACY_JSON_SKETCH_ROW = (
    b'{"columns":[{"avg_length":1.0,"column_name":"x","data_type":"string",'
    b'"distinct_count":1,"histogram":[1.0],"maximum":null,"mean":null,'
    b'"minimum":null,"missing_count":0,"row_count":1,"set_size":1,'
    b'"signature":[7],"std":null,"table_name":"t"}],"content_hash":"h",'
    b'"name":"t","num_rows":1}'
)


def lakebench_column_names() -> list[str]:
    """Every column name (and semantic alias) lakebench's generator can emit."""
    module = _lakegen()
    schemas = [*module.SEED_SCHEMAS, *module.DOMAINS]
    names = {name for schema in schemas for column in schema for name in column[:2] if name}
    names.update(f"field_{i}" for i in range(5))  # the ``overlap`` profile
    return sorted(names)


def prospect_lake(slices: int) -> tuple[Table, list[Table]]:
    """A query plus its unionable sibling and *slices* joinable vertical cuts
    (the lake of the ranking grid in ``tests/lake/test_cascade_engine.py``)."""
    rng = random.Random(11)
    base = tpcdi_prospect_table(num_rows=40, seed=2)
    horizontal = split_horizontal(base, 0.3, rng)
    tables = [horizontal.second.rename("prospects_full")]
    for i in range(slices):
        vertical = split_vertical(base, rng.uniform(0.3, 0.7), rng)
        tables.append(vertical.second.rename(f"slice_{i}"))
    return horizontal.first.rename("query_prospects"), tables


def csv_lake(
    directory: Path, tables: Iterable[Table], store: SketchStore
) -> DatasetRepository:
    """Write *tables* as CSVs under *directory* and sketch them into *store*.

    Returns the oracle's repository: the tables as read back from those
    CSVs, which is what the lake engine scores (the reader types columns
    itself, so a read-back table need not equal the one written).
    """
    directory.mkdir(parents=True, exist_ok=True)
    paths = [write_csv(table, directory / f"{table.name}.csv") for table in tables]
    build_from_paths(store, paths)
    return DatasetRepository(read_csv(path) for path in paths)


def engine_shortlist(
    engine: LakeDiscoveryEngine, query: Table, top_k: Optional[int] = None
) -> list[CandidateTable]:
    """The LSH shortlist *engine* would rerank for a ``top_k`` *query*
    (probed through ``engine.index``, so it follows the store's version)."""
    return engine._probe(engine.index, query, top_k)[0]


def term_corpus() -> list[str]:
    """Every term the bundled lexicon, the abbreviation table and lakebench know."""
    terms = {term for group in _SYNONYM_GROUPS for term in group}
    terms.update(term for pair in _HYPERNYM_PAIRS for term in pair)
    terms.update(ABBREVIATIONS)
    terms.update(ABBREVIATIONS.values())
    for name in lakebench_column_names():
        terms.update(tokenize_identifier(name))
    return sorted(terms)


def reference_relation_score(thesaurus: Thesaurus, a: str, b: str) -> float:
    """``Thesaurus.relation_score`` as it was before the key table (PR 19).

    Kept verbatim as the reference: every predicate re-stems both terms and
    the neighbourhood test copies both synonym sets.
    """
    synonyms, hypernyms = thesaurus._synonyms, thesaurus._hypernyms

    def key(term: str) -> str:
        return stem(str(term).strip().lower().replace(" ", ""))

    def synonyms_of(term: str) -> set[str]:
        return set(synonyms.get(key(term), set()))

    def are_synonyms() -> bool:
        key_a, key_b = key(a), key(b)
        if key_a == key_b:
            return True
        return key_b in synonyms.get(key_a, set())

    def are_hypernyms() -> bool:
        key_a, key_b = key(a), key(b)
        return key_b in hypernyms.get(key_a, set()) or key_a in hypernyms.get(key_b, set())

    if are_synonyms():
        return 1.0
    if are_hypernyms():
        return 0.8
    if synonyms_of(a) & synonyms_of(b):
        return 0.6
    return 0.0


class ReferenceMatchResult:
    """``MatchResult`` as it was before the columnar representation (PR 20).

    Kept verbatim as the reference: one ``Match`` per pair, sorted in the
    constructor, every derived view handed back to the sorting constructor.
    """

    def __init__(self, matches: Iterable[Match] = ()) -> None:
        self._matches = sorted(
            matches,
            key=lambda m: (-m.score, m.source.table, m.source.column, m.target.table, m.target.column),
        )

    @classmethod
    def from_scores(
        cls,
        scores: Mapping[tuple[ColumnRef, ColumnRef], float],
        threshold: float = 0.0,
        keep_zero: bool = False,
    ) -> "ReferenceMatchResult":
        matches = [
            Match(score=float(score), source=source, target=target)
            for (source, target), score in scores.items()
            if keep_zero or score > threshold
        ]
        return cls(matches)

    def __len__(self) -> int:
        return len(self._matches)

    def __iter__(self) -> Iterator[Match]:
        return iter(self._matches)

    def __getitem__(self, index: int) -> Match:
        return self._matches[index]

    @property
    def matches(self) -> list[Match]:
        return list(self._matches)

    def top_k(self, k: int) -> "ReferenceMatchResult":
        return ReferenceMatchResult(self._matches[: max(k, 0)])

    def ranked_pairs(self) -> list[tuple[str, str]]:
        return [match.as_pair() for match in self._matches]

    def scores(self) -> dict[tuple[str, str], float]:
        result: dict[tuple[str, str], float] = {}
        for match in self._matches:
            pair = match.as_pair()
            if pair not in result:
                result[pair] = match.score
        return result

    def filter_threshold(self, threshold: float) -> "ReferenceMatchResult":
        return ReferenceMatchResult(m for m in self._matches if m.score >= threshold)

    def one_to_one(self) -> "ReferenceMatchResult":
        used_sources: set[ColumnRef] = set()
        used_targets: set[ColumnRef] = set()
        kept: list[Match] = []
        for match in self._matches:
            if match.source in used_sources or match.target in used_targets:
                continue
            kept.append(match)
            used_sources.add(match.source)
            used_targets.add(match.target)
        return ReferenceMatchResult(kept)


def reference_from_column_scores(
    source: Union[Table, TableHeader],
    target: Union[Table, TableHeader],
    scores: Mapping[tuple[str, str], float],
) -> MatchResult:
    """``MatchResult.from_column_scores`` as it was: three per-pair lists
    (score, source ref, target ref) in the dict's order, unordered, each
    column's ref built once up front."""
    source_refs = {name: ColumnRef(source.name, name) for name in source.column_names}
    target_refs = {name: ColumnRef(target.name, name) for name in target.column_names}
    return MatchResult(
        Match(float(score), source_refs[source_name], target_refs[target_name])
        for (source_name, target_name), score in scores.items()
    )


def _exact(matches: Iterable[Optional[Match]]) -> list[tuple[str, ColumnRef, ColumnRef]]:
    """Matches with their scores as ``repr``: ``-0.0`` is not ``0.0`` and a NaN is a NaN."""
    return [(repr(m.score), m.source, m.target) for m in matches if m is not None]


#: Every way discovery and the experiments read a ranking, as ``name ->
#: callable(result)`` returning plain data that compares exactly.
RANKING_READS = {
    "len": len,
    "best": lambda r: _exact([r.best()]),
    "iter": _exact,
    "index": lambda r: _exact(r[i] for i in range(-len(r), len(r))),
    "ranked_pairs": lambda r: r.ranked_pairs(),
    "scores": lambda r: [(pair, repr(score)) for pair, score in r.scores().items()],
    "one_to_one": lambda r: _exact(r.one_to_one()),
    "pickle": lambda r: _exact(pickle.loads(pickle.dumps(r))),
    **{f"top_k({k})": lambda r, k=k: _exact(r.top_k(k)) for k in (-1, 0, 1, 3)},
    **{
        f"filter_threshold({t})": lambda r, t=t: (
            _exact([r.filter_threshold(t).best()]),
            _exact(r.filter_threshold(t).one_to_one()),
        )
        for t in (0.0, 0.5, 0.55)
    },
}


def reference_unionability(
    result: ReferenceMatchResult, query: Table, threshold: float = 0.55
) -> float:
    """``unionability`` as it was: 1-1 filter the whole ranking, then count."""
    if query.num_columns == 0:
        return 0.0
    one_to_one = result.one_to_one()
    strong = sum(1 for match in one_to_one if match.score >= threshold)
    return min(1.0, strong / query.num_columns)


def reference_relatedness(
    result: ReferenceMatchResult, query: Table, threshold: float = 0.55
) -> RelatednessScores:
    """``relatedness`` as it was: everything read off the sorted ranking."""
    return RelatednessScores(
        joinability=result[0].score if len(result) else 0.0,
        unionability=reference_unionability(result, query, threshold=threshold),
        best_pair=result[0].as_pair() if len(result) else None,
    )


#: One MinHash signature as plain ints: a row of a signature matrix.
Signature = Sequence[int]


def signature_rows(sketch: TableSketch) -> list[tuple[int, ...]]:
    """*sketch*'s signature matrix as one tuple of ints per column."""
    return [tuple(row) for row in sketch.signatures.tolist()]


class SketchColumn(NamedTuple):
    """One column of a ``TableSketch`` as a record, the form the reference
    bodies read (the sketch once held one such object per column)."""

    table_name: str
    column_name: str
    data_type: DataType
    set_size: int
    histogram: tuple[float, ...]
    row_count: int
    distinct_count: int
    missing_count: int
    mean: Optional[float]
    std: Optional[float]
    minimum: Optional[float]
    maximum: Optional[float]
    avg_length: Optional[float]

    @property
    def key(self) -> tuple[str, str]:
        return (self.table_name, self.column_name)


_SKETCH_STATS = ("mean", "std", "minimum", "maximum", "avg_length")


def sketch_columns(sketch: TableSketch) -> list[SketchColumn]:
    """*sketch*'s columns, one record each, read off its arrays."""
    types = list(TYPE_INDEX)
    stats = [
        [value if present else None for value, present in zip(values, mask)]
        for values, mask in zip(sketch.stats.tolist(), sketch.present.tolist())
    ]
    return [
        SketchColumn(sketch.name, name, types[code], size, tuple(histogram), rows, distinct,
                     missing, *optional)
        for name, code, (size, rows, distinct, missing), histogram, optional in zip(
            sketch.column_names, sketch.types.tolist(), sketch.counts.tolist(),
            sketch.histograms.tolist(), stats,
        )
    ]  # fmt: skip


def sketch_from_columns(
    name: str,
    content_hash: str,
    num_rows: int,
    columns: Sequence[SketchColumn],
    signatures: np.ndarray,
) -> TableSketch:
    """The ``TableSketch`` of per-column records whose histograms share one
    width (``(0, 0)`` matrices for no columns)."""
    histograms = [column.histogram for column in columns]
    counts = [
        (column.set_size, column.row_count, column.distinct_count, column.missing_count)
        for column in columns
    ]
    stats = [[getattr(column, field) for field in _SKETCH_STATS] for column in columns]
    return TableSketch(
        name,
        content_hash,
        num_rows,
        tuple(column.column_name for column in columns),
        np.array([TYPE_INDEX[column.data_type] for column in columns], np.intp),
        signatures,
        np.array(histograms, np.float64) if columns else np.zeros((0, 0)),
        np.array(counts, np.int64).reshape(len(columns), 4),
        np.array(stats, np.float64).reshape(len(columns), len(_SKETCH_STATS)),
        np.array([[value is not None for value in row] for row in stats], bool).reshape(
            len(columns), len(_SKETCH_STATS)
        ),
    )


def reference_jaccard(a: Signature, b: Signature) -> float:
    """The share of permutations two signatures agree on, counted in Python
    (``MinHashSignature.jaccard`` as it was)."""
    if len(a) != len(b):
        raise ValueError("signatures must use the same number of permutations")
    return sum(x == y for x, y in zip(a, b)) / len(a) if a else 0.0


def reference_jaccard_matrix(
    signatures_a: Sequence[Signature], signatures_b: Sequence[Signature]
) -> np.ndarray:
    """``jaccard_matrix`` one pair at a time, over two lists of signatures."""
    if not signatures_a or not signatures_b:
        return np.zeros((len(signatures_a), len(signatures_b)), dtype=float)
    width = len(signatures_a[0])
    if any(len(signature) != width for signature in (*signatures_a, *signatures_b)):
        raise ValueError("signatures must use the same number of permutations")
    return np.array([[reference_jaccard(a, b) for b in signatures_b] for a in signatures_a])


def reference_histogram_distance(a: SketchColumn, b: SketchColumn) -> float:
    """A column sketch's ``histogram_distance`` as it was: the L1 distance of the
    two hash-space histograms, 0 when either is empty."""
    if not a.histogram or not b.histogram:
        return 0.0
    if len(a.histogram) != len(b.histogram):
        raise ValueError("histograms must use the same number of buckets")
    return sum(abs(x - y) for x, y in zip(a.histogram, b.histogram))


#: ``(band, tuple of rows) -> column keys`` and ``normalised name -> column keys``.
ReferenceBuckets = tuple[
    dict[tuple[int, tuple[int, ...]], set[tuple[str, str]]], dict[str, set[tuple[str, str]]]
]


def reference_buckets(index: LakeIndex) -> ReferenceBuckets:
    """The dict banding ``LakeIndex`` kept before its bands were arrays,
    filled one key at a time from every indexed table's sketch (the empty
    columns are never bucketed)."""
    buckets, names = {}, {}
    for table_name in index.table_names:
        sketch = index.sketch(table_name)
        for column, signature in zip(sketch_columns(sketch), signature_rows(sketch)):
            if column.set_size == 0:
                continue
            for key in _reference_band_keys(index, signature):
                buckets.setdefault(key, set()).add(column.key)
            names.setdefault(column.column_name.strip().lower(), set()).add(column.key)
    return buckets, names


def _reference_band_keys(
    index: LakeIndex, signature: tuple[int, ...]
) -> Iterator[tuple[int, tuple[int, ...]]]:
    rows = index.params.rows
    for band in range(index.params.bands):
        yield (band, signature[band * rows : (band + 1) * rows])


#: ``(table name, column name) -> (its column sketch, its signature)``.
ReferenceColumns = Mapping[tuple[str, str], tuple[SketchColumn, tuple[int, ...]]]


def _reference_candidate_columns(
    index: LakeIndex,
    query: SketchColumn,
    query_signature: tuple[int, ...],
    buckets: ReferenceBuckets,
    lake: ReferenceColumns,
    exclude_table: Optional[str] = None,
) -> list[tuple[SketchColumn, float]]:
    """``LakeIndex.candidate_columns`` as it was: one query column's
    collisions in *buckets* (:func:`reference_buckets`), refined and scored
    one pair at a time."""
    band_buckets, name_buckets = buckets
    seen: set[tuple[str, str]] = set()
    for bucket_key in _reference_band_keys(index, query_signature):
        seen.update(band_buckets.get(bucket_key, ()))
    params = index.params
    name_matches: set[tuple[str, str]] = set()
    if params.name_match_score > 0:
        name_matches = name_buckets.get(query.column_name.strip().lower(), set())
        seen |= name_matches
    scored: list[tuple[SketchColumn, float]] = []
    type_rejected = histogram_rejected = jaccard_rejected = 0
    for column_key in seen:
        if column_key == query.key or column_key[0] == exclude_table:
            continue
        candidate, signature = lake[column_key]
        if (
            type_compatibility(query.data_type, candidate.data_type)
            < params.min_type_compatibility
        ):
            type_rejected += 1
            continue
        name_match = column_key in name_matches
        if (
            not name_match
            and reference_histogram_distance(query, candidate) > params.max_histogram_distance
        ):
            histogram_rejected += 1
            continue
        similarity = reference_jaccard(query_signature, signature)
        if name_match:
            similarity = max(similarity, params.name_match_score)
        if similarity < params.min_jaccard:
            jaccard_rejected += 1
            continue
        scored.append((candidate, similarity))
    scored.sort(key=lambda item: (-item[1], item[0].key))
    telemetry.count("lsh.bands_probed", params.bands)
    telemetry.count("lsh.bucket_candidates", len(seen))
    if type_rejected:
        telemetry.count("lsh.type_rejected", type_rejected)
    if histogram_rejected:
        telemetry.count("lsh.histogram_rejected", histogram_rejected)
    if jaccard_rejected:
        telemetry.count("lsh.jaccard_rejected", jaccard_rejected)
    telemetry.count("lsh.columns_accepted", len(scored))
    return scored


def reference_candidate_tables(
    index: LakeIndex,
    query: TableSketch,
    top_k: Optional[int] = None,
) -> list[CandidateTable]:
    """``LakeIndex.candidate_tables`` as it was: per-column candidates, one
    vote per (query column, table), a Python sum per table."""
    per_table: dict[str, dict[str, tuple[str, float]]] = {}
    buckets = reference_buckets(index)
    lake = {
        column.key: (column, signature)
        for sketch in map(index.sketch, index.table_names)
        for column, signature in zip(sketch_columns(sketch), signature_rows(sketch))
    }
    for query_column, query_signature in zip(sketch_columns(query), signature_rows(query)):
        for candidate, similarity in _reference_candidate_columns(
            index, query_column, query_signature, buckets, lake, exclude_table=query.name
        ):
            best = per_table.setdefault(candidate.table_name, {})
            current = best.get(query_column.column_name)
            if current is None or similarity > current[1]:
                best[query_column.column_name] = (candidate.column_name, similarity)
    num_query_columns = max(1, query.num_columns)
    candidates = []
    for table_name, votes in per_table.items():
        pairs = tuple(
            sorted(
                (
                    (query_column, target_column, similarity)
                    for query_column, (target_column, similarity) in votes.items()
                ),
                key=lambda pair: (-pair[2], pair[0], pair[1]),
            )
        )
        score = sum(similarity for _, _, similarity in pairs) / num_query_columns
        candidates.append(CandidateTable(table_name=table_name, score=score, column_pairs=pairs))
    candidates.sort(key=lambda c: (-c.score, c.table_name))
    return candidates[:top_k] if top_k is not None else candidates


def reference_candidate_signals(
    query_sketch: TableSketch, candidate: TableSketch, seed: int
) -> CandidateSignals:
    """``candidate_signals`` as it was: one candidate's column sketches
    against the query sketch, one call per candidate."""
    max_jaccard = 0.0
    query_signatures, signatures = signature_rows(query_sketch), signature_rows(candidate)
    if query_signatures and signatures:
        max_jaccard = float(reference_jaccard_matrix(query_signatures, signatures).max())
    num_permutations = len(signatures[0]) if signatures else 0
    max_values = 0
    for c in sketch_columns(candidate):
        non_missing = max(0, c.row_count - c.missing_count)
        if non_missing > max_values:
            max_values = non_missing
    return CandidateSignals(
        table_name=candidate.name,
        max_jaccard=max_jaccard,
        num_permutations=num_permutations,
        seed=seed,
        max_values=max_values,
    )


def reference_profile_column(column: Column) -> ColumnProfile:
    """``profile_column`` as it was before the column scan: every statistic
    taken cell by cell over ``non_missing()``."""
    non_missing = column.non_missing()
    mean = std = minimum = maximum = None
    if column.data_type.is_numeric:
        numbers = parse_numeric_values(non_missing)
        if numbers:
            mean = sum(numbers) / len(numbers)
            variance = sum((x - mean) ** 2 for x in numbers) / len(numbers)
            std = math.sqrt(variance)
            minimum = min(numbers)
            maximum = max(numbers)
    lengths = [len(str(v)) for v in non_missing]
    return ColumnProfile(
        name=column.name,
        data_type=column.data_type,
        row_count=len(column),
        distinct_count=len(set(non_missing)),
        missing_count=len(column) - len(non_missing),
        mean=mean,
        std=std,
        minimum=minimum,
        maximum=maximum,
        avg_length=sum(lengths) / len(lengths) if lengths else 0.0,
    )


#: The hashed rank domain every sketch histogram is built over.
REFERENCE_RANK_DOMAIN = 8192


def batch_minhash(
    value_sets: Sequence[Iterable[object]],
    num_permutations: int = 128,
    seed: int = DEFAULT_SEED,
) -> tuple[np.ndarray, np.ndarray]:
    """Signatures and set sizes of value collections from one batched kernel
    call, each set's values normalised and hashed once (``normalize_values``
    then ``hash_normalized``),
    as a column's scan hashes its cells."""
    hashes = [hash_normalized(normalize_values(values))[1] for values in value_sets]
    return minhash_signatures_from_hashes(hashes, num_permutations=num_permutations, seed=seed)


def reference_sketch_table(
    table: Table, config: SketchConfig = SketchConfig(), content_hash: str = ""
) -> TableSketch:
    """``sketch_table`` as it was before the column scan: a ``set`` of each
    column's non-missing cells, each distinct value normalised and ranked
    through a dict, a histogram over those ranks by ``build_histogram``, and
    the signatures of the scalar MinHash over the same sets."""
    columns = table.columns
    scans = [column.non_missing() for column in columns]
    signatures, set_sizes = minhash_signatures_scalar(
        [set(values) for values in scans],
        num_permutations=config.num_permutations,
        seed=config.seed,
    )
    sketches = []
    for column, values, set_size in zip(columns, scans, set_sizes.tolist()):
        ranks = {
            raw: _stable_hash(str(raw).strip().lower()) % REFERENCE_RANK_DOMAIN
            for raw in set(values)
        }
        histogram = build_histogram(
            values, ranks, num_buckets=config.num_buckets, max_rank=REFERENCE_RANK_DOMAIN - 1
        ).weights
        profile = reference_profile_column(column)
        sketches.append(
            SketchColumn(
                table.name, profile.name, profile.data_type, set_size, tuple(histogram),
                profile.row_count, profile.distinct_count, profile.missing_count,
                profile.mean, profile.std, profile.minimum, profile.maximum, profile.avg_length,
            )
        )  # fmt: skip
    return sketch_from_columns(table.name, content_hash, table.num_rows, sketches, signatures)


def reference_semprop_signatures(
    matcher: SemPropMatcher, table: Table
) -> tuple[np.ndarray, np.ndarray]:
    """SemProp's prepare hashing as it was: the first ``sample_size``
    non-missing cells of each column, stripped, through the scalar MinHash
    (which lowercases them) with the default seed."""
    return minhash_signatures_scalar(
        [column.as_strings()[: matcher.sample_size] for column in table.columns],
        num_permutations=matcher.num_permutations,
        seed=DEFAULT_SEED,
    )


def reference_column_scan(column: Column) -> ColumnScan:
    """``Column.scan`` as it was: ``is_missing`` per distinct value, and a
    slot looked up for every normalised string."""
    counts = Counter(column.values)
    distinct = [value for value in counts if not is_missing(value)]
    cells = list(map(counts.__getitem__, distinct))
    size = sum(cells)
    non_missing = column.values if size == len(column.values) else column.non_missing()
    texts = list(map(str, non_missing))
    slot_of: dict[str, int] = {}
    slots = [slot_of.setdefault(str(value).strip().lower(), len(slot_of)) for value in distinct]
    return ColumnScan(
        np.array(cells, np.int64),
        np.array(slots, np.intp),
        hash_normalized_values(slot_of),
        size,
        sum(map(len, texts)),
        len(set(zip(non_missing, texts))) == len(distinct),
    )


def reference_table_content_hash(table: Table) -> str:
    """``table_content_hash`` as it was: one length-prefixed update per cell."""
    hasher = hashlib.blake2b(digest_size=16)

    def _update(payload: bytes) -> None:
        hasher.update(len(payload).to_bytes(8, "little"))
        hasher.update(payload)

    hasher.update(table.num_columns.to_bytes(8, "little"))
    for column in table.columns:
        _update(column.name.encode("utf-8"))
        _update(column.data_type.value.encode("utf-8"))
        hasher.update(len(column.values).to_bytes(8, "little"))
        for value in column.values:
            if value is None:
                hasher.update(b"\xff" * 8)
            else:
                _update(str(value).encode("utf-8"))
    return hasher.hexdigest()


def semprop_signatures(prepared: PreparedTable) -> list[tuple[int, ...]]:
    """A SemProp payload's signature matrix as one tuple of ints per column."""
    return [tuple(row) for row in prepared.payload["signatures"].tolist()]


def reference_semprop_match_prepared(
    matcher: SemPropMatcher, source: PreparedTable, target: PreparedTable
) -> ReferenceMatchResult:
    """``SemPropMatcher.match_prepared`` as it was: one Python branch per cell."""
    source_links = source.payload["links"]
    target_links = target.payload["links"]
    source_names = source.header.column_names
    target_names = target.header.column_names
    estimated_matrix = reference_jaccard_matrix(
        semprop_signatures(source), semprop_signatures(target)
    )

    scores = {}
    for i, source_name in enumerate(source_names):
        for j, target_name in enumerate(target_names):
            semantic = coherence_score(
                source_links[source_name], target_links[target_name], matcher._ontology
            )
            if semantic >= matcher.coherent_threshold:
                score = 0.5 + 0.5 * semantic
            else:
                estimated = float(estimated_matrix[i, j])
                score = (
                    0.5 * estimated
                    if estimated >= matcher.minhash_threshold
                    else 0.25 * estimated
                )
            source_ref = ColumnRef(source.name, source_name)
            scores[(source_ref, ColumnRef(target.name, target_name))] = score
    return ReferenceMatchResult.from_scores(scores, keep_zero=True)


def is_leaf(element: SchemaElement) -> bool:
    """True when the element has no children (i.e. it is a column)."""
    return not element.children


def leaves(element: SchemaElement) -> list[SchemaElement]:
    """All leaf descendants (the element itself when it is a leaf)."""
    if is_leaf(element):
        return [element]
    result: list[SchemaElement] = []
    for child in element.children:
        result.extend(leaves(child))
    return result


def walk(element: SchemaElement) -> Iterator[SchemaElement]:
    """Pre-order traversal of the subtree rooted at *element*."""
    yield element
    for child in element.children:
        yield from walk(child)


def leaf_by_name(tree: SchemaTree, name: str) -> Optional[SchemaElement]:
    """The leaf of *tree* whose name equals *name* (case-sensitive), if any."""
    for leaf in leaves(tree.root):
        if leaf.name == name:
            return leaf
    return None


def category_compatibility(element_a: SchemaElement, element_b: SchemaElement) -> float:
    """Compatibility of two elements' categories in [0, 1].

    Inner nodes compare by category equality; leaves compare through the
    data-type compatibility table.
    """
    if is_leaf(element_a) and is_leaf(element_b):
        type_a = element_a.data_type or DataType.UNKNOWN
        type_b = element_b.data_type or DataType.UNKNOWN
        return type_compatibility(type_a, type_b)
    return 1.0 if element_a.category == element_b.category else 0.5


def name_similarity(name_a: str, name_b: str, thesaurus: Thesaurus | None = None) -> float:
    """The live (memoised) name similarity of one pair, through the batch call."""
    (score,) = name_similarities((name_a,), (name_b,), thesaurus)
    return score


def linguistic_similarity(
    element_a: SchemaElement,
    element_b: SchemaElement,
    thesaurus: Thesaurus | None = None,
) -> float:
    """Linguistic similarity of two schema elements.

    The product of name similarity and category compatibility, as in Cupid's
    ``lsim = cat_compatibility * name_similarity``.
    """
    return category_compatibility(element_a, element_b) * name_similarity(
        element_a.name, element_b.name, thesaurus=thesaurus
    )


def reference_tree_match(
    tree_a: SchemaTree,
    tree_b: SchemaTree,
    weights: CupidWeights | None = None,
    thesaurus: Thesaurus | None = None,
) -> dict[tuple[str, str], float]:
    """``tree_match`` as it was before the matrix form.

    Kept verbatim but for the tree accessors, which are the helpers above:
    one dict entry per leaf pair, a generic walk over every pair of inner
    nodes and a ``leaves()`` call per inner pair.  It names the live
    (memoised) ``name_similarity``, which is pinned against its own
    reference separately.
    """
    weights = weights or CupidWeights()
    leaves_a = leaves(tree_a.root)
    leaves_b = leaves(tree_b.root)

    lsim: dict[tuple[int, int], float] = {}
    wsim: dict[tuple[int, int], float] = {}

    # Step 1: leaf-level linguistic + data-type similarity.
    for i, leaf_a in enumerate(leaves_a):
        for j, leaf_b in enumerate(leaves_b):
            linguistic = linguistic_similarity(leaf_a, leaf_b, thesaurus=thesaurus)
            type_a = leaf_a.data_type or DataType.UNKNOWN
            type_b = leaf_b.data_type or DataType.UNKNOWN
            structural = type_compatibility(type_a, type_b)
            lsim[(i, j)] = linguistic
            wsim[(i, j)] = (
                weights.leaf_w_struct * structural
                + (1.0 - weights.leaf_w_struct) * linguistic
            )

    # Step 2: inner-node structural similarity (single table node per side for
    # tabular data, but the computation is generic over subtrees).
    inner_a = [e for e in walk(tree_a.root) if not is_leaf(e)]
    inner_b = [e for e in walk(tree_b.root) if not is_leaf(e)]
    index_a = {id(leaf): i for i, leaf in enumerate(leaves_a)}
    index_b = {id(leaf): j for j, leaf in enumerate(leaves_b)}

    for node_a in reversed(inner_a):
        for node_b in reversed(inner_b):
            sub_a = [index_a[id(leaf)] for leaf in leaves(node_a)]
            sub_b = [index_b[id(leaf)] for leaf in leaves(node_b)]
            if not sub_a or not sub_b:
                continue
            strong = sum(
                1
                for i in sub_a
                for j in sub_b
                if wsim[(i, j)] > weights.th_accept
            )
            total = len(sub_a) * len(sub_b)
            ssim = strong / total if total else 0.0
            node_linguistic = linguistic_similarity(node_a, node_b, thesaurus=thesaurus)
            node_wsim = weights.w_struct * ssim + (1.0 - weights.w_struct) * node_linguistic

            # Step 3: adjust leaf similarities of this subtree pair.
            if node_wsim > weights.th_high:
                factor = weights.c_inc
            elif node_wsim < weights.th_low:
                factor = weights.c_dec
            else:
                factor = 1.0
            if factor != 1.0:
                for i in sub_a:
                    for j in sub_b:
                        structural_component = min(1.0, wsim[(i, j)] * factor)
                        wsim[(i, j)] = (
                            weights.leaf_w_struct * structural_component
                            + (1.0 - weights.leaf_w_struct) * lsim[(i, j)]
                        )

    return {
        (leaves_a[i].name, leaves_b[j].name): score
        for (i, j), score in wsim.items()
    }


def reference_levenshtein_distance(a: str, b: str, max_distance: int | None = None) -> int:
    """``levenshtein_distance`` as it was before the bit-parallel kernel.

    The classic two-row DP; with *max_distance* set, a value above it only
    means *exceeded* (the sentinel ``max_distance + 1``, or the exact
    distance when a trivial case short-circuits first), and the banded DP
    fills only the ``|i - j| <= max_distance`` diagonal.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    if max_distance is not None:
        if max_distance < 0:
            raise ValueError("max_distance must be non-negative")
        if len(a) - len(b) > max_distance:
            return max_distance + 1
        return _reference_banded_levenshtein(a, b, max_distance)
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def _reference_banded_levenshtein(a: str, b: str, max_distance: int) -> int:
    """Two-row DP restricted to the ``|i - j| <= max_distance`` band (``len(a) >= len(b)``)."""
    over = max_distance + 1
    len_b = len(b)
    previous = [min(j, over) for j in range(len_b + 1)]
    for i, char_a in enumerate(a, start=1):
        lower = max(1, i - max_distance)
        upper = min(len_b, i + max_distance)
        current = [i if i <= max_distance else over] + [over] * len_b
        best = current[0]
        for j in range(lower, upper + 1):
            char_b = b[j - 1]
            cost = 0 if char_a == char_b else 1
            value = min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            if value > over:
                value = over
            current[j] = value
            if value < best:
                best = value
        if best >= over:
            return over
        previous = current
    return min(previous[-1], over)


def reference_fuzzy_jaccard_sets(
    set_a: AbstractSet[str],
    set_b: AbstractSet[str],
    threshold: float,
    sample_size: int,
) -> float:
    """Jaccard–Levenshtein's ``_fuzzy_jaccard_sets`` as it was before the
    bit-parallel kernel: the banded DP stops at the cutoff itself."""
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0

    exact = set_a & set_b
    rest_a = sorted(set_a - exact)[:sample_size]
    rest_b = sorted(set_b - exact)[:sample_size]

    fuzzy_matches = 0
    matched_b: set[str] = set()
    for value_a in rest_a:
        for value_b in rest_b:
            if value_b in matched_b:
                continue
            longest = max(len(value_a), len(value_b))
            if longest == 0:
                similarity = 1.0
            else:
                cutoff = int((1.0 - threshold) * longest) + 1
                distance = reference_levenshtein_distance(value_a, value_b, max_distance=cutoff)
                if distance > cutoff:
                    continue
                similarity = 1.0 - distance / longest
            if similarity >= threshold:
                fuzzy_matches += 1
                matched_b.add(value_b)
                break

    intersection = len(exact) + fuzzy_matches
    union = len(set_a | set_b) - fuzzy_matches
    if union <= 0:
        return 1.0
    return intersection / union
