"""What several matcher test suites share: light configs, a name corpus and
the previous bodies the kernels are pinned against with ``==`` — the uncached
thesaurus (PR 19), the eager ``MatchResult``, ``relatedness`` and SemProp's
per-cell ``match_prepared`` loop (PR 20).
``jaccard_matrix`` over lists of ``MinHashSignature`` objects is kept the
same way, as it was before SemProp stored one signature matrix.

``tests/`` is on ``sys.path`` (the root ``conftest.py`` lives here), so any
test module can ``from matcher_support import ...``.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.data.table import ColumnRef, Table
from repro.datasets import tpcdi_prospect_table
from repro.discovery.relatedness import RelatednessScores
from repro.fabrication.splitting import split_horizontal, split_vertical
from repro.matchers.base import Match, PreparedTable
from repro.matchers.semprop import SemPropMatcher
from repro.matchers.semprop.semantic import coherence_score
from repro.sketches.minhash import MinHashSignature
from repro.text.stemmer import stem
from repro.text.thesaurus import _HYPERNYM_PAIRS, _SYNONYM_GROUPS, Thesaurus
from repro.text.tokenize import ABBREVIATIONS, tokenize_identifier

__all__ = [
    "LIGHT_MATCHER_CONFIGS",
    "ReferenceMatchResult",
    "lakebench_column_names",
    "lakebench_lake",
    "prospect_lake",
    "reference_jaccard_matrix",
    "reference_relatedness",
    "reference_relation_score",
    "reference_semprop_match_prepared",
    "reference_unionability",
    "semprop_signatures",
    "term_corpus",
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


def lakebench_lake(out_dir: Path) -> Path:
    """Write a one-family ``families`` lake the way the gate does, just smaller.

    ``<out_dir>/lake/*.csv`` are four planted relatives plus two background
    tables (30 rows each), ``<out_dir>/queries/*.csv`` a wide (14-column)
    and a narrow query.
    """
    module = _lakegen()
    shape = module.LakeShape("families", tables=6, rows=30, groups=1, queries_per_group=1)
    module.generate(out_dir, 1, shape)
    return out_dir


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

    def ranked_ref_pairs(self) -> list[tuple[ColumnRef, ColumnRef]]:
        return [match.as_refs() for match in self._matches]

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

    def to_records(self) -> list[dict[str, object]]:
        return [
            {
                "source_table": match.source.table,
                "source_column": match.source.column,
                "target_table": match.target.table,
                "target_column": match.target.column,
                "score": match.score,
            }
            for match in self._matches
        ]


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


def reference_jaccard_matrix(
    signatures_a: Sequence[MinHashSignature],
    signatures_b: Sequence[MinHashSignature],
) -> np.ndarray:
    """``jaccard_matrix`` as it was: over two lists of signature objects."""
    if not signatures_a or not signatures_b:
        return np.zeros((len(signatures_a), len(signatures_b)), dtype=float)
    num_permutations = signatures_a[0].num_permutations
    for signature in (*signatures_a, *signatures_b):
        if signature.num_permutations != num_permutations:
            raise ValueError("signatures must use the same number of permutations")
    if num_permutations == 0:
        return np.zeros((len(signatures_a), len(signatures_b)), dtype=float)
    matrix_a = np.stack([signature._vector for signature in signatures_a])
    matrix_b = np.stack([signature._vector for signature in signatures_b])
    equal = (matrix_a[:, None, :] == matrix_b[None, :, :]).sum(axis=2)
    return equal / num_permutations


def semprop_signatures(prepared: PreparedTable) -> list[MinHashSignature]:
    """A SemProp payload's signature matrix as one signature object per column."""
    return [
        MinHashSignature(tuple(row.tolist()), int(size))
        for row, size in zip(prepared.payload["signatures"], prepared.payload["set_sizes"])
    ]


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
