"""Stage-1 signals and score bounds for the cascaded rerank.

The rerank plan (:func:`~repro.discovery.search.prune_then_rerank`) can be
*priced* before it runs.  Stage 1 scores every shortlisted candidate with
*cheap* store-resident evidence — the sketch-level MinHash
Jaccard and the hash-space histogram distance every
:class:`~repro.lake.profiles.ColumnSketch` already carries — condensed into
one :class:`CandidateSignals` per candidate.  Each matcher turns those
signals into an **upper bound** on any column-pair score it could produce
(:meth:`~repro.matchers.base.BaseMatcher.score_bound`); stage 2 then runs
the expensive ``match_prepared`` only on candidates whose bound still
overlaps the current top-k cutoff.

Bounds are trusted for skipping only when the matcher declares them
*admissible* (:meth:`~repro.matchers.base.BaseMatcher.bounds_admissible`);
otherwise they merely order the work best-bound-first, and every candidate
is still scored exactly — which is what keeps priced rankings
byte-identical to unpriced ones.

This module deliberately avoids importing :mod:`repro.lake` (the lake
package imports the discovery core); the sketch arguments are duck-typed
against :class:`~repro.lake.profiles.ColumnSketch`'s attributes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.sketches.minhash import jaccard_matrix, signature_matrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (repro.lake -> here)
    from repro.lake.profiles import ColumnSketch
    from repro.matchers.base import BaseMatcher, PreparedTable

__all__ = [
    "CandidateSignals",
    "candidate_signals",
    "mode_bound",
    "compute_ranking_bounds",
    "order_by_bound",
]


@dataclass(frozen=True)
class CandidateSignals:
    """Cheap store-resident evidence about one shortlisted candidate.

    Everything here is computed from sketches alone — no CSV read, no
    matcher ``prepare`` — and is what :meth:`BaseMatcher.score_bound`
    receives to derive its upper bound.

    Attributes
    ----------
    table_name:
        The candidate.
    max_jaccard:
        Maximum sketch-estimated value-set Jaccard over all (query column,
        candidate column) pairs.
    min_histogram_distance:
        Minimum L1 distance between hash-space histograms over all pairs
        (in ``[0, 2]``; ``0.0`` when no comparable histograms exist).
    num_columns:
        Candidate column count.
    num_permutations:
        Signature width of the candidate's stored MinHash sketches.
    seed:
        MinHash permutation seed the candidate was sketched with.
    max_values:
        Maximum non-missing cell count over the candidate's columns — lets
        a matcher detect that its own value sampling would truncate.
    """

    table_name: str
    max_jaccard: float
    min_histogram_distance: float
    num_columns: int
    num_permutations: int
    seed: int
    max_values: int


def _min_histogram_distance(query_columns, columns) -> float:
    """Minimum pairwise L1 histogram distance, vectorised per bucket width.

    Stage 1 runs once per shortlisted candidate, so this is on the per-query
    hot path; broadcasting over all (query column, candidate column) pairs
    of the same histogram length beats the naive double loop by an order of
    magnitude on wide shortlists.  Only equal-length, non-empty histograms
    are comparable — mismatched widths contribute nothing, as before.
    """
    query_by_len: dict[int, list] = {}
    for q in query_columns:
        if q.histogram:
            query_by_len.setdefault(len(q.histogram), []).append(q.histogram)
    best = math.inf
    if not query_by_len:
        return best
    candidate_by_len: dict[int, list] = {}
    for c in columns:
        if c.histogram:
            candidate_by_len.setdefault(len(c.histogram), []).append(c.histogram)
    for length, query_hists in query_by_len.items():
        candidate_hists = candidate_by_len.get(length)
        if not candidate_hists:
            continue
        q = np.asarray(query_hists, dtype=np.float64)
        c = np.asarray(candidate_hists, dtype=np.float64)
        distances = np.abs(q[:, None, :] - c[None, :, :]).sum(axis=2)
        best = min(best, float(distances.min()))
    return best


def candidate_signals(
    query_sketch, columns: Sequence["ColumnSketch"], seed: int = 7
) -> CandidateSignals:
    """Condense one candidate's column sketches against the query sketch.

    *query_sketch* is the query's :class:`~repro.lake.profiles.TableSketch`
    (the same object the LSH shortlist was probed with, so stage 1 adds no
    extra sketching pass); *columns* are the candidate's stored
    :class:`~repro.lake.profiles.ColumnSketch` objects and *seed* the store
    config's MinHash seed.
    """
    name = columns[0].table_name if columns else ""
    max_jaccard = 0.0
    query_columns = list(query_sketch.columns)
    if query_columns and columns:
        matrix = jaccard_matrix(
            signature_matrix([sketch.minhash for sketch in query_columns]),
            signature_matrix([sketch.minhash for sketch in columns]),
        )
        max_jaccard = float(matrix.max())
    min_histogram = _min_histogram_distance(query_columns, columns)
    num_permutations = len(columns[0].minhash.values) if columns else 0
    max_values = 0
    for c in columns:
        non_missing = max(0, c.row_count - c.missing_count)
        if non_missing > max_values:
            max_values = non_missing
    return CandidateSignals(
        table_name=name,
        max_jaccard=max_jaccard,
        min_histogram_distance=0.0 if math.isinf(min_histogram) else min_histogram,
        num_columns=len(columns),
        num_permutations=num_permutations,
        seed=seed,
        max_values=max_values,
    )


def mode_bound(pair_bound: float, mode: str, union_threshold: float) -> float:
    """Lift a column-pair score bound to a ranking-score bound for *mode*.

    Joinability is the best pair score, so the pair bound carries over
    directly.  Unionability counts pairs at or above *union_threshold*: a
    pair bound strictly below the threshold proves unionability is exactly
    ``0.0``, otherwise the conservative bound is ``1.0``.  Combined is the
    engines' fixed 0.5/0.5 blend of the two.
    """
    if not math.isfinite(pair_bound):
        return math.inf
    union = 0.0 if pair_bound < union_threshold else 1.0
    if mode == "joinable":
        return pair_bound
    if mode == "unionable":
        return union
    return 0.5 * pair_bound + 0.5 * union


def compute_ranking_bounds(
    matcher: "BaseMatcher",
    prepared_query: "PreparedTable",
    signals: Mapping[str, CandidateSignals],
    mode: str,
    union_threshold: float,
) -> tuple[dict[str, float], bool]:
    """Per-candidate ranking-score bounds, plus whether they may skip work.

    Returns ``(bounds, trusted)``: *bounds* maps candidate name to an upper
    bound on its final ranking score under *mode*, and *trusted* is the
    matcher's :meth:`~repro.matchers.base.BaseMatcher.bounds_admissible`
    declaration — only a trusted bound may drop a candidate below the
    cutoff; untrusted bounds are used purely to order scoring
    best-bound-first.
    """
    bounds = {
        name: mode_bound(
            matcher.score_bound(prepared_query, signal), mode, union_threshold
        )
        for name, signal in signals.items()
    }
    return bounds, matcher.bounds_admissible()


def order_by_bound(
    names: Sequence[str],
    bounds: Mapping[str, float],
    signals: Mapping[str, CandidateSignals],
) -> list[str]:
    """Order candidates best-bound-first so the top-k cutoff rises early.

    Unknown bounds (``+inf``) come first — they must be scored regardless,
    and scoring them early costs nothing.  Ties fall back to the stage-1
    ``max_jaccard`` signal, then to the input (shortlist) order — the sort
    is stable, so a budget-only cascade with no signals preserves the
    shortlist's evidence ordering.
    """

    def sort_key(name: str) -> tuple[float, float]:
        signal = signals.get(name)
        priority = signal.max_jaccard if signal is not None else 0.0
        return (-bounds.get(name, math.inf), -priority)

    return sorted(names, key=sort_key)
