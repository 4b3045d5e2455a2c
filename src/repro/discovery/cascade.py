"""Stage-1 signals and score bounds for the cascaded rerank.

The rerank plan (:func:`~repro.discovery.search.prune_then_rerank`) can be
*priced* before it runs.  Stage 1 condenses cheap store-resident evidence —
the MinHash Jaccard estimate between the signature rows every
:class:`~repro.lake.profiles.TableSketch` already holds — into one
:class:`CandidateSignals` per shortlisted candidate.  Its one producer is the
lake engine (:class:`~repro.lake.engine.LakeDiscoveryEngine`), which prices
its whole shortlist in one :func:`candidate_signals` call per query, from
the signature matrix its resident :class:`~repro.lake.index.LakeIndex`
keeps per index generation.  Each
matcher turns those signals into an **upper bound** on any column-pair score
it could produce (:meth:`~repro.matchers.base.BaseMatcher.score_bound`);
stage 2 then runs the expensive ``match_prepared`` only on candidates whose
bound still reaches the current top-k cutoff.

One rule makes that exact: a finite bound is a sound bound, and a matcher
that cannot guarantee one returns the base ``+inf``, which never skips.
Skipping therefore cannot evict a true top-k member, and a priced ranking is
byte-identical to an unpriced one.

This module deliberately avoids importing :mod:`repro.lake` (the lake
package imports the discovery core): the index hands it arrays, and the
query sketch is duck-typed against
:class:`~repro.lake.profiles.TableSketch`'s attributes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.discovery.relatedness import DEFAULT_UNION_THRESHOLD

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (repro.lake -> here)
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
    num_permutations: int
    seed: int
    max_values: int


def candidate_signals(
    query_sketch,
    names: Sequence[str],
    signatures: np.ndarray,
    offsets: np.ndarray,
    max_values: Sequence[int],
    seed: int,
) -> dict[str, CandidateSignals]:
    """Condense a whole shortlist against the query sketch: one Jaccard block,
    query columns x candidate columns, maximised per table slice.

    *query_sketch* is the query's :class:`~repro.lake.profiles.TableSketch`
    (the one the LSH shortlist was probed with: stage 1 sketches nothing).
    The tables *names* arrive as
    :meth:`~repro.lake.index.LakeIndex.signature_block` returns them;
    *seed* is the store config's MinHash seed.
    """
    query = query_sketch.signatures
    width = signatures.shape[1]
    sizes = np.diff(offsets)
    max_jaccard = np.zeros(len(names))
    if len(query) and len(signatures):
        if query.shape[1] != width:
            raise ValueError("signatures must use the same number of permutations")
        if width:
            equal = np.zeros(len(signatures), dtype=np.intp)
            for column in query:  # a row of the block at a time: small temporaries
                equal = np.maximum(equal, np.count_nonzero(signatures == column, axis=1))
            priced = sizes > 0
            max_jaccard[priced] = np.maximum.reduceat(equal, offsets[:-1][priced]) / width
    return {
        name: CandidateSignals(
            table_name=name,
            max_jaccard=jaccard,
            num_permutations=width if size else 0,
            seed=seed,
            max_values=values,
        )
        for name, jaccard, size, values in zip(
            names, max_jaccard.tolist(), sizes.tolist(), max_values
        )
    }


def mode_bound(pair_bound: float, mode: str) -> float:
    """Lift a column-pair score bound to a ranking-score bound for *mode*.

    Joinability is the best pair score, so the pair bound carries over
    directly.  Unionability counts pairs at or above
    :data:`~repro.discovery.relatedness.DEFAULT_UNION_THRESHOLD`: a
    pair bound strictly below the threshold proves unionability is exactly
    ``0.0``, otherwise the conservative bound is ``1.0``.  Combined is the
    engines' fixed 0.5/0.5 blend of the two.
    """
    if not math.isfinite(pair_bound):
        return math.inf
    union = 0.0 if pair_bound < DEFAULT_UNION_THRESHOLD else 1.0
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
) -> dict[str, float]:
    """Per-candidate upper bounds on the final ranking score under *mode*.

    A finite value is sound (the matcher's
    :meth:`~repro.matchers.base.BaseMatcher.score_bound` guarantees it) and
    may drop a candidate below the cutoff; ``+inf`` never does.
    """
    return {
        name: mode_bound(matcher.score_bound(prepared_query, signal), mode)
        for name, signal in signals.items()
    }


def order_by_bound(
    names: Sequence[str],
    bounds: Mapping[str, float],
    signals: Mapping[str, CandidateSignals],
) -> list[str]:
    """Order candidates best-bound-first so the top-k cutoff rises early.

    Unknown bounds (``+inf``) come first — they must be scored regardless,
    and scoring them early costs nothing.  Ties fall back to the stage-1
    ``max_jaccard`` signal, then to the input (shortlist) order — the sort
    is stable, so candidates without signals keep the shortlist's evidence
    ordering.
    """

    def sort_key(name: str) -> tuple[float, float]:
        signal = signals.get(name)
        priority = signal.max_jaccard if signal is not None else 0.0
        return (-bounds.get(name, math.inf), -priority)

    return sorted(names, key=sort_key)
