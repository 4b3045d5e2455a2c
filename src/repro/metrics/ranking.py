"""Ranked-list effectiveness metrics.

The paper's headline metric is **Recall@ground-truth** (Section II-C): with
``k = |ground truth|``, the fraction of the top-*k* ranked matches that are
relevant.  Because *k* equals the ground-truth size, the measure coincides
with Precision@ground-truth.  Recall@k and reciprocal rank complete the
module; the experiment runner records each run's reciprocal rank.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = [
    "recall_at_ground_truth",
    "recall_at_k",
    "reciprocal_rank",
]

Pair = tuple[str, str]


def _normalise_pairs(pairs: Iterable[Pair]) -> list[Pair]:
    return [(str(a), str(b)) for a, b in pairs]


def _relevant_in_top_k(ranked_pairs: Sequence[Pair], truth: set[Pair], k: int) -> int:
    """Number of *distinct* ground-truth pairs appearing in the top-*k*.

    Rankings may in principle contain duplicate pairs; each ground-truth pair
    is counted at most once so metrics stay within [0, 1].
    """
    top_k = _normalise_pairs(ranked_pairs)[:k]
    return len({pair for pair in top_k if pair in truth})


def recall_at_ground_truth(ranked_pairs: Sequence[Pair], ground_truth: Iterable[Pair]) -> float:
    """Recall@ground-truth: relevant matches among the top-``|ground truth|``.

    Parameters
    ----------
    ranked_pairs:
        Column-name pairs ordered by decreasing confidence.
    ground_truth:
        The set of correct column-name pairs.
    """
    truth = set(_normalise_pairs(ground_truth))
    if not truth:
        return 0.0
    k = len(truth)
    return _relevant_in_top_k(ranked_pairs, truth, k) / k



def recall_at_k(ranked_pairs: Sequence[Pair], ground_truth: Iterable[Pair], k: int) -> float:
    """Recall of the top-*k* ranked matches with respect to the ground truth."""
    truth = set(_normalise_pairs(ground_truth))
    if not truth or k <= 0:
        return 0.0
    return _relevant_in_top_k(ranked_pairs, truth, k) / len(truth)


def reciprocal_rank(ranked_pairs: Sequence[Pair], ground_truth: Iterable[Pair]) -> float:
    """Reciprocal rank of the first relevant match (0 when none is found)."""
    truth = set(_normalise_pairs(ground_truth))
    for index, pair in enumerate(_normalise_pairs(ranked_pairs), start=1):
        if pair in truth:
            return 1.0 / index
    return 0.0
