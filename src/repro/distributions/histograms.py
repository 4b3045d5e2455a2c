"""Quantile histograms over column value sets.

The distribution-based matcher of Zhang et al. (SIGMOD 2011) compares columns
by the Earth Mover's Distance between *quantile histograms* built over a
shared ranking of the union of their values.  This module builds those
histograms for both numeric and textual columns (textual values are ranked
lexicographically, numeric values numerically), mirroring the original
method's treatment of ordinal domains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["QuantileHistogram", "build_histogram", "build_histogram_pair", "rank_values"]


def rank_values(values: Iterable[object]) -> dict[object, int]:
    """Assign dense ranks to the distinct values of *values*.

    Ranks follow the natural order of the (normalised) values and start at 0.
    """
    values = list(values)  # read twice below: once to normalise, once to key
    normalised = []
    for value in values:
        try:
            normalised.append((float(str(value)), None))
        except (TypeError, ValueError):
            normalised.append((None, str(value).strip().lower()))
    has_text = any(text is not None for _, text in normalised)
    keyed: list[tuple[object, object]] = []
    for original, (num, text) in zip(values, normalised):
        key = str(original).strip().lower() if has_text else num
        keyed.append((key, original))
    distinct_keys = sorted({key for key, _ in keyed})
    rank_of_key = {key: i for i, key in enumerate(distinct_keys)}
    ranks: dict[object, int] = {}
    for key, original in keyed:
        ranks.setdefault(original, rank_of_key[key])
    return ranks


@dataclass(frozen=True)
class QuantileHistogram:
    """A histogram over rank buckets of equal width.

    Attributes
    ----------
    bucket_edges:
        ``num_buckets + 1`` monotonically increasing rank boundaries.
    weights:
        Normalised mass per bucket (sums to 1 unless the histogram is empty).
    """

    bucket_edges: tuple[float, ...]
    weights: tuple[float, ...]

    @property
    def num_buckets(self) -> int:
        return len(self.weights)

    @property
    def is_empty(self) -> bool:
        return not self.weights or sum(self.weights) == 0.0


def build_histogram(
    values: Sequence[object],
    ranks: dict[object, int],
    num_buckets: int = 20,
    max_rank: int | None = None,
) -> QuantileHistogram:
    """Build a quantile histogram of *values* under a shared *ranks* mapping.

    Parameters
    ----------
    values:
        The column's values; values missing from *ranks* are ignored.
    ranks:
        Shared value→rank mapping (typically built over the union of two
        columns with :func:`rank_values`).
    num_buckets:
        Number of equi-width rank buckets.
    max_rank:
        Highest rank in the shared domain; defaults to ``max(ranks.values())``.
    """
    if num_buckets <= 0:
        raise ValueError("num_buckets must be positive")
    if max_rank is None:
        max_rank = max(ranks.values()) if ranks else 0
    upper = float(max_rank) + 1.0
    edges = np.linspace(0.0, upper, num_buckets + 1)
    # Ranks are looked up in Python (dict of arbitrary objects) but the
    # bucket arithmetic and counting are one vectorised pass: same
    # ``int(rank / upper * num_buckets)`` truncation as the old per-value
    # loop, so bucket assignment is bit-identical.
    get_rank = ranks.get
    rank_list = [r for r in map(get_rank, values) if r is not None]
    if rank_list:
        rank_array = np.asarray(rank_list, dtype=float)
        buckets = np.minimum(
            (rank_array / upper * num_buckets).astype(np.int64), num_buckets - 1
        )
        counts = np.bincount(buckets, minlength=num_buckets).astype(float)
    else:
        counts = np.zeros(num_buckets, dtype=float)
    total = counts.sum()
    weights = counts / total if total > 0 else counts
    return QuantileHistogram(tuple(edges.tolist()), tuple(weights.tolist()))


def build_histogram_pair(
    values_a: Sequence[object],
    values_b: Sequence[object],
    num_buckets: int = 20,
) -> tuple[QuantileHistogram, QuantileHistogram]:
    """Build comparable histograms for two columns over their value union."""
    union = list(values_a) + list(values_b)
    if not union:
        empty = QuantileHistogram((0.0, 1.0), (0.0,))
        return empty, empty
    ranks = rank_values(union)
    max_rank = max(ranks.values())
    hist_a = build_histogram(values_a, ranks, num_buckets=num_buckets, max_rank=max_rank)
    hist_b = build_histogram(values_b, ranks, num_buckets=num_buckets, max_rank=max_rank)
    return hist_a, hist_b
