"""Earth Mover's Distance (EMD) between distributions.

Two flavours are provided:

* :func:`emd_1d` — the closed-form 1-D EMD (area between CDFs) used to
  compare quantile histograms in the distribution-based matcher.
* :func:`emd_general` — the transportation-problem formulation for arbitrary
  ground distances, solved with ``scipy.optimize.linprog``; used by tests as
  an oracle and available for non-ordinal domains.

Additionally :func:`intersection_emd` implements the "intersection EMD" used
in phase 2 of the distribution-based matcher: the EMD between each column and
the intersection of the two value sets, which is robust to columns whose full
domains differ widely but overlap meaningfully.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.distributions.histograms import QuantileHistogram, build_histogram_pair

__all__ = ["emd_1d", "emd_general", "histogram_emd", "column_emd", "intersection_emd"]


def emd_1d(weights_a: Sequence[float], weights_b: Sequence[float]) -> float:
    """Closed-form EMD between two 1-D histograms on the same bucket grid.

    Both weight vectors are normalised to sum to one; the distance is the sum
    of absolute differences of the cumulative distributions (in units of
    buckets).
    """
    a = np.asarray(weights_a, dtype=float)
    b = np.asarray(weights_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"histograms must share a bucket grid: {a.shape} vs {b.shape}")
    # Fully vectorised: normalise, difference, prefix-sum (cumulative CDF
    # gap) and L1-reduce without materialising intermediate Python floats.
    total_a = a.sum()
    total_b = b.sum()
    if total_a > 0:
        a = a / total_a
    if total_b > 0:
        b = b / total_b
    return float(np.abs(np.cumsum(a - b)).sum())


def emd_general(
    weights_a: Sequence[float],
    weights_b: Sequence[float],
    ground_distance: np.ndarray,
) -> float:
    """EMD with an arbitrary ground-distance matrix via linear programming.

    Parameters
    ----------
    weights_a, weights_b:
        Supply and demand mass vectors (normalised internally).
    ground_distance:
        Matrix of shape ``(len(weights_a), len(weights_b))`` with pairwise
        ground distances.
    """
    a = np.asarray(weights_a, dtype=float)
    b = np.asarray(weights_b, dtype=float)
    distance = np.asarray(ground_distance, dtype=float)
    if distance.shape != (a.size, b.size):
        raise ValueError("ground_distance shape does not match weight vectors")
    if a.sum() == 0 or b.sum() == 0:
        return 0.0
    a = a / a.sum()
    b = b / b.sum()

    num_a, num_b = a.size, b.size
    cost = distance.reshape(-1)
    # Row (supply) constraints and column (demand) constraints.
    a_eq = np.zeros((num_a + num_b, num_a * num_b))
    for i in range(num_a):
        a_eq[i, i * num_b : (i + 1) * num_b] = 1.0
    for j in range(num_b):
        a_eq[num_a + j, j::num_b] = 1.0
    b_eq = np.concatenate([a, b])
    from scipy.optimize import linprog  # only this oracle needs scipy

    result = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not result.success:  # pragma: no cover - defensive
        raise RuntimeError(f"EMD linear program failed: {result.message}")
    return float(result.fun)


def histogram_emd(hist_a: QuantileHistogram, hist_b: QuantileHistogram) -> float:
    """EMD between two quantile histograms built on the same bucket grid."""
    if hist_a.num_buckets != hist_b.num_buckets:
        raise ValueError("histograms have different bucket counts")
    if hist_a.is_empty or hist_b.is_empty:
        return float(hist_a.num_buckets)
    return emd_1d(hist_a.weights, hist_b.weights)


def column_emd(values_a: Sequence[object], values_b: Sequence[object], num_buckets: int = 20) -> float:
    """EMD between two columns' quantile histograms over their value union."""
    hist_a, hist_b = build_histogram_pair(values_a, values_b, num_buckets=num_buckets)
    return histogram_emd(hist_a, hist_b)


def intersection_emd(
    values_a: Sequence[object],
    values_b: Sequence[object],
    num_buckets: int = 20,
) -> float:
    """Intersection EMD used by phase 2 of the distribution-based matcher.

    The measure is ``(EMD(A, A∩B) + EMD(B, A∩B)) / 2``.  When the value sets
    do not intersect at all the measure is defined as the maximum bucket
    count, i.e. "infinitely far".
    """
    set_a = {str(v).strip().lower() for v in values_a}
    set_b = {str(v).strip().lower() for v in values_b}
    intersection_keys = set_a & set_b
    if not intersection_keys:
        return float(num_buckets)
    intersection_values = [v for v in list(values_a) + list(values_b)
                           if str(v).strip().lower() in intersection_keys]
    emd_a = column_emd(values_a, intersection_values, num_buckets=num_buckets)
    emd_b = column_emd(values_b, intersection_values, num_buckets=num_buckets)
    return (emd_a + emd_b) / 2.0
