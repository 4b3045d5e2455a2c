"""Core string similarity and edit-distance measures.

The Jaccard–Levenshtein baseline matcher, COMA's name matchers and
Similarity Flooding's initial similarities rest on
:func:`levenshtein_distance`; Cupid's linguistic matching uses the
Jaro–Winkler and Monge–Elkan measures.  The edit distance is one exact
bit-parallel kernel with no cutoff: a caller that only accepts distances
up to some bound checks the length difference before the call and the
distance after it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = [
    "levenshtein_distance",
    "normalized_levenshtein",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "jaccard_similarity",
    "dice_coefficient",
    "monge_elkan",
]


def levenshtein_distance(a: str, b: str) -> int:
    """Edit distance between *a* and *b* (insert/delete/substitute, unit cost).

    Myers' (1999) bit-vector algorithm in Hyyrö's (2001) formulation: one
    column of the dynamic program is a pair of bit vectors over the longer
    string (``pv`` / ``mv``: the vertical deltas that are +1 / -1), and
    each character of the shorter string advances it with a handful of
    integer operations.  Python ints are unbounded, so one pass serves
    strings of any length.  The score tracks the DP's last row.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    # peq[c]: bit i is set where a[i] == c.
    peq: dict[str, int] = {}
    bit = 1
    for char in a:
        peq[char] = peq.get(char, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv, score = mask, 0, len(a)
    for char in b:
        eq = peq.get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | ~(xh | pv)) & mask
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # Row 0 of the DP grows by one per column: shift in a +1 delta.
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def normalized_levenshtein(a: str, b: str) -> float:
    """``1 - distance / max(len)`` — 1.0 for identical strings, 0.0 for disjoint."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein_distance(a, b) / longest


def jaro_similarity(a: str, b: str) -> float:
    """Jaro similarity in [0, 1]."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    match_window = max(len(a), len(b)) // 2 - 1
    match_window = max(match_window, 0)
    a_matched = [False] * len(a)
    b_matched = [False] * len(b)
    matches = 0
    for i, char_a in enumerate(a):
        start = max(0, i - match_window)
        stop = min(i + match_window + 1, len(b))
        for j in range(start, stop):
            if b_matched[j] or b[j] != char_a:
                continue
            a_matched[i] = True
            b_matched[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, char_a in enumerate(a):
        if not a_matched[i]:
            continue
        while not b_matched[j]:
            j += 1
        if char_a != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / len(a) + matches / len(b) + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_similarity(a: str, b: str, prefix_weight: float = 0.1) -> float:
    """Jaro–Winkler similarity: Jaro boosted by a shared prefix of up to 4 chars."""
    jaro = jaro_similarity(a, b)
    prefix = 0
    for char_a, char_b in zip(a[:4], b[:4]):
        if char_a != char_b:
            break
        prefix += 1
    return jaro + prefix * prefix_weight * (1.0 - jaro)


def jaccard_similarity(a: Iterable, b: Iterable) -> float:
    """Jaccard similarity of two value collections (treated as sets)."""
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    intersection = len(set_a & set_b)
    union = len(set_a | set_b)
    return intersection / union


def dice_coefficient(a: Iterable, b: Iterable) -> float:
    """Sørensen–Dice coefficient of two value collections."""
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 1.0
    if not set_a or not set_b:
        return 0.0
    return 2.0 * len(set_a & set_b) / (len(set_a) + len(set_b))


def monge_elkan(
    tokens_a: Sequence[str],
    tokens_b: Sequence[str],
    inner=jaro_winkler_similarity,
) -> float:
    """Monge–Elkan similarity between two token sequences.

    For every token of *tokens_a* the best inner similarity against
    *tokens_b* is taken; the result is the mean of those maxima.
    """
    if not tokens_a or not tokens_b:
        return 0.0
    total = 0.0
    for token_a in tokens_a:
        total += max(inner(token_a, token_b) for token_b in tokens_b)
    return total / len(tokens_a)
