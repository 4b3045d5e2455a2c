"""Table-level relatedness scores built on top of column matchers.

Section II-B of the paper describes how dataset discovery systems consume a
schema matcher: they need column-pair similarities and rankings in order to
decide "the degree to which two tables can be unioned or joined".  This
module provides those table-level derivations:

* :func:`joinability` — strength of the best column correspondence, i.e. how
  confident we are that a join key exists;
* :func:`unionability` — fraction of the query table's columns that find a
  sufficiently strong partner, i.e. how close the pair is to being
  union-compatible;
* :class:`RelatednessScores` bundling both.

They operate on :class:`~repro.matchers.base.MatchResult` rankings, so any of
the bundled matching methods (or an ensemble) can be plugged in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.data.table import Table, TableHeader
from repro.matchers.base import MatchResult

__all__ = ["RelatednessScores", "joinability", "unionability", "relatedness"]


@dataclass(frozen=True)
class RelatednessScores:
    """Joinability and unionability of one (query, candidate) table pair."""

    joinability: float
    unionability: float
    best_pair: tuple[str, str] | None

    def combined(self) -> float:
        """The mean of joinability and unionability (single-score rankings)."""
        return 0.5 * self.joinability + 0.5 * self.unionability


def joinability(result: MatchResult) -> float:
    """Joinability: the score of the strongest column correspondence.

    A high value means at least one column pair is very likely to be a join
    key (value overlap / semantic equivalence), regardless of the rest of the
    schema.
    """
    best = result.best()
    return float(best.score) if best else 0.0


def unionability(
    result: MatchResult, query: Union[Table, TableHeader], threshold: float = 0.55
) -> float:
    """Unionability: fraction of query columns with a partner above *threshold*.

    Union compatibility requires a 1-1 mapping over *all* attributes
    (Section III-A), so the score is normalised by the query's column count.
    The 1-1 constraint is respected by greedily consuming the ranking — of
    which only the part scoring at least *threshold* is looked at: whether a
    match survives the greedy walk depends on the matches ranked before it
    alone, so everything below the threshold can neither count nor change
    what does, and the rest of the ranking is never ordered.
    """
    if query.num_columns == 0:
        return 0.0
    strong = len(result.filter_threshold(threshold).one_to_one())
    return min(1.0, strong / query.num_columns)


def relatedness(
    result: MatchResult, query: Union[Table, TableHeader], threshold: float = 0.55
) -> RelatednessScores:
    """Compute both table-level scores from one ranking.

    Asks the ranking for its best match and for its at-least-*threshold*
    part only (see :func:`unionability`), so scoring a candidate orders at
    most that part; the scores are plain Python floats (the serve protocol
    JSON-encodes them).
    """
    best = result.best()
    return RelatednessScores(
        joinability=float(best.score) if best else 0.0,
        unionability=unionability(result, query, threshold=threshold),
        best_pair=best.as_pair() if best else None,
    )
