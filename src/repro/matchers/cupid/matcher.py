"""The Cupid schema matcher (Madhavan, Bernstein, Rahm — VLDB 2001).

Cupid is schema-based: it combines linguistic matching (name similarity via a
thesaurus) and structural matching (TreeMatch over the schema trees) into a
weighted similarity per element pair.  As in the paper's reproduction, the
thesaurus is a bundled lexicon standing in for WordNet and name similarity
doubles as data-compatibility evidence.

The matcher emits the complete ranked list of column pairs with their
weighted similarities; pairs below ``th_accept`` are still reported (with
their scores) because Valentine evaluates rankings, but the parameter governs
the structural-adjustment step exactly as in Cupid.
"""

from __future__ import annotations

from repro.data.table import Table
from repro.matchers.base import BaseMatcher, MatchResult, MatchType, PreparedTable
from repro.matchers.cupid.linguistic import name_pair_work
from repro.matchers.cupid.schema_tree import build_schema_tree
from repro.matchers.cupid.structural import CupidWeights, tree_match
from repro.telemetry import recorder as telemetry
from repro.text.thesaurus import Thesaurus, default_thesaurus

__all__ = ["CupidMatcher"]


class CupidMatcher(BaseMatcher):
    """Cupid: linguistic + structural schema-based matching.

    Parameters
    ----------
    w_struct:
        Structural weight for inner nodes (paper grid: 0.0–0.6).
    leaf_w_struct:
        Structural weight for leaves (paper grid: 0.0–0.6).
    th_accept:
        Acceptance threshold used by TreeMatch (paper grid: 0.3–0.8).
    thesaurus:
        Thesaurus used for linguistic matching; defaults to the bundled one.
    """

    name = "Cupid"
    code = "CU"
    match_types = (MatchType.ATTRIBUTE_OVERLAP, MatchType.SEMANTIC_OVERLAP, MatchType.DATA_TYPE)
    uses_instances = False
    uses_schema = True

    def __init__(
        self,
        w_struct: float = 0.2,
        leaf_w_struct: float = 0.2,
        th_accept: float = 0.7,
        thesaurus: Thesaurus | None = None,
    ) -> None:
        for label, value in (("w_struct", w_struct), ("leaf_w_struct", leaf_w_struct), ("th_accept", th_accept)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {value}")
        self.w_struct = w_struct
        self.leaf_w_struct = leaf_w_struct
        self.th_accept = th_accept
        self._thesaurus = thesaurus or default_thesaurus()

    def _fingerprint_extras(self) -> tuple[object, ...]:
        """A custom thesaurus changes the linguistic similarities."""
        return (self._thesaurus.fingerprint(),)

    def prepare_parameters(self) -> dict[str, object]:
        """The schema tree depends on the table alone.

        ``w_struct``/``leaf_w_struct``/``th_accept`` only steer TreeMatch in
        :meth:`match_prepared`, so all Cupid configurations share prepared
        trees.
        """
        return {}

    def prepare(self, table: Table) -> PreparedTable:
        """Build the table's Cupid schema tree once."""
        return PreparedTable(
            table=table,
            fingerprint=self.fingerprint(),
            payload={"tree": build_schema_tree(table)},
        )

    def match_prepared(self, source: PreparedTable, target: PreparedTable) -> MatchResult:
        """Match columns through Cupid's TreeMatch over the two schema trees."""
        source = self._ensure_prepared(source)
        target = self._ensure_prepared(target)
        tree_source = source.payload["tree"]
        tree_target = target.payload["tree"]
        weights = CupidWeights(
            w_struct=self.w_struct,
            leaf_w_struct=self.leaf_w_struct,
            th_accept=self.th_accept,
        )
        hits_before, misses_before = name_pair_work()
        weighted = tree_match(tree_source, tree_target, weights=weights, thesaurus=self._thesaurus)
        hits, misses = name_pair_work()
        telemetry.count("cupid.name_pairs.hits", hits - hits_before)
        telemetry.count("cupid.name_pairs.misses", misses - misses_before)
        return MatchResult.from_grid(source.header, target.header, weighted.ravel().tolist())
