"""Distribution-based matcher (Zhang, Hadjieleftheriou, Ooi et al. — SIGMOD 2011).

The matcher is purely instance-based: relationships between columns are
captured by comparing the *distributions* of their values.

Phase 1 ("global" EMD)
    Quantile histograms are built for every cross-table column pair over the
    union of the pair's values, and the EMD between them is computed.  Pairs
    whose normalised EMD is at most ``phase1_threshold`` form edges of a
    graph whose connected components are the coarse clusters.

Phase 2 (intersection EMD + integer program)
    Within every coarse cluster the intersection EMD is computed for each
    pair; pairs at or below ``phase2_threshold`` are candidate edges whose
    quality feeds the correlation-clustering integer program (see
    :mod:`repro.matchers.distribution_based.clustering`).  Columns that end
    up in the same final cluster are reported as matches.

Valentine needs a ranked list, so every cross-table pair receives a score:
pairs confirmed by the final clusters rank above unconfirmed pairs, and both
groups are ordered by their (inverted, normalised) EMD.
"""

from __future__ import annotations

from repro.data.table import Column, Table
from repro.distributions.emd import column_emd, intersection_emd
from repro.matchers.base import BaseMatcher, MatchResult, MatchType, PreparedTable
from repro.matchers.distribution_based.clustering import connected_components, refine_cluster
from repro.matchers.registry import register_matcher

__all__ = ["DistributionBasedMatcher"]


@register_matcher
class DistributionBasedMatcher(BaseMatcher):
    """Distribution-based (EMD) column matching.

    Parameters
    ----------
    phase1_threshold:
        Normalised-EMD cut-off of the coarse clustering phase (paper grids:
        0.1–0.2 for the strict run, 0.3–0.5 for the lenient run).
    phase2_threshold:
        Normalised intersection-EMD cut-off of the refinement phase.
    num_buckets:
        Number of quantile-histogram buckets.
    sample_size:
        Number of (distinct) values per column used to build histograms.
    """

    name = "DistributionBased"
    code = "DB"
    match_types = (MatchType.VALUE_OVERLAP, MatchType.DISTRIBUTION)
    uses_instances = True
    uses_schema = False

    def __init__(
        self,
        phase1_threshold: float = 0.15,
        phase2_threshold: float = 0.15,
        num_buckets: int = 20,
        sample_size: int = 1000,
    ) -> None:
        for label, value in (
            ("phase1_threshold", phase1_threshold),
            ("phase2_threshold", phase2_threshold),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {value}")
        if num_buckets <= 0:
            raise ValueError("num_buckets must be positive")
        self.phase1_threshold = phase1_threshold
        self.phase2_threshold = phase2_threshold
        self.num_buckets = num_buckets
        self.sample_size = sample_size

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _column_values(self, column: Column) -> list[str]:
        values = [str(v).strip().lower() for v in column.non_missing()]
        if self.sample_size and len(values) > self.sample_size:
            values = values[: self.sample_size]
        return values

    def _normalised_emd(self, values_a: list[str], values_b: list[str]) -> float:
        if not values_a or not values_b:
            return 1.0
        raw = column_emd(values_a, values_b, num_buckets=self.num_buckets)
        return min(1.0, raw / self.num_buckets)

    def _normalised_intersection_emd(self, values_a: list[str], values_b: list[str]) -> float:
        if not values_a or not values_b:
            return 1.0
        raw = intersection_emd(values_a, values_b, num_buckets=self.num_buckets)
        return min(1.0, raw / self.num_buckets)

    # ------------------------------------------------------------------ #
    # matching
    # ------------------------------------------------------------------ #
    def prepare_parameters(self) -> dict[str, object]:
        """Only ``sample_size`` shapes the prepared (truncated) value lists.

        The clustering thresholds and ``num_buckets`` act on the pairwise
        EMD computation in :meth:`match_prepared`.
        """
        return {
            key: value
            for key, value in self.parameters().items()
            if key == "sample_size"
        }

    def prepare(self, table: Table) -> PreparedTable:
        """Normalise (and truncate) every column's value list once.

        The EMDs themselves are genuinely pairwise — each pair's histograms
        are built over the union of the two columns' values — so only the
        value normalisation can move to the prepare phase.
        """
        values = {c.name: self._column_values(c) for c in table.columns}
        return PreparedTable(
            table=table,
            fingerprint=self.fingerprint(),
            payload={"values": values},
        )

    def score_bound(self, prepared_query: PreparedTable, signals) -> float:
        """Scheduling estimate only — ``bounds_admissible()`` stays False.

        The matcher's EMDs are computed over *per-pair* quantile histograms
        of the two columns' value union; the store's sketches histogram a
        fixed hashed rank domain instead.  The two distances are not
        comparable, so no sound bound exists — but a small store-histogram
        distance still correlates with a small EMD, which makes
        ``0.5 + 0.5 * (1 - d/2)`` (the best score a cluster-confirmed pair
        at that distance could plausibly reach) a useful best-first
        ordering for the cascade and the anytime budget.
        """
        closeness = max(0.0, 1.0 - signals.min_histogram_distance / 2.0)
        return 0.5 + 0.5 * closeness

    def match_prepared(self, source: PreparedTable, target: PreparedTable) -> MatchResult:
        """Run the two clustering phases and rank cross-table column pairs."""
        source = self._ensure_prepared(source)
        target = self._ensure_prepared(target)
        source_values = source.payload["values"]
        target_values = target.payload["values"]

        source_nodes = [("source", name) for name in source.header.column_names]
        target_nodes = [("target", name) for name in target.header.column_names]
        all_nodes = source_nodes + target_nodes

        # Phase 1: global EMD between cross-table pairs.
        phase1_emd: dict[tuple, float] = {}
        phase1_edges: list[tuple] = []
        for source_name, values_a in source_values.items():
            for target_name, values_b in target_values.items():
                emd = self._normalised_emd(values_a, values_b)
                node_a = ("source", source_name)
                node_b = ("target", target_name)
                phase1_emd[(node_a, node_b)] = emd
                if emd <= self.phase1_threshold:
                    phase1_edges.append((node_a, node_b))

        coarse_clusters = connected_components(all_nodes, phase1_edges)

        # Phase 2: intersection EMD refinement + ILP within each coarse cluster.
        matched_pairs: set[tuple[str, str]] = set()
        for cluster in coarse_clusters:
            if len(cluster) < 2:
                continue
            members = sorted(cluster)
            edge_quality: dict[tuple, float] = {}
            for i, node_a in enumerate(members):
                for node_b in members[i + 1 :]:
                    if node_a[0] == node_b[0]:
                        continue  # only cross-table candidates matter
                    values_a = (source_values if node_a[0] == "source" else target_values)[node_a[1]]
                    values_b = (source_values if node_b[0] == "source" else target_values)[node_b[1]]
                    refined = self._normalised_intersection_emd(values_a, values_b)
                    if refined <= self.phase2_threshold:
                        edge_quality[(node_a, node_b)] = 1.0 - refined
            refinement = refine_cluster(members, edge_quality)
            for final_cluster in refinement.clusters:
                sources = [n for n in final_cluster if n[0] == "source"]
                targets = [n for n in final_cluster if n[0] == "target"]
                for node_a in sources:
                    for node_b in targets:
                        matched_pairs.add((node_a[1], node_b[1]))

        # Ranked output: confirmed cluster members first, then the rest, both
        # ordered by inverted EMD.
        scores: dict[tuple[str, str], float] = {}
        for (node_a, node_b), emd in phase1_emd.items():
            pair = (node_a[1], node_b[1])
            base = 1.0 - emd
            scores[pair] = 0.5 + 0.5 * base if pair in matched_pairs else 0.5 * base
        return MatchResult.from_column_scores(source.header, target.header, scores)
