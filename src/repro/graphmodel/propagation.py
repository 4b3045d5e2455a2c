"""Similarity propagation (the "flooding" fixpoint of Similarity Flooding).

Given a pairwise connectivity graph and initial similarity scores, the
algorithm builds an *induced propagation graph* whose edge weights are
propagation coefficients, then iterates a fixpoint computation in which every
map pair propagates part of its similarity to its neighbours, until the
similarity vector stabilises (Euclidean residual below a threshold) or an
iteration cap is reached.

The propagation coefficient policy and the fixpoint formula follow the
variants named in the paper's configuration (Table II): ``inverse_average``
coefficients and fixpoint formula "C" (``sigma_i+1 = normalize(sigma_0 +
sigma_i + phi(sigma_0 + sigma_i))``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

import networkx as nx

__all__ = ["PropagationConfig", "build_propagation_graph", "similarity_flood"]

PairNode = Hashable


@dataclass(frozen=True)
class PropagationConfig:
    """Configuration of the similarity flooding fixpoint.

    Attributes
    ----------
    coefficient_policy:
        ``"inverse_average"`` (paper default) or ``"inverse_product"``.
    fixpoint_formula:
        One of ``"basic"``, ``"a"``, ``"b"``, ``"c"`` — the variants from the
        Similarity Flooding paper; ``"c"`` is the paper default.
    max_iterations:
        Iteration cap.
    residual_threshold:
        Euclidean residual below which the fixpoint is declared converged.
    """

    coefficient_policy: str = "inverse_average"
    fixpoint_formula: str = "c"
    max_iterations: int = 200
    residual_threshold: float = 1e-3

    def __post_init__(self) -> None:
        if self.coefficient_policy not in ("inverse_average", "inverse_product"):
            raise ValueError(f"unknown coefficient policy {self.coefficient_policy!r}")
        if self.fixpoint_formula not in ("basic", "a", "b", "c"):
            raise ValueError(f"unknown fixpoint formula {self.fixpoint_formula!r}")


def build_propagation_graph(
    pcg: nx.DiGraph, config: PropagationConfig | None = None
) -> nx.DiGraph:
    """Attach propagation coefficients to a pairwise connectivity graph.

    For every PCG edge ``u --label--> v`` two weighted edges are created in
    the propagation graph: ``u -> v`` and ``v -> u``.  With the
    ``inverse_average`` policy the weight of edges leaving *u* for label *l*
    is ``1 / n`` where *n* is the number of label-*l* edges incident to *u*
    in that direction (out-edges for forward propagation, in-edges for the
    backward direction).
    """
    config = config or PropagationConfig()
    propagation = nx.DiGraph()
    propagation.add_nodes_from(pcg.nodes())

    out_counts: dict[tuple[PairNode, str], int] = {}
    in_counts: dict[tuple[PairNode, str], int] = {}
    for source, target, data in pcg.edges(data=True):
        label = data.get("label", "")
        out_counts[(source, label)] = out_counts.get((source, label), 0) + 1
        in_counts[(target, label)] = in_counts.get((target, label), 0) + 1

    for source, target, data in pcg.edges(data=True):
        label = data.get("label", "")
        if config.coefficient_policy == "inverse_average":
            forward = 1.0 / out_counts[(source, label)]
            backward = 1.0 / in_counts[(target, label)]
        else:  # inverse_product
            product = out_counts[(source, label)] * in_counts[(target, label)]
            forward = backward = 1.0 / product
        _accumulate_edge(propagation, source, target, forward)
        _accumulate_edge(propagation, target, source, backward)
    return propagation


def _accumulate_edge(graph: nx.DiGraph, source: PairNode, target: PairNode, weight: float) -> None:
    if graph.has_edge(source, target):
        graph[source][target]["weight"] += weight
    else:
        graph.add_edge(source, target, weight=weight)


def _propagate(
    graph: nx.DiGraph, sigma: Mapping[PairNode, float]
) -> dict[PairNode, float]:
    """One propagation step: phi(sigma)[v] = sum over in-edges of w * sigma[u]."""
    result: dict[PairNode, float] = {node: 0.0 for node in graph.nodes()}
    for source, target, data in graph.edges(data=True):
        result[target] += data["weight"] * sigma.get(source, 0.0)
    return result


def similarity_flood(
    pcg: nx.DiGraph,
    initial_similarity: Mapping[PairNode, float],
    config: PropagationConfig | None = None,
) -> dict[PairNode, float]:
    """Run the similarity-flooding fixpoint and return final similarities.

    Parameters
    ----------
    pcg:
        Pairwise connectivity graph.
    initial_similarity:
        Initial similarity sigma_0 per map pair; missing pairs default to 0.
    config:
        Fixpoint configuration.
    """
    config = config or PropagationConfig()
    propagation = build_propagation_graph(pcg, config)
    nodes = list(propagation.nodes())
    if not nodes:
        return {}

    sigma0 = {node: float(initial_similarity.get(node, 0.0)) for node in nodes}
    sigma = dict(sigma0)

    for _ in range(config.max_iterations):
        if config.fixpoint_formula == "basic":
            base = sigma
            increment = _propagate(propagation, sigma)
            updated = {node: base[node] + increment[node] for node in nodes}
        elif config.fixpoint_formula == "a":
            increment = _propagate(propagation, sigma)
            updated = {node: sigma0[node] + increment[node] for node in nodes}
        elif config.fixpoint_formula == "b":
            combined = {node: sigma0[node] + sigma[node] for node in nodes}
            increment = _propagate(propagation, combined)
            updated = dict(increment)
        else:  # formula "c"
            combined = {node: sigma0[node] + sigma[node] for node in nodes}
            increment = _propagate(propagation, combined)
            updated = {node: combined[node] + increment[node] for node in nodes}

        maximum = max(updated.values()) if updated else 0.0
        if maximum > 0:
            updated = {node: value / maximum for node, value in updated.items()}

        residual = sum((updated[node] - sigma[node]) ** 2 for node in nodes) ** 0.5
        sigma = updated
        if residual < config.residual_threshold:
            break
    return sigma
