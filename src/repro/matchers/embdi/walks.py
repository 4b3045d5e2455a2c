"""Random-walk sentence generation for EmbDI.

Sentences are sequences of node tokens produced by uniform random walks over
the tripartite data graph.  Following EmbDI, a configurable number of walks
starts from every node (the original biases walk starts towards value and CID
nodes; we start from all nodes and let the caller set ``walks_per_node``).
The paper identifies this walk generation as EmbDI's runtime bottleneck —
which this reproduction faithfully retains.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.matchers.embdi.graph import DataGraph

__all__ = ["WalkConfig", "generate_walks"]


@dataclass(frozen=True)
class WalkConfig:
    """Random walk generation parameters.

    Attributes
    ----------
    sentence_length:
        Number of tokens per walk (Table II: 60; scaled down by default for
        laptop-scale runs).
    walks_per_node:
        Number of walks started from every graph node.
    seed:
        Seed of the pseudo-random generator (determinism for experiments).
    """

    sentence_length: int = 60
    walks_per_node: int = 5
    seed: int = 42

    def __post_init__(self) -> None:
        if self.sentence_length < 2:
            raise ValueError("sentence_length must be at least 2")
        if self.walks_per_node < 1:
            raise ValueError("walks_per_node must be at least 1")


def generate_walks(graph: DataGraph, config: WalkConfig | None = None) -> list[list[str]]:
    """Generate random-walk sentences over *graph*.

    Isolated nodes yield no sentences.  The walk restarts from the start node
    whenever it reaches a dead end (which cannot happen on well-formed data
    graphs but keeps the generator total).
    """
    config = config or WalkConfig()
    rng = random.Random(config.seed)
    sentences: list[list[str]] = []
    for start in graph.all_nodes():
        if not graph.neighbours(start):
            continue
        for _ in range(config.walks_per_node):
            sentence = [start]
            current = start
            while len(sentence) < config.sentence_length:
                neighbours = graph.neighbours(current)
                if not neighbours:
                    current = start
                    continue
                current = rng.choice(neighbours)
                sentence.append(current)
            sentences.append(sentence)
    return sentences
