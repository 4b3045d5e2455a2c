"""Dataset discovery layer: table-level relatedness and repository search."""

from repro.discovery.prepared import (
    PREPARED_PAYLOAD_FORMAT,
    PreparedProvider,
    PreparedStore,
    PreparedTableCache,
)
from repro.discovery.relatedness import RelatednessScores, joinability, relatedness, unionability
from repro.discovery.search import (
    DatasetRepository,
    DiscoveryEngine,
    DiscoveryResult,
    PairScorer,
    RerankOutcome,
    RerankPool,
    prune_then_rerank,
)

__all__ = [
    "RelatednessScores",
    "joinability",
    "unionability",
    "relatedness",
    "DatasetRepository",
    "DiscoveryEngine",
    "DiscoveryResult",
    "PairScorer",
    "RerankOutcome",
    "RerankPool",
    "PreparedProvider",
    "PreparedTableCache",
    "PreparedStore",
    "PREPARED_PAYLOAD_FORMAT",
    "prune_then_rerank",
]
