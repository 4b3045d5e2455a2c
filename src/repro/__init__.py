"""Valentine reproduction: evaluating schema matching for dataset discovery.

This package reproduces the system and experiments of *"Valentine: Evaluating
Matching Techniques for Dataset Discovery"* (Koutras et al., ICDE 2021):

* seven schema-matching methods adapted to return ranked column matches
  (:mod:`repro.matchers`);
* the dataset-pair fabricator for the four relatedness scenarios
  (:mod:`repro.fabrication`);
* synthetic stand-ins for the paper's dataset sources (:mod:`repro.datasets`);
* the Recall@ground-truth evaluation metric (:mod:`repro.metrics`);
* the experiment suite — parameter grids, runner, aggregation, sensitivity
  and efficiency analyses (:mod:`repro.experiments`).

Quickstart
----------
>>> from repro import datasets, fabrication, matchers, metrics
>>> seed = datasets.tpcdi_prospect_table(num_rows=200)
>>> fabricator = fabrication.Fabricator()
>>> pair = fabricator.fabricate(seed, scenarios=[fabrication.Scenario.UNIONABLE])[0]
>>> matcher = matchers.ComaSchemaMatcher()
>>> result = matcher.get_matches(pair.source, pair.target)
>>> metrics.recall_at_ground_truth(result.ranked_pairs(), pair.ground_truth)  # doctest: +SKIP
1.0
"""

import logging as _logging

from repro import data, datasets, discovery, distributions, embeddings, experiments, fabrication
from repro import graphmodel, matchers, metrics, ontology, optimize, sketches, telemetry, text, tuning
from repro.data import Column, ColumnRef, DataType, Table
from repro.experiments import (
    ExperimentRunner,
    ResultSet,
    default_parameter_grids,
    run_single_experiment,
)
from repro.fabrication import DatasetPair, Fabricator, NoiseVariant, Scenario
from repro.discovery import DatasetRepository, DiscoveryEngine
from repro.matchers import (
    BaseMatcher,
    ComaInstanceMatcher,
    ComaSchemaMatcher,
    CupidMatcher,
    DistributionBasedMatcher,
    EmbDIMatcher,
    EnsembleMatcher,
    JaccardLevenshteinMatcher,
    Match,
    MatchResult,
    SemPropMatcher,
    SimilarityFloodingMatcher,
    available_matchers,
)
from repro.tuning import AutoTuner
from repro.metrics import precision_at_k, recall_at_ground_truth

# Library convention: the package never configures logging for its host
# application.  Attach a NullHandler at the root of the `repro.*` hierarchy
# so instrumented modules can log freely without "no handler" warnings; the
# CLI (and any embedding application) opts into real handlers explicitly.
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # substrates / subpackages
    "data",
    "datasets",
    "discovery",
    "distributions",
    "embeddings",
    "experiments",
    "fabrication",
    "graphmodel",
    "matchers",
    "metrics",
    "ontology",
    "optimize",
    "sketches",
    "telemetry",
    "text",
    "tuning",
    # core data model
    "Table",
    "Column",
    "ColumnRef",
    "DataType",
    # matching API
    "BaseMatcher",
    "Match",
    "MatchResult",
    "available_matchers",
    "CupidMatcher",
    "SimilarityFloodingMatcher",
    "ComaSchemaMatcher",
    "ComaInstanceMatcher",
    "DistributionBasedMatcher",
    "SemPropMatcher",
    "EmbDIMatcher",
    "JaccardLevenshteinMatcher",
    "EnsembleMatcher",
    # discovery + tuning
    "DatasetRepository",
    "DiscoveryEngine",
    "AutoTuner",
    # fabrication
    "DatasetPair",
    "Fabricator",
    "NoiseVariant",
    "Scenario",
    # metrics + experiments
    "recall_at_ground_truth",
    "precision_at_k",
    "ExperimentRunner",
    "ResultSet",
    "default_parameter_grids",
    "run_single_experiment",
]
