"""Valentine reproduction: evaluating schema matching for dataset discovery.

This package reproduces the system and experiments of *"Valentine: Evaluating
Matching Techniques for Dataset Discovery"* (Koutras et al., ICDE 2021):

* eight schema-matching methods adapted to return ranked column matches
  (:mod:`repro.matchers`, each reached by name through
  :mod:`repro.matchers.registry`);
* the dataset-pair fabricator for the four relatedness scenarios
  (:mod:`repro.fabrication`);
* synthetic stand-ins for the paper's dataset sources (:mod:`repro.datasets`);
* the Recall@ground-truth evaluation metric (:mod:`repro.metrics`);
* the experiment suite — parameter grids, runner, aggregation, sensitivity
  and efficiency analyses (:mod:`repro.experiments`).

Importing the package imports none of its subpackages, and no subpackage
but :mod:`repro.telemetry` re-exports its modules' names: each module
imports what it uses from the module that defines it, so ``import
repro.cli`` loads neither scipy nor networkx.

Quickstart
----------
>>> from repro.datasets.fabricated_sources import tpcdi_prospect_table
>>> from repro.fabrication.fabricator import Fabricator
>>> from repro.fabrication.pairs import Scenario
>>> from repro.matchers.registry import create_matcher
>>> from repro.metrics.ranking import recall_at_ground_truth
>>> seed = tpcdi_prospect_table(num_rows=200)
>>> pair = Fabricator().fabricate(seed, scenarios=[Scenario.UNIONABLE])[0]
>>> matcher = create_matcher("ComaSchema")
>>> result = matcher.get_matches(pair.source, pair.target)
>>> recall_at_ground_truth(result.ranked_pairs(), pair.ground_truth)  # doctest: +SKIP
1.0
"""

import logging as _logging

# Library convention: the package never configures logging for its host
# application.  Attach a NullHandler at the root of the `repro.*` hierarchy
# so instrumented modules can log freely without "no handler" warnings; the
# CLI (and any embedding application) opts into real handlers explicitly.
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

__version__ = "1.0.0"
