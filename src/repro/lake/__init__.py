"""Lake-scale dataset discovery: persistent column sketches + LSH pruning.

The discovery systems the paper surveys (Aurum, LSH Ensemble) do not brute
force a matcher over every table in the lake; they prune candidates with
compact per-column sketches first.  This package provides that layer:

* :mod:`repro.lake.profiles` — :class:`ColumnSketch` / :class:`TableSketch`,
  compact serialisable summaries (MinHash signature, hash-space histogram,
  type/stats profile) computed once per column;
* :mod:`repro.lake.store` — :class:`SketchStore`, a versioned on-disk SQLite
  store with incremental add/remove and content-hash cache invalidation;
* :mod:`repro.lake.index` — :class:`LakeIndex`, a MinHash LSH banding index
  with type/histogram pre-filters returning top-k candidate tables;
* :mod:`repro.lake.engine` — :class:`LakeDiscoveryEngine`, prune with the
  index then rerank only the survivors with any registered matcher;
* :mod:`repro.lake.build` — parallel (process-pool) lake construction and
  prepared-store pre-warming with a single-writer commit;
* :mod:`repro.lake.opening` — :func:`open_lake`, the one way the CLI and the
  serve daemon open (and close) a lake's sketch + prepared stores.
"""

from repro.lake.build import BuildReport, PrepareReport, build_from_paths, prepare_lake
from repro.lake.engine import BatchQueryResult, LakeDiscoveryEngine
from repro.lake.index import CandidateTable, LakeIndex, LSHParams
from repro.lake.opening import LakeOpenError, lake_generation, open_lake, resolve_prepared_path
from repro.lake.profiles import (
    ColumnSketch,
    SketchConfig,
    TableSketch,
    sketch_table,
    table_content_hash,
)
from repro.lake.store import SketchStore, store_generation

__all__ = [
    "ColumnSketch",
    "TableSketch",
    "SketchConfig",
    "sketch_table",
    "table_content_hash",
    "SketchStore",
    "store_generation",
    "LakeOpenError",
    "open_lake",
    "resolve_prepared_path",
    "lake_generation",
    "LSHParams",
    "CandidateTable",
    "LakeIndex",
    "LakeDiscoveryEngine",
    "BatchQueryResult",
    "BuildReport",
    "PrepareReport",
    "build_from_paths",
    "prepare_lake",
]
