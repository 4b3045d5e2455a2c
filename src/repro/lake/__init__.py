"""Lake-scale dataset discovery: persistent column sketches + LSH pruning.

The discovery systems the paper surveys (Aurum, LSH Ensemble) do not brute
force a matcher over every table in the lake; they prune candidates with
compact per-column sketches first.  This package provides that layer:

* :mod:`repro.lake.profiles` — :class:`~repro.lake.profiles.TableSketch`,
  a compact serialisable summary of every column of a table (MinHash
  signature, hash-space histogram, type/stats profile) held as a few
  per-table arrays, a row per column, computed once per table;
* :mod:`repro.lake.store` — :class:`~repro.lake.store.SketchStore`, a
  versioned on-disk SQLite store with incremental add/remove and
  content-hash cache invalidation;
* :mod:`repro.lake.index` — :class:`~repro.lake.index.LakeIndex`, a MinHash
  LSH banding index with type/histogram pre-filters returning top-k
  candidate tables;
* :mod:`repro.lake.engine` — :class:`~repro.lake.engine.LakeDiscoveryEngine`,
  prune with the index then rerank only the survivors with any registered
  matcher;
* :mod:`repro.lake.build` — parallel (process-pool) lake construction and
  prepared-store pre-warming with a single-writer commit;
* :mod:`repro.lake.opening` — :func:`~repro.lake.opening.open_lake`, the one
  way the CLI and the serve daemon open (and close) a lake's sketch +
  prepared stores.
"""
