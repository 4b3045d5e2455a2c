"""Content-addressed snapshot distribution for lake stores.

The artifact layer turns a lake's stores into a replicable unit: a
publisher node exports sketch (and optionally prepared) stores as a
content-addressed snapshot — ``manifest.json`` plus SHA-256-named blobs —
and replica nodes pull it, fetching only the blobs they are missing (the
set difference between the manifest's entry keys and their own).
:class:`~repro.artifacts.watch.LakeWatcher` closes the loop on the publisher side by folding directory changes into
the stores (and optionally re-publishing) incrementally.
"""
