"""Long-lived serving layer over the lake discovery pipeline.

The one-shot ``lake query`` CLI pays the full cold-start bill on every
invocation: process launch, store open, index build.  This package
keeps all of that warm in a daemon (``lake serve``) and admits many
concurrent queries over HTTP (TCP or a unix socket, stdlib only):

* :mod:`repro.serve.protocol` — the JSON wire format: request decoding
  with validation, response encoding, and the content-hash cache key
  identical concurrent requests are coalesced on;
* :mod:`repro.serve.admission` — back-pressure primitives: per-request
  :class:`~repro.serve.admission.Deadline`, the bounded
  :class:`~repro.serve.admission.AdmissionQueue` (full ⇒ reject with 429,
  never hang) with its map of keys in flight (a duplicate of a request
  queued or being scored waits on that ticket and takes no seat), and
  :func:`~repro.serve.admission.run_with_deadline` for the one-shot CLI path;
* :mod:`repro.serve.dispatcher` — the single dispatcher thread that serves
  the admission queue one ticket at a time; **all** engine and store access
  happens on this thread (SQLite connections are thread-bound);
* :mod:`repro.serve.server` — :class:`~repro.serve.server.DiscoveryServer`:
  one warm :class:`~repro.lake.engine.LakeDiscoveryEngine` behind
  ``/query``, ``/stats`` and ``/healthz`` (scoring inline on the
  dispatcher), with graceful store reopen on writer cycles;
* :mod:`repro.serve.client` — :class:`~repro.serve.client.ServeClient`, the
  thin HTTP client the benchmarks (and tests) drive the daemon with.
"""
