"""How a pull moves bytes: the transport seam of the artifact layer.

:func:`~repro.artifacts.sync.pull_snapshot` used to read the artifact
directory directly, which welded "what to sync" to "how bytes arrive" and
left nowhere to model a lossy channel.  :class:`ArtifactTransport` is that
seam: two byte-level reads (manifest, blob) with **no verification** —
digest checking belongs to the *puller*, because the trust boundary sits on
the receiving side of the wire.  A transport may return garbage; the pull
layer re-hashes every blob against its manifest digest and re-fetches on
mismatch, so a corrupt read costs a retry, never a corrupt store.

* :class:`LocalTransport` — the original behaviour: a path-like artifact
  directory (local disk, NFS export, object-store mount).
* :class:`FaultyTransport` — wraps any transport with a
  :class:`~repro.faults.plan.FaultPlan`, injecting errors / delays / truncation
  / bit flips / crashes at the two read points.  This is both the chaos
  test harness and living documentation of the failure model the retry
  layer is built against.

:class:`RetryPolicy` pins the retry discipline: bounded exponential backoff
with jitter per blob, plus one **retry budget per pull** so a hard-down
artifact fails in bounded time instead of retrying each of 100k blobs to
its individual limit.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

from repro.artifacts.blobs import BlobStore
from repro.artifacts.manifest import BLOBS_DIR, MANIFEST_NAME
from repro.faults.plan import FaultPlan, InjectedFault

__all__ = [
    "TransportError",
    "ArtifactTransport",
    "LocalTransport",
    "FaultyTransport",
    "RetryPolicy",
    "RetryState",
]

#: Share of a backoff delay that jitter may subtract.
_JITTER = 0.5


class TransportError(Exception):
    """A transient transport failure — the retryable kind."""


class ArtifactTransport:
    """Byte-level access to one published snapshot artifact.

    Contract for implementations:

    * :meth:`read_manifest` returns the raw manifest bytes, raising
      ``FileNotFoundError`` when the artifact has never been published and
      :class:`TransportError` / ``OSError`` on transient failure;
    * :meth:`read_blob` returns raw blob bytes **unverified**, raising
      ``KeyError`` when the digest is absent and :class:`TransportError` /
      ``OSError`` on transient failure.
    """

    def read_manifest(self) -> bytes:
        raise NotImplementedError

    def read_blob(self, digest: str) -> bytes:
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable origin for logs and reports."""
        return type(self).__name__


class LocalTransport(ArtifactTransport):
    """The artifact directory on a filesystem (the PR 8 behaviour)."""

    def __init__(self, artifact_dir: Union[str, Path]) -> None:
        self.root = Path(artifact_dir)
        self._blobs = BlobStore(self.root / BLOBS_DIR)

    def read_manifest(self) -> bytes:
        path = self.root / MANIFEST_NAME
        try:
            return path.read_bytes()
        except FileNotFoundError:
            raise FileNotFoundError(
                f"no snapshot manifest at {path}; not a published artifact?"
            ) from None

    def read_blob(self, digest: str) -> bytes:
        return self._blobs.read_raw(digest)

    def describe(self) -> str:
        return str(self.root)


class FaultyTransport(ArtifactTransport):
    """Any transport seen through a :class:`~repro.faults.plan.FaultPlan`.

    Control faults fire *before* the inner read (a failed request transfers
    nothing); data faults mutate the returned bytes (the read "succeeded"
    but the payload is torn or flipped).  Operation names:
    ``transport.read_manifest`` and ``transport.read_blob``.
    """

    def __init__(self, inner: ArtifactTransport, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan

    def _check(self, operation: str) -> None:
        # A generic injected fault presents as the transport's own transient
        # error type (that is what a flaky wire raises); crashes and
        # explicitly-typed errors pass through untouched.
        try:
            self.plan.check(operation)
        except InjectedFault as exc:
            raise TransportError(str(exc)) from exc

    def read_manifest(self) -> bytes:
        self._check("transport.read_manifest")
        return self.plan.mutate("transport.read_manifest", self.inner.read_manifest())

    def read_blob(self, digest: str) -> bytes:
        self._check("transport.read_blob")
        return self.plan.mutate("transport.read_blob", self.inner.read_blob(digest))

    def describe(self) -> str:
        return f"{self.inner.describe()} (fault-injected)"


class PinnedTransport(LocalTransport):
    """An artifact directory whose manifest is bytes already read from it,
    so a pull uses the manifest its caller parsed instead of reading it
    again.  Blobs are still read from the directory as it is now."""

    def __init__(self, artifact_dir: Union[str, Path], manifest: bytes) -> None:
        super().__init__(artifact_dir)
        self.manifest = manifest

    def read_manifest(self) -> bytes:
        return self.manifest


@dataclass
class RetryPolicy:
    """Bounded exponential backoff with jitter, plus a per-pull budget.

    The delay before retry *n* (1-based) is ``base_delay_s * 2**(n-1)``
    capped at ``max_delay_s``, then jittered by up to half of itself
    (subtracted, so the cap is honest).  ``seed`` pins the jitter stream
    for deterministic tests; ``sleep`` is injectable so chaos suites run at
    full speed.

    ``budget`` bounds the *total* retries one pull may spend across all
    blobs: transient flakiness retries cheerfully, a dead artifact gives up
    after a bounded amount of work.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    budget: int = 64
    sleep: Callable[[float], None] = time.sleep
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")

    def start(self) -> "RetryState":
        """Fresh per-pull state (budget counter + jitter stream)."""
        return RetryState(self)


class RetryState:
    """One pull's retry bookkeeping against a :class:`RetryPolicy`."""

    def __init__(self, policy: RetryPolicy) -> None:
        self.policy = policy
        self.retries = 0
        self._rng = random.Random(policy.seed)

    @property
    def budget_left(self) -> int:
        return max(0, self.policy.budget - self.retries)

    def backoff(self, attempt: int) -> float:
        """The jittered delay before retry *attempt* (1-based)."""
        delay = min(
            self.policy.max_delay_s,
            self.policy.base_delay_s * (2.0 ** (attempt - 1)),
        )
        return delay - delay * _JITTER * self._rng.random()

    def pause(self, attempt: int) -> bool:
        """Consume budget and sleep before retry *attempt*; False = give up.

        Returns False (without sleeping) once either the per-blob attempt
        cap or the pull-wide budget is exhausted.
        """
        if attempt >= self.policy.max_attempts or self.budget_left <= 0:
            return False
        self.retries += 1
        self.policy.sleep(self.backoff(attempt))
        return True
