"""Seedable, deterministic fault injection for the distribution pipeline.

Production failure modes — flaky transports, torn blobs, slow NFS mounts,
processes dying mid-pull — are rare by construction, which makes the code
paths that handle them the *least* exercised in the repo.  This module turns
those failures into first-class, reproducible test inputs: a
:class:`FaultPlan` is a list of :class:`FaultSpec` rules evaluated at named
**operation points** (``transport.read_blob``, ``serve.score_batch``, ...)
that the hardened layers call on their hot paths.

Determinism is the design constraint.  Every spec draws from its own
``random.Random`` seeded from ``(plan seed, spec index)``, so a chaos test
with a fixed seed injects the *same* faults at the *same* calls on every
run, on every machine — the property that lets CI run chaos suites as
blocking jobs rather than flaky lottery tickets.  (This mirrors how the
IBLT layer treats its own failure mode: peel failure is deterministic for a
given key set, so the fallback path is testable, not probabilistic.)

Two families of faults:

* **control faults** (:meth:`FaultPlan.check`) — raise an error, sleep a
  delay, or raise :class:`InjectedCrash` (a ``BaseException``, so ordinary
  ``except Exception`` retry handlers do *not* swallow it — it models the
  process dying, and only a test harness catches it);
* **data faults** (:meth:`FaultPlan.mutate`) — truncate the payload or flip
  one bit, modelling torn writes and wire corruption.  The mutation point
  is drawn deterministically from the spec's stream, so the same call gets
  the same corruption.

A plan with no matching spec costs two dict lookups per call — cheap enough
to leave the hooks wired permanently (the default everywhere is no plan at
all, which costs nothing).
"""

from __future__ import annotations

import fnmatch
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

__all__ = ["InjectedFault", "InjectedCrash", "FaultSpec", "FaultPlan"]

#: The fault kinds a spec may inject.  ``error``/``delay``/``crash`` act at
#: :meth:`FaultPlan.check` points; ``truncate``/``corrupt`` act on payload
#: bytes at :meth:`FaultPlan.mutate` points.
KINDS = ("error", "delay", "crash", "truncate", "corrupt")


class InjectedFault(Exception):
    """The default exception an ``error`` spec raises (a transient fault)."""


class InjectedCrash(BaseException):
    """A simulated process death at an operation point.

    Deliberately **not** an :class:`Exception`: retry loops and degradation
    handlers catch ``Exception`` and must treat a crash the way a real
    ``kill -9`` behaves — by not running at all.  Only chaos-test harnesses
    (and the example scripts) catch this.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: *where*, *what*, and *when*.

    Parameters
    ----------
    operation:
        Glob pattern matched (``fnmatch``) against the operation name of
        each call — ``"transport.*"`` faults every transport op,
        ``"transport.read_blob"`` just blob reads.
    kind:
        One of :data:`KINDS`.
    probability:
        Chance of injecting at each matching call (drawn from the spec's
        private deterministic stream).  1.0 = every matching call.
    after:
        Skip the first *after* matching calls entirely — how "crash at step
        N" is written: ``FaultSpec("transport.read_blob", "crash", after=2)``
        lets two blobs through and kills the third read.
    times:
        Injection budget; the spec goes inert after injecting this many
        times (``None`` = unlimited).
    error:
        For ``error`` specs: the exception *instance* or *class* to raise.
        Defaults to :class:`InjectedFault`.
    delay_s:
        For ``delay`` specs: how long to sleep.
    """

    operation: str
    kind: str
    probability: float = 1.0
    after: int = 0
    times: Optional[int] = None
    error: Union[BaseException, type, None] = None
    delay_s: float = 0.01

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {KINDS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.times is not None and self.times <= 0:
            raise ValueError("times must be positive (or None for unlimited)")


@dataclass
class _SpecState:
    """Mutable per-spec bookkeeping (the frozen spec itself never changes)."""

    spec: FaultSpec
    rng: random.Random
    matched_calls: int = 0
    injected: int = 0

    def should_inject(self) -> bool:
        """Advance this spec's deterministic stream for one matching call."""
        self.matched_calls += 1
        if self.matched_calls <= self.spec.after:
            return False
        if self.spec.times is not None and self.injected >= self.spec.times:
            return False
        if self.spec.probability < 1.0 and self.rng.random() >= self.spec.probability:
            return False
        self.injected += 1
        return True


class FaultPlan:
    """A deterministic schedule of injected faults over named operations.

    Thread-safe: the serve dispatcher and watch loop may consult one plan
    concurrently with a test thread reading :meth:`injected`.

    Parameters
    ----------
    specs:
        The injection rules, evaluated in order (every matching spec gets a
        chance per call — a call can suffer a delay *and* an error).
    seed:
        Root seed; each spec's private stream is seeded from
        ``f"{seed}:{index}"`` so reordering unrelated specs never perturbs
        another spec's draws.
    sleep:
        Clock hook for ``delay`` faults (tests pass a no-op).
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec],
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.seed = seed
        self._sleep = sleep
        self._lock = threading.Lock()
        self._states = [
            _SpecState(spec=spec, rng=random.Random(f"{seed}:{index}"))
            for index, spec in enumerate(specs)
        ]

    # ------------------------------------------------------------------ #
    # injection points
    # ------------------------------------------------------------------ #
    def check(self, operation: str) -> None:
        """Evaluate control faults (error / delay / crash) at *operation*.

        Hardened code calls this immediately before performing the real
        operation; with no matching armed spec it is a cheap no-op.
        """
        to_raise: Optional[BaseException] = None
        delay = 0.0
        with self._lock:
            for state in self._states:
                spec = state.spec
                if spec.kind not in ("error", "delay", "crash"):
                    continue
                if not fnmatch.fnmatch(operation, spec.operation):
                    continue
                if not state.should_inject():
                    continue
                if spec.kind == "delay":
                    delay += spec.delay_s
                elif spec.kind == "crash":
                    to_raise = InjectedCrash(
                        f"injected crash at {operation} "
                        f"(call {state.matched_calls})"
                    )
                    break
                elif to_raise is None:
                    to_raise = self._build_error(spec, operation, state.matched_calls)
        if delay:
            self._sleep(delay)
        if to_raise is not None:
            raise to_raise

    def mutate(self, operation: str, data: bytes) -> bytes:
        """Apply data faults (truncate / bit-flip) to *data* at *operation*."""
        with self._lock:
            for state in self._states:
                spec = state.spec
                if spec.kind not in ("truncate", "corrupt"):
                    continue
                if not fnmatch.fnmatch(operation, spec.operation):
                    continue
                if not state.should_inject():
                    continue
                if not data:
                    continue
                if spec.kind == "truncate":
                    # Tear the tail off — at least one byte survives and at
                    # least one byte is lost, like a partial write.
                    keep = state.rng.randint(1, max(1, len(data) - 1))
                    data = data[:keep]
                else:
                    # Flip one deterministic bit somewhere in the payload.
                    position = state.rng.randrange(len(data))
                    bit = 1 << state.rng.randrange(8)
                    mutated = bytearray(data)
                    mutated[position] ^= bit
                    data = bytes(mutated)
        return data

    @staticmethod
    def _build_error(
        spec: FaultSpec, operation: str, call: int
    ) -> BaseException:
        error = spec.error
        if error is None:
            return InjectedFault(f"injected fault at {operation} (call {call})")
        if isinstance(error, type):
            return error(f"injected {error.__name__} at {operation} (call {call})")
        return error

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def injected(
        self, operation: Optional[str] = None, kind: Optional[str] = None
    ) -> int:
        """How many faults this plan has injected (optionally filtered).

        *operation* filters by the spec's **pattern** string, not by the
        call-site name — a plan is small enough that tests address specs by
        the patterns they wrote.
        """
        with self._lock:
            return sum(
                state.injected
                for state in self._states
                if (operation is None or state.spec.operation == operation)
                and (kind is None or state.spec.kind == kind)
            )

    def summary(self) -> dict[str, int]:
        """``{"pattern/kind": injected}`` for every spec (report material)."""
        with self._lock:
            return {
                f"{state.spec.operation}/{state.spec.kind}": state.injected
                for state in self._states
            }
