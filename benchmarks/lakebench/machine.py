"""A yardstick for the speed of the box, measured alongside the workload.

The boxes this benchmark runs on share their cores and memory system with
strangers: the same Python loop takes 1.0x to 1.4x as long from one minute
to the next, and an allocation-heavy one swings further than an arithmetic
one.  Ten seconds of measurement cannot average that out, so every timed
slice of a run is accompanied by samples of a fixed *yardstick* loop, and
the time-based end-to-end metrics are reported in yardstick-corrected
units: ``measured * REFERENCE_S / median(yardstick samples of that slice)``.

The yardstick imports nothing from the program under test and never changes
with it, so a faster program still reads faster and a slower one slower;
what cancels is the part of a reading that the neighbours contributed.  The
uncorrected readings are printed next to the corrected ones.

``served`` is the exception once its daemon runs.  Daemon, pool and callers
keep every CPU busy, samples taken meanwhile measure the contention and not
the box, and samples taken before and after (from one process or from one per
CPU) explained none of the run-to-run spread: its timed phase and its first
query are reported as the clock read them.
"""

from __future__ import annotations

import pickle
import statistics
import time
from typing import Sequence

__all__ = ["REFERENCE_S", "sample", "correction"]

#: What one :func:`sample` takes between two operations on the 2-core
#: reference box when it is quiet; it only anchors the unit, so that a
#: corrected second is a quiet second.
REFERENCE_S = 0.0055

# Object churn like the program's own: unpickle, sort, hash, split, join.
_BLOB = pickle.dumps(
    {f"column_{c}": [f"value_{c}_{r:05d}" for r in range(160)] for c in range(12)},
    protocol=4,
)


def sample() -> float:
    """Seconds one pass of the yardstick loop takes right now."""
    started = time.perf_counter()
    for _ in range(10):
        table = pickle.loads(_BLOB)
        lookup = {value: name for name, values in table.items() for value in values}
        tokens = sorted(token for value in table["column_3"] for token in value.split("_"))
        joined = ",".join(tokens)
        total = sum(len(lookup[value]) for value in table["column_7"]) + len(joined)
        squares = 0
        for i in range(2000):
            squares += i * i
    del total, squares
    return time.perf_counter() - started


def correction(samples: Sequence[float]) -> float:
    """Factor that turns a reading taken next to *samples* into quiet-box units.

    No samples, no correction.
    """
    return REFERENCE_S / statistics.median(samples) if samples else 1.0

