"""Property-based test of pull-side key reconciliation.

``_reconcile`` tries the manifest's IBLT first and falls back to a plain set
difference.  Because the puller always holds both key sets, the two paths
must agree: whatever the remote sketch looks like, the answer is exactly
``(remote − local, local − remote)``.  That equivalence is what makes the
IBLT removable later, and what guards it until then.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifacts.iblt import IBLTSketch
from repro.artifacts.sync import _reconcile

key_sets = st.sets(
    st.text(alphabet="abcdef|0123456789", min_size=1, max_size=12), max_size=40
)

#: Cells per subtable of the remote sketch: absent, too small to peel any
#: real difference, or ample for every generated one.
sketch_sizes = st.sampled_from([None, 1, 128])


class TestReconcileProperties:
    @settings(max_examples=60, deadline=None)
    @given(key_sets, key_sets, sketch_sizes)
    def test_equals_set_difference_whatever_the_sketch(self, local, remote, cells):
        remote_iblt = None
        if cells is not None:
            remote_iblt = IBLTSketch.from_keys(remote, cells_per_subtable=cells)
        to_fetch, to_remove, _via_iblt = _reconcile(local, remote, remote_iblt)
        assert (to_fetch, to_remove) == (remote - local, local - remote)
