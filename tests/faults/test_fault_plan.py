"""FaultPlan semantics: deterministic, scheduled, observable injection.

Determinism is the load-bearing property — chaos tests run as *blocking* CI
jobs, which is only sane if a fixed seed produces the exact same faults at
the exact same calls on every machine.  These tests pin that contract plus
the scheduling knobs (``after`` / ``times`` / ``probability``) the chaos
suites are written against.
"""

from __future__ import annotations

import pytest

from repro.faults.plan import FaultPlan, FaultSpec, InjectedCrash, InjectedFault


def _drive(plan, operation, calls):
    """Call ``check`` *calls* times; return which call indexes raised."""
    raised = []
    for index in range(calls):
        try:
            plan.check(operation)
        except InjectedFault:
            raised.append(index)
    return raised


class TestDeterminism:
    def test_same_seed_same_faults(self):
        spec = FaultSpec("transport.read_blob", "error", probability=0.4)
        first = _drive(FaultPlan([spec], seed=7), "transport.read_blob", 50)
        second = _drive(FaultPlan([spec], seed=7), "transport.read_blob", 50)
        assert first == second
        assert first  # 0.4 over 50 calls certainly injects at least once

    def test_different_seed_different_faults(self):
        spec = FaultSpec("transport.read_blob", "error", probability=0.4)
        first = _drive(FaultPlan([spec], seed=7), "transport.read_blob", 50)
        second = _drive(FaultPlan([spec], seed=8), "transport.read_blob", 50)
        assert first != second

    def test_spec_streams_are_independent(self):
        """Adding an unrelated spec must not perturb another spec's draws."""
        target = FaultSpec("op.a", "error", probability=0.5)
        alone = _drive(FaultPlan([target], seed=5), "op.a", 40)
        padded_plan = FaultPlan([target, FaultSpec("op.b", "error")], seed=5)
        assert _drive(padded_plan, "op.a", 40) == alone

    def test_mutations_are_deterministic(self):
        spec = FaultSpec("op", "corrupt")
        data = bytes(range(64))
        first = FaultPlan([spec], seed=11).mutate("op", data)
        second = FaultPlan([spec], seed=11).mutate("op", data)
        assert first == second != data


class TestScheduling:
    def test_after_skips_leading_calls(self):
        plan = FaultPlan([FaultSpec("op", "error", after=3)])
        assert _drive(plan, "op", 6) == [3, 4, 5]

    def test_times_bounds_the_budget(self):
        plan = FaultPlan([FaultSpec("op", "error", times=2)])
        assert _drive(plan, "op", 6) == [0, 1]
        assert plan.injected("op") == 2

    def test_crash_at_step_n(self):
        plan = FaultPlan([FaultSpec("op", "crash", after=2, times=1)])
        plan.check("op")
        plan.check("op")
        with pytest.raises(InjectedCrash):
            plan.check("op")
        plan.check("op")  # budget spent: the restarted process sails through

    def test_crash_is_not_an_exception(self):
        """``except Exception`` retry loops must not swallow a crash."""
        assert not issubclass(InjectedCrash, Exception)

    def test_glob_pattern_matches_operation_family(self):
        plan = FaultPlan([FaultSpec("transport.*", "error")])
        with pytest.raises(InjectedFault):
            plan.check("transport.read_manifest")
        plan.check("serve.score_batch")  # no match, no fault

    def test_custom_error_class_and_instance(self):
        plan = FaultPlan([FaultSpec("op", "error", error=TimeoutError)])
        with pytest.raises(TimeoutError):
            plan.check("op")
        marker = RuntimeError("exact instance")
        plan = FaultPlan([FaultSpec("op", "error", error=marker)])
        with pytest.raises(RuntimeError) as excinfo:
            plan.check("op")
        assert excinfo.value is marker

    def test_delay_uses_injected_sleep(self):
        slept = []
        plan = FaultPlan(
            [FaultSpec("op", "delay", delay_s=0.25)], sleep=slept.append
        )
        plan.check("op")
        assert slept == [0.25]

    def test_invalid_specs_are_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec("op", "explode")
        with pytest.raises(ValueError, match="probability"):
            FaultSpec("op", "error", probability=1.5)
        with pytest.raises(ValueError, match="times"):
            FaultSpec("op", "error", times=0)


class TestMutations:
    def test_truncate_loses_at_least_one_byte(self):
        plan = FaultPlan([FaultSpec("op", "truncate")], seed=2)
        data = bytes(100)
        torn = plan.mutate("op", data)
        assert 1 <= len(torn) < len(data)
        assert data.startswith(torn)

    def test_corrupt_flips_exactly_one_bit(self):
        plan = FaultPlan([FaultSpec("op", "corrupt")], seed=2)
        data = bytes(100)
        flipped = plan.mutate("op", data)
        assert len(flipped) == len(data)
        diff = [a ^ b for a, b in zip(data, flipped)]
        changed = [d for d in diff if d]
        assert len(changed) == 1 and bin(changed[0]).count("1") == 1

    def test_empty_payload_survives(self):
        plan = FaultPlan([FaultSpec("op", "truncate")])
        assert plan.mutate("op", b"") == b""


class TestObservability:
    def test_summary_and_filtered_counts(self):
        plan = FaultPlan(
            [
                FaultSpec("op.a", "error", times=1),
                FaultSpec("op.b", "corrupt", times=2),
            ]
        )
        _drive(plan, "op.a", 3)
        plan.mutate("op.b", b"xyz")
        assert plan.summary() == {"op.a/error": 1, "op.b/corrupt": 1}
        assert plan.injected(kind="error") == 1
        assert plan.injected(operation="op.b") == 1
        assert plan.injected(operation="op.b", kind="error") == 0
