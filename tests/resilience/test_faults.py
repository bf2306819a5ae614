"""Fault plans: seeded schedules, spec parsing, and hook semantics.

The determinism contract under test is the one the drill relies on:
same specs + same seed => the same operations fail, replayably, with
zero cost (one global ``None``-check) while no plan is installed.
"""

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.resilience.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    InjectedWorkerCrash,
    active_plan,
    corrupt_hook,
    fault_hook,
    inject_faults,
    parse_fault,
)


class TestSpecParsing:
    def test_round_trip_through_the_text_form(self):
        for spec in (
            FaultSpec("store-read", count=2, horizon=10),
            FaultSpec("worker-crash"),
            FaultSpec("slow-build", count=1, horizon=4, delay_s=0.2),
        ):
            assert parse_fault(spec.spec()) == spec

    def test_kind_alone_uses_the_defaults(self):
        assert parse_fault("store-write") == FaultSpec("store-write")

    @pytest.mark.parametrize(
        "text",
        [
            "meteor-strike",  # unknown kind
            "store-read:two",  # non-numeric count
            "store-read:1@x",  # non-numeric horizon
            "store-read:1@4,jitter=1",  # unknown option
            "slow-build:1@2,delay=soon",  # non-numeric delay
        ],
    )
    def test_bad_specs_are_rejected(self, text):
        with pytest.raises(ValueError):
            parse_fault(text)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="horizon"):
            FaultSpec("store-read", count=5, horizon=3)
        with pytest.raises(ValueError, match="count"):
            FaultSpec("store-read", count=-1)


class TestSchedules:
    def test_same_seed_same_schedule(self):
        specs = [FaultSpec(kind, count=3, horizon=64) for kind in FAULT_KINDS]
        assert (
            FaultPlan(specs, seed=7).schedule()
            == FaultPlan(specs, seed=7).schedule()
        )

    def test_different_seeds_differ(self):
        specs = [FaultSpec("store-read", count=4, horizon=256)]
        assert (
            FaultPlan(specs, seed=1).schedule()
            != FaultPlan(specs, seed=2).schedule()
        )

    def test_indices_stay_inside_the_horizon(self):
        plan = FaultPlan([FaultSpec("store-read", count=5, horizon=12)], seed=3)
        (indices,) = plan.schedule().values()
        assert len(indices) == 5
        assert len(set(indices)) == 5  # sampled without replacement
        assert all(0 <= index < 12 for index in indices)

    def test_adding_a_spec_never_perturbs_the_others(self):
        base = [FaultSpec("store-read", count=3, horizon=32)]
        extended = base + [FaultSpec("worker-crash", count=3, horizon=32)]
        assert (
            FaultPlan(base, seed=7).schedule()["store-read"]
            == FaultPlan(extended, seed=7).schedule()["store-read"]
        )

    def test_count_equal_horizon_fires_every_operation(self):
        plan = FaultPlan([FaultSpec("store-read", count=4, horizon=4)], seed=1)
        assert plan.schedule()["store-read"] == (0, 1, 2, 3)


class TestHooks:
    def test_hooks_are_no_ops_without_a_plan(self):
        assert active_plan() is None
        fault_hook("store-read", "nothing installed")
        blob = b"payload bytes"
        assert corrupt_hook(blob) is blob

    def test_fault_hook_fires_at_exactly_the_scheduled_indices(self):
        plan = FaultPlan([FaultSpec("store-read", count=2, horizon=6)], seed=7)
        (scheduled,) = plan.schedule().values()
        fired = []
        with inject_faults(plan):
            for index in range(6):
                try:
                    fault_hook("store-read", f"op {index}")
                except InjectedFaultError:
                    fired.append(index)
        assert tuple(fired) == scheduled
        assert plan.fired() == {"store-read": 2}
        assert [event.index for event in plan.events] == fired

    def test_worker_crash_is_a_broken_process_pool(self):
        plan = FaultPlan([FaultSpec("worker-crash", count=1, horizon=1)], seed=1)
        with inject_faults(plan):
            with pytest.raises(BrokenProcessPool) as excinfo:
                fault_hook("worker-crash", "shard 0")
        assert isinstance(excinfo.value, InjectedWorkerCrash)
        assert "shard 0" in str(excinfo.value)

    def test_injected_io_fault_is_an_oserror(self):
        # The retry policy's default retryable tuple must catch it.
        assert issubclass(InjectedFaultError, OSError)

    def test_corrupt_hook_flips_a_copy_never_the_original(self):
        plan = FaultPlan([FaultSpec("corrupt-blob", count=1, horizon=1)], seed=1)
        original = b"\x00payload"
        with inject_faults(plan):
            mutated = corrupt_hook(original, "meta.json")
        assert mutated != original
        assert mutated[0] == 0xFF and mutated[1:] == original[1:]
        assert original == b"\x00payload"  # the stored bytes stay intact

    def test_unscheduled_operations_pass_bytes_through_untouched(self):
        plan = FaultPlan([FaultSpec("corrupt-blob", count=1, horizon=8)], seed=7)
        (scheduled,) = plan.schedule().values()
        with inject_faults(plan):
            outcomes = [corrupt_hook(b"abc") == b"abc" for _ in range(8)]
        assert [i for i, clean in enumerate(outcomes) if not clean] == list(
            scheduled
        )

    def test_plans_do_not_nest(self):
        plan = FaultPlan([], seed=1)
        with inject_faults(plan):
            with pytest.raises(RuntimeError, match="already active"):
                with inject_faults(FaultPlan([], seed=2)):
                    pass  # pragma: no cover - the enter must raise
        assert active_plan() is None

    def test_the_plan_uninstalls_even_on_error(self):
        with pytest.raises(KeyboardInterrupt):
            with inject_faults(FaultPlan([], seed=1)):
                raise KeyboardInterrupt
        assert active_plan() is None
