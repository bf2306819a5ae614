"""The shared retry policy: bounded, budgeted, and fully deterministic.

Everything here runs without real sleeping -- ``call_with_retry`` takes
injectable ``sleep``/``clock`` callables precisely so the backoff
schedule can be asserted byte-for-byte instead of timed.
"""

import pytest

from repro.resilience.retry import (
    DEFAULT_POLICY,
    STORE_POLICY,
    RetryPolicy,
    call_with_retry,
)
from repro.telemetry import counts


@pytest.fixture()
def retries():
    """``retries()``: the ``retries_total`` counts added since the test began."""
    before = counts("retries_total")
    return lambda: counts("retries_total") - before


class FlakyOnce:
    """Fails ``failures`` times, then returns ``value`` forever."""

    def __init__(self, failures, value="ok", error=OSError("disk hiccup")):
        self.failures = failures
        self.value = value
        self.error = error
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return self.value


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"attempts": 0},
            {"base_delay_s": -0.1},
            {"max_delay_s": -1.0},
            {"multiplier": 0.5},
            {"jitter": 1.5},
            {"jitter": -0.1},
            {"timeout_s": 0.0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_attempt_numbers_are_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            DEFAULT_POLICY.delay(0)


class TestDeterministicBackoff:
    def test_delays_replay_exactly(self):
        assert DEFAULT_POLICY.delays("store:traffic") == DEFAULT_POLICY.delays(
            "store:traffic"
        )

    def test_labels_decorrelate_the_jitter(self):
        assert DEFAULT_POLICY.delays("store:traffic") != DEFAULT_POLICY.delays(
            "serve:table1"
        )

    def test_jitter_only_shrinks_below_the_raw_curve(self):
        policy = RetryPolicy(attempts=6, jitter=0.5, timeout_s=None)
        no_jitter = RetryPolicy(attempts=6, jitter=0.0, timeout_s=None)
        for jittered, raw in zip(policy.delays("x"), no_jitter.delays("x")):
            assert 0.0 < jittered <= raw
            assert jittered >= raw * (1.0 - policy.jitter)

    def test_max_delay_is_a_hard_ceiling(self):
        policy = RetryPolicy(
            attempts=10, base_delay_s=0.1, max_delay_s=0.25, jitter=0.0,
            timeout_s=None,
        )
        assert max(policy.delays("x")) == 0.25

    def test_store_policy_worst_case_is_sub_second(self):
        # The session tier falls back to a rebuild; a dead disk must not
        # stall a build for longer than its own tight budget.
        assert sum(STORE_POLICY.delays("any")) < STORE_POLICY.timeout_s


class TestCallWithRetry:
    def test_recovers_and_sleeps_the_policy_schedule(self, retries):
        fn = FlakyOnce(failures=2)
        slept = []
        value = call_with_retry(
            fn, label="t", policy=DEFAULT_POLICY, sleep=slept.append
        )
        assert value == "ok"
        assert fn.calls == 3
        assert tuple(slept) == DEFAULT_POLICY.delays("t")[:2]
        assert retries()["error:t"] == 2
        assert retries()["retry:t"] == 2
        assert retries()["recovered:t"] == 1
        assert retries()["gaveup:t"] == 0

    def test_first_try_success_counts_nothing(self, retries):
        assert call_with_retry(lambda: 42, label="t") == 42
        assert sum(retries().values()) == 0

    def test_exhaustion_reraises_the_last_error(self, retries):
        error = OSError("still broken")
        fn = FlakyOnce(failures=99, error=error)
        with pytest.raises(OSError) as excinfo:
            call_with_retry(fn, label="t", sleep=lambda _s: None)
        assert excinfo.value is error
        assert fn.calls == DEFAULT_POLICY.attempts
        assert retries()["gaveup:t"] == 1
        assert retries()["recovered:t"] == 0

    def test_non_retryable_errors_propagate_immediately(self, retries):
        fn = FlakyOnce(failures=1, error=ValueError("a bug, not IO"))
        with pytest.raises(ValueError):
            call_with_retry(fn, label="t", sleep=lambda _s: None)
        assert fn.calls == 1
        assert sum(retries().values()) == 0

    def test_deadline_budget_stops_before_the_attempt_count(self, retries):
        policy = RetryPolicy(
            attempts=5, base_delay_s=10.0, max_delay_s=10.0, jitter=0.0,
            timeout_s=1.0,
        )
        fn = FlakyOnce(failures=99)
        with pytest.raises(OSError):
            call_with_retry(
                fn, label="t", policy=policy,
                sleep=lambda _s: None, clock=lambda: 0.0,
            )
        assert fn.calls == 1  # the first 10s backoff already blows the budget
        assert retries()["deadline:t"] == 1
        assert retries()["gaveup:t"] == 1

    def test_on_retry_sees_each_attempt_and_error(self):
        seen = []
        fn = FlakyOnce(failures=2)
        call_with_retry(
            fn, label="t",
            on_retry=lambda attempt, exc: seen.append((attempt, type(exc))),
            sleep=lambda _s: None,
        )
        assert seen == [(1, OSError), (2, OSError)]
