"""Tests for LOESS, STL, and MSTL."""

import contextlib
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_models import mstl_by_phase, stl_by_phase
from repro.api import Study, StudyConfig
from repro.core.mstl import (
    ROW_CHUNK_BYTES,
    TERM_MEMO_BYTES,
    _moving_average,
    loess_smooth,
    mstl,
    stl,
)
from repro.serve import artifact_document

# ``repro.core.mstl`` the attribute is the re-exported function.
MSTL_MODULE = sys.modules["repro.core.mstl"]


class TestLoess:
    def test_constant_series(self):
        y = np.full(50, 3.7)
        smoothed = loess_smooth(y, window=11)
        assert np.allclose(smoothed, 3.7)

    def test_linear_series_reproduced(self):
        """Local linear regression reproduces a line exactly."""
        y = 2.0 * np.arange(40) + 1.0
        smoothed = loess_smooth(y, window=9)
        assert np.allclose(smoothed, y, atol=1e-8)

    def test_smooths_noise(self):
        rng = np.random.default_rng(1)
        y = np.sin(np.arange(200) / 20) + rng.normal(0, 0.3, 200)
        smoothed = loess_smooth(y, window=31)
        truth = np.sin(np.arange(200) / 20)
        assert np.abs(smoothed - truth).mean() < np.abs(y - truth).mean()

    def test_extrapolation(self):
        y = 2.0 * np.arange(20) + 5.0
        out = loess_smooth(y, window=5, x_eval=np.array([-1.0, 20.0]))
        assert out[0] == pytest.approx(3.0, abs=1e-6)
        assert out[1] == pytest.approx(45.0, abs=1e-6)

    def test_degree_zero(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        smoothed = loess_smooth(y, window=4, degree=0)
        assert smoothed.shape == (4,)

    def test_validation(self):
        with pytest.raises(ValueError):
            loess_smooth(np.array([]), window=3)
        with pytest.raises(ValueError):
            loess_smooth(np.ones(10), window=1)
        with pytest.raises(ValueError):
            loess_smooth(np.ones(10), window=3, degree=2)
        with pytest.raises(ValueError):
            loess_smooth(np.ones(10), window=3, x=np.arange(5))

    def test_window_larger_than_series(self):
        y = np.array([1.0, 2.0, 3.0])
        smoothed = loess_smooth(y, window=99)
        assert smoothed.shape == (3,)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=4, max_size=40))
    def test_output_within_data_envelope_for_interior(self, values):
        """Degree-0 LOESS output is a convex combination of inputs."""
        y = np.asarray(values)
        smoothed = loess_smooth(y, window=5, degree=0)
        assert smoothed.min() >= y.min() - 1e-9
        assert smoothed.max() <= y.max() + 1e-9


def per_point(y: np.ndarray, window: int) -> np.ndarray:
    """The per-point loop's answer: explicit positions never take the kernel."""
    return loess_smooth(y, window, x=np.arange(y.size, dtype=float))


def random_walk(n: int, seed: int) -> np.ndarray:
    return np.cumsum(np.random.default_rng(seed).normal(size=n))


class TestRowKernel:
    """The row kernel is pinned byte for byte to the per-point loop."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_tiny_series(self, n):
        y = random_walk(n, seed=n)
        for window in range(max(2, n), 10):
            assert loess_smooth(y, window).tobytes() == per_point(y, window).tobytes()

    @pytest.mark.parametrize("window", [2, 4, 24, 168])
    def test_even_windows(self, window):
        y = random_walk(400, seed=window)
        assert loess_smooth(y, window).tobytes() == per_point(y, window).tobytes()

    @pytest.mark.parametrize("window", [3, 5, 25, 37, 169, 253])
    def test_constant_and_linear_series(self, window):
        """Zero covariance and exact line fits, as STL sees on flat input."""
        for y in (np.full(300, 0.37), 0.3 * np.arange(300) - 2.0):
            assert loess_smooth(y, window).tobytes() == per_point(y, window).tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_random_walks(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(8):
            n = int(rng.integers(6, 900))
            window = int(rng.integers(1, 200)) * 2 + 1
            y = random_walk(n, seed=seed)
            assert loess_smooth(y, window).tobytes() == per_point(y, window).tobytes()

    def test_paper_scale_spans_several_chunks(self):
        n, window = 6552, 253
        assert n * window * 8 > 3 * ROW_CHUNK_BYTES
        y = random_walk(n, seed=6552)
        assert loess_smooth(y, window).tobytes() == per_point(y, window).tobytes()

    def test_mstl_fits_no_point_one_at_a_time(self, monkeypatch):
        fits = []
        fit = MSTL_MODULE._fit_point
        monkeypatch.setattr(MSTL_MODULE, "_fit_point", lambda *args: fits.append(1) or fit(*args))
        mstl(synthetic_series(336)["observed"], [24, 168])
        assert fits == []
        per_point(np.ones(7), 3)
        assert len(fits) == 7  # the counter sees the loop

    def test_memory_stays_within_the_chunk_budget(self):
        y = random_walk(6552, seed=1)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            loess_smooth(y, 253)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 10 * ROW_CHUNK_BYTES


@pytest.fixture()
def cold_memo(monkeypatch):
    """An empty term memo with the module's budget, in place of the process's."""
    memo = MSTL_MODULE._TermMemo(TERM_MEMO_BYTES)
    monkeypatch.setattr(MSTL_MODULE, "_MEMO", memo)
    return memo


@contextlib.contextmanager
def switching_often():
    """Make the interpreter switch threads every microsecond."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def held_bytes(memo) -> int:
    return sum(a.nbytes for chunks in memo.entries.values() for t in chunks for a in t[1:])


class TestTermMemo:
    """The memo changes no byte, keeps its budget, and is safe to share."""

    @pytest.mark.parametrize("n, window", [(336, 25), (336, 253), (744, 169), (1000, 37)])
    def test_warm_equals_cold(self, cold_memo, n, window):
        y = random_walk(n, seed=window)
        cold = loess_smooth(y, window)
        assert (n, window) in cold_memo.entries
        assert loess_smooth(y, window).tobytes() == cold.tobytes() == per_point(y, window).tobytes()
        other = random_walk(n, seed=window + 1)
        assert loess_smooth(other, window).tobytes() == per_point(other, window).tobytes()

    def test_holds_the_mstl_windows_at_smoke_and_bench_lengths(self, cold_memo):
        for n in (336, 744):
            mstl(synthetic_series(n)["observed"], [24, 168])
        assert set(cold_memo.entries) == {
            (n, window) for n in (336, 744) for window in (25, 37, 169, 253)
        }
        assert cold_memo.nbytes == held_bytes(cold_memo) <= TERM_MEMO_BYTES

    def test_drops_least_recently_used_keys_within_its_budget(self):
        budget = 2 * MSTL_MODULE._terms_nbytes(744, 253)
        memo = MSTL_MODULE._TermMemo(budget)
        for n in (744, 700, 744, 600, 1400, 700):
            memo.terms(n, 253)
            assert memo.nbytes == held_bytes(memo) <= budget
        assert list(memo.entries) == [(700, 253)]
        assert not isinstance(memo.terms(1500, 253), tuple)  # over budget: streamed
        assert list(memo.entries) == [(700, 253)]

    def test_paper_scale_key_is_streamed_not_kept(self, cold_memo):
        assert MSTL_MODULE._terms_nbytes(6552, 253) > TERM_MEMO_BYTES
        y = random_walk(6552, seed=2)
        assert loess_smooth(y, 253).tobytes() == per_point(y, 253).tobytes()
        assert cold_memo.entries == {} and cold_memo.nbytes == 0

    def test_cached_terms_are_read_only(self, cold_memo):
        loess_smooth(random_walk(744, seed=3), 253)
        (chunks,) = cold_memo.entries.values()
        assert len(chunks) > 1
        for terms in chunks:
            assert not any(array.flags.writeable for array in terms[1:])
        with pytest.raises(ValueError):
            chunks[0].weights[0, 0] = 0.0

    def test_concurrent_renders_from_a_cold_memo_agree(self, monkeypatch):
        """Serve threads render at once; each keeps the memo consistent."""
        study = Study(StudyConfig(days=14, sites=120, residences=("A", "B"), parallel=False))
        names = ("fig2", "fig14", "fig2", "fig14")
        expected = {name: artifact_document(study, name) for name in set(names)}
        memo = MSTL_MODULE._TermMemo(TERM_MEMO_BYTES)
        monkeypatch.setattr(MSTL_MODULE, "_MEMO", memo)
        start = threading.Barrier(len(names))

        def render(name):
            start.wait(timeout=60)
            return artifact_document(study, name)

        with switching_often(), ThreadPoolExecutor(len(names)) as pool:
            futures = [pool.submit(render, name) for name in names]
            documents = [future.result(timeout=120) for future in futures]
        assert documents == [expected[name] for name in names]
        assert set(memo.entries) == {(336, window) for window in (25, 37, 169, 253)}
        assert memo.nbytes == held_bytes(memo)

    def test_racing_inserts_and_evictions_keep_the_byte_total_exact(self):
        """Tiny keys, so that threads insert and evict at once, often."""
        keys = [(n, 3) for n in range(20, 100, 3)] * 10
        with switching_often(), ThreadPoolExecutor(8) as pool:
            for _ in range(20):
                memo = MSTL_MODULE._TermMemo(8 * MSTL_MODULE._terms_nbytes(60, 3))
                futures = [pool.submit(memo.terms, n, window) for n, window in keys]
                for future in futures:
                    future.result(timeout=60)
                assert memo.nbytes == held_bytes(memo) <= memo.budget


class TestMovingAverage:
    def test_basic(self):
        out = _moving_average(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        assert np.allclose(out, [1.5, 2.5, 3.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            _moving_average(np.ones(3), 0)
        with pytest.raises(ValueError):
            _moving_average(np.ones(3), 5)


def synthetic_series(n: int, noise: float = 0.02) -> dict[str, np.ndarray]:
    t = np.arange(n)
    daily = 0.15 * np.sin(2 * np.pi * t / 24)
    weekly = 0.08 * np.sin(2 * np.pi * t / 168)
    trend = 0.5 + 0.0001 * t
    rng = np.random.default_rng(7)
    observed = trend + daily + weekly + rng.normal(0, noise, n)
    return {"observed": observed, "daily": daily, "weekly": weekly, "trend": trend}


class TestStl:
    def test_additivity(self):
        data = synthetic_series(24 * 21)
        result = stl(data["observed"], period=24)
        reconstructed = result.trend + result.seasonal + result.residual
        assert np.allclose(reconstructed, data["observed"])

    def test_recovers_daily_cycle(self):
        data = synthetic_series(24 * 21)
        result = stl(data["observed"], period=24)
        corr = np.corrcoef(result.seasonal, data["daily"])[0, 1]
        assert corr > 0.95

    def test_periodic_seasonal_is_stable(self):
        """'periodic' constrains each phase to one value (up to low-pass)."""
        data = synthetic_series(24 * 14, noise=0.0)
        result = stl(data["observed"], period=24, seasonal_window="periodic")
        phase0 = result.seasonal[0::24]
        assert phase0.std() < 0.02

    def test_integer_seasonal_window(self):
        data = synthetic_series(24 * 14)
        result = stl(data["observed"], period=24, seasonal_window=7)
        assert np.allclose(
            result.trend + result.seasonal + result.residual, data["observed"]
        )

    def test_seasonal_sums_near_zero(self):
        data = synthetic_series(24 * 21)
        result = stl(data["observed"], period=24)
        assert abs(result.seasonal.mean()) < 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            stl(np.ones(10), period=1)
        with pytest.raises(ValueError):
            stl(np.ones(10), period=8)  # < 2 periods
        with pytest.raises(ValueError):
            stl(np.ones(48), period=24, inner_iterations=0)
        with pytest.raises(ValueError):
            stl(np.ones(48), period=24, seasonal_window="bogus")
        with pytest.raises(ValueError):
            stl(np.ones(48), period=24, seasonal_window=2)

    def test_components_dict(self):
        data = synthetic_series(24 * 14)
        result = stl(data["observed"], period=24)
        components = result.components()
        assert set(components) == {"observed", "trend", "seasonal", "residual"}


class TestMstl:
    def test_additivity_exact(self):
        data = synthetic_series(24 * 7 * 6)
        result = mstl(data["observed"], [24, 168])
        assert np.allclose(result.reconstruction(), data["observed"])

    def test_recovers_both_cycles(self):
        data = synthetic_series(24 * 7 * 8)
        result = mstl(data["observed"], [24, 168])
        assert np.corrcoef(result.seasonal(24), data["daily"])[0, 1] > 0.95
        assert np.corrcoef(result.seasonal(168), data["weekly"])[0, 1] > 0.9

    def test_trend_recovered(self):
        data = synthetic_series(24 * 7 * 8)
        result = mstl(data["observed"], [24, 168])
        assert np.corrcoef(result.trend, data["trend"])[0, 1] > 0.9

    def test_residual_small(self):
        data = synthetic_series(24 * 7 * 8, noise=0.02)
        result = mstl(data["observed"], [24, 168])
        assert result.residual.std() < 0.04

    def test_no_weekly_signal_yields_flat_weekly(self):
        """A purely daily series decomposes with a tiny weekly component."""
        n = 24 * 7 * 6
        t = np.arange(n)
        observed = 0.5 + 0.2 * np.sin(2 * np.pi * t / 24)
        result = mstl(observed, [24, 168])
        assert result.seasonal(168).std() < 0.25 * result.seasonal(24).std()

    def test_duplicate_periods_deduped(self):
        data = synthetic_series(24 * 14)
        result = mstl(data["observed"], [24, 24])
        assert list(result.seasonals) == [24]

    def test_validation(self):
        with pytest.raises(ValueError):
            mstl(np.ones(100), [])
        with pytest.raises(ValueError):
            mstl(np.ones(100), [168])  # too short
        with pytest.raises(ValueError):
            mstl(np.ones(100), [24], iterations=0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_additivity_property(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.random(24 * 8)
        result = mstl(y, [24])
        assert np.allclose(result.reconstruction(), y, atol=1e-9)


#: Series lengths around whole cycles of every swept period, ragged ones
#: (``n % period != 0``) included.
LENGTHS = (48, 49, 60, 71, 100, 167, 200, 335, 336, 337, 351, 500, 743, 744, 1000)


def sweep_series(n: int) -> list[np.ndarray]:
    return [synthetic_series(n)["observed"], random_walk(n, seed=n), np.full(n, 0.37)]


def component_bytes(result) -> list[bytes]:
    seasonals = getattr(result, "seasonals", None) or {0: result.seasonal}
    parts = [result.trend, result.residual, *seasonals.values()]
    return [part.tobytes() for part in parts]


class TestPeriodicField:
    """The one-block cycle field is pinned byte for byte to the per-phase loop."""

    @pytest.mark.parametrize("periods", [[24], [24, 168], [7, 30], [12]], ids=str)
    def test_mstl_matches_the_per_phase_loop(self, periods):
        for n in LENGTHS:
            if n < 2 * max(periods):
                continue
            for y in sweep_series(n):
                assert component_bytes(mstl(y, periods)) == component_bytes(
                    mstl_by_phase(y, periods)
                ), (n, periods)

    @pytest.mark.parametrize("period", [2, 7, 12, 24, 30, 168])
    def test_stl_matches_the_per_phase_loop(self, period):
        for n in LENGTHS:
            if n < 2 * period:
                continue
            for y in sweep_series(n):
                assert component_bytes(stl(y, period)) == component_bytes(
                    stl_by_phase(y, period)
                ), n

    @pytest.mark.parametrize("period, window", [(7, 3), (12, 5), (24, 7)])
    def test_integer_seasonal_window_matches_the_per_phase_loop(self, period, window):
        for n in (2 * period, 2 * period + 1, 5 * period - 1, 100):
            y = random_walk(n, seed=period)
            assert component_bytes(stl(y, period, seasonal_window=window)) == component_bytes(
                stl_by_phase(y, period, seasonal_window=window)
            ), n

    @pytest.mark.parametrize("period", [2, 3, 7, 24, 168])
    def test_every_phase_has_two_more_slots_than_samples(self, period):
        """Why the integer path stores each extended subseries as it is."""
        for n in range(2 * period, 4 * period + 1):
            for phase in range(period):
                slots = len(range(phase, n + 2 * period, period))
                assert slots == len(range(phase, n, period)) + 2, (n, phase)
