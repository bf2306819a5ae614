"""Tests for LOESS, STL, and MSTL."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mstl import ROW_CHUNK_BYTES, _moving_average, loess_smooth, mstl, stl

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
