"""Seasonal-trend decomposition: LOESS, STL, and MSTL.

The paper (section 3.3, after Baltra et al.) applies MSTL -- Multi-Seasonal
Trend decomposition using LOESS (Bandara, Hyndman, Bergmeir 2021) -- to the
IPv6 traffic fraction, separating the long-term trend from daily and weekly
seasonal components plus a residual.  This module implements the full stack
from first principles:

* :func:`loess_smooth` -- locally weighted linear regression with tricube
  weights (Cleveland 1979), supporting evaluation (and extrapolation) at
  arbitrary points;
* :func:`stl` -- the STL inner loop (Cleveland et al. 1990): cycle-
  subseries smoothing, low-pass filtering, deseasonalizing, and trend
  smoothing (the robustness outer loop is omitted; our series have no
  gross outliers by construction);
* :func:`mstl` -- iterated STL over multiple seasonal periods, shortest
  period first.

The decomposition is exactly additive::

    observed == trend + sum(seasonals) + residual

:func:`loess_smooth` has two paths, chosen by the call's own inputs.
Every STL call here smooths at the default positions ``0..n-1`` with
degree 1 and an odd window (after ``min(window, n)``) of at least 3;
that case runs a row kernel that fits all points at once, in chunks of
rows so that no temporary exceeds :data:`ROW_CHUNK_BYTES`.  Every other
call -- explicit ``x`` or ``x_eval`` (the integer ``seasonal_window``
path), degree 0, an even window -- fits one point per iteration in
:func:`_fit_point`, the reference the kernel's output matches byte for
byte.

The kernel's terms that read only positions (the tricube weights, their
sums, the weighted position offsets and variances) depend on nothing
but ``(n, window)``, and ``mstl(y, [24, 168])`` smooths 16 times, four
times with each of four windows.  They are kept, read-only, in a
process-wide memo of at most :data:`TERM_MEMO_BYTES`, least recently
used first out; a call does only the work that reads ``y``, with the
same operations on the same operands in the same order.  A key larger
than the budget is streamed chunk by chunk and not kept.  The memo is
pure in its key, so :func:`repro.api.clear_caches` leaves it alone:
dropping it would only cost recomputation.

With ``seasonal_window="periodic"``, each cycle-subseries is its mean,
so :func:`stl` smooths all of them at once: one sum over the last axis
of a phase-major block (:func:`_periodic_field`), byte-identical to the
per-phase means.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: Byte budget of one temporary array in the LOESS row kernel.
ROW_CHUNK_BYTES = 1 << 20

#: Byte budget of the row kernel's memo of position-only terms: the four
#: MSTL windows (25, 37, 169, 253) take 2.6 MB at n = 336 and 5.9 MB at
#: n = 744, and the budget holds both at once.
TERM_MEMO_BYTES = 16 << 20


def _tricube(u: np.ndarray) -> np.ndarray:
    """Tricube weight function on |u| <= 1."""
    out = np.clip(1.0 - np.abs(u) ** 3, 0.0, None) ** 3
    return out


def loess_smooth(
    y: np.ndarray,
    window: int,
    x: np.ndarray | None = None,
    x_eval: np.ndarray | None = None,
    degree: int = 1,
) -> np.ndarray:
    """LOESS: locally weighted polynomial regression.

    Args:
        y: observations.
        window: number of nearest observations in each local fit (>= 2
            for degree 1); larger windows smooth harder.
        x: observation positions (default 0..n-1).
        x_eval: positions to evaluate at (default: the observation
            positions).  Points outside the observed range extrapolate
            from the nearest window.
        degree: 0 (local mean) or 1 (local linear).

    Returns:
        Smoothed values at ``x_eval``.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if n == 0:
        raise ValueError("cannot smooth an empty series")
    if degree not in (0, 1):
        raise ValueError("degree must be 0 or 1")
    window = int(window)
    if window < degree + 1:
        raise ValueError("window too small for the requested degree")
    window = min(window, n)
    positions = np.arange(n, dtype=float) if x is None else np.asarray(x, dtype=float)
    if positions.size != n:
        raise ValueError("x and y must be parallel")
    if x is None and x_eval is None and degree == 1 and window % 2 and window >= 3:
        return _loess_rows(y, window)
    targets = positions if x_eval is None else np.asarray(x_eval, dtype=float)

    order = np.argsort(positions, kind="stable")
    xs = positions[order]
    ys = y[order]

    smoothed = np.empty(targets.size, dtype=float)
    for i, t in enumerate(targets):
        smoothed[i] = _fit_point(xs, ys, t, window, degree)
    return smoothed


def _fit_point(
    xs: np.ndarray, ys: np.ndarray, t: float, window: int, degree: int
) -> float:
    """One local fit at ``t`` over the sorted observations ``(xs, ys)``."""
    n = xs.size
    # Nearest `window` observations to t.
    left = int(np.searchsorted(xs, t))
    lo = max(0, left - window)
    hi = min(n, left + window)
    segment_x = xs[lo:hi]
    segment_y = ys[lo:hi]
    if segment_x.size > window:
        dist = np.abs(segment_x - t)
        keep = np.argpartition(dist, window - 1)[:window]
        keep.sort()
        segment_x = segment_x[keep]
        segment_y = segment_y[keep]
    dist = np.abs(segment_x - t)
    max_dist = dist.max()
    if max_dist <= 0:
        return float(segment_y.mean())
    weights = _tricube(dist / (max_dist * 1.0001))
    wsum = weights.sum()
    if wsum <= 0:  # pragma: no cover - tricube>0 inside the window
        return float(segment_y.mean())
    if degree == 0:
        return float((weights * segment_y).sum() / wsum)
    # Weighted linear fit (closed form).
    wx = (weights * segment_x).sum() / wsum
    wy = (weights * segment_y).sum() / wsum
    cov = (weights * (segment_x - wx) * (segment_y - wy)).sum()
    var = (weights * (segment_x - wx) ** 2).sum()
    slope = cov / var if var > 1e-12 else 0.0
    return float(wy + slope * (t - wx))


def _loess_rows(y: np.ndarray, window: int) -> np.ndarray:
    """Degree-1 LOESS at every point of the grid ``0..n-1``, odd ``window``.

    On the grid, with ``window = 2h + 1``, point i's nearest observations
    are the run starting at ``clip(i - h, 0, n - window)``, with no tie at
    the cutoff: exactly the slice :func:`_fit_point` selects, in order.
    Each row then repeats :func:`_fit_point`'s steps elementwise or as a
    sum over the last axis of a C-contiguous array, which is the same
    pairwise summation as its 1-D sums, so the result is byte-identical.
    With ``window >= 3`` distinct positions, ``max_dist`` and ``wsum`` are
    positive, so its two mean fallbacks never apply here.  The steps that
    read only positions come from :data:`_MEMO`; this does the rest.
    """
    y_rows = sliding_window_view(y, window)
    smoothed = np.empty(y.size)
    for terms in _MEMO.terms(y.size, window):
        segment_y = y_rows[terms.starts]
        wy = (terms.weights * segment_y).sum(axis=1, keepdims=True) / terms.wsum
        cov = (terms.wdx * (segment_y - wy)).sum(axis=1, keepdims=True)
        slope = np.where(terms.sloped, cov / terms.var, 0.0)
        smoothed[terms.lo : terms.lo + terms.starts.size] = (wy + slope * terms.dt)[:, 0]
    return smoothed


class _RowTerms(NamedTuple):
    """The position-only terms of the kernel's rows ``lo .. lo + starts.size``.

    ``starts`` holds each row's first observation; ``weights`` and ``wdx``
    are ``(rows, window)`` and the rest ``(rows, 1)``.  Each is
    :func:`_fit_point`'s value of the same name, except that ``wdx`` is
    ``weights * (segment_x - wx)``, ``var`` is 1.0 where ``sloped`` is
    False, and ``dt`` is ``t - wx``.
    """

    lo: int
    starts: np.ndarray
    weights: np.ndarray
    wsum: np.ndarray
    wdx: np.ndarray
    sloped: np.ndarray
    var: np.ndarray
    dt: np.ndarray


def _terms_nbytes(n: int, window: int) -> int:
    """Bytes of every :class:`_RowTerms` array of ``(n, window)``."""
    return n * (16 * window + 33)


def _row_terms(n: int, window: int, lo: int, hi: int) -> _RowTerms:
    """The read-only position-only terms of rows ``lo .. hi``."""
    t = np.arange(lo, hi, dtype=float)[:, None]
    starts = np.clip(np.arange(lo, hi) - window // 2, 0, n - window)
    segment_x = sliding_window_view(np.arange(n, dtype=float), window)[starts]
    dist = np.abs(segment_x - t)
    weights = _tricube(dist / (dist.max(axis=1, keepdims=True) * 1.0001))
    wsum = weights.sum(axis=1, keepdims=True)
    wx = (weights * segment_x).sum(axis=1, keepdims=True) / wsum
    var = (weights * (segment_x - wx) ** 2).sum(axis=1, keepdims=True)
    sloped = var > 1e-12
    terms = _RowTerms(
        lo, starts, weights, wsum, weights * (segment_x - wx),
        sloped, np.where(sloped, var, 1.0), t - wx,
    )
    for array in terms[1:]:
        array.flags.writeable = False
    return terms


def _stream_terms(n: int, window: int) -> Iterator[_RowTerms]:
    """Every row's terms, in chunks whose temporaries fit :data:`ROW_CHUNK_BYTES`."""
    step = max(1, ROW_CHUNK_BYTES // (8 * window))
    return (_row_terms(n, window, lo, min(n, lo + step)) for lo in range(0, n, step))


class _TermMemo:
    """The kernel's position-only terms per ``(n, window)``, within a byte budget.

    A key larger than ``budget`` is streamed chunk by chunk and not kept;
    otherwise the least recently used keys are dropped to make room.  The
    terms are built outside the lock and inserted under it, so threads
    that render at once may build a key twice but keep it once.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.nbytes = 0
        self.entries: OrderedDict[tuple[int, int], tuple[_RowTerms, ...]] = OrderedDict()
        self._lock = threading.Lock()

    def terms(self, n: int, window: int) -> Iterable[_RowTerms]:
        key = (n, window)
        with self._lock:
            chunks = self.entries.get(key)
            if chunks is not None:
                self.entries.move_to_end(key)
                return chunks
        if _terms_nbytes(n, window) > self.budget:
            return _stream_terms(n, window)
        chunks = tuple(_stream_terms(n, window))
        with self._lock:
            if key not in self.entries:
                self.entries[key] = chunks
                self.nbytes += _terms_nbytes(n, window)
                while self.nbytes > self.budget:
                    dropped, _ = self.entries.popitem(last=False)
                    self.nbytes -= _terms_nbytes(*dropped)
        return chunks


#: The process's memo (see the module docstring).
_MEMO = _TermMemo(TERM_MEMO_BYTES)


def _moving_average(values: np.ndarray, length: int) -> np.ndarray:
    """Simple moving average; output is ``len(values) - length + 1`` long."""
    if length < 1:
        raise ValueError("moving-average length must be >= 1")
    if values.size < length:
        raise ValueError("series shorter than the moving-average length")
    kernel = np.ones(length) / length
    return np.convolve(values, kernel, mode="valid")


def _odd(value: int) -> int:
    value = max(3, int(value))
    return value if value % 2 == 1 else value + 1


@dataclass(frozen=True)
class StlResult:
    """One STL decomposition: observed = trend + seasonal + residual."""

    observed: np.ndarray
    trend: np.ndarray
    seasonal: np.ndarray
    residual: np.ndarray
    period: int

    def components(self) -> dict[str, np.ndarray]:
        return {
            "observed": self.observed,
            "trend": self.trend,
            "seasonal": self.seasonal,
            "residual": self.residual,
        }


def stl(
    y: np.ndarray,
    period: int,
    seasonal_window: int | str = "periodic",
    trend_window: int | None = None,
    inner_iterations: int = 2,
) -> StlResult:
    """Seasonal-trend decomposition by LOESS for one seasonal period.

    Args:
        y: the series; must cover at least two full periods.
        period: samples per seasonal cycle (e.g. 24 for daily seasonality
            of hourly data).
        seasonal_window: ``"periodic"`` constrains each cycle-subseries to
            its mean (a stable seasonal profile); an odd integer gives the
            LOESS window used to let the seasonal evolve.
        trend_window: LOESS window of the trend smoother; defaults to the
            smallest odd integer >= 1.5 * period.
        inner_iterations: STL inner-loop count (2 suffices without the
            robustness outer loop).
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if period < 2:
        raise ValueError("period must be >= 2")
    if n < 2 * period:
        raise ValueError(f"need >= {2 * period} samples for period {period}")
    if inner_iterations < 1:
        raise ValueError("inner_iterations must be >= 1")
    if trend_window is None:
        trend_window = _odd(int(np.ceil(1.5 * period)))
    if isinstance(seasonal_window, str):
        if seasonal_window != "periodic":
            raise ValueError(f"unknown seasonal_window {seasonal_window!r}")
    elif seasonal_window < 3:
        raise ValueError("integer seasonal_window must be >= 3")

    trend = np.zeros(n)
    seasonal = np.zeros(n)
    for _ in range(inner_iterations):
        detrended = y - trend
        if seasonal_window == "periodic":
            extended = _periodic_field(detrended, period)
        else:
            # Smooth each cycle-subseries, extended one period both ways:
            # phase k has ceil((n - k) / period) + 2 == sub.size + 2 slots.
            extended = np.empty(n + 2 * period)
            for phase in range(period):
                sub = detrended[phase::period]
                eval_positions = np.arange(-1, sub.size + 1, dtype=float)
                extended[phase::period] = loess_smooth(
                    sub, int(seasonal_window), x_eval=eval_positions
                )
        # Low-pass filter the extended cycle field.
        low_pass = _moving_average(extended, period)
        low_pass = _moving_average(low_pass, period)
        low_pass = _moving_average(low_pass, 3)
        low_pass = loess_smooth(low_pass, _odd(period))
        seasonal = extended[period : period + n] - low_pass
        deseasonalized = y - seasonal
        trend = loess_smooth(deseasonalized, trend_window)
    residual = y - trend - seasonal
    return StlResult(
        observed=y, trend=trend, seasonal=seasonal, residual=residual, period=period
    )


def _periodic_field(detrended: np.ndarray, period: int) -> np.ndarray:
    """Each phase's mean, tiled over the extended field of ``n + 2 * period``.

    Rows of a phase-major C-contiguous block sum by the same pairwise
    summation as the strided subseries ``detrended[phase::period]``, so
    each mean is byte-identical to ``sub.mean()``.  When ``period`` does
    not divide ``n``, the first ``n % period`` phases have one more
    sample and form a block of their own.
    """
    n = detrended.size
    count, ragged = divmod(n, period)
    phases = detrended[: count * period].reshape(count, period).T
    means = np.empty(period)
    if ragged:
        longer = np.empty((ragged, count + 1))
        longer[:, :count] = phases[:ragged]
        longer[:, count] = detrended[count * period :]
        means[:ragged] = longer.sum(axis=1) / (count + 1)
    means[ragged:] = np.ascontiguousarray(phases[ragged:]).sum(axis=1) / count
    return np.resize(means, n + 2 * period)


@dataclass(frozen=True)
class MstlResult:
    """Multi-seasonal decomposition:
    observed = trend + sum(seasonals) + residual."""

    observed: np.ndarray
    trend: np.ndarray
    seasonals: dict[int, np.ndarray]
    residual: np.ndarray

    def seasonal(self, period: int) -> np.ndarray:
        return self.seasonals[period]

    def reconstruction(self) -> np.ndarray:
        total = self.trend + self.residual
        for component in self.seasonals.values():
            total = total + component
        return total


def mstl(
    y: np.ndarray,
    periods: list[int] | tuple[int, ...],
    seasonal_window: int | str = "periodic",
    trend_window: int | None = None,
    iterations: int = 2,
) -> MstlResult:
    """MSTL: iterated STL over multiple seasonal periods.

    Periods are processed shortest first (daily before weekly); on each of
    ``iterations`` rounds, each period's seasonal component is re-estimated
    on the series with all *other* seasonal components removed, as in
    Bandara et al. 2021.
    """
    y = np.asarray(y, dtype=float)
    unique_periods = sorted(set(int(p) for p in periods))
    if not unique_periods:
        raise ValueError("at least one seasonal period is required")
    if y.size < 2 * max(unique_periods):
        raise ValueError("series too short for the longest period")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    seasonals: dict[int, np.ndarray] = {p: np.zeros(y.size) for p in unique_periods}
    last: StlResult | None = None
    for _ in range(iterations):
        for period in unique_periods:
            others = sum(
                (component for p, component in seasonals.items() if p != period),
                start=np.zeros(y.size),
            )
            last = stl(
                y - others,
                period,
                seasonal_window=seasonal_window,
                trend_window=trend_window,
            )
            seasonals[period] = last.seasonal
    assert last is not None
    trend = last.trend
    residual = y - trend - sum(seasonals.values())
    return MstlResult(observed=y, trend=trend, seasonals=seasonals, residual=residual)
