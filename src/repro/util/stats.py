"""Empirical statistics used throughout the analysis core.

Implements the statistical machinery the paper relies on:

* empirical CDFs (Figures 1, 3, 7, 8, 10, 16),
* quantiles and box-plot statistics with 1.5*IQR whiskers (Figures 4, 17),
* the two-sided Wilcoxon signed-rank test with the normal approximation,
  tie and zero corrections, and the rank-biserial effect size ``r``
  (Figure 12),
* Holm-Bonferroni family-wise error control (Figure 12).

The Wilcoxon implementation is written from first principles (Pratt's
zero-handling, mid-ranks for ties, variance tie correction) so the repo does
not silently depend on SciPy behaviour; tests cross-check it against
:func:`scipy.stats.wilcoxon` where the two are comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of ``values`` at ``q`` in [0, 1]."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot take the quantile of no values")
    return float(np.quantile(arr, q))


@dataclass(frozen=True)
class Cdf:
    """An empirical CDF: sorted support points and cumulative fractions.

    ``points[i]`` is a sample value and ``fractions[i]`` the fraction of
    samples less than or equal to it, so the curve is right-continuous and
    ends at 1.0.
    """

    points: tuple[float, ...]
    fractions: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.points) != len(self.fractions):
            raise ValueError("points and fractions must be parallel")

    @property
    def n(self) -> int:
        return len(self.points)

    def fraction_at_or_below(self, x: float) -> float:
        """F(x): the fraction of samples <= x."""
        idx = np.searchsorted(np.asarray(self.points), x, side="right")
        if idx == 0:
            return 0.0
        return self.fractions[idx - 1]

    def value_at_fraction(self, q: float) -> float:
        """Smallest sample value v with F(v) >= q (the q-th quantile)."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {q}")
        fracs = np.asarray(self.fractions)
        idx = int(np.searchsorted(fracs, q, side="left"))
        idx = min(idx, len(self.points) - 1)
        return self.points[idx]


def empirical_cdf(values: Sequence[float]) -> Cdf:
    """Build the empirical CDF of ``values``.

    Duplicate sample values are merged into a single support point carrying
    the cumulative fraction of everything at or below it.
    """
    arr = np.sort(np.asarray(list(values), dtype=float))
    if arr.size == 0:
        raise ValueError("cannot build a CDF from no values")
    points, counts = np.unique(arr, return_counts=True)
    fractions = np.cumsum(counts) / arr.size
    return Cdf(tuple(float(p) for p in points), tuple(float(f) for f in fractions))


@dataclass(frozen=True)
class BoxStats:
    """Box-plot statistics as drawn in the paper's Figures 4 and 17."""

    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]
    n: int

    @property
    def iqr(self) -> float:
        return self.p75 - self.p25


def box_stats(values: Sequence[float]) -> BoxStats:
    """Compute box statistics with whiskers at 1.5*IQR, as in the paper.

    Whiskers extend to the most extreme sample still inside the 1.5*IQR
    fences; samples beyond the fences are reported as outliers.
    """
    arr = np.sort(np.asarray(list(values), dtype=float))
    if arr.size == 0:
        raise ValueError("cannot compute box stats of no values")
    p25 = float(np.quantile(arr, 0.25))
    p50 = float(np.quantile(arr, 0.50))
    p75 = float(np.quantile(arr, 0.75))
    iqr = p75 - p25
    low_fence = p25 - 1.5 * iqr
    high_fence = p75 + 1.5 * iqr
    inside = arr[(arr >= low_fence) & (arr <= high_fence)]
    if inside.size:
        whisker_low = float(inside.min())
        whisker_high = float(inside.max())
    else:  # degenerate: every point is an outlier of itself (cannot happen
        # with iqr >= 0, but keep the invariant whiskers-within-data).
        whisker_low, whisker_high = float(arr.min()), float(arr.max())
    outliers = tuple(float(v) for v in arr[(arr < low_fence) | (arr > high_fence)])
    return BoxStats(
        minimum=float(arr.min()),
        p25=p25,
        median=p50,
        p75=p75,
        maximum=float(arr.max()),
        whisker_low=whisker_low,
        whisker_high=whisker_high,
        outliers=outliers,
        n=int(arr.size),
    )


@dataclass(frozen=True)
class WilcoxonResult:
    """Outcome of a two-sided Wilcoxon signed-rank test.

    Attributes:
        statistic: min(W+, W-), the classic test statistic.
        w_plus: sum of ranks of positive differences.
        w_minus: sum of ranks of negative differences.
        n_used: number of pairs contributing ranks (zeros ranked per Pratt).
        n_nonzero: number of pairs with a nonzero difference.
        z: normal-approximation z-score (signed: positive means the first
           series tends to exceed the second).
        p_value: two-sided p-value from the normal approximation.
        effect_size: rank-biserial r = (W+ - W-) / (W+ + W-), in [-1, 1];
           positive when the first series tends to be larger.
    """

    statistic: float
    w_plus: float
    w_minus: float
    n_used: int
    n_nonzero: int
    z: float
    p_value: float
    effect_size: float


def _midranks(values: np.ndarray) -> np.ndarray:
    """Assign mid-ranks (average rank among ties) to ``values``."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < len(sorted_vals):
        j = i
        while j + 1 < len(sorted_vals) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        avg_rank = (i + j) / 2.0 + 1.0
        ranks[order[i : j + 1]] = avg_rank
        i = j + 1
    return ranks


def wilcoxon_signed_rank(
    first: Sequence[float],
    second: Sequence[float],
    zero_method: str = "pratt",
) -> WilcoxonResult:
    """Two-sided paired Wilcoxon signed-rank test with effect size.

    Args:
        first, second: paired observations (e.g. a tenant's IPv6-full
            fraction on cloud 1 vs. cloud 2).
        zero_method: ``"pratt"`` ranks zero differences then drops them
            from W+/W- (the default, robust with many ties); ``"wilcox"``
            drops zeros before ranking.

    Raises:
        ValueError: if the inputs differ in length, or fewer than one
            nonzero difference remains.
    """
    x = np.asarray(list(first), dtype=float)
    y = np.asarray(list(second), dtype=float)
    if x.shape != y.shape:
        raise ValueError("paired samples must have equal length")
    if zero_method not in ("pratt", "wilcox"):
        raise ValueError(f"unknown zero_method {zero_method!r}")

    diff = x - y
    if zero_method == "wilcox":
        diff = diff[diff != 0.0]
    n_nonzero = int(np.count_nonzero(diff))
    if n_nonzero == 0:
        raise ValueError("all paired differences are zero; test undefined")

    abs_diff = np.abs(diff)
    ranks = _midranks(abs_diff)
    nonzero = diff != 0.0
    w_plus = float(ranks[(diff > 0.0)].sum())
    w_minus = float(ranks[(diff < 0.0)].sum())
    statistic = min(w_plus, w_minus)

    n = len(diff)
    n_zero = int((~nonzero).sum())
    # Normal approximation; mean/variance follow Pratt's treatment where
    # zero differences contribute to ranks but not to W+/W-.
    mean_w = (n * (n + 1) - n_zero * (n_zero + 1)) / 4.0
    var_w = (
        n * (n + 1) * (2 * n + 1) - n_zero * (n_zero + 1) * (2 * n_zero + 1)
    ) / 24.0
    # Tie correction over groups of tied *nonzero* ranks (the zero group is
    # already accounted for by the Pratt adjustment above).
    _, tie_counts = np.unique(ranks[nonzero], return_counts=True)
    var_w -= float(((tie_counts**3 - tie_counts) / 48.0).sum())
    if var_w <= 0:
        raise ValueError("zero variance: too few distinct differences")

    z = (w_plus - mean_w) / math.sqrt(var_w)
    p_value = float(2.0 * _normal_sf(abs(z)))
    p_value = min(1.0, p_value)
    denom = w_plus + w_minus
    effect_size = (w_plus - w_minus) / denom if denom > 0 else 0.0
    return WilcoxonResult(
        statistic=statistic,
        w_plus=w_plus,
        w_minus=w_minus,
        n_used=n,
        n_nonzero=n_nonzero,
        z=float(z),
        p_value=p_value,
        effect_size=float(effect_size),
    )


def _normal_sf(z: float) -> float:
    """Survival function of the standard normal distribution."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass
class HolmBonferroni:
    """Holm-Bonferroni step-down correction at family-wise level ``alpha``.

    Usage: collect raw p-values, call :meth:`rejections`, and read off which
    hypotheses survive.  This is the correction the paper applies to the 67
    testable cloud pairs in Figure 12.
    """

    alpha: float = 0.05
    p_values: list[float] = field(default_factory=list)

    def add(self, p: float) -> int:
        """Register a raw p-value; returns its index for later lookup."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value must be in [0, 1], got {p}")
        self.p_values.append(p)
        return len(self.p_values) - 1

    def rejections(self) -> list[bool]:
        """Return, per registered p-value, whether H0 is rejected."""
        m = len(self.p_values)
        if m == 0:
            return []
        order = sorted(range(m), key=lambda i: self.p_values[i])
        rejected = [False] * m
        for step, idx in enumerate(order):
            threshold = self.alpha / (m - step)
            if self.p_values[idx] <= threshold:
                rejected[idx] = True
            else:
                break  # step-down: once one fails, all larger p fail too
        return rejected

