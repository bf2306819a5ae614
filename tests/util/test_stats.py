"""Tests for empirical statistics: CDFs, box stats, Wilcoxon, Holm."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import (
    HolmBonferroni,
    box_stats,
    empirical_cdf,
    quantile,
    wilcoxon_signed_rank,
)


class TestQuantile:
    def test_median_odd(self):
        assert quantile([3, 1, 2], 0.5) == 2.0

    def test_endpoints(self):
        values = [5.0, 1.0, 9.0]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 9.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    def test_empty(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)


class TestEmpiricalCdf:
    def test_simple(self):
        cdf = empirical_cdf([1.0, 2.0, 2.0, 4.0])
        assert cdf.points == (1.0, 2.0, 4.0)
        assert cdf.fractions == (0.25, 0.75, 1.0)

    def test_fraction_at_or_below(self):
        cdf = empirical_cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.fraction_at_or_below(0.5) == 0.0
        assert cdf.fraction_at_or_below(2.0) == 0.5
        assert cdf.fraction_at_or_below(2.5) == 0.5
        assert cdf.fraction_at_or_below(100.0) == 1.0

    def test_value_at_fraction(self):
        cdf = empirical_cdf([10.0, 20.0, 30.0, 40.0])
        assert cdf.value_at_fraction(0.25) == 10.0
        assert cdf.value_at_fraction(0.5) == 20.0
        assert cdf.value_at_fraction(1.0) == 40.0

    def test_value_at_fraction_invalid(self):
        cdf = empirical_cdf([1.0])
        with pytest.raises(ValueError):
            cdf.value_at_fraction(0.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    def test_mismatched_construction_raises(self):
        from repro.util.stats import Cdf

        with pytest.raises(ValueError):
            Cdf((1.0,), (0.5, 1.0))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100))
    def test_monotone_and_ends_at_one(self, values):
        cdf = empirical_cdf(values)
        assert all(
            cdf.fractions[i] < cdf.fractions[i + 1] for i in range(len(cdf.fractions) - 1)
        )
        assert math.isclose(cdf.fractions[-1], 1.0)
        assert all(
            cdf.points[i] < cdf.points[i + 1] for i in range(len(cdf.points) - 1)
        )


class TestBoxStats:
    def test_known_values(self):
        stats = box_stats([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 100])
        assert stats.median == 6.0
        assert stats.n == 11
        assert 100.0 in stats.outliers
        assert stats.whisker_high < 100.0

    def test_no_outliers(self):
        stats = box_stats([1.0, 2.0, 3.0])
        assert stats.outliers == ()
        assert stats.whisker_low == 1.0
        assert stats.whisker_high == 3.0

    def test_single_value(self):
        stats = box_stats([5.0])
        assert stats.median == 5.0
        assert stats.iqr == 0.0
        assert stats.outliers == ()

    def test_empty(self):
        with pytest.raises(ValueError):
            box_stats([])

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=60))
    def test_invariants(self, values):
        stats = box_stats(values)
        assert stats.minimum <= stats.p25 <= stats.median <= stats.p75 <= stats.maximum
        assert stats.minimum <= stats.whisker_low <= stats.whisker_high <= stats.maximum
        # Whiskers sit inside the 1.5*IQR fences.
        assert stats.whisker_low >= stats.p25 - 1.5 * stats.iqr - 1e-9 * abs(stats.p25)
        assert stats.whisker_high <= stats.p75 + 1.5 * stats.iqr + 1e-9 * abs(stats.p75)
        # Every outlier lies strictly outside the whisker range.
        for outlier in stats.outliers:
            assert outlier < stats.whisker_low or outlier > stats.whisker_high
        assert len(stats.outliers) < stats.n or stats.n == 0


class TestWilcoxon:
    def test_matches_scipy_no_ties(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0.3, 1.0, size=40)
        y = rng.normal(0.0, 1.0, size=40)
        ours = wilcoxon_signed_rank(x, y, zero_method="wilcox")
        theirs = scipy.stats.wilcoxon(
            x, y, zero_method="wilcox", correction=False, mode="approx"
        )
        assert math.isclose(ours.statistic, theirs.statistic)
        assert math.isclose(ours.p_value, theirs.pvalue, rel_tol=1e-9)

    def test_matches_scipy_pratt(self):
        x = [0.1, 0.2, 0.0, 0.4, 0.3, 0.0, 0.9, 0.5]
        y = [0.0, 0.2, 0.0, 0.1, 0.5, 0.0, 0.2, 0.1]
        ours = wilcoxon_signed_rank(x, y, zero_method="pratt")
        theirs = scipy.stats.wilcoxon(
            x, y, zero_method="pratt", correction=False, mode="approx"
        )
        assert math.isclose(ours.statistic, theirs.statistic)
        assert math.isclose(ours.p_value, theirs.pvalue, rel_tol=1e-9)

    def test_effect_size_sign(self):
        first = [1.0, 0.9, 1.0, 0.8, 1.0, 0.95]
        second = [0.0, 0.1, 0.2, 0.0, 0.3, 0.05]
        result = wilcoxon_signed_rank(first, second)
        assert result.effect_size > 0.9
        swapped = wilcoxon_signed_rank(second, first)
        assert math.isclose(swapped.effect_size, -result.effect_size)

    def test_effect_size_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.random(15)
            y = rng.random(15)
            result = wilcoxon_signed_rank(x, y)
            assert -1.0 <= result.effect_size <= 1.0
            assert 0.0 <= result.p_value <= 1.0

    def test_all_zero_differences(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0], [1.0, 2.0])

    def test_unknown_zero_method(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0, 0.0], [0.0, 1.0], zero_method="bogus")

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1),
                st.floats(min_value=0, max_value=1),
            ),
            min_size=6,
            max_size=50,
        )
    )
    def test_symmetry_property(self, pairs):
        """Swapping the samples must flip z and effect size."""
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        try:
            forward = wilcoxon_signed_rank(x, y)
        except ValueError:
            return  # degenerate inputs (all-zero diffs / zero variance)
        backward = wilcoxon_signed_rank(y, x)
        assert math.isclose(forward.effect_size, -backward.effect_size, abs_tol=1e-12)
        assert math.isclose(forward.p_value, backward.p_value, rel_tol=1e-9)


def holm_bonferroni(p_values, alpha=0.05) -> list[bool]:
    """Which of ``p_values`` the corrector rejects, added in order."""
    corrector = HolmBonferroni(alpha=alpha)
    for p in p_values:
        corrector.add(p)
    return corrector.rejections()


class TestHolmBonferroni:
    def test_textbook_example(self):
        # Holm 1979-style example: p = .01, .04, .03, .005 at alpha=.05
        rejections = holm_bonferroni([0.01, 0.04, 0.03, 0.005], alpha=0.05)
        assert rejections == [True, False, False, True]

    def test_all_significant(self):
        assert holm_bonferroni([0.001, 0.002], alpha=0.05) == [True, True]

    def test_none_significant(self):
        assert holm_bonferroni([0.9, 0.8, 0.7]) == [False, False, False]

    def test_empty(self):
        assert holm_bonferroni([]) == []

    def test_stepdown_blocks_later_hypotheses(self):
        # Second-smallest (0.03 > 0.05/2) fails, so 0.04 is blocked too even
        # though 0.04 <= 0.05/1 on its own.
        rejections = holm_bonferroni([0.001, 0.04, 0.03], alpha=0.05)
        assert rejections == [True, False, False]

    def test_invalid_p_value(self):
        corrector = HolmBonferroni()
        with pytest.raises(ValueError):
            corrector.add(1.5)

    def test_rejections_match_adjusted(self):
        """Rejections equal Holm's adjusted p-values at or below alpha:
        ``max`` over the smaller-or-equal raw ranks of ``(m - rank) * p``."""
        raw = [0.001, 0.02, 0.03, 0.5, 0.04]
        order = sorted(range(len(raw)), key=lambda i: raw[i])
        adjusted, running = [0.0] * len(raw), 0.0
        for rank, i in enumerate(order):
            running = max(running, min(1.0, (len(raw) - rank) * raw[i]))
            adjusted[i] = running
        rejected = holm_bonferroni(raw, alpha=0.05)
        for r, a in zip(rejected, adjusted):
            assert r == (a <= 0.05)
