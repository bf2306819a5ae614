"""Tests for deterministic RNG streams."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import RngStream, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "traffic") == derive_seed(42, "traffic")

    def test_label_sensitivity(self):
        assert derive_seed(42, "traffic") != derive_seed(42, "web")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "traffic") != derive_seed(2, "traffic")

    def test_fits_64_bits(self):
        assert 0 <= derive_seed(123456789, "x") < 2**64

    @given(st.integers(min_value=0, max_value=2**62), st.text(max_size=30))
    def test_always_in_range(self, seed, label):
        assert 0 <= derive_seed(seed, label) < 2**64


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(7, "x")
        b = RngStream(7, "x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_labels_diverge(self):
        a = RngStream(7, "x")
        b = RngStream(7, "y")
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_substream_independent_of_parent_consumption(self):
        parent1 = RngStream(7, "p")
        parent2 = RngStream(7, "p")
        parent2.random()  # consuming the parent must not shift substreams
        sub1 = parent1.substream("child")
        sub2 = parent2.substream("child")
        assert [sub1.random() for _ in range(5)] == [sub2.random() for _ in range(5)]

    def test_randint_inclusive_bounds(self):
        stream = RngStream(1)
        draws = {stream.randint(0, 2) for _ in range(200)}
        assert draws == {0, 1, 2}

    def test_bernoulli_extremes(self):
        stream = RngStream(1)
        assert not any(stream.bernoulli(0.0) for _ in range(50))
        assert all(stream.bernoulli(1.0) for _ in range(50))

    def test_bernoulli_clamps_out_of_range(self):
        stream = RngStream(1)
        assert stream.bernoulli(2.0) is True
        assert stream.bernoulli(-1.0) is False

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            RngStream(1).choice([])

    def test_choice_single(self):
        assert RngStream(1).choice(["only"]) == "only"

    def test_sample_k_larger_than_population(self):
        result = RngStream(1).sample([1, 2, 3], 10)
        assert sorted(result) == [1, 2, 3]

    def test_sample_distinct(self):
        result = RngStream(1).sample(list(range(100)), 10)
        assert len(result) == len(set(result)) == 10

    def test_weighted_choice_validates(self):
        stream = RngStream(1)
        with pytest.raises(ValueError):
            stream.weighted_choice([1, 2], [1.0])
        with pytest.raises(ValueError):
            stream.weighted_choice([], [])
        with pytest.raises(ValueError):
            stream.weighted_choice([1, 2], [0.0, 0.0])
        with pytest.raises(ValueError):
            # positive total but a negative entry: would build a
            # non-monotonic CDF if not rejected up front
            stream.weighted_choice([1, 2, 3], [3.0, -1.0, 2.0])

    def test_weighted_choice_matches_generator_choice(self):
        """The inverse-CDF fast path must consume the stream exactly like
        the Generator.choice(n, p=...) it replaced (twin streams, one
        drawing each way, must agree draw for draw)."""
        import numpy as np

        weights = [3.0, 1.0, 2.0, 4.0]
        probs = np.asarray(weights) / sum(weights)
        a = RngStream(7, "x")
        b = RngStream(7, "x")
        for _ in range(200):
            got = a.weighted_choice([0, 1, 2, 3], weights)
            want = int(b._gen.choice(4, p=probs))
            assert got == want

    def test_weighted_choice_respects_zero_weight(self):
        stream = RngStream(1)
        draws = {stream.weighted_choice(["a", "b"], [1.0, 0.0]) for _ in range(50)}
        assert draws == {"a"}

    def test_lognormal_bytes_positive_and_median(self):
        stream = RngStream(5)
        draws = sorted(stream.lognormal_bytes(10_000, 1.0) for _ in range(2001))
        assert all(d >= 1 for d in draws)
        median = draws[len(draws) // 2]
        assert 5_000 < median < 20_000

    def test_lognormal_bytes_invalid_median(self):
        with pytest.raises(ValueError):
            RngStream(1).lognormal_bytes(0, 1.0)

    def test_pareto_bytes_minimum(self):
        stream = RngStream(5)
        assert all(stream.pareto_bytes(1000, 1.5) >= 1000 for _ in range(200))

    def test_pareto_bytes_invalid(self):
        with pytest.raises(ValueError):
            RngStream(1).pareto_bytes(-1, 1.5)
        with pytest.raises(ValueError):
            RngStream(1).pareto_bytes(100, 0)

    def test_subset_probability_extremes(self):
        stream = RngStream(1)
        assert stream.subset([1, 2, 3], 1.0) == [1, 2, 3]
        assert stream.subset([1, 2, 3], 0.0) == []

    def test_exponential_mean(self):
        stream = RngStream(9)
        draws = [stream.exponential(10.0) for _ in range(5000)]
        assert math.isclose(sum(draws) / len(draws), 10.0, rel_tol=0.1)
