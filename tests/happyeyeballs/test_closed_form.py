"""The closed-form race against its oracle, ``HappyEyeballs.connect``.

``race_winners`` decides many one-address-per-family races at once; the
traffic generator and every traffic what-if rely on it picking exactly
the family the connection-by-connection engine would.  Each config is
checked over 10k seeded (v4 latency, v6 latency, AAAA arrival) triples
that cover both orders of the DNS answers, both sides of the resolution
delay, and handshakes slower than the attempt delay.
"""

import numpy as np
import pytest

from repro.happyeyeballs.algorithm import (
    NO_FAMILY,
    HappyEyeballs,
    HappyEyeballsConfig,
    StaticConnectivity,
    race_winners,
)
from repro.net.addr import Family, IpAddress

V4 = IpAddress.v4(0x0A000001)
V6 = IpAddress.v6(0x20010DB8 << 96 | 1)
A_ARRIVAL = 0.010
TRIPLES = 10_000

CONFIGS = {
    "default": HappyEyeballsConfig(),
    "resolution-300ms": HappyEyeballsConfig(resolution_delay=0.3),
    "resolution-300ms-attempt-100ms": HappyEyeballsConfig(
        resolution_delay=0.3, attempt_delay=0.1
    ),
    "prefer-v4": HappyEyeballsConfig(preferred_family=Family.V4),
    "first-family-count-2": HappyEyeballsConfig(first_address_family_count=2),
    "timeout-below-some-latencies": HappyEyeballsConfig(overall_timeout=0.3),
}


def _oracle(config, v4_latency, v6_latency, v6_arrival, a_arrival=A_ARRIVAL) -> np.ndarray:
    engine = HappyEyeballs(config)
    winners = []
    for l4, l6, r6 in zip(v4_latency.tolist(), v6_latency.tolist(), v6_arrival.tolist()):
        result = engine.connect(
            [V4], [V6], StaticConnectivity({V4: l4, V6: l6}),
            v4_resolution_time=a_arrival, v6_resolution_time=r6,
        )
        family = result.used_family
        winners.append(NO_FAMILY if family is None else family.value)
    return np.array(winners, dtype=np.int8)


def _triples(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    gen = np.random.default_rng(seed)
    v4_latency = gen.lognormal(np.log(0.03), 1.2, TRIPLES)
    v6_latency = gen.lognormal(np.log(0.03), 1.2, TRIPLES)
    # A third of the AAAA answers come late, some before the A answer.
    late = gen.random(TRIPLES) < 0.35
    v6_arrival = np.where(late, gen.uniform(0.0, 0.6, TRIPLES), A_ARRIVAL)
    return v4_latency, v6_latency, v6_arrival


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_closed_form_matches_connect(name):
    config = CONFIGS[name]
    v4_latency, v6_latency, v6_arrival = _triples(sorted(CONFIGS).index(name))
    got = race_winners(v4_latency, v6_latency, v6_arrival, config, A_ARRIVAL)
    want = _oracle(config, v4_latency, v6_latency, v6_arrival)
    np.testing.assert_array_equal(got, want)
    # Both families win somewhere, so neither branch goes untested.
    assert {Family.V4.value, Family.V6.value} <= set(got.tolist())
    if name == "timeout-below-some-latencies":
        assert (got == NO_FAMILY).any()


class TestEdgeCases:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_aaaa_exactly_at_the_resolution_delay(self, name):
        config = CONFIGS[name]
        v6_arrival = np.array([A_ARRIVAL + config.resolution_delay] * 3)
        v4_latency = np.array([0.02, 0.2, 0.03])
        v6_latency = np.array([0.02, 0.02, 0.5])
        got = race_winners(v4_latency, v6_latency, v6_arrival, config, A_ARRIVAL)
        want = _oracle(config, v4_latency, v6_latency, v6_arrival)
        np.testing.assert_array_equal(got, want)

    def test_equal_end_times_go_to_the_first_attempt(self):
        # Both answers in hand at once (binary-exact times, so the two
        # completions tie exactly): the first attempt starts at once,
        # the second one attempt delay later and 250 ms faster.
        arrival = 0.0625
        slow, fast = np.array([0.5]), np.array([0.25])
        for preferred, first, second, v4_latency, v6_latency in (
            (Family.V6, Family.V6, Family.V4, fast, slow),
            (Family.V4, Family.V4, Family.V6, slow, fast),
        ):
            config = HappyEyeballsConfig(preferred_family=preferred)
            arrivals = np.array([arrival])
            got = race_winners(v4_latency, v6_latency, arrivals, config, arrival)
            assert got.tolist() == [first.value] != [second.value]
            want = _oracle(config, v4_latency, v6_latency, arrivals, arrival)
            assert got.tolist() == want.tolist()
