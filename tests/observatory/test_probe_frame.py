"""ProbeFrame mechanics: layout, interning, selection, canonical order."""

import numpy as np
import pytest

from reference_models import ProbeResult, encode_block
from repro.net.addr import Family
from repro.observatory.frame import PROBE_DTYPE, ProbeFrame
from repro.observatory.probe import ProbeTarget, ProbeVerdict
from repro.observatory.rounds import fleet_country_codes
from repro.observatory.vantage import NetworkPolicy, VantagePoint

FLEET = (
    VantagePoint("a-1", "AA", NetworkPolicy.NATIVE),
    VantagePoint("b-1", "BB", NetworkPolicy.V4_ONLY),
    VantagePoint("a-2", "AA", NetworkPolicy.NATIVE),
)
TARGETS = (
    ProbeTarget("one.test", "www.one.test", 1),
    ProbeTarget("two.test", "www.two.test", 2),
)


def _result(target: ProbeTarget, verdict: ProbeVerdict) -> ProbeResult:
    ok = verdict is ProbeVerdict.V6_OK
    return ProbeResult(
        target=target,
        verdict=verdict,
        aaaa_present=verdict not in (ProbeVerdict.NO_AAAA, ProbeVerdict.TARGET_DOWN),
        synthesized_aaaa=False,
        client_family=Family.V6 if ok else Family.V4,
        v6_connect_time=0.025 if ok else None,
    )


def _block(round_index, vantage_index, country_index, verdicts):
    results = [_result(t, v) for t, v in zip(TARGETS, verdicts)]
    return encode_block(
        round_index,
        round_index * 7,
        vantage_index,
        country_index,
        results,
        np.arange(len(TARGETS), dtype=np.int32),
    )


@pytest.fixture()
def frame() -> ProbeFrame:
    country_codes, countries = fleet_country_codes(FLEET)
    blocks = [
        _block(r, v, country_codes[v], verdicts)
        for r, per_round in enumerate(
            [
                [
                    (ProbeVerdict.V6_OK, ProbeVerdict.NO_AAAA),
                    (ProbeVerdict.NO_V6_ROUTE, ProbeVerdict.NO_AAAA),
                    (ProbeVerdict.V6_OK, ProbeVerdict.V6_CONNECT_FAILED),
                ],
                [
                    (ProbeVerdict.V6_OK, ProbeVerdict.V6_OK),
                    (ProbeVerdict.NO_V6_ROUTE, ProbeVerdict.NO_AAAA),
                    (ProbeVerdict.V6_OK, ProbeVerdict.V6_OK),
                ],
            ]
        )
        for v, verdicts in enumerate(per_round)
    ]
    return ProbeFrame.assemble(
        tuple(v.name for v in FLEET),
        countries,
        tuple(t.etld1 for t in TARGETS),
        blocks,
    )


class TestAssembly:
    def test_shape_and_dtype(self, frame):
        assert frame.data.dtype == PROBE_DTYPE
        assert len(frame) == 2 * len(FLEET) * len(TARGETS)
        assert frame.num_rounds == 2

    def test_interning_tables(self, frame):
        assert frame.vantages == ("a-1", "b-1", "a-2")
        assert frame.countries == ("AA", "BB")  # first-appearance order
        assert frame.targets == ("one.test", "two.test")

    def test_canonical_row_order(self, frame):
        # Round-major, then fleet order, then target order.
        assert frame.round.tolist() == [0] * 6 + [1] * 6
        assert frame.vantage.tolist() == [0, 0, 1, 1, 2, 2] * 2
        assert frame.target.tolist() == [0, 1] * 6
        assert frame.day.tolist() == [0] * 6 + [7] * 6

    def test_empty_assembly(self):
        _, countries = fleet_country_codes(FLEET)
        frame = ProbeFrame.assemble(
            tuple(v.name for v in FLEET), countries, (), []
        )
        assert len(frame) == 0
        assert frame.num_rounds == 0

    def test_encoded_fields(self, frame):
        ok = frame.available
        assert frame.connect_ms[ok].min() > 0
        assert np.isnan(frame.connect_ms[~ok]).all()
        assert (frame.data["client_family"][ok] == 6).all()
        assert frame.rank.tolist() == [1, 2] * 6


class TestSelection:
    def test_select_round(self, frame):
        last = frame.select(round_index=1)
        assert len(last) == 6
        assert (last.round == 1).all()
        assert last.countries == frame.countries

    def test_select_country_and_vantage(self, frame):
        aa = frame.select(country="AA")
        assert len(aa) == 8  # two AA vantages x 2 targets x 2 rounds
        b = frame.select(vantage="b-1")
        assert len(b) == 4
        assert not b.available.any()

    def test_mask_view(self, frame):
        sub = frame.mask(frame.aaaa)
        assert len(sub) == int(frame.aaaa.sum())
        assert sub.targets == frame.targets

    @pytest.mark.parametrize("kind", ["all", "none", "aaaa", "random"])
    def test_mask_gathers_what_boolean_indexing_does(self, frame, kind):
        mask = {
            "all": np.ones(len(frame), dtype=bool),
            "none": np.zeros(len(frame), dtype=bool),
            "aaaa": frame.aaaa,
            "random": np.random.default_rng(6).random(len(frame)) < 0.5,
        }[kind]
        sub = frame.mask(mask)
        assert sub.data.dtype == PROBE_DTYPE
        assert sub.data.tobytes() == frame.data[mask].tobytes()
        assert sub.vantages is frame.vantages
        assert sub.countries is frame.countries and sub.targets is frame.targets

    @pytest.mark.parametrize(
        "filters, mask_of",
        [
            ({}, lambda f: np.ones(len(f), dtype=bool)),
            ({"round_index": 1}, lambda f: f.round == 1),
            ({"round_index": 5}, lambda f: f.round == 5),
            ({"country": "AA", "vantage": "a-2"}, lambda f: (f.country == 0) & (f.vantage == 2)),
        ],
    )
    def test_select_gathers_what_boolean_indexing_does(self, frame, filters, mask_of):
        sub = frame.select(**filters)
        assert sub.data.tobytes() == frame.data[mask_of(frame)].tobytes()
        assert sub.countries is frame.countries and sub.targets is frame.targets

    def test_empty_frame(self):
        _, countries = fleet_country_codes(FLEET)
        frame = ProbeFrame.assemble(tuple(v.name for v in FLEET), countries, (), [])
        for sub in (frame.mask(np.zeros(0, dtype=bool)), frame.select(country="AA")):
            assert len(sub) == 0 and sub.data.dtype == PROBE_DTYPE

    def test_availability_is_v6_ok_only(self, frame):
        assert int(frame.available.sum()) == int(
            (frame.verdict == ProbeVerdict.V6_OK.value).sum()
        )
