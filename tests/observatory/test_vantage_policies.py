"""Policy semantics: each archetype skews the binary answer its own way.

These tests build tiny hand-rolled zones (a dual-stack target, a
v4-only target, a dead name) and check the verdicts each network policy
produces -- the overcounts (NAT64), the undercounts (v4-only transit,
lossy resolvers), and the false positives a handshake-only check cannot
see (broken PMTU).
"""

import pytest

from reference_models import Prober, VantageResolver
from repro.net.addr import Family, IpAddress
from repro.net.dns import DnsRecordType, ZoneDatabase
from repro.observatory.probe import ProbeTarget, ProbeVerdict
from repro.observatory.resolver import (
    NAT64_PREFIX,
    nat64_embedded_v4,
    nat64_synthesize,
)
from repro.observatory.vantage import (
    NetworkPolicy,
    VantagePoint,
    build_vantage_fleet,
)
from repro.util.rng import RngStream

V4 = IpAddress.parse("4.0.0.10")
V6 = IpAddress.parse("2600:0:1::10")

DUAL = ProbeTarget(etld1="dual.test", host="www.dual.test", rank=1)
V4ONLY = ProbeTarget(etld1="legacy.test", host="www.legacy.test", rank=2)
DEAD = ProbeTarget(etld1="gone.test", host="gone.test", rank=3)


@pytest.fixture()
def zones() -> ZoneDatabase:
    db = ZoneDatabase()
    dual = db.create_zone("dual.test")
    dual.add("www.dual.test", DnsRecordType.A, V4)
    dual.add("www.dual.test", DnsRecordType.AAAA, V6)
    legacy = db.create_zone("legacy.test")
    legacy.add("www.legacy.test", DnsRecordType.A, IpAddress.parse("4.0.0.20"))
    return db


def _prober(zones: ZoneDatabase, policy: NetworkPolicy, **knobs) -> Prober:
    vantage = VantagePoint(name="t-1", country="XX", policy=policy, **knobs)
    return Prober(vantage, VantageResolver.over(vantage, zones))


def _rng() -> RngStream:
    return RngStream(7, "test")


class TestNativePolicy:
    def test_dual_stack_target_is_available(self, zones):
        result = _prober(zones, NetworkPolicy.NATIVE).probe(DUAL, _rng())
        assert result.verdict is ProbeVerdict.V6_OK
        assert result.available
        assert result.aaaa_present and not result.synthesized_aaaa
        assert result.client_family is Family.V6
        assert result.v6_connect_time is not None

    def test_v4_only_target_reports_no_aaaa(self, zones):
        result = _prober(zones, NetworkPolicy.NATIVE).probe(V4ONLY, _rng())
        assert result.verdict is ProbeVerdict.NO_AAAA
        assert not result.available
        assert result.client_family is Family.V4

    def test_dead_target_reports_down(self, zones):
        result = _prober(zones, NetworkPolicy.NATIVE).probe(DEAD, _rng())
        assert result.verdict is ProbeVerdict.TARGET_DOWN
        assert result.client_family is None

    def test_unreachable_v6_edge_fails_connect(self, zones):
        vantage = VantagePoint(name="t-1", country="XX", policy=NetworkPolicy.NATIVE)
        prober = Prober(
            vantage, VantageResolver.over(vantage, zones), unreachable=[V6]
        )
        result = prober.probe(DUAL, _rng())
        assert result.verdict is ProbeVerdict.V6_CONNECT_FAILED
        # The dual-stack client quietly falls back to IPv4.
        assert result.client_family is Family.V4


class TestV4OnlyPolicy:
    def test_never_available(self, zones):
        prober = _prober(zones, NetworkPolicy.V4_ONLY)
        assert prober.probe(DUAL, _rng()).verdict is ProbeVerdict.NO_V6_ROUTE
        assert prober.probe(V4ONLY, _rng()).verdict is ProbeVerdict.NO_AAAA

    def test_client_still_works_over_v4(self, zones):
        result = _prober(zones, NetworkPolicy.V4_ONLY).probe(DUAL, _rng())
        assert result.client_family is Family.V4


class TestNat64Policy:
    def test_v4_only_target_becomes_available(self, zones):
        """The DNS64 overcount: binary says yes against an A-only site."""
        result = _prober(zones, NetworkPolicy.NAT64).probe(V4ONLY, _rng())
        assert result.verdict is ProbeVerdict.V6_OK
        assert result.synthesized_aaaa
        assert result.aaaa_present

    def test_real_aaaa_not_synthesized(self, zones):
        result = _prober(zones, NetworkPolicy.NAT64).probe(DUAL, _rng())
        assert result.verdict is ProbeVerdict.V6_OK
        assert not result.synthesized_aaaa

    def test_prefix_roundtrip(self):
        v4 = IpAddress.parse("192.0.2.33")
        mapped = nat64_synthesize(v4)
        assert mapped.is_v6
        assert mapped.value >> 96 == NAT64_PREFIX >> 96
        assert nat64_embedded_v4(mapped) == v4
        assert nat64_embedded_v4(V6) is None

    def test_synthesized_target_behind_dead_v4_edge_fails(self, zones):
        vantage = VantagePoint(name="t-1", country="XX", policy=NetworkPolicy.NAT64)
        prober = Prober(
            vantage,
            VantageResolver.over(vantage, zones),
            unreachable=[IpAddress.parse("4.0.0.20")],
        )
        result = prober.probe(V4ONLY, _rng())
        assert result.verdict is ProbeVerdict.V6_CONNECT_FAILED


class TestLossyResolverPolicy:
    def test_losses_undercount_dual_stack_targets(self, zones):
        prober = _prober(
            zones, NetworkPolicy.LOSSY_RESOLVER, aaaa_loss_rate=1.0
        )
        result = prober.probe(DUAL, _rng())
        assert result.verdict is ProbeVerdict.NO_AAAA
        assert not result.aaaa_present

    def test_zero_loss_is_native(self, zones):
        prober = _prober(
            zones, NetworkPolicy.LOSSY_RESOLVER, aaaa_loss_rate=0.0
        )
        assert prober.probe(DUAL, _rng()).verdict is ProbeVerdict.V6_OK


class TestBrokenPmtuPolicy:
    def test_blackhole_yields_path_broken(self, zones):
        prober = _prober(
            zones, NetworkPolicy.BROKEN_PMTU, pmtu_blackhole_rate=1.0
        )
        result = prober.probe(DUAL, _rng())
        assert result.verdict is ProbeVerdict.V6_PATH_BROKEN
        assert not result.available
        # The SYN completed: a handshake-only check would have said yes.
        assert result.v6_connect_time is not None


class TestPolicyBlockPolicy:
    def test_block_set_is_deterministic_and_partial(self, zones):
        vantage = VantagePoint(
            name="t-1", country="XX",
            policy=NetworkPolicy.POLICY_BLOCK, block_rate=0.5,
        )
        names = [f"site{i}.test" for i in range(200)]
        blocked = {name for name in names if vantage.blocks_target(name)}
        assert blocked == {name for name in names if vantage.blocks_target(name)}
        assert 0 < len(blocked) < len(names)

    def test_blocked_target_fails_connect(self, zones):
        prober = _prober(zones, NetworkPolicy.POLICY_BLOCK, block_rate=1.0)
        result = prober.probe(DUAL, _rng())
        assert result.verdict is ProbeVerdict.V6_CONNECT_FAILED

    def test_other_policies_block_nothing(self):
        vantage = VantagePoint(name="t-1", country="XX", policy=NetworkPolicy.NATIVE)
        assert not vantage.blocks_target("dual.test")


class TestFleet:
    def test_fleet_is_unique_and_covers_policies(self):
        fleet = build_vantage_fleet()
        names = [v.name for v in fleet]
        assert len(set(names)) == len(names)
        assert {v.policy for v in fleet} == set(NetworkPolicy)
        assert len({v.country for v in fleet}) >= 8

    def test_vantage_validation(self):
        with pytest.raises(ValueError):
            VantagePoint(name="", country="US", policy=NetworkPolicy.NATIVE)
        with pytest.raises(ValueError):
            VantagePoint(
                name="x", country="US", policy=NetworkPolicy.NATIVE,
                aaaa_loss_rate=1.5,
            )
