"""Tests for the protocol-mix view (modern IPv6 carries data, not control)."""

import pytest

from reference_models import records
from repro.core import protocol_mix
from repro.datasets import build_residence_study
from repro.flowmon.monitor import FlowScope


@pytest.fixture(scope="module")
def dataset():
    study = build_residence_study(num_days=10, seed=19, residences=("A",))
    return study.dataset("A")


class TestProtocolMix:
    def test_families_present(self, dataset):
        mix = protocol_mix(dataset)
        assert set(mix) == {"IPv4", "IPv6"}

    def test_totals_match_monitor(self, dataset):
        mix = protocol_mix(dataset)
        total = sum(m.total_bytes for m in mix.values())
        external = records(dataset.monitor, scope=FlowScope.EXTERNAL)
        expected = sum(r.total_bytes for r in external)
        assert total == expected

    def test_ipv6_is_data_not_control(self, dataset):
        """The paper's framing: early IPv6 was DNS/ICMP control traffic;
        mature IPv6 is dominated by TCP/UDP data."""
        mix = protocol_mix(dataset)
        v6 = mix["IPv6"]
        assert v6.total_bytes > 0
        data_share = v6.byte_share("TCP") + v6.byte_share("UDP")
        assert data_share > 0.99
        assert v6.byte_share("ICMP") < 0.01

    def test_flow_counts_positive(self, dataset):
        mix = protocol_mix(dataset)
        for family_mix in mix.values():
            assert sum(family_mix.flows_by_protocol.values()) > 0

    def test_internal_scope(self, dataset):
        mix = protocol_mix(dataset, scope=FlowScope.INTERNAL)
        assert sum(m.total_bytes for m in mix.values()) == sum(
            r.total_bytes for r in records(dataset.monitor, scope=FlowScope.INTERNAL)
        )

    def test_byte_share_of_missing_protocol_is_zero(self, dataset):
        mix = protocol_mix(dataset)
        assert mix["IPv6"].byte_share("SCTP") == 0.0
