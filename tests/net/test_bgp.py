"""Tests for the routing table, including LPM-vs-brute-force property."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addr import IpAddress, Prefix
from repro.net.bgp import Announcement, RoutingTable


class TestAnnouncement:
    def test_invalid_origin(self):
        with pytest.raises(ValueError):
            Announcement(Prefix.parse("10.0.0.0/8"), 0)


class TestRoutingTable:
    def test_exact_match(self):
        table = RoutingTable()
        table.announce(Prefix.parse("192.0.2.0/24"), 64500)
        assert table.origin_of(IpAddress.parse("192.0.2.9")) == 64500

    def test_no_match(self):
        table = RoutingTable()
        table.announce(Prefix.parse("192.0.2.0/24"), 64500)
        assert table.origin_of(IpAddress.parse("198.51.100.1")) is None

    def test_longest_prefix_wins(self):
        table = RoutingTable()
        table.announce(Prefix.parse("10.0.0.0/8"), 100)
        table.announce(Prefix.parse("10.1.0.0/16"), 200)
        table.announce(Prefix.parse("10.1.2.0/24"), 300)
        assert table.origin_of(IpAddress.parse("10.1.2.3")) == 300
        assert table.origin_of(IpAddress.parse("10.1.9.9")) == 200
        assert table.origin_of(IpAddress.parse("10.9.9.9")) == 100

    def test_default_route(self):
        table = RoutingTable()
        table.announce(Prefix.parse("0.0.0.0/0"), 1)
        table.announce(Prefix.parse("10.0.0.0/8"), 2)
        assert table.origin_of(IpAddress.parse("8.8.8.8")) == 1
        assert table.origin_of(IpAddress.parse("10.0.0.1")) == 2

    def test_families_independent(self):
        table = RoutingTable()
        table.announce(Prefix.parse("0.0.0.0/0"), 4)
        table.announce(Prefix.parse("::/0"), 6)
        assert table.origin_of(IpAddress.parse("1.2.3.4")) == 4
        assert table.origin_of(IpAddress.parse("2001:db8::1")) == 6

    def test_v6_lpm(self):
        table = RoutingTable()
        table.announce(Prefix.parse("2001:db8::/32"), 10)
        table.announce(Prefix.parse("2001:db8:1::/48"), 20)
        assert table.origin_of(IpAddress.parse("2001:db8:1::5")) == 20
        assert table.origin_of(IpAddress.parse("2001:db8:2::5")) == 10

    def test_reannounce_replaces(self):
        table = RoutingTable()
        table.announce(Prefix.parse("10.0.0.0/8"), 100)
        table.announce(Prefix.parse("10.0.0.0/8"), 999)
        assert table.origin_of(IpAddress.parse("10.0.0.1")) == 999
        assert len(table) == 1

    def test_withdraw(self):
        table = RoutingTable()
        prefix = Prefix.parse("10.0.0.0/8")
        table.announce(prefix, 100)
        assert table.withdraw(prefix)
        assert table.origin_of(IpAddress.parse("10.0.0.1")) is None
        assert not table.withdraw(prefix)
        assert len(table) == 0

    def test_withdraw_specific_falls_back_to_covering(self):
        table = RoutingTable()
        table.announce(Prefix.parse("10.0.0.0/8"), 100)
        table.announce(Prefix.parse("10.1.0.0/16"), 200)
        table.withdraw(Prefix.parse("10.1.0.0/16"))
        assert table.origin_of(IpAddress.parse("10.1.0.1")) == 100

    def test_announcements_sorted(self):
        table = RoutingTable()
        table.announce(Prefix.parse("172.16.0.0/12"), 3)
        table.announce(Prefix.parse("10.0.0.0/8"), 1)
        table.announce(Prefix.parse("2001:db8::/32"), 9)
        announcements = table.announcements()
        assert [a.origin_asn for a in announcements] == [1, 3, 9]

    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),
                st.integers(min_value=0, max_value=32),
                st.integers(min_value=1, max_value=65000),
            ),
            min_size=1,
            max_size=40,
        ),
        st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=20),
    )
    def test_lpm_matches_brute_force(self, raw_prefixes, queries):
        """The trie must agree with an O(n) scan for every query."""
        table = RoutingTable()
        installed: dict[tuple[int, int], int] = {}
        for value, length, asn in raw_prefixes:
            prefix = Prefix.of(IpAddress.v4(value), length)
            table.announce(prefix, asn)
            installed[(prefix.address.value, prefix.length)] = asn

        for query_value in queries:
            address = IpAddress.v4(query_value)
            best_len, best_asn = -1, None
            for (pvalue, plen), asn in installed.items():
                prefix = Prefix(IpAddress.v4(pvalue), plen)
                if prefix.contains(address) and plen > best_len:
                    best_len, best_asn = plen, asn
            assert table.origin_of(address) == best_asn

    @settings(max_examples=50, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**128 - 1),
                st.integers(min_value=0, max_value=128),
                st.integers(min_value=1, max_value=65000),
            ),
            min_size=1,
            max_size=40,
        ),
        st.lists(st.integers(min_value=0, max_value=2**128 - 1), min_size=1, max_size=20),
        st.booleans(),
    )
    def test_v6_lpm_matches_brute_force(self, raw_prefixes, queries, default_route):
        """The IPv6 twin: 128-bit values, /0 through /128.  Every other
        query gets its own host route (/128), so the walk must reach the
        last bit; ``::/0`` is announced in some examples, so a miss must
        fall back to the root's route or to none."""
        table = RoutingTable()
        installed: dict[tuple[int, int], int] = {}
        routes = [*raw_prefixes, *((value, 128, 64999) for value in queries[::2])]
        if default_route:
            routes.append((0, 0, 65000))
        for value, length, asn in routes:
            prefix = Prefix.of(IpAddress.v6(value), length)
            table.announce(prefix, asn)
            installed[(prefix.address.value, prefix.length)] = asn

        for query_value in queries:
            address = IpAddress.v6(query_value)
            best_len, best_asn = -1, None
            for (pvalue, plen), asn in installed.items():
                prefix = Prefix(IpAddress.v6(pvalue), plen)
                if prefix.contains(address) and plen > best_len:
                    best_len, best_asn = plen, asn
            assert table.origin_of(address) == best_asn
