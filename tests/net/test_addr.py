"""Tests for IP address, prefix, and pool primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addr import AddressPool, Family, IpAddress, Prefix


class TestFamily:
    def test_bits(self):
        assert Family.V4.bits == 32
        assert Family.V6.bits == 128

    def test_max_value(self):
        assert Family.V4.max_value == 2**32 - 1
        assert Family.V6.max_value == 2**128 - 1


class TestIpAddress:
    def test_parse_v4(self):
        addr = IpAddress.parse("192.0.2.1")
        assert addr.family is Family.V4
        assert addr.value == (192 << 24) | (0 << 16) | (2 << 8) | 1
        assert str(addr) == "192.0.2.1"

    def test_parse_v6(self):
        addr = IpAddress.parse("2001:db8::1")
        assert addr.family is Family.V6
        assert addr.is_v6
        assert str(addr) == "2001:db8::1"

    def test_roundtrip(self):
        for text in ["0.0.0.0", "255.255.255.255", "10.1.2.3", "::", "ff02::1"]:
            assert str(IpAddress.parse(text)) == text

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            IpAddress(Family.V4, 2**32)
        with pytest.raises(ValueError):
            IpAddress(Family.V4, -1)

    def test_ordering(self):
        a = IpAddress.parse("10.0.0.1")
        b = IpAddress.parse("10.0.0.2")
        assert a < b


class TestPrefix:
    def test_parse_and_contains(self):
        prefix = Prefix.parse("192.0.2.0/24")
        assert prefix.contains(IpAddress.parse("192.0.2.255"))
        assert not prefix.contains(IpAddress.parse("192.0.3.0"))
        assert not prefix.contains(IpAddress.parse("2001:db8::1"))

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            Prefix(IpAddress.parse("192.0.2.1"), 24)

    def test_of_masks_host_bits(self):
        prefix = Prefix.of(IpAddress.parse("192.0.2.77"), 24)
        assert str(prefix) == "192.0.2.0/24"

    def test_zero_length_contains_everything_in_family(self):
        prefix = Prefix.of(IpAddress.parse("0.0.0.0"), 0)
        assert prefix.contains(IpAddress.parse("255.255.255.255"))
        assert not prefix.contains(IpAddress.parse("::1"))

    def test_nth(self):
        prefix = Prefix.parse("192.0.2.0/30")
        assert str(prefix.nth(0)) == "192.0.2.0"
        assert str(prefix.nth(3)) == "192.0.2.3"
        with pytest.raises(ValueError):
            prefix.nth(4)

    def test_subnet(self):
        prefix = Prefix.parse("10.0.0.0/8")
        sub = prefix.subnet(16, 5)
        assert str(sub) == "10.5.0.0/16"
        with pytest.raises(ValueError):
            prefix.subnet(4, 0)
        with pytest.raises(ValueError):
            prefix.subnet(16, 256)

    def test_num_addresses(self):
        assert Prefix.parse("192.0.2.0/24").num_addresses == 256
        assert Prefix.parse("2001:db8::/64").num_addresses == 2**64

    def test_v6(self):
        prefix = Prefix.parse("2001:db8::/32")
        assert prefix.contains(IpAddress.parse("2001:db8:ffff::1"))
        assert not prefix.contains(IpAddress.parse("2001:db9::1"))

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 32))
    def test_of_always_contains_source(self, value, length):
        addr = IpAddress.v4(value)
        prefix = Prefix.of(addr, length)
        assert prefix.contains(addr)


class TestAddressPool:
    def test_sequential_allocation(self):
        pool = AddressPool(Prefix.parse("192.0.2.0/29"))
        first = pool.allocate()
        second = pool.allocate()
        assert str(first) == "192.0.2.1"  # network address skipped
        assert str(second) == "192.0.2.2"

    def test_exhaustion(self):
        pool = AddressPool(Prefix.parse("192.0.2.0/30"))
        for _ in range(3):
            pool.allocate()
        with pytest.raises(RuntimeError):
            pool.allocate()

    def test_no_skip(self):
        pool = AddressPool(Prefix.parse("192.0.2.0/30"), skip_network_address=False)
        assert str(pool.allocate()) == "192.0.2.0"

    def test_unique_addresses(self):
        pool = AddressPool(Prefix.parse("2001:db8::/120"))
        block = [pool.allocate() for _ in range(200)]
        assert len(set(block)) == 200
