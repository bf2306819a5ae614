"""IP addresses, prefixes, and allocation pools.

Addresses are held as ``(family, integer)`` pairs rather than stdlib
``ipaddress`` objects: the integer form is what the BGP trie and prefix
matching operate on, and one representation shared by all of them avoids
conversion bugs.  Parsing and formatting round-trip
through the stdlib so the text forms are always standards-compliant.
"""

from __future__ import annotations

import enum
import ipaddress
from dataclasses import dataclass


class Family(enum.Enum):
    """An IP address family."""

    V4 = 4
    V6 = 6

    @property
    def bits(self) -> int:
        """Address width in bits (32 for IPv4, 128 for IPv6)."""
        return 32 if self is Family.V4 else 128

    @property
    def max_value(self) -> int:
        return (1 << self.bits) - 1

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"IPv{self.value}"


@dataclass(frozen=True, order=True)
class IpAddress:
    """A single IPv4 or IPv6 address.

    >>> IpAddress.parse("192.0.2.1").family
    <Family.V4: 4>
    >>> str(IpAddress.parse("2001:db8::1"))
    '2001:db8::1'
    """

    family: Family
    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= self.family.max_value:
            raise ValueError(
                f"address value {self.value:#x} out of range for {self.family}"
            )
        # Addresses key the flow log's interning table millions of times
        # per generated study; precompute the hash once instead of
        # re-hashing the (enum, int) field tuple on every dict operation.
        object.__setattr__(self, "_hash", hash((self.family.value, self.value)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def parse(cls, text: str) -> "IpAddress":
        """Parse dotted-quad or RFC 4291 text into an address."""
        parsed = ipaddress.ip_address(text)
        family = Family.V4 if parsed.version == 4 else Family.V6
        return cls(family, int(parsed))

    @classmethod
    def v4(cls, value: int) -> "IpAddress":
        return cls(Family.V4, value)

    @classmethod
    def v6(cls, value: int) -> "IpAddress":
        return cls(Family.V6, value)

    @property
    def is_v6(self) -> bool:
        return self.family is Family.V6

    def __str__(self) -> str:
        if self.family is Family.V4:
            return str(ipaddress.IPv4Address(self.value))
        return str(ipaddress.IPv6Address(self.value))


@dataclass(frozen=True)
class Prefix:
    """An address prefix (CIDR block).

    >>> Prefix.parse("192.0.2.0/24").contains(IpAddress.parse("192.0.2.7"))
    True
    """

    address: IpAddress
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= self.address.family.bits:
            raise ValueError(
                f"prefix length {self.length} invalid for {self.address.family}"
            )
        # Containment checks run once per generated flow; fix the mask at
        # construction rather than re-deriving it per call.
        object.__setattr__(self, "_mask_value", self._compute_mask())
        if self.address.value & ~self._mask_value:
            raise ValueError(
                f"host bits set in prefix {self.address}/{self.length}"
            )

    def _compute_mask(self) -> int:
        bits = self.address.family.bits
        if self.length == 0:
            return 0
        return ((1 << self.length) - 1) << (bits - self.length)

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        network = ipaddress.ip_network(text, strict=True)
        family = Family.V4 if network.version == 4 else Family.V6
        return cls(IpAddress(family, int(network.network_address)), network.prefixlen)

    @classmethod
    def of(cls, address: IpAddress, length: int) -> "Prefix":
        """The ``length``-bit prefix containing ``address``."""
        bits = address.family.bits
        if not 0 <= length <= bits:
            raise ValueError(f"prefix length {length} invalid for {address.family}")
        mask = 0 if length == 0 else ((1 << length) - 1) << (bits - length)
        return cls(IpAddress(address.family, address.value & mask), length)

    @property
    def family(self) -> Family:
        return self.address.family

    @property
    def num_addresses(self) -> int:
        return 1 << (self.family.bits - self.length)

    def contains(self, address: IpAddress) -> bool:
        if address.family is not self.family:
            return False
        return (address.value & self._mask_value) == self.address.value

    def nth(self, offset: int) -> IpAddress:
        """The ``offset``-th address inside the prefix (0 = network address)."""
        if not 0 <= offset < self.num_addresses:
            raise ValueError(f"offset {offset} outside {self}")
        return IpAddress(self.family, self.address.value + offset)

    def subnet(self, new_length: int, index: int) -> "Prefix":
        """The ``index``-th subnet of this prefix at ``new_length`` bits."""
        if new_length < self.length or new_length > self.family.bits:
            raise ValueError(
                f"cannot carve /{new_length} subnets out of a /{self.length}"
            )
        count = 1 << (new_length - self.length)
        if not 0 <= index < count:
            raise ValueError(f"subnet index {index} out of range (have {count})")
        base = self.address.value + index * (1 << (self.family.bits - new_length))
        return Prefix(IpAddress(self.family, base), new_length)

    def __str__(self) -> str:
        return f"{self.address}/{self.length}"


class AddressPool:
    """Sequential address allocator over a prefix.

    Used by the synthetic universe builders to hand out stable, distinct
    addresses to servers: allocation order is deterministic, so the same
    scenario seed always produces the same addressing plan.
    """

    def __init__(self, prefix: Prefix, skip_network_address: bool = True) -> None:
        self.prefix = prefix
        self._next = 1 if skip_network_address else 0

    def peek(self) -> IpAddress:
        """The address :meth:`allocate` hands out next, left unallocated.

        Raises:
            RuntimeError: when the pool is exhausted.
        """
        if self._next >= self.prefix.num_addresses:
            raise RuntimeError(f"address pool {self.prefix} exhausted")
        return self.prefix.nth(self._next)

    def allocate(self) -> IpAddress:
        """Hand out the next free address (:meth:`peek`, then advance)."""
        address = self.peek()
        self._next += 1
        return address

