"""A routing information base with longest-prefix match.

The paper maps an external IP address to its origin AS "from BGP routing
tables" (section 3.4) and identifies a domain's cloud provider "by the AS
that originates the BGP prefix containing the domain's IP address"
(section 5.1).  :class:`RoutingTable` provides exactly that primitive: feed
it prefix announcements, ask it which announcement covers an address.

Lookup is a per-family binary trie walked from the most-significant bit,
remembering the deepest announcement seen -- textbook longest-prefix match,
O(address bits) per query regardless of table size.  The walk shifts each
bit out of the address's integer value, so a level costs one shift and one
mask.  Tests cross-check it against a brute-force scan in both families.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.addr import Family, IpAddress, Prefix


@dataclass(frozen=True)
class Announcement:
    """A BGP announcement: an origin AS claiming a prefix."""

    prefix: Prefix
    origin_asn: int

    def __post_init__(self) -> None:
        if self.origin_asn <= 0:
            raise ValueError(f"origin AS must be positive, got {self.origin_asn}")


class _TrieNode:
    __slots__ = ("children", "announcement")

    def __init__(self) -> None:
        self.children: list[_TrieNode | None] = [None, None]
        self.announcement: Announcement | None = None


@dataclass
class RoutingTable:
    """A RIB supporting announce/withdraw and longest-prefix match."""

    _roots: dict[Family, _TrieNode] = field(
        default_factory=lambda: {Family.V4: _TrieNode(), Family.V6: _TrieNode()}
    )
    _count: int = 0

    def announce(self, prefix: Prefix, origin_asn: int) -> Announcement:
        """Install (or replace) the announcement for ``prefix``.

        Re-announcing an existing prefix with a different origin models an
        origin change; the newest announcement wins, as in a RIB that keeps
        one best route per prefix.
        """
        announcement = Announcement(prefix=prefix, origin_asn=origin_asn)
        node = self._descend(prefix, create=True)
        assert node is not None
        if node.announcement is None:
            self._count += 1
        node.announcement = announcement
        return announcement

    def withdraw(self, prefix: Prefix) -> bool:
        """Remove the announcement for ``prefix``; True if one existed."""
        node = self._descend(prefix, create=False)
        if node is None or node.announcement is None:
            return False
        node.announcement = None
        self._count -= 1
        return True

    def _descend(self, prefix: Prefix, create: bool) -> _TrieNode | None:
        node = self._roots[prefix.family]
        value, top = prefix.address.value, prefix.family.bits - 1
        for shift in range(top, top - prefix.length, -1):
            bit = (value >> shift) & 1
            child = node.children[bit]
            if child is None:
                if not create:
                    return None
                child = _TrieNode()
                node.children[bit] = child
            node = child
        return node

    def longest_match(self, address: IpAddress) -> Announcement | None:
        """The most-specific announcement covering ``address``, if any."""
        node: _TrieNode | None = self._roots[address.family]
        best = node.announcement  # a default route (/0), if any
        value = address.value
        for shift in range(address.family.bits - 1, -1, -1):
            node = node.children[(value >> shift) & 1]
            if node is None:
                break
            if node.announcement is not None:
                best = node.announcement
        return best

    def origin_of(self, address: IpAddress) -> int | None:
        """Origin AS for ``address``, or ``None`` if unrouted."""
        match = self.longest_match(address)
        return match.origin_asn if match else None

    def announcements(self) -> list[Announcement]:
        """Every live announcement, sorted for stable output."""
        found: list[Announcement] = []
        for root in self._roots.values():
            stack = [root]
            while stack:
                node = stack.pop()
                if node.announcement is not None:
                    found.append(node.announcement)
                stack.extend(child for child in node.children if child is not None)
        return sorted(
            found,
            key=lambda a: (a.prefix.family.value, a.prefix.address.value, a.prefix.length),
        )

    def __len__(self) -> int:
        return self._count
