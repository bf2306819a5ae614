"""FlowFrame: the analysis view of a flow log, as NumPy columns.

The :class:`~repro.flowmon.monitor.FlowMonitor` stores what the
paper's router monitor sees: one row per finished flow, keyed by its
5-tuple.  The analyses want something else -- every table and figure
re-aggregates the same nine months of flows by day, scope and family.
``FlowFrame`` derives that shape from the log once, with array
operations only: parallel columns (day, scope, family, protocol, bytes
in/out, packets, duration, start time, interned external-peer id), so
every downstream group-by is a ``np.bincount``/``np.add.at`` over
integer codes instead of a Python loop over dataclasses.

Attribution (``peer -> origin AS``, ``peer -> rDNS eTLD+1 domain``) is
computed once per *unique* external peer rather than once per record --
the dominant cost of the AS and domain breakdowns at paper scale -- and
stored as per-peer lookup arrays (:attr:`FlowFrame.peer_asn`,
:attr:`FlowFrame.peer_domain`), so the per-flow AS/domain columns are a
single fancy-indexing expression.

Rows are in the canonical order of :meth:`FlowMonitor.layout` (days
ascending, scopes in :class:`FlowScope` declaration order, log order
within) so positional and first-appearance semantics of the original
record loops are preserved bit-for-bit by the vectorized analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.flowmon.monitor import SCOPE_CODES, FlowScope
from repro.net.addr import IpAddress
from repro.net.psl import PublicSuffixList, default_psl

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flowmon.monitor import FlowMonitor
    from repro.net.bgp import RoutingTable
    from repro.net.rdns import ReverseDns

#: The columnar layout.  ``bytes`` is the precomputed in+out total since
#: every analysis consumes it; ``peer`` indexes :attr:`FlowFrame.peers`
#: (-1 for flows with no external endpoint).
FLOW_DTYPE = np.dtype(
    [
        ("day", np.int32),
        ("hour", np.int64),  # absolute hour-of-study index
        ("scope", np.int8),
        ("family", np.int8),  # 4 or 6
        ("protocol", np.uint8),  # Protocol.value (TCP=6, UDP=17, ICMP=1)
        ("bytes", np.int64),
        ("bytes_in", np.int64),
        ("bytes_out", np.int64),
        ("packets", np.int64),
        ("duration", np.float64),
        ("start_time", np.float64),
        ("peer", np.int32),
    ]
)

_HOUR = 3600.0
_DAY = 86400.0


@dataclass
class FlowFrame:
    """One residence's flow log as parallel NumPy columns.

    Attributes:
        data: the structured array (:data:`FLOW_DTYPE`), one row per
            finished flow, in canonical order.
        peers: interned external peer addresses, in first-appearance
            order; row ``peer`` values index into this tuple.
        peer_asn: per-peer BGP origin AS (-1 unknown); filled by
            :meth:`with_attribution`.
        peer_domain: per-peer rDNS eTLD+1 id into :attr:`domains`
            (-1 unknown); filled by :meth:`with_attribution`.
        domains: interned eTLD+1 strings, in first-appearance order.
    """

    data: np.ndarray
    peers: tuple[IpAddress, ...] = ()
    peer_asn: np.ndarray | None = None
    peer_domain: np.ndarray | None = None
    domains: tuple[str, ...] = ()
    _flow_asn: np.ndarray | None = field(default=None, repr=False)
    _flow_domain: np.ndarray | None = field(default=None, repr=False)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_monitor(cls, monitor: "FlowMonitor") -> "FlowFrame":
        """Derive the core columns from a monitor's column log.

        Prefer :meth:`FlowMonitor.frame`, which caches the result.
        """
        order, scope, src_local = monitor.layout()
        rows = monitor.log.rows  # each field read is gathered on its own
        scope, src_local = scope[order], src_local[order]
        addresses = monitor.log.addresses
        family = np.fromiter(
            (a.family.value for a in addresses), dtype=np.int8, count=len(addresses)
        )
        src, dst, start = rows["src"][order], rows["dst"][order], rows["start"][order]
        bytes_in, bytes_out = rows["bytes_in"][order], rows["bytes_out"][order]
        data = np.empty(rows.size, dtype=FLOW_DTYPE)
        data["day"] = start // _DAY
        data["hour"] = start // _HOUR
        data["scope"] = scope
        data["family"] = family[src]
        data["protocol"] = rows["protocol"][order]
        data["bytes"] = bytes_in + bytes_out
        data["bytes_in"] = bytes_in
        data["bytes_out"] = bytes_out
        data["packets"] = (rows["packets_in"] + rows["packets_out"])[order]
        data["duration"] = (rows["end"] - rows["start"])[order]
        data["start_time"] = start
        # The external peer is whichever endpoint is not local; peers are
        # interned in the order they first appear.
        external = scope == SCOPE_CODES[FlowScope.EXTERNAL]
        peer_ids, inverse = first_appearance(np.where(src_local, dst, src)[external])
        data["peer"] = -1
        data["peer"][external] = inverse
        return cls(data=data, peers=tuple(addresses[i] for i in peer_ids.tolist()))

    def with_attribution(
        self,
        routing: "RoutingTable",
        rdns: "ReverseDns",
        psl: PublicSuffixList | None = None,
    ) -> "FlowFrame":
        """Fill the per-peer AS and domain lookup arrays (idempotent).

        Each *unique* peer is resolved once through the BGP table and the
        reverse-DNS map; domain strings are interned in first-appearance
        order, which (because peers are interned in first-record order)
        matches the insertion order of the original per-record dict loops.
        """
        if self.peer_asn is not None and self.peer_domain is not None:
            return self
        psl = psl or default_psl()
        n_peers = len(self.peers)
        peer_asn = np.full(n_peers, -1, dtype=np.int64)
        peer_domain = np.full(n_peers, -1, dtype=np.int32)
        domain_ids: dict[str, int] = {}
        domains: list[str] = []
        for index, peer in enumerate(self.peers):
            asn = routing.origin_of(peer)
            if asn is not None:
                peer_asn[index] = asn
            domain = rdns.lookup_etld1(peer, psl)
            if domain is not None:
                domain_id = domain_ids.get(domain)
                if domain_id is None:
                    domain_id = domain_ids[domain] = len(domains)
                    domains.append(domain)
                peer_domain[index] = domain_id
        self.peer_asn = peer_asn
        self.peer_domain = peer_domain
        self.domains = tuple(domains)
        self._flow_asn = None
        self._flow_domain = None
        return self

    # -- basic shape -------------------------------------------------------

    def __len__(self) -> int:
        return int(self.data.size)

    @property
    def day(self) -> np.ndarray:
        return self.data["day"]

    @property
    def hour(self) -> np.ndarray:
        return self.data["hour"]

    @property
    def scope(self) -> np.ndarray:
        return self.data["scope"]

    @property
    def family(self) -> np.ndarray:
        return self.data["family"]

    @property
    def protocol(self) -> np.ndarray:
        return self.data["protocol"]

    @property
    def total_bytes(self) -> np.ndarray:
        return self.data["bytes"]

    @property
    def bytes_in(self) -> np.ndarray:
        return self.data["bytes_in"]

    @property
    def bytes_out(self) -> np.ndarray:
        return self.data["bytes_out"]

    @property
    def packets(self) -> np.ndarray:
        return self.data["packets"]

    @property
    def duration(self) -> np.ndarray:
        return self.data["duration"]

    @property
    def start_time(self) -> np.ndarray:
        return self.data["start_time"]

    @property
    def peer(self) -> np.ndarray:
        return self.data["peer"]

    @property
    def is_v6(self) -> np.ndarray:
        return self.data["family"] == 6

    @property
    def flow_asn(self) -> np.ndarray:
        """Per-flow BGP origin AS (-1 for unattributed flows).

        Requires :meth:`with_attribution`.
        """
        if self.peer_asn is None:
            raise ValueError("frame is not attributed; call with_attribution()")
        if self._flow_asn is None:
            peer = self.data["peer"]
            if self.peer_asn.size == 0:  # no external peers at all
                self._flow_asn = np.full(peer.size, -1, dtype=np.int64)
            else:
                self._flow_asn = np.where(
                    peer >= 0, self.peer_asn[np.maximum(peer, 0)], np.int64(-1)
                )
        return self._flow_asn

    @property
    def flow_domain(self) -> np.ndarray:
        """Per-flow rDNS eTLD+1 id into :attr:`domains` (-1 unknown)."""
        if self.peer_domain is None:
            raise ValueError("frame is not attributed; call with_attribution()")
        if self._flow_domain is None:
            peer = self.data["peer"]
            if self.peer_domain.size == 0:  # no external peers at all
                self._flow_domain = np.full(peer.size, -1, dtype=np.int32)
            else:
                self._flow_domain = np.where(
                    peer >= 0, self.peer_domain[np.maximum(peer, 0)], np.int32(-1)
                )
        return self._flow_domain

    # -- selection ---------------------------------------------------------

    def rows_matching(
        self, scope: FlowScope | None = None, day: int | None = None
    ) -> np.ndarray | None:
        """The boolean row mask of a scope/day filter (``None``: no filter)."""
        mask = None
        if scope is not None:
            mask = self.data["scope"] == SCOPE_CODES[scope]
        if day is not None:
            day_mask = self.data["day"] == day
            mask = day_mask if mask is None else (mask & day_mask)
        return mask

    def select(
        self, scope: FlowScope | None = None, day: int | None = None
    ) -> "FlowFrame":
        """A filtered view sharing this frame's interning tables.

        Rows keep their canonical order, so first-appearance semantics
        survive.
        """
        mask = self.rows_matching(scope, day)
        return self if mask is None else self.mask(mask)

    def mask(self, mask: np.ndarray) -> "FlowFrame":
        """A boolean-mask view sharing this frame's interning tables.

        The rows are gathered by index (:func:`take_rows`): boolean
        indexing copies this packed dtype field by field.
        """
        return FlowFrame(
            data=take_rows(self.data, mask),
            peers=self.peers,
            peer_asn=self.peer_asn,
            peer_domain=self.peer_domain,
            domains=self.domains,
        )


def take_rows(data: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``data[mask]`` for a boolean row mask, gathered by index.

    Boolean indexing copies a packed (unaligned) structured dtype such as
    :data:`FLOW_DTYPE` field by field, several times slower than ``take``,
    which copies the same bytes: these dtypes have no padding.
    """
    if mask.shape != data.shape:
        raise IndexError(f"a mask of shape {mask.shape} for {data.size} rows")
    return data.take(np.flatnonzero(mask))


def first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intern 1-D integer keys in the order they first appear.

    Returns ``(unique_keys, inverse)``: the distinct keys in
    first-appearance order (the insertion order of a ``dict``-based
    loop) and each row's index into them.  Keys spanning no more values
    than there are keys (address ids, server codes) find their first
    rows by a scatter over that range, in no more memory than a sort;
    wider keys are sorted.
    """
    n = keys.size
    low = int(keys.min()) if n else 0
    span = int(keys.max()) - low + 1 if n else 0
    if span > n:
        uniq, first_index, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first_index, kind="stable")
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.arange(order.size)
        return uniq[order], rank[inverse]
    offset = keys.astype(np.int64) - low
    first = np.full(span, n, dtype=np.int64)
    np.minimum.at(first, offset, np.arange(n))
    seen = np.flatnonzero(first < n)
    order = seen[np.argsort(first[seen])]  # offsets in first-appearance order
    rank = np.empty(span, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return (order + low).astype(keys.dtype), rank[offset]


def group_sums(
    keys: np.ndarray, values: Iterable[np.ndarray] = ()
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Group-by with keys in *first-appearance* order.

    Args:
        keys: 1-D integer key per row.
        values: per-row integer columns to sum within each group.

    Returns:
        ``(unique_keys, counts, sums)`` where ``unique_keys`` preserves
        the order each key first appears in (matching the insertion order
        of a ``dict``-based accumulation loop), ``counts`` is the group
        sizes, and ``sums`` holds one exact ``int64`` sum array per value
        column.  All sums use ``np.add.at`` so no float rounding occurs.
    """
    if keys.size == 0:
        return (
            keys[:0],
            np.zeros(0, dtype=np.int64),
            [np.zeros(0, dtype=np.int64) for _ in values],
        )
    uniq, inverse = first_appearance(keys)
    counts = np.bincount(inverse, minlength=uniq.size).astype(np.int64)
    sums: list[np.ndarray] = []
    for column in values:
        out = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(out, inverse, column.astype(np.int64, copy=False))
        sums.append(out)
    return uniq, counts, sums


def day_sums(
    day: np.ndarray, values: Sequence[np.ndarray], minlength: int = 0
) -> list[np.ndarray]:
    """Per-day exact integer sums via ``np.add.at`` (index = day)."""
    length = max(minlength, int(day.max()) + 1 if day.size else 0)
    out: list[np.ndarray] = []
    for column in values:
        sums = np.zeros(length, dtype=np.int64)
        if day.size:
            np.add.at(sums, day, column.astype(np.int64, copy=False))
        out.append(sums)
    return out
