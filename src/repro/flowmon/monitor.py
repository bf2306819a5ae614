"""The router-resident flow monitor.

Logs every finished flow into one column log (:class:`FlowLog`) and
classifies flows by scope (external LAN<->WAN vs. internal LAN<->LAN,
the split of the paper's Table 1) when it derives the columnar view
the analyses read by day, scope and address family.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.flowmon.conntrack import Protocol
from repro.net.addr import Family, IpAddress, Prefix
from repro.util.timeutil import DAY


class FlowScope(enum.Enum):
    """Where a flow's endpoints sit relative to the home network."""

    EXTERNAL = "external"  # LAN <-> WAN
    INTERNAL = "internal"  # LAN <-> LAN
    TRANSIT = "transit"  # neither endpoint local (should not occur at a
    # home router; kept so misconfigurations surface in tests)


#: Integer codes for :class:`FlowScope`, in declaration order.
SCOPE_CODES: dict[FlowScope, int] = {s: i for i, s in enumerate(FlowScope)}


@dataclass(frozen=True)
class RouterConfig:
    """Addressing of one residence's router.

    Attributes:
        lan_v4: the RFC1918-style IPv4 LAN prefix.
        lan_v6: the delegated IPv6 prefix (or None for an IPv4-only ISP
            without a tunnel).
    """

    name: str
    lan_v4: Prefix
    lan_v6: Prefix | None

    def __post_init__(self) -> None:
        if self.lan_v4.family is not Family.V4:
            raise ValueError("lan_v4 must be an IPv4 prefix")
        if self.lan_v6 is not None and self.lan_v6.family is not Family.V6:
            raise ValueError("lan_v6 must be an IPv6 prefix")

    def is_local(self, address: IpAddress) -> bool:
        if address.family is Family.V4:
            return self.lan_v4.contains(address)
        return self.lan_v6 is not None and self.lan_v6.contains(address)


#: One row per finished flow: the flow key (``src``/``dst`` as ids into
#: :attr:`FlowLog.addresses`, ``icmp_type`` -1 when the flow carries no
#: ICMP info), its start and end, and the per-direction counters.
LOG_DTYPE = np.dtype(
    [
        ("protocol", np.uint8),
        ("src", np.int32),
        ("dst", np.int32),
        ("sport", np.uint16),
        ("dport", np.uint16),
        ("icmp_type", np.int16),
        ("icmp_code", np.uint8),
        ("icmp_id", np.uint16),
        ("start", np.float64),
        ("end", np.float64),
        ("bytes_out", np.int64),
        ("bytes_in", np.int64),
        ("packets_out", np.int64),
        ("packets_in", np.int64),
    ]
)

_NO_ICMP = -1  # ``icmp_type`` of a flow that carries no ICMP info


class FlowLog:
    """The column log every finished flow lands in.

    One :data:`LOG_DTYPE` array (:attr:`rows`) with the interned address
    table (:attr:`addresses`) is the whole log: the frame, the
    warehouse payload and worker transfers derive from it.  Logs are
    made whole (:meth:`from_columns`), never appended to.
    """

    def __init__(
        self, addresses: Sequence[IpAddress] = (), rows: np.ndarray | None = None
    ) -> None:
        self.addresses: list[IpAddress] = list(addresses)
        self.rows = np.empty(0, dtype=LOG_DTYPE) if rows is None else rows

    def __reduce__(self):
        return (FlowLog, (self.addresses, self.rows))

    def __len__(self) -> int:
        return self.rows.size

    @classmethod
    def from_columns(
        cls, addresses: Sequence[IpAddress], columns: dict[str, np.ndarray]
    ) -> "FlowLog":
        """A log of whole columns, one per :data:`LOG_DTYPE` field
        (``icmp_type`` -1 where a flow carries no ICMP info) with
        ``src``/``dst`` as ids into ``addresses``.  The columns are
        checked as given, before any narrowing cast, then packed once."""
        family = np.fromiter(
            (a.family.value for a in addresses), dtype=np.int8, count=len(addresses)
        )
        _check_columns(columns, family)
        rows = np.empty(len(columns["start"]), dtype=LOG_DTYPE)
        for name in LOG_DTYPE.names:
            rows[name] = columns[name]
        return cls(addresses, rows)


def _check_columns(columns: dict[str, np.ndarray], family: np.ndarray) -> None:
    """Refuse a row no finished flow can have, raising ``ValueError``.

    A flow's endpoints share an address family; an ICMP flow carries a
    type, code and id (each in range) and no ports, any other flow ports
    in range and no ICMP info; it ends no earlier than it starts, at or
    after the sim epoch, and its counters are not negative."""
    protocol, src, dst, sport, dport, icmp_type, icmp_code, icmp_id, start, end = (
        columns[name]
        for name in (
            "protocol", "src", "dst", "sport", "dport",
            "icmp_type", "icmp_code", "icmp_id", "start", "end",
        )
    )
    icmp = protocol == Protocol.ICMP.value
    has_info = icmp_type != _NO_ICMP
    checks = (
        (
            has_info
            & ((icmp_type < 0) | (icmp_type > 255) | (icmp_code < 0) | (icmp_code > 255)),
            "ICMP type and code must fit in one byte",
        ),
        (has_info & ((icmp_id < 0) | (icmp_id > 0xFFFF)), "ICMP id must fit in two bytes"),
        (family[src] != family[dst], "flow endpoints must share an address family"),
        (icmp & ~has_info, "ICMP flows must carry ICMP info"),
        (icmp & ((sport != 0) | (dport != 0)), "ICMP flows have no ports"),
        (~icmp & has_info, "only ICMP flows carry ICMP info"),
        (end < start, "flow cannot end before it starts"),
        (
            (columns["bytes_out"] < 0) | (columns["bytes_in"] < 0)
            | (columns["packets_out"] < 0) | (columns["packets_in"] < 0),
            "counters cannot be negative",
        ),
        (start < 0, "timestamps before the sim epoch are not allowed"),
    )
    for bad, message in checks:
        if bad.any():
            raise ValueError(message)
    sport_bad = (sport < 0) | (sport > 0xFFFF)
    dport_bad = (dport < 0) | (dport > 0xFFFF)
    bad_ports = ~icmp & (sport_bad | dport_bad)
    if bad_ports.any():
        row = int(np.argmax(bad_ports))  # the first offending row
        raise ValueError(
            f"port {sport[row] if sport_bad[row] else dport[row]} out of range"
        )


@dataclass
class FlowMonitor:
    """Collects finished flows into one column log.

    :attr:`log` is the monitor's only storage: one row per finished
    flow, holding what a conntrack DESTROY event carries.  The traffic
    generator writes its finished flows into the log directly.

    The analyses read one view of the log, the columnar
    :class:`~repro.flowmon.frame.FlowFrame` (:meth:`frame`), built on
    first use and kept (a log is built whole; code that appends to one
    drops the view itself).  Its rows follow the canonical order: days
    ascending, scopes in :class:`FlowScope` declaration order, log order
    within.
    """

    config: RouterConfig
    log: FlowLog = field(default_factory=FlowLog, repr=False)
    _frame_cache: object = field(default=None, repr=False, compare=False)

    def layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """How the log maps onto the canonical order.

        Returns ``(order, scope, src_local)``: the permutation from log
        rows to canonical rows (a stable sort on (day, scope)), then each
        log row's scope code and whether its source is local.  The
        router config is asked once per distinct address.
        """
        rows = self.log.rows
        addresses = self.log.addresses
        local = np.fromiter(
            map(self.config.is_local, addresses), dtype=bool, count=len(addresses)
        )
        src_local = local[rows["src"]]
        dst_local = local[rows["dst"]]
        scope = np.full(rows.size, SCOPE_CODES[FlowScope.TRANSIT], dtype=np.int8)
        scope[src_local | dst_local] = SCOPE_CODES[FlowScope.EXTERNAL]
        scope[src_local & dst_local] = SCOPE_CODES[FlowScope.INTERNAL]
        day = (rows["start"] // DAY).astype(np.int32)
        return np.lexsort((scope, day)), scope, src_local

    def frame(self):
        """The columnar :class:`~repro.flowmon.frame.FlowFrame` view of
        this log (core columns only, no attribution), built once."""
        if self._frame_cache is None:
            from repro.flowmon.frame import FlowFrame

            self._frame_cache = FlowFrame.from_monitor(self)
        return self._frame_cache
