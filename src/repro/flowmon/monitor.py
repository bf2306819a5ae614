"""The router-resident flow monitor.

Logs every finished flow into one append-only column log
(:class:`FlowLog`), classifies flows by scope (external LAN<->WAN vs.
internal LAN<->LAN, the split of the paper's Table 1) and address
family, and serves the log as per-day record batches, mirroring the
daily upload cadence of section 3.1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.flowmon.conntrack import FlowKey, FlowRecord, IcmpInfo, Protocol
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
SCOPES_BY_CODE: tuple[FlowScope, ...] = tuple(FlowScope)


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

#: The integer fields, in the order :meth:`FlowLog.append` buffers them.
_INT_FIELDS = tuple(name for name in LOG_DTYPE.names if name not in ("start", "end"))
_NO_ICMP = (-1, 0, 0)


class FlowLog:
    """The append-only column log every finished flow lands in.

    Appends go into two flat Python lists; :meth:`seal` validates the
    pending rows and moves them into one :data:`LOG_DTYPE` array.  That
    array, with the interned address table, is the whole log: frames,
    records, the warehouse payload and worker transfers derive from it.
    """

    def __init__(
        self, addresses: Sequence[IpAddress] = (), rows: np.ndarray | None = None
    ) -> None:
        self.addresses: list[IpAddress] = list(addresses)
        self._ids = {address: index for index, address in enumerate(self.addresses)}
        self._rows = np.empty(0, dtype=LOG_DTYPE) if rows is None else rows
        self._ints: list[int] = []
        self._floats: list[float] = []

    def __reduce__(self):
        return (FlowLog, (self.addresses, self.rows))

    def __len__(self) -> int:
        return self._rows.size + len(self._floats) // 2

    def _intern(self, address: IpAddress) -> int:
        index = self._ids[address] = len(self.addresses)
        self.addresses.append(address)
        return index

    def append(
        self,
        protocol: int,
        src: IpAddress,
        dst: IpAddress,
        sport: int,
        dport: int,
        start: float,
        end: float,
        bytes_out: int,
        bytes_in: int,
        packets_out: int,
        packets_in: int,
        icmp: tuple[int, int, int] | None = None,
    ) -> None:
        """Log one finished flow (``protocol`` is a :class:`Protocol`
        value; ``icmp`` the (type, code, id) of ICMP flows).  Checked when
        the log is sealed."""
        ids = self._ids
        src_id = ids.get(src)
        if src_id is None:
            src_id = self._intern(src)
        dst_id = ids.get(dst)
        if dst_id is None:
            dst_id = self._intern(dst)
        self._ints.extend(
            (protocol, src_id, dst_id, sport, dport, *(icmp or _NO_ICMP),
             bytes_out, bytes_in, packets_out, packets_in)
        )
        self._floats.extend((start, end))

    @property
    def rows(self) -> np.ndarray:
        """The sealed log (seals pending appends first)."""
        if self._floats:
            self.seal()
        return self._rows

    @classmethod
    def from_columns(
        cls, addresses: Sequence[IpAddress], columns: dict[str, np.ndarray]
    ) -> "FlowLog":
        """A sealed log of whole columns, one per :data:`LOG_DTYPE`
        field (``icmp_type`` -1 where a flow carries no ICMP info) with
        ``src``/``dst`` as ids into ``addresses``; checked like
        :meth:`seal` checks appends."""
        ints = np.column_stack([columns[name] for name in _INT_FIELDS]).astype(
            np.int64, copy=False
        )
        floats = np.column_stack((columns["start"], columns["end"])).astype(
            np.float64, copy=False
        )
        return cls(addresses, _checked_rows(ints, floats, addresses))

    def seal(self) -> np.ndarray:
        """Validate the pending appends and move them into the array."""
        ints = np.array(self._ints, dtype=np.int64).reshape(-1, len(_INT_FIELDS))
        floats = np.array(self._floats, dtype=np.float64).reshape(-1, 2)
        new = _checked_rows(ints, floats, self.addresses)
        self._rows = np.concatenate((self._rows, new)) if self._rows.size else new
        self._ints, self._floats = [], []
        return self._rows


def _checked_rows(
    ints: np.ndarray, floats: np.ndarray, addresses: Sequence[IpAddress]
) -> np.ndarray:
    """Validate rows given as an integer and a float matrix (fields in
    :data:`LOG_DTYPE` order) and pack them into :data:`LOG_DTYPE`."""
    family = np.array([a.family.value for a in addresses], dtype=np.int8)
    _check_rows(ints, floats, family)
    rows = np.empty(len(floats), dtype=LOG_DTYPE)
    for column, name in enumerate(_INT_FIELDS):
        rows[name] = ints[:, column]
    rows["start"], rows["end"] = floats[:, 0], floats[:, 1]
    return rows


def _check_rows(ints: np.ndarray, floats: np.ndarray, family: np.ndarray) -> None:
    """The checks of ``IcmpInfo``, ``FlowKey``, ``FlowRecord`` and the
    monitor's day binning, vectorized; raises the same ``ValueError``."""
    protocol, src, dst, sport, dport, icmp_type, icmp_code, icmp_id = ints[:, :8].T
    start, end = floats.T
    icmp = protocol == Protocol.ICMP.value
    has_info = icmp_type != _NO_ICMP[0]
    ports = ints[:, 3:5]
    bad_ports = ports[~icmp[:, None] & ((ports < 0) | (ports > 0xFFFF))]
    checks = (
        (
            has_info & ((icmp_type < 0) | (icmp_type > 255) | (icmp_code < 0) | (icmp_code > 255)),
            "ICMP type and code must fit in one byte",
        ),
        (has_info & ((icmp_id < 0) | (icmp_id > 0xFFFF)), "ICMP id must fit in two bytes"),
        (family[src] != family[dst], "flow endpoints must share an address family"),
        (icmp & ~has_info, "ICMP flows must carry IcmpInfo"),
        (icmp & ((sport != 0) | (dport != 0)), "ICMP flows have no ports"),
        (~icmp & has_info, "only ICMP flows carry IcmpInfo"),
        (end < start, "flow cannot end before it starts"),
        ((ints[:, 8:] < 0).any(axis=1), "counters cannot be negative"),
        (start < 0, "timestamps before the sim epoch are not allowed"),
    )
    for bad, message in checks:
        if bad.any():
            raise ValueError(message)
    if bad_ports.size:
        raise ValueError(f"port {bad_ports[0]} out of range")


@dataclass
class FlowMonitor:
    """Collects finished flows into one append-only column log.

    :attr:`log` is the monitor's only storage: one row per finished
    flow, holding what a conntrack DESTROY event carries.  The traffic
    generator writes its finished flows into the log directly.

    Two views derive from the log, each built on first use and dropped
    when the log grows: the columnar :class:`~repro.flowmon.frame.
    FlowFrame` (:meth:`frame`) the analyses read, and the
    :class:`FlowRecord` projection (:meth:`records`, :attr:`daily_logs`)
    for the exporter and record-level tests.  Both follow the canonical
    order: days ascending, scopes in :class:`FlowScope` declaration
    order, appends within.
    """

    config: RouterConfig
    log: FlowLog = field(default_factory=FlowLog, repr=False)
    _frame_cache: object = field(default=None, repr=False, compare=False)
    _projection: dict[tuple, list[FlowRecord]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _views_at: int = field(default=0, repr=False, compare=False)

    def __getstate__(self) -> dict:
        # The record projection is rebuilt on demand, never persisted.
        return {**self.__dict__, "_projection": {}}

    @property
    def version(self) -> int:
        """Flows logged so far.  The log is append-only, so the count is
        also the staleness stamp of any view derived from it."""
        return len(self.log)

    def _fresh(self) -> None:
        """Drop the derived views if the log grew since they were built."""
        if self._views_at != len(self.log):
            self._views_at = len(self.log)
            self._frame_cache = None
            self._projection = {}

    def classify(self, record: FlowRecord) -> FlowScope:
        src_local = self.config.is_local(record.key.src)
        dst_local = self.config.is_local(record.key.dst)
        if src_local and dst_local:
            return FlowScope.INTERNAL
        if src_local or dst_local:
            return FlowScope.EXTERNAL
        return FlowScope.TRANSIT

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
        this log (core columns only, no attribution), built once and
        rebuilt after the log grows."""
        self._fresh()
        if self._frame_cache is None:
            from repro.flowmon.frame import FlowFrame

            self._frame_cache = FlowFrame.from_monitor(self)
        return self._frame_cache

    def records(
        self, scope: FlowScope | None = None, day: int | None = None
    ) -> list[FlowRecord]:
        """All logged flows as records, optionally filtered by scope and/or day.

        Records are a projection of the log, built on first use (sharing
        the log's interned addresses) and kept until the log grows --
        treat the returned list as read-only.
        """
        self._fresh()
        key = (scope, day)
        found = self._projection.get(key)
        if found is None:
            if key == (None, None):
                found = self._project()
            else:
                everything = self.records()
                rows = np.flatnonzero(self.frame().rows_matching(scope, day))
                found = [everything[i] for i in rows.tolist()]
            self._projection[key] = found
        return found

    def _project(self) -> list[FlowRecord]:
        order, _, _ = self.layout()
        rows = self.log.rows[order]
        addresses = self.log.addresses
        protocols = {p.value: p for p in Protocol}
        return [
            FlowRecord(
                FlowKey(
                    protocols[protocol], addresses[src], addresses[dst], sport, dport,
                    IcmpInfo(icmp_type, icmp_code, icmp_id) if icmp_type >= 0 else None,
                ),
                start, end, bytes_out, bytes_in, packets_out, packets_in,
            )
            for (
                protocol, src, dst, sport, dport, icmp_type, icmp_code, icmp_id,
                start, end, bytes_out, bytes_in, packets_out, packets_in,
            ) in zip(*(rows[name].tolist() for name in LOG_DTYPE.names))
        ]

    @property
    def daily_logs(self) -> dict[int, dict[FlowScope, list[FlowRecord]]]:
        """``{day: {scope: [records]}}``: the per-day upload batches,
        projected from the log in canonical order."""
        frame = self.frame()
        logs: dict[int, dict[FlowScope, list[FlowRecord]]] = {}
        for record, day, scope in zip(self.records(), frame.day.tolist(), frame.scope.tolist()):
            logs.setdefault(day, {}).setdefault(SCOPES_BY_CODE[scope], []).append(record)
        return logs

    def observed_days(self) -> list[int]:
        return np.unique(self.frame().day).tolist()

    def external_peer(self, record: FlowRecord) -> IpAddress | None:
        """The non-local endpoint of an external flow (the "service" side)."""
        src_local = self.config.is_local(record.key.src)
        dst_local = self.config.is_local(record.key.dst)
        if src_local and not dst_local:
            return record.key.dst
        if dst_local and not src_local:
            return record.key.src
        return None
