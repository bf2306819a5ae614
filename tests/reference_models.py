"""The one-event models the column paths are pinned against.

The program logs flows and probes as columns.  These are the
record-at-a-time models those columns replaced, kept here because the
tests compare the column paths against them:

* :func:`observe` logs one finished flow (a :class:`FlowRecord`, what
  a conntrack DESTROY event carries) into a monitor's log, one record at
  a time, where the traffic generator writes whole columns;
  :class:`AppendLog` is the log it appends to, which checks its rows
  through the program's own
  :meth:`~repro.flowmon.monitor.FlowLog.from_columns`;
* :func:`records` projects a monitor's log back into records, in the
  frame's canonical order, and :func:`classify` and
  :func:`external_peer` read one record's scope and service side -- the
  record loops the frame's columns are pinned against;
* :class:`Prober` probes one (vantage, target) pair through its own
  :class:`VantageResolver` and two :class:`~repro.happyeyeballs.
  algorithm.HappyEyeballs` races, and :func:`encode_block` writes its
  :class:`ProbeResult` objects as frame rows -- the reference the
  observatory's column kernel must equal (``probe_frame_by_probe`` in
  ``conftest.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.flowmon.conntrack import Protocol
from repro.flowmon.monitor import LOG_DTYPE, FlowLog, FlowMonitor, FlowScope, RouterConfig
from repro.happyeyeballs.algorithm import HappyEyeballs, HappyEyeballsConfig
from repro.net.addr import Family, IpAddress
from repro.net.dns import DnsResponse, DnsStatus, Resolver, ZoneDatabase
from repro.observatory.frame import PROBE_DTYPE
from repro.observatory.probe import (
    LATENCY_JITTER_STD,
    MIN_LATENCY,
    PolicyConnectivity,
    ProbeTarget,
    ProbeVerdict,
)
from repro.observatory.resolver import (
    AAAA_RESOLUTION_TIME,
    A_RESOLUTION_TIME,
    DNS64_SYNTHESIS_DELAY,
    fresh_resolver,
    nat64_synthesize,
)
from repro.observatory.vantage import NetworkPolicy, VantagePoint
from repro.util.rng import RngStream
from repro.util.timeutil import day_index

# -- flows -------------------------------------------------------------------


@dataclass(frozen=True)
class IcmpInfo:
    """ICMP flow identity: type, code, and echo id (paper section 3.1)."""

    icmp_type: int
    icmp_code: int
    icmp_id: int


@dataclass(frozen=True)
class FlowKey:
    """A flow's identity: the 5-tuple, or protocol+addresses+ICMP info."""

    protocol: Protocol
    src: IpAddress
    dst: IpAddress
    sport: int = 0
    dport: int = 0
    icmp: IcmpInfo | None = None

    @property
    def is_v6(self) -> bool:
        return self.src.family is Family.V6


@dataclass(frozen=True)
class FlowRecord:
    """The final accounting for one finished flow (DESTROY payload).
    Unchecked: :func:`observe` seals it through
    :meth:`FlowLog.from_columns`, which refuses what no flow can hold."""

    key: FlowKey
    start_time: float
    end_time: float
    bytes_out: int
    bytes_in: int
    packets_out: int
    packets_in: int

    @property
    def total_bytes(self) -> int:
        return self.bytes_out + self.bytes_in


def classify(config: RouterConfig, record: FlowRecord) -> FlowScope:
    """One record's scope, from where its endpoints sit."""
    src_local = config.is_local(record.key.src)
    dst_local = config.is_local(record.key.dst)
    if src_local and dst_local:
        return FlowScope.INTERNAL
    if src_local or dst_local:
        return FlowScope.EXTERNAL
    return FlowScope.TRANSIT


def external_peer(config: RouterConfig, record: FlowRecord) -> IpAddress | None:
    """The non-local endpoint of an external flow (the "service" side)."""
    src_local = config.is_local(record.key.src)
    dst_local = config.is_local(record.key.dst)
    if src_local and not dst_local:
        return record.key.dst
    if dst_local and not src_local:
        return record.key.src
    return None


def records(
    monitor: FlowMonitor, scope: FlowScope | None = None, day: int | None = None
) -> list[FlowRecord]:
    """A monitor's logged flows as records, optionally filtered by scope
    and/or day, in the canonical order of its frame (sharing the log's
    interned addresses)."""
    order, _, _ = monitor.layout()
    rows = monitor.log.rows[order]
    addresses = monitor.log.addresses
    projected = [
        FlowRecord(
            FlowKey(
                Protocol(protocol), addresses[src], addresses[dst], sport, dport,
                IcmpInfo(icmp_type, icmp_code, icmp_id) if icmp_type >= 0 else None,
            ),
            start, end, bytes_out, bytes_in, packets_out, packets_in,
        )
        for (
            protocol, src, dst, sport, dport, icmp_type, icmp_code, icmp_id,
            start, end, bytes_out, bytes_in, packets_out, packets_in,
        ) in zip(*(rows[name].tolist() for name in LOG_DTYPE.names))
    ]
    return [
        record for record in projected
        if (scope is None or classify(monitor.config, record) is scope)
        and (day is None or day_index(record.start_time) == day)
    ]


#: The integer fields, in the order :meth:`AppendLog.append` buffers them.
_INT_FIELDS = tuple(name for name in LOG_DTYPE.names if name not in ("start", "end"))
_NO_ICMP = (-1, 0, 0)


class AppendLog(FlowLog):
    """A :class:`~repro.flowmon.monitor.FlowLog` that takes one finished
    flow at a time.

    Appends go into two flat Python lists; :meth:`seal` checks the
    pending rows (as int64 and float64 columns, through
    :meth:`FlowLog.from_columns`) and moves them into :attr:`rows`,
    which seals first when read.  It pickles as a plain ``FlowLog``.
    """

    def __init__(
        self, addresses: Sequence[IpAddress] = (), rows: np.ndarray | None = None
    ) -> None:
        self._ints: list[int] = []
        self._floats: list[float] = []
        super().__init__(addresses, rows)
        self._ids = {address: index for index, address in enumerate(self.addresses)}

    @property
    def rows(self) -> np.ndarray:
        """The sealed log (seals pending appends first)."""
        if self._floats:
            self.seal()
        return self._rows

    @rows.setter
    def rows(self, rows: np.ndarray) -> None:
        self._rows = rows

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

    def seal(self) -> np.ndarray:
        """Check the pending appends and move them into the array."""
        ints = np.array(self._ints, dtype=np.int64).reshape(-1, len(_INT_FIELDS))
        floats = np.array(self._floats, dtype=np.float64).reshape(-1, 2)
        columns = {name: ints[:, i] for i, name in enumerate(_INT_FIELDS)}
        columns["start"], columns["end"] = floats[:, 0], floats[:, 1]
        new = FlowLog.from_columns(self.addresses, columns).rows
        self._rows = np.concatenate((self._rows, new)) if self._rows.size else new
        self._ints, self._floats = [], []
        return self._rows


def observe(monitor: FlowMonitor, record: FlowRecord) -> FlowScope:
    """Log one finished flow into ``monitor``; returns its scope.  A
    monitor's sealed log is reopened as an :class:`AppendLog` first, and
    the frame derived from the log is dropped (the monitor keeps it once
    built: in ``src/`` a log is built whole)."""
    day_index(record.start_time)  # refuse pre-epoch flows up front
    if not isinstance(monitor.log, AppendLog):
        monitor.log = AppendLog(monitor.log.addresses, monitor.log.rows)
    key = record.key
    icmp = key.icmp
    monitor.log.append(
        key.protocol.value, key.src, key.dst, key.sport, key.dport,
        record.start_time, record.end_time,
        record.bytes_out, record.bytes_in, record.packets_out, record.packets_in,
        None if icmp is None else (icmp.icmp_type, icmp.icmp_code, icmp.icmp_id),
    )
    monitor._frame_cache = None
    return classify(monitor.config, record)


# -- probes ------------------------------------------------------------------


def jitter(connectivity: PolicyConnectivity, rng: RngStream) -> None:
    """Draw one probe's latency jitter (one draw per family)."""
    v = connectivity.vantage
    connectivity._v4 = max(MIN_LATENCY, v.v4_latency + rng.normal(0.0, LATENCY_JITTER_STD))
    connectivity._v6 = max(MIN_LATENCY, v.v6_latency + rng.normal(0.0, LATENCY_JITTER_STD))


@dataclass(frozen=True)
class VantageAnswer:
    """What one vantage's resolver handed the prober for one target.

    Attributes:
        a / aaaa: the raw responses (AAAA is the *policy-shaped* view:
            a lossy vantage reports TIMEOUT even though records exist).
        v4_addresses / v6_addresses: connectable addresses per family.
        aaaa_time: when the v6 answer became usable (DNS64 synthesis is
            slower than a real AAAA answer).
        synthesized: True when the v6 addresses are DNS64 fabrications.
    """

    a: DnsResponse
    aaaa: DnsResponse
    v4_addresses: tuple[IpAddress, ...]
    v6_addresses: tuple[IpAddress, ...]
    aaaa_time: float
    synthesized: bool

    @property
    def target_exists(self) -> bool:
        """The name resolved to *something* (either family answered)."""
        return bool(self.v4_addresses or self.v6_addresses)


@dataclass
class VantageResolver:
    """One vantage's stub resolver over the shared zone database."""

    vantage: VantagePoint
    resolver: Resolver = field(repr=False)

    @classmethod
    def over(
        cls,
        vantage: VantagePoint,
        database: ZoneDatabase,
        forced_failures: dict[str, DnsStatus] | None = None,
    ) -> "VantageResolver":
        """A fresh per-vantage resolver sharing ``database``.

        ``forced_failures`` (the ecosystem's injected SERVFAILs and
        timeouts) are copied, not shared, so probe-side bookkeeping
        cannot leak into the crawler's resolver.
        """
        return cls(vantage=vantage, resolver=fresh_resolver(database, forced_failures or {}))

    def resolve_target(
        self,
        host: str,
        rng: RngStream,
        overlay_v6: tuple[IpAddress, ...] = (),
    ) -> VantageAnswer:
        """The dual-stack query pair, as this vantage's network sees it.

        ``overlay_v6`` models mid-window adoption (the takeoff): AAAA
        records the target published *after* the universe was built.
        They behave exactly like authoritative answers -- a lossy
        vantage can still time the query out, and NAT64 synthesis is
        suppressed by their presence.
        """
        a, aaaa = self.resolver.resolve_addresses(host)
        policy = self.vantage.policy
        aaaa_time = AAAA_RESOLUTION_TIME
        synthesized = False

        lost = (
            policy is NetworkPolicy.LOSSY_RESOLVER
            and aaaa.status is DnsStatus.NOERROR
            and rng.bernoulli(self.vantage.aaaa_loss_rate)
        )
        if lost:
            aaaa = DnsResponse(
                DnsStatus.TIMEOUT, (), aaaa.chain, aaaa.question
            )

        v4_addresses = a.addresses if a.status is DnsStatus.NOERROR else ()
        v6_addresses = aaaa.addresses if aaaa.status is DnsStatus.NOERROR else ()

        if overlay_v6 and not v6_addresses and v4_addresses and not lost:
            v6_addresses = overlay_v6

        if policy is NetworkPolicy.NAT64 and not v6_addresses and v4_addresses:
            v6_addresses = tuple(nat64_synthesize(v4) for v4 in v4_addresses)
            aaaa_time = A_RESOLUTION_TIME + DNS64_SYNTHESIS_DELAY
            synthesized = True

        return VantageAnswer(
            a=a,
            aaaa=aaaa,
            v4_addresses=v4_addresses,
            v6_addresses=v6_addresses,
            aaaa_time=aaaa_time,
            synthesized=synthesized,
        )


@dataclass(frozen=True)
class ProbeResult:
    """Everything one probe observed."""

    target: ProbeTarget
    verdict: ProbeVerdict
    aaaa_present: bool
    synthesized_aaaa: bool
    client_family: Family | None
    v6_connect_time: float | None

    @property
    def available(self) -> bool:
        """The binary "IPv6 available" bit prior work reports."""
        return self.verdict is ProbeVerdict.V6_OK


class Prober:
    """Runs availability probes for one vantage point.

    Each probe runs two races: a **v6-only** race (the availability
    check proper), whose outcome becomes the :class:`ProbeVerdict`, and
    a **dual-stack** race (what a real client at this vantage would
    do), whose winning family is recorded separately.
    """

    def __init__(
        self,
        vantage: VantagePoint,
        resolver: VantageResolver,
        unreachable: Iterable[IpAddress] = (),
        he_config: HappyEyeballsConfig | None = None,
    ) -> None:
        self.vantage = vantage
        self.resolver = resolver
        self.connectivity = PolicyConnectivity(
            vantage=vantage, unreachable=frozenset(unreachable)
        )
        self._he = HappyEyeballs(he_config)

    def probe(
        self,
        target: ProbeTarget,
        rng: RngStream,
        overlay_v6: tuple[IpAddress, ...] = (),
    ) -> ProbeResult:
        """Probe one target: resolve, race v6-only, race dual-stack.

        ``overlay_v6`` carries AAAA records the target published after
        the universe was built (mid-window adoption); see
        :meth:`VantageResolver.resolve_target`.
        """
        answer = self.resolver.resolve_target(target.host, rng, overlay_v6)
        jitter(self.connectivity, rng)
        self.connectivity.blocked_v6 = self.vantage.blocks_target(target.etld1)

        if not answer.target_exists:
            nxdomain = DnsStatus.NXDOMAIN
            verdict = (
                ProbeVerdict.TARGET_DOWN
                if answer.a.status is nxdomain and answer.aaaa.status is nxdomain
                else ProbeVerdict.RESOLVE_FAILED
            )
            return ProbeResult(
                target=target,
                verdict=verdict,
                aaaa_present=False,
                synthesized_aaaa=False,
                client_family=None,
                v6_connect_time=None,
            )

        aaaa_present = bool(answer.v6_addresses)
        if not aaaa_present:
            verdict = ProbeVerdict.NO_AAAA
            v6_time = None
        elif self.vantage.policy is NetworkPolicy.V4_ONLY:
            verdict = ProbeVerdict.NO_V6_ROUTE
            v6_time = None
        else:
            verdict, v6_time = self._race_v6(answer.v6_addresses, answer.aaaa_time, rng)

        client_family = self._race_dual_stack(answer)
        return ProbeResult(
            target=target,
            verdict=verdict,
            aaaa_present=aaaa_present,
            synthesized_aaaa=answer.synthesized,
            client_family=client_family,
            v6_connect_time=v6_time,
        )

    def _race_v6(
        self,
        v6_addresses: tuple[IpAddress, ...],
        aaaa_time: float,
        rng: RngStream,
    ) -> tuple[ProbeVerdict, float | None]:
        """The availability check proper: an IPv6-only connection race."""
        result = self._he.connect(
            [],
            list(v6_addresses),
            self.connectivity,
            v6_resolution_time=aaaa_time,
        )
        if not result.connected:
            return ProbeVerdict.V6_CONNECT_FAILED, None
        if self.vantage.policy is NetworkPolicy.BROKEN_PMTU and rng.bernoulli(
            self.vantage.pmtu_blackhole_rate
        ):
            return ProbeVerdict.V6_PATH_BROKEN, result.connect_time
        return ProbeVerdict.V6_OK, result.connect_time

    def _race_dual_stack(self, answer: VantageAnswer) -> Family | None:
        """What a real dual-stack client at this vantage would use."""
        result = self._he.connect(
            list(answer.v4_addresses),
            list(answer.v6_addresses),
            self.connectivity,
            v4_resolution_time=A_RESOLUTION_TIME,
            v6_resolution_time=answer.aaaa_time,
        )
        return result.used_family


def encode_block(
    round_index: int,
    day: int,
    vantage_index: int,
    country_index: int,
    results: list[ProbeResult],
    target_indices: np.ndarray,
) -> np.ndarray:
    """Encode one vantage's results for one round as frame rows."""
    block = np.empty(len(results), dtype=PROBE_DTYPE)
    block["round"] = round_index
    block["day"] = day
    block["vantage"] = vantage_index
    block["country"] = country_index
    block["target"] = target_indices
    for i, result in enumerate(results):
        row = block[i]
        row["rank"] = result.target.rank
        row["verdict"] = result.verdict.value
        row["aaaa"] = 1 if result.aaaa_present else 0
        row["synth"] = 1 if result.synthesized_aaaa else 0
        family = result.client_family
        row["client_family"] = 0 if family is None else family.value
        time = result.v6_connect_time
        row["connect_ms"] = np.nan if time is None else time * 1000.0
    return block
