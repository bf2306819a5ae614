"""Connection tracking: flow table, NEW/DESTROY events, byte accounting.

Mirrors the Linux conntrack semantics the paper's monitor consumes:

* a flow is identified by its 5-tuple (protocol, source/destination address
  and port); ICMP flows carry type, code, and id instead of ports;
* a NEW event fires when the first packet of a flow is seen;
* byte and packet counters accumulate per direction while the flow lives
  (``nf_conntrack_acct``);
* a DESTROY event fires when the flow ends (FIN/RST or idle timeout) and
  carries the final counters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.net.addr import Family, IpAddress

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class Protocol(enum.Enum):
    TCP = 6
    UDP = 17
    ICMP = 1


@dataclass(frozen=True)
class IcmpInfo:
    """ICMP flow identity: type, code, and echo id (paper section 3.1)."""

    icmp_type: int
    icmp_code: int
    icmp_id: int

    def __post_init__(self) -> None:
        if not 0 <= self.icmp_type <= 255 or not 0 <= self.icmp_code <= 255:
            raise ValueError("ICMP type and code must fit in one byte")
        if not 0 <= self.icmp_id <= 0xFFFF:
            raise ValueError("ICMP id must fit in two bytes")


@dataclass(frozen=True)
class FlowKey:
    """A flow's identity: the 5-tuple, or protocol+addresses+ICMP info."""

    protocol: Protocol
    src: IpAddress
    dst: IpAddress
    sport: int = 0
    dport: int = 0
    icmp: IcmpInfo | None = None

    def __post_init__(self) -> None:
        if self.src.family is not self.dst.family:
            raise ValueError("flow endpoints must share an address family")
        if self.protocol is Protocol.ICMP:
            if self.icmp is None:
                raise ValueError("ICMP flows must carry IcmpInfo")
            if self.sport or self.dport:
                raise ValueError("ICMP flows have no ports")
        else:
            if self.icmp is not None:
                raise ValueError("only ICMP flows carry IcmpInfo")
            for port in (self.sport, self.dport):
                if not 0 <= port <= 0xFFFF:
                    raise ValueError(f"port {port} out of range")
        # Keys are hashed on every conntrack table operation (new /
        # account / destroy); precompute once instead of recursively
        # hashing the nested dataclasses per lookup.
        object.__setattr__(
            self,
            "_hash",
            hash((self.protocol.value, self.src, self.dst, self.sport, self.dport, self.icmp)),
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def family(self) -> Family:
        return self.src.family

    @property
    def is_v6(self) -> bool:
        return self.family is Family.V6


#: Bytes per packet in the :func:`default_packets` estimate.
PACKET_BYTES = 1400


def default_packets(byte_count: int | np.ndarray) -> int | np.ndarray:
    """Packets for a direction when only bytes are known: a rough
    bytes/1400 estimate, at least one packet if any byte moved.

    Takes one count or an integer array of them (elementwise), so the
    traffic generator's vectorized flows share this one definition.
    """
    return byte_count // PACKET_BYTES + ((0 < byte_count) & (byte_count < PACKET_BYTES))


class ConntrackEventType(enum.Enum):
    NEW = "NEW"
    DESTROY = "DESTROY"


@dataclass(frozen=True)
class FlowRecord:
    """The final accounting for one finished flow (DESTROY payload)."""

    key: FlowKey
    start_time: float
    end_time: float
    bytes_out: int
    bytes_in: int
    packets_out: int
    packets_in: int

    def __post_init__(self) -> None:
        if self.end_time < self.start_time:
            raise ValueError("flow cannot end before it starts")
        for count in (self.bytes_out, self.bytes_in, self.packets_out, self.packets_in):
            if count < 0:
                raise ValueError("counters cannot be negative")

    @property
    def total_bytes(self) -> int:
        return self.bytes_out + self.bytes_in

    @property
    def total_packets(self) -> int:
        return self.packets_out + self.packets_in

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


@dataclass(frozen=True)
class ConntrackEvent:
    """A conntrack event as delivered to listeners."""

    event_type: ConntrackEventType
    key: FlowKey
    timestamp: float
    record: FlowRecord | None = None  # populated for DESTROY


@dataclass
class _LiveFlow:
    key: FlowKey
    start_time: float
    bytes_out: int = 0
    bytes_in: int = 0
    packets_out: int = 0
    packets_in: int = 0


EventListener = Callable[[ConntrackEvent], None]


@dataclass
class ConntrackTable:
    """The kernel flow table: tracks live flows, emits NEW/DESTROY events."""

    _live: dict[FlowKey, _LiveFlow] = field(default_factory=dict)
    _listeners: list[EventListener] = field(default_factory=list)
    flows_created: int = 0
    flows_destroyed: int = 0

    def subscribe(self, listener: EventListener) -> None:
        """Register a listener for NEW and DESTROY events."""
        self._listeners.append(listener)

    def _emit(self, event: ConntrackEvent) -> None:
        for listener in self._listeners:
            listener(event)

    def new(self, key: FlowKey, timestamp: float) -> None:
        """Track a new flow; fires a NEW event.

        Raises:
            KeyError: if the flow is already being tracked (the kernel
                would treat further packets as updates, not a new flow).
        """
        if key in self._live:
            raise KeyError(f"flow already tracked: {key}")
        self._live[key] = _LiveFlow(key=key, start_time=timestamp)
        self.flows_created += 1
        self._emit(ConntrackEvent(ConntrackEventType.NEW, key, timestamp))

    def account(
        self,
        key: FlowKey,
        bytes_out: int = 0,
        bytes_in: int = 0,
        packets_out: int = 0,
        packets_in: int = 0,
    ) -> None:
        """Accumulate per-direction counters on a live flow."""
        flow = self._live.get(key)
        if flow is None:
            raise KeyError(f"flow not tracked: {key}")
        if min(bytes_out, bytes_in, packets_out, packets_in) < 0:
            raise ValueError("counters cannot decrease")
        flow.bytes_out += bytes_out
        flow.bytes_in += bytes_in
        flow.packets_out += packets_out
        flow.packets_in += packets_in

    def destroy(self, key: FlowKey, timestamp: float) -> FlowRecord:
        """End a flow; fires a DESTROY event carrying the final record."""
        flow = self._live.pop(key, None)
        if flow is None:
            raise KeyError(f"flow not tracked: {key}")
        if timestamp < flow.start_time:
            raise ValueError("flow cannot be destroyed before it started")
        record = FlowRecord(
            key=key,
            start_time=flow.start_time,
            end_time=timestamp,
            bytes_out=flow.bytes_out,
            bytes_in=flow.bytes_in,
            packets_out=flow.packets_out,
            packets_in=flow.packets_in,
        )
        self.flows_destroyed += 1
        self._emit(
            ConntrackEvent(ConntrackEventType.DESTROY, key, timestamp, record=record)
        )
        return record

    def observe_flow(
        self,
        key: FlowKey,
        start_time: float,
        end_time: float,
        bytes_out: int,
        bytes_in: int,
        packets_out: int | None = None,
        packets_in: int | None = None,
    ) -> FlowRecord:
        """Convenience: run a whole flow through NEW/account/DESTROY.

        Packet counts default to :func:`default_packets` of each
        direction's bytes.
        """
        if packets_out is None:
            packets_out = default_packets(bytes_out)
        if packets_in is None:
            packets_in = default_packets(bytes_in)
        self.new(key, start_time)
        self.account(
            key,
            bytes_out=bytes_out,
            bytes_in=bytes_in,
            packets_out=packets_out,
            packets_in=packets_in,
        )
        return self.destroy(key, end_time)

    @property
    def live_count(self) -> int:
        return len(self._live)

    def live_flows(self) -> list[FlowKey]:
        return list(self._live)
