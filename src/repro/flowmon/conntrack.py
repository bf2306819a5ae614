"""Flow identity and final accounting: what a conntrack DESTROY carries.

The paper's monitor consumes Linux conntrack events.  A flow is
identified by its 5-tuple (protocol, source/destination address and
port); ICMP flows carry type, code, and id instead of ports.  Byte and
packet counters accumulate per direction while the flow lives
(``nf_conntrack_acct``), and the DESTROY event that ends the flow
(FIN/RST or idle timeout) carries the final counters: a
:class:`FlowRecord`.  The monitor logs only finished flows, so the
traffic generator writes them straight into its log and the records are
a projection of that log.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

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
