"""What a conntrack DESTROY carries, as the flow log stores it.

The paper's monitor consumes Linux conntrack events.  A flow is
identified by its 5-tuple (protocol, source/destination address and
port); ICMP flows carry type, code, and id instead of ports.  Byte and
packet counters accumulate per direction while the flow lives
(``nf_conntrack_acct``), and the DESTROY event that ends the flow
(FIN/RST or idle timeout) carries the final counters.  The monitor logs
only finished flows, so the traffic generator writes each one straight
into its log as one row (:data:`~repro.flowmon.monitor.LOG_DTYPE`).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class Protocol(enum.Enum):
    TCP = 6
    UDP = 17
    ICMP = 1


#: Bytes per packet in the :func:`default_packets` estimate.
PACKET_BYTES = 1400


def default_packets(byte_count: int | np.ndarray) -> int | np.ndarray:
    """Packets for a direction when only bytes are known: a rough
    bytes/1400 estimate, at least one packet if any byte moved.

    Takes one count or an integer array of them (elementwise), so the
    traffic generator's vectorized flows share this one definition.
    """
    return byte_count // PACKET_BYTES + ((0 < byte_count) & (byte_count < PACKET_BYTES))
