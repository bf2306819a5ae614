"""One probe's vocabulary: targets, verdicts, and the handshake oracle.

A probe is the classic binary availability check longitudinal
observatories run (resolve the target, open a connection over IPv6),
decided with :class:`repro.happyeyeballs.algorithm.HappyEyeballs` --
the *same* connection model the client traffic layer uses -- so the
availability verdicts and the flow-level usage numbers disagree for
modelled reasons, not implementation drift.

Each probe runs two races:

* a **v6-only** race (the availability check proper: can a connection be
  established over IPv6 at all from this vantage?), whose outcome
  becomes the :class:`ProbeVerdict`;
* a **dual-stack** race (what a real client at this vantage would do),
  whose winning family is recorded separately -- dual-stack clients
  behind a broken v6 path quietly use IPv4 while the binary check says
  "IPv6 available".

:mod:`repro.observatory.rounds` decides every probe of a (vantage,
round) block at once, as columns.  The one-probe model it is pinned
against lives with the tests (``tests/reference_models.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.net.addr import IpAddress
from repro.observatory.resolver import nat64_embedded_v4
from repro.observatory.vantage import NetworkPolicy, VantagePoint

#: Jitter applied to a vantage's median handshake latencies per probe.
LATENCY_JITTER_STD = 0.006
MIN_LATENCY = 0.004


class ProbeVerdict(enum.Enum):
    """Outcome of one (vantage, target) availability probe.

    The binary view prior work reports collapses this to
    ``verdict is V6_OK``; keeping the full taxonomy is what lets the
    per-policy artifacts show *why* the binary number moves.
    """

    #: IPv6 handshake completed and the path carried data.
    V6_OK = 0
    #: AAAA existed but every IPv6 connection attempt failed.
    V6_CONNECT_FAILED = 1
    #: The handshake completed but the path blackholed full-size packets.
    V6_PATH_BROKEN = 2
    #: The vantage has no IPv6 route at all (policy, not target).
    NO_V6_ROUTE = 3
    #: The name resolved but returned no usable AAAA.
    NO_AAAA = 4
    #: DNS failed outright (SERVFAIL / timeout on both families).
    RESOLVE_FAILED = 5
    #: The target does not exist (NXDOMAIN) -- dead top-list entry.
    TARGET_DOWN = 6


@dataclass(frozen=True)
class ProbeTarget:
    """One probe destination: a top-list site and the host to contact."""

    etld1: str
    host: str
    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("ranks are 1-based")


@dataclass
class PolicyConnectivity:
    """Handshake oracle for one vantage: policy + edge outages + latency.

    ``unreachable`` is the ecosystem's edge-outage set (TLS-failure
    sites), shared with the crawler so both measurement layers see the
    same broken edges.  NAT64-synthesized v6 addresses succeed iff their
    embedded IPv4 address is reachable -- the translator races the v4
    path on the probe's behalf.  ``_v4`` / ``_v6`` are the probe's
    jittered handshake latencies.
    """

    vantage: VantagePoint
    unreachable: frozenset[IpAddress]
    blocked_v6: bool = False
    _v4: float = field(default=0.032, repr=False)
    _v6: float = field(default=0.028, repr=False)

    def connect_latency(self, address: IpAddress) -> float | None:
        if not address.is_v6:
            return None if address in self.unreachable else self._v4
        if self.vantage.policy is NetworkPolicy.V4_ONLY:
            return None
        if self.blocked_v6:
            return None
        embedded = nat64_embedded_v4(address)
        if embedded is not None:
            # Translator handshake: v6 to the NAT64, v4 onward.
            return None if embedded in self.unreachable else self._v6
        return None if address in self.unreachable else self._v6
