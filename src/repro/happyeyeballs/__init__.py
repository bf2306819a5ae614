"""Happy Eyeballs Version 2 (RFC 8305) over a simulated network.

Dual-stack hosts pick between IPv4 and IPv6 with the Happy Eyeballs
algorithm, which the paper leans on throughout: it explains why dual-stack
clients mostly use IPv6 when a service offers it (section 3.2), why flow
counts overstate IPv4 (both families get SYNs even when one carries the
bytes), and why ~1 in 10 fully IPv6-capable page loads still ride IPv4
("Browser Used IPv4" in Figure 5).
"""

from repro.happyeyeballs.algorithm import (
    AttemptOutcome,
    ConnectionAttempt,
    Connectivity,
    HappyEyeballs,
    HappyEyeballsConfig,
    HappyEyeballsResult,
    StaticConnectivity,
    interleave_addresses,
    race_winners,
)

__all__ = [
    "AttemptOutcome",
    "ConnectionAttempt",
    "Connectivity",
    "HappyEyeballs",
    "HappyEyeballsConfig",
    "HappyEyeballsResult",
    "StaticConnectivity",
    "interleave_addresses",
    "race_winners",
]
