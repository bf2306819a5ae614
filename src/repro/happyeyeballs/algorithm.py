"""The Happy Eyeballs v2 connection algorithm (RFC 8305).

The implementation follows the RFC's structure:

* **Resolution delay** (section 3): the client queries AAAA and A in
  parallel; if the A answer arrives first it waits up to
  ``resolution_delay`` (default 50 ms) for the AAAA answer before starting
  connections, to give IPv6 its head start.
* **Address sorting** (section 4): candidate addresses are interleaved by
  family, starting with ``first_address_family_count`` addresses of the
  preferred family (IPv6 by default).
* **Staggered connection attempts** (section 5): one attempt starts every
  ``attempt_delay`` (default 250 ms) until some attempt completes the
  handshake.  The first completed handshake wins; attempts still in flight
  are cancelled.

Because attempts are cancelled *after* their SYN left the host, a
cancelled IPv4 attempt still shows up as a flow at the router -- exactly
the effect the paper blames for flow counts overstating IPv4 use
(section 3.2: "Happy Eyeballs may result in both IPv4 and IPv6 flows being
recorded, even when nearly all bytes are sent over just one").

:class:`HappyEyeballs` races one connection at a time, with every attempt
it made.  :func:`race_winners` is its closed form for the case the
residential traffic needs -- one address per family, only the winning
family -- over whole arrays of connections at once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from repro.net.addr import Family, IpAddress

#: RFC 8305 recommended timer values, in seconds.
DEFAULT_RESOLUTION_DELAY = 0.050
DEFAULT_ATTEMPT_DELAY = 0.250
DEFAULT_FIRST_FAMILY_COUNT = 1

#: Give up entirely after this long without any successful handshake.
DEFAULT_OVERALL_TIMEOUT = 10.0

#: When the A answer arrives, relative to query start, unless told otherwise.
DEFAULT_RESOLUTION_TIME = 0.010

#: :func:`race_winners`' code for "no attempt completed in time".
NO_FAMILY = 0


class Connectivity(Protocol):
    """Answers "how long does a handshake to this address take?".

    Implementations return the handshake latency in seconds, or ``None``
    when the address is unreachable (SYN lost / RST / filtered).
    """

    def connect_latency(self, address: IpAddress) -> float | None:
        """Latency of a successful handshake, or None if unreachable."""
        ...  # pragma: no cover - protocol


@dataclass
class StaticConnectivity:
    """Table-driven connectivity: address -> latency or unreachable.

    ``default_latency`` applies to addresses not listed; ``None`` makes
    unlisted addresses unreachable.
    """

    latencies: dict[IpAddress, float | None] = field(default_factory=dict)
    default_latency: float | None = 0.030

    def connect_latency(self, address: IpAddress) -> float | None:
        if address in self.latencies:
            return self.latencies[address]
        return self.default_latency


@dataclass(frozen=True)
class HappyEyeballsConfig:
    """Tunable RFC 8305 knobs.

    The ablation bench sweeps these to show how the timers shape the
    "Browser Used IPv4" population in Figure 5.
    """

    resolution_delay: float = DEFAULT_RESOLUTION_DELAY
    attempt_delay: float = DEFAULT_ATTEMPT_DELAY
    first_address_family_count: int = DEFAULT_FIRST_FAMILY_COUNT
    preferred_family: Family = Family.V6
    overall_timeout: float = DEFAULT_OVERALL_TIMEOUT

    def __post_init__(self) -> None:
        if self.resolution_delay < 0 or self.attempt_delay <= 0:
            raise ValueError("delays must be non-negative (attempt delay positive)")
        if self.first_address_family_count < 1:
            raise ValueError("first_address_family_count must be >= 1")
        if self.overall_timeout <= 0:
            raise ValueError("overall_timeout must be positive")


class AttemptOutcome(enum.Enum):
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass(frozen=True)
class ConnectionAttempt:
    """One staggered connection attempt and its fate."""

    address: IpAddress
    start_time: float
    end_time: float
    outcome: AttemptOutcome

    @property
    def family(self) -> Family:
        return self.address.family


@dataclass(frozen=True)
class HappyEyeballsResult:
    """Outcome of one Happy Eyeballs connection establishment.

    Attributes:
        winner: the attempt that completed first, or ``None`` if all failed.
        attempts: every attempt that sent a SYN, in start order.  Cancelled
            and failed attempts still produced observable flows.
        connect_time: seconds from the *start of resolution* to the winning
            handshake (None if no winner).
    """

    winner: ConnectionAttempt | None
    attempts: tuple[ConnectionAttempt, ...]
    connect_time: float | None

    @property
    def connected(self) -> bool:
        return self.winner is not None

    @property
    def used_family(self) -> Family | None:
        return self.winner.family if self.winner else None

    def attempted_families(self) -> set[Family]:
        return {attempt.family for attempt in self.attempts}


def interleave_addresses(
    v4_addresses: Sequence[IpAddress],
    v6_addresses: Sequence[IpAddress],
    preferred_family: Family = Family.V6,
    first_address_family_count: int = DEFAULT_FIRST_FAMILY_COUNT,
) -> list[IpAddress]:
    """RFC 8305 section 4 address ordering.

    Starts with ``first_address_family_count`` addresses of the preferred
    family, then alternates families, draining whichever list remains.
    """
    preferred = list(v6_addresses if preferred_family is Family.V6 else v4_addresses)
    other = list(v4_addresses if preferred_family is Family.V6 else v6_addresses)
    ordered: list[IpAddress] = []
    ordered.extend(preferred[:first_address_family_count])
    preferred = preferred[first_address_family_count:]
    take_other = True
    while preferred or other:
        source = other if (take_other and other) else preferred
        if not source:
            source = other
        ordered.append(source.pop(0))
        take_other = not take_other
    return ordered


class HappyEyeballs:
    """The connection racing engine."""

    def __init__(self, config: HappyEyeballsConfig | None = None) -> None:
        self.config = config or HappyEyeballsConfig()

    def connect(
        self,
        v4_addresses: Sequence[IpAddress],
        v6_addresses: Sequence[IpAddress],
        connectivity: Connectivity,
        v4_resolution_time: float = DEFAULT_RESOLUTION_TIME,
        v6_resolution_time: float = DEFAULT_RESOLUTION_TIME,
    ) -> HappyEyeballsResult:
        """Race connections to the resolved addresses.

        Args:
            v4_addresses / v6_addresses: resolver answers per family
                (either may be empty).
            connectivity: handshake latency oracle.
            v4_resolution_time / v6_resolution_time: when each DNS answer
                arrived, relative to query start.  Models the RFC's
                resolution-delay behaviour: a late AAAA can forfeit IPv6's
                head start even on a dual-stack site.

        Returns:
            A :class:`HappyEyeballsResult`; time 0 is the moment both
            queries were sent.
        """
        cfg = self.config
        if not v4_addresses and not v6_addresses:
            return HappyEyeballsResult(winner=None, attempts=(), connect_time=None)

        start_time = self._connection_start_time(
            bool(v4_addresses), bool(v6_addresses), v4_resolution_time, v6_resolution_time
        )
        ordered = self._order_addresses(
            v4_addresses, v6_addresses, v4_resolution_time, v6_resolution_time, start_time
        )

        # Schedule staggered attempts; attempt i starts at
        # start_time + i * attempt_delay unless an earlier attempt has
        # already completed by then.  An attempt can never start before its
        # family's DNS answer arrived.
        planned: list[tuple[float, IpAddress]] = []
        for i, address in enumerate(ordered):
            resolved_at = (
                v6_resolution_time if address.family is Family.V6 else v4_resolution_time
            )
            planned.append((max(start_time + i * cfg.attempt_delay, resolved_at), address))

        winner_end: float | None = None
        winner_index: int | None = None
        completions: list[tuple[float, AttemptOutcome]] = []
        for index, (attempt_start, address) in enumerate(planned):
            latency = connectivity.connect_latency(address)
            if latency is None:
                # A failed attempt "ends" when the stack gives up on it; we
                # model that as one attempt_delay of silence.
                completions.append((attempt_start + cfg.attempt_delay, AttemptOutcome.FAILED))
                continue
            end = attempt_start + latency
            completions.append((end, AttemptOutcome.SUCCEEDED))
            if end <= start_time + cfg.overall_timeout and (
                winner_end is None or end < winner_end
            ):
                winner_end = end
                winner_index = index

        attempts: list[ConnectionAttempt] = []
        for index, ((attempt_start, address), (end, outcome)) in enumerate(
            zip(planned, completions)
        ):
            if winner_end is not None and attempt_start >= winner_end:
                continue  # never started: the race was already over
            if winner_end is not None and index != winner_index:
                if outcome is AttemptOutcome.SUCCEEDED and end > winner_end:
                    outcome = AttemptOutcome.CANCELLED
                    end = winner_end
                elif outcome is AttemptOutcome.FAILED and end > winner_end:
                    outcome = AttemptOutcome.CANCELLED
                    end = winner_end
            attempts.append(
                ConnectionAttempt(
                    address=address, start_time=attempt_start, end_time=end, outcome=outcome
                )
            )

        winner = attempts[winner_index] if winner_index is not None else None
        # Keep only attempts that actually started (list already filtered),
        # preserving start order.
        attempts.sort(key=lambda a: a.start_time)
        if winner is not None and winner not in attempts:  # pragma: no cover
            raise AssertionError("winner must be among started attempts")
        return HappyEyeballsResult(
            winner=winner,
            attempts=tuple(attempts),
            connect_time=None if winner_end is None else winner_end,
        )

    def _connection_start_time(
        self,
        have_v4: bool,
        have_v6: bool,
        v4_resolution_time: float,
        v6_resolution_time: float,
    ) -> float:
        """When the first connection attempt may start (RFC 8305 section 3)."""
        if have_v6 and not have_v4:
            return v6_resolution_time
        if have_v4 and not have_v6:
            return v4_resolution_time
        if v6_resolution_time <= v4_resolution_time:
            # Preferred answer in hand first: start immediately.
            return v6_resolution_time
        # A first: wait for AAAA up to the resolution delay.
        return min(v6_resolution_time, v4_resolution_time + self.config.resolution_delay)

    def _order_addresses(
        self,
        v4_addresses: Sequence[IpAddress],
        v6_addresses: Sequence[IpAddress],
        v4_resolution_time: float,
        v6_resolution_time: float,
        start_time: float,
    ) -> list[IpAddress]:
        """Sorted candidate list, accounting for late-arriving answers.

        If the AAAA answer had not arrived by the time attempts start (the
        resolution delay expired), the v6 addresses are not yet known and
        IPv4 leads despite the preference.
        """
        cfg = self.config
        v6_known = v6_resolution_time <= start_time
        v4_known = v4_resolution_time <= start_time
        if v6_known and v4_known:
            return interleave_addresses(
                v4_addresses, v6_addresses, cfg.preferred_family,
                cfg.first_address_family_count,
            )
        if v6_known:
            return interleave_addresses(
                [], v6_addresses, cfg.preferred_family, cfg.first_address_family_count
            ) + list(v4_addresses)
        return interleave_addresses(
            v4_addresses, [], Family.V4, cfg.first_address_family_count
        ) + list(v6_addresses)


def race_winners(
    v4_latency: np.ndarray,
    v6_latency: np.ndarray,
    v6_resolution_time: np.ndarray,
    config: HappyEyeballsConfig | None = None,
    v4_resolution_time: float = DEFAULT_RESOLUTION_TIME,
) -> np.ndarray:
    """The winning family of many one-address-per-family races at once.

    The closed form of :meth:`HappyEyeballs.connect` when each family
    resolved to exactly one reachable address: attempts start when
    connect's schedule starts them, the earlier completion wins (the
    first attempt on a tie), and a completion after ``overall_timeout``
    counts for nothing.  With a single address per family the
    interleaving never depends on ``first_address_family_count``.

    Args:
        v4_latency / v6_latency: each connection's handshake latencies.
        v6_resolution_time: when each connection's AAAA answer arrived.
        config: the timers (``None`` keeps the RFC 8305 defaults).
        v4_resolution_time: when the A answers arrived.

    Returns:
        An ``int8`` array of :class:`Family` values (4 or 6), with
        :data:`NO_FAMILY` where no attempt completed in time.
    """
    cfg = config or HappyEyeballsConfig()
    v4_latency = np.asarray(v4_latency, dtype=np.float64)
    v6_latency = np.asarray(v6_latency, dtype=np.float64)
    r6 = np.asarray(v6_resolution_time, dtype=np.float64)
    r4 = v4_resolution_time
    # Section 3: an AAAA in hand first starts the race at once; after
    # the A answer, the race waits up to the resolution delay for it.
    start = np.where(r6 <= r4, r6, np.minimum(r6, r4 + cfg.resolution_delay))
    # Section 4: a family whose answer is still missing at the start
    # goes second; with both known, the preferred family leads.
    both_known = (r6 <= start) & (r4 <= start)
    v6_first = (r6 < r4) | (both_known & (cfg.preferred_family is Family.V6))
    # Section 5: the second attempt waits one attempt delay, and no
    # attempt starts before its family's answer arrived.
    first_end = np.maximum(start, np.where(v6_first, r6, r4)) + np.where(
        v6_first, v6_latency, v4_latency
    )
    second_end = np.maximum(start + cfg.attempt_delay, np.where(v6_first, r4, r6)) + (
        np.where(v6_first, v4_latency, v6_latency)
    )
    deadline = start + cfg.overall_timeout
    first_ok = first_end <= deadline
    second_ok = second_end <= deadline
    second_wins = second_ok & (~first_ok | (second_end < first_end))
    v6_wins = np.where(second_wins, ~v6_first, v6_first)
    winner = np.where(v6_wins, Family.V6.value, Family.V4.value).astype(np.int8)
    winner[~(first_ok | second_ok)] = NO_FAMILY
    return winner
