"""Probe rounds: scheduling, fan-out, and assembly into a ProbeFrame.

A probe **round** visits every (vantage, target) pair once; rounds run
on a fixed schedule across the study window (every
``probe_interval_days`` days), which is what turns the binary
availability check into a longitudinal "takeoff" series.  Each target
is resolved once per run (:class:`AnswerTable`); each (vantage, round)
block then applies the vantage's policy to that table as columns.

The runner fans **vantage points** across a
:class:`~concurrent.futures.ProcessPoolExecutor`, the same pattern the
traffic generator uses for residences: every vantage draws from its own
seeded RNG substream (``(seed, "vantage:<name>")``, one sub-substream
per round), so the parallel and sequential paths produce bit-identical
:class:`~repro.observatory.frame.ProbeFrame`\\ s.  On pool failure the
runner warns once (:func:`repro.util.procpool.warn_pool_fallback`) and
runs inline.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.happyeyeballs.algorithm import NO_FAMILY, HappyEyeballs, race_winners
from repro.net.addr import Family, IpAddress
from repro.net.dns import DnsStatus
from repro.observatory.frame import PROBE_DTYPE, ProbeFrame
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
    nat64_embedded_v4,
    nat64_synthesize,
)
from repro.observatory.vantage import NetworkPolicy, VantagePoint, build_vantage_fleet
from repro.util.procpool import map_in_pool, resolve_worker_count
from repro.util.rng import RngStream, derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.web.ecosystem import WebEcosystem

#: Default probe budget: top-N sites of the universe per round.
DEFAULT_MAX_TARGETS = 500

#: Default round cadence across the study window.
DEFAULT_PROBE_INTERVAL_DAYS = 14

#: Share of probed targets that publish AAAA records *during* the study
#: window (uniformly spread adoption dates) -- what makes the takeoff
#: curve actually take off, mirroring the drift model the longitudinal
#: census re-crawls use.
DEFAULT_ADOPTION_DRIFT = 0.12

#: Address block the late adopters' new AAAA records point into.
_ADOPTION_PREFIX = 0x260000AD << 96


@dataclass(frozen=True)
class ObservatoryConfig:
    """Scale and cadence of one observatory run.

    ``num_days`` is the study window the rounds are scheduled across
    (normally the traffic study's window, so the takeoff series and the
    flow series share a time axis).
    """

    num_days: int = 154
    probe_interval_days: int = DEFAULT_PROBE_INTERVAL_DAYS
    max_targets: int = DEFAULT_MAX_TARGETS
    adoption_drift: float = DEFAULT_ADOPTION_DRIFT
    seed: int = 42
    parallel: bool | int | None = None

    def __post_init__(self) -> None:
        if self.num_days < 1:
            raise ValueError("num_days must be >= 1")
        if self.probe_interval_days < 1:
            raise ValueError("probe_interval_days must be >= 1")
        if self.max_targets < 1:
            raise ValueError("max_targets must be >= 1")
        if not 0.0 <= self.adoption_drift <= 1.0:
            raise ValueError("adoption_drift must be a probability")

    @property
    def round_days(self) -> tuple[int, ...]:
        """Day indices on which a round runs (always at least day 0)."""
        return tuple(range(0, self.num_days, self.probe_interval_days))


@dataclass
class ObservatoryStudy:
    """One observatory run: the fleet, its targets, and every probe."""

    config: ObservatoryConfig
    fleet: tuple[VantagePoint, ...]
    targets: tuple[ProbeTarget, ...]
    frame: ProbeFrame

    @property
    def num_rounds(self) -> int:
        return len(self.config.round_days)

    @property
    def countries(self) -> tuple[str, ...]:
        return self.frame.countries


def build_targets(
    ecosystem: "WebEcosystem", max_targets: int = DEFAULT_MAX_TARGETS
) -> tuple[ProbeTarget, ...]:
    """Probe targets from the existing site universe, in rank order.

    Live sites are probed at their main host (the ``www`` placement,
    where the AAAA lives -- probing the apex would measure the redirect,
    not the site); dead top-list entries are probed at the eTLD+1 and
    yield NXDOMAIN verdicts, exactly as a real observatory keeps probing
    list entries that no longer resolve.
    """
    targets: list[ProbeTarget] = []
    for entry in ecosystem.toplist.top(min(max_targets, len(ecosystem.toplist))):
        plan = ecosystem.plan_of(entry.etld1)
        host = plan.website.main_host if plan.website is not None else entry.etld1
        targets.append(ProbeTarget(etld1=entry.etld1, host=host, rank=entry.rank))
    return tuple(targets)


def adoption_schedule(
    targets: tuple[ProbeTarget, ...], config: ObservatoryConfig
) -> dict[int, tuple[int, tuple[IpAddress, ...]]]:
    """Mid-window AAAA publication dates: ``target index -> (day, addrs)``.

    A hash-based draw (seed and eTLD+1 only), not a probe-RNG draw, so
    the schedule is a stable property of the configuration: identical
    across rounds, vantage points, and the parallel/sequential runners.
    The target's new AAAA becomes visible to every probe from ``day``
    on -- *if* the target is live and still A-only then, which is
    decided at probe time.
    """
    schedule: dict[int, tuple[int, tuple[IpAddress, ...]]] = {}
    if config.adoption_drift <= 0.0:
        return schedule
    for index, target in enumerate(targets):
        draw = derive_seed(config.seed, f"adopt:{target.etld1}") / float(1 << 64)
        if draw >= config.adoption_drift:
            continue
        # Reuse the uniform draw's position within the accepted band as
        # the (uniform) adoption date inside the study window.
        day = int(draw / config.adoption_drift * config.num_days)
        address = IpAddress.v6(
            _ADOPTION_PREFIX
            | (derive_seed(config.seed, f"adopt-addr:{target.etld1}") & 0xFFFFFFFF)
        )
        schedule[index] = (day, (address,))
    return schedule


def fleet_country_codes(
    fleet: tuple[VantagePoint, ...],
) -> tuple[list[int], tuple[str, ...]]:
    """The single source of truth for country interning.

    Returns ``(per-vantage country code, interned country names)`` with
    codes in fleet first-appearance order; both the frame rows and the
    frame's ``countries`` naming table come from this one mapping.
    """
    ids: dict[str, int] = {}
    codes = [ids.setdefault(v.country, len(ids)) for v in fleet]
    return codes, tuple(ids)


@dataclass(frozen=True)
class AnswerTable:
    """Every target's answer, resolved once per run for every vantage:
    each resolves the same zones with the same injected failures, and
    its policy only shapes what it makes of the answer.

    Per target in rank order: the A, AAAA and adopted (published on
    ``adopt_day``) address lists, whether both queries were NXDOMAIN and
    whether the AAAA query was NOERROR (all a lossy resolver can lose),
    and per list (A, AAAA, adopted) its ``count`` of addresses and the
    index of its ``first`` reachable one (-1: none).
    """

    v4: tuple[tuple[IpAddress, ...], ...]
    v6: tuple[tuple[IpAddress, ...], ...]
    adopted: tuple[tuple[IpAddress, ...], ...]
    adopt_day: np.ndarray
    nxdomain: np.ndarray
    aaaa_noerror: np.ndarray
    count: np.ndarray
    first: np.ndarray
    unreachable: frozenset[IpAddress]

    @classmethod
    def resolve(
        cls,
        ecosystem: "WebEcosystem",
        targets: tuple[ProbeTarget, ...],
        schedule: dict[int, tuple[int, tuple[IpAddress, ...]]],
    ) -> "AnswerTable":
        """Resolve through a fresh resolver with the injected failures, so
        the ecosystem's own (its query counter too) stays untouched."""
        resolver = fresh_resolver(ecosystem.zones, ecosystem.resolver.forced_failures())
        unreachable = frozenset(ecosystem.connectivity.unreachable)
        noerror, nxdomain = DnsStatus.NOERROR, DnsStatus.NXDOMAIN
        answers = [resolver.resolve_addresses(t.host) for t in targets]
        v4 = tuple(a.addresses if a.status is noerror else () for a, _ in answers)
        v6 = tuple(q.addresses if q.status is noerror else () for _, q in answers)
        never = (np.iinfo(np.int32).max, ())
        adoptions = [schedule.get(index, never) for index in range(len(targets))]
        adopted = tuple(addresses for _, addresses in adoptions)
        lists = list(zip(v4, v6, adopted))
        # As PolicyConnectivity: a NAT64 address is as reachable as its IPv4.
        first = [
            [next((i for i, address in enumerate(addresses)
                   if (nat64_embedded_v4(address) or address) not in unreachable), -1)
             for addresses in row]
            for row in lists
        ]
        return cls(
            v4=v4, v6=v6, adopted=adopted,
            adopt_day=np.array([day for day, _ in adoptions], dtype=np.int64),
            nxdomain=np.array([a.status is q.status is nxdomain for a, q in answers], bool),
            aaaa_noerror=np.array([q.status is noerror for _, q in answers], bool),
            count=np.array([list(map(len, row)) for row in lists], np.int64).reshape(-1, 3),
            first=np.array(first, np.int64).reshape(-1, 3),
            unreachable=unreachable,
        )


#: The probes' connection engine: RFC 8305 defaults, as the prober's.
_HE = HappyEyeballs()

#: What every vantage's rounds read, shipped to worker processes once
#: per worker (pool initializer), not once per task: the answer table,
#: the targets' eTLD+1s (for policy blocks) and ranks, the round day
#: indices, and the seed.  No worker holds the zones.
_ProbeUniverse = tuple[AnswerTable, tuple[str, ...], np.ndarray, tuple[int, ...], int]

#: One vantage's workload: the vantage and its fleet/country indices.
_VantageTask = tuple[VantagePoint, int, int]

#: Per-worker universe, set by :func:`_init_probe_worker`.
_WORKER_UNIVERSE: _ProbeUniverse | None = None


def _init_probe_worker(universe: _ProbeUniverse) -> None:
    """Pool initializer: receive the shared universe once per worker."""
    global _WORKER_UNIVERSE
    _WORKER_UNIVERSE = universe


def _probe_vantage_in_worker(task: _VantageTask) -> list[np.ndarray]:
    """Worker entry: run every round for one vantage point."""
    assert _WORKER_UNIVERSE is not None, "pool initializer did not run"
    return _probe_vantage(task, _WORKER_UNIVERSE)


def _probe_vantage(task: _VantageTask, universe: _ProbeUniverse) -> list[np.ndarray]:
    """Run every round for one vantage point against the answer table.

    Returns one encoded frame block per round.  All randomness comes
    from the ``(seed, "vantage:<name>")`` substream with one sub-stream
    per round, so the result is independent of which process (or in
    which order) the vantage runs.
    """
    vantage, vantage_index, country_index = task
    table, etld1s, ranks, round_days, seed = universe
    blocked = np.array([vantage.blocks_target(etld1) for etld1 in etld1s], dtype=bool)
    root = RngStream(seed, f"vantage:{vantage.name}")
    blocks: list[np.ndarray] = []
    for round_index, day in enumerate(round_days):
        block = np.empty(len(etld1s), dtype=PROBE_DTYPE)
        block["round"] = round_index
        block["day"] = day
        block["vantage"] = vantage_index
        block["country"] = country_index
        block["target"] = np.arange(len(etld1s), dtype=np.int32)
        block["rank"] = ranks
        _decide_block(
            block, table, vantage, blocked, day,
            root.substream(f"round:{round_index}").generator(),
        )
        blocks.append(block)
    return blocks


def _decide_block(
    block: np.ndarray, table: AnswerTable, vantage: VantagePoint, blocked: np.ndarray,
    day: int, gen: np.random.Generator,
) -> None:
    """Decide one (vantage, round) block's probes, column by column.

    The draws come in the order a probe-by-probe round makes them: per
    target, a lossy resolver's loss coin (iff the AAAA query answered
    NOERROR), the v4 then the v6 latency jitter, and a broken-PMTU coin
    (iff the IPv6-only race connected).  Any other policy draws only
    jitter, all of it in one call.  Both races are decided in closed
    form; a row with more than one address in a family races address by
    address through :class:`HappyEyeballs`.
    """
    policy, n = vantage.policy, len(table.v4)
    lost, broken = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    jitter = np.empty((n, 2))
    if policy is NetworkPolicy.LOSSY_RESOLVER:
        for i in range(n):
            if table.aaaa_noerror[i]:
                lost[i] = gen.random() < min(1.0, max(0.0, vantage.aaaa_loss_rate))
            jitter[i] = gen.normal(0.0, LATENCY_JITTER_STD), gen.normal(0.0, LATENCY_JITTER_STD)

    # The vantage's view of the answer: a lost AAAA, the adopted AAAA
    # (once published, for a live target that still lacks one), DNS64.
    count4, count_real6, count_adopted = table.count.T
    first4, first_real6, first_adopted = table.first.T
    has4, real6 = count4 > 0, (count_real6 > 0) & ~lost
    adopted = (table.adopt_day <= day) & ~real6 & has4 & ~lost
    synth = (policy is NetworkPolicy.NAT64) & ~real6 & ~adopted & has4
    has6 = real6 | adopted | synth
    count6 = np.select([real6, adopted, synth], [count_real6, count_adopted, count4], 0)
    first6 = np.select([real6, adopted, synth], [first_real6, first_adopted, first4], -1)
    first6[blocked | (policy is NetworkPolicy.V4_ONLY)] = -1
    r6 = np.where(synth, A_RESOLUTION_TIME + DNS64_SYNTHESIS_DELAY, AAAA_RESOLUTION_TIME)
    # The IPv6-only race: every address shares the probe's latency, so
    # the first reachable one wins if it completes before the deadline.
    timeout = _HE.config.overall_timeout
    start6, deadline6 = r6 + first6 * _HE.config.attempt_delay, r6 + timeout

    if policy is NetworkPolicy.BROKEN_PMTU:
        for i in range(n):
            jitter[i] = gen.normal(0.0, LATENCY_JITTER_STD), gen.normal(0.0, LATENCY_JITTER_STD)
            lat6 = max(MIN_LATENCY, vantage.v6_latency + jitter[i, 1])
            if first6[i] >= 0 and start6[i] + lat6 <= deadline6[i]:
                broken[i] = gen.random() < min(1.0, max(0.0, vantage.pmtu_blackhole_rate))
    elif policy is not NetworkPolicy.LOSSY_RESOLVER:
        jitter = gen.normal(0.0, LATENCY_JITTER_STD, size=(n, 2))
    lat4 = np.maximum(MIN_LATENCY, vantage.v4_latency + jitter[:, 0])
    lat6 = np.maximum(MIN_LATENCY, vantage.v6_latency + jitter[:, 1])
    end6 = start6 + lat6
    connected = (first6 >= 0) & (end6 <= deadline6)

    exists, v4_only = has4 | has6, np.full(n, policy is NetworkPolicy.V4_ONLY)
    verdicts = [ProbeVerdict.TARGET_DOWN, ProbeVerdict.RESOLVE_FAILED, ProbeVerdict.NO_AAAA,
                ProbeVerdict.NO_V6_ROUTE, ProbeVerdict.V6_CONNECT_FAILED,
                ProbeVerdict.V6_PATH_BROKEN]
    block["verdict"] = np.select(
        [~exists & table.nxdomain, ~exists, ~has6, v4_only, ~connected, broken],
        [verdict.value for verdict in verdicts], ProbeVerdict.V6_OK.value,
    )
    block["aaaa"], block["synth"] = has6, synth
    block["connect_ms"] = np.where(connected, end6 * 1000.0, np.nan)

    # The dual-stack race.  race_winners starts it at the AAAA answer (due within the
    # resolution delay of the A answer), but connect starts a lone A's at the A answer.
    family = race_winners(
        np.where(first4 >= 0, lat4, np.inf), np.where(first6 >= 0, lat6, np.inf), r6,
        v4_resolution_time=A_RESOLUTION_TIME,
    )
    lone4 = has4 & ~has6
    family[lone4] = np.where(
        (first4 >= 0) & (A_RESOLUTION_TIME + lat4 <= A_RESOLUTION_TIME + timeout),
        Family.V4.value, NO_FAMILY,
    )[lone4]
    for i in np.flatnonzero((count4 > 1) | (count6 > 1)):
        v6 = (table.v6[i] if real6[i] else table.adopted[i] if adopted[i]
              else tuple(map(nat64_synthesize, table.v4[i])) if synth[i] else ())
        connectivity = PolicyConnectivity(
            vantage, table.unreachable, blocked_v6=bool(blocked[i]),
            _v4=float(lat4[i]), _v6=float(lat6[i]),
        )
        winner = _HE.connect(
            list(table.v4[i]), list(v6), connectivity,
            v4_resolution_time=A_RESOLUTION_TIME, v6_resolution_time=float(r6[i]),
        ).used_family
        family[i] = NO_FAMILY if winner is None else winner.value
    block["client_family"] = family


def run_observatory(
    ecosystem: "WebEcosystem",
    config: ObservatoryConfig | None = None,
    fleet: tuple[VantagePoint, ...] | None = None,
    published: Mapping[str, IpAddress] | None = None,
) -> ObservatoryStudy:
    """Run every probe round of the study window against ``ecosystem``.

    The ecosystem supplies the ground truth the probes measure: the
    authoritative zones (plus the crawler's injected DNS failures) and
    the edge-outage set, so the observatory and the census disagree only
    for *modelled* reasons (vantage policy), never because they looked
    at different universes.

    ``fleet`` replaces the default per-country vantage fleet -- the
    what-if overlays hand in policy-transformed fleets (a country
    deploying NAT64, a policy firewall) without rebuilding anything
    else.

    ``published`` holds a census what-if's AAAA records (``{fqdn:
    address}``), absent from the zones: a published host answers AAAA
    from day 0, as an authoritative record (suppressing any adoption).
    """
    config = config or ObservatoryConfig()
    if fleet is None:
        fleet = build_vantage_fleet()
    targets = build_targets(ecosystem, config.max_targets)
    schedule = adoption_schedule(targets, config)
    for index, target in enumerate(targets):
        if published and target.host in published:
            schedule[index] = (0, (published[target.host],))
    universe: _ProbeUniverse = (
        AnswerTable.resolve(ecosystem, targets, schedule),
        tuple(t.etld1 for t in targets),
        np.array([t.rank for t in targets], dtype=np.int32),
        config.round_days,
        config.seed,
    )
    round_days = config.round_days

    country_codes, countries = fleet_country_codes(fleet)
    tasks: list[_VantageTask] = [
        (vantage, index, country_index)
        for (index, vantage), country_index in zip(
            enumerate(fleet), country_codes
        )
    ]

    workers = resolve_worker_count(config.parallel, len(fleet))
    per_vantage = map_in_pool(
        _probe_vantage_in_worker, tasks, workers, "observatory probe rounds",
        initializer=_init_probe_worker, initargs=(universe,),
    )
    if per_vantage is None:
        per_vantage = [_probe_vantage(task, universe) for task in tasks]

    # Canonical order: round-major, then fleet order.
    blocks = [
        per_vantage[vantage_index][round_index]
        for round_index in range(len(round_days))
        for vantage_index in range(len(fleet))
    ]
    frame = ProbeFrame.assemble(
        tuple(v.name for v in fleet),
        countries,
        tuple(t.etld1 for t in targets),
        blocks,
    )
    return ObservatoryStudy(
        config=config, fleet=fleet, targets=targets, frame=frame
    )
