"""Probe rounds: scheduling, fan-out, and assembly into a ProbeFrame.

A probe **round** visits every (vantage, target) pair once; rounds run
on a fixed schedule across the study window (every
``probe_interval_days`` days), which is what turns the binary
availability check into a longitudinal "takeoff" series.

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

from repro.net.addr import IpAddress
from repro.net.dns import DnsStatus, ZoneDatabase
from repro.observatory.frame import ProbeFrame
from repro.observatory.probe import ProbeTarget, Prober
from repro.observatory.resolver import VantageResolver
from repro.observatory.vantage import VantagePoint, build_vantage_fleet
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


#: The universe one probe run measures, shared by every vantage: the
#: zones (with the crawler's injected failures), the edge-outage set,
#: the target list, the round schedule, and the seed.  Shipped to worker
#: processes once per worker (pool initializer), not once per task --
#: at paper scale the zone database dwarfs everything else.
_ProbeUniverse = tuple[
    ZoneDatabase,
    dict[str, DnsStatus],
    frozenset[IpAddress],
    tuple[ProbeTarget, ...],
    dict[int, tuple[int, tuple[IpAddress, ...]]],  # adoption schedule
    tuple[int, ...],  # round day indices
    int,  # seed
]

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


def _probe_vantage(
    task: _VantageTask, universe: _ProbeUniverse
) -> list[np.ndarray]:
    """Run every round for one vantage point against the universe.

    Returns one encoded frame block per round.  All randomness comes
    from the ``(seed, "vantage:<name>")`` substream with one sub-stream
    per round, so the result is independent of which process (or in
    which order) the vantage runs.
    """
    vantage, vantage_index, country_index = task
    zones, forced_failures, unreachable, targets, schedule, round_days, seed = (
        universe
    )
    prober = Prober(
        vantage,
        VantageResolver.over(vantage, zones, forced_failures),
        unreachable=unreachable,
    )
    root = RngStream(seed, f"vantage:{vantage.name}")
    target_indices = np.arange(len(targets), dtype=np.int32)
    blocks: list[np.ndarray] = []
    for round_index, day in enumerate(round_days):
        rng = root.substream(f"round:{round_index}")
        results = []
        for target_index, target in enumerate(targets):
            adopted = schedule.get(target_index)
            overlay = (
                adopted[1]
                if adopted is not None and day >= adopted[0]
                else ()
            )
            results.append(prober.probe(target, rng, overlay))
        blocks.append(
            ProbeFrame.encode_block(
                round_index, day, vantage_index, country_index,
                results, target_indices,
            )
        )
    return blocks


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
        ecosystem.zones,
        ecosystem.resolver.forced_failures(),
        frozenset(ecosystem.connectivity.unreachable),
        targets,
        schedule,
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
