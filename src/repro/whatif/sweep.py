"""The sweep runner: intervention grids fanned into a DeltaFrame.

A sweep runs every scenario of a grid as an
:class:`~repro.whatif.overlay.OverlayStudy` against one baseline and
encodes, per scenario and country, the three signals the paper refuses
to collapse -- **availability** (the observatory's binary final-round
answer), **readiness** (the census's IPv6-full share of the probed
sites), **usage** (the traffic study's external IPv6 byte fraction) --
as baseline/overlay/delta triples in a columnar :class:`DeltaFrame`
(NumPy structured array with interned scenario/country tables, the
``FlowFrame``/``ProbeFrame`` idiom).

Scenarios fan out over :mod:`repro.util.procpool` like residences and
vantage points do.  Workers receive the baseline universes **once per
worker** through the pool initializer, as ``{layer: {study.key(layer):
study.layer(layer)}}``, and seed their process cache with them
(:func:`repro.api.session.prime_caches`).  An overlay derives the same
keys for every layer its scenario leaves alone, so a parallel sweep,
like a sequential one, rebuilds only the layers each scenario
perturbs.  Every signal is a deterministic function of (config,
scenario) and blocks are reassembled in grid order, so the parallel
and sequential paths are bit-identical.

A worker never *touches* a baseline layer the scenario leaves alone:
unperturbed readiness and usage come from the parent's
:class:`BaselineSignals` snapshot.  The baseline traffic study -- by
far the largest universe -- ships to the workers only when the grid
perturbs traffic: a traffic overlay re-races the baseline's recorded
draws (:mod:`repro.whatif.overlay`), so without it every worker would
regenerate the baseline first.

Each scenario runs inside a ``sweep:<spec>`` span, under which its
overlay's ``build:<layer>`` spans nest (worker-side spans stay in the
worker).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.api.session import Study, StudyConfig, prime_caches
from repro.telemetry import span
from repro.util.procpool import map_in_pool, resolve_worker_count
from repro.whatif.overlay import OverlayStudy
from repro.whatif.spec import Scenario, as_scenario, default_sweep_grid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crawler.records import CrawlDataset
    from repro.observatory.rounds import ObservatoryStudy

#: The columnar delta layout: one row per (scenario, country), each
#: signal as a (baseline, overlay, delta) triple.
DELTA_DTYPE = np.dtype(
    [
        ("scenario", np.int16),
        ("country", np.int16),
        ("base_availability", np.float64),
        ("availability", np.float64),
        ("d_availability", np.float64),
        ("base_readiness", np.float64),
        ("readiness", np.float64),
        ("d_readiness", np.float64),
        ("base_usage", np.float64),
        ("usage", np.float64),
        ("d_usage", np.float64),
    ]
)


@dataclass
class DeltaFrame:
    """All scenario deltas of one sweep, as parallel columns.

    Attributes:
        data: the structured array (:data:`DELTA_DTYPE`), one row per
            (scenario, country), scenario-major in grid order.
        scenarios: interned scenario spec strings, in grid order.
        countries: interned country codes, in fleet first-appearance
            order (matching the baseline observatory's interning).
    """

    data: np.ndarray
    scenarios: tuple[str, ...] = ()
    countries: tuple[str, ...] = ()

    @classmethod
    def assemble(
        cls,
        scenarios: tuple[str, ...],
        countries: tuple[str, ...],
        blocks: Iterable[np.ndarray],
    ) -> "DeltaFrame":
        parts = list(blocks)
        data = np.concatenate(parts) if parts else np.empty(0, dtype=DELTA_DTYPE)
        return cls(data=data, scenarios=scenarios, countries=countries)

    def __len__(self) -> int:
        return int(self.data.size)

    @property
    def scenario(self) -> np.ndarray:
        return self.data["scenario"]

    @property
    def country(self) -> np.ndarray:
        return self.data["country"]

    @property
    def d_availability(self) -> np.ndarray:
        return self.data["d_availability"]

    @property
    def d_readiness(self) -> np.ndarray:
        return self.data["d_readiness"]

    @property
    def d_usage(self) -> np.ndarray:
        return self.data["d_usage"]

    def select(
        self, scenario: str | None = None, country: str | None = None
    ) -> "DeltaFrame":
        """A filtered view sharing this frame's interning tables."""
        mask = np.ones(self.data.size, dtype=bool)
        if scenario is not None:
            mask &= self.data["scenario"] == self.scenarios.index(scenario)
        if country is not None:
            mask &= self.data["country"] == self.countries.index(country)
        return DeltaFrame(
            data=self.data[mask],
            scenarios=self.scenarios,
            countries=self.countries,
        )


@dataclass(frozen=True)
class BaselineSignals:
    """The baseline world's three signals, snapshotted once per sweep.

    ``availability`` is per country (final probe round); ``readiness``
    and ``usage`` are the global census/traffic truths every country
    row shares (exactly as in the ``contrast`` artifact).
    """

    countries: tuple[str, ...]
    availability: tuple[float, ...]
    readiness: float
    usage: float


@dataclass
class WhatifSweep:
    """One finished sweep: the grid, the deltas, and the baseline."""

    scenarios: tuple[Scenario, ...]
    frame: DeltaFrame
    baseline: BaselineSignals

    @property
    def num_scenarios(self) -> int:
        return len(self.scenarios)


# -- signal extraction -------------------------------------------------------


def availability_by_country(obs: "ObservatoryStudy") -> np.ndarray:
    """Final-round per-country available share, aligned to ``obs.countries``.

    Delegates to :func:`repro.observatory.analysis.
    final_round_availability` -- the *same* definition the ``contrast``
    artifact renders, so a baseline row and its overlay delta can never
    disagree about what "availability" means.
    """
    from repro.observatory.analysis import final_round_availability

    return final_round_availability(obs)


def census_full_share(dataset: "CrawlDataset", probed: set[str]) -> float:
    """IPv6-full share among the probed, classified census sites.

    The readiness signal of the deltas: the ``contrast`` artifact's
    "graded: full" column (shared definition).
    """
    from repro.observatory.analysis import census_readiness_shares

    return census_readiness_shares(dataset, probed)[0]


def compute_baseline_signals(study: Study) -> BaselineSignals:
    """Snapshot the baseline's three signals (builds its layers)."""
    from repro.observatory.analysis import traffic_v6_byte_fraction

    obs = study.observatory
    probed = {target.etld1 for target in obs.targets}
    return BaselineSignals(
        countries=obs.countries,
        availability=tuple(float(v) for v in availability_by_country(obs)),
        readiness=census_full_share(study.census.dataset, probed),
        usage=traffic_v6_byte_fraction(study.traffic),
    )


def scenario_block(
    config: StudyConfig,
    scenario_index: int,
    scenario: Scenario,
    baseline: BaselineSignals,
) -> np.ndarray:
    """One scenario's DeltaFrame rows (runs the overlay).

    Touches only the layers the scenario perturbs: unperturbed
    readiness and usage are copied from the baseline snapshot rather
    than read through the (possibly absent) baseline universes, so the
    same code runs in the parent and in initializer-primed workers.
    """
    from repro.observatory.analysis import traffic_v6_byte_fraction

    with span(f"sweep:{scenario.spec()}"):
        overlay = OverlayStudy(config, scenario)
        obs = overlay.observatory
        if obs.countries != baseline.countries:  # pragma: no cover - guarded by spec
            raise ValueError(
                f"scenario {scenario.spec()!r} changed the fleet's countries: "
                f"{obs.countries} != {baseline.countries}"
            )
        availability = availability_by_country(obs)
        if "census" in overlay.perturbed:
            probed = {target.etld1 for target in obs.targets}
            readiness = census_full_share(overlay.census.dataset, probed)
        else:
            readiness = baseline.readiness
        if "traffic" in overlay.perturbed:
            usage = traffic_v6_byte_fraction(overlay.traffic)
        else:
            usage = baseline.usage

    n = len(baseline.countries)
    block = np.empty(n, dtype=DELTA_DTYPE)
    block["scenario"] = scenario_index
    block["country"] = np.arange(n, dtype=np.int16)
    block["base_availability"] = baseline.availability
    block["availability"] = availability
    block["d_availability"] = availability - np.asarray(baseline.availability)
    block["base_readiness"] = baseline.readiness
    block["readiness"] = readiness
    block["d_readiness"] = readiness - baseline.readiness
    block["base_usage"] = baseline.usage
    block["usage"] = usage
    block["d_usage"] = usage - baseline.usage
    return block


# -- the parallel fan-out ----------------------------------------------------

#: What every sweep worker receives once (pool initializer): the
#: baseline config, the cache entries to prime (census + observatory,
#: plus the traffic study when the grid perturbs traffic), and the
#: baseline signal snapshot.
_SweepUniverse = tuple[StudyConfig, dict, BaselineSignals]

_WORKER_UNIVERSE: _SweepUniverse | None = None


def _init_sweep_worker(universe: _SweepUniverse) -> None:
    """Pool initializer: prime this worker's caches with the baseline."""
    global _WORKER_UNIVERSE
    _WORKER_UNIVERSE = universe
    prime_caches(universe[1])


def _sweep_scenario_in_worker(task: tuple[int, str]) -> np.ndarray:
    """Worker entry: run one scenario against the primed baseline."""
    from repro.whatif.spec import parse_scenario

    assert _WORKER_UNIVERSE is not None, "pool initializer did not run"
    config, _entries, baseline = _WORKER_UNIVERSE
    index, spec = task
    # One scenario per worker already saturates the pool; nested pools
    # inside overlay rebuilds would only thrash.  ``parallel`` does not
    # key the caches, so the primed entries still match.
    config = config.replace(parallel=False)
    return scenario_block(config, index, parse_scenario(spec), baseline)


def run_sweep(
    baseline: Study | StudyConfig,
    scenarios: Sequence[Scenario | str] | None = None,
    parallel: bool | int | None = None,
) -> WhatifSweep:
    """Run an intervention grid and assemble the :class:`DeltaFrame`.

    Args:
        baseline: the world every scenario forks from (a bare config
            builds a fresh baseline study first).
        scenarios: the grid; ``None`` runs
            :func:`~repro.whatif.spec.default_sweep_grid`.
        parallel: scenario fan-out across worker processes, with the
            usual contract (``None`` auto-detects, ``False`` forces
            sequential, results bit-identical either way).
    """
    study = baseline if isinstance(baseline, Study) else Study(baseline)
    grid = tuple(
        as_scenario(s) for s in (scenarios if scenarios is not None else default_sweep_grid())
    )
    if not grid:
        raise ValueError("a sweep needs at least one scenario")

    signals = compute_baseline_signals(study)
    config = study.config

    tasks = [(index, scenario.spec()) for index, scenario in enumerate(grid)]
    workers = resolve_worker_count(parallel, len(tasks))
    blocks: list[np.ndarray] | None = None
    if workers > 1:
        shipped = ["census", "observatory"]
        if any("traffic" in scenario.layers() for scenario in grid):
            shipped.append("traffic")
        entries = {name: {study.key(name): study.layer(name)} for name in shipped}
        blocks = map_in_pool(
            _sweep_scenario_in_worker,
            tasks,
            workers,
            "whatif sweep",
            initializer=_init_sweep_worker,
            initargs=((config, entries, signals),),
        )
    if blocks is None:
        blocks = [
            scenario_block(config, index, scenario, signals)
            for index, scenario in enumerate(grid)
        ]

    frame = DeltaFrame.assemble(
        tuple(scenario.spec() for scenario in grid),
        signals.countries,
        blocks,
    )
    return WhatifSweep(scenarios=grid, frame=frame, baseline=signals)


def sweep_grid(
    base: Sequence[Scenario | str], pairs: bool = True
) -> tuple[Scenario, ...]:
    """Expand base interventions into a combination grid.

    Every base scenario runs alone; with ``pairs`` (the default), every
    unordered pair of *distinct* base scenarios also runs as one
    composed scenario (interventions concatenated in grid order) --
    ``--sweep`` on the CLI.
    """
    singles = tuple(as_scenario(s) for s in base)
    if not singles:
        raise ValueError("sweep_grid needs at least one base scenario")
    grid: list[Scenario] = list(singles)
    seen = {scenario.spec() for scenario in grid}
    if pairs:
        for i, first in enumerate(singles):
            for second in singles[i + 1:]:
                combo = Scenario(first.interventions + second.interventions)
                if combo.spec() not in seen:
                    seen.add(combo.spec())
                    grid.append(combo)
    return tuple(grid)
