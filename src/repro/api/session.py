"""The :class:`Study` session: one object owning scale, seed, and caches.

A study is configured once (:class:`StudyConfig`) and then builds each
expensive layer lazily, exactly once per configuration, no matter how
many artifacts ask for it.  Every layer is one row of
:data:`LAYER_GRAPH` (dependencies, config parameters, builder, progress
line), so adding a layer is adding a row.  A layer's key is its name,
its dependencies' keys and its parameters, so keys cascade: whatever
changes the census key changes every key built on it.  One process-wide
cache keyed on ``(layer, key)`` holds every layer, so two ``Study``
objects with equal configs share the same universes (the behaviour the
benchmark harness and ``python -m repro all`` rely on).

    from repro.api import Study

    study = Study(days=28, sites=1500)
    print(study.artifact("table1").to_text())
    print(study.artifact("fig5").to_json())
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.core.cloudstats import attribute_domains
from repro.core.deps import analyze_dependencies
from repro.datasets.scenarios import (
    BENCH_CENSUS_SITES,
    BENCH_TRAFFIC_DAYS,
    CensusStudy,
    ResidenceStudy,
    build_census,
    build_residence_study,
)
from repro.telemetry import registry as _metrics_registry, span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.registry import ArtifactResult
    from repro.core.cloudstats import DomainCloudView
    from repro.core.deps import DependencyAnalysis
    from repro.observatory.rounds import ObservatoryStudy
    from repro.sentinel.scan import SentinelFeed
    from repro.whatif.spec import Intervention
    from repro.whatif.sweep import WhatifSweep

#: The session's registry instruments.  Builds and store traffic count
#: here (label-keyed), render on ``GET /metrics``, and merge across
#: procpool workers.
#:
#: ``builds_total{layer}`` counts actual builds (cache misses); tests
#: assert on its deltas to prove memoization works.  Overlay (whatif)
#: rebuilds count under ``whatif:<layer>`` labels, so a sweep never
#: inflates the baseline layer counts.  A layer loaded from the on-disk
#: store is *not* a build: it counts in ``store_ops_total`` instead.
_BUILDS = _metrics_registry().counter(
    "builds_total", "layer builds (process-cache misses), per layer", ("layer",)
)
#: Disk-tier traffic, when a store is active (``repro.store``):
#: ``hit:<layer>`` / ``miss:<layer>`` on reads, ``write:<layer>`` on
#: write-behind, ``retry:<layer>`` per transient read re-attempt under
#: the shared store retry policy, ``error:<layer>`` when a corrupt or
#: unreadable entry fell back to a rebuild (which then overwrites --
#: repairs -- the damaged entry).
_STORE_OPS = _metrics_registry().counter(
    "store_ops_total", "session store traffic, per event:layer", ("op",)
)
_BUILD_SECONDS = _metrics_registry().histogram(
    "build_seconds", "wall time of each layer build", ("layer",)
)
_WRITE_BEHIND_FAILURES = _metrics_registry().counter(
    "store_write_behind_failures_total",
    "write-behind persists that failed (the build still served)",
)


def _store_load(layer: str, key: tuple) -> tuple[Any | None, bool]:
    """Read-through: fetch a layer from the active store (miss = None).

    Returns ``(value, damaged)``.  Reads run under the shared store
    retry policy (:data:`repro.resilience.retry.STORE_POLICY`), so a
    transient IO failure backs off and re-reads before anything is
    rebuilt; a corrupt entry (checksum failure, which retrying cannot
    cure) or a read that exhausted its retries is a warning and a miss
    with ``damaged=True`` -- the session rebuilds rather than dying on
    a damaged warehouse, and the write-behind then *overwrites* the bad
    entry so the store actually heals.
    """
    from repro.resilience.retry import STORE_POLICY, call_with_retry
    from repro.store.warehouse import StoreReadError, active_store

    store = active_store()
    if store is None:
        return None, False

    def on_retry(attempt: int, exc: BaseException) -> None:
        _STORE_OPS.inc(op=f"retry:{layer}")

    try:
        value = call_with_retry(
            lambda: store.load_layer(layer, key),
            label=f"store:{layer}",
            policy=STORE_POLICY,
            retryable=(StoreReadError, OSError),
            on_retry=on_retry,
        )
    except Exception as exc:
        _STORE_OPS.inc(op=f"error:{layer}")
        warnings.warn(
            f"store: could not load the {layer} layer ({exc}); rebuilding",
            RuntimeWarning,
            stacklevel=3,
        )
        return None, True
    _STORE_OPS.inc(op=("hit:" if value is not None else "miss:") + layer)
    return value, False


def _store_save(layer: str, key: tuple, value: Any, repair: bool = False) -> None:
    """Write-behind: persist a freshly built layer (failures are warnings).

    ``repair=True`` (the load before this build failed) overwrites the
    existing entry instead of trusting the content-addressed
    skip-if-present fast path, which would otherwise leave the damaged
    bytes in place forever.
    """
    from repro.store.warehouse import active_store

    store = active_store()
    if store is None:
        return
    try:
        store.save_layer(layer, key, value, overwrite=repair)
    except Exception as exc:
        _STORE_OPS.inc(op=f"error:{layer}")
        _WRITE_BEHIND_FAILURES.inc()
        warnings.warn(
            f"store: could not persist the {layer} layer ({exc}); "
            "continuing without write-behind",
            RuntimeWarning,
            stacklevel=3,
        )
        return
    _STORE_OPS.inc(op=f"write:{layer}")


#: The process-wide layer cache: ``(layer, key) -> built value``, shared
#: by every study (overlays included) in the process.
_CACHE: dict[tuple[str, tuple], Any] = {}


def clear_caches() -> None:
    """Drop every cached layer (``builds_total`` is left intact).

    Memos keyed by content alone, such as the LOESS terms of
    :mod:`repro.core.mstl`, hold no layer and are kept.
    """
    _CACHE.clear()


def prime_caches(layer_values: dict[str, dict[tuple, Any]]) -> None:
    """Seed the process-wide cache with already-built layers.

    ``layer_values`` maps a layer name (a row of :data:`LAYER_GRAPH`)
    to ``{layer_key: built_value}`` entries.  Used by the whatif sweep
    workers: the parent ships its baseline universes once per worker so
    a 20-scenario sweep fanned over processes still rebuilds zero
    untouched layers.
    """
    for layer, entries in layer_values.items():
        _row(layer)
        _CACHE.update(((layer, key), value) for key, value in entries.items())


@dataclass(frozen=True)
class StudyConfig:
    """Scale and seed of one study; hashable, so it keys the caches.

    Defaults are the *bench* scale from :mod:`repro.datasets.scenarios`
    (154 days, 4000 sites); the paper scale is ``days=273``,
    ``sites=100_000``.

    ``parallel`` controls the process-pool fan-outs (traffic generation
    and observatory probe rounds): ``None`` (default) auto-enables a
    pool on multi-core machines, ``False`` forces the sequential path,
    an ``int`` pins the worker count.  It does not key the caches --
    parallel and sequential builds are bit-identical (every residence
    and every vantage point draws from its own seeded RNG substream), so
    they share cache entries.

    ``probe_targets`` / ``probe_interval_days`` scale the observatory
    layer only: how many top-ranked sites every vantage probes, and how
    many days apart the probe rounds run across the ``days`` window.

    ``whatif_scenarios`` selects the counterfactual sweep grid: a tuple
    of scenario spec strings (``"nat64:DE"``,
    ``"dualstack:Amazon+ispv6"``; see :mod:`repro.whatif.spec`).
    ``None`` means the default grid.  It keys only the ``whatif`` layer.
    """

    days: int = BENCH_TRAFFIC_DAYS
    sites: int = BENCH_CENSUS_SITES
    seed: int = 42
    link_clicks: int = 5
    residences: tuple[str, ...] | None = None
    parallel: bool | int | None = None
    probe_targets: int = 500
    probe_interval_days: int = 14
    whatif_scenarios: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.days < 1:
            raise ValueError("days must be >= 1")
        if self.sites < 1:
            raise ValueError("sites must be >= 1")
        if self.link_clicks < 0:
            raise ValueError("link_clicks must be >= 0")
        if self.probe_targets < 1:
            raise ValueError("probe_targets must be >= 1")
        if self.probe_interval_days < 1:
            raise ValueError("probe_interval_days must be >= 1")
        if self.residences is not None:
            object.__setattr__(self, "residences", tuple(sorted(self.residences)))
        if self.whatif_scenarios is not None:
            from repro.whatif.spec import parse_scenario

            # Canonicalize each spec (round-trip through the parser) and
            # de-duplicate preserving order, so equal sweeps share keys.
            canonical = tuple(
                dict.fromkeys(
                    parse_scenario(text).spec() for text in self.whatif_scenarios
                )
            )
            if not canonical:
                raise ValueError("whatif_scenarios must not be empty")
            object.__setattr__(self, "whatif_scenarios", canonical)

    def replace(self, **changes: Any) -> "StudyConfig":
        """A copy with ``changes`` applied (and re-validated)."""
        return dataclasses.replace(self, **changes)

    @property
    def result_key(self) -> tuple:
        """Everything that determines *results* (``parallel`` does not:
        parallel and sequential builds are bit-identical).  Keys the
        rendered-artifact entries of the store and the serving layer's
        caches, the same way the layer keys key the session caches."""
        return (
            "config",
            self.days,
            self.sites,
            self.seed,
            self.link_clicks,
            self.residences,
            self.probe_targets,
            self.probe_interval_days,
            self.whatif_scenarios,
        )

    def whatif_scenario_specs(self) -> tuple[str, ...]:
        """The sweep's scenario specs, with ``None`` resolved to the
        default grid (so explicit-default and implicit-default sweeps
        share one cache entry)."""
        if self.whatif_scenarios is not None:
            return self.whatif_scenarios
        from repro.whatif.spec import default_sweep_grid

        return tuple(scenario.spec() for scenario in default_sweep_grid())


#: The :class:`StudyConfig` fields a request may override, as query
#: parameters (``/v1/artifact/fig5?sites=900``) or through the CLI's
#: ``name@key=value``.  The CLI adds ``parallel``; a request never sets
#: it, because a client does not choose the server's worker count.
OVERRIDE_KEYS = (
    "days", "sites", "seed", "link_clicks", "probe_targets", "probe_interval_days",
)


# -- the layer graph ---------------------------------------------------------


@dataclass(frozen=True)
class Layer:
    """One row of the layer graph: ``deps`` are the layers its builder
    reads, ``params`` the config fields it reads itself, and ``message``
    the progress line logged before a build."""

    name: str
    deps: tuple[str, ...]
    params: Callable[[StudyConfig], tuple]
    build: Callable[["Study"], Any]
    message: Callable[[StudyConfig], str]


def _build_traffic(study: "Study") -> ResidenceStudy:
    config = study.config
    return build_residence_study(
        num_days=config.days, seed=config.seed,
        residences=config.residences, parallel=config.parallel,
    )


def _build_census(study: "Study") -> CensusStudy:
    """A crawl, or for acting interventions the baseline census (a cache
    hit in a sweep, a plain build elsewhere) with their AAAA published."""
    config, acting = study.config, study.acting_on("census")
    if not acting:
        return build_census(
            num_sites=config.sites, seed=config.seed, link_clicks=config.link_clicks,
        )
    baseline = Study(config, log=study._log).census
    published: dict = {}
    for intervention in acting:
        published.update(intervention.publish_aaaa(baseline.ecosystem))
    return baseline.publish(published)


def _build_cloud(study: "Study") -> dict[str, "DomainCloudView"]:
    ecosystem = study.census.ecosystem
    return attribute_domains(study.census.dataset, ecosystem.routing, ecosystem.registry)


def _build_observatory(study: "Study") -> "ObservatoryStudy":
    from repro.observatory.rounds import ObservatoryConfig, run_observatory
    from repro.observatory.vantage import build_vantage_fleet

    census, config = study.census, study.config
    fleet = build_vantage_fleet()
    obs_config = ObservatoryConfig(
        num_days=config.days, probe_interval_days=config.probe_interval_days,
        max_targets=config.probe_targets, seed=config.seed, parallel=config.parallel,
    )
    for intervention in study.acting_on("observatory"):
        fleet = intervention.transform_fleet(fleet)
        obs_config = intervention.transform_observatory_config(obs_config)
    return run_observatory(
        census.ecosystem, obs_config, fleet=fleet, published=census.published
    )


def _build_whatif(study: "Study") -> "WhatifSweep":
    from repro.whatif.spec import parse_scenario
    from repro.whatif.sweep import run_sweep

    scenarios = tuple(map(parse_scenario, study.config.whatif_scenario_specs()))
    return run_sweep(study, scenarios, parallel=study.config.parallel)


def _build_sentinel(study: "Study") -> "SentinelFeed":
    from repro.sentinel.scan import run_sentinel

    return run_sentinel(study)


#: Every layer of a study, in dependency order.  A layer's key is
#: ``(name, *dep keys, *params)`` (see :meth:`Study.key`).
LAYER_GRAPH: dict[str, Layer] = {
    row.name: row
    for row in (
        Layer("traffic", (), lambda c: (c.days, c.seed, c.residences), _build_traffic,
              lambda c: f"# generating {c.days} days of residential traffic ..."),
        Layer("census", (), lambda c: (c.sites, c.seed, c.link_clicks), _build_census,
              lambda c: f"# crawling a {c.sites}-site universe ..."),
        Layer("cloud", ("census",), lambda c: (), _build_cloud,
              lambda c: "# attributing crawled FQDNs to cloud organizations ..."),
        Layer("dependencies", ("census",), lambda c: (),
              lambda study: analyze_dependencies(study.census.dataset),
              lambda c: "# analyzing IPv4-only dependencies of partial sites ..."),
        Layer("observatory", ("census",),
              lambda c: (c.days, c.probe_targets, c.probe_interval_days), _build_observatory,
              lambda c: f"# probing {min(c.probe_targets, c.sites)} sites from the "
              "vantage fleet ..."),
        Layer("whatif", ("traffic", "census", "observatory"),
              lambda c: (c.whatif_scenario_specs(),), _build_whatif,
              lambda c: f"# sweeping {len(c.whatif_scenario_specs())} counterfactual "
              "scenarios ..."),
        Layer("sentinel", ("traffic", "census", "observatory"), lambda c: (), _build_sentinel,
              lambda c: "# scanning adoption series for significant deviations ..."),
    )
}


def _row(name: str) -> Layer:
    if name not in LAYER_GRAPH:
        raise ValueError(f"unknown layer {name!r}; expected one of {', '.join(LAYER_GRAPH)}")
    return LAYER_GRAPH[name]


class Study:
    """A lazy, memoized session over the paper's three perspectives.

    Layers are exposed as properties -- :attr:`traffic`, :attr:`census`,
    :attr:`cloud`, :attr:`dependencies`, ... -- over :meth:`layer`, and
    nothing is generated until an artifact (or caller) touches one.
    Artifacts run through :meth:`artifact` / :meth:`run` and every
    artifact sharing this study's config reuses the same builds.
    """

    def __init__(
        self,
        config: StudyConfig | None = None,
        *,
        log: Callable[[str], None] | None = None,
        **overrides: Any,
    ) -> None:
        if config is None:
            config = StudyConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.config = config
        self._log = log
        self._layers: dict[str, Any] = {}

    # -- keys, builders, resolution ----------------------------------------
    #
    # ``repro.whatif.overlay.OverlayStudy`` overrides ``acting_on``,
    # ``_count_key`` and ``_build``; the rest is shared, so an overlay's
    # untouched layers are cache hits against the baseline.

    def acting_on(self, layer: str) -> tuple["Intervention", ...]:
        """The what-if interventions acting on ``layer`` (a baseline: none)."""
        return ()

    def key(self, name: str) -> tuple:
        """The cache and warehouse key of layer ``name``: ``(name, *dep
        keys, *params)``, plus ``("whatif", "<specs>")`` if interventions act."""
        row = _row(name)
        key = (name, *(self.key(dep) for dep in row.deps), *row.params(self.config))
        acting = self.acting_on(name)
        if acting:
            key += ("whatif", "+".join(intervention.spec() for intervention in acting))
        return key

    def _count_key(self, name: str, key: tuple) -> str:
        """The ``builds_total`` label of one build of layer ``name``."""
        return name

    def _build(self, name: str) -> Any:
        return LAYER_GRAPH[name].build(self)

    def layer(self, name: str) -> Any:
        """Layer ``name``: memory, else the active store, else a build.

        Only a store miss builds, and the fresh value is written behind.
        A build counts in ``builds_total`` (a store hit counts in
        ``store_ops_total`` instead), runs inside a ``build:<layer>``
        span, and lands its wall time in ``build_seconds``.
        """
        if name not in self._layers:
            key = self.key(name)
            slot = (name, key)
            if slot not in _CACHE:
                value, damaged = _store_load(name, key)
                if value is None:
                    if self._log is not None:
                        self._log(LAYER_GRAPH[name].message(self.config))
                    label = self._count_key(name, key)
                    _BUILDS.inc(layer=label)
                    with span(f"build:{name}", layer=label) as build_span:
                        value = self._build(name)
                    _BUILD_SECONDS.observe(build_span.duration_s, layer=label)
                    _store_save(name, key, value, repair=damaged)
                _CACHE[slot] = value
            self._layers[name] = _CACHE[slot]
        return self._layers[name]

    # -- the layers --------------------------------------------------------

    @property
    def traffic(self) -> ResidenceStudy:
        """The five-residence traffic study (built on first access)."""
        return self.layer("traffic")

    @property
    def census(self) -> CensusStudy:
        """The crawled web census (built on first access)."""
        return self.layer("census")

    @property
    def cloud(self) -> dict[str, "DomainCloudView"]:
        """Per-FQDN cloud attribution of the census (section 5)."""
        return self.layer("cloud")

    @property
    def dependencies(self) -> "DependencyAnalysis":
        """The section-4.3 dependency analysis of the census."""
        return self.layer("dependencies")

    @property
    def observatory(self) -> "ObservatoryStudy":
        """The active-measurement observatory over the census universe.

        Probe rounds run across the study's ``days`` window against the
        top ``probe_targets`` sites, from the default per-country
        vantage fleet; built lazily (the census ecosystem is the ground
        truth being probed) and cached per configuration like every
        other layer.
        """
        return self.layer("observatory")

    @property
    def whatif(self) -> "WhatifSweep":
        """The counterfactual sweep over this study's scenario grid.

        Runs every scenario of ``config.whatif_scenarios`` (the default
        grid when ``None``) as an :class:`~repro.whatif.overlay.
        OverlayStudy` against this study's baseline and assembles the
        per-country availability/readiness/usage deltas into a columnar
        :class:`~repro.whatif.sweep.DeltaFrame`.  Overlays reuse every
        baseline layer an intervention does not perturb, so the sweep
        costs rebuilds only where the counterfactual differs.
        """
        return self.layer("whatif")

    @property
    def sentinel(self) -> "SentinelFeed":
        """The significance engine's event feed over this study's series.

        Scans the five adoption signals (availability, takeoff,
        readiness, usage, heavy-hitter mix) against trailing baselines
        and caches the resulting deterministic
        :class:`~repro.sentinel.scan.SentinelFeed` like every other
        layer.  An empty feed is a valid result: silence means nothing
        deviated, not that nothing was watched.
        """
        return self.layer("sentinel")

    def artifact(self, name: str, **params: Any) -> "ArtifactResult":
        """Run one registered artifact against this study."""
        from repro.api import registry

        return registry.run(self, name, **params)

    def run(self, names: Iterable[str] | None = None) -> list["ArtifactResult"]:
        """Run several artifacts (all of them by default), in order."""
        from repro.api import registry

        wanted = list(names) if names is not None else registry.names()
        return [self.artifact(name) for name in wanted]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Study({self.config!r}, built={list(self._layers) or 'nothing'})"
