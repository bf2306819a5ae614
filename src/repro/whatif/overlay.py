"""OverlayStudy: a Study forked into a counterfactual world.

An overlay is a full :class:`~repro.api.session.Study` whose universes
differ from a baseline's only where a :class:`~repro.whatif.spec.
Scenario`'s interventions say they must.  The mechanics ride the
session's layer-key/builder methods:

* for every layer the scenario **perturbs**, the overlay extends the
  baseline cache key with the spec of the interventions that declare
  that layer (in scenario order) and swaps in a builder that applies
  exactly those interventions' transforms -- so key and build agree by
  construction, and a composed scenario shares each layer with the
  sub-scenario that perturbs it the same way (``dualstack:Amazon+ispv6``
  reuses ``dualstack:Amazon``'s census and observatory);
* for every **untouched** layer, keys and builders are inherited
  verbatim, so the overlay is a cache *hit* against the baseline --
  a sweep of twenty scenarios rebuilds zero censuses it didn't change.

Perturbed census and observatory layers are rebuilt from a mutated web
universe or a policy-transformed vantage fleet.  A perturbed traffic
layer is not regenerated: the overlay patches the residence fleet,
service catalog and Happy Eyeballs timers, then re-races the baseline
traffic layer's recorded draws in that world
(:func:`~repro.datasets.scenarios.realize_residence_study`).  Every
household, session, server, size and timing stays the baseline's; only
IPv6 negotiation re-runs (common random numbers), so a usage delta
measures the intervention alone.  An intervention whose transforms
touch anything the draws depend on raises ``ValueError``.

Derived layers cascade through key composition: the cloud, dependency,
and observatory keys are all functions of ``_census_key()``, so a
census perturbation re-derives them against the counterfactual crawl
without any explicit wiring.

Overlay rebuilds count under ``whatif:<layer>`` in ``BUILD_COUNTS``
(never under the baseline layer names), which is what the cache-reuse
accounting tests assert on.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from repro.api.session import Study, StudyConfig
from repro.datasets.scenarios import (
    CensusStudy,
    ResidenceStudy,
    build_census,
    realize_residence_study,
)
from repro.whatif.spec import Intervention, Scenario, as_scenario


class OverlayStudy(Study):
    """A lazy, memoized session over one counterfactual scenario.

    Args:
        baseline: the study (or bare config) the counterfactual forks
            from.  Prebuilt studies (``Study.from_prebuilt``) are
            rejected: their universes never entered the process caches,
            so there is nothing for the overlay's untouched layers to
            share.
        scenario: a :class:`Scenario`, single intervention, spec string
            (``"nat64:DE+accelerate:2"``), or iterable of interventions.
    """

    def __init__(
        self,
        baseline: Study | StudyConfig,
        scenario: Scenario | Intervention | str,
        *,
        log: Callable[[str], None] | None = None,
    ) -> None:
        if isinstance(baseline, Study):
            if baseline._prebuilt:
                raise ValueError(
                    "OverlayStudy needs a config-cached baseline; prebuilt "
                    "studies bypass the process caches the overlay shares"
                )
            config = baseline.config
        else:
            config = baseline
        # Overlays fork one world; they do not themselves carry a sweep.
        super().__init__(config.replace(whatif_scenarios=None), log=log)
        self.scenario = as_scenario(scenario)
        #: Which layers this overlay rebuilds; everything else is a
        #: baseline cache hit.  ``census`` perturbation implicitly
        #: re-derives cloud/dependencies/observatory via key cascade.
        self.perturbed: frozenset[str] = self.scenario.layers()

    # -- key extension -----------------------------------------------------

    def _count_key(self, layer: str) -> str:
        """Overlay rebuilds count as ``whatif:<layer>``; a *missing
        baseline* layer an overlay builds lazily (unperturbed key, so
        the entry is shared with the baseline) still counts under the
        plain layer name.  Derived layers follow the census cascade."""
        perturbs = {
            "traffic": "traffic" in self.perturbed,
            "census": "census" in self.perturbed,
            "cloud": "census" in self.perturbed,
            "dependencies": "census" in self.perturbed,
            "observatory": (
                "observatory" in self.perturbed or "census" in self.perturbed
            ),
        }
        return f"whatif:{layer}" if perturbs.get(layer, True) else layer

    def _acting_on(self, layer: str) -> list[Intervention]:
        """The scenario's interventions that declare ``layer``, in order."""
        return [iv for iv in self.scenario.interventions if layer in iv.LAYERS]

    def _sig(self, layer: str) -> tuple:
        """The key extension of ``layer``: the spec of its interventions."""
        acting = self._acting_on(layer)
        return ("whatif", "+".join(iv.spec() for iv in acting)) if acting else ()

    def _traffic_key(self) -> tuple:
        return super()._traffic_key() + self._sig("traffic")

    def _census_key(self) -> tuple:
        return super()._census_key() + self._sig("census")

    def _observatory_key(self) -> tuple:
        # Already includes _census_key(), so a census perturbation
        # cascades even when the fleet itself is untouched.
        return super()._observatory_key() + self._sig("observatory")

    # -- perturbed builders ------------------------------------------------

    def _build_traffic(self) -> ResidenceStudy:
        """Re-race the baseline traffic layer's draws in this world.

        The baseline layer resolves through the session: a cache hit
        inside a sweep, a plain ``traffic`` build elsewhere.
        """
        baseline = Study(self.config, log=self._log).traffic
        catalog: list[Any] = list(baseline.universe.catalog)
        profiles: list[Any] = [dataset.profile for dataset in baseline.datasets.values()]
        he_config = None
        for intervention in self._acting_on("traffic"):
            drawn_from = _draw_inputs(catalog, profiles)
            catalog = intervention.transform_catalog(catalog)
            profiles = intervention.transform_profiles(profiles)
            he_config = intervention.transform_he_config(he_config)
            if _draw_inputs(catalog, profiles) != drawn_from:
                raise ValueError(
                    f"intervention {intervention.spec()!r} changes what the "
                    "baseline's traffic draws depend on; a traffic overlay may "
                    "change only device WAN IPv6, native_ipv6, a service's "
                    "ipv6_support and the Happy Eyeballs timers"
                )
        return realize_residence_study(baseline, catalog, profiles, he_config)

    def _build_census(self) -> CensusStudy:
        def mutate(ecosystem) -> None:
            for intervention in self._acting_on("census"):
                intervention.transform_ecosystem(ecosystem)

        return build_census(
            num_sites=self.config.sites,
            seed=self.config.seed,
            link_clicks=self.config.link_clicks,
            mutate=mutate,
        )

    def _build_observatory(self, census: CensusStudy):
        from repro.observatory.rounds import ObservatoryConfig, run_observatory
        from repro.observatory.vantage import build_vantage_fleet

        fleet = build_vantage_fleet()
        obs_config = ObservatoryConfig(
            num_days=self.config.days,
            probe_interval_days=self.config.probe_interval_days,
            max_targets=self.config.probe_targets,
            seed=self.config.seed,
            parallel=self.config.parallel,
        )
        for intervention in self._acting_on("observatory"):
            fleet = intervention.transform_fleet(fleet)
            obs_config = intervention.transform_observatory_config(obs_config)
        return run_observatory(census.ecosystem, obs_config, fleet=fleet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OverlayStudy({self.scenario.spec()!r}, "
            f"perturbs={sorted(self.perturbed)}, config={self.config!r})"
        )


def _draw_inputs(catalog: list[Any], profiles: list[Any]) -> tuple[list, list]:
    """The catalog and profiles less what realization re-reads (a
    service's ``ipv6_support``, a residence's ``native_ipv6`` and its
    devices' WAN IPv6): everything a traffic draw depends on."""
    return (
        [dataclasses.replace(service, ipv6_support=0.0) for service in catalog],
        [
            dataclasses.replace(
                profile,
                native_ipv6=False,
                device_specs=tuple(
                    (kind, False, weight) for kind, _wan, weight in profile.device_specs
                ),
            )
            for profile in profiles
        ],
    )
