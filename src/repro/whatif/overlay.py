"""OverlayStudy: a Study forked into a counterfactual world.

An overlay is a full :class:`~repro.api.session.Study` whose universes
differ from a baseline's only where a :class:`~repro.whatif.spec.
Scenario`'s interventions say they must.  It overrides which
interventions act on a layer (those declaring it, in scenario order);
the session's layer graph derives the rest.  A layer's key carries the
spec of its acting interventions and cascades through the graph's
``deps``, so a census perturbation re-keys the cloud, dependency,
observatory and sentinel layers too, while every layer whose key stays
the baseline's is a cache *hit* -- a sweep of twenty scenarios rebuilds
zero censuses it didn't change, and ``dualstack:Amazon+ispv6`` reuses
``dualstack:Amazon``'s census and observatory.  The census builder
publishes the acting interventions' AAAA records over the baseline
census (its universe shared, never mutated; its crawl replayed), and the
observatory builder probes that universe with a policy-transformed
vantage fleet, so key and build agree by construction.

A perturbed traffic layer is not regenerated: the overlay patches the
residence fleet, service catalog and Happy Eyeballs timers, then
re-races the baseline traffic layer's recorded draws in that world
(:func:`~repro.datasets.scenarios.realize_residence_study`).  Every
household, session, server, size and timing stays the baseline's; only
IPv6 negotiation re-runs (common random numbers), so a usage delta
measures the intervention alone.  An intervention whose transforms
touch anything the draws depend on raises ``ValueError``.

A build counts under ``whatif:<layer>`` in ``builds_total`` when the
overlay's key for the layer differs from the baseline's, which is what
the cache-reuse accounting tests assert on.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from repro.api.session import Study, StudyConfig
from repro.datasets.scenarios import ResidenceStudy, realize_residence_study
from repro.whatif.spec import Intervention, Scenario, as_scenario


class OverlayStudy(Study):
    """A lazy, memoized session over one counterfactual scenario.

    Args:
        baseline: the study (or bare config) the counterfactual forks from.
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
        config = baseline.config if isinstance(baseline, Study) else baseline
        # Overlays fork one world; they do not themselves carry a sweep.
        super().__init__(config.replace(whatif_scenarios=None), log=log)
        self.scenario = as_scenario(scenario)
        #: The layers the scenario's interventions declare; the graph
        #: re-keys (and so rebuilds) these and everything built on them.
        self.perturbed: frozenset[str] = self.scenario.layers()

    def acting_on(self, layer: str) -> tuple[Intervention, ...]:
        """The scenario's interventions that declare ``layer``, in order."""
        return tuple(iv for iv in self.scenario.interventions if layer in iv.LAYERS)

    def _count_key(self, name: str, key: tuple) -> str:
        """``whatif:<layer>`` for a counterfactual layer; a baseline layer
        an overlay builds lazily (same key, so the entry is shared with
        the baseline) counts under the plain layer name."""
        return f"whatif:{name}" if key != Study(self.config).key(name) else name

    def _build(self, name: str) -> Any:
        if name == "traffic" and self.acting_on("traffic"):
            return self._rerace_traffic()
        return super()._build(name)

    def _rerace_traffic(self) -> ResidenceStudy:
        """Re-race the baseline traffic layer's draws in this world (the
        baseline is a cache hit inside a sweep, a plain build elsewhere)."""
        baseline = Study(self.config, log=self._log).traffic
        catalog: list[Any] = list(baseline.universe.catalog)
        profiles: list[Any] = [dataset.profile for dataset in baseline.datasets.values()]
        he_config = None
        for intervention in self.acting_on("traffic"):
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
