"""Sweep-by-events: rank interventions by the alarms they would raise.

The delta sweep (:mod:`repro.whatif.sweep`) asks "how far does each
intervention move the signals?"; this module asks the sentinel's
question instead: **which interventions would have triggered events?**
Each scenario's overlay world gets its own sentinel scan, and scenarios
are ranked by how many significant deviations their counterfactual
series produce -- an intervention that trips the detector changed the
world's dynamics, not just its endpoint.

Cache discipline matches the delta sweep exactly: every overlay runs
through :class:`~repro.whatif.overlay.OverlayStudy`, so unperturbed
layers are baseline cache *hits* and only the overlay's own sentinel
scan (plus the layers the scenario genuinely perturbs) builds --
``builds_total`` for baseline traffic/census/observatory stay flat
across a whole sweep, with overlay work accounted under
``whatif:<layer>``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.sentinel.config import SEVERITIES
from repro.sentinel.detect import SentinelEvent
from repro.whatif.overlay import OverlayStudy
from repro.whatif.spec import Intervention, Scenario, as_scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Study


def _event_key(event: SentinelEvent) -> tuple[int, str, str, str]:
    """Identity for cross-world comparison: where/what/which way."""
    return (event.day, event.signal, event.scope, event.direction)


@dataclass(frozen=True)
class ScenarioEvents:
    """One scenario's sentinel verdict.

    Attributes:
        scenario: canonical spec string (``"nat64:DE+accelerate:2"``).
        layers: the session layers the scenario perturbs, sorted.
        events_total: events the overlay world's scan emitted.
        by_severity: ``(severity, count)`` pairs in severity order.
        new_events: events absent from the baseline feed (same
            day/signal/scope/direction identity).
        resolved_events: baseline events the overlay world no longer
            triggers.
    """

    scenario: str
    layers: tuple[str, ...]
    events_total: int
    by_severity: tuple[tuple[str, int], ...]
    new_events: int
    resolved_events: int


@dataclass(frozen=True)
class EventSweep:
    """The ranked sweep: scenarios ordered by triggered-event count."""

    baseline_events: int
    baseline_points: int
    scenarios: tuple[ScenarioEvents, ...]


def run_event_sweep(
    study: "Study",
    scenarios: Iterable[Scenario | Intervention | str] | None = None,
) -> EventSweep:
    """Re-run the sentinel per overlay scenario and rank the results.

    Scenarios default to the study's whatif grid
    (``config.whatif_scenarios``, or the default grid).  The loop runs
    sequentially and each iteration is one overlay scan over cached
    universes, so the sweep is deterministic and the ranking is a pure
    function of the seed and the grid.
    """
    if scenarios is None:
        specs = study.config.whatif_scenario_specs()
    else:
        specs = tuple(as_scenario(scenario).spec() for scenario in scenarios)
    baseline = study.sentinel
    baseline_keys = {_event_key(event) for event in baseline.events}
    results: list[ScenarioEvents] = []
    for spec in specs:
        overlay = OverlayStudy(study, spec)
        feed = overlay.sentinel
        keys = {_event_key(event) for event in feed.events}
        severity_counts = Counter(event.severity for event in feed.events)
        results.append(
            ScenarioEvents(
                scenario=spec,
                layers=tuple(sorted(overlay.perturbed)),
                events_total=len(feed.events),
                by_severity=tuple(
                    (severity, severity_counts.get(severity, 0))
                    for severity in SEVERITIES
                ),
                new_events=len(keys - baseline_keys),
                resolved_events=len(baseline_keys - keys),
            )
        )
    results.sort(
        key=lambda entry: (-entry.events_total, -entry.new_events, entry.scenario)
    )
    return EventSweep(
        baseline_events=len(baseline.events),
        baseline_points=baseline.points,
        scenarios=tuple(results),
    )
