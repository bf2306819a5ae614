"""Sentinel thresholds: every magic number of the significance model.

This module is the **only** place deviation thresholds may live --
replint rule REP011 flags float literals in comparisons (and
module-level float constants) anywhere else under ``repro/sentinel/``.
The discipline is borrowed from world-observer's SIGNIFICANCE_MODEL:
long-term baselines, conservative thresholds tuned to stay quiet, at
most one event per signal per scope per day, and "silence is valid
data" -- an empty feed is a finding, not a failure.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Scope string for fleet-wide signals that have no per-country split.
GLOBAL_SCOPE = "*"

#: The five adoption signals the sentinel watches, in feed order.
SIGNALS: tuple[str, ...] = (
    "availability",
    "heavy_hitters",
    "readiness",
    "takeoff",
    "usage",
)

#: Event severities, mildest first; index order is comparison order.
SEVERITIES: tuple[str, ...] = ("watch", "elevated", "critical")


def severity_rank(severity: str) -> int:
    """Position of ``severity`` in :data:`SEVERITIES` (raises if unknown)."""
    return SEVERITIES.index(severity)


def keeps_event(
    day: int, scope: str, severity: str, since: int, country: str | None, min_severity: str
) -> bool:
    """The feed filter of ``repro sentinel`` and ``/v1/events`` (a
    ``None`` country keeps every scope)."""
    return (
        day >= since and country in (None, scope)
        and severity_rank(severity) >= severity_rank(min_severity)
    )


@dataclass(frozen=True)
class SentinelConfig:
    """The deviation model's knobs, frozen so cache keys stay honest.

    Attributes:
        min_history: points of trailing baseline required before a
            deviation may fire at all -- the first ``min_history``
            points of every series are observation-only.
        sigma_floor: lower bound on the baseline standard deviation, so
            a perfectly flat warm-up cannot make an epsilon wiggle look
            like a many-sigma event.
        z_watch: |z| at which a ``watch`` event fires.
        z_elevated: |z| promoting the event to ``elevated``.
        z_critical: |z| promoting the event to ``critical``.
    """

    min_history: int = 3
    sigma_floor: float = 0.01
    z_watch: float = 2.5
    z_elevated: float = 3.5
    z_critical: float = 5.0


#: The committed model.  Change deliberately: every threshold shift
#: reshapes the event feed, the goldens, and the whatif event ranking.
DEFAULT_SENTINEL_CONFIG = SentinelConfig()
