"""Longitudinal census comparison (Figure 5's three measurement rounds).

The paper crawls the same list in October 2024, April 2025, and July 2025
and reports the drift per category: IPv4-only shrinking by 0.6 points,
IPv6-full growing by the same -- slow but consistent progress.

:func:`run_snapshots` models the passage of time by nudging the tenant
population's IPv6 inclination upward between rounds (adoption only grows),
holding the universe seed fixed so the same sites are compared.  Rounds
re-decide, they do not rebuild: the universe records the uniform behind
every adoption decision (:class:`~repro.web.ecosystem.AdoptionTable`), a
round re-decides each at the drifted inclination, and the base crawl is
re-classified with the changed FQDNs' AAAA flipped and the browser's
races replayed (:meth:`~repro.crawler.crawl.WebCensus.replay`) -- every
count equal to a rebuilt universe's crawl.  A census what-if's published
AAAA records stay flipped in every round.  :func:`compare_snapshots`
renders the paper's table with its Change column.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.readiness import CensusBreakdown, census_breakdown
from repro.crawler.crawl import CensusConfig, WebCensus
from repro.datasets.scenarios import CensusStudy, build_census
from repro.util.tables import TextTable, format_count_pct

#: Per-round increase in the tenant population's IPv6 inclination,
#: calibrated to the paper's ~0.6-point nine-month shift.
DEFAULT_DRIFT_PER_ROUND = 0.02


@dataclass(frozen=True)
class Snapshot:
    """One census round."""

    label: str
    breakdown: CensusBreakdown


def run_snapshots(
    labels: tuple[str, ...] = ("Oct 2024", "Apr 2025", "Jul 2025"),
    num_sites: int = 1500,
    seed: int = 42,
    drift_per_round: float = DEFAULT_DRIFT_PER_ROUND,
    base: CensusStudy | None = None,
) -> list[Snapshot]:
    """Census the same universe at successive adoption levels.

    Round ``r`` raises ``inclination_base`` by ``r * drift_per_round``:
    the site population is identical; only the propensity to enable IPv6
    has moved, as nine months of slow adoption would.  Each round equals
    a crawl of the universe rebuilt at that inclination.

    Args:
        base: the round-0 census to re-decide from (its universe and
            crawl fix the sites and seed, and a census overlay's
            published AAAA records persist through the rounds).  ``None``
            builds ``build_census(num_sites, seed)`` once.
    """
    if drift_per_round < 0:
        raise ValueError("adoption drifts forward, not backward")
    if base is None:
        base = build_census(num_sites=num_sites, seed=seed)
    adoption, dataset = base.ecosystem.adoption, base.dataset
    census = WebCensus(base.ecosystem, CensusConfig(seed=base.config.seed))
    start = base.config.inclination_base
    # The shared universe does not carry them: replay reads a failed
    # site's unrecorded main-host AAAA from its placement.
    published = dict.fromkeys(base.published, True)
    snapshots = []
    for round_index, label in enumerate(labels):
        changed = adoption.changed_aaaa(start, start + drift_per_round * round_index)
        changed.update(published)
        if changed:
            breakdown = census_breakdown(dataset, *census.replay(dataset, changed))
        else:  # every decision stands: the round is the base crawl
            breakdown = census_breakdown(dataset)
        snapshots.append(Snapshot(label=label, breakdown=breakdown))
    return snapshots


def compare_snapshots(snapshots: list[Snapshot]) -> str:
    """Render the Figure 5 table with one column per round and a Change
    column (percentage points, last minus first, over connected sites)."""
    if len(snapshots) < 2:
        raise ValueError("need at least two snapshots to compare")
    table = TextTable(
        ["category"] + [s.label for s in snapshots] + ["Change (pp)"],
        title="Figure 5 (longitudinal): classification per measurement round",
    )

    def row(label: str, selector) -> None:
        cells = [label]
        shares = []
        for snapshot in snapshots:
            b = snapshot.breakdown
            count = selector(b)
            cells.append(format_count_pct(count, b.connection_success))
            shares.append(b.share_of_connected(count))
        cells.append(f"{100.0 * (shares[-1] - shares[0]):+.1f}")
        table.add_row(cells)

    row("IPv4-only", lambda b: b.ipv4_only)
    row("AAAA-enabled", lambda b: b.aaaa_enabled)
    row("IPv6-partial", lambda b: b.ipv6_partial)
    row("IPv6-full", lambda b: b.ipv6_full)
    return table.render()


def adoption_change(snapshots: list[Snapshot]) -> float:
    """IPv6-full share change (fraction of connected), last minus first;
    a round with no connected site counts as a zero share."""
    if len(snapshots) < 2:
        raise ValueError("need at least two snapshots to compare")
    first, last = snapshots[0].breakdown, snapshots[-1].breakdown
    return last.share_of_connected(last.ipv6_full) - first.share_of_connected(
        first.ipv6_full
    )
