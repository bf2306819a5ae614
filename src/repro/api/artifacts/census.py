"""Server-side artifacts (paper section 4): graded website readiness.

These read ``study.census`` (the crawled site universe) and
``study.dependencies`` (the memoized section-4.3 analysis); both build
lazily and are shared across every artifact in a run.
"""

from __future__ import annotations

import numpy as np

from repro.api.artifacts.traffic import sample_points
from repro.api.registry import ArtifactResult, artifact
from repro.api.session import Study
from repro.core.deps import (
    estimate_version_split_misclassification,
    heavy_hitter_categories,
    resource_type_matrix,
    whatif_adoption_curve,
)
from repro.core.longitudinal import adoption_change, compare_snapshots, run_snapshots
from repro.core.readiness import census_breakdown, top_n_breakdown
from repro.util.tables import TextTable, format_count_pct

_NO_PARTIAL = "no IPv6-partial sites in this universe"


@artifact(
    "fig5",
    needs=("census",),
    title="Figure 5 — site classification",
    paper="Figure 5",
)
def fig5(study: Study) -> ArtifactResult:
    """The census classification: IPv4-only / partial / full / failures."""
    b = census_breakdown(study.census.dataset)
    conn = b.connection_success
    categories = [
        ("Total", b.total, False),
        ("Loading-Failure (NXDOMAIN)", b.nxdomain, False),
        ("Loading-Failure (Others)", b.other_failure, False),
        ("Connection Success", conn, True),
        ("Unknown Primary Domain", b.unknown_primary, True),
        ("IPv4-only (A-only domain)", b.ipv4_only, True),
        ("AAAA-enabled Domain", b.aaaa_enabled, True),
        ("IPv6-partial", b.ipv6_partial, True),
        ("IPv6-full", b.ipv6_full, True),
        ("Browser Used IPv4", b.browser_used_ipv4, True),
        ("Browser Used IPv6 Only", b.browser_used_ipv6_only, True),
    ]
    table = TextTable(["category", "count (%)"], title="Figure 5 — site classification")
    rows = []
    for label, count, with_share in categories:
        table.add_row([label, format_count_pct(count, conn) if with_share else count])
        rows.append({
            "category": label,
            "count": count,
            "share_of_connected": (count / conn) if with_share and conn else None,
        })
    return ArtifactResult(
        columns=("category", "count", "share_of_connected"),
        rows=rows,
        text=table.render(),
    )


@artifact(
    "fig6",
    needs=("census",),
    title="Figure 6 — readiness by popularity",
    paper="Figure 6",
)
def fig6(study: Study) -> ArtifactResult:
    """Readiness shares across top-N slices of the site ranking."""
    n = len(study.census.dataset.results)
    ns = tuple(sorted({min(100, n), max(1, n // 10), n}))
    slices = top_n_breakdown(study.census.dataset, ns=ns)
    table = TextTable(
        ["top N", "IPv4-only", "IPv6-partial", "IPv6-full"],
        title="Figure 6 — readiness by popularity",
    )
    rows = []
    for row in slices:
        table.add_row([
            row.n, f"{row.ipv4_only_share:.1%}",
            f"{row.ipv6_partial_share:.1%}", f"{row.ipv6_full_share:.1%}",
        ])
        rows.append({
            "top_n": row.n,
            "ipv4_only_share": row.ipv4_only_share,
            "ipv6_partial_share": row.ipv6_partial_share,
            "ipv6_full_share": row.ipv6_full_share,
        })
    return ArtifactResult(
        columns=("top_n", "ipv4_only_share", "ipv6_partial_share", "ipv6_full_share"),
        rows=rows,
        text=table.render(),
    )


def _percentile_row(metric: str, values: np.ndarray) -> dict:
    row = {"metric": metric}
    for q in (10, 25, 50, 75, 90, 95):
        row[f"p{q}"] = float(np.percentile(values, q))
    return row


@artifact(
    "fig7",
    needs=("census", "dependencies"),
    title="Figure 7 — IPv4-only resources per IPv6-partial site",
    paper="Figure 7",
)
def fig7(study: Study) -> ArtifactResult:
    """How many (and what share of) resources stay IPv4-only per site."""
    analysis = study.dependencies
    if not analysis.num_partial:
        return ArtifactResult(lines=[_NO_PARTIAL])
    rows = [
        _percentile_row(
            "v4only_resources_per_site", np.array(analysis.v4only_resource_counts)
        ),
        _percentile_row(
            "v4only_resource_fraction", np.array(analysis.v4only_resource_fractions)
        ),
    ]
    return ArtifactResult(
        columns=("metric", "p10", "p25", "p50", "p75", "p90", "p95"),
        rows=rows,
        metadata={"num_partial": analysis.num_partial},
    )


@artifact(
    "fig8",
    needs=("census", "dependencies"),
    title="Figure 8 — span and contribution of IPv4-only domains",
    paper="Figure 8",
)
def fig8(study: Study, top: int = 15) -> ArtifactResult:
    """Which IPv4-only domains hold back the most partial sites."""
    analysis = study.dependencies
    if not analysis.num_partial:
        return ArtifactResult(lines=[_NO_PARTIAL])
    impacts = analysis.impacts_by_span()
    spans = np.array([impact.span for impact in impacts])
    rows = [
        {
            "domain": impact.domain,
            "span": impact.span,
            "median_contribution": impact.median_contribution,
            "third_party": impact.is_third_party_anywhere,
        }
        for impact in impacts[:top]
    ]
    return ArtifactResult(
        columns=("domain", "span", "median_contribution", "third_party"),
        rows=rows,
        metadata={
            "num_domains": len(impacts),
            "span_p75": float(np.percentile(spans, 75)),
            "span_p95": float(np.percentile(spans, 95)),
            "span_max": int(spans.max()),
        },
    )


@artifact(
    "fig9",
    needs=("census", "dependencies"),
    title="Figure 9 — categories of heavy-hitter IPv4-only domains",
    paper="Figure 9",
)
def fig9(study: Study, min_span: int | None = None) -> ArtifactResult:
    """What kinds of services the high-span IPv4-only domains are."""
    analysis = study.dependencies
    if not analysis.num_partial:
        return ArtifactResult(lines=[_NO_PARTIAL])
    census = study.census
    if min_span is None:
        min_span = max(3, census.config.num_sites // 250)
    pool = census.ecosystem.pool
    histogram = heavy_hitter_categories(
        analysis,
        lambda domain: pool.get(domain).category if domain in pool else None,
        min_span=min_span,
    )
    rows = [
        {
            "category": category.value if category is not None else "(uncategorized)",
            "domains": count,
        }
        for category, count in histogram.most_common()
    ]
    return ArtifactResult(
        columns=("category", "domains"),
        rows=rows,
        metadata={"min_span": min_span},
    )


@artifact(
    "fig10",
    needs=("census", "dependencies"),
    title="Figure 10 — what-if adoption of IPv4-only domains",
    paper="Figure 10",
)
def fig10(study: Study) -> ArtifactResult:
    """If IPv4-only domains adopted IPv6 in span order, who becomes full?"""
    analysis = study.dependencies
    curve = whatif_adoption_curve(analysis)
    if not analysis.num_partial or not curve:
        return ArtifactResult(lines=[_NO_PARTIAL])
    rows = []
    for mark in (0.033, 0.10, 0.50, 1.0):
        k = max(1, round(mark * len(curve)))
        adopted, full = curve[k - 1]
        rows.append({
            "domain_share": mark,
            "domains_adopted": adopted,
            "sites_full": full,
            "partial_unlocked": full / analysis.num_partial,
        })
    return ArtifactResult(
        columns=("domain_share", "domains_adopted", "sites_full", "partial_unlocked"),
        rows=rows,
        metadata={
            "num_partial": analysis.num_partial,
            "curve": sample_points(
                [p[0] for p in curve], [p[1] for p in curve], max_points=64
            ),
        },
    )


@artifact(
    "fig18",
    needs=("census", "dependencies"),
    title="Figure 18 — top IPv4-only domains by resource type",
    paper="Figure 18",
)
def fig18(study: Study, top_k: int = 20) -> ArtifactResult:
    """Which resource types each heavy-hitter domain serves, per site."""
    analysis = study.dependencies
    if not analysis.num_partial or not analysis.domain_impacts:
        return ArtifactResult(lines=[_NO_PARTIAL])
    domains, types, matrix = resource_type_matrix(analysis, top_k=top_k)
    type_names = [rtype.value for rtype in types]
    rows = [
        {"domain": domain, **dict(zip(type_names, matrix[i].tolist()))}
        for i, domain in enumerate(domains)
    ]
    return ArtifactResult(
        columns=("domain", *type_names),
        rows=rows,
        metadata={"top_k": top_k},
    )


@artifact(
    "deps",
    needs=("census", "dependencies"),
    title="Dependency summary — Figures 7, 8 and 10 in one block",
    paper="Figures 7-10",
)
def deps(study: Study) -> ArtifactResult:
    """The one-screen dependency summary the CLI has always printed."""
    analysis = study.dependencies
    if not analysis.num_partial:
        return ArtifactResult(text=_NO_PARTIAL)
    counts = np.array(analysis.v4only_resource_counts)
    fractions = np.array(analysis.v4only_resource_fractions)
    spans = np.array([i.span for i in analysis.domain_impacts.values()])
    curve = whatif_adoption_curve(analysis)
    k = max(1, round(0.033 * len(curve)))
    lines = [
        f"IPv6-partial sites: {analysis.num_partial}",
        f"IPv4-only resources per site (Fig 7): "
        f"p25={np.percentile(counts, 25):.0f} p50={np.percentile(counts, 50):.0f} "
        f"p75={np.percentile(counts, 75):.0f}",
        f"fraction IPv4-only (Fig 7): "
        f"p25={np.percentile(fractions, 25):.2f} p50={np.percentile(fractions, 50):.2f} "
        f"p75={np.percentile(fractions, 75):.2f}",
        f"IPv4-only domains (Fig 8): {len(spans)}; span p75={np.percentile(spans, 75):.0f} "
        f"p95={np.percentile(spans, 95):.0f} max={spans.max()}",
        f"what-if (Fig 10): top 3.3% of domains ({curve[k - 1][0]}) unlock "
        f"{curve[k - 1][1] / analysis.num_partial:.1%} of partial sites",
    ]
    rows = [
        {"metric": "partial_sites", "value": analysis.num_partial},
        {"metric": "v4only_domains", "value": len(spans)},
        {"metric": "span_max", "value": int(spans.max())},
        {"metric": "top_3pct_unlock_share",
         "value": curve[k - 1][1] / analysis.num_partial},
    ]
    return ArtifactResult(
        columns=("metric", "value"), rows=rows, text="\n".join(lines)
    )


@artifact(
    "misclass",
    needs=("census",),
    title="Section 4.4 — suspected version-split misclassifications",
    paper="Section 4.4",
)
def misclass(study: Study) -> ArtifactResult:
    """Partial sites whose IPv4-only resources all carry v4-name markers."""
    suspected, total = estimate_version_split_misclassification(study.census.dataset)
    rows = [{
        "suspected": suspected,
        "partial_sites": total,
        "share": (suspected / total) if total else 0.0,
    }]
    return ArtifactResult(columns=("suspected", "partial_sites", "share"), rows=rows)


@artifact(
    "longitudinal",
    needs=("census",),
    title="Longitudinal — the same universe at successive adoption levels",
    paper="Section 4.5",
)
def longitudinal(
    study: Study,
    labels: tuple[str, ...] = ("t0", "t1"),
    drift_per_round: float = 0.05,
) -> ArtifactResult:
    """Re-decide the identical site population as adoption drifts forward."""
    from repro.crawler.crawl import LINK_CLICKS

    # The rounds crawl with the paper's link clicks; a study crawled with
    # those is the rounds' base, so no universe is built or crawled.
    snapshots = run_snapshots(
        labels=labels,
        num_sites=study.config.sites,
        seed=study.config.seed,
        drift_per_round=drift_per_round,
        base=study.census if study.config.link_clicks == LINK_CLICKS else None,
    )
    rows = [
        {
            "label": snapshot.label,
            "total": snapshot.breakdown.total,
            "connection_success": snapshot.breakdown.connection_success,
            "ipv4_only": snapshot.breakdown.ipv4_only,
            "ipv6_partial": snapshot.breakdown.ipv6_partial,
            "ipv6_full": snapshot.breakdown.ipv6_full,
        }
        for snapshot in snapshots
    ]
    return ArtifactResult(
        columns=(
            "label", "total", "connection_success",
            "ipv4_only", "ipv6_partial", "ipv6_full",
        ),
        rows=rows,
        metadata={
            "adoption_change_pp": adoption_change(snapshots),
            "drift_per_round": drift_per_round,
        },
        text=compare_snapshots(snapshots),
    )
