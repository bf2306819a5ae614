"""The paper's primary contribution: non-binary IPv6 adoption analyses.

Three measurement perspectives, as in the paper:

* :mod:`repro.core.client` -- how much of a dual-stack household's traffic
  is actually IPv6 (section 3; Table 1, Figures 1, 3, 4, 16, 17).
* :mod:`repro.core.mstl` -- Multi-Seasonal Trend decomposition by LOESS,
  used to show IPv6 traffic is human-driven and diurnal (section 3.3;
  Figures 2, 13, 14, 15).
* :mod:`repro.core.readiness` -- graded website IPv6 readiness:
  IPv4-only / IPv6-partial / IPv6-full / loading-failure (section 4.2;
  Figures 5, 6).
* :mod:`repro.core.deps` -- which resources hold IPv6-partial sites back:
  span, median contribution, categories, what-if adoption (section 4.3;
  Figures 7, 8, 9, 10, 18).
* :mod:`repro.core.cloudstats` -- cloud provider and service adoption,
  multi-cloud tenant comparisons (section 5; Figures 11, 12, Tables 2, 3).
"""

from repro.core.client import (
    AsTrafficEntry,
    DomainTrafficEntry,
    HeavyHitterDay,
    ProtocolMix,
    ResidenceScopeStats,
    ResidenceStats,
    as_traffic_breakdown,
    compute_residence_stats,
    daily_fractions,
    domain_traffic_breakdown,
    heavy_hitter_days,
    hourly_fraction_series,
    protocol_mix,
    shared_as_box_stats,
    shared_domain_box_stats,
)
from repro.core.cloudstats import (
    CloudPairComparison,
    CloudProviderStats,
    DomainCloudView,
    ServiceAdoptionRow,
    attribute_domains,
    cloud_pair_heatmap,
    cloud_provider_breakdown,
    multicloud_tenants,
    overall_domain_counts,
    rank_clouds_by_wins,
    service_adoption_table,
)
from repro.core.deps import (
    DependencyAnalysis,
    DomainImpact,
    analyze_dependencies,
    estimate_version_split_misclassification,
    heavy_hitter_categories,
    resource_type_matrix,
    whatif_adoption_curve,
)
from repro.core.longitudinal import (
    Snapshot,
    adoption_change,
    compare_snapshots,
    run_snapshots,
)
from repro.core.mstl import MstlResult, StlResult, loess_smooth, mstl, stl
from repro.core.readiness import (
    CensusBreakdown,
    SiteClass,
    TopNRow,
    browser_used_ipv4,
    census_breakdown,
    classify_site,
    top_n_breakdown,
)

__all__ = [
    "AsTrafficEntry",
    "DomainTrafficEntry",
    "ResidenceScopeStats",
    "ResidenceStats",
    "as_traffic_breakdown",
    "compute_residence_stats",
    "daily_fractions",
    "domain_traffic_breakdown",
    "hourly_fraction_series",
    "HeavyHitterDay",
    "heavy_hitter_days",
    "ProtocolMix",
    "protocol_mix",
    "shared_as_box_stats",
    "shared_domain_box_stats",
    "CloudPairComparison",
    "CloudProviderStats",
    "DomainCloudView",
    "ServiceAdoptionRow",
    "attribute_domains",
    "cloud_pair_heatmap",
    "cloud_provider_breakdown",
    "multicloud_tenants",
    "service_adoption_table",
    "DependencyAnalysis",
    "DomainImpact",
    "analyze_dependencies",
    "estimate_version_split_misclassification",
    "resource_type_matrix",
    "whatif_adoption_curve",
    "MstlResult",
    "StlResult",
    "loess_smooth",
    "mstl",
    "stl",
    "CensusBreakdown",
    "SiteClass",
    "TopNRow",
    "browser_used_ipv4",
    "classify_site",
    "census_breakdown",
    "top_n_breakdown",
    "overall_domain_counts",
    "rank_clouds_by_wins",
    "heavy_hitter_categories",
    "Snapshot",
    "adoption_change",
    "compare_snapshots",
    "run_snapshots",
]
