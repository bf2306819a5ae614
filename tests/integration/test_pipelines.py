"""End-to-end pipeline tests: every stage wired together, cross-checked
against ground truth the analyses never see."""

import numpy as np
import pytest

from reference_models import records
from repro.core import (
    SiteClass,
    analyze_dependencies,
    as_traffic_breakdown,
    attribute_domains,
    census_breakdown,
    classify_site,
    cloud_provider_breakdown,
    compute_residence_stats,
    hourly_fraction_series,
    mstl,
    multicloud_tenants,
)
from repro.datasets import build_census, build_residence_study
from repro.web.ecosystem import SiteStatus


@pytest.fixture(scope="module")
def study():
    return build_residence_study(num_days=21, seed=77, residences=("A", "C"))


@pytest.fixture(scope="module")
def census():
    return build_census(num_sites=700, seed=77)


class TestClientPipeline:
    def test_generation_to_table1_to_mstl(self, study):
        """Traffic generation -> monitor -> stats -> MSTL, end to end."""
        dataset = study.dataset("A")
        stats = compute_residence_stats(dataset)
        assert stats.external.total_bytes > 0
        series = hourly_fraction_series(dataset, num_days=21)
        result = mstl(series, [24, 168])
        assert np.allclose(result.reconstruction(), series)

    def test_byte_totals_conserved_through_table1(self, study):
        """Every logged byte lands in Table 1's external or internal total."""
        dataset = study.dataset("C")
        stats = compute_residence_stats(dataset)
        raw_total = sum(r.total_bytes for r in records(dataset.monitor))
        assert raw_total == stats.external.total_bytes + stats.internal.total_bytes

    def test_as_breakdown_consistent_with_stats(self, study):
        """Per-AS byte totals (unfiltered) sum to the external total."""
        dataset = study.dataset("A")
        entries = as_traffic_breakdown(dataset, min_volume_share=0.0)
        stats = compute_residence_stats(dataset)
        assert sum(e.total_bytes for e in entries) == stats.external.total_bytes
        assert sum(e.v6_bytes for e in entries) == stats.external.v6_bytes


class TestServerPipeline:
    def test_classification_matches_ground_truth(self, census):
        """The census's classes agree with the generative ground truth the
        crawler never saw."""
        eco = census.ecosystem
        mismatches = []
        for result in census.dataset.results:
            plan = eco.plan_of(result.site)
            cls = classify_site(result)
            if plan.status is SiteStatus.NXDOMAIN:
                if cls is not SiteClass.LOADING_FAILURE_NXDOMAIN:
                    mismatches.append((result.site, plan.status, cls))
            elif plan.status is SiteStatus.OK:
                main_truth = plan.tenant.main_placement.has_aaaa
                if main_truth:
                    if cls not in (SiteClass.IPV6_PARTIAL, SiteClass.IPV6_FULL):
                        mismatches.append((result.site, "AAAA", cls))
                elif cls is not SiteClass.IPV4_ONLY:
                    mismatches.append((result.site, "A-only", cls))
        assert not mismatches, mismatches[:5]

    def test_full_sites_truly_have_no_v4only_truth(self, census):
        """Sites classified IPv6-full embed no IPv4-only third party."""
        eco = census.ecosystem
        for result in census.dataset.connected_results():
            if classify_site(result) is not SiteClass.IPV6_FULL:
                continue
            plan = eco.plan_of(result.site)
            for service in plan.third_parties:
                tenant = eco.tenants[service.domain]
                fetched = {r.fqdn for r in result.resource_requests() if r.succeeded}
                for placement in tenant.placements:
                    if placement.fqdn in fetched:
                        assert placement.has_aaaa, (result.site, placement.fqdn)

    def test_dependency_analysis_consistent_with_breakdown(self, census):
        breakdown = census_breakdown(census.dataset)
        analysis = analyze_dependencies(census.dataset)
        assert analysis.num_partial == breakdown.ipv6_partial


class TestCloudPipeline:
    def test_attribution_matches_tenancy_ground_truth(self, census):
        """BGP-attributed per-FQDN orgs agree with the placement plan."""
        eco = census.ecosystem
        views = attribute_domains(census.dataset, eco.routing, eco.registry)
        checked = 0
        for plan in eco.plans.values():
            if plan.tenant is None or plan.status is not SiteStatus.OK:
                continue
            provider_orgs = {
                p.fqdn: p.service.v4_org_id for p in plan.tenant.placements
            }
            for fqdn, org_id in provider_orgs.items():
                view = views.get(fqdn)
                if view is None or view.v4_org is None:
                    continue
                assert view.v4_org.org_id == org_id, fqdn
                checked += 1
        assert checked > 200

    def test_provider_totals_cover_attributed_fqdns(self, census):
        eco = census.ecosystem
        views = attribute_domains(census.dataset, eco.routing, eco.registry)
        stats = cloud_provider_breakdown(views)
        attributed = sum(
            1 for v in views.values() if v.v4_org is not None or v.v6_org is not None
        )
        total_cells = sum(s.total for s in stats)
        # Split-origin domains count twice (once per org), so the cell sum
        # is at least the attributed-FQDN count.
        assert total_cells >= attributed

    def test_multicloud_tenants_exist_in_ground_truth(self, census):
        eco = census.ecosystem
        views = attribute_domains(census.dataset, eco.routing, eco.registry)
        tenants = multicloud_tenants(views)
        confirmed = 0
        for etld1 in list(tenants)[:50]:
            truth = eco.tenants.get(etld1)
            if truth is None:
                continue
            if truth.is_multicloud:
                confirmed += 1
        assert confirmed > 0
