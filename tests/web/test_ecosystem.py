"""Tests for the assembled web ecosystem."""

import pytest

from repro.net.addr import Family
from repro.net.dns import DnsRecordType, DnsStatus
from repro.store.serialize import dump_value, load_value
from repro.web.ecosystem import SiteStatus, WebEcosystem, WebEcosystemConfig


@pytest.fixture(scope="module")
def eco() -> WebEcosystem:
    return WebEcosystem(WebEcosystemConfig(num_sites=400, seed=3))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WebEcosystemConfig(num_sites=0)
        with pytest.raises(ValueError):
            WebEcosystemConfig(nxdomain_rate=0.9, dns_failure_rate=0.2)
        with pytest.raises(ValueError):
            WebEcosystemConfig(pages_per_site=0)


class TestBuild:
    def test_deterministic(self):
        a = WebEcosystem(WebEcosystemConfig(num_sites=100, seed=9))
        b = WebEcosystem(WebEcosystemConfig(num_sites=100, seed=9))
        assert [p.status for p in a.plans.values()] == [
            p.status for p in b.plans.values()
        ]
        assert a.toplist.entries == b.toplist.entries

    def test_every_entry_planned(self, eco):
        assert len(eco.plans) == 400
        statuses = {plan.status for plan in eco.plans.values()}
        assert SiteStatus.OK in statuses
        assert SiteStatus.NXDOMAIN in statuses

    def test_nxdomain_sites_have_no_zone(self, eco):
        for plan in eco.plans.values():
            if plan.status is SiteStatus.NXDOMAIN:
                response = eco.resolver.resolve(plan.entry.etld1, DnsRecordType.A)
                assert response.status is DnsStatus.NXDOMAIN

    def test_ok_sites_resolve(self, eco):
        ok = [p for p in eco.plans.values() if p.status is SiteStatus.OK]
        assert ok
        for plan in ok[:40]:
            assert plan.website is not None
            a = eco.resolver.resolve(plan.website.main_host, DnsRecordType.A)
            assert a.status is DnsStatus.NOERROR
            assert a.addresses

    def test_subdomains_cname_to_service_suffix(self, eco):
        ok = next(p for p in eco.plans.values() if p.status is SiteStatus.OK)
        tenant = ok.tenant
        assert tenant is not None
        for placement in tenant.placements:
            response = eco.resolver.resolve(placement.fqdn, DnsRecordType.A)
            assert response.status is DnsStatus.NOERROR
            assert len(response.chain) == 2
            identified = eco.service_of_cname(response.canonical_name)
            assert identified is not None
            _, service = identified
            assert service.cname_suffix == placement.service.cname_suffix

    def test_aaaa_matches_placement_ground_truth(self, eco):
        checked = 0
        for plan in eco.plans.values():
            if plan.tenant is None or plan.status is not SiteStatus.OK:
                continue  # failure-injected sites answer with errors
            for placement in plan.tenant.placements:
                aaaa = eco.resolver.resolve(placement.fqdn, DnsRecordType.AAAA)
                if placement.has_aaaa:
                    assert aaaa.addresses, placement.fqdn
                else:
                    assert not aaaa.addresses, placement.fqdn
                checked += 1
        assert checked > 100

    def test_addresses_attributable_via_bgp(self, eco):
        ok = [p for p in eco.plans.values() if p.status is SiteStatus.OK]
        for plan in ok[:30]:
            a = eco.resolver.resolve(plan.website.main_host, DnsRecordType.A)
            org = eco.org_of_address(a.addresses[0])
            assert org is not None

    def test_split_brand_addresses_differ_by_org(self):
        """A bunny.net-style tenant's A and AAAA map to different orgs.
        The module universe (seed 3) has no split-brand placement with
        AAAA; seed 2 has 26."""
        eco = WebEcosystem(WebEcosystemConfig(num_sites=400, seed=2))
        found = False
        for plan in eco.plans.values():
            if plan.tenant is None:
                continue
            for placement in plan.tenant.placements:
                service = placement.service
                if service.v4_org_id == service.v6_org_id or not placement.has_aaaa:
                    continue
                a = eco.resolver.resolve(placement.fqdn, DnsRecordType.A)
                aaaa = eco.resolver.resolve(placement.fqdn, DnsRecordType.AAAA)
                if not a.addresses or not aaaa.addresses:
                    continue  # failure-injected site
                org_a = eco.org_of_address(a.addresses[0])
                org_aaaa = eco.org_of_address(aaaa.addresses[0])
                assert org_a != org_aaaa
                found = True
        assert found

    def test_rdns_canonical_names(self, eco):
        ok = next(p for p in eco.plans.values() if p.status is SiteStatus.OK)
        a = eco.resolver.resolve(ok.website.main_host, DnsRecordType.A)
        hostname = eco.rdns.lookup(a.addresses[0])
        assert hostname is not None
        assert hostname.startswith("edge-")

    def test_failure_injection_applied(self, eco):
        for plan in eco.plans.values():
            if plan.status is SiteStatus.DNS_FAILURE:
                response = eco.resolver.resolve(
                    plan.website.main_host, DnsRecordType.A
                )
                assert response.status is DnsStatus.SERVFAIL
            elif plan.status is SiteStatus.TLS_FAILURE:
                a = eco.resolver.resolve(plan.website.main_host, DnsRecordType.A)
                assert all(
                    eco.connectivity.connect_latency(addr) is None
                    for addr in a.addresses
                )

    def test_websites_have_pages_and_links(self, eco):
        for plan in list(eco.plans.values())[:50]:
            if plan.website is None:
                continue
            assert "/" in plan.website.pages
            assert len(plan.website.pages) >= 2
            assert plan.website.main_page.internal_links

    def test_third_parties_materialized(self, eco):
        assert eco.pool is not None
        for service in eco.pool.services[:20]:
            assert service.domain in eco.tenants

    def test_edge_addresses_shared(self, eco):
        """CDN edges are shared across tenants (bounded pool)."""
        seen: dict[Family, set] = {Family.V4: set(), Family.V6: set()}
        for plan in eco.plans.values():
            if plan.website is None:
                continue
            a = eco.resolver.resolve(plan.website.main_host, DnsRecordType.A)
            seen[Family.V4].update(a.addresses)
        # Far fewer distinct edge addresses than sites.
        assert len(seen[Family.V4]) < len(eco.plans)


def _assert_resources_shared(eco: WebEcosystem) -> None:
    """Every page embedding an equal resource holds the one object."""
    shared: dict = {}
    references = 0
    for plan in eco.plans.values():
        if plan.website is None:
            continue
        for page in plan.website.pages.values():
            for resource in page.resources:
                references += 1
                key = (resource.fqdn, resource.resource_type)
                assert shared.setdefault(key, resource) is resource
    assert len(shared) < references  # pages do share resources


class TestSharedResources:
    def test_equal_resources_are_one_object(self, eco):
        _assert_resources_shared(eco)

    def test_sharing_survives_a_store_round_trip(self, eco):
        _assert_resources_shared(load_value(dump_value(eco)))
