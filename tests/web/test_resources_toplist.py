"""Tests for the third-party pool, site model, and top list."""

import collections

import pytest

from repro.util.rng import RngStream
from repro.web.resources import (
    CATEGORY_IPV6_RATE,
    CATEGORY_RESOURCE_TYPES,
    CATEGORY_WEIGHTS,
    ResourceCategory,
    ResourceType,
    ThirdPartyPool,
)
from repro.web.sites import EmbeddedResource, Page, Website
from repro.web.toplist import TopList, TopListEntry


class TestCategoryTables:
    def test_weights_sum_to_one(self):
        assert abs(sum(CATEGORY_WEIGHTS.values()) - 1.0) < 1e-9

    def test_ads_dominant_category(self):
        assert max(CATEGORY_WEIGHTS, key=CATEGORY_WEIGHTS.get) is ResourceCategory.ADS

    def test_all_categories_covered(self):
        assert set(CATEGORY_WEIGHTS) == set(ResourceCategory)
        assert set(CATEGORY_IPV6_RATE) == set(ResourceCategory)
        assert set(CATEGORY_RESOURCE_TYPES) == set(ResourceCategory)

    def test_cdn_leads_ads_lag(self):
        assert (
            CATEGORY_IPV6_RATE[ResourceCategory.CONTENT_DELIVERY]
            > CATEGORY_IPV6_RATE[ResourceCategory.ADS]
        )


class TestThirdPartyPool:
    def make_pool(self, num_head=30, num_tail=200, seed=1) -> ThirdPartyPool:
        return ThirdPartyPool(num_head, num_tail, RngStream(seed, "pool"))

    def test_sizes(self):
        pool = self.make_pool()
        assert len(pool) == 230

    def test_validation(self):
        with pytest.raises(ValueError):
            ThirdPartyPool(0, 10, RngStream(1))
        with pytest.raises(ValueError):
            ThirdPartyPool(5, 5, RngStream(1), tail_popularity=0)

    def test_domains_unique_and_own_etld1(self):
        from repro.net.psl import default_psl

        pool = self.make_pool()
        psl = default_psl()
        domains = [s.domain for s in pool.services]
        assert len(domains) == len(set(domains))
        for domain in domains[:50]:
            assert psl.etld_plus_one(domain) == domain

    def test_draw_skew(self):
        """Head services dominate draws (the span head of Figure 8)."""
        pool = self.make_pool()
        counts = collections.Counter(pool.draw().domain for _ in range(3000))
        head_draws = sum(
            counts[s.domain] for s in pool.services if s.popularity > 1e-3
        )
        assert head_draws > 2000

    def test_draw_category_filter(self):
        pool = self.make_pool()
        ads_only = frozenset({ResourceCategory.ADS})
        for _ in range(50):
            assert pool.draw(ads_only).category is ResourceCategory.ADS

    def test_draw_embeds_distinct(self):
        pool = self.make_pool()
        embeds = pool.draw_embeds(10.0)
        domains = [s.domain for s in embeds]
        assert len(domains) == len(set(domains))

    def test_nested_dependencies_reference_pool(self):
        pool = self.make_pool(num_head=40)
        for service in pool.services:
            for dep in service.nested_dependencies:
                assert dep in pool
                assert dep != service.domain

    def test_resource_type_draw_respects_category(self):
        pool = self.make_pool()
        rng = RngStream(9)
        trackers = [s for s in pool.services if s.category is ResourceCategory.TRACKERS]
        if trackers:
            types = {trackers[0].draw_resource_type(rng) for _ in range(100)}
            allowed = set(CATEGORY_RESOURCE_TYPES[ResourceCategory.TRACKERS])
            assert types <= allowed


class TestSiteModel:
    def test_embedded_resource_validation(self):
        with pytest.raises(ValueError):
            EmbeddedResource("no-dots", ResourceType.IMAGE)

    def test_page_path_validation(self):
        with pytest.raises(ValueError):
            Page(path="relative")

    def test_website_main_page(self):
        site = Website(etld1="x.com", rank=1, main_host="www.x.com")
        with pytest.raises(KeyError):
            _ = site.main_page
        site.pages["/"] = Page(path="/")
        assert site.main_page.path == "/"

    def test_website_rank_validation(self):
        with pytest.raises(ValueError):
            Website(etld1="x.com", rank=0, main_host="www.x.com")


class TestTopList:
    def test_generate(self):
        toplist = TopList.generate(50, RngStream(1, "toplist"))
        assert len(toplist) == 50
        assert toplist.entries[0].rank == 1
        domains = [e.etld1 for e in toplist]
        assert len(domains) == len(set(domains))

    def test_top_slice(self):
        toplist = TopList.generate(50, RngStream(1, "toplist"))
        assert len(toplist.top(10)) == 10
        assert len(toplist.top(500)) == 50
        with pytest.raises(ValueError):
            toplist.top(0)

    def test_rank_contiguity_enforced(self):
        with pytest.raises(ValueError):
            TopList(entries=[TopListEntry(2, "x.com")])

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            TopListEntry(0, "x.com")

    def test_generate_validation(self):
        with pytest.raises(ValueError):
            TopList.generate(0, RngStream(1))
