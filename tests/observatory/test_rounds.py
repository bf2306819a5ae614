"""Round runner: scheduling, determinism, and the pool fallback.

The acceptance-critical property: for a fixed seed, the parallel and
sequential round runners produce **bit-identical** ProbeFrames (every
vantage draws from its own seeded RNG substream, one sub-stream per
round, so placement and ordering cannot leak into the results).  The
frames themselves are pinned too: a SHA-256 of the frame and its
interning tables at three configurations.
"""

import hashlib
import pickle
import warnings

import pytest

from repro.observatory.rounds import (
    ObservatoryConfig,
    adoption_schedule,
    build_targets,
    run_observatory,
)
from repro.observatory.vantage import build_vantage_fleet
from repro.util.procpool import reset_pool_fallback_warnings, warn_pool_fallback
from repro.web.ecosystem import WebEcosystem, WebEcosystemConfig
from repro.whatif.spec import parse_scenario

SITES = 120
TARGETS = 80

#: Pinned configurations: (sites, seed, ObservatoryConfig overrides,
#: scenario spec or None).  The scenario's fleet, config and published
#: AAAA records apply as the session applies them.
PROBE_FRAME_CONFIGS = {
    "default": (300, 8, {"num_days": 14, "max_targets": 500}, None),
    "nat64-US_accelerate-3": (
        200, 21, {"num_days": 60, "probe_interval_days": 7, "max_targets": 120},
        "nat64:US+accelerate:3",
    ),
    "dualstack-Amazon": (300, 17, {"num_days": 14}, "dualstack:Amazon"),
}

#: Configuration -> SHA-256 of its probe frame (see
#: ``_probe_frame_digest``), as produced by the per-probe round runner
#: (one ``Prober.probe`` per vantage, target and round) the column
#: kernel replaced.
PROBE_FRAME_SHA256 = {
    "default": "43deef14ae88bbbbe8e9c5787983df398602de26c689294694d1332bedfce7bd",
    "nat64-US_accelerate-3":
        "5e7b6cba451d3a61651b1b176a6aeacbd60cc9e5c6a7107e03ad107ba74cf1cb",
    "dualstack-Amazon":
        "8d2fddfb5f1a3a1cdf518756a04aa8efbc7e91b268768a51fe44ce90eb0cbb6a",
}


@pytest.fixture(scope="module")
def ecosystem():
    return WebEcosystem(WebEcosystemConfig(num_sites=SITES, seed=11))


@pytest.fixture(scope="module")
def config():
    return ObservatoryConfig(
        num_days=21, probe_interval_days=7, max_targets=TARGETS, seed=11,
        parallel=False,
    )


def _probe_frame_digest(frame) -> str:
    digest = hashlib.sha256(frame.data.tobytes())
    for table in (frame.vantages, frame.countries, frame.targets):
        for name in table:
            digest.update(name.encode() + b"\0")
        digest.update(b"\1")
    return digest.hexdigest()


def observe_scenario(sites, seed, overrides, spec, parallel=False):
    """The observatory a session would build for ``spec`` over the
    universe at (``sites``, ``seed``), and the AAAA records it published:
    the scenario's fleet, config and records, applied in declared order."""
    ecosystem = WebEcosystem(WebEcosystemConfig(num_sites=sites, seed=seed))
    fleet = build_vantage_fleet()
    config = ObservatoryConfig(seed=seed, parallel=parallel, **overrides)
    published: dict = {}
    for intervention in parse_scenario(spec).interventions if spec else ():
        fleet = intervention.transform_fleet(fleet)
        config = intervention.transform_observatory_config(config)
        published.update(intervention.publish_aaaa(ecosystem))
    return run_observatory(ecosystem, config, fleet=fleet, published=published), published


class TestFramePins:
    @pytest.mark.parametrize("name", list(PROBE_FRAME_CONFIGS))
    def test_frame_matches_the_pinned_digest(self, name):
        frame = observe_scenario(*PROBE_FRAME_CONFIGS[name])[0].frame
        assert _probe_frame_digest(frame) == PROBE_FRAME_SHA256[name]


class TestScheduling:
    def test_round_days(self):
        config = ObservatoryConfig(num_days=21, probe_interval_days=7)
        assert config.round_days == (0, 7, 14)
        assert ObservatoryConfig(num_days=1).round_days == (0,)
        assert ObservatoryConfig(
            num_days=14, probe_interval_days=14
        ).round_days == (0,)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ObservatoryConfig(num_days=0)
        with pytest.raises(ValueError):
            ObservatoryConfig(probe_interval_days=0)
        with pytest.raises(ValueError):
            ObservatoryConfig(max_targets=0)


class TestTargets:
    def test_rank_order_and_cap(self, ecosystem):
        targets = build_targets(ecosystem, max_targets=TARGETS)
        assert len(targets) == TARGETS
        assert [t.rank for t in targets] == list(range(1, TARGETS + 1))

    def test_live_sites_probe_main_host(self, ecosystem):
        targets = build_targets(ecosystem, max_targets=TARGETS)
        for target in targets:
            plan = ecosystem.plan_of(target.etld1)
            if plan.website is not None:
                assert target.host == plan.website.main_host
            else:
                assert target.host == target.etld1

    def test_cap_beyond_universe(self, ecosystem):
        assert len(build_targets(ecosystem, max_targets=10_000)) == SITES


class TestDeterminism:
    def test_parallel_equals_sequential_bit_identical(self, ecosystem, config):
        sequential = run_observatory(ecosystem, config)
        parallel = run_observatory(
            ecosystem,
            ObservatoryConfig(
                num_days=config.num_days,
                probe_interval_days=config.probe_interval_days,
                max_targets=config.max_targets,
                seed=config.seed,
                parallel=2,
            ),
        )
        assert sequential.frame.data.tobytes() == parallel.frame.data.tobytes()
        assert sequential.frame.vantages == parallel.frame.vantages
        assert sequential.frame.countries == parallel.frame.countries
        assert sequential.frame.targets == parallel.frame.targets

    def test_workers_get_the_answer_table_not_the_zones(self, monkeypatch):
        """A transformed fleet and config plus published AAAA records:
        the pool's workers receive nothing from the DNS layer (no zone
        database) and still produce the sequential frame."""
        import repro.observatory.rounds as rounds_module

        pools = []
        real_map = rounds_module.map_in_pool

        def spy(*args, **kwargs):
            results = real_map(*args, **kwargs)
            pools.append((kwargs["initargs"], results is not None))
            return results

        monkeypatch.setattr(rounds_module, "map_in_pool", spy)
        world = (
            300, 17, {"num_days": 28, "probe_interval_days": 7},
            "nat64:US+accelerate:3+dualstack:Amazon",
        )
        sequential, _ = observe_scenario(*world)
        parallel, published = observe_scenario(*world, parallel=2)
        assert parallel.frame.data.tobytes() == sequential.frame.data.tobytes()
        assert (parallel.frame.vantages, parallel.frame.countries, parallel.frame.targets) == (
            sequential.frame.vantages, sequential.frame.countries, sequential.frame.targets,
        )
        initargs, ran_in_pool = pools[-1]
        assert ran_in_pool
        assert b"repro.net.dns" not in pickle.dumps(initargs)
        (table, *_), = initargs
        hosts = [i for i, target in enumerate(parallel.targets) if target.host in published]
        assert hosts and (table.adopt_day[hosts] == 0).all()

    def test_same_seed_same_frame(self, ecosystem, config):
        first = run_observatory(ecosystem, config)
        second = run_observatory(ecosystem, config)
        assert first.frame.data.tobytes() == second.frame.data.tobytes()

    def test_different_seed_differs(self, ecosystem, config):
        base = run_observatory(ecosystem, config)
        other = run_observatory(
            ecosystem,
            ObservatoryConfig(
                num_days=config.num_days,
                probe_interval_days=config.probe_interval_days,
                max_targets=config.max_targets,
                seed=12,
                parallel=False,
            ),
        )
        assert base.frame.data.tobytes() != other.frame.data.tobytes()

    def test_rows_cover_every_pair_every_round(self, ecosystem, config):
        obs = run_observatory(ecosystem, config)
        rounds = len(config.round_days)
        assert len(obs.frame) == rounds * len(obs.fleet) * len(obs.targets)
        assert obs.num_rounds == rounds

    def test_probing_does_not_touch_ecosystem_resolver(self, ecosystem, config):
        before = ecosystem.resolver.queries_issued
        run_observatory(ecosystem, config)
        assert ecosystem.resolver.queries_issued == before


class TestAdoptionDrift:
    """Mid-window adoption is what makes the takeoff curve take off."""

    def test_schedule_is_deterministic_and_bounded(self, ecosystem):
        targets = build_targets(ecosystem, max_targets=TARGETS)
        config = ObservatoryConfig(num_days=60, adoption_drift=0.5, seed=11)
        schedule = adoption_schedule(targets, config)
        assert schedule == adoption_schedule(targets, config)
        assert 0 < len(schedule) < len(targets)
        for day, addresses in schedule.values():
            assert 0 <= day < config.num_days
            assert all(address.is_v6 for address in addresses)

    def test_zero_drift_schedules_nothing(self, ecosystem):
        targets = build_targets(ecosystem, max_targets=TARGETS)
        config = ObservatoryConfig(num_days=60, adoption_drift=0.0)
        assert adoption_schedule(targets, config) == {}

    def test_availability_takes_off_across_rounds(self, ecosystem):
        obs = run_observatory(
            ecosystem,
            ObservatoryConfig(
                num_days=60, probe_interval_days=20, max_targets=TARGETS,
                adoption_drift=0.5, seed=11, parallel=False,
            ),
        )
        first = obs.frame.select(round_index=0, country="NL")
        last = obs.frame.select(round_index=obs.num_rounds - 1, country="NL")
        assert last.available.sum() > first.available.sum()

    def test_zero_drift_is_flat_for_deterministic_vantages(self, ecosystem):
        obs = run_observatory(
            ecosystem,
            ObservatoryConfig(
                num_days=60, probe_interval_days=20, max_targets=TARGETS,
                adoption_drift=0.0, seed=11, parallel=False,
            ),
        )
        per_round = [
            int(obs.frame.select(round_index=r, country="NL").available.sum())
            for r in range(obs.num_rounds)
        ]
        assert len(set(per_round)) == 1

    def test_drift_invisible_to_v4_only_vantages(self, ecosystem):
        obs = run_observatory(
            ecosystem,
            ObservatoryConfig(
                num_days=60, probe_interval_days=20, max_targets=TARGETS,
                adoption_drift=1.0, seed=11, parallel=False,
            ),
        )
        assert not obs.frame.select(country="ZA").available.any()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ObservatoryConfig(adoption_drift=1.5)


class TestPoolFallbackWarning:
    def test_broken_pool_warns_once(self, ecosystem, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        import repro.util.procpool as procpool_module

        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise BrokenProcessPool("no pool in this sandbox")

        monkeypatch.setattr(procpool_module, "ProcessPoolExecutor", ExplodingPool)
        reset_pool_fallback_warnings()
        config = ObservatoryConfig(
            num_days=7, max_targets=10, seed=11, parallel=2
        )
        with pytest.warns(RuntimeWarning, match="observatory probe rounds"):
            obs = run_observatory(ecosystem, config)
        assert len(obs.frame) == len(obs.fleet) * 10
        # One-time: a second fallback stays quiet.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_observatory(ecosystem, config)
        reset_pool_fallback_warnings()

    def test_warn_helper_is_once_per_process(self):
        reset_pool_fallback_warnings()
        with pytest.warns(RuntimeWarning):
            warn_pool_fallback("ctx-a", "reason")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warn_pool_fallback("ctx-a", "again")  # silent
            warn_pool_fallback("ctx-b", "reason")  # other subsystem: silent too
        reset_pool_fallback_warnings()
