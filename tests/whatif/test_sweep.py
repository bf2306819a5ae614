"""The sweep runner: grid fan-out, cache reuse at scale, delta shapes.

Includes the acceptance scenario: a 20-scenario sweep that rebuilds
zero traffic/census layers (proven by ``builds_total`` deltas) and
whose per-country deltas differ by intervention type -- NAT64 moves
availability but not readiness, ``dualstack`` moves readiness and
usage.
"""

import numpy as np
import pytest

from repro.api import Study, StudyConfig
from repro.telemetry import counts
from repro.whatif import DeltaFrame, run_sweep, sweep_grid
from repro.whatif.sweep import DELTA_DTYPE

SMALL = StudyConfig(
    days=5, sites=110, seed=11, probe_targets=50, probe_interval_days=2,
)

#: Twenty observatory-layer scenarios: every one forks the same census
#: and traffic, none may rebuild either.
TWENTY = tuple(
    [f"block:CN@{rate / 10:g}" for rate in range(1, 10)]
    + [f"block:US@{rate / 10:g}" for rate in range(1, 7)]
    + ["nat64:US", "nat64:DE", "nat64:FR", "accelerate:2", "accelerate:4"]
)


@pytest.fixture(scope="module")
def baseline():
    study = Study(SMALL)
    study.traffic, study.census, study.observatory
    return study


class TestTwentyScenarioSweep:
    def test_reuses_baseline_census_and_traffic(self, baseline):
        assert len(TWENTY) == 20
        before = counts("builds_total")
        sweep = run_sweep(baseline, TWENTY, parallel=False)
        for layer in ("traffic", "census", "whatif:traffic", "whatif:census"):
            assert counts("builds_total")[layer] == before.get(layer, 0), layer
        # every scenario rebuilt exactly its own observatory (first run
        # only; scenarios cached by other tests don't rebuild)
        assert sweep.num_scenarios == 20
        assert len(sweep.frame) == 20 * len(sweep.frame.countries)

    def test_observatory_only_deltas_leave_readiness_and_usage(self, baseline):
        sweep = run_sweep(baseline, TWENTY, parallel=False)
        assert np.all(sweep.frame.d_readiness == 0.0)
        assert np.all(sweep.frame.d_usage == 0.0)
        assert np.any(sweep.frame.d_availability != 0.0)


class TestDeltasDifferByInterventionType:
    @pytest.fixture(scope="class")
    def sweep(self, baseline):
        return run_sweep(
            baseline,
            ["nat64:US", "dualstack:Amazon", "ispv6", "hetimer:300"],
            parallel=False,
        )

    def test_nat64_moves_availability_not_readiness(self, sweep):
        view = sweep.frame.select(scenario="nat64:US")
        us = view.select(country="US")
        assert us.d_availability[0] > 0.05
        assert np.all(view.d_readiness == 0.0)
        assert np.all(view.d_usage == 0.0)
        # and only in the NAT64 country
        others = view.data[view.country != view.countries.index("US")]
        assert np.all(others["d_availability"] == 0.0)

    def test_dualstack_moves_readiness_and_usage(self, sweep, baseline):
        view = sweep.frame.select(scenario="dualstack:Amazon")
        assert view.d_readiness[0] > 0.0
        assert view.d_usage[0] > 0.0
        from repro.whatif import OverlayStudy

        overlay = OverlayStudy(baseline, "dualstack:Amazon")
        universe = overlay.traffic.universe
        amazon = [s for s in universe.catalog if "amazon" in s.name.lower()]
        assert amazon
        for service in amazon:
            assert service.ipv6_support == 1.0
            assert all(server.dual_stack for server in universe.servers_of(service))

    def test_ispv6_moves_usage_only(self, sweep):
        view = sweep.frame.select(scenario="ispv6")
        assert view.d_usage[0] > 0.05
        assert np.all(view.d_availability == 0.0)
        assert np.all(view.d_readiness == 0.0)

    def test_hetimer_moves_usage_only(self, sweep):
        view = sweep.frame.select(scenario="hetimer:300")
        assert view.d_usage[0] > 0.0
        assert np.all(view.d_availability == 0.0)
        assert np.all(view.d_readiness == 0.0)

    def test_baseline_signals_recorded(self, sweep):
        assert sweep.baseline.countries == sweep.frame.countries
        assert 0.0 <= sweep.baseline.readiness <= 1.0
        assert 0.0 <= sweep.baseline.usage <= 1.0
        assert np.allclose(sweep.frame.data["base_usage"], sweep.baseline.usage)


class TestParallelSweep:
    def test_parallel_equals_sequential_bit_identical(self, baseline):
        grid = ["nat64:US", "block:CN@0.7", "accelerate:3"]
        sequential = run_sweep(baseline, grid, parallel=False)
        parallel = run_sweep(baseline, grid, parallel=2)
        assert parallel.frame.scenarios == sequential.frame.scenarios
        assert parallel.frame.countries == sequential.frame.countries
        assert parallel.frame.data.tobytes() == sequential.frame.data.tobytes()

    def test_traffic_scenarios_in_workers_reuse_the_shipped_baseline(self):
        # A world of its own, so no overlay is cached before the workers run.
        config = StudyConfig(
            days=3, sites=105, seed=2718, probe_targets=40, probe_interval_days=2,
        )
        study = Study(config)
        study.traffic, study.census, study.observatory
        grid = ["ispv6:C", "hetimer:300"]
        before = counts("builds_total")
        parallel = run_sweep(study, grid, parallel=2)
        # Worker builds merge back into the parent's builds_total: each
        # overlay re-raced the shipped baseline, none generated traffic.
        assert counts("builds_total")["traffic"] == before.get("traffic", 0)
        assert counts("builds_total")["whatif:traffic"] == before.get("whatif:traffic", 0) + 2
        sequential = run_sweep(study, grid, parallel=False)
        assert parallel.frame.scenarios == sequential.frame.scenarios
        assert parallel.frame.data.tobytes() == sequential.frame.data.tobytes()

    def test_census_scenarios_in_workers_publish_over_the_shipped_baseline(self):
        # A world of its own, and the parallel sweep first, so every
        # overlay is built in a worker rather than inherited from the parent.
        config = StudyConfig(
            days=3, sites=105, seed=3141, probe_targets=40, probe_interval_days=2,
        )
        study = Study(config)
        study.traffic, study.census, study.observatory
        grid = ["dualstack:Amazon", "dualstack:Cloudflare+ispv6", "nat64:US"]
        before = counts("builds_total")
        parallel = run_sweep(study, grid, parallel=2)
        # Each census overlay published over the shipped baseline census.
        assert counts("builds_total")["census"] == before.get("census", 0)
        assert counts("builds_total")["whatif:census"] == before.get("whatif:census", 0) + 2
        sequential = run_sweep(study, grid, parallel=False)
        assert parallel.frame.scenarios == sequential.frame.scenarios
        assert parallel.frame.data.tobytes() == sequential.frame.data.tobytes()
        assert np.any(sequential.frame.select(scenario="dualstack:Amazon").d_availability != 0)


class TestSweepSpans:
    def test_each_scenario_runs_in_its_own_span(self):
        from repro.telemetry import span

        config = StudyConfig(
            days=3, sites=105, seed=3141, probe_targets=40, probe_interval_days=2,
        )
        study = Study(config)
        study.traffic, study.census, study.observatory
        with span("test:sweep") as root:
            run_sweep(study, ["nat64:US", "hetimer:300"], parallel=False)
        sweeps = [child for child in root.children if child.name.startswith("sweep:")]
        assert [child.name for child in sweeps] == ["sweep:nat64:US", "sweep:hetimer:300"]
        builds = [
            (child.name, child.labels.get("layer"))
            for child in sweeps[1].children
        ]
        assert ("build:traffic", "whatif:traffic") in builds


class TestDeltaFrame:
    def test_layout_and_selection(self, baseline):
        sweep = run_sweep(baseline, ["nat64:US", "nat64:DE"], parallel=False)
        frame = sweep.frame
        assert frame.data.dtype == DELTA_DTYPE
        assert len(frame) == 2 * len(frame.countries)
        one = frame.select(scenario="nat64:DE", country="DE")
        assert len(one) == 1
        assert one.d_availability[0] > 0.0

    def test_empty_assemble(self):
        frame = DeltaFrame.assemble((), (), [])
        assert len(frame) == 0

    def test_empty_grid_rejected(self, baseline):
        with pytest.raises(ValueError):
            run_sweep(baseline, [])


class TestSweepGrid:
    def test_singles_plus_pairs(self):
        grid = sweep_grid(["nat64:DE", "accelerate:2", "ispv6"])
        specs = [scenario.spec() for scenario in grid]
        assert specs[:3] == ["nat64:DE", "accelerate:2", "ispv6"]
        assert "nat64:DE+accelerate:2" in specs
        assert "nat64:DE+ispv6" in specs
        assert "accelerate:2+ispv6" in specs
        assert len(specs) == 6

    def test_no_pairs(self):
        grid = sweep_grid(["nat64:DE", "ispv6"], pairs=False)
        assert [scenario.spec() for scenario in grid] == ["nat64:DE", "ispv6"]
