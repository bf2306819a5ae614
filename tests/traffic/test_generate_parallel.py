"""Parallel generation must be indistinguishable from sequential.

Determinism rests on two properties the tests below pin down: every
residence draws from its own seeded RNG substream (so generation order
cannot matter), and each residence allocates source ports from its own
range (so a worker process starts from the same state as the sequential
path).  The frames themselves are pinned too: a SHA-256 per residence of
the attributed frame generated at seed 5 over 5 days, and of the same
draws re-raced under a 300 ms Happy Eyeballs resolution delay.
"""

import hashlib

import numpy as np
import pytest

from reference_models import records
from repro.flowmon.monitor import FlowLog, FlowMonitor, FlowScope
from repro.traffic.apps import build_service_catalog
from repro.traffic.draws import TrafficDraws
from repro.traffic.generate import TrafficGenerator, _generate_residence
from repro.traffic.residences import build_paper_residences
from repro.traffic.universe import ServiceUniverse

DAYS = 5

#: Residence -> SHA-256 of its attributed frame (see ``_frame_digest``)
#: at seed 5 over 5 days, as produced by the object-graph generator
#: (conntrack events into record lists) this columnar one replaced.
FRAME_SHA256 = {
    "A": "d46b9a9f40946c6c4796dfd172f4cdc8efb0dd755b21758dcb8d541261ec46f5",
    "B": "2c001cc04b9a4b8e6589ae39536724bcc7c9bcc7ad5890d7556bd1fa2917054c",
    "C": "75d3b36c8fe38e91d70dd8b214ccb1af02752df27338470ec259a2e53e848467",
    "D": "fbc2d8fe1d32c87360cbc525b2cd2c2092d46a64bb06dd43921b55feb94049ea",
    "E": "beebfdc08452335f6b6e8586eeb92c2273148fec8505d3bb2c14c44db95f036d",
}

#: Residence -> SHA-256 of its attributed frame at seed 5 over 5 days
#: under a 300 ms resolution delay, as produced by generating afresh
#: with that Happy Eyeballs config (racing connection by connection),
#: before traffic what-ifs re-raced the baseline's draws instead.
HETIMER_FRAME_SHA256 = {
    "A": "c72e57220d20727c69740779933b4ebc89fef58dd74da80be8b04ce573d5c47c",
    "B": "61d390f0bb338e2c60db328d302ffb6484f220e9e7d1b946eef4884e2a996a0f",
    "C": "9f2eabfcbeab02ebfa1555b78cd48c95986aa2b263c5f4047b897c82c7e52b97",
    "D": "e86140ea34ac49f3688212c5a508511793beda5740839a425efd68c8d404b091",
    "E": "50805dc259c53e7c7725ad9f3f973f645706f6d355cfbfd7a88d87971f23a877",
}

#: Overlay spec -> residence -> SHA-256 of its attributed frame at seed 5
#: over 5 days, re-raced in that world (each universe built afresh from
#: the transformed catalog).
OVERLAY_FRAME_SHA256 = {
    "ispv6": {
        "A": "96087587d2750fc0577004970d93a162862206943ed725c36397b78b3ef6060f",
        "B": "e97925aae33b7aa1533e6cbecf265196b8418b469a5ea815cdc74ee34d2c73f4",
        "C": "94815f7e405c8c5e9fe7c136321e2b73ba9ed181b831ad7be63647e94676880f",
        "D": "fbc2d8fe1d32c87360cbc525b2cd2c2092d46a64bb06dd43921b55feb94049ea",
        "E": "5d89f5e994d87c06bf09821c9e60c5c759ddea4a84860caeedb7771a1d066c8d",
    },
    "dualstack:Amazon": {
        "A": "1efa1054fc2345fbce4cea93987757faefda6ca74b18da73bc077f24c097dc91",
        "B": "0234d1d9488cf1229fed4a744dd4f82121c57441358c653eedb5dfe1f6a068fc",
        "C": "eae6ca61eee0eb48e2307ca2f67d514fdf58aa55e8a0491301f2613f3f5dae60",
        "D": "fbc2d8fe1d32c87360cbc525b2cd2c2092d46a64bb06dd43921b55feb94049ea",
        "E": "beebfdc08452335f6b6e8586eeb92c2273148fec8505d3bb2c14c44db95f036d",
    },
}

#: World (``baseline`` or an overlay spec) -> residence -> SHA-256 of its
#: flow log (see ``_log_digest``) at seed 5 over 5 days.
LOG_SHA256 = {
    "baseline": {
        "A": "b3ab89da8b6276c12c925afcd89bdeb69a9c60114136eccb3efa47ef1a9f8950",
        "B": "571466e347dc3cfe6d677714ce67e5ef79950c4088074fca931e7b7a04d0d1eb",
        "C": "36485b5a7f4d587f0ed4be521b8ccb88f96858c787e7af6f82628690c72c1954",
        "D": "3a7721b12aa759f4a7fea8a0508818ce0a0e8cd4d50520132fb82a76cd10208a",
        "E": "6a6ad292b8d1f69cb074eb2e741fb769bb462b8c125cc0ef681bf4263ea1f8e2",
    },
    "hetimer:300": {
        "A": "4bd3dde864eb62a96d5f0a2e83bf9cdea73f08f391d91a2e29a9f429d88eddfa",
        "B": "f6661915bb7ee0c7ccd34ecdda538dc75425e9bd6aafd52ff8e053f953101df0",
        "C": "5230a03eae93ce83bc6177df60c5cd836ad4b9bdf86c448c11f85d9eeb65aa92",
        "D": "f2f9546eac5820d3e42e6824b85a93137ea1279f9aa2142fdee8fa8c7c47a4c5",
        "E": "e5b96d41a783eb41b5057dcddb40b40a67f0d44b2ee4c9fd9cb29b2444bf7503",
    },
    "ispv6": {
        "A": "4f3ea7addbeb2276e095c4d3e6107831fffde366081ae0d197db07434ab94453",
        "B": "86f146e5f0314c1fafcbb259db497f26844306f7b5725770ea279ade82d67d7a",
        "C": "1b289816033ac959ef58392f38ab1ad0e024e69b68daca2845571b060f25cb76",
        "D": "3a7721b12aa759f4a7fea8a0508818ce0a0e8cd4d50520132fb82a76cd10208a",
        "E": "a71057c1b068ca0e202b1e7a2c1a2bf1c51efdb7ebc34731aef23dfe9d3d9ae8",
    },
    "dualstack:Amazon": {
        "A": "b55f7737b8ea349fb80284c8511ffa4bcd96a93278f2e87b8e670290acea1da4",
        "B": "2c45543f2d3a780d0e9400fbfef20549cddd701177f383641fd08c1ceffd029e",
        "C": "1d4cfab920477dea0701ff08eef589dd3f0e3f11d0ef28a1b040f923234bec8a",
        "D": "3a7721b12aa759f4a7fea8a0508818ce0a0e8cd4d50520132fb82a76cd10208a",
        "E": "6a6ad292b8d1f69cb074eb2e741fb769bb462b8c125cc0ef681bf4263ea1f8e2",
    },
}


@pytest.fixture(scope="module")
def universe():
    return ServiceUniverse(build_service_catalog())


@pytest.fixture(scope="module")
def baseline():
    from repro.datasets import build_residence_study

    return build_residence_study(num_days=DAYS, seed=5, parallel=False)


def _rerace(baseline, spec: str):
    """``baseline``'s draws re-raced in the world of intervention ``spec``."""
    from repro.datasets.scenarios import realize_residence_study
    from repro.whatif.spec import parse_intervention

    intervention = parse_intervention(spec)
    return realize_residence_study(
        baseline,
        intervention.transform_catalog(list(baseline.universe.catalog)),
        intervention.transform_profiles(
            [dataset.profile for dataset in baseline.datasets.values()]
        ),
        intervention.transform_he_config(None),
    )


def _fingerprint(dataset):
    """Every observable column of the generated frame, plus peer strings."""
    frame = dataset.frame()
    return (
        frame.data.tobytes(),
        tuple(str(p) for p in frame.peers),
        frame.peer_asn.tobytes(),
        frame.peer_domain.tobytes(),
        frame.domains,
    )


def _frame_digest(frame) -> str:
    digest = hashlib.sha256(frame.data.tobytes())
    for peer in frame.peers:
        digest.update(str(peer).encode() + b"\0")
    digest.update(frame.peer_asn.tobytes())
    digest.update(frame.peer_domain.tobytes())
    for domain in frame.domains:
        digest.update(domain.encode() + b"\0")
    return digest.hexdigest()


def _log_digest(log) -> str:
    """The log's row bytes, then its interned address strings in order."""
    digest = hashlib.sha256(log.rows.tobytes())
    for address in log.addresses:
        digest.update(str(address).encode() + b"\0")
    return digest.hexdigest()


class TestFramePins:
    def test_frames_match_the_pinned_digests(self, universe):
        datasets = TrafficGenerator(universe, seed=5).generate_all(
            build_paper_residences(), num_days=DAYS, parallel=False
        )
        assert {
            name: _frame_digest(dataset.frame()) for name, dataset in datasets.items()
        } == FRAME_SHA256

    def test_rerace_under_longer_resolution_delay_matches_the_pins(self, baseline):
        from repro.datasets.scenarios import realize_residence_study
        from repro.happyeyeballs.algorithm import HappyEyeballsConfig

        overlay = realize_residence_study(
            baseline,
            list(baseline.universe.catalog),
            [dataset.profile for dataset in baseline.datasets.values()],
            HappyEyeballsConfig(resolution_delay=0.3),
        )
        assert {
            name: _frame_digest(dataset.frame())
            for name, dataset in overlay.datasets.items()
        } == HETIMER_FRAME_SHA256

    @pytest.mark.parametrize("spec", sorted(OVERLAY_FRAME_SHA256))
    def test_overlay_frames_match_the_pins(self, baseline, spec):
        overlay = _rerace(baseline, spec)
        assert {
            name: _frame_digest(dataset.frame())
            for name, dataset in overlay.datasets.items()
        } == OVERLAY_FRAME_SHA256[spec]

    @pytest.mark.parametrize("world", sorted(LOG_SHA256))
    def test_logs_match_the_pins(self, baseline, world):
        study = baseline if world == "baseline" else _rerace(baseline, world)
        assert {
            name: _log_digest(dataset.monitor.log)
            for name, dataset in study.datasets.items()
        } == LOG_SHA256[world]


class TestParallelDeterminism:
    def test_parallel_equals_sequential(self, universe):
        profiles = build_paper_residences()
        sequential = TrafficGenerator(universe, seed=5).generate_all(
            profiles, num_days=DAYS, parallel=False
        )
        parallel = TrafficGenerator(universe, seed=5).generate_all(
            profiles, num_days=DAYS, parallel=2
        )
        assert list(sequential) == list(parallel)
        for name in sequential:
            assert _fingerprint(sequential[name]) == _fingerprint(parallel[name])

    def test_worker_entry_matches_inline(self, universe):
        profile = build_paper_residences()[0]
        inline = TrafficGenerator(universe, seed=5).generate(profile, num_days=DAYS)
        name, log, devices, draws = _generate_residence(
            (universe.catalog, 5, profile, DAYS)
        )
        assert name == profile.name
        assert len(devices) == len(inline.devices)
        assert type(log) is FlowLog
        assert log.rows.tobytes() == inline.monitor.log.rows.tobytes()
        assert log.addresses == inline.monitor.log.addresses
        assert type(draws) is TrafficDraws
        for table in ("connections", "probes", "internal", "order"):
            got_table = getattr(draws, table)
            assert got_table.tobytes() == getattr(inline.draws, table).tobytes()
        got = FlowMonitor(inline.monitor.config, log).frame()
        want = inline.monitor.frame()
        assert got.data.tobytes() == want.data.tobytes()
        assert tuple(str(p) for p in got.peers) == tuple(
            str(p) for p in want.peers
        )

    def test_generation_order_independent(self, universe):
        """A residence generated alone equals the same residence generated
        after others (per-residence RNG substreams + port ranges)."""
        profiles = build_paper_residences()
        all_datasets = TrafficGenerator(universe, seed=5).generate_all(
            profiles, num_days=DAYS, parallel=False
        )
        last = profiles[-1]
        alone = TrafficGenerator(universe, seed=5).generate(last, num_days=DAYS)
        assert _fingerprint(alone) == _fingerprint(all_datasets[last.name])

    def test_parallel_datasets_share_parent_universe(self, universe):
        profiles = build_paper_residences()[:2]
        datasets = TrafficGenerator(universe, seed=5).generate_all(
            profiles, num_days=DAYS, parallel=2
        )
        for dataset in datasets.values():
            assert dataset.universe is universe


class TestPoolFallbackWarning:
    def test_broken_pool_warns_once_and_falls_back(self, universe, monkeypatch):
        """A dead pool degrades to the sequential path with one warning."""
        import warnings

        from concurrent.futures.process import BrokenProcessPool

        import repro.util.procpool as procpool_module
        from repro.util.procpool import reset_pool_fallback_warnings

        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise BrokenProcessPool("no pool in this sandbox")

        monkeypatch.setattr(procpool_module, "ProcessPoolExecutor", ExplodingPool)
        reset_pool_fallback_warnings()
        profiles = build_paper_residences()[:2]
        with pytest.warns(RuntimeWarning, match="traffic generation"):
            datasets = TrafficGenerator(universe, seed=5).generate_all(
                profiles, num_days=2, parallel=2
            )
        assert list(datasets) == [p.name for p in profiles]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second fallback stays quiet
            TrafficGenerator(universe, seed=5).generate_all(
                profiles, num_days=2, parallel=2
            )
        reset_pool_fallback_warnings()

    def test_unrelated_oserror_propagates(self, universe, monkeypatch):
        """OSErrors that are not pool-creation failures are not swallowed."""
        import repro.util.procpool as procpool_module

        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError(9999, "not a pool problem")

        monkeypatch.setattr(procpool_module, "ProcessPoolExecutor", ExplodingPool)
        with pytest.raises(OSError, match="not a pool problem"):
            TrafficGenerator(universe, seed=5).generate_all(
                build_paper_residences()[:2], num_days=2, parallel=2
            )


class TestWorkerResolution:
    def test_resolve_workers(self):
        resolve = TrafficGenerator._resolve_workers
        assert resolve(False, 5) == 1
        assert resolve(0, 5) == 1
        assert resolve(1, 5) == 1
        assert resolve(3, 5) == 3
        assert resolve(8, 2) == 2  # never more workers than residences
        assert resolve(None, 5) >= 1
        assert resolve(True, 5) >= 1

    def test_frames_detached_from_workers_are_usable(self, universe):
        """Analysis runs against worker-built datasets (pickle round-trip)."""
        from repro.core.client import compute_residence_stats

        profiles = build_paper_residences()[:2]
        datasets = TrafficGenerator(universe, seed=5).generate_all(
            profiles, num_days=DAYS, parallel=2
        )
        for dataset in datasets.values():
            stats = compute_residence_stats(dataset)
            external = records(dataset.monitor, scope=FlowScope.EXTERNAL)
            assert stats.external.total_flows == len(external)
            assert np.isfinite(stats.external.byte_fraction_overall)
