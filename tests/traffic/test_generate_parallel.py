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

from repro.flowmon.monitor import FlowLog, FlowMonitor
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


@pytest.fixture(scope="module")
def universe():
    return ServiceUniverse(build_service_catalog())


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


class TestFramePins:
    def test_frames_match_the_pinned_digests(self, universe):
        datasets = TrafficGenerator(universe, seed=5).generate_all(
            build_paper_residences(), num_days=DAYS, parallel=False
        )
        assert {
            name: _frame_digest(dataset.frame()) for name, dataset in datasets.items()
        } == FRAME_SHA256

    def test_rerace_under_longer_resolution_delay_matches_the_pins(self):
        from repro.datasets import build_residence_study
        from repro.datasets.scenarios import realize_residence_study
        from repro.happyeyeballs.algorithm import HappyEyeballsConfig

        baseline = build_residence_study(num_days=DAYS, seed=5, parallel=False)
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
            assert stats.external.total_flows == len(dataset.external_records())
            assert np.isfinite(stats.external.byte_fraction_overall)
