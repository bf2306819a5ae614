"""Realizing draws: short windows with empty per-kind tables."""

from repro.flowmon.monitor import FlowMonitor
from repro.traffic.apps import build_service_catalog
from repro.traffic.draws import realize
from repro.traffic.generate import TrafficGenerator, router_config
from repro.traffic.residences import residences_by_name
from repro.traffic.universe import ServiceUniverse


def test_window_without_icmp_probes_realizes_and_seals():
    universe = ServiceUniverse(build_service_catalog())
    profile = residences_by_name()["E"]
    # One day of E at seed 1 has no ICMP probe and no LAN flow.
    dataset = TrafficGenerator(universe, seed=1).generate(profile, num_days=1)
    draws = dataset.draws
    assert draws.probes.size == 0 and draws.internal.size == 0
    assert draws.connections.size > 0

    log = realize(draws, dataset.devices, universe)
    assert len(log) == log.rows.size >= draws.connections.size  # sealed
    assert log.rows.tobytes() == dataset.monitor.log.rows.tobytes()
    assert log.addresses == dataset.monitor.log.addresses
    frame = FlowMonitor(router_config(profile), log).frame()
    assert len(frame) == log.rows.size
    assert (frame.protocol != 1).all()  # no ICMP rows appeared
