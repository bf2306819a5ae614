"""What-if benches: the counterfactual sweep at bench scale.

The sweep is the paper's thesis run forward: interventions move the
three adoption signals by *different* amounts.  The bench pins the two
headline facts -- NAT64 inflates the binary availability answer without
touching the census ground truth, and the sweep reuses the session's
traffic/census builds outright (zero rebuilds, by ``builds_total``).
"""

import numpy as np

from repro.telemetry import counts
from repro.util.tables import TextTable
from repro.whatif.analysis import scenario_summaries


def test_whatif_sweep_deltas(whatif_sweep, benchmark, report):
    summaries = benchmark.pedantic(
        lambda: scenario_summaries(whatif_sweep), rounds=1, iterations=1
    )

    table = TextTable(
        ["scenario", "perturbs", "d avail (mean)", "d avail (max @country)",
         "d readiness", "d usage"],
        title="What-if: per-scenario deltas vs baseline (bench scale)",
    )
    for summary in summaries:
        table.add_row([
            summary.scenario, ",".join(summary.layers),
            f"{summary.d_availability_mean:+.1%}",
            f"{summary.d_availability_max:+.1%} @{summary.d_availability_max_country}",
            f"{summary.d_readiness:+.1%}", f"{summary.d_usage:+.1%}",
        ])
    report("whatif_deltas", table.render())

    by_spec = {summary.scenario: summary for summary in summaries}
    # NAT64 lifts the deploying country's binary answer and nothing else.
    nat64 = by_spec["nat64:US"]
    assert nat64.d_availability_max > 0.2
    assert nat64.d_availability_max_country == "US"
    assert nat64.d_readiness == 0.0 and nat64.d_usage == 0.0
    # A policy block pushes availability down; readiness is untouched.
    block = by_spec["block:CN@0.8"]
    assert block.d_availability_max < 0.0
    assert block.d_readiness == 0.0
    # Accelerated takeoff only raises availability (later rounds see
    # more real AAAA records).
    accelerate = by_spec["accelerate:3"]
    assert accelerate.d_availability_mean > 0.0


def test_whatif_sweep_reuses_session_builds(whatif_sweep):
    """Observatory-only overlays rebuild zero traffic/census layers."""
    from repro.api import Study, StudyConfig
    from repro.whatif import OverlayStudy

    frame = whatif_sweep.frame
    assert len(frame) == whatif_sweep.num_scenarios * len(frame.countries)
    assert np.all(frame.d_readiness == 0.0)
    assert np.all(frame.d_usage == 0.0)
    # A fresh observatory-only overlay against the bench session costs
    # exactly one observatory rebuild -- nothing else.
    before = counts("builds_total")
    # An equal config shares the bench session's process caches.
    overlay = OverlayStudy(Study(StudyConfig()), "block:DE@0.55")
    overlay.observatory
    overlay.traffic
    overlay.census
    deltas = counts("builds_total") - before
    assert deltas == {"whatif:observatory": 1}
