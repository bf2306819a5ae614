"""Shared fixtures for the benchmark harness, plus per-phase timing.

Every table and figure of the paper has one bench module.  The expensive
universes (the five-residence traffic study and the web census) come from
one bench-scale :class:`repro.api.Study` session, so they are built once
per process and shared; each bench times only its *analysis* and emits
the paper-style rows/series both to stdout and to
``benchmarks/results/<name>.txt`` so the regenerated "figures" survive
output capture.

The harness also records wall times -- the expensive builds (traffic,
census, cloud attribution) via the session fixtures and every bench's
analysis+render via the pytest report hook -- and prints them as a
phase table in the terminal summary.  It writes no timing file: the
table is one uncalibrated run, and calibrated comparisons across
commits come from ``perfbench/``.

Scale note: the paper measures 273 days of traffic and crawls 100k sites;
the bench scale (154 days, 4000 sites) reproduces every qualitative shape
in minutes.  Pass the paper scale through ``StudyConfig`` when time
permits.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, TypeVar

import pytest

from repro.api import Study, StudyConfig

T = TypeVar("T")

RESULTS_DIR = Path(__file__).parent / "results"

#: One session at the bench scale; every bench shares its builds.
SESSION = Study(StudyConfig())

#: Phase name -> wall seconds, printed in the terminal summary.
PHASES: dict[str, float] = {}


def record_phase(name: str, thunk: Callable[[], T]) -> T:
    """Run ``thunk`` and record its wall time under ``name`` (first call
    only: later calls hit the session cache and would record ~0)."""
    if name in PHASES:
        return thunk()
    start = time.perf_counter()
    value = thunk()
    PHASES[name] = time.perf_counter() - start
    return value


def emit(name: str, text: str) -> None:
    """Print a rendered table/series and persist it under results/."""
    print(f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{text}")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def residence_study():
    """154 days of traffic at residences A-E (covers spring break)."""
    return record_phase("build:traffic", lambda: SESSION.traffic)


@pytest.fixture(scope="session")
def census():
    """The 4000-site census with five link clicks per site."""
    return record_phase("build:census", lambda: SESSION.census)


@pytest.fixture(scope="session")
def census_views(census):
    """Per-FQDN cloud attribution of the census."""
    return record_phase("build:cloud", lambda: SESSION.cloud)


@pytest.fixture(scope="session")
def observatory(census):
    """Probe rounds from the vantage fleet over the census universe."""
    return record_phase("build:observatory", lambda: SESSION.observatory)


#: The bench sweep grid: observatory-layer scenarios only, so the sweep
#: reuses the session's traffic and census builds outright and its cost
#: is pure overlay work.
WHATIF_BENCH_GRID = ("nat64:US", "block:CN@0.8", "accelerate:3")


@pytest.fixture(scope="session")
def whatif_sweep(observatory, residence_study):
    """A cache-reusing counterfactual sweep against the bench session.

    Depends on the baseline layer fixtures so their builds are recorded
    under their own phases; ``whatif:sweep`` then times pure overlay
    work (the cache-reuse contract, measured).
    """
    from repro.whatif.sweep import run_sweep

    return record_phase(
        "whatif:sweep",
        lambda: run_sweep(SESSION, WHATIF_BENCH_GRID, parallel=False),
    )


@pytest.fixture()
def report():
    return emit


def pytest_runtest_logreport(report):
    """Record each bench's analysis+render wall time as its own phase."""
    if report.when == "call":
        PHASES[f"bench:{report.nodeid}"] = report.duration


def pytest_terminal_summary(terminalreporter):
    """Print the phase timings (wall seconds, one run, this machine)."""
    if not PHASES:
        return
    config = SESSION.config
    terminalreporter.section(
        f"bench phases (days={config.days}, sites={config.sites}, seed={config.seed})"
    )
    width = max(len(name) for name in PHASES)
    for name, seconds in sorted(PHASES.items()):
        terminalreporter.write_line(f"{name:<{width}}  {seconds:9.3f} s")
    terminalreporter.write_line(f"{'total':<{width}}  {sum(PHASES.values()):9.3f} s")
