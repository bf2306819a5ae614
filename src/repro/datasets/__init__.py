"""Canonical calibrated scenarios shared by examples, tests, and benches."""

from repro.datasets.scenarios import (
    BENCH_CENSUS_SITES,
    BENCH_TRAFFIC_DAYS,
    CLI_CENSUS_SITES,
    CLI_TRAFFIC_DAYS,
    PAPER_CENSUS_SITES,
    PAPER_OBSERVATION_DAYS,
    SCALE_PRESETS,
    ScalePreset,
    build_census,
    build_residence_study,
    census_scenario,
)

__all__ = [
    "BENCH_CENSUS_SITES",
    "BENCH_TRAFFIC_DAYS",
    "CLI_CENSUS_SITES",
    "CLI_TRAFFIC_DAYS",
    "PAPER_CENSUS_SITES",
    "PAPER_OBSERVATION_DAYS",
    "SCALE_PRESETS",
    "ScalePreset",
    "build_census",
    "build_residence_study",
    "census_scenario",
]
