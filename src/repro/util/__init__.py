"""Shared utilities: deterministic RNG streams, statistics, time, tables.

These helpers are deliberately dependency-light so that every substrate
(network, traffic, web, cloud) and the analysis core can share one set of
idioms for randomness, empirical statistics, and simulated time.
"""

from repro.util.procpool import (
    POOL_UNAVAILABLE_ERRNOS,
    fallback_contexts,
    map_in_pool,
    resolve_worker_count,
    resubmitted_shards,
    warn_pool_fallback,
    warn_shard_resubmission,
)
from repro.util.rng import RngStream, derive_seed
from repro.util.stats import (
    BoxStats,
    Cdf,
    HolmBonferroni,
    WilcoxonResult,
    box_stats,
    empirical_cdf,
    quantile,
    wilcoxon_signed_rank,
)
from repro.util.tables import TextTable, format_count_pct, render_series
from repro.util.timeutil import (
    DAY,
    HOUR,
    MINUTE,
    WEEK,
    TimeWindow,
    day_index,
    day_of_week,
    hour_of_day,
)

__all__ = [
    "POOL_UNAVAILABLE_ERRNOS",
    "fallback_contexts",
    "map_in_pool",
    "resolve_worker_count",
    "resubmitted_shards",
    "warn_pool_fallback",
    "warn_shard_resubmission",
    "RngStream",
    "derive_seed",
    "BoxStats",
    "Cdf",
    "HolmBonferroni",
    "WilcoxonResult",
    "box_stats",
    "empirical_cdf",
    "quantile",
    "wilcoxon_signed_rank",
    "TextTable",
    "format_count_pct",
    "render_series",
    "DAY",
    "HOUR",
    "MINUTE",
    "WEEK",
    "TimeWindow",
    "day_index",
    "day_of_week",
    "hour_of_day",
]
