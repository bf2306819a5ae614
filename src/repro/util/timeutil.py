"""Simulated time for the measurement study.

All substrates share one convention: time is a float count of seconds since
the start of the observation window ("sim-epoch").  Day 0 begins at t=0 and
is a Monday, matching how the paper's MSTL analysis indexes daily and weekly
seasonality.  Helper functions convert timestamps to day index, hour-of-day,
and day-of-week; :class:`TimeWindow` is a half-open observation window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0
WEEK = 7 * DAY

#: Day-of-week names, day 0 of the simulation being a Monday.
WEEKDAY_NAMES = (
    "Monday",
    "Tuesday",
    "Wednesday",
    "Thursday",
    "Friday",
    "Saturday",
    "Sunday",
)


def day_index(timestamp: float) -> int:
    """The zero-based day containing ``timestamp``."""
    if timestamp < 0:
        raise ValueError("timestamps before the sim epoch are not allowed")
    return int(timestamp // DAY)


def hour_of_day(timestamp: float) -> float:
    """Hour within the day as a float in [0, 24)."""
    if timestamp < 0:
        raise ValueError("timestamps before the sim epoch are not allowed")
    return (timestamp % DAY) / HOUR


def day_of_week(timestamp: float) -> int:
    """Day of week, 0=Monday .. 6=Sunday."""
    return day_index(timestamp) % 7


def is_weekend(timestamp: float) -> bool:
    return day_of_week(timestamp) >= 5


@dataclass(frozen=True)
class TimeWindow:
    """A half-open observation window [start, end) in sim seconds."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("window end must come after its start")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def num_days(self) -> int:
        """Number of (possibly partial) calendar days the window touches."""
        return day_index(self.end - 1e-9) - day_index(self.start) + 1

    def contains(self, timestamp: float) -> bool:
        return self.start <= timestamp < self.end

    def days(self) -> Iterator[int]:
        """Iterate over zero-based day indices covered by the window."""
        first = day_index(self.start)
        last = day_index(self.end - 1e-9)
        yield from range(first, last + 1)

    @classmethod
    def from_days(cls, start_day: int, num_days: int) -> "TimeWindow":
        """A window spanning ``num_days`` whole days starting at midnight."""
        if num_days <= 0:
            raise ValueError("a window must span at least one day")
        return cls(start=start_day * DAY, end=(start_day + num_days) * DAY)

