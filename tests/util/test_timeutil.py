"""Tests for simulated time helpers."""

import pytest

from repro.util.timeutil import (
    DAY,
    HOUR,
    TimeWindow,
    day_index,
    day_of_week,
    hour_of_day,
    is_weekend,
)


class TestDayHelpers:
    def test_day_index(self):
        assert day_index(0.0) == 0
        assert day_index(DAY - 1) == 0
        assert day_index(DAY) == 1
        assert day_index(10 * DAY + 5) == 10

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            day_index(-1.0)
        with pytest.raises(ValueError):
            hour_of_day(-0.5)

    def test_hour_of_day(self):
        assert hour_of_day(0.0) == 0.0
        assert hour_of_day(HOUR * 13.5) == 13.5
        assert hour_of_day(DAY + HOUR * 2) == 2.0

    def test_day_of_week_starts_monday(self):
        assert day_of_week(0.0) == 0  # Monday
        assert day_of_week(5 * DAY) == 5  # Saturday
        assert day_of_week(7 * DAY) == 0  # next Monday

    def test_is_weekend(self):
        assert not is_weekend(4 * DAY)  # Friday
        assert is_weekend(5 * DAY)  # Saturday
        assert is_weekend(6 * DAY + HOUR)  # Sunday
        assert not is_weekend(7 * DAY)  # Monday


class TestTimeWindow:
    def test_duration_and_days(self):
        window = TimeWindow(start=0.0, end=3 * DAY)
        assert window.duration == 3 * DAY
        assert window.num_days == 3
        assert list(window.days()) == [0, 1, 2]

    def test_partial_days_counted(self):
        window = TimeWindow(start=DAY / 2, end=DAY + HOUR)
        assert window.num_days == 2
        assert list(window.days()) == [0, 1]

    def test_contains(self):
        window = TimeWindow(start=10.0, end=20.0)
        assert window.contains(10.0)
        assert window.contains(19.999)
        assert not window.contains(20.0)
        assert not window.contains(9.0)

    def test_from_days(self):
        window = TimeWindow.from_days(2, 5)
        assert window.start == 2 * DAY
        assert window.end == 7 * DAY
        assert window.num_days == 5

    def test_invalid(self):
        with pytest.raises(ValueError):
            TimeWindow(start=5.0, end=5.0)
        with pytest.raises(ValueError):
            TimeWindow.from_days(0, 0)

