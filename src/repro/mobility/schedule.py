"""Daily schedules by occupation.

Each user-day becomes an array of location states, one per 10-minute slot.
Schedules reproduce the commute structure behind the paper's temporal
patterns: cellular peaks at 08:00 / 12:00 / 19-21:00 from public-transport
commutes, WiFi peaking 23:00-01:00 at home (§3.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.constants import SAMPLES_PER_DAY, SAMPLES_PER_HOUR
from repro.errors import ConfigurationError
from repro.population.demographics import Occupation


class LocationState(enum.IntEnum):
    """Where a user is during one slot."""

    HOME = 0
    COMMUTE = 1  # on public transport / at a station
    WORK = 2  # office, campus, or own business premises
    PUBLIC_VENUE = 3  # cafe, shop, metro-station concourse
    OUT = 4  # outdoors / errands without public WiFi context


DaySchedule = np.ndarray  # int8 array of LocationState codes, length 144


def _slot(hour: float) -> int:
    """Slot-of-day index for a fractional hour, clamped to the day."""
    # Pure-python clamp: this runs tens of thousands of times per shard
    # and scalar np.clip dominates schedule generation otherwise.
    slot = round(hour * SAMPLES_PER_HOUR)
    if slot < 0:
        return 0
    return slot if slot < SAMPLES_PER_DAY else SAMPLES_PER_DAY


#: An all-home day, copied per call (cheaper than ``np.full``).
_HOME_DAY = np.full(SAMPLES_PER_DAY, int(LocationState.HOME), dtype=np.int8)


def _fill(schedule: np.ndarray, start_h: float, end_h: float, state: LocationState) -> None:
    schedule[_slot(start_h):_slot(end_h)] = int(state)


@dataclass
class ScheduleGenerator:
    """Generates day schedules for one user.

    Per-user habits (commute hour, evening return, outing propensity) are
    drawn once at construction so days correlate the way real routines do;
    per-day jitter is applied on each call.
    """

    occupation: Occupation
    rng: np.random.Generator
    is_commuter: bool = True

    def __post_init__(self) -> None:
        rng = self.rng
        #: Half the self-owned run their business from home (home WiFi all day).
        self.works_from_home = (
            self.occupation is Occupation.SELF_OWNED and rng.random() < 0.5
        )
        self.leave_hour = float(min(max(rng.normal(7.8, 0.6), 5.5), 10.5))
        self.commute_minutes = float(min(max(rng.normal(55.0, 20.0), 15.0), 120.0))
        self.return_leave_hour = float(min(max(rng.normal(18.3, 1.1), 16.0), 22.0))
        self.lunch_out_p = float(rng.beta(2.5, 2.0))
        self.evening_venue_p = float(rng.beta(2.0, 4.0))
        self.weekend_outing_p = float(rng.beta(2.5, 2.5))
        self.errand_p = float(rng.beta(2.0, 2.5))

    def day(self, weekday: int, rng: np.random.Generator) -> DaySchedule:
        """Schedule for one day. ``weekday``: Monday=0 .. Sunday=6."""
        if not 0 <= weekday <= 6:
            raise ConfigurationError(f"bad weekday {weekday}")
        weekend = weekday >= 5
        if self.occupation is Occupation.HOUSEWIFE:
            return self._home_based_day(weekend, rng)
        if self.occupation is Occupation.PART_TIMER:
            return self._shift_day(weekend, rng)
        if self.occupation is Occupation.SELF_OWNED:
            return self._local_work_day(weekend, rng)
        if self.occupation in (Occupation.OTHER,):
            if rng.random() < 0.5:
                return self._home_based_day(weekend, rng)
            return self._shift_day(weekend, rng)
        # Commuters: government/office/engineer/worker/professional/student.
        if weekend:
            return self._weekend_day(rng)
        return self._commuter_day(rng)

    # ------------------------------------------------------------------

    def _commuter_day(self, rng: np.random.Generator) -> DaySchedule:
        schedule = _HOME_DAY.copy()
        leave = self.leave_hour + rng.normal(0.0, 0.2)
        commute_h = self.commute_minutes / 60.0
        arrive = leave + commute_h
        _fill(schedule, leave, arrive, LocationState.COMMUTE)
        leave_work = self.return_leave_hour + rng.normal(0.0, 0.4)
        _fill(schedule, arrive, leave_work, LocationState.WORK)
        if rng.random() < self.lunch_out_p:
            lunch = 12.0 + rng.uniform(-0.3, 0.5)
            _fill(schedule, lunch, lunch + 0.7, LocationState.PUBLIC_VENUE)
        back_start = leave_work
        if rng.random() < self.evening_venue_p:
            venue_len = rng.uniform(0.5, 2.0)
            _fill(schedule, leave_work, leave_work + venue_len, LocationState.PUBLIC_VENUE)
            back_start = leave_work + venue_len
        _fill(schedule, back_start, min(back_start + commute_h, 23.9), LocationState.COMMUTE)
        return schedule

    def _weekend_day(self, rng: np.random.Generator) -> DaySchedule:
        schedule = _HOME_DAY.copy()
        if rng.random() < self.weekend_outing_p:
            start = rng.uniform(10.0, 15.0)
            length = rng.uniform(2.0, 6.0)
            out_state = (
                LocationState.PUBLIC_VENUE if rng.random() < 0.7 else LocationState.OUT
            )
            _fill(schedule, start, start + min(length, 23.9 - start), out_state)
            # Transit legs around the outing.
            _fill(schedule, start - 0.5, start, LocationState.COMMUTE)
            end = min(start + length, 23.4)
            _fill(schedule, end, end + 0.5, LocationState.COMMUTE)
        return schedule

    def _home_based_day(self, weekend: bool, rng: np.random.Generator) -> DaySchedule:
        schedule = _HOME_DAY.copy()
        if rng.random() < self.errand_p:
            start = rng.uniform(9.5, 16.0)
            length = rng.uniform(0.5, 2.5)
            state = LocationState.PUBLIC_VENUE if rng.random() < 0.6 else LocationState.OUT
            _fill(schedule, start, start + length, state)
        if weekend and rng.random() < self.weekend_outing_p * 0.7:
            start = rng.uniform(11.0, 15.0)
            _fill(schedule, start, start + rng.uniform(1.0, 4.0), LocationState.OUT)
        return schedule

    def _shift_day(self, weekend: bool, rng: np.random.Generator) -> DaySchedule:
        schedule = _HOME_DAY.copy()
        works_today = rng.random() < (0.5 if weekend else 0.7)
        if works_today:
            start = rng.uniform(8.0, 14.0)
            length = rng.uniform(4.0, 7.0)
            _fill(schedule, start - 0.5, start, LocationState.COMMUTE)
            _fill(schedule, start, start + length, LocationState.WORK)
            end = start + length
            _fill(schedule, end, min(end + 0.5, 23.9), LocationState.COMMUTE)
        elif rng.random() < self.errand_p:
            start = rng.uniform(10.0, 17.0)
            _fill(schedule, start, start + rng.uniform(1.0, 3.0), LocationState.OUT)
        return schedule

    def _local_work_day(self, weekend: bool, rng: np.random.Generator) -> DaySchedule:
        schedule = _HOME_DAY.copy()
        if not weekend or rng.random() < 0.5:
            start = 9.0 + rng.normal(0.0, 0.7)
            end = 18.0 + rng.normal(0.0, 1.0)
            if not self.works_from_home:
                _fill(schedule, start, end, LocationState.WORK)
            if rng.random() < self.lunch_out_p * 0.7:
                lunch = 12.0 + rng.uniform(-0.3, 0.5)
                _fill(schedule, lunch, lunch + 0.6, LocationState.PUBLIC_VENUE)
        return schedule
