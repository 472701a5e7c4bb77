"""Campaign-long mobility: states, coordinates, and activity weights.

:class:`MobilityModel` turns a user's profile into, for each slot of the
campaign: a location state, a coordinate (quantized later by the agent to
5 km cells), and an *activity weight* — the relative intensity of phone use
that drives the demand model's diurnal shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.constants import SAMPLES_PER_DAY, SAMPLES_PER_HOUR
from repro.geo.coords import Coordinate
from repro.mobility.schedule import DaySchedule, LocationState, ScheduleGenerator
from repro.population.profiles import UserProfile
from repro.timeutil import TimeAxis

#: Base activity level per hour of day (phone-use diurnal shape): low at
#: night, commute bumps at 8 and 19-21, lunch bump, late-evening peak.
_HOURLY_ACTIVITY = np.array(
    [
        0.25, 0.12, 0.07, 0.05, 0.05, 0.08,  # 00-05
        0.25, 0.60, 0.95, 0.60, 0.50, 0.55,  # 06-11
        0.90, 0.65, 0.55, 0.55, 0.60, 0.70,  # 12-17
        0.85, 1.00, 1.00, 0.95, 1.00, 0.75,  # 18-23
    ]
)

#: Activity multiplier per location state: commuting and venues are
#: high-engagement; working hours suppress personal phone use a little.
_STATE_ACTIVITY = {
    int(LocationState.HOME): 1.0,
    int(LocationState.COMMUTE): 1.5,
    int(LocationState.WORK): 0.55,
    int(LocationState.PUBLIC_VENUE): 1.3,
    int(LocationState.OUT): 0.8,
}


def activity_weights(
    day_states: DaySchedule, weekend: bool, rng: np.random.Generator
) -> np.ndarray:
    """Per-slot activity weights for one day (length 144, >= 0)."""
    hours = np.arange(SAMPLES_PER_DAY) // SAMPLES_PER_HOUR
    base = _HOURLY_ACTIVITY[hours].copy()
    if weekend:
        # Weekends: no commute spikes, flatter daytime, later mornings.
        base[6 * SAMPLES_PER_HOUR:9 * SAMPLES_PER_HOUR] *= 0.55
        base[9 * SAMPLES_PER_HOUR:18 * SAMPLES_PER_HOUR] *= 1.1
    state_mult = np.array([_STATE_ACTIVITY[int(s)] for s in day_states])
    noise = rng.gamma(3.0, 1.0 / 3.0, size=SAMPLES_PER_DAY)
    return base * state_mult * noise


@dataclass
class DayMobility:
    """One user-day: states, activity weights, and anchor coordinates."""

    states: DaySchedule
    activity: np.ndarray
    venue_point: Coordinate
    commute_point: Coordinate


class MobilityModel:
    """Generates per-day mobility for one user across a campaign."""

    def __init__(self, profile: UserProfile, axis: TimeAxis, rng: np.random.Generator) -> None:
        self.profile = profile
        self.axis = axis
        self.generator = ScheduleGenerator(
            occupation=profile.occupation,
            rng=rng,
            is_commuter=profile.is_commuter,
        )

    def day(self, day_index: int, rng: np.random.Generator) -> DayMobility:
        """Mobility for campaign day ``day_index``."""
        weekday = int(self.axis.weekday_of(day_index * SAMPLES_PER_DAY))
        weekend = weekday >= 5
        states = self.generator.day(weekday, rng)
        activity = activity_weights(states, weekend, rng)
        venue_point, commute_point = self._anchor_points(rng)
        return DayMobility(states, activity, venue_point, commute_point)

    def location_for(
        self, state: int, mobility: DayMobility
    ) -> Coordinate:
        """Coordinate for a state within a given day."""
        profile = self.profile
        if state == int(LocationState.HOME):
            return profile.home
        if state == int(LocationState.WORK):
            return profile.office if profile.office is not None else profile.home
        if state == int(LocationState.COMMUTE):
            return mobility.commute_point
        if state == int(LocationState.PUBLIC_VENUE):
            return mobility.venue_point
        return _jitter(profile.home, 2.0)

    def _anchor_points(self, rng: np.random.Generator) -> Tuple[Coordinate, Coordinate]:
        """Pick today's venue and commute waypoints."""
        profile = self.profile
        if profile.office is not None:
            frac = float(rng.uniform(0.3, 0.9))
            commute = _interpolate(profile.home, profile.office, frac)
            venue = _jitter(profile.office, 1.0) if rng.random() < 0.7 else (
                _jitter(profile.home, 3.0)
            )
        else:
            commute = _jitter(profile.home, 3.0)
            venue = _jitter(profile.home, 4.0)
        return venue, commute


def _interpolate(a: Coordinate, b: Coordinate, frac: float) -> Coordinate:
    return Coordinate(
        a.lat + (b.lat - a.lat) * frac,
        a.lon + (b.lon - a.lon) * frac,
    )


def _jitter(anchor: Coordinate, km: float) -> Coordinate:
    """Deterministic small offset (used where exactness is irrelevant)."""
    return Coordinate(
        float(min(max(anchor.lat + km / 222.0, -89.0), 89.0)),
        float(min(max(anchor.lon + km / 182.0, -179.0), 179.0)),
    )
