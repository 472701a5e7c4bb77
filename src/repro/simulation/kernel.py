"""Columnar batch simulation kernel.

This is the simulation hot path: one :func:`simulate_devices` call walks a
whole shard of devices through the campaign as device×slot numpy arrays —
mobility states, interface policy, AP association (home/office attach,
venue and commute segments, pocket routers), cap-aware traffic draws, the
battery walk, OS-update events, Android scans/sightings and daily per-app
records — emitting each device's records as ready-to-ingest column tables
instead of per-record appends.

RNG stream layout
-----------------
Each device owns exactly one stream,
``default_rng((seed, year, device_id, _KERNEL_STREAM))``, keyed only by
campaign identity and the device id — never by shard index or position —
so batch draws are deterministic and shard-layout-independent: any
partition of the panel produces bit-identical per-device output. The
stream key is disjoint from the collection-fault streams
(``(..., plan_seed, 104729)``), so stream families never alias.

Within a device the draw order is fixed (and documented here, because the
jobs=1 == jobs=k guarantee rests on it):

1. traits: sleep-disconnect gate, initial battery level, home and office
   base RSSI (two draws each);
2. schedule habits (``ScheduleGenerator.__post_init__``), then one
   ``generator.day`` call per campaign day;
3. activity gamma noise, one campaign-length draw;
4. daily anchor points (commuters only: per-day uniform + venue gate);
5. rest-day gates, one campaign-length draw;
6. associations: home attach delays, home obs noise, office obs noise,
   venue segments in day order, commute segments in day order, pocket
   router gates then per-day RSSI draws;
7. traffic: day factors, background, tx noise (WiFi then cellular), sync
   gates + bursts, binge gates + bursts;
8. iOS update rolls in day order (hazard gate, then start-slot pick);
9. Android scans (poisson 2.4/5 GHz, then strong binomials), sightings
   (one poisson over hourly scan slots, per-slot AP picks, then RSSI),
   and app-split gamma noise, one ``(n_groups, 26)`` draw.

``tests/test_kernel_equivalence.py`` pins the determinism and
shard-layout independence of these streams.

Batched draws and array rewrites keep every stream and sum order;
``tests/test_kernel_golden.py`` holds committed per-table digests and a
pin per rewrite: sighting picks are one ``rng.random`` for all groups
(``test_one_random_draw_is_the_per_group_draws``), soft-cap day sums one
reshape (``test_reshape_day_sums_are_the_per_day_sums``), app groups
array assembly (``test_apps_assembly_is_the_per_day_loop``) and the
battery walk an accumulate fast path
(``test_accumulate_battery_walk_is_the_per_slot_walk``).

Each call adds its seconds per stage to the open span as ``stage.<name>_s``
counters: ``schedule``, ``associate``, ``traffic``, ``emit``, ``scans``,
``apps`` and ``battery`` (docs/ARCHITECTURE.md, "Simulation kernel").

Every table leaves the kernel sorted by ``t`` (``apps`` by ``day``), WiFi
traffic before cellular at equal ``t``: the canonical ``(device, t)``
order that both merges require and neither restores
(``tests/test_canonical_order.py``). Every column leaves in its dataset
schema dtype (``traces.dataset._EMPTY_DTYPES``), so the buffered tables
are as narrow as the dataset and the shard flush casts nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.apps.demand import DemandModel, _RX_TX
from repro.apps.updates import UpdateModel
from repro.constants import SAMPLES_PER_DAY, SAMPLES_PER_HOUR
from repro.geo.coords import Coordinate, cell_index
from repro.mobility.model import _HOURLY_ACTIVITY, _STATE_ACTIVITY, _jitter
from repro.mobility.schedule import LocationState, ScheduleGenerator
from repro.net.accesspoint import APType
from repro.net.cellular import CellularNetwork
from repro.network_env.deployment import Deployment
from repro.network_env.public_wifi import PROVIDER_ESSIDS
from repro.obs.recorder import StageClock, get_recorder
from repro.population.profiles import UserProfile, WifiPolicy
from repro.radio.pathloss import PathLossModel, RssiModel
from repro.simulation.cap import SoftCapTracker, throttled_slot_limits
from repro.simulation.params import SimParams
from repro.timeutil import TimeAxis
from repro.traces.records import DeviceOS, IfaceKind, WifiStateCode

__all__ = ["DeviceResult", "simulate_devices", "device_stream",
           "_KERNEL_STREAM"]

#: Stream-key suffix separating kernel draws from every other stream family.
_KERNEL_STREAM = 7919

#: Devices per battery-walk block: the sequential per-slot walk runs once
#: per block instead of once per device.
_BLOCK_SIZE = 256

_ESSID_CARRIER: Dict[str, Optional[str]] = {
    essid: carrier for essid, _, carrier in PROVIDER_ESSIDS
}

_HOURS = np.arange(SAMPLES_PER_DAY) // SAMPLES_PER_HOUR
_STATE_CODES = tuple(int(s) for s in LocationState)
_N_STATES = len(_STATE_CODES)

_HOME = int(LocationState.HOME)
_WORK = int(LocationState.WORK)
_COMMUTE = int(LocationState.COMMUTE)
_VENUE = int(LocationState.PUBLIC_VENUE)
_OUT = int(LocationState.OUT)

#: Activity multiplier per state code, as a lookup table.
_STATE_MULT = np.array([_STATE_ACTIVITY[code] for code in _STATE_CODES])

# Calibrated device<->AP RSSI models per AP context.
_HOME_RSSI_MODEL = RssiModel(
    tx_power_dbm=16.0, path_loss=PathLossModel(exponent=3.0), shadowing_sigma_db=3.0
)
_OFFICE_RSSI_MODEL = RssiModel(
    tx_power_dbm=16.0, path_loss=PathLossModel(exponent=3.0), shadowing_sigma_db=3.5
)
_PUBLIC_RSSI_MODEL = RssiModel(
    tx_power_dbm=17.0, path_loss=PathLossModel(exponent=3.0), shadowing_sigma_db=5.0
)

_RSSI_MODELS = {
    APType.HOME: _HOME_RSSI_MODEL,
    APType.OFFICE: _OFFICE_RSSI_MODEL,
    APType.PUBLIC: _PUBLIC_RSSI_MODEL,
    APType.OPEN: _PUBLIC_RSSI_MODEL,
    APType.MOBILE: _HOME_RSSI_MODEL,
}


def device_stream(seed: int, year: int, device_id: int) -> np.random.Generator:
    """The batch kernel's per-device RNG stream (shard-layout independent)."""
    return np.random.default_rng((seed, year, device_id, _KERNEL_STREAM))


@dataclass
class DeviceResult:
    """One device's simulated campaign, as columnar record tables.

    ``tables`` maps table name to named column arrays, in the dataset
    schema's column names (traffic without its packet counters).
    """

    device_id: int
    tables: Dict[str, Dict[str, np.ndarray]]


class _CampaignGrid:
    """Campaign-shaped constants shared by every device (no RNG)."""

    def __init__(self, axis: TimeAxis, params: SimParams) -> None:
        self.axis = axis
        self.n_days = axis.n_days
        self.n_slots = axis.n_slots
        n_days, n_slots = self.n_days, self.n_slots
        self.day_index = np.repeat(np.arange(n_days), SAMPLES_PER_DAY)
        self.weekday = (np.arange(n_days) + axis.start.weekday()) % 7
        self.weekend = self.weekday >= 5

        hours = _HOURS
        # Diurnal activity base, weekend-adjusted, for every campaign slot.
        base = _HOURLY_ACTIVITY[hours].copy()
        weekend_base = base.copy()
        weekend_base[6 * SAMPLES_PER_HOUR:9 * SAMPLES_PER_HOUR] *= 0.55
        weekend_base[9 * SAMPLES_PER_HOUR:18 * SAMPLES_PER_HOUR] *= 1.1
        self.activity_base = np.where(
            np.repeat(self.weekend, SAMPLES_PER_DAY),
            np.tile(weekend_base, n_days), np.tile(base, n_days),
        )

        self.evening = np.tile((hours >= 19) | (hours <= 1), n_days)
        self.asleep = np.tile((hours >= 2) & (hours < 6), n_days)
        #: Charging-window / force-plug hour flags (one day, slot-of-day).
        self.charge_window_hours = (hours >= 21) | (hours < 7)
        self.plug_hours = (hours >= 22) | (hours < 7)
        #: Slots of day where the window closes (07:00) and reopens (21:00).
        idle = np.flatnonzero(~self.charge_window_hours)
        self.window_closes, self.window_opens = int(idle[0]), int(idle[-1]) + 1
        self.battery_report = np.arange(0, n_slots, 3, dtype=np.int32)
        self.battery_report.setflags(write=False)  # every device's ``t``
        self.day_bounds = [
            (d * SAMPLES_PER_DAY, (d + 1) * SAMPLES_PER_DAY)
            for d in range(n_days)
        ]


class _VenueApIndex:
    """Memoized usable-venue-AP lists, shared by all devices of a shard.

    Usability depends only on (cell, carrier, public-vs-open), never on the
    device, so the filter is paid once per distinct key instead of once
    per pick.
    """

    def __init__(self, deployment: Deployment) -> None:
        self.deployment = deployment
        self._usable: Dict[tuple, list] = {}
        self._candidates: Dict[tuple, np.ndarray] = {}

    def candidate_array(self, cell: tuple) -> np.ndarray:
        """All venue APs in a cell as an id array (empty when none)."""
        arr = self._candidates.get(cell)
        if arr is None:
            arr = self._candidates[cell] = np.asarray(
                self.deployment.venue_aps_by_cell.get(cell, ()), np.int64)
        return arr

    def usable(self, cell: tuple, carrier: str, public: bool) -> list:
        key = (cell, carrier if public else None, public)
        cached = self._usable.get(key)
        if cached is not None:
            return cached
        deployment = self.deployment
        usable: list = []
        for ap_id in deployment.venue_aps_by_cell.get(cell, ()):
            ap = deployment.ap(ap_id)
            if public:
                if ap.ap_type is not APType.PUBLIC:
                    continue
                restriction = _ESSID_CARRIER.get(ap.essid)
                if restriction is not None and restriction != carrier:
                    continue
            elif ap.ap_type is not APType.OPEN:
                continue
            usable.append(ap_id)
        self._usable[key] = usable
        return usable


def _draw_base_rssi(ap_type: APType, params: SimParams,
                    rng: np.random.Generator) -> float:
    """Habitual device<->AP RSSI (two draws: distance, then shadowing)."""
    if ap_type is APType.MOBILE:
        median = 2.0
    elif ap_type is APType.HOME:
        median = params.home_distance_m
    elif ap_type is APType.OFFICE:
        median = params.office_distance_m
    else:
        median = params.public_distance_m
    distance = median * float(np.exp(rng.normal(0.0, params.distance_sigma)))
    return _RSSI_MODELS[ap_type].sample(distance, rng)


def _day_segments(mask: np.ndarray, grid: _CampaignGrid) -> List[Tuple[int, int]]:
    """[start, end) runs of ``mask`` that never cross a day boundary.

    Returned in slot order (equivalently: day order, then segment order
    within the day), matching the legacy per-day ``_segments`` sweep.
    """
    if not mask.any():
        return []
    prev = np.empty_like(mask)
    prev[0] = False
    prev[1:] = mask[:-1]
    prev[::SAMPLES_PER_DAY] = False  # day boundaries break runs
    nxt = np.empty_like(mask)
    nxt[-1] = False
    nxt[:-1] = mask[1:]
    nxt[SAMPLES_PER_DAY - 1::SAMPLES_PER_DAY] = False
    starts = np.flatnonzero(mask & ~prev)
    ends = np.flatnonzero(mask & ~nxt) + 1
    return list(zip(starts.tolist(), ends.tolist()))


# ----------------------------------------------------------------------
# Per-device pass
# ----------------------------------------------------------------------

class _DevicePass(NamedTuple):
    """Everything about one device except the (block-level) battery walk."""

    profile: UserProfile
    tables: Dict[str, Dict[str, np.ndarray]]
    drain: np.ndarray
    at_home: np.ndarray
    battery0: float


def _simulate_device(
    profile: UserProfile,
    grid: _CampaignGrid,
    deployment: Deployment,
    demand: DemandModel,
    params: SimParams,
    update_model: Optional[UpdateModel],
    venue_index: _VenueApIndex,
    rng: np.random.Generator,
    clock: StageClock,
) -> _DevicePass:
    n_days, n_slots = grid.n_days, grid.n_slots
    android = profile.os is DeviceOS.ANDROID

    # -- 1. traits ------------------------------------------------------
    sleep_p = 0.60 if android else 0.30
    sleep_disconnects = bool(rng.random() < sleep_p)
    battery0 = float(rng.uniform(55.0, 100.0))
    home_rssi_base = _draw_base_rssi(APType.HOME, params, rng)
    office_rssi_base = _draw_base_rssi(APType.OFFICE, params, rng)
    tx_frac_wifi = demand.tx_fraction(profile.mix, on_wifi=True)
    tx_frac_cell = demand.tx_fraction(profile.mix, on_wifi=False)
    cell_iface = int(IfaceKind.from_technology(profile.technology))
    cell_capacity = CellularNetwork(
        profile.technology, profile.carrier
    ).capacity_bytes(600.0)

    # -- 2. schedule ----------------------------------------------------
    generator = ScheduleGenerator(
        occupation=profile.occupation, rng=rng,
        is_commuter=profile.is_commuter,
    )
    states = np.empty(n_slots, dtype=np.int64)
    for weekday, (lo, hi) in zip(grid.weekday.tolist(), grid.day_bounds):
        states[lo:hi] = generator.day(weekday, rng)

    # -- 3. activity ----------------------------------------------------
    noise = rng.gamma(3.0, 1.0 / 3.0, size=n_slots)
    activity = grid.activity_base * _STATE_MULT[states] * noise

    # -- 4. anchors -----------------------------------------------------
    # Cell per (day, state): HOME/WORK/OUT anchors are campaign-constant,
    # a commuter's venue is one of two points and its commute point moves
    # daily along the home-office line.
    home = profile.home
    office = profile.office
    cell_col = np.empty((n_days, _N_STATES), dtype=np.int64)
    cell_row = np.empty((n_days, _N_STATES), dtype=np.int64)
    if office is not None:
        fracs = rng.uniform(0.3, 0.9, n_days)
        near_office = rng.random(n_days) < 0.7
        cell_col[:, _VENUE], cell_row[:, _VENUE] = np.where(
            near_office[:, None], cell_index(_jitter(office, 1.0)),
            cell_index(_jitter(home, 3.0))).T
        cell_col[:, _COMMUTE], cell_row[:, _COMMUTE] = np.array([
            cell_index(Coordinate(home.lat + (office.lat - home.lat) * f,
                                  home.lon + (office.lon - home.lon) * f))
            for f in fracs.tolist()]).T
    else:
        cell_col[:, _VENUE], cell_row[:, _VENUE] = cell_index(_jitter(home, 4.0))
        cell_col[:, _COMMUTE], cell_row[:, _COMMUTE] = cell_index(
            _jitter(home, 3.0))
    work_loc = office if office is not None else home
    cell_col[:, _HOME], cell_row[:, _HOME] = cell_index(home)
    cell_col[:, _WORK], cell_row[:, _WORK] = cell_index(work_loc)
    cell_col[:, _OUT], cell_row[:, _OUT] = cell_index(_jitter(home, 2.0))

    # -- 5. interface policy --------------------------------------------
    rest_factor = 1.15 if android else 0.55
    rest_day = rng.random(n_days) < params.rest_day_p * rest_factor
    policy = profile.wifi_policy
    if policy is WifiPolicy.ALWAYS_OFF:
        wifi_on = np.zeros(n_slots, dtype=bool)
    elif policy is WifiPolicy.NO_CONFIG:
        wifi_on = np.ones(n_slots, dtype=bool)
    else:
        if policy is WifiPolicy.ALWAYS_ON:
            wifi_on = np.ones(n_slots, dtype=bool)
        else:  # DAYTIME_OFF
            wifi_on = np.zeros(n_slots, dtype=bool)
            if profile.has_home_ap:
                wifi_on |= states == _HOME
            if profile.office_has_ap:
                wifi_on |= states == _WORK
        wifi_on &= ~np.repeat(rest_day, SAMPLES_PER_DAY)
    clock.lap("schedule")

    # -- 6. associations ------------------------------------------------
    assoc = np.full(n_slots, -1, dtype=np.int64)
    rssi = np.zeros(n_slots, dtype=np.float64)
    if policy not in (WifiPolicy.ALWAYS_OFF, WifiPolicy.NO_CONFIG):
        _associate(
            profile, grid, deployment, params, venue_index,
            states, wifi_on, assoc, rssi,
            home_rssi_base, office_rssi_base, cell_col, cell_row, rng,
        )
    if sleep_disconnects:
        # The interface drops overnight but the last observed RSSI is not
        # cleared (legacy quirk, kept: Android rows retain stale RSSI).
        assoc = np.where(grid.asleep, -1, assoc)
    on_wifi = assoc >= 0
    clock.lap("associate")

    # -- 7. traffic -----------------------------------------------------
    day_factor = np.exp(rng.normal(0.0, params.day_sigma, n_days))
    day_totals = activity.reshape(n_days, SAMPLES_PER_DAY).sum(axis=1)
    scale = np.where(day_totals > 0,
                     profile.appetite_bytes * day_factor
                     / np.where(day_totals > 0, day_totals, 1.0), 0.0)
    base = activity * np.repeat(scale, SAMPLES_PER_DAY)
    background = rng.exponential(params.background_bytes, n_slots)
    demand_slots = base + background

    rx_wifi = np.where(on_wifi, demand_slots * params.wifi_uplift, 0.0)
    rx_cell = np.where(on_wifi, 0.0, demand_slots)
    leak = profile.home_cell_leak
    rx_cell = rx_cell + rx_wifi * leak
    rx_wifi = rx_wifi * (1.0 - leak)
    if profile.cellular_data_off:
        rx_cell = rx_cell * params.data_off_cell_factor

    tx_wifi = rx_wifi * tx_frac_wifi * np.exp(rng.normal(0.0, 0.3, n_slots))
    tx_cell = rx_cell * tx_frac_cell * np.exp(rng.normal(0.0, 0.3, n_slots))

    wifi_evening = on_wifi & grid.evening
    sync_slots = wifi_evening & (rng.random(n_slots) < params.sync_burst_p)
    n_sync = int(sync_slots.sum())
    if n_sync:
        burst = params.sync_burst_mb * 1e6 * rng.lognormal(0.0, 0.8, n_sync)
        tx_wifi[sync_slots] += burst * 0.85
        rx_wifi[sync_slots] += burst * 0.15
    p_binge = min(0.25, params.binge_burst_p * profile.binge_propensity)
    binge_rate = np.where(grid.evening, p_binge, p_binge * 0.4)
    binge_slots = on_wifi & (rng.random(n_slots) < binge_rate)
    n_binge = int(binge_slots.sum())
    if n_binge:
        burst = params.binge_mb * 1e6 * rng.lognormal(0.0, 1.2, n_binge)
        rx_wifi[binge_slots] += burst * 0.92
        tx_wifi[binge_slots] += burst * 0.08

    # -- soft cap (sequential by day, exact tracker semantics) ----------
    # Days before the first throttled one are clamped to the capacity
    # alone: one clamp and one reshape-sum, then the per-day path.
    cap = SoftCapTracker(params.cap_policy)
    clamped = np.minimum(rx_cell, cell_capacity)
    day_sums = clamped.reshape(n_days, SAMPLES_PER_DAY).sum(axis=1).tolist()
    free = 0
    while free < n_days and not cap.throttled_today():
        cap.record_day(day_sums[free])
        free += 1
    clamped[free * SAMPLES_PER_DAY:] = rx_cell[free * SAMPLES_PER_DAY:]
    rx_cell = clamped
    throttled_limits = np.minimum(
        throttled_slot_limits(params.cap_policy), cell_capacity
    )
    response = params.cap_demand_response
    for lo, hi in grid.day_bounds[free:]:
        day_rx = rx_cell[lo:hi]
        if cap.throttled_today():
            day_rx *= response
            tx_cell[lo:hi] *= response
            np.minimum(day_rx, throttled_limits, out=day_rx)
        else:
            np.minimum(day_rx, cell_capacity, out=day_rx)
        cap.record_day(float(day_rx.sum()))

    # -- 8. iOS update --------------------------------------------------
    tables: Dict[str, Dict[str, np.ndarray]] = {}
    if update_model is not None and profile.os is DeviceOS.IOS:
        _roll_update(profile, grid, update_model, on_wifi, rx_wifi,
                     tables, rng)
    clock.lap("traffic")

    # -- emissions ------------------------------------------------------
    user_id = profile.user_id
    _emit_traffic(user_id, cell_iface, rx_wifi, tx_wifi, rx_cell, tx_cell,
                  tables)
    _emit_wifi(user_id, android, wifi_on, assoc, rssi, tables)

    day_state = grid.day_index * _N_STATES + states
    tables["geo"] = dict(
        device=np.full(n_slots, user_id, dtype=np.int32),
        t=np.arange(n_slots, dtype=np.int32),
        col=cell_col.astype(np.int16).ravel()[day_state],
        row=cell_row.astype(np.int16).ravel()[day_state],
    )
    clock.lap("emit")

    if android:
        density24, density5 = _scan_densities(
            deployment, params, day_state, cell_col, cell_row)
        _emit_scans(user_id, params, venue_index, day_state, wifi_on,
                    cell_col, cell_row, density24, density5, tables, rng)
        clock.lap("scans")
        _emit_apps(profile, grid, demand, params, states, assoc,
                   cell_col, cell_row, rx_wifi, tx_wifi, rx_cell, tx_cell,
                   tables, rng)
        clock.lap("apps")

    # -- battery inputs (walked at block level; consumes no RNG) --------
    means = activity.reshape(n_days, SAMPLES_PER_DAY).mean(axis=1)
    norm = activity / np.repeat(means + 1e-9, SAMPLES_PER_DAY)
    drain = 0.05 + 0.28 * norm
    drain += np.where(wifi_on, np.where(on_wifi, 0.03, 0.05), 0.0)
    at_home = states == _HOME
    clock.lap("battery")

    return _DevicePass(profile, tables, drain, at_home, battery0)


def _associate(
    profile, grid, deployment, params, venue_index,
    states, wifi_on, assoc, rssi,
    home_rssi_base, office_rssi_base, cell_col, cell_row, rng,
) -> None:
    """Fill ``assoc``/``rssi`` in place (home, office, venue, commute,
    pocket router — same precedence as the legacy path)."""
    n_slots = grid.n_slots
    sigma = params.rssi_obs_sigma

    at_home = (states == _HOME) & wifi_on
    if profile.home_ap_id >= 0 and at_home.any():
        attached = at_home.copy()
        run_starts = [s for s, _ in _day_segments(at_home, grid)]
        eligible = [s for s in run_starts if s % SAMPLES_PER_DAY != 0]
        if eligible:
            delays = rng.exponential(
                params.home_attach_delay_h * SAMPLES_PER_HOUR, len(eligible)
            )
            for start, delay in zip(eligible, delays.tolist()):
                delay = int(delay)
                if delay > 0:
                    day_end = (start // SAMPLES_PER_DAY + 1) * SAMPLES_PER_DAY
                    attached[start:min(start + delay, day_end)] = False
        n_att = int(attached.sum())
        if n_att:
            assoc[attached] = profile.home_ap_id
            rssi[attached] = home_rssi_base + rng.normal(0.0, sigma, n_att)

    at_work = (states == _WORK) & wifi_on
    if profile.office_ap_id >= 0 and at_work.any():
        assoc[at_work] = profile.office_ap_id
        rssi[at_work] = office_rssi_base + rng.normal(
            0.0, sigma, int(at_work.sum())
        )

    carrier = profile.carrier.name
    always_on = profile.wifi_policy is WifiPolicy.ALWAYS_ON

    for start, end in _day_segments(states == _VENUE, grid):
        if not wifi_on[start:end].any():
            continue
        day = start // SAMPLES_PER_DAY
        cell = (int(cell_col[day, _VENUE]), int(cell_row[day, _VENUE]))
        ap_id = None
        if profile.public_enrolled:
            n24, n5 = deployment.public_counts_by_cell.get(cell, (0, 0))
            density = (n24 + n5) * params.scan_scale
            p = params.venue_assoc_p * (1.0 - np.exp(-density / 40.0))
            if rng.random() < p:
                ap_id = _pick_venue_ap(venue_index, cell, carrier, True, rng)
        if ap_id is None and always_on:
            if rng.random() < params.open_assoc_p:
                familiar = deployment.familiar_open_aps.get(profile.user_id)
                if familiar:
                    ap_id = int(rng.choice(familiar))
                else:
                    ap_id = _pick_venue_ap(
                        venue_index, cell, carrier, False, rng
                    )
        if ap_id is None:
            continue
        length = max(1, min(end - start, 1 + int(rng.geometric(0.35))))
        offset = start if end - start <= length else int(
            rng.integers(start, end - length + 1)
        )
        base = _draw_base_rssi(deployment.ap(ap_id).ap_type, params, rng)
        assoc[offset:offset + length] = ap_id
        rssi[offset:offset + length] = base + rng.normal(0.0, sigma, length)

    if profile.public_enrolled:
        p = params.commute_assoc_p * profile.commute_public_exposure
        for start, end in _day_segments(states == _COMMUTE, grid):
            if not wifi_on[start:end].any() or rng.random() >= p * (end - start):
                continue
            day = start // SAMPLES_PER_DAY
            ap_id = _pick_venue_ap(
                venue_index,
                (int(cell_col[day, _COMMUTE]), int(cell_row[day, _COMMUTE])),
                carrier, True, rng,
            )
            if ap_id is None:
                continue
            length = min(end - start, 1 + int(rng.random() < 0.35))
            base = _draw_base_rssi(APType.PUBLIC, params, rng)
            assoc[start:start + length] = ap_id
            rssi[start:start + length] = base + rng.normal(0.0, sigma, length)

    if profile.mobile_ap_id >= 0:
        away = (states != _HOME) & wifi_on & (assoc < 0)
        away_days = away.reshape(grid.n_days, SAMPLES_PER_DAY)
        gates = rng.random(grid.n_days)
        for day in np.flatnonzero(away_days.any(axis=1)):
            if gates[day] >= 0.75:
                continue
            base = _draw_base_rssi(APType.MOBILE, params, rng)
            lo, hi = grid.day_bounds[day]
            mask = away[lo:hi]
            idx = lo + np.flatnonzero(mask)
            assoc[idx] = profile.mobile_ap_id
            rssi[idx] = base + rng.normal(0.0, sigma, len(idx))


def _pick_venue_ap(venue_index, cell, carrier, public, rng) -> Optional[int]:
    usable = venue_index.usable(cell, carrier, public)
    if not usable:
        return None
    return int(usable[int(rng.integers(0, len(usable)))])


def _roll_update(profile, grid, update_model, on_wifi, rx_wifi, tables, rng):
    """Per-day iOS update rolls; mutates ``rx_wifi`` and fills updates."""
    on_by_day = on_wifi.reshape(grid.n_days, SAMPLES_PER_DAY)
    wifi_slots_per_day = on_by_day.sum(axis=1)
    policy = update_model.policy
    for day in range(grid.n_days):
        wifi_hours = float(wifi_slots_per_day[day]) / SAMPLES_PER_HOUR
        took = update_model.maybe_update(
            profile.user_id, day, bool(grid.weekend[day]), wifi_hours, rng
        )
        if not took:
            continue
        day_on = on_by_day[day]
        slots = np.flatnonzero(day_on)
        evening = slots[(_HOURS[slots] >= 18) | (_HOURS[slots] <= 1)]
        pool = evening if len(evening) >= 3 else slots
        start = int(pool[int(rng.integers(0, max(1, len(pool) - 2)))])
        spread = [s for s in range(start, min(start + 3, SAMPLES_PER_DAY))
                  if day_on[s]]
        if not spread:
            spread = [start]
        lo = grid.day_bounds[day][0]
        for s in spread:
            rx_wifi[lo + s] += policy.size_bytes / len(spread)
        tables["updates"] = dict(
            device=np.full(1, profile.user_id, dtype=np.int32),
            t=np.array([lo + spread[0]], dtype=np.int32),
            bytes=np.array([policy.size_bytes], dtype=np.float64),
        )
        break  # one update per campaign; later rolls would all be no-ops


def _emit_traffic(user_id, cell_iface, rx_wifi, tx_wifi, rx_cell, tx_cell,
                  tables) -> None:
    # Interleave (WiFi, cellular) per slot, then keep the active ones:
    # rows come out in slot order with WiFi first at equal t.
    rx = np.empty((len(rx_wifi), 2))
    tx = np.empty((len(rx_wifi), 2))
    rx[:, 0], rx[:, 1], tx[:, 0], tx[:, 1] = rx_wifi, rx_cell, tx_wifi, tx_cell
    rx, tx = rx.ravel(), tx.ravel()
    rows = np.flatnonzero(rx + tx >= 100.0)
    if not len(rows):
        return
    tables["traffic"] = dict(
        device=np.full(len(rows), user_id, dtype=np.int32),
        t=(rows >> 1).astype(np.int32),
        iface=np.where(rows & 1, np.int8(cell_iface), np.int8(IfaceKind.WIFI)),
        rx=rx[rows], tx=tx[rows],
    )


def _emit_wifi(user_id, android, wifi_on, assoc, rssi, tables) -> None:
    # Android logs the interface every slot, iOS only while associated.
    slots = np.arange(len(assoc)) if android else np.flatnonzero(assoc >= 0)
    if not len(slots):
        return
    state = np.where(
        assoc[slots] >= 0, np.int8(WifiStateCode.ASSOCIATED),
        np.where(wifi_on[slots], np.int8(WifiStateCode.AVAILABLE),
                 np.int8(WifiStateCode.OFF)),
    )
    tables["wifi"] = dict(
        device=np.full(len(slots), user_id, dtype=np.int32),
        t=slots.astype(np.int32), state=state,
        ap_id=assoc[slots].astype(np.int32),
        rssi=rssi[slots].astype(np.float32),
    )


def _scan_densities(deployment, params, day_state, cell_col, cell_row):
    """Audible public-AP densities per slot, from the day's cells."""
    frac = np.array([
        params.audible_frac_home, params.audible_frac_commute,
        params.audible_frac_work, params.audible_frac_venue,
        params.audible_frac_commute,
    ])
    counts = deployment.public_counts_by_cell.get
    n = np.array([
        counts(cell, (0, 0))
        for cell in zip(cell_col.ravel().tolist(), cell_row.ravel().tolist())
    ]).reshape(-1, _N_STATES, 2) * params.scan_scale
    return ((n[..., 0] * frac).ravel()[day_state],
            (n[..., 1] * frac).ravel()[day_state])


def _emit_scans(user_id, params, venue_index, day_state, wifi_on,
                cell_col, cell_row, density24, density5, tables, rng) -> None:
    on_slots = np.flatnonzero(wifi_on)
    if not len(on_slots):
        return
    n24_all = rng.poisson(density24[on_slots])
    n5_all = rng.poisson(density5[on_slots])
    n24_strong = rng.binomial(n24_all, params.scan_strong_p)
    n5_strong = rng.binomial(n5_all, params.scan_strong_p)
    tables["scans"] = dict(
        device=np.full(len(on_slots), user_id, dtype=np.int32),
        t=on_slots.astype(np.int32),
        n24_all=n24_all.astype(np.int16),
        n24_strong=n24_strong.astype(np.int16),
        n5_all=n5_all.astype(np.int16), n5_strong=n5_strong.astype(np.int16),
    )

    # Hourly detailed sightings: one poisson across every scan slot, then
    # per-slot without-replacement AP picks and a vectorized RSSI draw.
    hourly = on_slots[
        (on_slots % SAMPLES_PER_DAY) % params.sighting_period_slots == 0
    ]
    if not len(hourly):
        return
    lam = np.minimum(density24[hourly] + density5[hourly], 30.0)
    n_raw = rng.poisson(lam)
    alive = n_raw > 0
    if not alive.any():
        return
    slots = hourly[alive]
    wanted = n_raw[alive]
    pair = day_state[slots]
    # Group sighting slots by (day, state), one candidate set per group; a
    # slot's argsorted row of uniforms permutes its group's candidates. All
    # rows are one ``rng.random`` (the stream of one ``(rows, m)`` draw per
    # group) in one matrix, padded past each row's ``m`` with 2.0.
    order = np.argsort(pair, kind="stable")
    slots, wanted, pair = slots[order], wanted[order], pair[order]
    uniq, group = np.unique(pair, return_inverse=True)
    cands = [venue_index.candidate_array(cell) for cell in zip(
        cell_col.ravel()[uniq].tolist(), cell_row.ravel()[uniq].tolist())]
    m = np.array([len(c) for c in cands])
    live = m[group] > 0
    if not live.any():
        return
    slots, wanted, group = slots[live], wanted[live], group[live]
    m_row = m[group]
    width = np.arange(m_row.max())
    uniforms = np.full((len(slots), len(width)), 2.0)
    uniforms[width < m_row[:, None]] = rng.random(int(m_row.sum()))
    perms = np.argsort(uniforms, axis=1)
    ks = np.minimum(wanted, np.minimum(m_row, 15))
    offsets = np.cumsum(m) - m
    sight_ap = np.concatenate(cands)[
        np.repeat(offsets[group], ks) + perms[width < ks[:, None]]]
    sight_t = np.repeat(slots, ks)
    n_rows = len(sight_ap)
    distances = params.public_distance_m * np.exp(
        rng.normal(0.0, params.distance_sigma, n_rows)
    )
    sight_rssi = _PUBLIC_RSSI_MODEL.sample_many(distances, rng)
    # Rows were drawn grouped by (day, state); emit them in slot order,
    # keeping the draw order within a slot.
    back = np.argsort(sight_t, kind="stable")
    tables["sightings"] = dict(
        device=np.full(n_rows, user_id, dtype=np.int32),
        t=sight_t[back].astype(np.int32),
        ap_id=sight_ap[back].astype(np.int32),
        rssi=sight_rssi[back].astype(np.float32),
    )


def _emit_apps(profile, grid, demand, params, states, assoc,
               cell_col, cell_row, rx_wifi, tx_wifi, rx_cell, tx_cell,
               tables, rng) -> None:
    """Daily per-category app records, vectorized across every group.

    A *group* is (day, cell) for cellular volume or (day, ap) for WiFi
    volume — the same partition the legacy path builds per day. All
    groups' category splits share one ``(n_groups, 26)`` gamma draw and
    one vectorized head-trim.
    """
    n_days = grid.n_days
    day_of = grid.day_index

    # Per-(day, state) cellular sums.
    key = day_of * _N_STATES + states
    minlength = n_days * _N_STATES
    rx_by = np.bincount(key, weights=rx_cell, minlength=minlength) \
        .reshape(n_days, _N_STATES)
    tx_by = np.bincount(key, weights=tx_cell, minlength=minlength) \
        .reshape(n_days, _N_STATES)

    # Cellular groups: (day, state) sums of at least one byte, merged per
    # (day, cell) under the group's first state code. A row-order bincount
    # adds each group's sums in state-code order, as the legacy sweep did.
    ok = rx_by + tx_by >= 1.0
    lead = ((cell_col[:, :, None] == cell_col[:, None, :])
            & (cell_row[:, :, None] == cell_row[:, None, :])
            & ok[:, None, :]).argmax(axis=2)
    lead += np.arange(0, minlength, _N_STATES)[:, None]
    heads = np.flatnonzero(ok.ravel() & (lead.ravel() == np.arange(minlength)))
    c_rx = np.bincount(lead[ok], weights=rx_by[ok], minlength=minlength)[heads]
    c_tx = np.bincount(lead[ok], weights=tx_by[ok], minlength=minlength)[heads]
    n_cell = len(heads)

    # WiFi groups: per-(day, ap) sums of at least one byte, in ascending
    # ap id, in the cell of the state each pair first appears in.
    idx = np.flatnonzero(assoc >= 0)
    _, w_first, w_inverse = np.unique(
        day_of[idx] * (assoc.max() + 1) + assoc[idx],
        return_index=True, return_inverse=True)
    w_rx = np.bincount(w_inverse, weights=rx_wifi[idx])
    w_tx = np.bincount(w_inverse, weights=tx_wifi[idx])
    w_ok = w_rx + w_tx >= 1.0
    w_slot = idx[w_first[w_ok]]

    # Per day, the cellular groups before the WiFi groups (legacy order);
    # ``at`` is each group's (day, state) key.
    at = np.concatenate([heads, key[w_slot]])
    is_wifi = np.arange(len(at)) >= n_cell
    order = np.argsort(at // _N_STATES * 2 + is_wifi, kind="stable")
    n_groups = len(order)
    if not n_groups:
        return
    at, cellular = at[order], ~is_wifi[order]
    days, cols, rows = at // _N_STATES, cell_col.ravel()[at], cell_row.ravel()[at]
    aps = np.concatenate([np.full(n_cell, -1), assoc[w_slot]])[order]
    rx_sums = np.concatenate([c_rx, w_rx[w_ok]])[order]
    tx_sums = np.concatenate([c_tx, w_tx[w_ok]])[order]

    n_cats = len(_RX_TX)
    shares_cell = profile.mix.context_shares(False)
    shares_wifi = profile.mix.context_shares(True)
    shares = np.where(cellular[:, None], shares_cell, shares_wifi)

    noisy = shares * rng.gamma(2.0, 0.5, size=(n_groups, n_cats))
    totals = noisy.sum(axis=1)
    degenerate = totals <= 0
    if degenerate.any():
        noisy[degenerate] = shares[degenerate]
        totals = noisy.sum(axis=1)
    rx_shares = noisy / totals[:, None]
    tx_weights = rx_shares / _RX_TX
    tx_totals = tx_weights.sum(axis=1)
    safe = np.where(tx_totals > 0, tx_totals, 1.0)
    tx_shares = np.where((tx_totals > 0)[:, None],
                         tx_weights / safe[:, None], rx_shares)
    cat_rx = rx_sums[:, None] * rx_shares
    cat_tx = tx_sums[:, None] * tx_shares

    # Head-trim to 99.5% of each group's volume (legacy _top_splits), then
    # drop sub-byte rows.
    mass = cat_rx + cat_tx
    order = np.argsort(-mass, axis=1, kind="stable")
    sorted_mass = mass[np.arange(n_groups)[:, None], order]
    csum = np.cumsum(sorted_mass, axis=1)
    total_mass = mass.sum(axis=1)
    before = csum - sorted_mass
    keep = (before < 0.995 * total_mass[:, None]) \
        & (total_mass[:, None] > 0) & (sorted_mass >= 1.0)
    group = np.nonzero(keep)[0]
    if not len(group):
        return
    category = order[keep]
    tables["apps"] = dict(
        device=np.full(len(group), profile.user_id, dtype=np.int32),
        day=days[group].astype(np.int16),
        category=category.astype(np.int8),
        cellular=cellular[group].astype(np.int8),
        ap_id=aps[group].astype(np.int32),
        col=cols[group].astype(np.int16),
        row=rows[group].astype(np.int16),
        rx=cat_rx[group, category],
        tx=cat_tx[group, category],
    )


# ----------------------------------------------------------------------
# Block-level battery walk
# ----------------------------------------------------------------------

def _battery_walk(drain: np.ndarray, at_home: np.ndarray, level: np.ndarray,
                  grid: _CampaignGrid) -> Tuple[np.ndarray, np.ndarray]:
    """Run the sequential charge/drain recurrence for a block of devices.

    ``drain`` and ``at_home`` are (slot, device) arrays and ``level`` the
    starting levels; returns the levels and charging flags at the report
    slots, as (report slot, device) arrays.

    The per-slot update is the exact legacy rule, applied to the whole
    block at once; it consumes no RNG. Outside the charge window, once no
    device is plugged, the stretch to 21:00 is one accumulate and one clamp,
    bit for bit (docs/ARCHITECTURE.md, "Battery fast path").
    """
    n_dev = len(level)
    n_slots = grid.n_slots
    plugged = np.zeros(n_dev, dtype=bool)
    levels = np.empty((len(grid.battery_report), n_dev))
    charging = np.zeros((len(grid.battery_report), n_dev), dtype=np.int8)
    cw_hours = grid.charge_window_hours.tolist()
    plug_hours = grid.plug_hours.tolist()
    i = 0
    while i < n_slots:
        hour_slot = i % SAMPLES_PER_DAY
        if (grid.window_closes <= hour_slot < grid.window_opens
                and not plugged.any()):
            end = i - hour_slot + grid.window_opens
            walk = np.subtract.accumulate(
                np.concatenate([level[None], drain[i:end]]), axis=0)[1:]
            np.maximum(walk, 0.0, out=walk)
            first = -(-i // 3)  # first reported slot at or after i
            levels[first:-(-end // 3)] = walk[3 * first - i::3]
            level = walk[-1]
            i = end
            continue
        if hour_slot == 0:
            plugged[:] = False  # legacy walk starts each day unplugged
        home_now = at_home[i]
        if plug_hours[hour_slot]:
            plugged |= home_now
        elif cw_hours[hour_slot]:
            plugged |= home_now & (level < 40.0)
        plugged &= (level < 100.0) & home_now
        level = np.where(
            plugged,
            np.minimum(100.0, level + 1.6),
            np.maximum(0.0, level - drain[i]),
        )
        if i % 3 == 0:
            r = i // 3
            levels[r] = level
            charging[r] = plugged
        i += 1
    return levels, charging


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def simulate_devices(
    profiles: Sequence[UserProfile],
    axis: TimeAxis,
    deployment: Deployment,
    demand: DemandModel,
    params: SimParams,
    *,
    seed: int,
    year: int,
    device_ids: Optional[Sequence[int]] = None,
) -> Iterator[DeviceResult]:
    """Simulate ``device_ids`` (default: every profile) through the batch
    kernel, yielding one :class:`DeviceResult` per device in input order.

    Every device draws from its own :func:`device_stream`, so the output
    does not depend on how the panel is split into calls.
    """
    grid = _CampaignGrid(axis, params)
    venue_index = _VenueApIndex(deployment)
    update_model = (UpdateModel(params.update_policy)
                    if params.update_policy is not None else None)
    if device_ids is None:
        device_ids = range(len(profiles))

    ids = list(device_ids)
    clock = StageClock()
    for lo in range(0, len(ids), _BLOCK_SIZE):
        block = ids[lo:lo + _BLOCK_SIZE]
        clock.restart()
        passes = [
            _simulate_device(
                profiles[device_id], grid, deployment, demand, params,
                update_model, venue_index,
                device_stream(seed, year, device_id), clock,
            )
            for device_id in block
        ]
        levels, charging = _battery_walk(
            np.stack([p.drain for p in passes], axis=1),
            np.stack([p.at_home for p in passes], axis=1),
            np.array([p.battery0 for p in passes]), grid,
        )
        levels = levels.astype(np.float32)
        clock.lap("battery")
        for d, (profile, tables, *_) in enumerate(passes):
            tables["battery"] = dict(
                device=np.full(len(levels), profile.user_id, dtype=np.int32),
                t=grid.battery_report, level=levels[:, d],
                charging=charging[:, d],
            )
            yield DeviceResult(device_id=profile.user_id, tables=tables)
    clock.report(get_recorder())
