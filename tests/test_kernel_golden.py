"""Golden kernel digests and stream-equivalence pins.

Two guarantees that the determinism suite (same code run twice) cannot
give:

* **Golden digests.** The per-table sha256 of ``run_study(scale=0.02)``
  at seeds 3 and 11 (every table of every year, the observed-AP
  directory and the whole deployment) is committed here, as the kernel
  produced it before its stages were vectorized. A rewrite that moves
  any RNG stream, row order, float summation order or dtype changes a
  digest. The same digests pin the serial in-memory merge and the
  two-worker store merge.
* **Stream-equivalence pins.** Every batched draw or array rewrite in
  the world build and the kernel is checked against the scalar or
  per-group code it replaced, including the RNG state it leaves behind.
"""

from __future__ import annotations

import hashlib
from datetime import date

import numpy as np
import pytest

from repro import run_study
from repro.apps.demand import _RX_TX
from repro.net.identifiers import random_bssid
from repro.network_env import deployment as deployment_mod
from repro.network_env import public_wifi
from repro.radio.channels import CHANNELS_5GHZ, NON_OVERLAPPING_24GHZ
from repro.simulation import kernel
from repro.simulation.campaign import plan_campaign
from repro.simulation.study import default_campaign_config
from repro.timeutil import TimeAxis
from repro.traces.records import DeviceOS

#: sha256 per ``year.table`` of ``run_study(scale=0.02, seed=...)``: each
#: table's columns in name order (name, dtype, shape, then the bytes), the
#: observed-AP directory and the full deployment (see ``_study_digests``).
#: Recorded from the per-device, per-group kernel and world build that the
#: array versions replaced; they must never move.
GOLDEN = {
    3: {
        "2013.ap_directory":
            "9f654e0bab52bc428c9801dc1c082e8861a017efe6ec92cd2b8d0db195d1b48f",
        "2013.apps":
            "2d56af9cbe130388557b2f0afc57c02c7fb028581bd14ad7b53da7180d210120",
        "2013.battery":
            "3db97749dcbd7a6d2ca314d7cfead4ecc08ae0ffe73d4ef641977ca6e9eb063c",
        "2013.deployment":
            "2a40cb395dc8f6d54dc92e6c05ae4e03414767e6446df27247dd3f21c63f54b3",
        "2013.geo":
            "d008cd856c922cb05b8211bb1af7411aea32af7615cf809809e504fc4326d6b6",
        "2013.scans":
            "8af19e0ea5fa2560a96454e48f7b267f7ce8c4d45f0f2935a8e89566ae473736",
        "2013.sightings":
            "8d50e9e8384aef77aacd58c890a459fc20cea04e9a4d14dbf17e13e6e0804042",
        "2013.traffic":
            "cefbcb0c1cf1acacaa1d6f50387da0436f448750120e28c4ee8463d644b21d0f",
        "2013.updates":
            "23b34345cf4015ac415d242f29c55092d9f3ea8fe059b8f91bebea8954d182e1",
        "2013.wifi":
            "4614484eb5be7f23cf2acb1bc253fc98bb31da019a1922d9c2d1bb83670fd828",
        "2014.ap_directory":
            "ecf5fe29c3ff71f9bdb66950dcaee468dc6b405da9baa883f0657da7fd8bd261",
        "2014.apps":
            "e4da817da44ca5ff0235838a3e473a496d752dea0e1fea7bffd4d18703f57c0b",
        "2014.battery":
            "8c6d50c7c003ebbe0859aaab65f2fbc6edf1d3839c6e5aa8c18f1e5b6e86076e",
        "2014.deployment":
            "7387531a73811ea40bd031d85af588f3023b72841de42e8e2221174b8646319c",
        "2014.geo":
            "5349acc7cbb2b91118a8f745c14922d602e6edd8a14ee9a72b87cedddb07370e",
        "2014.scans":
            "003e78c02e0727442a08d870580434e8218e4490ae51d4421f303f4bd0dd81aa",
        "2014.sightings":
            "5517a42882a49de1e57f8447b9f3c2d0fb85dabaf16f14ccfbf41f5057c34015",
        "2014.traffic":
            "5a86a9b936829b8f088b1509dea8c96304e283f8bb467a39fcde95dae885b093",
        "2014.updates":
            "23b34345cf4015ac415d242f29c55092d9f3ea8fe059b8f91bebea8954d182e1",
        "2014.wifi":
            "ead94d2bf27a8aca4c179afff10a885226b20114344180e501a2c825476ee416",
        "2015.ap_directory":
            "5dd7f74fe00781ee20fce4c1d3d797e363b8ac9b8b540c936308aec1cecfaef2",
        "2015.apps":
            "a64a550051d3780367778c0cde80463cb88636c26d362b9144f23d663db7d7f3",
        "2015.battery":
            "da7a33c64d3bbe71514e8db0633971dee67b2823293c55a8866808aaf3cf4cb1",
        "2015.deployment":
            "2b4c46b15546dd0c619ccb1cb589dcfdc0b37968208dabbb5de774ef4fe903a5",
        "2015.geo":
            "8062d3308298810cdbc041342415feb39ea9f98cfd368d0464007fcaa3b36781",
        "2015.scans":
            "3c3d4f0fc83f3b05e10861866e8dfb2c161c56b11893d3284456f4a3e41db427",
        "2015.sightings":
            "bf20ce435f950f5b80df192a61ccdad4508bf136c974c4555752442b8d88abd9",
        "2015.traffic":
            "1a58ff994db7948712493f4bdad17fe4fc9e809bf7f3b87e5dc3e8518cb82be5",
        "2015.updates":
            "7e1679f1ee1700fa9c92ddb54bd08badc6c693f38929525bda8e16cad247e2ec",
        "2015.wifi":
            "0586d07f5d16bebb4095a1ec04c6e0ccdce131d94f9921232a8793d4ad8230d7",
    },
    11: {
        "2013.ap_directory":
            "a2f7d0dcee478a8780bb9573c9914d067ebee5c5a8eddaf1ffdcb55b34f652fc",
        "2013.apps":
            "c61c84f8f3f617d0872f6bae7c0067ab34ce1f471dd203e96f06a289a1ff5e06",
        "2013.battery":
            "b9ff9a79a1285af035ecef605fc75a0aa8b8e18d80a406fda6085a25097cdc66",
        "2013.deployment":
            "8963451c923f38a0c38410f59e71dd008ea745d66f014907f42dd4c30bc3cbf2",
        "2013.geo":
            "3e8da66213fa2d986975e5f3be8e2cfef17345bf01114eaef474b736efb5a00e",
        "2013.scans":
            "871e48980f018948d4d5fb952ab68bcd7b5afd68ffe9ca08dfb38cf8758708f2",
        "2013.sightings":
            "ed019879e9c428c9514a90524fd15134af49b752cb65e51bd5308879fe581fdb",
        "2013.traffic":
            "d2228adca96ca9f805066990f16231499332998cbdcf568b2ddab00bd88ddd3d",
        "2013.updates":
            "23b34345cf4015ac415d242f29c55092d9f3ea8fe059b8f91bebea8954d182e1",
        "2013.wifi":
            "c2355df7af09a6956533705cec3399556d6f00fcee7dd0c5ee85d7163163c1c5",
        "2014.ap_directory":
            "72de24714e333149557a68fb23369db2c4379d46be078368f19114db9c0890ab",
        "2014.apps":
            "031676086ef50b5651dc9af90970778a8a901d0e1f0b4dd84a068c74cbd7d200",
        "2014.battery":
            "69489f51f4076697ffd1818540c84363cd85a94151a7455a48188644ac949d46",
        "2014.deployment":
            "ab2891342686751c0de161c94020aa94bbc0076ce17fab3f1bc6f89a430ad581",
        "2014.geo":
            "fb319f497126ba89e08b04238a121bcce2f8e1194c287be62680fae82301d89c",
        "2014.scans":
            "75216e53ec38540f6ed3fb87baec3ebde6107aeab92fe8ac47330f349f14ca86",
        "2014.sightings":
            "6bb728aa92959f1067a149d92e4bb39e5f2c7913d8e63b1c586a90aab99829f2",
        "2014.traffic":
            "3b370f3aa0233768c350f3bc82112ade57291f80eb3798463270d43f14ee6818",
        "2014.updates":
            "23b34345cf4015ac415d242f29c55092d9f3ea8fe059b8f91bebea8954d182e1",
        "2014.wifi":
            "87117cb20e81426125eef1ebe12ba09c2c632c7f528e00de21fe52a881fd5c7c",
        "2015.ap_directory":
            "43165a42165a9ee08b49bcd0a0a0dd4ab368784f86b3df651e38e108aff9a0a9",
        "2015.apps":
            "c95bc4b2a2b5ba81d894947b4aef0e43595d0c9e77dcd05b655239cbf3d130d2",
        "2015.battery":
            "c60604fdfc8eaed6740899f2a4d5ae196464b6ff84f85f31e1fdc5210dd8a1e3",
        "2015.deployment":
            "d3f04e706cfe29617e290b2991727f5a766570bae7dc104b6eddd1904ddd850a",
        "2015.geo":
            "a8586a808d759f3d5407c04ef508b9f6f61147e9567a2c2be357ac87eed158f8",
        "2015.scans":
            "a044dd9608ffa2d822be9f99a3d63292b1ed630e88bb7a6331259c1ad96de9d4",
        "2015.sightings":
            "ff97f424ceb4b71a84c583529ac088f9c5bf5b6a096da0f978d40209a750afd7",
        "2015.traffic":
            "291f8d31e9b23994912f4d4bca8ae3bf0552c12e30a9ca674767b9bf39baeb95",
        "2015.updates":
            "ffd45e0c78fa82ca5bbdd194f9112644d4dd7214276bdf2c030664a434bd1931",
        "2015.wifi":
            "ab4bfac8b32c4e7cf92924f6866a0a1f5a6c4c37da5fd79f756ead5fd46e2bcf",
    },
}

SCALE = 0.02


def _study_digests(seed: int, n_jobs: int = 1, store_dir=None) -> dict:
    study = run_study(scale=SCALE, seed=seed, n_jobs=n_jobs,
                      store_dir=store_dir)
    out = {}
    for year in sorted(study.campaigns):
        dataset = study.dataset(year)
        assert {d.os for d in dataset.devices} == {DeviceOS.ANDROID,
                                                   DeviceOS.IOS}
        for table in dataset.table_names:
            columns = getattr(dataset, table).columns
            parts = []
            for name in sorted(columns):
                col = np.ascontiguousarray(columns[name])
                parts.append(f"{name}:{col.dtype.str}:{col.shape}")
                parts.append(memoryview(col).cast("B").tobytes())
            out[f"{year}.{table}"] = _sha_joined(parts)
        out[f"{year}.ap_directory"] = _sha_lines(
            f"{e.ap_id}|{e.bssid}|{e.essid}|{e.band.name}|{e.channel}"
            for _, e in sorted(dataset.ap_directory.items()))
        deployment = plan_campaign(
            default_campaign_config(year, scale=SCALE, seed=seed)
        ).world.deployment
        lines = [
            f"{i}|{a.bssid}|{a.essid}|{a.band.name}|{a.channel}|"
            f"{a.location.lat!r}|{a.location.lon!r}|{a.ap_type.name}"
            for i, a in sorted(deployment.aps.items())
        ]
        lines += [f"{user}:{aps}" for user, aps
                  in sorted(deployment.familiar_open_aps.items())]
        out[f"{year}.deployment"] = _sha_lines(lines)
    return out


def _sha_joined(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
    return h.hexdigest()


def _sha_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("seed, store", [
    param for seed in sorted(GOLDEN) for param in (
        pytest.param(seed, False, id=str(seed)),
        pytest.param(seed, True, id=f"{seed}-store-jobs2"),
    )
])
def test_dataset_digests_match_the_golden_record(seed, store, tmp_path):
    digests = (_study_digests(seed, n_jobs=2, store_dir=tmp_path) if store
               else _study_digests(seed))
    assert sorted(digests) == sorted(GOLDEN[seed])
    moved = [key for key in sorted(digests) if digests[key] != GOLDEN[seed][key]]
    assert not moved, f"seed {seed}: digests moved for {moved}"


# ----------------------------------------------------------------------
# World build: scalar draws without the per-call array work
# ----------------------------------------------------------------------

@pytest.mark.parametrize("cdf, p", [
    (deployment_mod._ANCHOR_CDF, deployment_mod._ANCHOR_P),
    (public_wifi._PROVIDER_CDF, public_wifi._PROVIDER_P),
])
def test_cdf_pick_is_weighted_choice(cdf, p):
    a, b = np.random.default_rng(21), np.random.default_rng(21)
    picks = [int(a.choice(len(p), p=p)) for _ in range(10_000)]
    assert picks == [int(cdf.searchsorted(b.random(), side="right"))
                     for _ in range(10_000)]
    assert len(set(picks)) == len(p)
    assert a.random() == b.random()  # same stream position afterwards


@pytest.mark.parametrize("options", [
    NON_OVERLAPPING_24GHZ, CHANNELS_5GHZ, public_wifi._VENUE_KINDS,
])
def test_index_draw_is_uniform_choice(options):
    a, b = np.random.default_rng(4), np.random.default_rng(4)
    picks = [a.choice(options).item() for _ in range(10_000)]
    assert picks == [options[int(b.integers(0, len(options)))]
                     for _ in range(10_000)]
    assert a.random() == b.random()


def test_bssid_hex_format_is_the_joined_octets():
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(2_000):
        octets = a.integers(0, 256, size=6, dtype=np.int64)
        parts = [(int(octets[0]) | 0x02) & 0xFE] + [int(o) for o in octets[1:]]
        assert random_bssid(b) == ":".join(f"{o:02x}" for o in parts)
    assert a.random() == b.random()


# ----------------------------------------------------------------------
# Kernel: batched draws and array rewrites
# ----------------------------------------------------------------------

def test_one_random_draw_is_the_per_group_draws():
    shapes = [(3, 7), (1, 40), (5, 1), (2, 13)]
    a, b = np.random.default_rng(8), np.random.default_rng(8)
    per_group = np.concatenate([a.random(shape).ravel() for shape in shapes])
    one = b.random(sum(r * m for r, m in shapes))
    np.testing.assert_array_equal(per_group, one)
    assert a.random() == b.random()


def test_reshape_day_sums_are_the_per_day_sums():
    rng = np.random.default_rng(12)
    for n_days in (1, 7, 23):
        x = rng.lognormal(8.0, 3.0, n_days * 144)
        x[rng.random(x.size) < 0.3] = 0.0
        x = np.minimum(x, 2.5e6)
        rows = x.reshape(n_days, 144).sum(axis=1).tolist()
        assert rows == [float(x[d * 144:(d + 1) * 144].sum())
                        for d in range(n_days)]


def _grid(n_days):
    params = default_campaign_config(2015, scale=0.01).params
    return kernel._CampaignGrid(TimeAxis(date(2015, 6, 1), n_days), params)


def _legacy_battery_walk(drain, at_home, level, grid):
    """The per-slot walk the accumulate fast path must reproduce."""
    level = level.copy()
    n_dev = len(level)
    plugged = np.zeros(n_dev, dtype=bool)
    report = grid.battery_report
    levels = np.empty((len(report), n_dev))
    charging = np.empty((len(report), n_dev), dtype=np.int8)
    for i in range(grid.n_slots):
        hour_slot = i % 144
        if hour_slot == 0:
            plugged[:] = False
        home_now = at_home[i]
        if grid.charge_window_hours[hour_slot]:
            plugged |= home_now & ((level < 40.0)
                                   | grid.plug_hours[hour_slot])
        plugged &= (level < 100.0) & home_now
        level = np.where(plugged, np.minimum(100.0, level + 1.6),
                         np.maximum(0.0, level - drain[i]))
        if i % 3 == 0:
            levels[i // 3] = level
            charging[i // 3] = plugged
    return levels, charging


def _battery_block(seed, n_days):
    """Devices covering the walk's corners, plus random ones."""
    rng = np.random.default_rng(seed)
    n_slots = n_days * 144
    hour = np.tile(np.arange(144) // 6, n_days)
    columns = []
    # Away all day with a heavy drain: the level reaches 0 and stays.
    columns.append((np.full(n_slots, 1.9), np.zeros(n_slots, bool), 30.0))
    # Home all day from an empty battery: plugged at 00:00, still
    # charging past 07:00, and reaching 100 mid-morning.
    columns.append((np.full(n_slots, 0.05), np.ones(n_slots, bool), 2.0))
    # Home nights only: charges overnight, drains through the day.
    columns.append((rng.uniform(0.05, 0.6, n_slots),
                    (hour < 8) | (hour >= 19), 60.0))
    # Full at the start, at home: unplugs at once (level == 100).
    columns.append((np.full(n_slots, 0.3), np.ones(n_slots, bool), 100.0))
    for _ in range(40):
        home = rng.random(n_slots) < rng.uniform(0.2, 0.95)
        home = np.repeat(home[::6], 6)[:n_slots]  # hour-long runs
        columns.append((0.05 + rng.exponential(rng.uniform(0.05, 1.5),
                                               n_slots),
                        home, float(rng.uniform(0.0, 100.0))))
    drain = np.stack([c[0] for c in columns], axis=1)
    at_home = np.stack([c[1] for c in columns], axis=1)
    level0 = np.array([c[2] for c in columns])
    return drain, at_home, level0


@pytest.mark.parametrize("seed, n_days", [(1, 1), (2, 3), (3, 9)])
def test_accumulate_battery_walk_is_the_per_slot_walk(seed, n_days):
    grid = _grid(n_days)
    drain, at_home, level0 = _battery_block(seed, n_days)
    levels, charging = kernel._battery_walk(drain, at_home, level0, grid)
    want_levels, want_charging = _legacy_battery_walk(
        drain, at_home, level0, grid)
    np.testing.assert_array_equal(levels, want_levels)
    np.testing.assert_array_equal(charging, want_charging)
    # The corners the block is built to hit all occur.
    assert (want_levels == 0.0).any() and (want_levels == 100.0).any()
    # Device 1 is still charging at 07:00 (report row 14) on day one.
    assert want_charging[14, 1] == 1


def _legacy_emit_apps(profile, grid, states, assoc, cell_col, cell_row,
                      rx_wifi, tx_wifi, rx_cell, tx_cell, rng):
    """The per-day, per-state group assembly the array version replaced."""
    n_days = grid.n_days
    day_of = grid.day_index
    n_states = kernel._N_STATES
    key = day_of * n_states + states
    minlength = n_days * n_states
    rx_by = np.bincount(key, weights=rx_cell, minlength=minlength) \
        .reshape(n_days, n_states)
    tx_by = np.bincount(key, weights=tx_cell, minlength=minlength) \
        .reshape(n_days, n_states)
    present = np.bincount(key, minlength=minlength).reshape(n_days, n_states)
    ap_rows_by_day = {}
    assoc_mask = assoc >= 0
    if assoc_mask.any():
        idx = np.flatnonzero(assoc_mask)
        pair = day_of[idx].astype(np.int64) * (assoc.max() + 1) + assoc[idx]
        uniq, first, inverse = np.unique(
            pair, return_index=True, return_inverse=True)
        rxw = np.bincount(inverse, weights=rx_wifi[idx])
        txw = np.bincount(inverse, weights=tx_wifi[idx])
        first_slot = idx[first]
        for g in range(len(uniq)):
            slot = int(first_slot[g])
            ap_rows_by_day.setdefault(int(day_of[slot]), []).append(
                (int(assoc[slot]), float(rxw[g]), float(txw[g]),
                 int(states[slot])))
    groups = []
    for day in range(n_days):
        cell_groups = {}
        for code in range(n_states):
            if not present[day, code]:
                continue
            rx_sum = float(rx_by[day, code])
            tx_sum = float(tx_by[day, code])
            if rx_sum + tx_sum < 1.0:
                continue
            cell = (int(cell_col[day, code]), int(cell_row[day, code]))
            acc = cell_groups.setdefault(cell, [0.0, 0.0])
            acc[0] += rx_sum
            acc[1] += tx_sum
        for cell, (rx_sum, tx_sum) in cell_groups.items():
            groups.append((day, True, -1, cell, rx_sum, tx_sum))
        for ap_id, rx_sum, tx_sum, code in ap_rows_by_day.get(day, ()):
            if rx_sum + tx_sum < 1.0:
                continue
            cell = (int(cell_col[day, code]), int(cell_row[day, code]))
            groups.append((day, False, ap_id, cell, rx_sum, tx_sum))
    if not groups:
        return None
    n_groups = len(groups)
    cellular = np.array([g[1] for g in groups])
    shares = np.where(cellular[:, None], profile.mix.context_shares(False),
                      profile.mix.context_shares(True))
    rx_sums = np.array([g[4] for g in groups])
    tx_sums = np.array([g[5] for g in groups])
    noisy = shares * rng.gamma(2.0, 0.5, size=(n_groups, len(_RX_TX)))
    totals = noisy.sum(axis=1)
    rx_shares = noisy / totals[:, None]
    tx_weights = rx_shares / _RX_TX
    tx_totals = tx_weights.sum(axis=1)
    safe = np.where(tx_totals > 0, tx_totals, 1.0)
    tx_shares = np.where((tx_totals > 0)[:, None],
                         tx_weights / safe[:, None], rx_shares)
    cat_rx = rx_sums[:, None] * rx_shares
    cat_tx = tx_sums[:, None] * tx_shares
    mass = cat_rx + cat_tx
    order = np.argsort(-mass, axis=1, kind="stable")
    sorted_mass = np.take_along_axis(mass, order, axis=1)
    total_mass = mass.sum(axis=1)
    before = np.cumsum(sorted_mass, axis=1) - sorted_mass
    keep = (before < 0.995 * total_mass[:, None]) \
        & (total_mass[:, None] > 0) & (sorted_mass >= 1.0)
    counts = keep.sum(axis=1)
    if not counts.any():
        return None
    rep = lambda values: np.repeat(np.array(values), counts)  # noqa: E731
    return dict(
        device=np.full(int(counts.sum()), profile.user_id),
        day=rep([g[0] for g in groups]),
        category=order[keep],
        cellular=rep(cellular.astype(np.int64)),
        ap_id=rep([g[2] for g in groups]),
        col=rep([g[3][0] for g in groups]),
        row=rep([g[3][1] for g in groups]),
        rx=np.take_along_axis(cat_rx, order, axis=1)[keep],
        tx=np.take_along_axis(cat_tx, order, axis=1)[keep],
    )


@pytest.fixture(scope="module")
def android_profile():
    world = plan_campaign(default_campaign_config(2015, scale=0.01,
                                                  seed=5)).world
    return next(p for p in world.profiles if p.os is DeviceOS.ANDROID)


@pytest.mark.parametrize("seed", range(24))
def test_apps_assembly_is_the_per_day_loop(seed, android_profile):
    rng = np.random.default_rng(seed)
    n_days = int(rng.integers(1, 6))
    grid = _grid(n_days)
    n_slots = grid.n_slots
    # Hour-long runs of random states and associations.
    states = np.repeat(rng.integers(0, kernel._N_STATES, n_slots // 6), 6)
    aps = np.array([-1, -1, 4, 17, 250])
    assoc = np.repeat(aps[rng.integers(0, len(aps), n_slots // 6)], 6)
    # Few distinct cells, so states share a cell within a day.
    palette = np.array([[0, 0], [1, -2], [0, 0], [3, 1]])
    cells = palette[rng.integers(0, len(palette), (n_days, kernel._N_STATES))]
    cell_col, cell_row = cells[..., 0], cells[..., 1]
    volume = rng.lognormal(6.0, 3.0, (4, n_slots))
    volume[rng.random((4, n_slots)) < 0.5] = 0.0
    volume[:, rng.random(n_slots) < 0.05] = 0.3  # sub-byte groups
    rx_wifi, tx_wifi, rx_cell, tx_cell = volume
    wifi = assoc >= 0
    rx_wifi, tx_wifi = rx_wifi * wifi, tx_wifi * wifi
    rx_cell, tx_cell = rx_cell * ~wifi, tx_cell * ~wifi

    tables = {}
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    kernel._emit_apps(android_profile, grid, None, None, states, assoc,
                      cell_col, cell_row, rx_wifi, tx_wifi, rx_cell, tx_cell,
                      tables, ours)
    want = _legacy_emit_apps(android_profile, grid, states, assoc, cell_col,
                             cell_row, rx_wifi, tx_wifi, rx_cell, tx_cell,
                             theirs)
    assert ours.random() == theirs.random()
    if want is None:
        assert "apps" not in tables
        return
    got = tables["apps"]
    assert sorted(got) == sorted(want)
    for name, col in want.items():
        np.testing.assert_array_equal(got[name], col, err_msg=name)
