"""Property test: bulk ingest == direct builder appends, bit for bit.

The batch kernel's whole-device column arrays reach a dataset through
``CollectionServer.receive_bulk``, the only ingest. Appending the same
arrays straight into ``DatasetBuilder.extend_*`` must build the same
dataset: the builder's stable ``(device, t)`` lexsort makes both ingest
orders converge, so the property is exact equality — not statistical
agreement — for *any* batch, including the awkward ones (devices with no
records at all, all-zero traffic rows, rows out of slot order).

Fuzzed with hypothesis over a small panel; example counts are kept modest
because each example builds two datasets.
"""

from datetime import date

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection.server import (
    CollectionServer,
    occupied_slots,
    upload_slots,
)
from repro.net.cellular import CellularTechnology
from repro.timeutil import TimeAxis
from repro.traces.dataset import DatasetBuilder
from repro.traces.records import DeviceInfo, DeviceOS

from tests.helpers import received_dataset
from tests.test_engine import assert_datasets_identical

N_DAYS = 2
N_SLOTS = N_DAYS * 144
YEAR = 2015
START = date(2015, 3, 2)


def _axis():
    return TimeAxis(START, N_DAYS)


def _info(device_id):
    return DeviceInfo(
        device_id=device_id,
        os=DeviceOS.ANDROID if device_id % 2 == 0 else DeviceOS.IOS,
        carrier="docomo",
        technology=CellularTechnology.LTE,
        occupation="office worker",
    )


slots = st.integers(min_value=0, max_value=N_SLOTS - 1)
days = st.integers(min_value=0, max_value=N_DAYS - 1)
volumes = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, width=32),
)


@st.composite
def device_batch(draw):
    """One device's campaign output as per-table row tuples."""
    traffic = draw(st.lists(st.tuples(
        slots,
        st.sampled_from([0, 1, 2]),      # iface
        volumes, volumes,                # rx, tx (both may be zero)
        st.integers(0, 10_000), st.integers(0, 10_000),  # pkts
    ), max_size=6))
    wifi = draw(st.lists(st.tuples(
        slots,
        st.sampled_from([0, 1, 2, 3]),   # WifiStateCode
        st.integers(0, 50),              # ap_id (used when associated)
        st.floats(-90.0, -30.0, width=32),
    ), max_size=6))
    geo = draw(st.lists(
        st.tuples(slots, st.integers(0, 40), st.integers(0, 40)), max_size=6
    ))
    scans = draw(st.lists(st.tuples(
        slots,
        st.integers(0, 8), st.integers(0, 8),   # n24: strong + extra
        st.integers(0, 8), st.integers(0, 8),   # n5: strong + extra
    ), max_size=4))
    sightings = draw(st.lists(st.tuples(
        slots, st.integers(0, 50), st.floats(-90.0, -30.0, width=32)
    ), max_size=4))
    apps = draw(st.lists(st.tuples(
        days,
        st.integers(0, 7),               # category
        st.booleans(),                   # cellular
        st.integers(0, 50),              # ap_id (WiFi rows)
        st.integers(0, 40), st.integers(0, 40),
        volumes, volumes,
    ), max_size=4))
    updates = draw(st.lists(
        st.tuples(slots, st.floats(0.0, 2e9, allow_nan=False)), max_size=2
    ))
    battery = draw(st.lists(st.tuples(
        slots, st.floats(0.0, 100.0, allow_nan=False, width=32), st.booleans()
    ), max_size=6))
    return {
        "traffic": traffic, "wifi": wifi, "geo": geo, "scans": scans,
        "sightings": sightings, "apps": apps, "updates": updates,
        "battery": battery,
    }


def _columns(device_id, batch):
    """The batch as columnar tables, as the kernel would emit it."""
    tables = {}
    rows = batch["traffic"]
    if rows:
        t, iface, rx, tx, rxp, txp = zip(*rows)
        tables["traffic"] = dict(
            device=np.full(len(rows), device_id), t=np.array(t),
            iface=np.array(iface), rx=np.array(rx), tx=np.array(tx),
            rx_pkts=np.array(rxp), tx_pkts=np.array(txp),
        )
    if batch["wifi"]:
        t, state, ap_id, rssi = zip(*batch["wifi"])
        ap = [a if s == 2 else -1 for s, a in zip(state, ap_id)]
        tables["wifi"] = dict(
            device=np.full(len(t), device_id), t=np.array(t),
            state=np.array(state), ap_id=np.array(ap), rssi=np.array(rssi),
        )
    if batch["geo"]:
        t, col, row = zip(*batch["geo"])
        tables["geo"] = dict(
            device=np.full(len(t), device_id), t=np.array(t),
            col=np.array(col), row=np.array(row),
        )
    if batch["scans"]:
        t, s24, e24, s5, e5 = zip(*batch["scans"])
        tables["scans"] = dict(
            device=np.full(len(t), device_id), t=np.array(t),
            n24_all=np.array(s24) + np.array(e24), n24_strong=np.array(s24),
            n5_all=np.array(s5) + np.array(e5), n5_strong=np.array(s5),
        )
    if batch["sightings"]:
        t, ap_id, rssi = zip(*batch["sightings"])
        tables["sightings"] = dict(
            device=np.full(len(t), device_id), t=np.array(t),
            ap_id=np.array(ap_id), rssi=np.array(rssi),
        )
    if batch["apps"]:
        day, cat, cellular, ap_id, col, row, rx, tx = zip(*batch["apps"])
        ap = [a if not c else -1 for c, a in zip(cellular, ap_id)]
        tables["apps"] = dict(
            device=np.full(len(day), device_id), day=np.array(day),
            category=np.array(cat), cellular=np.array(cellular, dtype=int),
            ap_id=np.array(ap), col=np.array(col), row=np.array(row),
            rx=np.array(rx), tx=np.array(tx),
        )
    if batch["updates"]:
        t, nbytes = zip(*batch["updates"])
        tables["updates"] = dict(
            device=np.full(len(t), device_id), t=np.array(t),
            bytes=np.array(nbytes),
        )
    if batch["battery"]:
        t, level, charging = zip(*batch["battery"])
        tables["battery"] = dict(
            device=np.full(len(t), device_id), t=np.array(t),
            level=np.array(level), charging=np.array(charging, dtype=int),
        )
    return tables


def _ingest_two_ways(batches):
    """Build the batches' dataset via extend_* and via receive_bulk."""
    infos = [_info(device_id) for device_id in range(len(batches))]
    by_chunk = DatasetBuilder(YEAR, _axis())
    bulk = CollectionServer(YEAR, _axis())
    for info in infos:
        by_chunk.add_device(info)
        bulk.register_device(info)

    ticks = 0
    for info, batch in zip(infos, batches):
        tables = _columns(info.device_id, batch)
        for name, columns in tables.items():
            getattr(by_chunk, f"extend_{name}")(**columns)
        slots = upload_slots(info.device_id, tables, N_SLOTS)
        occupied = occupied_slots(slots, N_SLOTS)
        # One batch per slot holding any of the device's rows.
        assert occupied.tolist() == sorted(set().union(
            *(key.tolist() for key in slots.values())))
        ticks += bulk.receive_bulk(info.device_id, tables, slots, occupied)

    assert bulk.batches_received == ticks
    return by_chunk.build(), received_dataset(bulk)


@given(st.lists(device_batch(), min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_bulk_ingest_matches_per_record_ingest(batches):
    expected, bulk = _ingest_two_ways(batches)
    assert_datasets_identical(expected, bulk)


@given(device_batch())
@settings(max_examples=10, deadline=None)
def test_single_device_panel(batch):
    """A one-device panel holds too."""
    expected, bulk = _ingest_two_ways([batch])
    assert_datasets_identical(expected, bulk)


def test_empty_batch_is_zero_ticks():
    """A device that reported nothing contributes no rows and no ticks."""
    info = _info(0)
    server = CollectionServer(YEAR, _axis())
    server.register_device(info)
    slots = upload_slots(0, {}, N_SLOTS)
    assert slots == {}
    received = server.receive_bulk(0, {}, slots,
                                   occupied_slots(slots, N_SLOTS))
    assert received == 0
    assert server.batches_received == 0
    dataset = received_dataset(server)
    for name in ("traffic", "wifi", "geo", "scans", "sightings", "apps",
                 "updates", "battery"):
        assert len(getattr(dataset, name)) == 0


def test_all_zero_traffic_rows_are_kept():
    """Zero-byte counter rows survive ingest identically."""
    batch = {
        "traffic": [(5, 2, 0.0, 0.0, 0, 0), (6, 0, 0.0, 0.0, 0, 0)],
        "wifi": [], "geo": [], "scans": [], "sightings": [], "apps": [],
        "updates": [], "battery": [],
    }
    expected, bulk = _ingest_two_ways([batch])
    assert len(expected.traffic) == 2
    assert_datasets_identical(expected, bulk)


@given(device_batch(), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_partial_delivery_keeps_exactly_the_delivered_rows(batch, random):
    """``receive_bulk`` with a delivered subset of the batches == appending
    only the rows of those batches, in their original order."""
    info = _info(0)
    tables = _columns(0, batch)
    slots = upload_slots(0, tables, N_SLOTS)
    occupied = occupied_slots(slots, N_SLOTS).tolist()
    delivered = sorted(random.sample(occupied,
                                     random.randint(0, len(occupied))))
    by_chunk = DatasetBuilder(YEAR, _axis())
    by_chunk.add_device(info)
    for name, columns in tables.items():
        keep = np.isin(slots[name], delivered)
        getattr(by_chunk, f"extend_{name}")(
            **{col: values[keep] for col, values in columns.items()})
    server = CollectionServer(YEAR, _axis())
    server.register_device(info)
    received = server.receive_bulk(0, tables, slots,
                                   np.array(delivered, dtype=np.int64), 2)
    assert received == server.batches_received == len(delivered)
    assert server.duplicates_dropped == 2
    assert_datasets_identical(by_chunk.build(), received_dataset(server))
