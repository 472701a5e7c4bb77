"""Golden digests of faulted collection.

``tests/test_kernel_golden.py`` pins what the kernel emits; this module
pins what the collection pipeline keeps of it under faults. For one
campaign year at scale 0.02, seeds 3 and 11, and three fault plans, it
commits:

* the per-table sha256 of the collected dataset and its AP directory;
* ``CollectionReport.totals()`` with the server's ``batches_received``
  and ``duplicates_dropped``;
* a digest of every device's ``DeviceCollectionStats``;
* the telemetry the pump leaves: the summed ``pump.upload_failures``
  counter and a digest of the ``fault_loss`` events.

Any rewrite of the upload cache, retry, outage, churn or dedup rules that
moves a draw, a delivered batch or a counter changes a pin.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.collection.faults import FaultPlan, OutageWindow
from repro.obs.recorder import EventKind, FlightRecorder, use_recorder
from repro.simulation.campaign import run_campaign
from repro.simulation.study import default_campaign_config

YEAR = 2014  # 23 days: 3312 upload slots
SCALE = 0.02

PLANS = {
    # ROADMAP's lossy plan: 5% upload failure, 5% dropout, 1% duplicates.
    "lossy": FaultPlan(upload_failure_p=0.05, dropout_p=0.05,
                       duplicate_p=0.01),
    # A 400-slot outage against an 8-batch cache evicts; 3G fails more.
    "outage_evict": FaultPlan(
        upload_failure_p=0.05, upload_failure_p_3g_extra=0.1,
        outages=(OutageWindow(1000, 1400),), max_cache_batches=8,
        duplicate_p=0.02, dropout_p=0.2, seed=1,
    ),
    # Dark from slot 3100 past the campaign end: the bounded final drain
    # stalls and cached batches stay stranded on the devices.
    "dark_end": FaultPlan(
        upload_failure_p=0.2, outages=(OutageWindow(3100, 10_000),),
        max_cache_batches=64, duplicate_p=0.05, final_drain_rounds=3,
        seed=2,
    ),
}

#: ``_collect`` per (plan, seed), recorded from the per-tick agent →
#: uploader → transport → server replay. Any rewrite of the upload rules
#: must reproduce every value.
GOLDEN = {
    ("dark_end", 3): {
        "batches_received": 105393,
        "device_stats":
            "d40ee2938ccc1d679b5d2325cb41db6af523c4f0a4df1672264064566c21f2bc",
        "duplicates_dropped": 5267,
        "fault_loss":
            "0417af25722d3042f45e1394b9e25ee9deffcf85d25372583e2240c7994be6c2",
        "table.ap_directory":
            "5902c5cfb4d248146c43642f6a759f263f9904e98f423bd1059b9ab2ad305c88",
        "table.apps":
            "afc44ed25075b8f0181e9c97cef2d88f32f8fb61ee51c6047b108e160bf0ee0d",
        "table.battery":
            "bb6ff235376da42073692d228550152dd682703c9c0842e7bc3c13b17193b759",
        "table.geo":
            "868de7979599dfcfb232f0041cabe1f5328ceafb406c2c98bef2e55ee3c7a7be",
        "table.scans":
            "896f6cc1f7024fc6f4de19d899bc4471d6d38291fc72b51e5f427f2df755e8d8",
        "table.sightings":
            "0e3341f2f28971c9eaf3ebbfc06961f67e63e31b44b7e643d545c14a9e9175fc",
        "table.traffic":
            "3d687c3f9f94a4eb8cad1187420f2a98c21a97ff8742fbff26f761ee5aced11d",
        "table.updates":
            "23b34345cf4015ac415d242f29c55092d9f3ea8fe059b8f91bebea8954d182e1",
        "table.wifi":
            "15e54be301f85bd57e3b277151f27a3cc3d67b767739a8e207162dc3c092c731",
        "totals": {
            "cached": 2176, "churned": 0, "delivered": 105393,
            "dropped": 5039, "duplicates": 5267, "ticks": 112608,
            "uploaded": 112608,
        },
        "upload_failures": 33865,
    },
    ("dark_end", 11): {
        "batches_received": 105392,
        "device_stats":
            "967c6c8cb9dfec9a40284873e8a06186fdb0898563c6051ca2ff275dd3148593",
        "duplicates_dropped": 5256,
        "fault_loss":
            "8744136f993eb00d7048012288644df360db8f7df26524d33d9135db5702b128",
        "table.ap_directory":
            "6168414eb4473cd34999d195dd5a4b87e68f4fcf64be3a9a229338cea05a764e",
        "table.apps":
            "5c658881b08fe554eb642dd31825e23b71d933c011f0f3a9c779be1d95f38d8b",
        "table.battery":
            "eb7df54b9611f6925fc154fad4a1747a3de829626003e293e38185c05cb005e1",
        "table.geo":
            "ec4b0cb48112ad3261de4292d61e6eef78e8dc6d34dcf616b4960fca9e9e68d6",
        "table.scans":
            "a7a76252d47bcc23d71286d42da2941a14dc18fd269908851034f504fdffa989",
        "table.sightings":
            "ad49e2fe67e7981909c0664ed1861009a9450d9bf402754f04cf1b59cc9b49ad",
        "table.traffic":
            "a7ccc9ad1592f88e35e7cd7a31d85623b705d0e69358ece94d8a749f29bd1fc1",
        "table.updates":
            "23b34345cf4015ac415d242f29c55092d9f3ea8fe059b8f91bebea8954d182e1",
        "table.wifi":
            "c8878eda9df1f89077246bf932d902d3d5e975df37830815065272f8e3c4014e",
        "totals": {
            "cached": 2176, "churned": 0, "delivered": 105392,
            "dropped": 5040, "duplicates": 5256, "ticks": 112608,
            "uploaded": 112608,
        },
        "upload_failures": 33788,
    },
    ("lossy", 3): {
        "batches_received": 112608,
        "device_stats":
            "a96f69e6bff3ba8b8e5736c95fd498b0bdaaf240a57a03d99802b3ac88caabfc",
        "duplicates_dropped": 1164,
        "fault_loss":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "table.ap_directory":
            "5902c5cfb4d248146c43642f6a759f263f9904e98f423bd1059b9ab2ad305c88",
        "table.apps":
            "e4da817da44ca5ff0235838a3e473a496d752dea0e1fea7bffd4d18703f57c0b",
        "table.battery":
            "8c6d50c7c003ebbe0859aaab65f2fbc6edf1d3839c6e5aa8c18f1e5b6e86076e",
        "table.geo":
            "5349acc7cbb2b91118a8f745c14922d602e6edd8a14ee9a72b87cedddb07370e",
        "table.scans":
            "003e78c02e0727442a08d870580434e8218e4490ae51d4421f303f4bd0dd81aa",
        "table.sightings":
            "5517a42882a49de1e57f8447b9f3c2d0fb85dabaf16f14ccfbf41f5057c34015",
        "table.traffic":
            "5a86a9b936829b8f088b1509dea8c96304e283f8bb467a39fcde95dae885b093",
        "table.updates":
            "23b34345cf4015ac415d242f29c55092d9f3ea8fe059b8f91bebea8954d182e1",
        "table.wifi":
            "ead94d2bf27a8aca4c179afff10a885226b20114344180e501a2c825476ee416",
        "totals": {
            "cached": 0, "churned": 0, "delivered": 112608, "dropped": 0,
            "duplicates": 1164, "ticks": 112608, "uploaded": 112608,
        },
        "upload_failures": 6048,
    },
    ("lossy", 11): {
        "batches_received": 111176,
        "device_stats":
            "15c529143cd1e0a61b4c8fa0e15c0a2ee9114c373604c6b2b5257eb365e1207c",
        "duplicates_dropped": 1121,
        "fault_loss":
            "35bc863c84c21b5fbb0247874897e3321c83390f0ca2a6e7d3392bccdb9cb964",
        "table.ap_directory":
            "6168414eb4473cd34999d195dd5a4b87e68f4fcf64be3a9a229338cea05a764e",
        "table.apps":
            "be3f4d0189aae72d41646e7096d2f948d04fbf6f002413f06cfef5a4eef4ebcc",
        "table.battery":
            "126875a2778c9ae35f6d257c12edef26fac337a16c94a7e3e7e959d7fd18f1e7",
        "table.geo":
            "3c27fddba286255ea270b84acd9ebfffca44fa467f8530b03dd4f90bd4d4af89",
        "table.scans":
            "c601aa733cdc8a0ad7e0a8f697ceab4d7f5aaf32f4bb8e63291366c4151455bd",
        "table.sightings":
            "26881954ce92a723ed1c8230be0ffcadb2edbb56480d861bb3f24e8c91f20487",
        "table.traffic":
            "51269ca866b4e2f32b92c542fe71ff838f4465e28c89c1957b8117ae0a049a8c",
        "table.updates":
            "23b34345cf4015ac415d242f29c55092d9f3ea8fe059b8f91bebea8954d182e1",
        "table.wifi":
            "25b4b0f95426b6a3ff30ccce40f91176152d8b0679c6d9c217e11fd7c3a18602",
        "totals": {
            "cached": 0, "churned": 1432, "delivered": 111176, "dropped": 0,
            "duplicates": 1121, "ticks": 112608, "uploaded": 111176,
        },
        "upload_failures": 5805,
    },
    ("outage_evict", 3): {
        "batches_received": 93389,
        "device_stats":
            "9b0808c0a68311101137d0a238b28d0ee9fba76d9441afca47e0bbb2f24a9859",
        "duplicates_dropped": 1783,
        "fault_loss":
            "8ef84ba6ce6ca0f76d0ac979402fba3cff9c14bb67e5c14d2d0757917a3c99cd",
        "table.ap_directory":
            "5902c5cfb4d248146c43642f6a759f263f9904e98f423bd1059b9ab2ad305c88",
        "table.apps":
            "87772276d291eb9eb9baff7b6a663e23ff9d62c0812348877cf40a6627b7a226",
        "table.battery":
            "dc9a29bea968155bad05a001ee0a33d87d6c6345b58914fff70657e5b254a2fd",
        "table.geo":
            "a42e4c7b8b1edae83886e6d3c8b19924a67965270e5d5fb758105f7342be0fda",
        "table.scans":
            "492debb27b29c8b77343dc95cdb07ae0507823b183ab0080c39ac1e7f6aa15bd",
        "table.sightings":
            "1c0fa0b51c9e3b4b7e1c473adeb9fa1f794b85b9d98f8d100eb603c80dbfb66f",
        "table.traffic":
            "aaf251887859e36c4fe4cef2e33e65ed60cd11b957e770af47d0607f47781b82",
        "table.updates":
            "23b34345cf4015ac415d242f29c55092d9f3ea8fe059b8f91bebea8954d182e1",
        "table.wifi":
            "1e92b4f016257cd2e851c039f8c5edd07210f244a326e9787a9d595c27478c68",
        "totals": {
            "cached": 0, "churned": 6639, "delivered": 93389,
            "dropped": 12580, "duplicates": 1783, "ticks": 112608,
            "uploaded": 105969,
        },
        "upload_failures": 20011,
    },
    ("outage_evict", 11): {
        "batches_received": 92864,
        "device_stats":
            "c371081e576215601706adf77a212cb37996d7be648e828b19f48b5d32d8bc09",
        "duplicates_dropped": 1863,
        "fault_loss":
            "4158ca174fd16f56256cfd2cecc19a6536c64383d750bbebab9c8a6822d2a747",
        "table.ap_directory":
            "6168414eb4473cd34999d195dd5a4b87e68f4fcf64be3a9a229338cea05a764e",
        "table.apps":
            "ee85e51e96252998922ef08927a27e8829e5b48b98a9ee68779ea8e4bddf5eb4",
        "table.battery":
            "aedf0d294227592c54a26b207146c1146b41469bb0d5231573c8a0ef8367b1ab",
        "table.geo":
            "f83b8a07a4b42e559aa38b15d7ba2d842449714b385aee5d71869acb475aa54e",
        "table.scans":
            "6d868a5c7a46b41c065a4c6bbdddd3394cefd3b46f46d5d58c41b894f847a072",
        "table.sightings":
            "cf670e98f3dafc8e1fe33cd7b984aa9d92000bb01047589786d823a347dcc65b",
        "table.traffic":
            "1d6c4ffb5319d2b3e6b50a5fd1bc17a697155e16d2fe5abb0aaf045c7c283770",
        "table.updates":
            "23b34345cf4015ac415d242f29c55092d9f3ea8fe059b8f91bebea8954d182e1",
        "table.wifi":
            "ac6070de0b58e74206c169963352c1a4973d97566c074665249478cc16eed33c",
        "totals": {
            "cached": 0, "churned": 6373, "delivered": 92864,
            "dropped": 13371, "duplicates": 1863, "ticks": 112608,
            "uploaded": 106235,
        },
        "upload_failures": 21807,
    },
}


def _collect(seed: int, plan: FaultPlan) -> dict:
    events = []
    recorder = FlightRecorder(listener=events.append)
    config = default_campaign_config(YEAR, scale=SCALE, seed=seed,
                                     faults=plan)
    with use_recorder(recorder), recorder.span("golden"):
        result = run_campaign(config, n_jobs=1)
    dataset = result.dataset
    report = result.collection
    out = {}
    for table in dataset.table_names:
        columns = getattr(dataset, table).columns
        parts = []
        for name in sorted(columns):
            col = np.ascontiguousarray(columns[name])
            parts.append(f"{name}:{col.dtype.str}:{col.shape}")
            parts.append(memoryview(col).cast("B").tobytes())
        out[f"table.{table}"] = _sha(parts)
    out["table.ap_directory"] = _sha(
        f"{e.ap_id}|{e.bssid}|{e.essid}|{e.band.name}|{e.channel}\n"
        for _, e in sorted(dataset.ap_directory.items()))
    out["totals"] = dict(report.totals())
    out["batches_received"] = report.batches_received
    out["duplicates_dropped"] = report.duplicates_dropped
    out["device_stats"] = _sha(
        f"{s.device_id}|{s.ticks}|{s.churn_slot}|{s.churned}|{s.uploaded}|"
        f"{s.delivered}|{s.duplicates}|{s.dropped}|{s.cached}\n"
        for s in report.devices)
    out["upload_failures"] = sum(
        event.get("counters", {}).get("pump.upload_failures", 0)
        for event in events if event["kind"] == EventKind.SPAN_END.value)
    out["fault_loss"] = _sha(
        f"{e['device']}|{e['dropped']}|{e['churned']}|{e['churn_slot']}\n"
        for e in events if e["kind"] == EventKind.FAULT_LOSS.value)
    return out


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("plan", sorted(PLANS))
def test_faulted_collection_matches_the_golden_record(plan, seed):
    got = _collect(seed, PLANS[plan])
    assert got == GOLDEN[plan, seed]
