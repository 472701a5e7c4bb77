#!/usr/bin/env python3
"""Run a campaign through the fault-injected collection pipeline (§2).

The measurement software uploads each 10-minute slot's records to a central
server; an upload that fails is cached on the device and sent later. A
``FaultPlan`` says what goes wrong: failed attempts (worse on 3G), server
outages, participants who drop out, retransmitted duplicates and a bounded
on-device cache. This example runs one small campaign three times and prints
each run's ``CollectionReport``:

1. without faults, as the reference;
2. with a 35% upload-failure rate and duplicates: every failed batch is
   retried until it arrives, so nothing is lost;
3. with an outage, a small cache and churn: evicted batches, batches
   stranded at the end and dropped-out participants are lost, which is the
   recruited-vs-valid gap of Table 1.

Usage::

    python examples/collection_pipeline.py
"""

import dataclasses

from repro import (
    FaultPlan,
    OutageWindow,
    default_campaign_config,
    run_campaign,
    validate_dataset,
)
from repro.reporting.collection import render_collection_report


def campaign(faults):
    """Two days of a small 2015 panel, collected under ``faults``."""
    config = default_campaign_config(2015, scale=0.005, seed=5, faults=faults)
    return run_campaign(dataclasses.replace(config, n_days=2), n_jobs=1)


def main() -> None:
    reference = campaign(None).dataset
    rows = reference.n_rows_total
    print(f"Reference: {reference.n_devices} devices, {rows} rows.\n")

    print("Uploading with a 35% upload-failure rate and 5% duplicates...")
    retried = campaign(FaultPlan(upload_failure_p=0.35, duplicate_p=0.05,
                                 final_drain_rounds=50, seed=1))
    print(render_collection_report(retried.collection))
    lost = rows - retried.dataset.n_rows_total
    print(f"Data loss after retries: {lost} samples (expected 0).\n")

    print("Uploading through a 100-slot outage with a 24-batch cache "
          "and 30% churn...")
    harsh = campaign(FaultPlan(
        upload_failure_p=0.1, upload_failure_p_3g_extra=0.1,
        outages=(OutageWindow(100, 200),), max_cache_batches=24,
        dropout_p=0.3, seed=1,
    ))
    print(render_collection_report(harsh.collection))
    print(validate_dataset(harsh.dataset))
    print(f"Rows lost to eviction, stranded caches and churn: "
          f"{rows - harsh.dataset.n_rows_total} of {rows}.")


if __name__ == "__main__":
    main()
