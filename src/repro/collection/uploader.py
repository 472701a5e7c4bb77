"""Uploader with failure caching (§2).

"The software collects statistics every 10 minutes and uploads this data to
a central server. If the upload fails the software caches the data and sends
it later." Each slot's records go out as one upload batch; a failed batch
stays in a bounded on-device cache and is retried, oldest first, before
anything newer. Which batches arrive depends only on attempt outcomes, never
on what a batch holds, so :func:`replay_uploads` plays the rules over batch
numbers.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Tuple

import numpy as np

from repro.collection.faults import DeviceCollectionStats, FaultPlan
from repro.net.cellular import CellularTechnology


def replay_uploads(
    device_id: int,
    slots: np.ndarray,
    plan: FaultPlan,
    technology: CellularTechnology,
    rng: np.random.Generator,
    n_slots: int,
) -> Tuple[np.ndarray, DeviceCollectionStats, int]:
    """Replay one device's uploads of the batches at ``slots`` under ``plan``.

    ``slots`` are the device's occupied upload slots in increasing order.
    The rules, in the order they draw from ``rng``:

    * the churn slot is drawn first; from it on the device uploads nothing;
    * each tick appends its batch, evicts the oldest batches beyond
      ``max_cache_batches``, then flushes the cache oldest first and stops
      at the first failed attempt;
    * an attempt inside an outage window fails without a draw; otherwise it
      draws a failure uniform only when ``0 < p < 1``;
    * each delivered batch draws one duplicate uniform when
      ``duplicate_p > 0``;
    * the campaign ends with up to ``final_drain_rounds`` flushes at slot
      ``n_slots``.

    Nothing is drawn between attempts, so the attempts consume one stream of
    uniforms: ``stride`` per success, one per failure. The stream is drawn
    as one block and the loop runs once per failure or outage, not per tick.
    A zero plan is the closed form: everything arrives and nothing is drawn.

    Returns the delivered slots, the device's accounting and the number of
    failed attempts.
    """
    ticks = len(slots)
    if plan.is_zero:
        return slots, DeviceCollectionStats(
            device_id=device_id, ticks=ticks, churn_slot=None, churned=0,
            uploaded=ticks, delivered=ticks, duplicates=0, dropped=0,
            cached=0), 0
    churn_slot = None
    if plan.dropout_p > 0.0 and rng.random() < plan.dropout_p:
        earliest = min(int(n_slots * plan.dropout_min_frac),
                       max(n_slots - 1, 0))
        churn_slot = int(rng.integers(earliest, n_slots))
    n_up = ticks if churn_slot is None else int(
        np.searchsorted(slots, churn_slot))
    uploaded = slots[:n_up]
    cap = plan.max_cache_batches
    p = plan.failure_p(technology)
    draws_failure = int(0.0 < p < 1.0)
    draws_duplicate = int(plan.duplicate_p > 0.0)
    stride = draws_failure + draws_duplicate

    # Ticks whose flush fails at once: inside an outage, or p == 1.
    dark = np.full(n_up, p >= 1.0)
    for window in plan.outages:
        dark |= (uploaded >= window.start_slot) & (uploaded < window.end_slot)
    dark_end = p >= 1.0 or any(w.covers(n_slots) for w in plan.outages)
    run_ends = (np.flatnonzero(dark[1:] != dark[:-1]) + 1).tolist() + [n_up]

    # At most one failure per tick and per drain round; ``rng.random(n)``
    # is n scalar draws, and unused ones are thrown away with ``rng``.
    n_draws = stride * n_up + draws_failure * (n_up + plan.final_drain_rounds)
    u = rng.random(n_draws)
    # Per residue r modulo the stride, over the uniforms u[r::stride]: the
    # positions of failures, and running counts of duplicates.
    fails_at, dups_before = [], []
    for r in range(stride):
        u_r = u[r::stride]
        fails_at.append((np.flatnonzero(u_r < p) * stride + r).tolist())
        dups_before.append(np.cumsum(np.r_[False, u_r < plan.duplicate_p]))

    delivered = np.zeros(n_up, dtype=bool)
    pos = 0          # next unused uniform
    duplicates = 0

    def flush(lo: int, n: int) -> int:
        """Attempt batches ``lo .. lo + n - 1``; return how many arrived."""
        nonlocal pos, duplicates
        k = n
        if draws_failure:
            at = fails_at[pos % stride]
            j = bisect_left(at, pos)
            if j < len(at) and at[j] < pos + n * stride:
                k = (at[j] - pos) // stride
        if draws_duplicate:
            first = pos + draws_failure
            counts = dups_before[first % stride]
            duplicates += int(counts[first // stride + k]
                              - counts[first // stride])
        pos += k * stride + (k < n)
        delivered[lo:lo + k] = True
        return k

    # Eviction and delivery both take the oldest batch, so the cache is
    # always the run of batches lo .. i - 1 before tick i.
    lo = i = 0
    dropped = failures = 0
    while i < n_up:
        end = run_ends[bisect_left(run_ends, i + 1)]
        if dark[i]:
            # Every flush of the run fails; the cache keeps the newest.
            failures += end - i
            evict_to = max(lo, end - cap)
            dropped += evict_to - lo
            lo, i = evict_to, end
            continue
        evict_to = max(lo, i + 1 - cap)
        dropped += evict_to - lo
        # The cached batches, then one new batch per later tick of the run,
        # go out in one attempt stream until an attempt fails.
        lo = evict_to + flush(evict_to, end - evict_to)
        if lo == end:
            i = end
        else:
            failures += 1
            i = max(lo, i) + 1
    for _ in range(plan.final_drain_rounds):
        if lo == n_up:
            break
        if not dark_end:
            lo += flush(lo, n_up - lo)
            if lo == n_up:
                break
        failures += 1

    stats = DeviceCollectionStats(
        device_id=device_id, ticks=ticks, churn_slot=churn_slot,
        churned=ticks - n_up, uploaded=n_up,
        delivered=int(np.count_nonzero(delivered)), duplicates=duplicates,
        dropped=dropped, cached=n_up - lo,
    )
    return uploaded[delivered], stats, failures
