"""Queueing inner loops over Python lists.

Only the two sequential scans live here: the multi-server FCFS start-time
recursion (Lindley) and the non-preemptive priority service loop. Everything
random is drawn outside with numpy Generators and passed in as arrays; the
scans convert them with ``.tolist()`` and run plain float arithmetic, which
is the same IEEE double arithmetic numpy's scalars do. Results are
bit-identical to an indexed numpy loop, without a numpy scalar built for
every element read.

The priority loop keeps the class heads in two heaps, so serving n jobs over
J classes costs O(n log J) rather than a scan of every head per job. Both
scans reject non-finite times up front: a NaN time defeats every comparison
the loops rely on, and the priority loop would never finish.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

import numpy as np

# Jobs converted to lists at a time by fcfs_start. Whole-array conversion of
# a 1M-job replication costs ~124 MB of boxed floats; 8192 costs ~1 MB.
FCFS_CHUNK = 8192


def _require_finite(**arrays: np.ndarray) -> None:
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")


def fcfs_start(arrivals, server_idx, service, n_servers):
    """Start times of jobs served FCFS by `n_servers` parallel queues.

    Jobs must already be ordered by arrival time (ties by position); job k
    waits for server_idx[k] to finish the jobs sent to it before.
    """
    _require_finite(arrivals=arrivals, service=service)
    n = arrivals.shape[0]
    start = np.empty(n, dtype=np.float64)
    free = [0.0] * n_servers
    for lo in range(0, n, FCFS_CHUNK):
        hi = lo + FCFS_CHUNK
        out = []
        for t, s, d in zip(
            arrivals[lo:hi].tolist(),
            server_idx[lo:hi].tolist(),
            service[lo:hi].tolist(),
        ):
            if free[s] > t:
                t = free[s]
            out.append(t)
            free[s] = t + d
        start[lo:hi] = out
    return start


def priority_start(arrivals, grouped, offsets, key, service):
    """Start times at one non-preemptive priority server.

    grouped[offsets[c]:offsets[c+1]] lists class c's job indices in arrival
    order, which enforces FIFO within a class. Whenever the server frees, it
    picks the waiting head with the largest key (ties: earlier arrival, then
    lower class index); an idle server waits for the next head to arrive.
    """
    _require_finite(arrivals=arrivals, service=service)
    if np.isnan(key).any():
        raise ValueError("key must not be NaN")
    arr = arrivals.tolist()
    grp = grouped.tolist()
    bounds = offsets.tolist()
    keys = key.tolist()
    svc = service.tolist()
    n = len(arr)
    start = [0.0] * n
    ptr, end = bounds[:-1], bounds[1:]
    # Heads that have arrived, ordered by the tie rule above, and heads that
    # have not, ordered by arrival. A job enters and leaves each heap at most
    # once, and neither heap holds more than one head per class.
    ready: list[tuple[float, float, int]] = []
    pending = [(arr[grp[p]], c) for c, p in enumerate(ptr) if p < end[c]]
    heapify(pending)
    now = 0.0
    for _ in range(n):
        if not ready and pending[0][0] > now:
            now = pending[0][0]
        while pending and pending[0][0] <= now:
            a, c = heappop(pending)
            heappush(ready, (-keys[grp[ptr[c]]], a, c))
        c = heappop(ready)[2]
        p = ptr[c]
        i = grp[p]
        start[i] = now
        now += svc[i]
        p += 1
        ptr[c] = p
        if p < end[c]:
            i = grp[p]
            if arr[i] <= now:
                heappush(ready, (-keys[i], arr[i], c))
            else:
                heappush(pending, (arr[i], c))
    return np.array(start, dtype=np.float64)


def backend_name() -> str:
    """Name of the kernel implementation, recorded in simulation reports."""
    return "python"
