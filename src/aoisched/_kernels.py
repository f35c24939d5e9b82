"""Queueing inner loops over Python lists.

Only the two sequential scans live here: the multi-server FCFS start-time
recursion (Lindley) and the non-preemptive priority service loop. Everything
random is drawn outside with numpy Generators and passed in as arrays; the
scans convert them with ``.tolist()`` and run plain float arithmetic, which
is the same IEEE double arithmetic numpy's scalars do. Results are
bit-identical to an indexed numpy loop, without a numpy scalar built for
every element read.

The priority loop walks the jobs in arrival order and keeps in a heap only
the heads of classes that have a job waiting. Serving a job costs one push
and one pop on a heap as large as the number of waiting classes, not a scan
of every head, and a job that finds the link idle with no rival arriving by
then skips the heap. Both scans reject non-finite times up front: a NaN
time defeats every comparison the loops rely on, and the priority loop
would never finish.
"""

from __future__ import annotations

from heapq import heappop, heappush

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
    keys = key.tolist()
    svc = service.tolist()
    n = len(arr)
    # Each job's class, in arrival order. The stable sort keeps every class's
    # grouped order, so the k-th walked job of class c is grp[offsets[c] + k].
    walk = np.repeat(np.arange(offsets.shape[0] - 1), np.diff(offsets))[
        np.argsort(arrivals[grouped], kind="stable")
    ].tolist()
    ptr = offsets[:-1].tolist()  # next job to serve, per class
    seen = list(ptr)  # next job to walk, per class
    start = [0.0] * n
    # Heads that have arrived, ordered by the tie rule above; at most one per
    # class. Whenever it is empty, every walked job has been served.
    ready: list[tuple[float, float, int]] = []
    now = 0.0
    w = 0
    for _ in range(n):
        if not ready:
            c = walk[w]
            w += 1
            p = seen[c]
            seen[c] = p + 1
            i = grp[p]
            a = arr[i]
            if a > now:
                now = a
            if w == n or arr[grp[seen[walk[w]]]] > now:
                # No rival has arrived by the time the link takes this job.
                ptr[c] = p + 1
                start[i] = now
                now += svc[i]
                continue
            heappush(ready, (-keys[i], a, c))
        while w < n:
            c = walk[w]
            p = seen[c]
            i = grp[p]
            a = arr[i]
            if a > now:
                break
            w += 1
            seen[c] = p + 1
            if p == ptr[c]:
                heappush(ready, (-keys[i], a, c))
        c = heappop(ready)[2]
        p = ptr[c]
        i = grp[p]
        start[i] = now
        now += svc[i]
        p += 1
        ptr[c] = p
        if p < seen[c]:
            i = grp[p]
            heappush(ready, (-keys[i], arr[i], c))
    return np.array(start, dtype=np.float64)


def backend_name() -> str:
    """Name of the kernel implementation, recorded in simulation reports."""
    return "python"
