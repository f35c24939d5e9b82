"""Reference loops the simulator's fast paths are checked against.

These are the original O(n*J) head scan, the numpy-indexed Lindley loop,
and the per-class arrival draws and VM choice, kept verbatim as slow
oracles: every value the fast paths return must equal theirs exactly.
"""

from __future__ import annotations

import numpy as np

from aoisched.simulator import _poisson_arrivals


def fcfs_scan(arrivals, server_idx, service, n_servers):
    # Jobs must already be ordered by arrival time (ties by position).
    n = arrivals.shape[0]
    start = np.empty(n, dtype=np.float64)
    free = np.zeros(n_servers, dtype=np.float64)
    for k in range(n):
        s = server_idx[k]
        t = arrivals[k]
        if free[s] > t:
            t = free[s]
        start[k] = t
        free[s] = t + service[k]
    return start


def priority_scan(arrivals, grouped, offsets, key, service):
    # Single non-preemptive server. grouped[offsets[c]:offsets[c+1]] lists
    # class c's job indices in arrival order, which enforces FIFO within a
    # class. Whenever the server frees, it picks the waiting head with the
    # largest key (ties: earlier arrival, then lower class index).
    n = arrivals.shape[0]
    n_classes = offsets.shape[0] - 1
    start = np.empty(n, dtype=np.float64)
    ptr = offsets[:-1].copy()
    now = 0.0
    served = 0
    while served < n:
        best = -1
        best_key = -np.inf
        best_arr = np.inf
        next_arr = np.inf
        for c in range(n_classes):
            if ptr[c] < offsets[c + 1]:
                i = grouped[ptr[c]]
                a = arrivals[i]
                if a <= now:
                    k = key[i]
                    if k > best_key or (k == best_key and a < best_arr):
                        best = c
                        best_key = k
                        best_arr = a
                elif a < next_arr:
                    next_arr = a
        if best < 0:
            now = next_arr
            continue
        i = grouped[ptr[best]]
        ptr[best] += 1
        start[i] = now
        now += service[i]
        served += 1
    return start


def merged_arrivals_per_class(rng, rates, horizon):
    # One _poisson_arrivals call per class, in class order, then merged.
    per_class = [_poisson_arrivals(rng, rate, horizon) for rate in rates]
    t = np.concatenate(per_class) if per_class else np.empty(0)
    cls = np.concatenate(
        [np.full(len(a), j, dtype=np.int64) for j, a in enumerate(per_class)]
    )
    order = np.argsort(t, kind="stable")
    return t[order], cls[order]


def assign_vms_per_class(u, p, cls):
    # One searchsorted per class over that class's jobs.
    pcum = np.cumsum(np.asarray(p, dtype=np.float64), axis=1)
    vm_idx = np.empty(len(u), dtype=np.int64)
    for j in range(p.shape[0]):
        mask = cls == j
        if np.any(mask):
            vm_idx[mask] = np.searchsorted(pcum[j], u[mask], side="right")
    return np.minimum(vm_idx, p.shape[1] - 1)
