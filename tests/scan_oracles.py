"""Reference scans the kernels in ``aoisched._kernels`` are checked against.

These are the original O(n*J) head scan and the numpy-indexed Lindley loop,
kept verbatim as slow oracles: every start time the fast kernels return must
equal theirs exactly.
"""

from __future__ import annotations

import numpy as np


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
