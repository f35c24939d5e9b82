"""The simulator's two sequential scans: FCFS start times and priority service.

The FCFS scan is the Lindley recursion: a job starts at the later of its
arrival and its server's free time, and leaves that server free at start
plus service. It serves jobs in stable arrival order whatever their
position order, and makes no full-length order to do so: it sorts one
block of positions at a time together with a carry of jobs still pending
from earlier blocks, where a job waits while a later block holds an
earlier arrival. Each server's free time carries from one block into the
next. In a block, numpy finds every busy period at once from the max-plus
closed form of the recursion. Within a period the start times are one
sequential ``np.add.accumulate``, which makes the same float additions, in
the same order, as the loop. A block's jobs are grouped by server, and
every server's periods come from the same numpy calls, however few its
jobs. The guessed periods are then checked exactly against the loop's own
comparison; where a near-tie rounded the guess the other way, the block
runs through the job-by-job list loop instead. Either way the result is
bit-identical to the loop.

The priority scan is a Python loop in plain float arithmetic, the same
IEEE double arithmetic numpy's scalars do. It walks the jobs in the arrival
order its caller sorted, and checks that order rather than sorting again.
numpy lays out each job's arrival, service, negated key and class by walk
position, groups the walk by class, and links each job to the next job of
its class, its successor, so the class FIFO costs one read per job.
Arrivals and classes are read as lists; service, key and successor are
read, and starts written, through memoryviews of numpy buffers, which hold
no Python object per job and give the same Python floats and ints a list
would.
A heap holds only the heads of classes that have a job waiting. Serving a
job costs one push and one pop on a heap as large as the number of waiting
classes, not a scan of every head, and a job that finds the link idle with
no rival arriving by then skips the heap. Both scans reject non-finite
times up front: a NaN time defeats every comparison they rely on, and the
priority loop would never finish.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import repeat

import numpy as np

# Positions per block of the FCFS scan and of the simulator's reducer. A
# block's temporaries stay a few hundred kB however long the run.
FCFS_BLOCK = 16384
# Busy periods of up to 64 jobs are summed together, as the columns of one
# array per power-of-two width; each longer period gets its own 1-D call.
_WIDTHS = (2, 4, 8, 16, 32, 64)
_WIDTH_EDGES = np.array((1,) + _WIDTHS)


def _require_finite(**arrays: np.ndarray) -> None:
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")


def group_by_class(cls, n_classes):
    """Positions in `cls` grouped per class, each group in ascending order.

    Returns (grouped, offsets): grouped[offsets[c]:offsets[c + 1]] lists
    class c's positions. The class codes sort as the smallest unsigned type
    that holds them, so up to 65,536 classes numpy's stable sort is a radix
    sort; the permutation is the same.
    """
    codes = cls.astype(np.min_scalar_type(n_classes - 1))
    grouped = np.argsort(codes, kind="stable")
    counts = np.bincount(cls, minlength=n_classes)
    offsets = np.zeros(n_classes + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return grouped, offsets


def fcfs_start(arrivals, server_idx, service, n_servers, out=None):
    """Start times of jobs served FCFS by `n_servers` parallel queues.

    Jobs are served in stable arrival order, whatever their position order:
    by arrival, tied arrivals by position. Job k waits for server
    server_idx[k] to finish the jobs sent to it before. With one server,
    server_idx is never read and may be None.

    Positions are taken one block at a time and sorted together with the
    jobs still pending from earlier blocks. A job is served once no later
    block holds an earlier arrival: its arrival is at most the suffix
    minimum of the later blocks' minima. The rest stay pending; they sit at
    smaller positions than any later job, so ties go as in one stable sort
    of every job, and no full-length order is made. The starts go into
    `out` (a new array by default), which may be arrivals itself: a job's
    arrival is read before its start is written, and no other job reads
    that position.
    """
    _require_finite(arrivals=arrivals, service=service)
    n = arrivals.shape[0]
    start = np.empty(n, dtype=np.float64) if out is None else out
    if n == 0:
        return start
    free = [0.0] * n_servers
    # bound[b]: the smallest arrival at positions past block b.
    bound = np.minimum.reduceat(arrivals, np.arange(0, n, FCFS_BLOCK))
    bound = np.append(np.minimum.accumulate(bound[:0:-1])[::-1], np.inf)
    pending = np.empty(0, dtype=np.intp)
    for lo, cut in zip(range(0, n, FCFS_BLOCK), bound.tolist()):
        hi = min(lo + FCFS_BLOCK, n)
        a = arrivals[lo:hi]
        if not pending.size and a[-1] <= cut and (a[1:] >= a[:-1]).all():
            jobs = slice(lo, hi)  # sorted and all due: served as they stand
        else:
            jobs = np.concatenate((pending, np.arange(lo, hi)))
            a = arrivals[jobs]
            order = np.argsort(a, kind="stable")
            jobs, a = jobs[order], a[order]
            served = np.searchsorted(a, cut, side="right")
            jobs, pending, a = jobs[:served], jobs[served:], a[:served]
        srv = None if n_servers == 1 else server_idx[jobs]
        start[jobs] = _fcfs_block(a, srv, service[jobs], free)
    return start


def _fcfs_block(a, srv, d, free):
    """Start times of one block of jobs (srv None: one server); updates free."""
    if not len(a):
        return a  # every job of the block still pending
    if srv is None:
        done = _busy_periods(a, d, [0], free)
        if done is None:
            return _lindley_loop(a, repeat(0), d, free)
        start, (free[0],) = done
        return start
    grouped, offsets = group_by_class(srv, len(free))
    servers = np.flatnonzero(np.diff(offsets)).tolist()
    first = offsets[servers].tolist()
    done = _busy_periods(a[grouped], d[grouped], first, [free[s] for s in servers])
    if done is None:
        return _lindley_loop(a, srv.tolist(), d, free)
    start = np.empty(len(a))
    start[grouped], last_free = done
    for s, f in zip(servers, last_free):
        free[s] = f
    return start


def _lindley_loop(a, srv, d, free):
    """Start times of jobs taken one at a time; updates free in place.

    srv yields each job's server and free holds each server's free time.
    This is the exact fallback of the busy-period scan.
    """
    out = []
    for t, s, x in zip(a.tolist(), srv, d.tolist()):
        if free[s] > t:
            t = free[s]
        out.append(t)
        free[s] = t + x
    return out


def _guess_idle(a, d, first, free):
    """Which jobs the max-plus form says find their server idle.

    Jobs are grouped by server as in _busy_periods. With
    X_k = a_k - (d_p + ... + d_{k-1}) over a server's jobs p, p+1, ...,
    job k finds the server idle iff X_k >= max(f, X_p, ..., X_{k-1}). The
    cumulative sum rounds, so this is a guess; each server's first job is
    marked idle.
    """
    m = len(a)
    idle = np.empty(m, dtype=bool)
    for p, q, f in zip(first, first[1:] + [m], free):
        x = np.empty(q - p)
        x[0] = max(a[p], f)  # folds f into the running maximum
        np.subtract(a[p + 1 : q], np.cumsum(d[p : q - 1]), out=x[1:])
        np.greater_equal(x[1:], np.maximum.accumulate(x[:-1]), out=idle[p + 1 : q])
        idle[p] = True
    return idle


def _busy_periods(a, d, first, free):
    """Start times of jobs grouped by server, and each server's free time after.

    a[first[i]:first[i + 1]] are one server's jobs in arrival order, and
    that server is free from free[i]. Returns None if the guessed busy
    periods fail the exact check.
    """
    m = len(a)
    idle = _guess_idle(a, d, first, free)
    heads = np.flatnonzero(idle)
    sizes = np.diff(heads, append=m)

    # st[k] is what the loop adds to reach job k's start: d[k - 1] inside a
    # busy period, the period's first start at its head.
    st = np.zeros(m + _WIDTHS[-1])
    st[1:m] = d[:-1]
    np.copyto(st[:m], a, where=idle)
    f0 = np.array(free)
    st[first] = np.where(f0 > a[first], f0, a[first])
    # Periods sorted by width: single jobs, then up to 2, 4, ..., 64 jobs,
    # then the longer ones.
    width_class = np.searchsorted(_WIDTH_EDGES, sizes)
    order = np.argsort(width_class.astype(np.uint8), kind="stable")
    ends = np.cumsum(np.bincount(width_class, minlength=len(_WIDTHS) + 2)).tolist()
    heads, sizes = heads[order], sizes[order]
    for width, lo, hi in zip(_WIDTHS, ends, ends[1:]):
        if lo == hi:
            continue
        # Column i runs through period i and on into the jobs after it, or
        # the zero padding; entries past the period go to the last slot.
        rows = np.arange(width)[:, None]
        idx = rows + heads[lo:hi]
        sums = st[idx]
        np.add.accumulate(sums, axis=0, out=sums)
        idx[rows >= sizes[lo:hi]] = len(st) - 1
        st[idx] = sums
    longer = ends[len(_WIDTHS)]
    for h, size in zip(heads[longer:].tolist(), sizes[longer:].tolist()):
        period = st[h : h + size]
        np.add.accumulate(period, out=period)

    # The loop's test: job k starts at its arrival iff a_k >= free_{k-1}.
    # A server's first job took the later of the two above, unchecked.
    start = st[:m]
    after = start + d
    found = a[1:] >= after[:-1]
    found[np.array(first[1:], dtype=np.intp) - 1] = True
    if not np.array_equal(found, idle[1:]):
        return None
    return start, after[np.array(first[1:] + [m]) - 1].tolist()


def priority_start(arrivals, order, cls, n_classes, key, service, out=None):
    """Start times at one non-preemptive priority server.

    The loop walks the jobs in `order`, which must sort arrivals, and a
    job's walk position is its place there. Job k belongs to class cls[k]
    in range(n_classes), and each class is served FIFO, tied arrivals in
    walk order. Whenever the server frees, it picks the waiting head with
    the largest key (ties: earlier arrival, then lower class index); an
    idle server waits for the next head to arrive. Every job that arrives
    by the next pick is walked before it, so how `order` ranks tied
    arrivals of different classes changes no start.

    succ[w] is the walk position of the next job of w's class, or n after
    its last job, and queued[c] says whether class c has a head in the heap.
    The walk writes each start into one float64 buffer by walk position,
    then scatters it through `order` into `out` (a new array by default),
    which may be arrivals itself: the walk reads its own copy of them.
    """
    _require_finite(arrivals=arrivals, service=service)
    if np.isnan(key).any():
        raise ValueError("key must not be NaN")
    n = arrivals.shape[0]
    aw = arrivals[order]
    if (aw[1:] < aw[:-1]).any():
        raise ValueError("order must sort arrivals")
    cw = cls[order]
    # Within a class, grouped[g + 1] walks after grouped[g], unless g + 1
    # starts a class or ends the list; nxt reads n there.
    grouped, offsets = group_by_class(cw, n_classes)
    nxt = np.empty(n + 1, dtype=np.intp)
    nxt[:n] = grouped
    nxt[offsets[1:]] = n
    succ = np.empty(n, dtype=np.intp)
    succ[grouped] = nxt[1:]
    del nxt, grouped
    # Arrivals are read up to three times per job, so they pay for a list;
    # class codes below 257 are cached ints, 8 bytes each in a list. The
    # columns read once per job are read through memoryviews.
    aw = aw.tolist()
    cw = cw.tolist()
    succ = memoryview(succ)
    sw = memoryview(service[order])
    nk = memoryview(-key[order])
    queued = [False] * n_classes
    start = np.empty(n, dtype=np.float64)
    sv = memoryview(start)
    # Heads that have arrived as (-key, arrival, class, walk position); the
    # class is unique in the heap, so entries order by the tie rule above.
    # Whenever it is empty, every walked job has been served.
    ready: list[tuple[float, float, int, int]] = []
    now = 0.0
    w = 0
    for _ in range(n):
        if not ready:
            a = aw[w]
            if a > now:
                now = a
            v = w
            w += 1
            if w == n or aw[w] > now:
                # No rival has arrived by the time the link takes this job.
                sv[v] = now
                now += sw[v]
                continue
            c = cw[v]
            heappush(ready, (nk[v], a, c, v))
            queued[c] = True
        while w < n:
            a = aw[w]
            if a > now:
                break
            c = cw[w]
            if not queued[c]:
                heappush(ready, (nk[w], a, c, w))
                queued[c] = True
            w += 1
        _, _, c, v = heappop(ready)
        sv[v] = now
        now += sw[v]
        v = succ[v]
        if v < w:
            heappush(ready, (nk[v], aw[v], c, v))
        else:
            queued[c] = False
    # The walk columns go before the result array is built; with them alive
    # the end of a long run would be the kernel's memory peak.
    del aw, sw, nk, succ, cw, sv
    if out is None:
        out = np.empty(n, dtype=np.float64)
    out[order] = start
    return out


def backend_name() -> str:
    """Name of the kernel implementation, recorded in simulation reports."""
    return "python"
