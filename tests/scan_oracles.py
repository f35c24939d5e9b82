"""Reference loops the simulator's fast paths are checked against.

These are the original O(n*J) head scan, the numpy-indexed Lindley loop,
the per-class arrival draws and VM choice, the record-per-row trace
reader and class resolver, and the reducer that held each job's compute
departure and took a keep mask, kept verbatim as slow oracles: every value
the fast paths return must equal theirs exactly.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from aoisched.model import ConfigError, SystemConfig
from aoisched.simulator import ClassMeans, RunRecord, _poisson_arrivals


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


@dataclass(frozen=True)
class TraceRecord:
    timestamp: float  # ms since trace start
    class_key: str


def ingest_trace_records(path: str | Path) -> list[TraceRecord]:
    """Read a trace CSV, sorted by timestamp.

    Requires header columns timestamp_ms and key; extra columns are ignored.
    Malformed rows and empty traces raise ConfigError with the line number.
    """
    path = Path(path)
    records: list[TraceRecord] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty trace file") from None
        header = [h.strip() for h in header]
        try:
            t_col = header.index("timestamp_ms")
            k_col = header.index("key")
        except ValueError:
            raise ConfigError(
                f"{path}: header must contain timestamp_ms and key, got {header}"
            ) from None
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) <= max(t_col, k_col):
                raise ConfigError(f"{path}: line {lineno}: too few columns")
            try:
                ts = float(row[t_col])
            except ValueError:
                raise ConfigError(
                    f"{path}: line {lineno}: bad timestamp {row[t_col]!r}"
                ) from None
            if not np.isfinite(ts):
                raise ConfigError(f"{path}: line {lineno}: non-finite timestamp")
            records.append(TraceRecord(timestamp=ts, class_key=row[k_col].strip()))
    if not records:
        raise ConfigError(f"{path}: trace has no records")
    records.sort(key=lambda r: r.timestamp)
    return records


def resolve_classes_records(
    records: list[TraceRecord],
    num_classes: int,
    class_map: dict[str, int] | None = None,
) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
    """Map trace keys to class indices.

    Returns (timestamps, zero-based class indices, mapping used). An explicit
    class_map must cover every key; without one, keys are bucketed by
    frequency rank.
    """
    if not records:
        raise ConfigError("empty trace")
    keys = [r.class_key for r in records]
    if class_map is not None:
        for key, cid in class_map.items():
            try:
                ok = float(cid).is_integer() and 1 <= float(cid) <= num_classes
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ConfigError(
                    f"class_map sends {key!r} to class {cid!r}, "
                    f"not an integer or outside 1..{num_classes}"
                )
        missing = sorted({k for k in keys if k not in class_map})
        if missing:
            raise ConfigError(f"trace keys not in class_map: {missing[:5]}")
        mapping = {k: int(float(v)) for k, v in class_map.items()}
    else:
        ranked = sorted(Counter(keys).items(), key=lambda kv: (-kv[1], kv[0]))
        mapping = {
            key: (rank % num_classes) + 1 for rank, (key, _) in enumerate(ranked)
        }
    times = np.array([r.timestamp for r in records], dtype=np.float64)
    if not np.all(np.isfinite(times)):
        bad = int(np.argmin(np.isfinite(times)))
        raise ConfigError(f"trace record {bad}: timestamp must be finite")
    cls = np.array([mapping[k] - 1 for k in keys], dtype=np.int64)
    order = np.argsort(times, kind="stable")
    return times[order], cls[order], mapping


@dataclass(frozen=True)
class MaskedFlow:
    """Per-job times of one run, jobs in arrival order."""

    t: np.ndarray  # arrival
    cls: np.ndarray  # zero-based class index
    vm_idx: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    start1: np.ndarray
    dep1: np.ndarray
    start2: np.ndarray


def interdeparture_stats_masked(
    departures: np.ndarray, keep=None
) -> tuple[float, float]:
    """Mean and coefficient of variation of sorted inter-departure gaps,
    over the departures `keep` selects (all of them by default).

    The selection is the one copy made: it is sorted in place and dropped
    before the gaps' deviation is taken, which bounds a long run's peak
    memory.
    """
    d = np.asarray(departures, dtype=np.float64)
    d = d.copy() if keep is None else d[keep]
    d.sort()
    if d.size < 3:
        return float("nan"), float("nan")
    gaps = np.diff(d)
    del d
    mean = float(gaps.mean())
    if mean <= 0.0:
        return mean, float("nan")
    return mean, float(gaps.std(ddof=1) / mean)


def class_means_masked(
    flow: MaskedFlow, group, n_groups: int, keep, y=None
) -> ClassMeans:
    """Means of the kept jobs in each group; y is the per-job source staleness.

    Each per-job quantity is derived, reduced and dropped in turn rather than
    held all at once, which bounds peak memory on million-job runs. Jobs not
    kept are counted in one extra group, so no quantity is gathered: each
    group still sums its kept jobs in job order.
    """
    codes = group.astype(np.intp)
    codes[~keep] = n_groups
    counts = np.bincount(codes, minlength=n_groups + 1)[:n_groups]
    nz = counts > 0

    def mean(values):
        sums = np.bincount(codes, weights=values, minlength=n_groups + 1)
        out = np.full(n_groups, np.nan)
        out[nz] = sums[:n_groups][nz] / counts[nz]
        return out

    wait = flow.start2 - flow.dep1
    wait_network = mean(wait)
    age = wait  # s1 + network wait + s2 (+ y), summed in that order in place
    age += flow.s1
    age += flow.s2
    if y is not None:
        age += y
    aoi = mean(age)
    del wait, age
    sojourn = flow.start2 + flow.s2
    sojourn -= flow.t
    completion = mean(sojourn)
    del sojourn
    return ClassMeans(
        counts=counts,
        wait_compute=mean(flow.start1 - flow.t),
        service_compute=mean(flow.s1),
        wait_network=wait_network,
        service_network=mean(flow.s2),
        aoi=aoi,
        completion=completion,
        staleness=np.zeros(n_groups) if y is None else mean(y),
    )


def _backlog_growing(
    enter: np.ndarray, leave: np.ndarray, horizon: float, group: np.ndarray | None,
    n_groups: int,
) -> np.ndarray:
    """Flag queues whose backlog rises monotonically across four checkpoints."""
    checks = np.array([0.25, 0.5, 0.75, 1.0]) * horizon
    backlog = np.zeros((len(checks), n_groups), dtype=np.int64)
    for i, t in enumerate(checks):
        mask = (enter <= t) & (leave > t)
        if group is None:
            backlog[i, 0] = int(mask.sum())
        else:
            backlog[i] = np.bincount(group[mask], minlength=n_groups)
    rising = np.all(np.diff(backlog, axis=0) > 0, axis=0)
    return rising & (backlog[-1] >= 10)


def reduce_run_masked(
    flow: MaskedFlow,
    n_classes: int,
    n_vms: int,
    keep,
    horizon: float,
    config=None,
    y=None,
) -> RunRecord:
    """The record of one run: class means of the kept jobs (y is the per-job
    source staleness), the objective of `config` on them (nan without one),
    VM utilization, backlog growth and departure statistics."""
    means = class_means_masked(flow, flow.cls, n_classes, keep, y)
    span = max(horizon, float(flow.dep1.max()))
    unstable_net = _backlog_growing(flow.dep1, flow.start2, horizon, None, 1)[0]
    dep_mean, dep_cv = interdeparture_stats_masked(flow.dep1, keep)
    return RunRecord(
        means=means,
        objective=float("nan") if config is None else means.objective(config),
        vm_util=np.bincount(flow.vm_idx, weights=flow.s1, minlength=n_vms) / span,
        unstable_vms=_backlog_growing(flow.t, flow.start1, horizon, flow.vm_idx, n_vms),
        unstable_net=bool(unstable_net),
        dep_mean=dep_mean,
        dep_cv=dep_cv,
    )


def group_objectives_masked(
    flow: MaskedFlow, config: SystemConfig, group: np.ndarray, n_groups: int
) -> np.ndarray:
    """The objective of each group of jobs, every job kept.

    One reduction over (group, class) cells sums each cell's jobs in job
    order, exactly as reduce_run with that group as its keep mask would.
    """
    J, every = config.num_classes, np.ones(len(flow.t), bool)
    cells = class_means_masked(flow, group * J + flow.cls, n_groups * J, every)
    grid = [v.reshape(n_groups, J) for v in cells]
    rows = (ClassMeans(*(v[k] for v in grid)) for k in range(n_groups))
    return np.array([row.objective(config) for row in rows])
