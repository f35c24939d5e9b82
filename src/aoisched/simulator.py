"""Discrete-event simulation of the two-phase compute/network system.

Each replication draws Poisson arrivals per class over [0, horizon), assigns
every job a VM by sampling its schedule row, runs each VM queue FCFS, then
feeds compute departures into the shared network link (non-preemptive
priority by default, FCFS optionally). Generated jobs all run to completion
(the system drains past the horizon), which keeps per-job samples unbiased
rather than censoring jobs still in flight.

Randomness and reproducibility: the master seed spawns one child SeedSequence
per replication; each replication's PCG64DXSM generator draws, in this fixed
order: per-class arrival gaps (ascending class id), VM-choice uniforms (in
merged arrival order), compute-service exponentials, network-service
exponentials, then per-class update-process gaps (ascending class id, only
when simulate_updates is on). Identical seeds therefore give identical
results.

Per-job samples: wait and service in each phase, completion = their sum, and
age = compute service + network wait + network service (+ source staleness at
compute start when simulate_updates is on; compute wait is excluded because
fresher inputs keep arriving until compute begins). Jobs arriving before
warmup_fraction * horizon are excluded from statistics. Confidence intervals
come from across-replication means (Student t).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernels
from .model import ConfigError, SystemConfig, validate_config
from .analytics import check_schedule, wsept_keys

NETWORKING_DISCIPLINES = ("priority", "fcfs")
# Per-class means a run reports, each with a standard error across runs.
CLASS_QUANTITIES = (
    "wait_compute",
    "service_compute",
    "wait_network",
    "service_network",
    "aoi",
    "completion",
)
# Per-class float columns of simulation.csv and of the JSON report.
CLASS_COLUMNS = (
    "mean_wait_compute",
    "mean_service_compute",
    "mean_wait_network",
    "mean_service_network",
    "mean_aoi",
    "ci_aoi",
    "mean_completion",
    "ci_completion",
)

EVENT_LOG_COLUMNS = [
    "serial",
    "class_id",
    "release",
    "compute_start",
    "compute_end",
    "net_start",
    "net_end",
]


@dataclass(frozen=True)
class SimConfig:
    """Knobs for one simulation run (system parameters live in SystemConfig)."""

    horizon: float = 1.0e6  # ms
    replications: int = 10
    warmup_fraction: float = 0.2
    seed: int = 0
    networking: str = "priority"
    simulate_updates: bool = False
    collect_event_log: bool = False


@dataclass(frozen=True)
class ScriptedJob:
    """One deterministic job for scripted runs: fixed times, no sampling."""

    release: float
    class_id: int
    compute_time: float
    network_time: float


@dataclass(frozen=True)
class SimResult:
    """Aggregated per-class statistics across replications.

    Mean columns are averages of per-replication means; ci_* are 95 percent
    half-widths from the replication means, nan when fewer than two
    replications contributed. weighted_objective applies the configured theta
    and AoI weighting using empirical class frequencies as weights.
    """

    class_ids: np.ndarray
    counts: np.ndarray
    mean_wait_compute: np.ndarray
    mean_service_compute: np.ndarray
    mean_wait_network: np.ndarray
    mean_service_network: np.ndarray
    mean_aoi: np.ndarray
    ci_aoi: np.ndarray
    mean_completion: np.ndarray
    ci_completion: np.ndarray
    se_wait_compute: np.ndarray
    se_service_compute: np.ndarray
    se_wait_network: np.ndarray
    se_service_network: np.ndarray
    se_aoi: np.ndarray
    se_completion: np.ndarray
    weighted_objective: float
    ci_weighted_objective: float
    weighted_completion: float
    weighted_aoi: float
    vm_utilization: np.ndarray
    unstable_vms: np.ndarray
    unstable_network: bool
    interdeparture_mean: float
    interdeparture_cv: float
    replications: int
    horizon: float
    backend: str
    event_log: np.ndarray | None = None
    manifest: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "replications": self.replications,
            "horizon": self.horizon,
            "backend": self.backend,
            "weighted_objective": self.weighted_objective,
            "ci_weighted_objective": _nanfloat(self.ci_weighted_objective),
            "weighted_completion": self.weighted_completion,
            "weighted_aoi": self.weighted_aoi,
            "vm_utilization": [float(x) for x in self.vm_utilization],
            "unstable_vms": [bool(x) for x in self.unstable_vms],
            "unstable_network": bool(self.unstable_network),
            "interdeparture_mean": _nanfloat(self.interdeparture_mean),
            "interdeparture_cv": _nanfloat(self.interdeparture_cv),
            "classes": [
                {
                    "class_id": int(self.class_ids[j]),
                    "count": int(self.counts[j]),
                    **{c: _nanfloat(getattr(self, c)[j]) for c in CLASS_COLUMNS},
                }
                for j in range(len(self.class_ids))
            ],
        }
        if self.manifest:
            out["manifest"] = self.manifest
        return out

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["class_id", "count", *CLASS_COLUMNS])
            for j in range(len(self.class_ids)):
                writer.writerow(
                    [int(self.class_ids[j]), int(self.counts[j])]
                    + [repr(float(getattr(self, c)[j])) for c in CLASS_COLUMNS]
                )


def _nanfloat(x: float) -> float | None:
    x = float(x)
    return None if np.isnan(x) else x


def interdeparture_stats(departures: np.ndarray) -> tuple[float, float]:
    """Mean and coefficient of variation of sorted inter-departure gaps."""
    d = np.sort(np.asarray(departures, dtype=np.float64))
    if d.size < 3:
        return float("nan"), float("nan")
    gaps = np.diff(d)
    mean = float(gaps.mean())
    if mean <= 0.0:
        return mean, float("nan")
    return mean, float(gaps.std(ddof=1) / mean)


def _poisson_arrivals(
    rng: np.random.Generator, rate: float, horizon: float
) -> np.ndarray:
    """Arrival times of a Poisson(rate) process on [0, horizon)."""
    n_est = int(rate * horizon + 6.0 * np.sqrt(rate * horizon) + 16.0)
    times = np.cumsum(rng.exponential(1.0 / rate, n_est))
    while times.size == 0 or times[-1] < horizon:
        extra = np.cumsum(rng.exponential(1.0 / rate, max(16, n_est // 4)))
        base = times[-1] if times.size else 0.0
        times = np.concatenate([times, base + extra])
    return times[times < horizon]


def _block_sizes(rates: np.ndarray, horizon: float) -> np.ndarray:
    """Per-class first-block draw counts, the n_est of _poisson_arrivals."""
    mean = rates * horizon
    return (mean + 6.0 * np.sqrt(mean) + 16.0).astype(np.int64)


def merged_arrivals(
    rng: np.random.Generator, rates: np.ndarray, horizon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class Poisson arrivals on [0, horizon), drawn in class order and
    merged: sorted times plus each job's zero-based class (ties by class).

    Every class's first block comes from one standard-exponential draw, scaled
    and summed per class: exponential(scale, n) is scale times
    standard_exponential(n) element for element, so this takes the stream
    of per-class _poisson_arrivals calls. If a block ends short of the
    horizon, the generator is rewound and the per-class calls are made.
    """
    sizes = _block_sizes(rates, horizon)
    ends = np.cumsum(sizes)
    state = rng.bit_generator.state
    t = rng.standard_exponential(int(sizes.sum()))
    t *= np.repeat(1.0 / rates, sizes)
    for lo, hi in zip((ends - sizes).tolist(), ends.tolist()):
        np.add.accumulate(t[lo:hi], out=t[lo:hi])  # np.cumsum minus its wrapper
    if np.any(t[ends - 1] < horizon):
        rng.bit_generator.state = state
        per_class = [_poisson_arrivals(rng, rate, horizon) for rate in rates]
        t = np.concatenate(per_class)
        kept = [len(a) for a in per_class]
    else:
        inside = t < horizon
        kept = np.add.reduceat(inside, ends - sizes, dtype=np.int64)
        t = t[inside]
    cls = np.repeat(np.arange(len(rates)), kept)
    order = np.argsort(t, kind="stable")
    return t[order], cls[order]


def assign_vms(u: np.ndarray, p: np.ndarray, cls: np.ndarray) -> np.ndarray:
    """Map uniforms to VM indices by inverting each job's schedule row.

    A job's VM is the number of its row's cumulative entries that are <= u,
    which is searchsorted(side="right") on a non-decreasing row, capped at
    the last VM.
    """
    pcum = np.cumsum(np.asarray(p, dtype=np.float64), axis=1).T.copy()
    vm_idx = np.zeros(len(u), dtype=np.int64)
    for column in pcum:
        vm_idx += column[cls] <= u
    # A new array on purpose: clipping in place (out=vm_idx) raised the peak
    # RSS of a 1M-job run by about 5%, from how freed buffers were reused.
    return np.minimum(vm_idx, p.shape[1] - 1)


def group_by_class(cls: np.ndarray, order: np.ndarray, n_classes: int):
    """Job indices grouped per class, each group in `order` order.

    Returns (grouped, offsets) in the layout the priority kernel expects.
    """
    cls_sorted = cls[order]
    grouped = order[np.argsort(cls_sorted, kind="stable")]
    counts = np.bincount(cls, minlength=n_classes)
    offsets = np.zeros(n_classes + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return grouped.astype(np.int64), offsets


def network_start_times(
    dep1: np.ndarray,
    cls: np.ndarray,
    key: np.ndarray,
    s2: np.ndarray,
    n_classes: int,
    networking: str,
) -> np.ndarray:
    """Service start time at the shared link for every job."""
    order = np.argsort(dep1, kind="stable")
    if networking == "fcfs":
        start_sorted = _kernels.fcfs_start(
            dep1[order], np.zeros(len(order), dtype=np.int64), s2[order], 1
        )
        start2 = np.empty_like(dep1)
        start2[order] = start_sorted
        return start2
    if networking != "priority":
        raise ValueError(f"unknown networking discipline {networking!r}")
    grouped, offsets = group_by_class(cls, order, n_classes)
    return _kernels.priority_start(
        dep1, grouped, offsets, key.astype(np.float64), s2
    )


def _staleness(
    rng: np.random.Generator,
    config: SystemConfig,
    cls: np.ndarray,
    compute_start: np.ndarray,
) -> np.ndarray:
    """Age of the newest input update at compute start, per job.

    Every source class carries a Poisson update process (plus an implicit
    update at time 0); a job's sources are its class's info_set, defaulting
    to the class itself.
    """
    horizon = float(compute_start.max()) + 1.0 if compute_start.size else 1.0
    updates: list[np.ndarray] = []
    for c in config.classes:
        if c.update_rate is None:
            raise ConfigError(
                f"class {c.id}: simulate_updates needs update_rate set"
            )
        updates.append(_poisson_arrivals(rng, c.update_rate, horizon))
    y = np.zeros(len(cls), dtype=np.float64)
    for j, c in enumerate(config.classes):
        mask = cls == j
        if not np.any(mask):
            continue
        sources = c.info_set if c.info_set is not None else (c.id,)
        starts = compute_start[mask]
        newest = np.zeros(len(starts), dtype=np.float64)
        for sid in sources:
            upd = updates[sid - 1]
            idx = np.searchsorted(upd, starts, side="right")
            last = np.where(idx > 0, upd[np.maximum(idx - 1, 0)], 0.0)
            newest = np.maximum(newest, last)
        y[mask] = starts - newest
    return y


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


def service_times(
    config: SystemConfig,
    cls: np.ndarray,
    vm_idx: np.ndarray,
    e1: np.ndarray,
    e2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Compute and network service time per job from unit exponential draws."""
    d = config.compute_sizes()[cls]
    e = config.output_sizes()[cls]
    vshift = np.array([v.shift for v in config.vms])
    vrate = np.array([v.rate for v in config.vms])
    s1 = d * (vshift[vm_idx] + e1 / vrate[vm_idx])
    return s1, e * (config.network.shift + e2 / config.network.rate)


@dataclass
class _Flow:
    """Per-job times of one run, jobs in arrival order."""

    t: np.ndarray  # arrival
    cls: np.ndarray  # zero-based class index
    vm_idx: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    start1: np.ndarray
    dep1: np.ndarray
    start2: np.ndarray

    def event_log(self, class_ids: np.ndarray) -> np.ndarray:
        serial = np.arange(len(self.t), dtype=np.int64)
        times = [self.t, self.start1, self.dep1, self.start2, self.start2 + self.s2]
        return np.rec.fromarrays([serial, class_ids, *times], names=EVENT_LOG_COLUMNS)


@dataclass
class _RunStats:
    """Per-class means over one run's kept jobs, plus run-level checks."""

    counts: np.ndarray
    wait_compute: np.ndarray
    service_compute: np.ndarray
    wait_network: np.ndarray
    service_network: np.ndarray
    aoi: np.ndarray
    completion: np.ndarray
    staleness: np.ndarray
    objective: float = float("nan")
    vm_util: np.ndarray | None = None
    unstable_vms: np.ndarray | None = None
    unstable_net: bool = False
    dep_mean: float = float("nan")
    dep_cv: float = float("nan")


def _class_stats(
    flow: _Flow, n_classes: int, keep: np.ndarray, y: np.ndarray | None = None
) -> _RunStats:
    """Per-class means of the kept jobs; y is the per-job source staleness.

    Each per-job quantity is derived, reduced and dropped in turn rather than
    held all at once, which bounds peak memory on million-job runs. Classes
    with no kept job get nan.
    """
    kc = flow.cls[keep]
    counts = np.bincount(kc, minlength=n_classes)
    nz = counts > 0

    def mean(values):
        sums = np.bincount(kc, weights=values[keep], minlength=n_classes)
        out = np.full(n_classes, np.nan)
        out[nz] = sums[nz] / counts[nz]
        return out

    age = flow.s1 + (flow.start2 - flow.dep1) + flow.s2
    if y is not None:
        age += y
    age = mean(age)
    return _RunStats(
        counts=counts,
        wait_compute=mean(flow.start1 - flow.t),
        service_compute=mean(flow.s1),
        wait_network=mean(flow.start2 - flow.dep1),
        service_network=mean(flow.s2),
        aoi=age,
        completion=mean(flow.start2 + flow.s2 - flow.t),
        staleness=np.zeros(n_classes) if y is None else mean(y),
    )


def _reduce_run(
    flow: _Flow, n_classes: int, n_vms: int, keep: np.ndarray, horizon: float, y=None
) -> _RunStats:
    """Class means plus utilization, backlog growth and departure statistics."""
    stats = _class_stats(flow, n_classes, keep, y)
    span = max(horizon, float(flow.dep1.max()))
    stats.vm_util = np.bincount(flow.vm_idx, weights=flow.s1, minlength=n_vms) / span
    stats.unstable_vms = _backlog_growing(
        flow.t, flow.start1, horizon, flow.vm_idx, n_vms
    )
    stats.unstable_net = bool(
        _backlog_growing(flow.dep1, flow.start2, horizon, None, 1)[0]
    )
    stats.dep_mean, stats.dep_cv = interdeparture_stats(flow.dep1[keep])
    return stats


def _empirical_objective(config: SystemConfig, stats: _RunStats) -> float:
    """The configured objective on one run's class means.

    Classes are weighted by their empirical frequencies; under
    "paper_theorem1" the network terms are scaled by them as well. nan when
    the run kept no job.
    """
    total = stats.counts.sum()
    if total == 0:
        return float("nan")
    nz = stats.counts > 0
    freq = stats.counts / total
    if config.aoi_network_weighting == "paper_theorem1":
        net = stats.wait_network + stats.service_network
        aoi = stats.service_compute + stats.staleness + freq * net
    else:
        aoi = stats.aoi
    theta = config.theta
    return float(
        np.sum(freq[nz] * (theta * stats.completion[nz] + (1.0 - theta) * aoi[nz]))
    )


def _replication(
    config: SystemConfig,
    p: np.ndarray,
    sim: SimConfig,
    seed_seq: np.random.SeedSequence,
    want_log: bool,
) -> tuple[_RunStats, np.ndarray | None]:
    rng = np.random.Generator(np.random.PCG64DXSM(seed_seq))
    lam = config.arrival_rates()
    n_classes = config.num_classes
    t, cls = merged_arrivals(rng, lam, sim.horizon)
    n = len(t)
    if n == 0:
        raise ConfigError("no arrivals generated; horizon too short for the rates")

    # Draw order is fixed: VM-choice uniforms, then n compute and n network
    # exponentials (one (2, n) draw takes the same stream as two of n).
    vm_idx = assign_vms(rng.random(n), p, cls)
    draws = rng.exponential(1.0, (2, n))
    s1, s2 = service_times(config, cls, vm_idx, *draws)
    del draws  # every job-length array alive here counts toward peak memory
    start1 = _kernels.fcfs_start(t, vm_idx, s1, config.num_vms)
    dep1 = start1 + s1

    class_key = wsept_keys(lam, config.output_sizes())
    start2 = network_start_times(
        dep1, cls, class_key[cls], s2, n_classes, sim.networking
    )
    flow = _Flow(t, cls, vm_idx, s1, s2, start1, dep1, start2)
    y = _staleness(rng, config, cls, start1) if sim.simulate_updates else None
    keep = t >= sim.warmup_fraction * sim.horizon
    stats = _reduce_run(flow, n_classes, config.num_vms, keep, sim.horizon, y)
    stats.objective = _empirical_objective(config, stats)
    return stats, flow.event_log(cls + 1) if want_log else None


def _mean_se_ci(rep_values: np.ndarray):
    """Aggregate per-replication values: (mean, se, ci half-width), nan-aware.

    A column with no value has a nan mean, and one with fewer than two
    values a nan se and ci; numpy's warnings about those slices are dropped.
    """
    vals = np.asarray(rep_values, dtype=np.float64)
    missing = np.isnan(vals)
    n = len(vals) - np.add.reduce(missing, axis=0, dtype=np.intp)
    # np.nanmean's own arithmetic (zero the nans, sum, divide by the count),
    # without its warning for an all-nan column.
    total = np.add.reduce(np.where(missing, 0.0, vals), axis=0)
    mean = np.divide(total, n, out=np.full(total.shape, np.nan), where=n > 0)
    se = np.full(mean.shape, np.nan)
    ci = np.full(mean.shape, np.nan)
    multi = n > 1
    if multi.any():
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Mean of empty slice", RuntimeWarning)
            warnings.filterwarnings("ignore", "Degrees of freedom", RuntimeWarning)
            sd = np.nanstd(vals, axis=0, ddof=1)
        se = np.where(multi, sd / np.sqrt(np.maximum(n, 1)), np.nan)
        # Imported here so that `import aoisched` does not load scipy.stats.
        from scipy.stats import t as student_t

        # Two-sided 95 percent Student t on the replication means; dof
        # varies if classes miss reps.
        tq = student_t.ppf(0.975, np.maximum(n - 1, 1))
        tq = np.where(multi, tq, np.nan)
        ci = tq * se
    return mean, se, ci


def _aggregate(
    reps: list[_RunStats], class_ids, horizon, event_log=None
) -> SimResult:
    """Across-run means, standard errors and intervals as a SimResult."""
    column = lambda attr: np.array([getattr(s, attr) for s in reps])[:, None]
    per_class = {}
    for name in CLASS_QUANTITIES:
        mean, se, ci = _mean_se_ci(np.vstack([getattr(s, name) for s in reps]))
        per_class.update({f"mean_{name}": mean, f"se_{name}": se})
        if f"ci_{name}" in CLASS_COLUMNS:
            per_class[f"ci_{name}"] = ci
    obj_m, _, obj_ci = _mean_se_ci(column("objective"))
    counts = np.sum([s.counts for s in reps], axis=0)
    freq = counts / max(counts.sum(), 1)
    return SimResult(
        class_ids=class_ids,
        counts=counts,
        **per_class,
        weighted_objective=float(obj_m[0]),
        ci_weighted_objective=float(obj_ci[0]),
        weighted_completion=float(np.nansum(freq * per_class["mean_completion"])),
        weighted_aoi=float(np.nansum(freq * per_class["mean_aoi"])),
        vm_utilization=np.mean([s.vm_util for s in reps], axis=0),
        unstable_vms=np.any([s.unstable_vms for s in reps], axis=0),
        unstable_network=any(s.unstable_net for s in reps),
        interdeparture_mean=float(_mean_se_ci(column("dep_mean"))[0][0]),
        interdeparture_cv=float(_mean_se_ci(column("dep_cv"))[0][0]),
        replications=len(reps),
        horizon=horizon,
        backend=_kernels.backend_name(),
        event_log=event_log,
    )


def run_simulation(
    config: SystemConfig, p: np.ndarray, sim: SimConfig | None = None
) -> SimResult:
    """Simulate the configured system under schedule p."""
    sim = sim or SimConfig()
    problems = validate_config(config)
    if problems:
        raise ConfigError("; ".join(problems))
    sched_problems = check_schedule(p, config)
    if sched_problems:
        raise ConfigError("; ".join(sched_problems))
    if not (np.isfinite(sim.horizon) and sim.horizon > 0.0):
        raise ConfigError(f"horizon must be positive and finite, got {sim.horizon}")
    if not 0.0 <= sim.warmup_fraction < 1.0:
        raise ConfigError(
            f"warmup_fraction must lie in [0, 1), got {sim.warmup_fraction}"
        )
    if sim.replications < 1:
        raise ConfigError(f"replications must be >= 1, got {sim.replications}")
    if sim.networking not in NETWORKING_DISCIPLINES:
        raise ConfigError(f"unknown networking discipline {sim.networking!r}")

    p = np.asarray(p, dtype=np.float64)
    children = np.random.SeedSequence(sim.seed).spawn(sim.replications)
    reps: list[_RunStats] = []
    event_log = None
    for r, child in enumerate(children):
        stats, log = _replication(
            config, p, sim, child, want_log=(sim.collect_event_log and r == 0)
        )
        if log is not None:
            event_log = log
        reps.append(stats)
    return _aggregate(
        reps, np.arange(1, config.num_classes + 1), sim.horizon, event_log
    )


def scripted_arrivals(
    jobs: list[ScriptedJob], vm_assignment: list[int], num_vms: int
) -> SimResult:
    """Deterministic run: explicit release times, VM choices, and durations.

    Jobs tied on release time are served in list order. The network link runs
    FCFS on compute departures (with deterministic times and one waiter at a
    time this coincides with any priority rule). Class ids need not be
    contiguous here; each distinct id reports its own row. Every job counts
    (no warmup) and, with no config to weigh them by, weighted_objective is
    nan.
    """
    if len(jobs) != len(vm_assignment):
        raise ConfigError("need one VM id per scripted job")
    if not jobs:
        raise ConfigError("scripted run needs at least one job")
    order = np.argsort([j.release for j in jobs], kind="stable")
    t = np.array([jobs[i].release for i in order])
    ids = np.array([jobs[i].class_id for i in order], dtype=np.int64)
    s1 = np.array([jobs[i].compute_time for i in order])
    s2 = np.array([jobs[i].network_time for i in order])
    vm_idx = np.array([vm_assignment[i] - 1 for i in order], dtype=np.int64)
    if vm_idx.min() < 0 or vm_idx.max() >= num_vms:
        raise ConfigError("vm assignment outside 1..num_vms")

    distinct = np.unique(ids)
    cls = np.searchsorted(distinct, ids)
    n_classes = len(distinct)

    start1 = _kernels.fcfs_start(t, vm_idx, s1, num_vms)
    dep1 = start1 + s1
    start2 = network_start_times(dep1, cls, np.zeros(len(t)), s2, n_classes, "fcfs")
    flow = _Flow(t, cls, vm_idx, s1, s2, start1, dep1, start2)
    stats = _reduce_run(flow, n_classes, num_vms, np.ones(len(t), dtype=bool), 0.0)
    return _aggregate(
        [stats],
        distinct,
        float((start2 + s2).max()),
        event_log=flow.event_log(ids),
    )


def policy_tradeoff_example() -> dict:
    """Three deterministic jobs, two VMs, two assignment policies.

    Job (compute, network) times: (50, 20), (15, 7), (1, 0.1), all released
    at t=0. Policy 1 runs jobs 1 then 2 on VM 1 and job 3 on VM 2; policy 2
    runs jobs 1 then 3 on VM 1 and job 2 on VM 2. Weighted sums use per-job
    weights 1.0 (job 2) and 0.5 (job 3); job 1 behaves identically under both
    policies and is excluded from the weighting.
    """
    jobs = [
        ScriptedJob(0.0, 1, 50.0, 20.0),
        ScriptedJob(0.0, 2, 15.0, 7.0),
        ScriptedJob(0.0, 3, 1.0, 0.1),
    ]
    out: dict = {}
    for name, assignment in (("policy1", [1, 1, 2]), ("policy2", [1, 2, 1])):
        res = scripted_arrivals(jobs, assignment, num_vms=2)
        completions = res.mean_completion
        ages = res.mean_aoi
        out[name] = {
            "completions": [float(x) for x in completions],
            "ages": [float(x) for x in ages],
            "weighted_age": float(1.0 * ages[1] + 0.5 * ages[2]),
            "weighted_completion": float(
                1.0 * completions[1] + 0.5 * completions[2]
            ),
        }
    return out
