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

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._kernels import group_by_class
from .model import ConfigError, SystemConfig, fraction, integer, positive
from .model import validate_config, write_table
from .analytics import require_schedule, wsept_keys

NETWORKING_DISCIPLINES = ("priority", "fcfs")
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
SIM_COLUMNS = ("class_id", "count", *CLASS_COLUMNS)
# scipy.special.stdtrit(k, 0.975) for k = 1..64 degrees of freedom: the
# two-sided 95 percent Student t quantile of up to 65 replications, read
# here so that a run loads scipy only past that.
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741, 1.997729654317693,
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

    def __post_init__(self) -> None:
        positive(self.horizon, "horizon")
        fraction(self.warmup_fraction, "warmup_fraction")
        for name, low in (("replications", 1), ("seed", 0)):
            # The frozen field keeps the int the rule returns: 2.0 runs as 2.
            object.__setattr__(self, name, integer(getattr(self, name), name, low))
        if self.networking not in NETWORKING_DISCIPLINES:
            raise ConfigError(f"unknown networking discipline {self.networking!r}")


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

    def _class_rows(self) -> list[list]:
        """The per-class table under SIM_COLUMNS, one row per class."""
        return [
            [int(self.class_ids[j]), int(self.counts[j])]
            + [float(getattr(self, c)[j]) for c in CLASS_COLUMNS]
            for j in range(len(self.class_ids))
        ]

    def to_dict(self) -> dict:
        return {
            "replications": self.replications,
            "horizon": self.horizon,
            "backend": self.backend,
            "weighted_objective": self.weighted_objective,
            "ci_weighted_objective": self.ci_weighted_objective,
            "weighted_completion": self.weighted_completion,
            "weighted_aoi": self.weighted_aoi,
            "vm_utilization": [float(x) for x in self.vm_utilization],
            "unstable_vms": [bool(x) for x in self.unstable_vms],
            "unstable_network": bool(self.unstable_network),
            "interdeparture_mean": self.interdeparture_mean,
            "interdeparture_cv": self.interdeparture_cv,
            "classes": [dict(zip(SIM_COLUMNS, row)) for row in self._class_rows()],
        }

    def write_csv(self, path: str | Path) -> None:
        write_table(path, SIM_COLUMNS, self._class_rows())


def interdeparture_stats(departures: np.ndarray) -> tuple[float, float]:
    """Mean and coefficient of variation of sorted inter-departure gaps.

    Sorts a copy; the caller's array is left as it was.
    """
    return _gap_stats(np.array(departures, dtype=np.float64))


def _gap_stats(d: np.ndarray) -> tuple[float, float]:
    """interdeparture_stats on departures it may overwrite.

    d is sorted in place, the gaps are written over it, and std(ddof=1)'s
    own arithmetic runs on them in place: subtract the mean, square, sum,
    divide by the gap count less one, take the root. So the result is that
    of np.diff, .mean() and .std(ddof=1) bit for bit, and no array as long
    as d is made.
    """
    d.sort()
    if d.size < 3:
        return float("nan"), float("nan")
    # Gap i goes to d[i + 1]. Back to front, each block reads the departure
    # before it while that is still unchanged.
    for hi in range(d.size, 1, -_kernels.FCFS_BLOCK):
        lo = max(hi - _kernels.FCFS_BLOCK, 1)
        np.subtract(d[lo:hi], d[lo - 1 : hi - 1], out=d[lo:hi])
    gaps = d[1:]
    mean = float(gaps.mean())
    if mean <= 0.0:
        return mean, float("nan")
    gaps -= mean
    np.square(gaps, out=gaps)
    std = np.sqrt(np.add.reduce(gaps) / (gaps.size - 1))
    return mean, float(std / mean)


def _poisson_arrivals(
    rng: np.random.Generator, rate: float, horizon: float
) -> np.ndarray:
    """Arrival times of a Poisson(rate) process on [0, horizon)."""
    n_est = int(_draw_counts(np.array([rate]), horizon)[0])
    times = np.cumsum(rng.exponential(1.0 / rate, n_est))
    while times.size == 0 or times[-1] < horizon:
        extra = np.cumsum(rng.exponential(1.0 / rate, max(16, n_est // 4)))
        base = times[-1] if times.size else 0.0
        times = np.concatenate([times, base + extra])
    return times[times < horizon]


def _draw_counts(rates: np.ndarray, horizon: float, what="arrival") -> np.ndarray:
    """Per-class first-block draw counts of Poisson times on [0, horizon).
    The one count rule, checked before anything is drawn: a count past the
    longest array (or inf) is a ConfigError naming the horizon, or for
    update times the class's update_rate."""
    with np.errstate(over="ignore"):
        mean = rates * horizon
        sizes = mean + 6.0 * np.sqrt(mean) + 16.0
    if not (sizes < np.iinfo(np.intp).max).all():
        j = int(np.argmin(sizes < np.iinfo(np.intp).max))
        rate = float(rates[j])
        field, value = ("horizon", f"{horizon:.6g} ms")
        if what == "update":
            field, value = f"classes[{j}].update_rate", f"{rate!r} per ms"
        raise ConfigError(
            f"{field}: {value} asks for more {what} times than an array can hold "
            f"(classes[{j}] at {rate!r} per ms over {horizon:.6g} ms)"
        )
    return sizes


def _block_sizes(rates: np.ndarray, horizon: float) -> np.ndarray:
    """Per-class first-block draw counts, the n_est of _poisson_arrivals."""
    return _draw_counts(rates, horizon).astype(np.int64)


def merged_arrivals(
    rng: np.random.Generator, rates: np.ndarray, horizon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class Poisson arrivals on [0, horizon), drawn in class order and
    merged: sorted times plus each job's zero-based class (ties by class),
    coded in the smallest unsigned type that holds the last class index.

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
    codes = np.arange(len(rates), dtype=np.min_scalar_type(len(rates) - 1))
    cls = np.repeat(codes, kept)
    order = np.argsort(t, kind="stable")
    return t[order], cls[order]


def assign_vms(u: np.ndarray, p: np.ndarray, cls: np.ndarray) -> np.ndarray:
    """Map uniforms to VM indices by inverting each job's schedule row.

    A job's VM is the number of its row's cumulative entries that are <= u,
    which is searchsorted(side="right") on a non-decreasing row, capped at
    the last VM. The count is kept in the smallest unsigned type that holds
    the number of VMs.
    """
    pcum = np.cumsum(np.asarray(p, dtype=np.float64), axis=1).T.copy()
    vm_idx = np.zeros(len(u), dtype=np.min_scalar_type(p.shape[1]))
    for column in pcum:
        vm_idx += column[cls] <= u
    # A new array on purpose: clipping in place (out=vm_idx) raised the peak
    # RSS of a 1M-job run by about 5%, from how freed buffers were reused.
    return np.minimum(vm_idx, p.shape[1] - 1)


def network_start_times(
    dep1: np.ndarray,
    cls: np.ndarray,
    key: np.ndarray | None,
    s2: np.ndarray,
    n_classes: int,
    networking: str,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Service start time at the shared link for every job.

    key holds each job's priority key; the FCFS link never reads it. The
    starts go into `out`, a new array by default; out may be dep1 itself,
    which the kernels read before they write over it. The FCFS kernel sorts
    dep1 block by block itself; the priority walk needs one full order.
    """
    if networking == "fcfs":
        return _kernels.fcfs_start(dep1, None, s2, 1, out)
    if networking != "priority":
        raise ValueError(f"unknown networking discipline {networking!r}")
    order = np.argsort(dep1, kind="stable")
    key = np.asarray(key, dtype=np.float64)
    return _kernels.priority_start(dep1, order, cls, n_classes, key, s2, out)


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
    rates = config.numbers.update_rates  # nan only where unset, once validated
    if np.isnan(rates).any():
        j = int(np.argmax(np.isnan(rates)))
        raise ConfigError(f"classes[{j}].update_rate must be set to simulate updates")
    _draw_counts(rates, horizon, "update")
    updates = [_poisson_arrivals(rng, rate, horizon) for rate in rates.tolist()]
    y = np.zeros(len(cls), dtype=np.float64)
    grouped, offsets = group_by_class(cls, len(config.classes))
    for j, c in enumerate(config.classes):
        jobs = grouped[offsets[j] : offsets[j + 1]]
        if not jobs.size:
            continue
        sources = c.info_set if c.info_set is not None else (j + 1,)
        starts = compute_start[jobs]
        newest = np.zeros(len(starts), dtype=np.float64)
        for sid in sources:
            upd = updates[int(sid) - 1]
            if not upd.size:
                continue  # only the implicit update at 0, which newest holds
            idx = np.searchsorted(upd, starts, side="right")
            last = np.where(idx > 0, upd[np.maximum(idx - 1, 0)], 0.0)
            newest = np.maximum(newest, last)
        y[jobs] = starts - newest
    return y


def _backlog(
    enter: np.ndarray,
    leave: np.ndarray,
    checks: np.ndarray,
    group: np.ndarray | None,
    n_groups: int,
) -> np.ndarray:
    """Jobs in each queue at each checkpoint, one row per checkpoint: jobs
    that entered by it and had not left."""
    backlog = np.zeros((len(checks), n_groups), dtype=np.int64)
    for i, t in enumerate(checks.tolist()):
        inside = (enter <= t) & (leave > t)
        if group is None:
            backlog[i, 0] = np.count_nonzero(inside)
        else:
            backlog[i] = np.bincount(group[inside], minlength=n_groups)
    return backlog


def _growing(backlog: np.ndarray) -> np.ndarray:
    """Flag queues whose backlog rises monotonically across the checkpoints."""
    rising = np.all(np.diff(backlog, axis=0) > 0, axis=0)
    return rising & (backlog[-1] >= 10)


def _blocks(lo: int, hi: int):
    """Slices of at most FCFS_BLOCK positions that cover lo..hi in order."""
    step = _kernels.FCFS_BLOCK
    return (slice(b, min(b + step, hi)) for b in range(lo, hi, step))


def service_times(
    config: SystemConfig,
    cls: np.ndarray,
    vm_idx: np.ndarray,
    e1: np.ndarray,
    e2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Compute and network service time per job from unit exponential draws.

    Uses up its draws: s1 and s2 are written into e1 and e2 and returned.
    They equal d * (vm shift + e1 / vm rate) and e * (link shift + e2 / link
    rate) bit for bit, as IEEE addition and multiplication commute.
    """
    numbers = config.numbers
    e1 /= numbers.vm_rates[vm_idx]
    e1 += numbers.vm_shifts[vm_idx]
    e1 *= numbers.compute_sizes[cls]
    e2 /= numbers.link_rate
    e2 += numbers.link_shift
    e2 *= numbers.output_sizes[cls]
    return e1, e2


@dataclass(frozen=True)
class Flow:
    """Per-job times of one run, jobs in arrival order.

    A job's compute departure is start1 + s1, summed where it is read; no
    run holds it beside the arrays below. reduce_run uses up t: it writes
    the kept jobs' departure gaps over it, so whatever else a caller reads
    of the flow, the event log included, it reads before reducing it.
    """

    t: np.ndarray  # arrival
    cls: np.ndarray  # zero-based class index
    vm_idx: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    start1: np.ndarray
    start2: np.ndarray

    def event_log(self, class_ids: np.ndarray) -> np.ndarray:
        serial = np.arange(len(self.t), dtype=np.int64)
        dep1 = self.start1 + self.s1
        times = [self.t, self.start1, dep1, self.start2, self.start2 + self.s2]
        return np.rec.fromarrays([serial, class_ids, *times], names=EVENT_LOG_COLUMNS)


def _flow(t, cls, vm_idx, s1, s2, num_vms: int, key, networking: str) -> Flow:
    """Both phases for jobs in arrival order: FCFS at each VM, then the link,
    which serves class j's jobs by priority key[j]."""
    start1 = _kernels.fcfs_start(t, vm_idx, s1, num_vms)
    dep1 = start1 + s1
    # Only the priority link reads per-job keys.
    job_key = key[cls] if networking == "priority" else None
    # The link's starts are written over the departures it reads.
    start2 = network_start_times(dep1, cls, job_key, s2, len(key), networking, out=dep1)
    return Flow(t, cls, vm_idx, s1, s2, start1, start2)


class ClassMeans(NamedTuple):
    """Kept-job count and per-job means in each group of jobs (a class, or a
    (window, class) cell); nan for a group with no kept job."""

    counts: np.ndarray
    wait_compute: np.ndarray
    service_compute: np.ndarray
    wait_network: np.ndarray
    service_network: np.ndarray
    aoi: np.ndarray
    completion: np.ndarray
    staleness: np.ndarray

    def objective(self, config: SystemConfig) -> float:
        """The configured objective on these class means.

        Classes are weighted by their empirical frequencies; under
        "paper_theorem1" the network terms are scaled by them as well. nan
        when no job was kept.
        """
        total = self.counts.sum()
        if total == 0:
            return float("nan")
        nz = self.counts > 0
        freq = self.counts / total
        if config.aoi_network_weighting == "paper_theorem1":
            net = self.wait_network + self.service_network
            aoi = self.service_compute + self.staleness + freq * net
        else:
            aoi = self.aoi
        theta = config.theta
        return float(
            np.sum(freq[nz] * (theta * self.completion[nz] + (1.0 - theta) * aoi[nz]))
        )


# Per-class means a run reports, each with a standard error across runs.
CLASS_QUANTITIES = tuple(
    f for f in ClassMeans._fields if f not in ("counts", "staleness")
)


@dataclass(frozen=True)
class RunRecord:
    """One run reduced: its class means, the configured objective on them,
    and run-level checks."""

    means: ClassMeans  # per class, over the kept jobs
    objective: float  # nan without a config, or when no job was kept
    vm_util: np.ndarray
    unstable_vms: np.ndarray
    unstable_net: bool
    dep_mean: float
    dep_cv: float


def _class_means(flow: Flow, group, n_groups: int, kept: slice, y=None) -> ClassMeans:
    """Means of the jobs at positions `kept` in each group; y is the per-job
    source staleness.

    The kept range is walked one block of positions at a time, so no
    per-job quantity is held longer than a block on million-job runs.
    Every group sums its jobs in job order: np.add.at adds each job into its
    group's running sum in turn, as np.bincount(..., weights=) does.
    """
    kept = range(len(flow.t))[kept]
    counts = np.zeros(n_groups, dtype=np.intp)
    # One row of sums per ClassMeans field after counts, in field order.
    sums = np.zeros((len(ClassMeans._fields) - 1, n_groups))
    wait_compute, service_compute, wait_network, service_network = sums[:4]
    aoi, completion, staleness = sums[4:]
    for jobs in _blocks(kept.start, kept.stop):
        codes = group[jobs]
        counts += np.bincount(codes, minlength=n_groups)
        t, s1, s2 = flow.t[jobs], flow.s1[jobs], flow.s2[jobs]
        start1, start2 = flow.start1[jobs], flow.start2[jobs]
        wait = start1 + s1  # the compute departure, then start2 minus it
        np.subtract(start2, wait, out=wait)
        np.add.at(wait_network, codes, wait)
        age = wait  # s1 + network wait + s2 (+ y), summed in that order in place
        age += s1
        age += s2
        if y is not None:
            age += y[jobs]
            np.add.at(staleness, codes, y[jobs])
        np.add.at(aoi, codes, age)
        sojourn = start2 + s2
        sojourn -= t
        np.add.at(completion, codes, sojourn)
        np.subtract(start1, t, out=sojourn)
        np.add.at(wait_compute, codes, sojourn)
        np.add.at(service_compute, codes, s1)
        np.add.at(service_network, codes, s2)
    nz = counts > 0
    means = np.full(sums.shape, np.nan)
    means[:, nz] = sums[:, nz] / counts[nz]
    if y is None:
        means[-1] = 0.0  # staleness
    return ClassMeans(counts, *means)


def reduce_run(
    flow: Flow, n_classes: int, n_vms: int, kept, horizon: float, config=None, y=None
) -> RunRecord:
    """The record of one run: class means of the jobs at positions `kept`
    (y is the per-job source staleness), the objective of `config` on them
    (nan without one), VM utilization, backlog growth, and the gaps between
    the kept jobs' compute departures.

    Jobs are in arrival order, so each kept set a caller forms (arrivals
    past the warm-up, windows 1 on, every job) is one slice of positions.
    The class means, the span, both backlog checks and the VM busy time
    walk blocks of positions, summing compute departures a block at a time.
    Uses up flow.t, as service_times uses up its draws: after its last
    read, the kept jobs' departures are summed into flow.t[:n_kept], and
    their gaps are taken there in place.
    """
    means = _class_means(flow, flow.cls, n_classes, kept, y)
    checks = np.array([0.25, 0.5, 0.75, 1.0]) * horizon
    net_backlog = np.zeros((len(checks), 1), dtype=np.int64)
    vm_backlog = np.zeros((len(checks), n_vms), dtype=np.int64)
    busy = np.zeros(n_vms)
    span = horizon
    for jobs in _blocks(0, len(flow.t)):
        start1, s1, vm_idx = flow.start1[jobs], flow.s1[jobs], flow.vm_idx[jobs]
        dep1 = start1 + s1
        span = max(span, float(dep1.max()))
        net_backlog += _backlog(dep1, flow.start2[jobs], checks, None, 1)
        vm_backlog += _backlog(flow.t[jobs], start1, checks, vm_idx, n_vms)
        np.add.at(busy, vm_idx, s1)  # in job order, as np.bincount sums
    dep1 = flow.t[: len(flow.t[kept])]
    np.add(flow.start1[kept], flow.s1[kept], out=dep1)
    dep_mean, dep_cv = _gap_stats(dep1)
    return RunRecord(
        means=means,
        objective=float("nan") if config is None else means.objective(config),
        vm_util=busy / span,
        unstable_vms=_growing(vm_backlog),
        unstable_net=bool(_growing(net_backlog)[0]),
        dep_mean=dep_mean,
        dep_cv=dep_cv,
    )


def group_objectives(
    flow: Flow, config: SystemConfig, group: np.ndarray, n_groups: int
) -> np.ndarray:
    """The objective of each group of jobs, every job kept.

    One reduction over (group, class) cells sums each cell's jobs in job
    order, exactly as reduce_run over that group's jobs alone would.
    """
    J = config.num_classes
    cells = _class_means(flow, group * J + flow.cls, n_groups * J, slice(None))
    grid = [v.reshape(n_groups, J) for v in cells]
    rows = (ClassMeans(*(v[k] for v in grid)) for k in range(n_groups))
    return np.array([row.objective(config) for row in rows])


def _replication(
    config: SystemConfig,
    p: np.ndarray,
    sim: SimConfig,
    seed_seq: np.random.SeedSequence,
    want_log: bool,
) -> tuple[RunRecord, np.ndarray | None]:
    rng = np.random.Generator(np.random.PCG64DXSM(seed_seq))
    lam = config.arrival_rates()
    t, cls = merged_arrivals(rng, lam, sim.horizon)
    n = len(t)
    if n == 0:
        raise ConfigError("no arrivals generated; horizon too short for the rates")

    # Draw order is fixed: VM-choice uniforms, then n compute and n network
    # exponentials (one (2, n) draw takes the same stream as two of n).
    vm_idx = assign_vms(rng.random(n), p, cls)
    s1, s2 = service_times(config, cls, vm_idx, *rng.exponential(1.0, (2, n)))
    class_key = wsept_keys(lam, config.output_sizes())
    flow = _flow(t, cls, vm_idx, s1, s2, config.num_vms, class_key, sim.networking)
    y = _staleness(rng, config, cls, flow.start1) if sim.simulate_updates else None
    # Arrivals are sorted, so the jobs past the warm-up are a suffix.
    kept = slice(int(np.searchsorted(t, sim.warmup_fraction * sim.horizon)), None)
    # Taken before the reducer uses up the arrivals. Widened first: a narrow
    # class code would wrap at the last class id.
    log = flow.event_log(np.add(cls, 1, dtype=np.int64)) if want_log else None
    run = reduce_run(flow, len(lam), config.num_vms, kept, sim.horizon, config, y)
    return run, log


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
        # Two-sided 95 percent Student t on the replication means; dof
        # varies if classes miss reps.
        dof = np.maximum(n - 1, 1)
        if dof.max() <= len(_T975):
            tq = np.array(_T975)[dof - 1]
        else:
            # Imported here so that `import aoisched` does not load scipy.
            from scipy.special import stdtrit

            tq = stdtrit(dof, 0.975)
        tq = np.where(multi, tq, np.nan)
        ci = tq * se
    return mean, se, ci


def aggregate_runs(
    reps: list[RunRecord], class_ids, horizon, event_log=None
) -> SimResult:
    """Across-run means, standard errors and intervals as a SimResult."""
    column = lambda attr: np.array([getattr(s, attr) for s in reps])[:, None]
    per_class = {}
    for name in CLASS_QUANTITIES:
        mean, se, ci = _mean_se_ci(np.vstack([getattr(s.means, name) for s in reps]))
        per_class.update({f"mean_{name}": mean, f"se_{name}": se})
        if f"ci_{name}" in CLASS_COLUMNS:
            per_class[f"ci_{name}"] = ci
    obj_m, _, obj_ci = _mean_se_ci(column("objective"))
    counts = np.sum([s.means.counts for s in reps], axis=0)
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
    p = require_schedule(p, config, "p")
    children = np.random.SeedSequence(sim.seed).spawn(sim.replications)
    runs, logs = zip(
        *(
            _replication(config, p, sim, child, sim.collect_event_log and r == 0)
            for r, child in enumerate(children)
        )
    )
    ids = np.arange(1, config.num_classes + 1)
    return aggregate_runs(list(runs), ids, sim.horizon, logs[0])


def scripted_arrivals(
    jobs: list[ScriptedJob], vm_assignment: list[int], num_vms: int
) -> SimResult:
    """Deterministic run: explicit release times, VM choices, and durations.

    Jobs tied on release time are served in list order. The network link runs
    FCFS on compute departures (with deterministic times and one waiter at a
    time this coincides with any priority rule). Class ids need not be
    contiguous here; each distinct id reports its own row. Every job counts
    (no warmup) and, with no config to weigh them by, weighted_objective is
    nan. Releases must be finite, and durations non-negative and finite.
    """
    num_vms = integer(num_vms, "num_vms", 1)
    if len(jobs) != len(vm_assignment):
        raise ConfigError("need one VM id per scripted job")
    if not jobs:
        raise ConfigError("scripted run needs at least one job")
    vms = [
        integer(v, f"vm_assignment[{i}]", 1, num_vms)
        for i, v in enumerate(vm_assignment)
    ]
    # float64 whatever the times' type: the reducer writes floats over t.
    fields = ("release", "compute_time", "network_time")
    times = np.array([[getattr(j, f) for f in fields] for j in jobs], dtype=np.float64)
    ok = np.isfinite(times) & (times >= [-np.inf, 0.0, 0.0])
    if not ok.all():
        i, k = np.argwhere(~ok)[0].tolist()
        rule = "finite" if k == 0 else "non-negative and finite"
        value = getattr(jobs[i], fields[k])
        raise ConfigError(f"jobs[{i}].{fields[k]} must be {rule}, got {value!r}")
    order = np.argsort(times[:, 0], kind="stable")
    t, s1, s2 = times[order].T.copy()
    ids = np.array([jobs[i].class_id for i in order], dtype=np.int64)
    vm_idx = np.array(vms, dtype=np.int64)[order] - 1

    distinct = np.unique(ids)
    cls = np.searchsorted(distinct, ids)
    n_classes = len(distinct)

    flow = _flow(t, cls, vm_idx, s1, s2, num_vms, np.zeros(n_classes), "fcfs")
    log = flow.event_log(ids)  # before the reducer uses up the arrivals
    run = reduce_run(flow, n_classes, num_vms, slice(None), 0.0)
    return aggregate_runs(
        [run], distinct, float((flow.start2 + s2).max()), event_log=log
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
