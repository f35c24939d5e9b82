"""Window-based rate estimation and the online scheduling replay.

The online driver partitions an arrival trace into fixed-length windows.
Window 0 runs with a uniform schedule (no rate information yet); every later
window re-solves the schedule optimization against the rates estimated from
the previous window's counts and serves the network queue with priority keys
recomputed from the same estimates. The whole trace is then replayed through
the queueing kernels in one pass, so cross-window backlog carries over
exactly. An offline reference replays the identical trace and service
randomness under one schedule solved with the configured (true) rates, which
makes online-vs-offline gaps a paired comparison rather than two noisy runs.

Trace files are CSV with header columns timestamp_ms,key (extra columns are
ignored); they load into a `Trace`, whose columns are the sorted timestamps
and one code per job into the distinct keys. Keys are opaque; they map to job
classes either through an explicit class_map or by frequency-rank bucketing:
distinct keys ranked by descending count (ties by key string), rank r goes to
class (r mod J) + 1.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass
from math import isfinite
from pathlib import Path

import numpy as np

from . import _kernels
from .analytics import wsept_keys
from .model import (
    ConfigError,
    SystemConfig,
    integer,
    positive,
    validate_config,
    write_table,
)
from .optimizer import InfeasibleError, OptimizerSettings, optimize_pps
from .simulator import (
    Flow,
    SimResult,
    aggregate_runs,
    assign_vms,
    group_objectives,
    merged_arrivals,
    network_start_times,
    reduce_run,
    service_times,
)


@dataclass(frozen=True, eq=False)
class Trace:
    """An arrival trace as columns: one timestamp and one key code per job.

    `times` is sorted (ties keep their input order), `keys` holds distinct
    key strings and job i carries key `keys[codes[i]]`. Constructing one
    checks the columns and sorts them, so every Trace obeys this.
    """

    times: np.ndarray  # float64, ms since trace start, non-decreasing
    keys: tuple[str, ...]
    codes: np.ndarray  # int64 index into keys, per job

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        codes = np.asarray(self.codes, dtype=np.int64)
        keys = tuple(self.keys)
        if times.ndim != 1 or codes.shape != times.shape:
            raise ConfigError(
                f"trace needs one timestamp and one key code per job, got "
                f"{times.shape} timestamps and {codes.shape} codes"
            )
        finite = np.isfinite(times)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ConfigError(f"trace record {bad}: timestamp must be finite")
        if len(set(keys)) != len(keys):
            raise ConfigError("trace keys must be distinct")
        if codes.size and not (0 <= codes.min() and codes.max() < len(keys)):
            raise ConfigError(f"trace key codes must lie in 0..{len(keys) - 1}")
        order = np.argsort(times, kind="stable")
        object.__setattr__(self, "times", times[order])
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "codes", codes[order])

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class TraceWindow:
    """Per-class arrival counts and rate estimates measured in one window."""

    index: int
    window_length: float
    counts: np.ndarray
    rates: np.ndarray  # counts / window_length, per ms


def ingest_trace(path: str | Path) -> Trace:
    """Read a trace CSV into a Trace sorted by timestamp.

    Requires header columns timestamp_ms and key; extra columns are ignored,
    and so is whitespace around a key. Malformed rows and empty traces raise
    ConfigError naming the first bad line.
    """
    path = Path(path)
    # One float64 and one int64 code per row, and one entry per distinct raw
    # key: no Python object is kept per row.
    stamps = array("d")
    raw_codes = array("q")
    raw_keys: dict[str, int] = {}
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
        width = max(t_col, k_col)
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) <= width:
                raise ConfigError(f"{path}: line {lineno}: too few columns")
            try:
                ts = float(row[t_col])
            except ValueError:
                raise ConfigError(
                    f"{path}: line {lineno}: bad timestamp {row[t_col]!r}"
                ) from None
            if not isfinite(ts):
                raise ConfigError(f"{path}: line {lineno}: non-finite timestamp")
            stamps.append(ts)
            raw_codes.append(raw_keys.setdefault(row[k_col], len(raw_keys)))
    if not stamps:
        raise ConfigError(f"{path}: trace has no records")
    # Raw keys are coded in first-seen order, so stripped keys keep it too.
    index: dict[str, int] = {}
    lut = np.array(
        [index.setdefault(r.strip(), len(index)) for r in raw_keys], dtype=np.int64
    )
    codes = lut[np.frombuffer(raw_codes, dtype=np.int64)]
    return Trace(np.frombuffer(stamps), tuple(index), codes)


def resolve_classes(
    trace: Trace,
    num_classes: int,
    class_map: dict[str, int] | None = None,
) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
    """Map trace keys to class indices.

    Returns (timestamps, zero-based class indices, mapping used). An explicit
    class_map must cover every key that occurs; without one, the keys that
    occur are bucketed by frequency rank.
    """
    integer(num_classes, "num_classes", 1)
    if not len(trace):
        raise ConfigError("empty trace")
    counts = np.bincount(trace.codes, minlength=len(trace.keys)).tolist()
    present = [(key, n) for key, n in zip(trace.keys, counts) if n]
    if class_map is not None:
        mapping = {
            key: integer(cid, f"class_map[{key!r}]", 1, num_classes)
            for key, cid in class_map.items()
        }
        missing = sorted(k for k, _ in present if k not in mapping)
        if missing:
            raise ConfigError(f"trace keys not in class_map: {missing[:5]}")
    else:
        ranked = sorted(present, key=lambda kv: (-kv[1], kv[0]))
        mapping = {
            key: (rank % num_classes) + 1 for rank, (key, _) in enumerate(ranked)
        }
    # A key that never occurs is never gathered; it gets class index 0.
    lut = np.array([mapping.get(k, 1) - 1 for k in trace.keys], dtype=np.int64)
    return trace.times, lut[trace.codes], mapping


def synthesize_poisson_trace(
    config: SystemConfig, horizon: float, seed: int = 0
) -> Trace:
    """Stationary Poisson trace at the config's rates; keys are class numbers."""
    positive(horizon, "horizon")
    seed = integer(seed, "seed", 0)
    rng = np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(seed)))
    times, cls = merged_arrivals(rng, config.arrival_rates(), horizon)
    return Trace(times, tuple(str(j + 1) for j in range(config.num_classes)), cls)


def template_class_map(config: SystemConfig) -> dict[str, int]:
    """The identity mapping for traces keyed by class numbers "1".."J"."""
    return {str(j + 1): j + 1 for j in range(config.num_classes)}


def default_window(config: SystemConfig) -> float:
    """1e5 ms, stretched so a window expects at least 1000 arrivals."""
    total = positive(config.total_rate, "default window: total arrival rate")
    return max(1.0e5, 1000.0 / total)


@dataclass(frozen=True)
class OnlineResult:
    """Per-window decisions plus the end-to-end replay statistics.

    windows[k] holds the counts measured in window k; schedules[k] is the
    schedule that governed window k (solved from windows[k-1], uniform for
    k=0). `result` aggregates jobs arriving from window 1 onward, treating
    the cold-start window as warmup.
    """

    windows: list[TraceWindow]
    schedules: np.ndarray
    sources: list[str]  # per window: uniform | optimized | fallback | offline
    window_objectives: np.ndarray
    result: SimResult
    class_map: dict[str, int]
    window_length: float

    @property
    def num_windows(self) -> int:
        return len(self.windows)

    def to_dict(self) -> dict:
        return {
            "window_length": self.window_length,
            "num_windows": self.num_windows,
            "class_map": self.class_map,
            "windows": [
                {
                    "index": w.index,
                    "source": self.sources[k],
                    "objective_estimate": float(self.window_objectives[k]),
                    "counts": [int(x) for x in w.counts],
                    "rates": [float(x) for x in w.rates],
                }
                for k, w in enumerate(self.windows)
            ],
            "overall": self.result.to_dict(),
        }

    def write_windows_csv(self, path: str | Path) -> None:
        J = len(self.windows[0].rates)
        cols = ["window", "source", "objective_estimate"] + [
            f"rate_{j + 1}" for j in range(J)
        ]
        rows = (
            [k, self.sources[k], self.window_objectives[k], *w.rates]
            for k, w in enumerate(self.windows)
        )
        write_table(path, cols, rows)


@dataclass(frozen=True)
class _Trace:
    """A trace cut to its full windows: jobs in arrival order."""

    times: np.ndarray
    cls: np.ndarray
    win: np.ndarray  # zero-based window index per job
    windows: list[TraceWindow]
    mapping: dict[str, int]
    window_length: float


def _prepare_trace(trace, config, window_length, class_map) -> _Trace:
    problems = validate_config(config)
    if problems:
        raise ConfigError("; ".join(problems))
    if window_length is None:
        window_length = default_window(config)
    positive(window_length, "window_length")
    times, cls, mapping = resolve_classes(trace, config.num_classes, class_map)
    n_windows = int(np.floor(float(times[-1]) / window_length))
    if n_windows < 2:
        raise ConfigError(
            "need at least two full windows of trace data; got "
            f"{n_windows} at window_length={window_length}"
        )
    win = np.floor(times / window_length).astype(np.int64)
    keep = win < n_windows  # trailing partial window is dropped
    if not keep.any():
        raise ConfigError(
            f"the {n_windows} full windows at window_length={window_length} "
            "hold no job; every record is in the dropped partial window"
        )
    times, cls, win = times[keep], cls[keep], win[keep]
    J = config.num_classes
    counts = np.bincount(win * J + cls, minlength=n_windows * J).reshape(n_windows, J)
    windows = [
        TraceWindow(
            index=k,
            window_length=window_length,
            counts=counts[k],
            rates=counts[k] / window_length,
        )
        for k in range(n_windows)
    ]
    return _Trace(times, cls, win, windows, mapping, window_length)


def _replay(
    config: SystemConfig,
    tr: _Trace,
    schedules: np.ndarray,
    sources: list[str],
    keys: np.ndarray,
    seed: int,
) -> OnlineResult:
    """Push the trace through both queueing phases and score every window.

    Window k's jobs are dispatched by schedules[k] and served at the link by
    their per-job priority keys. Service randomness depends only on (seed,
    job position), so two replays of the same trace with the same seed are
    driven by identical draws even when their schedules differ. Statistics
    cover windows 1..K-1; the uniform cold-start window counts as warmup.
    Uses up tr.times, which reduce_run writes over; _prepare_trace makes
    each replay its own copy.
    """
    rng = np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(seed)))
    n = len(tr.times)
    J, n_windows = config.num_classes, len(tr.windows)
    # Row win * J + cls of the stacked schedules is the job's schedule row.
    vm_idx = assign_vms(
        rng.random(n), schedules.reshape(-1, config.num_vms), tr.win * J + tr.cls
    )
    s1, s2 = service_times(config, tr.cls, vm_idx, *rng.exponential(1.0, (2, n)))
    start1 = _kernels.fcfs_start(tr.times, vm_idx, s1, config.num_vms)
    dep1 = start1 + s1
    # The link's starts are written over the departures it reads.
    start2 = network_start_times(dep1, tr.cls, keys, s2, J, "priority", out=dep1)
    flow = Flow(tr.times, tr.cls, vm_idx, s1, s2, start1, start2)
    horizon = n_windows * tr.window_length
    # Jobs are in arrival order, so windows 1.. are the jobs from the first
    # one past window 0 on.
    kept = slice(int(np.searchsorted(tr.win, 1)), None)
    # Scored before the reducer uses up the arrivals, tr.times.
    window_objectives = group_objectives(flow, config, tr.win, n_windows)
    run = reduce_run(flow, J, config.num_vms, kept, horizon, config)
    return OnlineResult(
        windows=tr.windows,
        schedules=schedules,
        sources=sources,
        window_objectives=window_objectives,
        result=aggregate_runs([run], np.arange(1, J + 1), horizon),
        class_map=tr.mapping,
        window_length=tr.window_length,
    )


def online_driver(
    trace: Trace,
    config: SystemConfig,
    window_length: float | None = None,
    settings: OptimizerSettings | None = None,
    class_map: dict[str, int] | None = None,
    seed: int = 0,
) -> OnlineResult:
    """Replay a trace under per-window re-optimized schedules.

    Window k >= 1 is governed by the schedule solved against window k-1's
    estimated rates (warm-started from the previous schedule); classes unseen
    in the estimation window get uniform rows, and an infeasible window falls
    back to the previous schedule (flagged, never aborted). Priority keys for
    window k's jobs come from the same estimates. Statistics cover windows
    1..K-1; the uniform cold-start window is treated as warmup.
    """
    seed = integer(seed, "seed", 0)
    settings = settings or OptimizerSettings()
    tr = _prepare_trace(trace, config, window_length, class_map)
    n_windows = len(tr.windows)
    J, V = config.num_classes, config.num_vms
    e_sizes = config.output_sizes()

    schedules = np.full((n_windows, J, V), 1.0 / V)
    key_rows = np.empty((n_windows, J))
    key_rows[0] = wsept_keys(np.ones(J), e_sizes)  # no estimates yet: uniform
    sources = ["uniform"]
    for k in range(1, n_windows):
        est = tr.windows[k - 1].rates
        # Window k keeps window k-1's schedule until a solve replaces it, and
        # its keys until there is an estimate, even one that fails to solve.
        schedules[k], key_rows[k] = schedules[k - 1], key_rows[k - 1]
        if est.sum() <= 0.0:
            sources.append("fallback")
            continue
        key_rows[k] = wsept_keys(est, e_sizes)
        try:
            sched = optimize_pps(
                config.with_rates(est), settings, initial=schedules[k - 1]
            ).schedule
        except InfeasibleError:
            sources.append("fallback")
            continue
        schedules[k] = np.where((est <= 0.0)[:, None], 1.0 / V, sched)
        sources.append("optimized")
    return _replay(config, tr, schedules, sources, key_rows[tr.win, tr.cls], seed)


def offline_reference(
    trace: Trace,
    config: SystemConfig,
    window_length: float | None = None,
    settings: OptimizerSettings | None = None,
    class_map: dict[str, int] | None = None,
    seed: int = 0,
) -> OnlineResult:
    """Replay the same trace under one schedule solved with the true rates.

    Shares the draw discipline of online_driver (same seed means identical
    service randomness per job), so online minus offline is a paired
    comparison. Statistics cover the same windows (1..K-1).
    """
    seed = integer(seed, "seed", 0)
    settings = settings or OptimizerSettings()
    tr = _prepare_trace(trace, config, window_length, class_map)
    n_windows = len(tr.windows)
    schedule = optimize_pps(config, settings).schedule
    schedules = np.broadcast_to(
        schedule, (n_windows, config.num_classes, config.num_vms)
    ).copy()
    key_row = wsept_keys(config.arrival_rates(), config.output_sizes())
    return _replay(
        config, tr, schedules, ["offline"] * n_windows, key_row[tr.cls], seed
    )
