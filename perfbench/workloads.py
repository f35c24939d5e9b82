"""The four benchmark workloads: inputs from a seed, one timed operation, checks.

Each workload has two halves. ``prepare(seed, workdir)`` builds every input
the operation needs (config, schedule, trace CSV) and counts as set-up.
``run(inputs)`` is one timed operation: one closed-loop call into the
package, whose result is then checked and fingerprinted outside the timed
region by ``check(inputs, result)``.

The seed varies what the program is fed without changing how much work it
does, so throughput stays comparable across seeds:

- sweep: the class order inside each half of the class list (the halves stay
  apart because the ``weights`` axis reapportions load between them);
- sim-*: the simulation seed (arrival and service draws);
- online-drift: the key names, per-key popularity and arrival times of the
  generated trace.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from aoisched import analytics, cli, model, online, optimizer, simulator

# pps starts from the rca and pca_literal points and only accepts descent,
# so it can lose to them by float rounding between evaluators at most.
DOMINANCE_RTOL = 1e-12
REFERENCE_SEED = 0


@dataclass
class Outcome:
    """What one operation did: work units, output digest, failed checks."""

    units: float
    digest: str
    problems: list[str] = field(default_factory=list)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


# --- sweep -------------------------------------------------------------------

SWEEP_CLASS_COUNTS = (20, 100)


def prepare_sweep(seed: int, workdir: Path) -> dict:
    rng = _rng(seed, 1)
    configs = []
    for num_classes in SWEEP_CLASS_COUNTS:
        data = model.config_to_dict(model.default_config(num_classes=num_classes))
        half = (num_classes + 1) // 2
        classes = data["classes"]
        order = np.concatenate(
            [rng.permutation(half), half + rng.permutation(num_classes - half)]
        )
        data["classes"] = [classes[i] for i in order]
        path = workdir / f"sweep_{num_classes}.json"
        model.save_config(model.config_from_dict(data), path)
        configs.append(path)
    return {"seed": seed, "configs": configs, "workdir": workdir}


def run_sweep(inputs: dict) -> list[tuple[int, Path]]:
    out = []
    for path in inputs["configs"]:
        for axis in cli.SWEEP_AXES:
            out_dir = inputs["workdir"] / f"out_{path.stem}_{axis}"
            rc = cli.main(
                [
                    "sweep",
                    str(path),
                    "--axis",
                    axis,
                    "--seed",
                    str(inputs["seed"]),
                    "--out-dir",
                    str(out_dir),
                ]
            )
            out.append((rc, out_dir / "sweep.csv"))
    return out


def check_sweep(inputs: dict, result: list[tuple[int, Path]]) -> Outcome:
    problems, blobs, points = [], [], 0
    for rc, csv_path in result:
        if rc != 0:
            problems.append(f"{csv_path.parent.name}: cli.main returned {rc}")
            continue
        blob = csv_path.read_bytes()
        blobs.append(blob)
        objectives: dict[str, dict[str, float]] = {}
        for row in csv.DictReader(blob.decode().splitlines()):
            if row["metric"] == "objective":
                objectives.setdefault(row["point"], {})[row["policy"]] = float(
                    row["value"]
                )
            elif row["metric"] == "infeasible":
                problems.append(f"{csv_path.parent.name}: point {row['point']} infeasible")
        points += len(objectives)
        for point, obj in objectives.items():
            if not all(np.isfinite(v) for v in obj.values()):
                problems.append(f"{csv_path.parent.name}: point {point} not finite")
            elif obj["pps"] > min(obj["rca"], obj["pca"]) * (1.0 + DOMINANCE_RTOL):
                problems.append(f"{csv_path.parent.name}: pps loses at point {point}")
    return Outcome(units=points, digest=_sha(*blobs), problems=problems)


# --- sim-manyclass and sim-fcfs ---------------------------------------------


# sim-* checks: |simulated - analytic| / analytic weighted completion must
# stay within `tolerance`. The analytics treat the link's input as Poisson,
# which VM departures are not, so the two differ by a few percent. Over 40
# seeds sim-manyclass gave -2.7% +- 2.4% (worst -7.9%); over 25 seeds
# sim-fcfs gave -1.5% +- 1.0% (worst -3.4%). Each tolerance sits about five
# standard deviations from the mean.
def _sim_inputs(config, networking, horizon, seed, tolerance):
    schedule = optimizer.optimize_pps(config).schedule
    return {
        "config": config,
        "schedule": schedule,
        "networking": networking,
        "tolerance": tolerance,
        "sim": simulator.SimConfig(
            horizon=horizon, replications=1, seed=seed, networking=networking
        ),
        # Offered jobs: rate x horizon x replications, warmup included.
        "jobs": config.total_rate * horizon,
    }


def prepare_sim_manyclass(seed: int, workdir: Path) -> dict:
    # 400 classes at network utilization 0.56; ~7k jobs per operation.
    config = model.default_config(num_classes=400)
    return _sim_inputs(config, "priority", 2.0e5, seed, tolerance=0.15)


def prepare_sim_fcfs(seed: int, workdir: Path) -> dict:
    # Rates x1.6 (network utilization 0.88), FCFS link; ~1M jobs per operation.
    base = model.default_config()
    config = base.with_rates(base.arrival_rates() * 1.6)
    return _sim_inputs(config, "fcfs", 1.0e6 / config.total_rate, seed, tolerance=0.06)


def run_sim(inputs: dict):
    return simulator.run_simulation(inputs["config"], inputs["schedule"], inputs["sim"])


def check_sim(inputs: dict, result) -> Outcome:
    report = analytics.analytic_report(
        inputs["schedule"], inputs["config"], inputs["networking"]
    )
    gap = result.weighted_completion / report.weighted_completion - 1.0
    problems = []
    tolerance = inputs["tolerance"]
    if not abs(gap) <= tolerance:
        problems.append(
            f"simulated weighted completion {result.weighted_completion!r} is "
            f"{gap:+.2%} off the analytic {report.weighted_completion!r} "
            f"(tolerance {tolerance:.0%})"
        )
    digest = _sha(
        np.asarray(result.counts, dtype=np.int64).tobytes(),
        *(
            np.asarray(getattr(result, name), dtype=np.float64).tobytes()
            for name in (
                "mean_wait_compute",
                "mean_service_compute",
                "mean_wait_network",
                "mean_service_network",
                "mean_aoi",
                "mean_completion",
            )
        ),
    )
    return Outcome(units=inputs["jobs"], digest=digest, problems=problems)


# --- online-drift ------------------------------------------------------------

DRIFT_WINDOWS = 16
DRIFT_KEYS = 300


def prepare_online_drift(seed: int, workdir: Path) -> dict:
    """Write a drifting trace of opaque keys on the J = 20 template.

    Key k nominally follows class k mod J. In window w that class's rate is
    the template rate of class (k + w) mod J, so rates rotate every window
    and each re-solve starts away from its optimum. The trace runs half a
    window past the last full one, which the program drops.
    """
    config = model.default_config()
    window = online.default_window(config)
    lam = config.arrival_rates()
    num_classes = len(lam)
    rng = _rng(seed, 2)
    keys = [f"{x:08x}" for x in rng.choice(2**32, DRIFT_KEYS, replace=False)]
    nominal = np.arange(DRIFT_KEYS) % num_classes
    weight = rng.uniform(0.5, 1.5, DRIFT_KEYS)
    weight /= np.bincount(nominal, weights=weight)[nominal]
    times, key_idx = [], []
    for w in range(DRIFT_WINDOWS + 1):
        length = window if w < DRIFT_WINDOWS else 0.5 * window
        rate = np.roll(lam, -w)[nominal] * weight
        counts = rng.poisson(rate * length)
        key_idx.append(np.repeat(np.arange(DRIFT_KEYS), counts))
        times.append(w * window + rng.uniform(0.0, length, counts.sum()))
    times = np.concatenate(times)
    key_idx = np.concatenate(key_idx)
    order = np.argsort(times, kind="stable")
    path = workdir / "drift_trace.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp_ms", "key"])
        for t, k in zip(times[order].tolist(), key_idx[order].tolist()):
            writer.writerow([repr(t), keys[k]])
    full = times < DRIFT_WINDOWS * window
    return {
        "config": config,
        "window": window,
        "trace": path,
        "settings": optimizer.OptimizerSettings(seed=seed),
        "seed": seed,
        "records": int(times.size),
        "full_window_records": int(full.sum()),
        "warm_window_records": int((full & (times >= window)).sum()),
    }


def run_online_drift(inputs: dict):
    # What `aoisched online CONFIG --trace FILE` runs, minus its file output.
    records = online.ingest_trace(inputs["trace"])
    args = (inputs["config"], inputs["window"], inputs["settings"], None)
    on = online.online_driver(records, *args, seed=inputs["seed"])
    off = online.offline_reference(records, *args, seed=inputs["seed"])
    return len(records), on, off


def check_online_drift(inputs: dict, result) -> Outcome:
    n_records, on, off = result
    problems = []
    if n_records != inputs["records"]:
        problems.append(f"ingested {n_records} records, wrote {inputs['records']}")
    for name, res in (("online", on), ("offline", off)):
        rows = res.schedules.reshape(-1, res.schedules.shape[-1])
        if not (np.all(rows >= -1e-12) and np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)):
            problems.append(f"{name}: a schedule row is not stochastic")
        if not np.all(np.isfinite(res.window_objectives)):
            problems.append(f"{name}: a window objective is not finite")
        windowed = sum(int(w.counts.sum()) for w in res.windows)
        if windowed != inputs["full_window_records"]:
            problems.append(
                f"{name}: windows hold {windowed} jobs, trace has "
                f"{inputs['full_window_records']} in full windows"
            )
        if int(res.result.counts.sum()) != inputs["warm_window_records"]:
            problems.append(f"{name}: statistics cover the wrong jobs")
    summary = json.dumps(
        [
            [res.sources, [repr(float(x)) for x in res.window_objectives]]
            for res in (on, off)
        ]
    )
    return Outcome(units=n_records, digest=_sha(summary.encode()), problems=problems)


WORKLOADS = {
    "sweep": (prepare_sweep, run_sweep, check_sweep),
    "sim-manyclass": (prepare_sim_manyclass, run_sim, check_sim),
    "sim-fcfs": (prepare_sim_fcfs, run_sim, check_sim),
    "online-drift": (prepare_online_drift, run_online_drift, check_online_drift),
}

