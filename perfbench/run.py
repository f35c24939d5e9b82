"""aoisched benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 22 --trace 0

Workloads (see workloads.py): ``sweep``, ``sim-manyclass``, ``sim-fcfs``,
``online-drift``. Each is a closed loop: one caller in one process, each
operation starting only after the previous one returned.

``--trace 0`` starts three fresh interpreters one after another, each
setting up and then timing operations for a third of ``--seconds``, and
reports the end-to-end metrics: ``setup_s`` (median of the three set-ups),
``peak_rss_mb`` (median ``ru_maxrss``) and ``items_per_s`` (median over all
operations of work items per second; the item is the workload's own unit,
printed under its own name, such as ``sweep_points_per_s``).

``--trace 1`` runs one untraced and one traced interpreter for half of
``--seconds`` each and reports the per-layer metrics from the traced one
(spans around calls into each module, see tracer.py), the import times read
with ``python -X importtime``, and ``trace_overhead_pct``.

Every operation is checked; an operation whose check fails, or whose output
digest differs from the others of the run, counts as failed. One more
operation on pinned inputs is compared with ``fingerprints.json``. The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
DEADLINE_S = 170.0
SETUPS = 3
IMPORT_REPEATS = 3

# The workload's item, as named in the printed summary.
ITEMS = {
    "sweep": ("sweep_points_per_s", "points/s"),
    "sim-manyclass": ("sim_jobs_per_s", "jobs/s"),
    "sim-fcfs": ("sim_jobs_per_s", "jobs/s"),
    "online-drift": ("online_jobs_per_s", "records/s"),
}
IMPORTS = {
    "import.aoisched_s": "aoisched",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.scipy_stats_s": "scipy.stats",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def _env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _communicate(proc: subprocess.Popen, deadline: float) -> tuple[str, str]:
    try:
        return proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{proc.args[:3]} did not finish in time") from None


def run_worker(job: dict, deadline: float) -> dict:
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        stdout=subprocess.PIPE,
        text=True,
        env=_env(),
        cwd=ROOT,
    )
    out, _ = _communicate(proc, deadline)
    if proc.returncode != 0:
        raise BenchError(f"worker for {job['workload']} exited with {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    # Both clocks are CLOCK_MONOTONIC, so this spans interpreter start too.
    report["setup_s"] = report["setup_done"] - start
    return report


def import_costs(log: str) -> dict[str, float]:
    """Cumulative seconds per module from a ``-X importtime`` log.

    The log lists each import after its children, indented by depth. A
    module's cost is the sum over its outermost lines and those of its
    submodules: scipy loads ``scipy.stats`` through ``importlib``, which
    the log does not show, so only its submodules appear.
    """
    pending, nodes = [], []
    for line in log.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        if not parts[1].strip().isdigit():
            continue  # the header line
        node = {
            "name": parts[2].strip(),
            "cumulative": int(parts[1]) / 1e6,
            "depth": len(parts[2]) - len(parts[2].lstrip()),
            "parent": None,
        }
        while pending and pending[-1]["depth"] > node["depth"]:
            pending.pop()["parent"] = node
        pending.append(node)
        nodes.append(node)

    def inside(node, module):
        return node["name"] == module or node["name"].startswith(module + ".")

    costs = {}
    for metric, module in IMPORTS.items():
        total = 0.0
        for node in nodes:
            parent = node["parent"]
            while parent is not None and not inside(parent, module):
                parent = parent["parent"]
            if inside(node, module) and parent is None:
                total += node["cumulative"]
        costs[metric] = total
    return costs


def import_times(deadline: float) -> dict[str, float]:
    """Median import cost per module of ``import aoisched``, fresh interpreters."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.Popen(
            [sys.executable, "-X", "importtime", "-c", "import aoisched"],
            stderr=subprocess.PIPE,
            text=True,
            env=_env(),
            cwd=ROOT,
        )
        _, err = _communicate(proc, deadline)
        if proc.returncode != 0:
            raise BenchError("import aoisched failed")
        runs.append(import_costs(err))
    return {name: statistics.median(r[name] for r in runs) for name in IMPORTS}


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g} min={min(values):.6g} max={max(values):.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ITEMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "aoisched" / "__init__.py").is_file():
        print(f"error: no aoisched package under {SRC}", file=sys.stderr)
        return 2
    pinned = json.loads((HERE / "fingerprints.json").read_text())

    def job(seconds: float, traced: bool, reference: bool, workdir: str) -> dict:
        Path(workdir).mkdir()
        return {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": seconds,
            "traced": traced,
            "reference": reference,
            "workdir": workdir,
            "src": str(SRC),
        }

    WORK_ROOT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT)
    try:
        if args.trace:
            half = args.seconds / 2.0
            plain = [run_worker(job(half, False, False, f"{scratch}/0"), deadline)]
            traced = run_worker(job(half, True, True, f"{scratch}/1"), deadline)
            reports = plain + [traced]
            imports = import_times(deadline)
        else:
            share = args.seconds / SETUPS
            plain = reports = [
                run_worker(job(share, False, i == SETUPS - 1, f"{scratch}/{i}"), deadline)
                for i in range(SETUPS)
            ]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    problems = [p for r in reports for p in r["problems"]]
    digests = {d for r in reports for d in r["digests"]}
    if len(digests) > 1:
        failed += 1
        problems.append(f"operations on one seed gave {len(digests)} different outputs")
    reference = reports[-1].get("reference_digest")
    if reference is not None and reference != pinned.get(args.workload):
        failed += 1
        problems.append(
            f"pinned output changed: {args.workload} seed 0 digest {reference}, "
            f"fingerprints.json has {pinned.get(args.workload)}"
        )
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if not all(r["samples"] for r in reports):
        print("error: a worker completed no operation", file=sys.stderr)
        return 1

    print("env: " + json.dumps(reports[0]["env"], sort_keys=True))
    print(f"workload: {args.workload} seed={args.seed} closed loop, 1 caller")
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str, detail: str = "") -> None:
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name} = {value:.6g} {unit} {detail}".rstrip())

    if args.trace:
        plain_s = statistics.median(s[0] for r in plain for s in r["samples"])
        traced_s = statistics.median(s[0] for s in traced["samples"])
        for name, (value, unit) in traced["layers"].items():
            put(name, value, unit)
        for name, value in imports.items():
            put(name, value, "s", f"median of {IMPORT_REPEATS} fresh interpreters")
        put("trace_overhead_pct", 100.0 * (traced_s / plain_s - 1.0), "%")
        for name in traced["layers_left_out"]:
            print(f"  {name} missing (wrapped name gone: {traced['missing_targets']})")
    else:
        rates = [units / dt for r in plain for dt, units in r["samples"]]
        setups = [r["setup_s"] for r in plain]
        rss = [r["peak_rss_mb"] for r in plain]
        item, unit = ITEMS[args.workload]
        put("setup_s", statistics.median(setups), "s", _quartiles(setups))
        put("peak_rss_mb", statistics.median(rss), "MB", _quartiles(rss))
        put("items_per_s", statistics.median(rates), "items/s", _quartiles(rates))
        print(f"  {item} = {statistics.median(rates):.6g} {unit} (items_per_s)")
    print(f"operations: attempted={attempted} failed={failed}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
