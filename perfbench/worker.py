"""One workload process: set up, run timed operations in a closed loop, report.

Started by run.py in a fresh interpreter, so set-up includes interpreter
start and ``import aoisched``. Prints one JSON object as its last stdout
line; whatever the package prints comes before it.

    python3 perfbench/worker.py '{"workload": "sweep", "seed": 1, ...}'
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def environment() -> dict:
    import numpy
    import scipy

    from aoisched import _kernels

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": _kernels.backend_name(),
        "numba_importable": has_numba,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main() -> None:
    job = json.loads(sys.argv[1])
    import aoisched

    src = Path(job["src"]).resolve()
    if src not in Path(aoisched.__file__).resolve().parents:
        raise SystemExit(f"imported aoisched from {aoisched.__file__}, not {src}")
    import tracer as tracing
    import workloads

    prepare, run, check = workloads.WORKLOADS[job["workload"]]
    workdir = Path(job["workdir"])
    inputs = prepare(job["seed"], workdir)
    setup_done = time.monotonic()

    tracer = tracing.Tracer() if job["traced"] else None
    recording = tracer.recording if tracer else contextlib.nullcontext

    samples, digests, problems = [], set(), []
    attempted = failed = 0
    budget_end = time.perf_counter() + job["seconds"]
    while True:
        attempted += 1
        try:
            with recording():
                t0 = time.perf_counter()
                result = run(inputs)
                dt = time.perf_counter() - t0
            outcome = check(inputs, result)
        except Exception:
            failed += 1
            problems.append(traceback.format_exc())
            break
        samples.append([dt, outcome.units])
        digests.add(outcome.digest)
        if outcome.problems:
            failed += 1
            problems.extend(outcome.problems)
        # Run another operation only if at least half of it fits the budget.
        if time.perf_counter() + dt / 2 > budget_end:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "setup_done": setup_done,
        "samples": samples,
        "digests": sorted(digests),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
        "env": environment(),
    }
    if job["reference"]:
        # Pinned-seed operation, outside the timed loop: its digest is
        # compared with fingerprints.json by run.py.
        ref_dir = workdir / "reference"
        ref_dir.mkdir()
        report["attempted"] += 1
        try:
            ref_inputs = prepare(workloads.REFERENCE_SEED, ref_dir)
            outcome = check(ref_inputs, run(ref_inputs))
        except Exception:
            report["failed"] += 1
            report["problems"].append(traceback.format_exc())
        else:
            report["reference_digest"] = outcome.digest
            report["problems"].extend(outcome.problems)
            report["failed"] += bool(outcome.problems)
    if tracer:
        metrics, left_out = tracing.layer_metrics(
            tracer.spans, max(len(samples), 1), tracer.missing_labels
        )
        report["layers"] = metrics
        report["layers_left_out"] = left_out
        report["missing_targets"] = tracer.missing
    sys.stdout.flush()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
