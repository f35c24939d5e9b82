"""Spans around calls into the package's modules, wrapped from outside.

The package imports names with ``from ... import``, so each name is wrapped
in the namespace that calls it (``aoisched.cli.optimize_pps``,
``aoisched.online.assign_vms``, ...). A name that no longer exists is
recorded as missing and the metrics that rely on it are left out; nothing
under ``src/`` needs to know about tracing. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


def _jobs(args, kwargs, result):
    return {"jobs": len(args[0])}


def _iterations(args, kwargs, result):
    return {"iterations": result.iterations}


def _kept(args, kwargs, result):
    return {"kept": int(np.sum(result.counts))}


def _windows(args, kwargs, result):
    return {"windows": result.num_windows, "fallback": result.sources.count("fallback")}


# (module, name, span label, facts taken from the call). The label names the
# layer whose code runs; one label may be wrapped in several namespaces.
TARGETS = [
    ("aoisched.cli", "main", "cli.main", None),
    ("aoisched.cli", "load_config", "model.load_config", None),
    ("aoisched.cli", "validate_config", "model.validate_config", None),
    ("aoisched.simulator", "validate_config", "model.validate_config", None),
    ("aoisched.online", "validate_config", "model.validate_config", None),
    ("aoisched.cli", "weighted_metrics", "analytics.weighted_metrics", None),
    ("aoisched.analytics", "priority_waiting_times", "analytics.priority_waiting_times", None),
    ("aoisched.optimizer", "priority_waiting_times", "analytics.priority_waiting_times", None),
    ("aoisched.cli", "optimize_pps", "optimizer.optimize_pps", _iterations),
    ("aoisched.online", "optimize_pps", "online.optimize_pps", _iterations),
    ("aoisched.cli", "baseline_rca", "optimizer.baselines", None),
    ("aoisched.cli", "baseline_pca", "optimizer.baselines", None),
    ("aoisched.optimizer", "linprog", "optimizer.linprog", None),
    ("aoisched.simulator", "run_simulation", "simulator.run_simulation", _kept),
    ("aoisched.simulator", "assign_vms", "simulator.assign_vms", None),
    ("aoisched.simulator", "network_start_times", "simulator.network_start_times", None),
    ("aoisched.simulator", "group_by_class", "simulator.group_by_class", None),
    ("aoisched._kernels", "priority_start", "kernels.priority_start", _jobs),
    ("aoisched._kernels", "fcfs_start", "kernels.fcfs_start", _jobs),
    ("aoisched.online", "ingest_trace", "online.ingest_trace", None),
    ("aoisched.online", "resolve_classes", "online.resolve_classes", None),
    ("aoisched.online", "online_driver", "online.driver", _windows),
    ("aoisched.online", "offline_reference", "online.offline_reference", None),
    ("aoisched.online", "assign_vms", "online.assign_vms", None),
    ("aoisched.online", "network_start_times", "online.network_start_times", None),
]


@dataclass
class Span:
    label: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    child_s: float = 0.0
    facts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Installs the wrappers once; records spans only inside ``recording()``."""

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        wrapped = {label: 0 for _, _, label, _ in TARGETS}
        for module_name, name, label, facts in TARGETS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, name)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{name}")
                continue
            setattr(module, name, self._wrap(fn, label, facts))
            wrapped[label] += 1
        # A label counts as missing only when none of its namespaces exist.
        self.missing_labels = {label for label, n in wrapped.items() if n == 0}

    @contextlib.contextmanager
    def recording(self):
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    def _wrap(self, fn, label, facts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(label, self._stack[-1] if self._stack else None, 0.0)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                self.spans.append(span)
            if facts is not None:
                span.facts = facts(args, kwargs, result)
            return result

        return traced


def layer_metrics(spans: list[Span], ops: int, missing_labels: set[str]):
    """Per-layer metrics, per timed operation, as {name: (value, unit)}.

    Returns the metrics plus the names left out because every namespace of
    a span they need is gone.
    """
    by_label = defaultdict(list)
    for span in spans:
        by_label[span.label].append(span)

    def secs(label, pick=lambda s: True):
        return sum(s.duration for s in by_label[label] if pick(s)) / ops

    def self_secs(*labels):
        return sum(s.self_s for label in labels for s in by_label[label]) / ops

    def calls(label):
        return len(by_label[label]) / ops

    def fact(label, key):
        return sum(s.facts.get(key, 0) for s in by_label[label])

    def under_link(span):
        return span.parent is not None and span.parent.label.endswith(
            "network_start_times"
        )

    def under_sim(span):
        return (
            span.parent is not None
            and span.parent.label == "simulator.run_simulation"
        )

    solves = by_label["optimizer.optimize_pps"] + by_label["online.optimize_pps"]
    solve_ms = [1e3 * s.duration for s in solves] or [0.0]
    sim_jobs = sum(
        s.facts["jobs"] for s in by_label["kernels.fcfs_start"] if under_sim(s)
    )
    prio_jobs = fact("kernels.priority_start", "jobs")
    fcfs_jobs = fact("kernels.fcfs_start", "jobs")

    table = [
        ("cli.main_s", "cli.main", lambda: secs("cli.main"), "s/op"),
        ("cli.self_s", "cli.main", lambda: self_secs("cli.main"), "s/op"),
        ("model.load_config_s", "model.load_config", lambda: secs("model.load_config"), "s/op"),
        ("model.validate_config_calls", "model.validate_config", lambda: calls("model.validate_config"), "calls/op"),
        ("analytics.weighted_metrics_s", "analytics.weighted_metrics", lambda: secs("analytics.weighted_metrics"), "s/op"),
        ("analytics.weighted_metrics_calls", "analytics.weighted_metrics", lambda: calls("analytics.weighted_metrics"), "calls/op"),
        ("analytics.priority_waiting_times_calls", "analytics.priority_waiting_times", lambda: calls("analytics.priority_waiting_times"), "calls/op"),
        ("optimizer.optimize_pps_calls", "optimizer.optimize_pps", lambda: len(solves) / ops, "calls/op"),
        ("optimizer.optimize_pps_s", "optimizer.optimize_pps", lambda: sum(s.duration for s in solves) / ops, "s/op"),
        ("optimizer.solve_ms_p50", "optimizer.optimize_pps", lambda: float(np.percentile(solve_ms, 50)), "ms"),
        ("optimizer.solve_ms_p90", "optimizer.optimize_pps", lambda: float(np.percentile(solve_ms, 90)), "ms"),
        ("optimizer.pgd_iterations", "optimizer.optimize_pps", lambda: sum(s.facts.get("iterations", 0) for s in solves) / ops, "count/op"),
        ("optimizer.baselines_s", "optimizer.baselines", lambda: secs("optimizer.baselines"), "s/op"),
        ("optimizer.linprog_calls", "optimizer.linprog", lambda: calls("optimizer.linprog"), "calls/op"),
        ("optimizer.linprog_s", "optimizer.linprog", lambda: secs("optimizer.linprog"), "s/op"),
        ("simulator.run_simulation_s", "simulator.run_simulation", lambda: secs("simulator.run_simulation"), "s/op"),
        ("simulator.assign_vms_s", "simulator.assign_vms", lambda: secs("simulator.assign_vms"), "s/op"),
        ("simulator.network_start_times_s", "simulator.network_start_times", lambda: secs("simulator.network_start_times"), "s/op"),
        ("simulator.group_by_class_s", "simulator.group_by_class", lambda: secs("simulator.group_by_class"), "s/op"),
        ("simulator.self_s", "simulator.run_simulation", lambda: self_secs("simulator.run_simulation"), "s/op"),
        ("simulator.jobs", "kernels.fcfs_start", lambda: sim_jobs / ops, "jobs/op"),
        ("simulator.kept_ratio", "kernels.fcfs_start", lambda: fact("simulator.run_simulation", "kept") / sim_jobs if sim_jobs else 0.0, "ratio"),
        ("kernels.priority_start_s", "kernels.priority_start", lambda: secs("kernels.priority_start"), "s/op"),
        ("kernels.priority_start_jobs", "kernels.priority_start", lambda: prio_jobs / ops, "jobs/op"),
        ("kernels.priority_start_us_per_job", "kernels.priority_start", lambda: 1e6 * secs("kernels.priority_start") * ops / prio_jobs if prio_jobs else 0.0, "us/job"),
        ("kernels.fcfs_start.compute_s", "kernels.fcfs_start", lambda: secs("kernels.fcfs_start", lambda s: not under_link(s)), "s/op"),
        ("kernels.fcfs_start.link_s", "kernels.fcfs_start", lambda: secs("kernels.fcfs_start", under_link), "s/op"),
        ("kernels.fcfs_start_jobs", "kernels.fcfs_start", lambda: fcfs_jobs / ops, "jobs/op"),
        ("kernels.fcfs_start_us_per_job", "kernels.fcfs_start", lambda: 1e6 * secs("kernels.fcfs_start") * ops / fcfs_jobs if fcfs_jobs else 0.0, "us/job"),
        ("online.ingest_trace_s", "online.ingest_trace", lambda: secs("online.ingest_trace"), "s/op"),
        ("online.resolve_classes_s", "online.resolve_classes", lambda: secs("online.resolve_classes"), "s/op"),
        ("online.resolve_classes_calls", "online.resolve_classes", lambda: calls("online.resolve_classes"), "calls/op"),
        ("online.optimize_pps_calls", "online.optimize_pps", lambda: calls("online.optimize_pps"), "calls/op"),
        ("online.optimize_pps_s", "online.optimize_pps", lambda: secs("online.optimize_pps"), "s/op"),
        ("online.windows", "online.driver", lambda: fact("online.driver", "windows") / ops, "count/op"),
        ("online.windows_fallback", "online.driver", lambda: fact("online.driver", "fallback") / ops, "count/op"),
        ("online.assign_vms_s", "online.assign_vms", lambda: secs("online.assign_vms"), "s/op"),
        ("online.network_start_times_s", "online.network_start_times", lambda: secs("online.network_start_times"), "s/op"),
        ("online.self_s", "online.driver", lambda: self_secs("online.driver", "online.offline_reference"), "s/op"),
    ]
    metrics, left_out = {}, []
    for name, needs, value, unit in table:
        if needs in missing_labels:
            left_out.append(name)
        else:
            metrics[name] = (float(value()), unit)
    return metrics, left_out
