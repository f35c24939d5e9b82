"""Command-line front-end: optimize, simulate, sweep, online, example-fig3.

Every command resolves its settings up front into a run manifest (command,
arguments, seeds, package version, config hash, timestamp) that is embedded
in the JSON reports and written alongside the CSVs. CSV files carry pure
numeric tables with full-precision floats, so rerunning a command with the
same inputs and version reproduces their numeric columns byte for byte (the
manifest's timestamp is the only thing that moves).

Exit codes: 0 success, 1 internal error, 2 user or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import (
    StabilityError,
    analytic_report,
    weighted_metrics,
)
from .model import (
    ConfigError,
    SystemConfig,
    config_to_dict,
    load_config,
    reference_vms,
    validate_config,
)
from .online import (
    default_window,
    ingest_trace,
    offline_reference,
    online_driver,
    synthesize_poisson_trace,
    template_class_map,
)
from .optimizer import (
    InfeasibleError,
    OptimizerSettings,
    baseline_pca,
    baseline_rca,
    optimize_pps,
)
from .simulator import SimConfig, policy_tradeoff_example, run_simulation

POLICIES = ("pps", "rca", "pca", "ocafcfs")
SWEEP_AXES = ("theta", "vms", "lambda-scale", "weights")
DEFAULT_SWEEP_VALUES = {
    "theta": "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
    "vms": "8,12,16,20,24",
    "lambda-scale": "1.0,1.2,1.4,1.6,1.8",
    "weights": "0.2,0.35,0.5,0.65,0.8",
}


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _config_hash(config: SystemConfig) -> str:
    canon = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def _manifest(args: argparse.Namespace, command: str, **extra) -> dict:
    man = {
        "command": command,
        "version": __version__,
        "created": _utc_now(),
        "seed": extra.pop("seed", getattr(args, "seed", None)),
        "moment_mode": getattr(args, "moment_mode", None),
        "margin": getattr(args, "margin", None),
    }
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        man["config_path"] = str(cfg_path)
        man["config_sha256"] = _sha256_file(Path(cfg_path))
    man.update(extra)
    return man


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(getattr(args, "out_dir", ".") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(args: argparse.Namespace) -> SystemConfig:
    config = load_config(args.config)
    if getattr(args, "moment_mode", None):
        config = dataclasses.replace(config, moment_mode=args.moment_mode)
    problems = validate_config(config)
    if problems:
        raise ConfigError("; ".join(problems))
    return config


def _resolved_seed(args: argparse.Namespace, config: SystemConfig) -> int:
    return config.seed if args.seed is None else args.seed


def _settings(args: argparse.Namespace, seed: int) -> OptimizerSettings:
    return OptimizerSettings(
        max_iters=getattr(args, "max_iters", 5000),
        rel_tol=getattr(args, "rel_tol", 1.0e-12),
        initial_step=getattr(args, "step", 1.0),
        stability_margin=args.margin,
        multistart=not getattr(args, "no_multistart", False),
        seed=seed,
    )


def write_schedule(path: str | Path, p: np.ndarray) -> None:
    """Row-major schedule CSV: class_id, then one probability per VM."""
    p = np.asarray(p, dtype=np.float64)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class_id"] + [f"p_{v + 1}" for v in range(p.shape[1])])
        for j in range(p.shape[0]):
            writer.writerow([j + 1] + [repr(float(x)) for x in p[j]])


def read_schedule(path: str | Path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "class_id":
            raise ConfigError(f"{path}: not a schedule file (missing header)")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rows.append([float(x) for x in row[1:]])
            except ValueError:
                raise ConfigError(f"{path}: line {lineno}: bad probability") from None
    if not rows:
        raise ConfigError(f"{path}: schedule file has no rows")
    return np.array(rows, dtype=np.float64)


def cmd_optimize(args: argparse.Namespace) -> int:
    config = _load(args)
    seed = _resolved_seed(args, config)
    settings = _settings(args, seed)
    trace = optimize_pps(config, settings)
    man = _manifest(
        args,
        "optimize",
        seed=seed,
        settings=dataclasses.asdict(settings),
        config_hash=_config_hash(config),
    )
    report = analytic_report(trace.schedule, config, manifest=man)
    out = _out_dir(args)
    trace.write_csv(out / "convergence.csv")
    write_schedule(out / "schedule.csv", trace.schedule)
    report.write_csv(out / "report.csv")
    payload = report.to_dict()
    payload["optimize"] = {
        "objective": trace.objective,
        "iterations": trace.iterations,
        "converged": trace.converged,
        "start": trace.start,
        "stop_reason": trace.stop_reason,
    }
    _write_json(out / "report.json", payload)
    print(
        f"optimize: objective={trace.objective!r} iterations={trace.iterations} "
        f"converged={trace.converged} -> {out}"
    )
    return 0


def _policy_schedule(
    policy: str,
    config: SystemConfig,
    settings: OptimizerSettings,
    pca_mode: str = "paper_literal",
    optimized: np.ndarray | None = None,
) -> tuple[np.ndarray, str]:
    """Schedule plus networking discipline implied by the policy name.

    `optimized` is an already-solved pps schedule, which "pps" and "ocafcfs"
    then reuse instead of solving again.
    """
    if policy in ("pps", "ocafcfs"):
        if optimized is None:
            optimized = optimize_pps(config, settings).schedule
        return optimized, "priority" if policy == "pps" else "fcfs"
    if policy == "rca":
        return baseline_rca(config, settings.stability_margin), "priority"
    if policy == "pca":
        return baseline_pca(config, pca_mode, settings.stability_margin), "priority"
    raise ConfigError(f"unknown policy {policy!r}")


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load(args)
    seed = _resolved_seed(args, config)
    settings = _settings(args, seed)
    if args.schedule:
        p = read_schedule(args.schedule)
        networking = "priority"
        policy = f"schedule:{args.schedule}"
    else:
        p, networking = _policy_schedule(args.policy, config, settings, args.pca_mode)
        policy = args.policy
    sim = SimConfig(
        horizon=args.horizon,
        replications=args.replications,
        warmup_fraction=args.warmup,
        seed=seed,
        networking=networking,
        simulate_updates=args.simulate_updates,
        collect_event_log=args.event_log,
    )
    result = run_simulation(config, p, sim)
    man = _manifest(
        args,
        "simulate",
        seed=seed,
        policy=policy,
        sim=dataclasses.asdict(sim),
        config_hash=_config_hash(config),
    )
    result = dataclasses.replace(result, manifest=man)
    out = _out_dir(args)
    result.write_csv(out / "simulation.csv")
    _write_json(out / "simulation.json", result.to_dict())
    write_schedule(out / "schedule.csv", p)
    if args.event_log and result.event_log is not None:
        with open(out / "event_log.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(result.event_log.dtype.names)
            for rec in result.event_log:
                writer.writerow(
                    [int(rec[0]), int(rec[1])] + [repr(float(x)) for x in list(rec)[2:]]
                )
    print(
        f"simulate[{policy}]: weighted_objective={result.weighted_objective!r} "
        f"ci={result.ci_weighted_objective!r} -> {out}"
    )
    return 0


def _sweep_point_config(config: SystemConfig, axis: str, value: float) -> SystemConfig:
    if axis == "theta":
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"theta sweep value {value} outside [0, 1]")
        return dataclasses.replace(config, theta=float(value))
    if axis == "vms":
        if value < 1 or value != int(value):
            raise ConfigError(f"vms sweep value must be an integer >= 1, got {value}")
        return dataclasses.replace(config, vms=reference_vms(int(value)))
    if axis == "lambda-scale":
        if value <= 0.0:
            raise ConfigError(f"lambda-scale must be positive, got {value}")
        return config.with_rates(config.arrival_rates() * float(value))
    if axis == "weights":
        # Reapportion total load: the first half of the classes carries the
        # given fraction of it, rates staying proportional within each half.
        if not 0.0 < value < 1.0:
            raise ConfigError(f"weights sweep value {value} outside (0, 1)")
        lam = config.arrival_rates()
        J = len(lam)
        if J < 2:
            raise ConfigError("weights sweep needs at least two classes")
        half = (J + 1) // 2
        total = lam.sum()
        new = lam.copy()
        new[:half] = lam[:half] / lam[:half].sum() * (value * total)
        new[half:] = lam[half:] / lam[half:].sum() * ((1.0 - value) * total)
        return config.with_rates(new)
    raise ConfigError(f"unknown sweep axis {axis!r}")


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load(args)
    seed = _resolved_seed(args, config)
    settings = _settings(args, seed)
    raw = args.values or DEFAULT_SWEEP_VALUES[args.axis]
    try:
        values = [float(x) for x in raw.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"bad sweep values {raw!r}") from None
    if not values:
        raise ConfigError("sweep needs at least one value")
    if not all(np.isfinite(values)):
        raise ConfigError(f"sweep values must be finite, got {raw!r}")

    rows: list[tuple] = []
    prev_schedule: np.ndarray | None = None
    for value in values:
        try:
            point_cfg = _sweep_point_config(config, args.axis, value)
            best = optimize_pps(point_cfg, settings)
            if prev_schedule is not None and prev_schedule.shape == (
                point_cfg.num_classes,
                point_cfg.num_vms,
            ):
                warm = optimize_pps(point_cfg, settings, initial=prev_schedule)
                if warm.objective < best.objective:
                    best = warm
            prev_schedule = best.schedule
            per_policy = {
                policy: _policy_schedule(
                    policy, point_cfg, settings, args.pca_mode, best.schedule
                )
                for policy in POLICIES
            }
        except (InfeasibleError, StabilityError) as exc:
            rows.append((value, "all", "infeasible", 1.0))
            print(f"sweep point {value}: infeasible ({exc})", file=sys.stderr)
            continue
        for policy, (p, networking) in per_policy.items():
            try:
                wc, wa = weighted_metrics(p, point_cfg, networking)
                obj = point_cfg.theta * wc + (1.0 - point_cfg.theta) * wa
                rows.append((value, policy, "objective", obj))
                rows.append((value, policy, "weighted_completion", wc))
                rows.append((value, policy, "weighted_aoi", wa))
            except StabilityError:
                rows.append((value, policy, "infeasible", 1.0))
                continue
            if args.simulate:
                sim = SimConfig(
                    horizon=args.horizon,
                    replications=args.replications,
                    seed=seed,
                    networking=networking,
                )
                res = run_simulation(point_cfg, p, sim)
                rows.append(
                    (value, policy, "sim_weighted_objective", res.weighted_objective)
                )
                rows.append(
                    (value, policy, "sim_weighted_completion", res.weighted_completion)
                )
                rows.append((value, policy, "sim_weighted_aoi", res.weighted_aoi))

    out = _out_dir(args)
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "point", "policy", "metric", "value"])
        for value, policy, metric, metric_value in rows:
            writer.writerow(
                [args.axis, repr(float(value)), policy, metric, repr(float(metric_value))]
            )
    man = _manifest(
        args,
        "sweep",
        seed=seed,
        axis=args.axis,
        values=values,
        simulate=bool(args.simulate),
        settings=dataclasses.asdict(settings),
        config_hash=_config_hash(config),
    )
    _write_json(out / "sweep_manifest.json", man)
    print(f"sweep[{args.axis}]: {len(values)} points, {len(rows)} rows -> {out}")
    return 0


def cmd_online(args: argparse.Namespace) -> int:
    config = _load(args)
    seed = _resolved_seed(args, config)
    settings = _settings(args, seed)
    window = default_window(config) if args.window is None else args.window
    if args.trace:
        trace = ingest_trace(args.trace)
        if args.class_map:
            with open(args.class_map) as fh:
                class_map = {str(k): v for k, v in json.load(fh).items()}
            mapping_mode = "explicit"
        else:
            class_map = None
            mapping_mode = "frequency-rank"
        source = str(args.trace)
    else:
        # The trailing partial window is dropped, so synthesize one extra.
        horizon = (args.windows + 1) * window
        trace = synthesize_poisson_trace(config, horizon, seed)
        class_map = template_class_map(config)
        mapping_mode = "identity-synthetic"
        source = f"synthetic:{args.windows}x{window}ms"

    online = online_driver(trace, config, window, settings, class_map, seed=seed)
    offline = offline_reference(trace, config, window, settings, class_map, seed=seed)
    on_obj = online.result.weighted_objective
    off_obj = offline.result.weighted_objective
    gap = abs(on_obj - off_obj) / abs(off_obj) * 100.0 if off_obj else float("nan")

    out = _out_dir(args)
    online.write_windows_csv(out / "online_windows.csv")
    offline.write_windows_csv(out / "offline_windows.csv")
    man = _manifest(
        args,
        "online",
        seed=seed,
        trace_source=source,
        window_length=window,
        class_mapping=mapping_mode,
        settings=dataclasses.asdict(settings),
        config_hash=_config_hash(config),
    )
    _write_json(
        out / "online_report.json",
        {
            "manifest": man,
            "online": online.to_dict(),
            "offline": offline.to_dict(),
            "objective_gap_percent": gap,
        },
    )
    print(
        f"online: windows={online.num_windows} objective={on_obj!r} "
        f"offline={off_obj!r} gap={gap:.3f}% -> {out}"
    )
    return 0


def cmd_example_fig3(args: argparse.Namespace) -> int:
    payload = policy_tradeoff_example()
    payload["manifest"] = _manifest(args, "example-fig3")
    print(json.dumps(payload, indent=2, sort_keys=True))
    _write_json(_out_dir(args) / "example_fig3.json", payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="master seed (default: config's)")
    common.add_argument("--out-dir", default=".", help="directory for output files")
    common.add_argument(
        "--moment-mode",
        choices=("exact", "paper_literal"),
        default=None,
        help="override the config's second-moment computation",
    )
    common.add_argument(
        "--margin", type=float, default=1.0e-3, help="stability margin for feasibility"
    )

    opt_flags = argparse.ArgumentParser(add_help=False)
    opt_flags.add_argument("--max-iters", type=int, default=5000)
    opt_flags.add_argument("--rel-tol", type=float, default=1.0e-12)
    opt_flags.add_argument("--step", type=float, default=1.0, help="initial step size")
    opt_flags.add_argument(
        "--no-multistart",
        action="store_true",
        help="descend only from the uniform feasible point",
    )
    opt_flags.add_argument(
        "--pca-mode",
        choices=("paper_literal", "inverse_time"),
        default="paper_literal",
        help="proportional baseline: weight VMs by mean time or its inverse",
    )

    parser = argparse.ArgumentParser(
        prog="aoisched",
        description="Age-of-information vs completion-time scheduling toolkit",
    )
    parser.add_argument("--version", action="version", version=f"aoisched {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser(
        "optimize",
        parents=[common, opt_flags],
        help="solve for the best schedule; write convergence, schedule, report",
    )
    p_opt.add_argument("config", help="system config JSON")
    p_opt.set_defaults(func=cmd_optimize)

    p_sim = sub.add_parser(
        "simulate",
        parents=[common, opt_flags],
        help="simulate a schedule file or a named policy",
    )
    p_sim.add_argument("config", help="system config JSON")
    group = p_sim.add_mutually_exclusive_group()
    group.add_argument("--schedule", help="schedule CSV to simulate")
    group.add_argument(
        "--policy",
        choices=POLICIES,
        default="pps",
        help="pps | rca | pca | ocafcfs (optimized schedule, FCFS networking)",
    )
    p_sim.add_argument("--horizon", type=float, default=1.0e6, help="ms per replication")
    p_sim.add_argument("--replications", type=int, default=10)
    p_sim.add_argument("--warmup", type=float, default=0.2, help="warmup fraction")
    p_sim.add_argument("--simulate-updates", action="store_true")
    p_sim.add_argument("--event-log", action="store_true", help="write per-job event log")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser(
        "sweep",
        parents=[common, opt_flags],
        help="optimize every policy across one axis; long-format CSV",
    )
    p_sweep.add_argument("config", help="system config JSON")
    p_sweep.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p_sweep.add_argument(
        "--values",
        default=None,
        help="comma-separated sweep points (defaults depend on the axis)",
    )
    p_sweep.add_argument("--simulate", action="store_true", help="also simulate each point")
    p_sweep.add_argument("--horizon", type=float, default=1.0e5)
    p_sweep.add_argument("--replications", type=int, default=3)
    p_sweep.set_defaults(func=cmd_sweep)

    p_online = sub.add_parser(
        "online",
        parents=[common, opt_flags],
        help="window-based online run vs offline reference",
    )
    p_online.add_argument("config", help="system config JSON (the class template)")
    p_online.add_argument("--trace", default=None, help="trace CSV (timestamp_ms,key)")
    p_online.add_argument(
        "--class-map", default=None, help="JSON file mapping trace keys to class ids"
    )
    p_online.add_argument(
        "--window", type=float, default=None, help="window length in ms"
    )
    p_online.add_argument(
        "--windows",
        type=int,
        default=8,
        help="windows to synthesize when no trace file is given",
    )
    p_online.set_defaults(func=cmd_online)

    p_fig = sub.add_parser(
        "example-fig3",
        parents=[common],
        help="deterministic two-policy tradeoff example (prints JSON)",
    )
    p_fig.set_defaults(func=cmd_example_fig3)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InfeasibleError, StabilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
