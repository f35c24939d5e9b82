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
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import (
    STABILITY_MARGIN,
    StabilityError,
    analytic_report,
    require_schedule,
    weighted_metrics,
)
from .model import (
    ConfigError,
    SystemConfig,
    config_hash,
    dumps_json,
    integer,
    load_config,
    positive,
    read_json_object,
    reference_vms,
    validate_config,
    write_json,
    write_table,
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
    PCA_STARTS,
    InfeasibleError,
    OptimizerSettings,
    baseline_pca,
    baseline_rca,
    optimize_many,
    optimize_pps,
)
from .simulator import SimConfig, policy_tradeoff_example, run_simulation

# Policy name -> link discipline. pps and ocafcfs serve the optimized
# schedule; rca and pca are the optimizer's uniform and proportional starts.
POLICIES = {"pps": "priority", "rca": "priority", "pca": "priority", "ocafcfs": "fcfs"}
SWEEP_AXES = ("theta", "vms", "lambda-scale", "weights")
DEFAULT_SWEEP_VALUES = {
    "theta": "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
    "vms": "8,12,16,20,24",
    "lambda-scale": "1.0,1.2,1.4,1.6,1.8",
    "weights": "0.2,0.35,0.5,0.65,0.8",
}


def _manifest(
    args: argparse.Namespace,
    command: str,
    config: SystemConfig | None = None,
    settings: OptimizerSettings | None = None,
    **extra,
) -> dict:
    man = {
        "command": command,
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "seed": getattr(args, "seed", None),
        "moment_mode": getattr(args, "moment_mode", None),
        "margin": getattr(args, "margin", None),
    }
    if config is not None:
        path = Path(args.config)
        man["config_path"] = str(path)
        man["config_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        man["config_hash"] = config_hash(config)
    if settings is not None:
        man["seed"] = settings.seed
        man["settings"] = dataclasses.asdict(settings)
    man.update(extra)
    return man


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _setup(args: argparse.Namespace) -> tuple[SystemConfig, OptimizerSettings]:
    """The validated config and the optimizer settings from the flags; the
    settings carry the run's seed, --seed or else the config's."""
    config = load_config(args.config)
    if args.moment_mode:
        config = dataclasses.replace(config, moment_mode=args.moment_mode)
    problems = validate_config(config)
    if problems:
        raise ConfigError("; ".join(problems))
    settings = OptimizerSettings(
        max_iters=args.max_iters,
        rel_tol=args.rel_tol,
        initial_step=args.step,
        stability_margin=args.margin,
        seed=config.seed if args.seed is None else integer(args.seed, "--seed", 0),
    )
    return config, settings


def write_schedule(path: str | Path, p: np.ndarray) -> None:
    """Row-major schedule CSV: class_id, then one probability per VM."""
    p = np.asarray(p, dtype=np.float64)
    header = ["class_id"] + [f"p_{v + 1}" for v in range(p.shape[1])]
    write_table(path, header, ([j + 1, *row] for j, row in enumerate(p)))


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
            where = f"{path}: line {lineno}"
            if row[0].strip() != str(len(rows) + 1):
                raise ConfigError(f"{where}: class_id must be {len(rows) + 1}")
            if len(row) != len(header):
                raise ConfigError(f"{where}: wrong number of probabilities")
            try:
                rows.append([float(x) for x in row[1:]])
            except ValueError:
                raise ConfigError(f"{where}: bad probability") from None
    if not rows:
        raise ConfigError(f"{path}: schedule file has no rows")
    return np.array(rows, dtype=np.float64)


def cmd_optimize(args: argparse.Namespace) -> int:
    config, settings = _setup(args)
    trace = optimize_pps(config, settings)
    man = _manifest(args, "optimize", config, settings)
    report = analytic_report(trace.schedule, config)
    out = _out_dir(args)
    trace.write_csv(out / "convergence.csv")
    write_schedule(out / "schedule.csv", trace.schedule)
    report.write_csv(out / "report.csv")
    payload = report.to_dict()
    payload["manifest"] = man
    payload["optimize"] = {
        "objective": trace.objective,
        "iterations": trace.iterations,
        "converged": trace.converged,
        "start": trace.start,
        "stop_reason": trace.stop_reason,
        "starts": [record.to_dict() for record in trace.starts],
    }
    write_json(out / "report.json", payload)
    print(
        f"optimize: objective={trace.objective!r} iterations={trace.iterations} "
        f"converged={trace.converged} -> {out}"
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config, settings = _setup(args)
    solved_with = None  # the settings of the optimizer, if it ran
    if args.schedule:
        p = require_schedule(read_schedule(args.schedule), config, args.schedule)
        policy = f"schedule:{args.schedule}"
        networking = "priority"
    else:
        policy = args.policy
        networking = POLICIES[policy]
        if policy == "rca":
            p = baseline_rca(config, args.margin)
        elif policy == "pca":
            p = baseline_pca(config, args.pca_mode, args.margin)
        else:
            p = optimize_pps(config, settings).schedule
            solved_with = settings
    sim = SimConfig(
        horizon=args.horizon,
        replications=args.replications,
        warmup_fraction=args.warmup,
        seed=settings.seed,
        networking=networking,
        simulate_updates=args.simulate_updates,
        collect_event_log=args.event_log,
    )
    result = run_simulation(config, p, sim)
    man = _manifest(args, "simulate", config, solved_with, seed=sim.seed, policy=policy)
    man["sim"] = dataclasses.asdict(sim)
    out = _out_dir(args)
    result.write_csv(out / "simulation.csv")
    write_json(out / "simulation.json", {**result.to_dict(), "manifest": man})
    write_schedule(out / "schedule.csv", p)
    if args.event_log and result.event_log is not None:
        log = result.event_log
        write_table(out / "event_log.csv", log.dtype.names, log.tolist())
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
        # Capped as num_classes is, so that 1e308 cannot exhaust memory.
        vms = reference_vms(integer(value, "vms sweep value", 1, 100_000))
        return dataclasses.replace(config, vms=vms)
    if axis == "lambda-scale":
        scale = positive(value, "lambda-scale")
        return config.with_rates(config.arrival_rates() * scale)
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
    config, settings = _setup(args)
    raw = args.values or DEFAULT_SWEEP_VALUES[args.axis]
    try:
        values = [float(x) for x in raw.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"bad sweep values {raw!r}") from None
    if not values:
        raise ConfigError("sweep needs at least one value")
    if not all(np.isfinite(values)):
        raise ConfigError(f"sweep values must be finite, got {raw!r}")

    # Every value, and the simulation settings, are checked before anything
    # is solved. Every point's cold starts then descend together, in
    # lockstep batches per schedule shape, and the warm chain runs in point
    # order.
    points = [(v, _sweep_point_config(config, args.axis, v)) for v in values]
    sim = None
    if args.simulate:
        sim = SimConfig(
            horizon=args.horizon, replications=args.replications, seed=settings.seed
        )
    rows: list[tuple] = []
    prev_schedule: np.ndarray | None = None
    for (value, point_cfg), cold in zip(
        points, optimize_many([point_cfg for _, point_cfg in points], settings)
    ):
        try:
            if isinstance(cold, Exception):
                raise cold
            best = cold
            if prev_schedule is not None and prev_schedule.shape == (
                point_cfg.num_classes,
                point_cfg.num_vms,
            ):
                warm = optimize_pps(point_cfg, settings, initial=prev_schedule)
                if warm.objective < best.objective:
                    best = warm
            prev_schedule = best.schedule
        except (InfeasibleError, StabilityError) as exc:
            rows.append((value, "all", "infeasible", 1.0))
            print(f"sweep point {value}: infeasible ({exc})", file=sys.stderr)
            continue
        starts = {rec.label: rec.initial for rec in cold.starts}
        baselines = {"rca": starts["uniform"], "pca": starts[PCA_STARTS[args.pca_mode]]}
        for policy, networking in POLICIES.items():
            p = baselines.get(policy, best.schedule)
            try:
                wc, wa = weighted_metrics(p, point_cfg, networking)
            except StabilityError:
                rows.append((value, policy, "infeasible", 1.0))
                continue
            obj = point_cfg.theta * wc + (1.0 - point_cfg.theta) * wa
            metrics = {"objective": obj, "weighted_completion": wc, "weighted_aoi": wa}
            if sim is not None:
                res = run_simulation(
                    point_cfg, p, dataclasses.replace(sim, networking=networking)
                )
                metrics["sim_weighted_objective"] = res.weighted_objective
                metrics["sim_weighted_completion"] = res.weighted_completion
                metrics["sim_weighted_aoi"] = res.weighted_aoi
            rows.extend((value, policy, *item) for item in metrics.items())

    out = _out_dir(args)
    write_table(
        out / "sweep.csv",
        ["axis", "point", "policy", "metric", "value"],
        ([args.axis, *row] for row in rows),
    )
    man = _manifest(
        args,
        "sweep",
        config,
        settings,
        axis=args.axis,
        values=values,
        simulate=bool(args.simulate),
    )
    write_json(out / "sweep_manifest.json", man)
    print(f"sweep[{args.axis}]: {len(values)} points, {len(rows)} rows -> {out}")
    return 0


def cmd_online(args: argparse.Namespace) -> int:
    config, settings = _setup(args)
    seed = settings.seed
    window = default_window(config) if args.window is None else args.window
    # Checked before the synthetic horizon (windows + 1) * window is built,
    # so a bad flag is reported as itself rather than as a bad horizon.
    positive(window, "--window: window_length")
    if not args.trace and args.windows < 2:
        raise ConfigError(f"--windows must be at least 2, got {args.windows}")
    if args.trace:
        trace = ingest_trace(args.trace)
        if args.class_map:
            raw = read_json_object(args.class_map, "--class-map file")
            class_map = {str(k): v for k, v in raw.items()}
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
        config,
        settings,
        trace_source=source,
        window_length=window,
        class_mapping=mapping_mode,
    )
    write_json(
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
    print(dumps_json(payload))
    write_json(_out_dir(args) / "example_fig3.json", payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    out_flag = argparse.ArgumentParser(add_help=False)
    out_flag.add_argument("--out-dir", default=".", help="directory for output files")
    common = argparse.ArgumentParser(add_help=False, parents=[out_flag])
    common.add_argument("--seed", type=int, default=None, help="master seed (default: config's)")
    common.add_argument(
        "--moment-mode",
        choices=("exact", "paper_literal"),
        default=None,
        help="override the config's second-moment computation",
    )
    common.add_argument(
        "--margin",
        type=float,
        default=STABILITY_MARGIN,
        help="stability margin for feasibility",
    )

    defaults = OptimizerSettings()
    opt_flags = argparse.ArgumentParser(add_help=False)
    opt_flags.add_argument("--max-iters", type=int, default=defaults.max_iters)
    opt_flags.add_argument("--rel-tol", type=float, default=defaults.rel_tol)
    opt_flags.add_argument(
        "--step", type=float, default=defaults.initial_step, help="initial step size"
    )
    # Only the commands that run a proportional baseline take --pca-mode.
    pca_flag = argparse.ArgumentParser(add_help=False)
    pca_flag.add_argument(
        "--pca-mode",
        choices=tuple(PCA_STARTS),
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
        parents=[common, opt_flags, pca_flag],
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
        parents=[common, opt_flags, pca_flag],
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
        parents=[out_flag],
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
