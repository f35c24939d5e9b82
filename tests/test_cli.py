import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from aoisched.analytics import (
    Evaluator,
    InfeasibleError,
    StabilityError,
    weighted_metrics,
)
from aoisched.cli import _sweep_point_config, build_parser, main, read_schedule
from aoisched.model import (
    ConfigError,
    ConfigNumbers,
    JobClass,
    ServiceProfile,
    SystemConfig,
    config_to_dict,
    default_config,
    load_config,
    reference_vms,
    save_config,
)
from aoisched.optimizer import (
    OptimizerSettings,
    baseline_pca,
    baseline_rca,
    optimize_pps,
)
from aoisched.simulator import SimConfig


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    cfg = SystemConfig(
        classes=(
            JobClass(
                arrival_rate=0.012, compute_size=1.0, output_size=1.0,
                update_rate=0.05,
            ),
            JobClass(
                arrival_rate=0.010, compute_size=1.0, output_size=0.7,
                update_rate=0.05,
            ),
            JobClass(
                arrival_rate=0.008, compute_size=1.0, output_size=1.3,
                update_rate=0.05,
            ),
        ),
        vms=(
            ServiceProfile(rate=0.05, shift=0.0),
            ServiceProfile(rate=0.04, shift=0.0),
        ),
        network=ServiceProfile(rate=112.0, shift=18.0),
        theta=0.3,
        seed=7,
    )
    path = tmp_path_factory.mktemp("cfg") / "system.json"
    save_config(cfg, path)
    return str(path)


def _read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_optimize_writes_all_outputs(tmp_path, config_path):
    out = tmp_path / "opt"
    assert main(["optimize", config_path, "--out-dir", str(out)]) == 0
    for name in ("convergence.csv", "schedule.csv", "report.csv", "report.json"):
        assert (out / name).exists()
    payload = json.loads((out / "report.json").read_text())
    assert payload["optimize"]["converged"] is True
    assert payload["optimize"]["iterations"] >= 1
    p = read_schedule(out / "schedule.csv")
    assert p.shape == (3, 2)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
    conv = _read_rows(out / "convergence.csv")
    objs = [float(r["objective"]) for r in conv]
    assert objs == sorted(objs, reverse=True)
    assert payload["optimize"]["objective"] == objs[-1]
    man = payload["manifest"]
    assert man["command"] == "optimize"
    assert man["config_sha256"] == hashlib.sha256(
        Path(config_path).read_bytes()
    ).hexdigest()


def test_optimize_reruns_identically(tmp_path, config_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["optimize", config_path, "--out-dir", str(a)]) == 0
    assert main(["optimize", config_path, "--out-dir", str(b)]) == 0
    for name in ("schedule.csv", "convergence.csv", "report.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_moment_mode_changes_the_answer(tmp_path, config_path):
    a, b = tmp_path / "exact", tmp_path / "lit"
    assert main(["optimize", config_path, "--out-dir", str(a)]) == 0
    assert (
        main(
            [
                "optimize", config_path, "--out-dir", str(b),
                "--moment-mode", "paper_literal",
            ]
        )
        == 0
    )
    oa = json.loads((a / "report.json").read_text())["optimize"]["objective"]
    ob = json.loads((b / "report.json").read_text())["optimize"]["objective"]
    assert oa != ob
    assert json.loads((b / "report.json").read_text())["manifest"][
        "moment_mode"
    ] == "paper_literal"


def test_simulate_roundtrips_schedule(tmp_path, config_path):
    out = tmp_path / "opt"
    assert main(["optimize", config_path, "--out-dir", str(out)]) == 0
    sim_out = tmp_path / "sim"
    rc = main(
        [
            "simulate", config_path,
            "--schedule", str(out / "schedule.csv"),
            "--horizon", "20000", "--replications", "2",
            "--out-dir", str(sim_out),
        ]
    )
    assert rc == 0
    np.testing.assert_array_equal(
        read_schedule(sim_out / "schedule.csv"), read_schedule(out / "schedule.csv")
    )
    payload = json.loads((sim_out / "simulation.json").read_text())
    assert np.isfinite(payload["weighted_objective"])
    assert payload["manifest"]["policy"].startswith("schedule:")
    assert payload["replications"] == 2
    rows = _read_rows(sim_out / "simulation.csv")
    assert [r["class_id"] for r in rows] == ["1", "2", "3"]
    for row, cls in zip(rows, payload["classes"]):
        assert float(row["mean_aoi"]) == cls["mean_aoi"]


@pytest.mark.parametrize("policy", ["pps", "rca", "pca", "ocafcfs"])
def test_simulate_policies(tmp_path, config_path, policy):
    out = tmp_path / policy
    rc = main(
        [
            "simulate", config_path, "--policy", policy,
            "--horizon", "10000", "--replications", "2",
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    payload = json.loads((out / "simulation.json").read_text())
    assert payload["manifest"]["policy"] == policy
    expected_net = "fcfs" if policy == "ocafcfs" else "priority"
    assert payload["manifest"]["sim"]["networking"] == expected_net


def test_simulate_event_log_and_updates(tmp_path, config_path):
    out = tmp_path / "ev"
    rc = main(
        [
            "simulate", config_path, "--policy", "rca",
            "--horizon", "10000", "--replications", "2",
            "--event-log", "--simulate-updates",
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    rows = _read_rows(out / "event_log.csv")
    assert len(rows) > 50
    first = rows[0]
    assert set(first) == {
        "serial", "class_id", "release", "compute_start", "compute_end",
        "net_start", "net_end",
    }
    assert float(first["compute_end"]) >= float(first["compute_start"])


def test_sweep_theta_long_format(tmp_path, config_path):
    out = tmp_path / "sweep"
    rc = main(
        [
            "sweep", config_path, "--axis", "theta",
            "--values", "0,0.5,1", "--out-dir", str(out),
        ]
    )
    assert rc == 0
    rows = _read_rows(out / "sweep.csv")
    assert len(rows) == 3 * 4 * 3  # points x policies x metrics
    assert {r["axis"] for r in rows} == {"theta"}

    def metric(point, policy, name):
        for r in rows:
            if (
                float(r["point"]) == point
                and r["policy"] == policy
                and r["metric"] == name
            ):
                return float(r["value"])
        raise AssertionError(f"missing {point}/{policy}/{name}")

    for point in (0.0, 0.5, 1.0):
        for rival in ("rca", "pca"):
            assert metric(point, "pps", "objective") <= metric(
                point, rival, "objective"
            ) * (1 + 1e-9)
    # Endpoint frontier direction: the completion-only solve has the lowest
    # completion, the AoI-only solve the lowest AoI.
    assert metric(1.0, "pps", "weighted_completion") <= metric(
        0.0, "pps", "weighted_completion"
    ) * (1 + 1e-6)
    assert metric(0.0, "pps", "weighted_aoi") <= metric(
        1.0, "pps", "weighted_aoi"
    ) * (1 + 1e-6)
    man = json.loads((out / "sweep_manifest.json").read_text())
    assert man["axis"] == "theta"
    assert man["values"] == [0.0, 0.5, 1.0]


def test_sweep_marks_infeasible_points(tmp_path, config_path):
    out = tmp_path / "sweep-inf"
    rc = main(
        [
            "sweep", config_path, "--axis", "lambda-scale",
            "--values", "1.0,50", "--out-dir", str(out),
        ]
    )
    assert rc == 0
    rows = _read_rows(out / "sweep.csv")
    marked = [r for r in rows if r["metric"] == "infeasible"]
    assert len(marked) == 1
    assert float(marked[0]["point"]) == 50.0
    assert marked[0]["policy"] == "all"
    # The feasible point still reports the usual 12 rows.
    assert sum(float(r["point"]) == 1.0 for r in rows) == 12


def _sweep_point_by_point(config, axis, values, pca_mode):
    """sweep.csv rows and stderr lines of a loop that solves each point with
    optimize_pps and rebuilds its baselines, in point order."""
    settings = OptimizerSettings()
    margin = settings.stability_margin
    rows, errors, prev = [], [], None
    for value in values:
        point = _sweep_point_config(config, axis, value)
        try:
            best = optimize_pps(point, settings)
            if prev is not None and prev.shape == best.schedule.shape:
                warm = optimize_pps(point, settings, initial=prev)
                if warm.objective < best.objective:
                    best = warm
            prev = best.schedule
            policies = [
                ("pps", best.schedule, "priority"),
                ("rca", baseline_rca(point, margin), "priority"),
                ("pca", baseline_pca(point, pca_mode, margin), "priority"),
                ("ocafcfs", best.schedule, "fcfs"),
            ]
        except (InfeasibleError, StabilityError) as exc:
            rows.append([axis, repr(value), "all", "infeasible", repr(1.0)])
            errors.append(f"sweep point {value}: infeasible ({exc})")
            continue
        for policy, p, networking in policies:
            wc, wa = weighted_metrics(p, point, networking)
            obj = point.theta * wc + (1.0 - point.theta) * wa
            for metric, x in (
                ("objective", obj),
                ("weighted_completion", wc),
                ("weighted_aoi", wa),
            ):
                rows.append([axis, repr(value), policy, metric, repr(x)])
    return rows, errors


def _fast_link_config():
    # A fast link leaves the VMs as the bottleneck: at rates x4 no schedule
    # meets the margin, at x40 the link is overloaded too.
    return SystemConfig(
        classes=(
            JobClass(arrival_rate=0.012, compute_size=1.0, output_size=1.0),
            JobClass(arrival_rate=0.010, compute_size=1.6, output_size=0.7),
            JobClass(arrival_rate=0.008, compute_size=0.7, output_size=1.3),
        ),
        vms=(
            ServiceProfile(rate=0.05, shift=0.0),
            ServiceProfile(rate=0.04, shift=1.0),
        ),
        network=ServiceProfile(rate=112.0, shift=1.0),
        theta=0.3,
    )


@pytest.mark.parametrize("pca_mode", ["paper_literal", "inverse_time"])
def test_sweep_matches_point_by_point_solves(tmp_path, capsys, pca_mode):
    # The warm chain runs across the infeasible points x4 and x40.
    cfg = _fast_link_config()
    path = tmp_path / "fast_link.json"
    save_config(cfg, path)
    values = [1.0, 4.0, 1.5, 40.0, 0.8]
    out = tmp_path / "sweep"
    argv = [
        "sweep", str(path), "--axis", "lambda-scale",
        "--values", ",".join(map(str, values)), "--pca-mode", pca_mode,
        "--out-dir", str(out),
    ]
    capsys.readouterr()
    assert main(argv) == 0
    err = capsys.readouterr().err.splitlines()
    with open(out / "sweep.csv", newline="") as fh:
        got = list(csv.reader(fh))[1:]
    want, want_err = _sweep_point_by_point(cfg, "lambda-scale", values, pca_mode)
    assert got == want
    assert err == want_err
    assert [line.split(":")[0] for line in err] == ["sweep point 4.0", "sweep point 40.0"]


def test_sweep_checks_every_value_before_solving(tmp_path, capsys):
    # The infeasible point x4 comes before the bad value, but nothing is
    # solved until every value has passed.
    path = tmp_path / "fast_link.json"
    save_config(_fast_link_config(), path)
    out = tmp_path / "sweep"
    argv = [
        "sweep", str(path), "--axis", "lambda-scale", "--values", "1.0,4.0,-1",
        "--out-dir", str(out),
    ]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "lambda-scale must be positive" in err
    assert "sweep point" not in err
    assert not (out / "sweep.csv").exists()


def test_vms_sweep_values_follow_the_integer_rule(config_path):
    # 1e308 is integral; without the cap it would ask for that many VMs.
    config = load_config(config_path)
    assert _sweep_point_config(config, "vms", 3.0).num_vms == 3
    for bad in (2.5, 0.0, 1e308):
        with pytest.raises(ConfigError, match=r"must be an integer in \[1, 100000\]"):
            _sweep_point_config(config, "vms", bad)


def test_sweep_checks_simulation_settings_before_solving(
    tmp_path, config_path, capsys, monkeypatch
):
    def solve(*args, **kwargs):
        raise AssertionError("a point was solved before --horizon was checked")

    monkeypatch.setattr("aoisched.cli.optimize_many", solve)
    out = tmp_path / "sweep"
    argv = [
        "sweep", config_path, "--axis", "theta", "--simulate", "--horizon", "-1",
        "--out-dir", str(out),
    ]
    capsys.readouterr()
    assert main(argv) == 2
    assert "horizon must be positive" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_sweep_with_simulation_rows(tmp_path, config_path):
    out = tmp_path / "sweep-sim"
    rc = main(
        [
            "sweep", config_path, "--axis", "weights", "--values", "0.5",
            "--simulate", "--horizon", "5000", "--replications", "2",
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    rows = _read_rows(out / "sweep.csv")
    sim_rows = [r for r in rows if r["metric"].startswith("sim_")]
    assert len(sim_rows) == 4 * 3
    assert all(np.isfinite(float(r["value"])) for r in sim_rows)


def test_sweep_vms_point_uses_reference_vms(config_path):
    point = _sweep_point_config(load_config(config_path), "vms", 12.0)
    assert point.vms == reference_vms(12)


@pytest.mark.parametrize(
    "axis, values",
    [
        ("vms", "nan"),
        ("vms", "2.5"),
        ("vms", "inf"),
        ("lambda-scale", "nan"),
        ("theta", "0.5,nan"),
    ],
)
def test_sweep_rejects_bad_values(tmp_path, config_path, capsys, axis, values):
    rc = main(
        ["sweep", config_path, "--axis", axis, "--values", values,
         "--out-dir", str(tmp_path)]
    )
    assert rc == 2
    assert "sweep value" in capsys.readouterr().err


def test_online_synthetic(tmp_path, config_path):
    out = tmp_path / "online"
    rc = main(
        [
            "online", config_path, "--windows", "3",
            "--window", "50000", "--out-dir", str(out),
        ]
    )
    assert rc == 0
    report = json.loads((out / "online_report.json").read_text())
    assert report["manifest"]["class_mapping"] == "identity-synthetic"
    assert report["online"]["num_windows"] == 3
    assert report["offline"]["num_windows"] == 3
    assert np.isfinite(report["objective_gap_percent"])
    on_rows = _read_rows(out / "online_windows.csv")
    off_rows = _read_rows(out / "offline_windows.csv")
    assert [r["source"] for r in on_rows] == ["uniform", "optimized", "optimized"]
    assert [r["source"] for r in off_rows] == ["offline"] * 3


def test_online_trace_file_with_class_map(tmp_path, config_path):
    trace = tmp_path / "trace.csv"
    with open(trace, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp_ms", "key", "note"])
        keys = ["svc-a", "svc-b", "svc-c"]
        for i in range(660):
            writer.writerow([repr(25.0 + 50.0 * i), keys[i % 3], "x"])
    cmap = tmp_path / "map.json"
    cmap.write_text(json.dumps({"svc-a": 1, "svc-b": 2, "svc-c": 3}))

    out = tmp_path / "online-map"
    rc = main(
        [
            "online", config_path, "--trace", str(trace),
            "--class-map", str(cmap), "--window", "10000",
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    report = json.loads((out / "online_report.json").read_text())
    assert report["manifest"]["class_mapping"] == "explicit"
    assert report["online"]["class_map"] == {"svc-a": 1, "svc-b": 2, "svc-c": 3}

    out2 = tmp_path / "online-rank"
    rc = main(
        [
            "online", config_path, "--trace", str(trace),
            "--window", "10000", "--out-dir", str(out2),
        ]
    )
    assert rc == 0
    report2 = json.loads((out2 / "online_report.json").read_text())
    assert report2["manifest"]["class_mapping"] == "frequency-rank"


def test_online_rejects_bad_window_and_class_map(tmp_path, config_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text(
        "timestamp_ms,key\n"
        + "".join(f"{25.0 + 50.0 * i!r},k{i % 2}\n" for i in range(660))
    )
    for window in ("0", "-5", "nan"):
        rc = main(
            ["online", config_path, "--trace", str(trace), "--window", window,
             "--out-dir", str(tmp_path)]
        )
        assert rc == 2
        assert "window_length must be positive" in capsys.readouterr().err
    cmap = tmp_path / "map.json"
    for bad in (1.5, float("nan"), "one", 4, True, "2"):
        cmap.write_text(json.dumps({"k0": 1, "k1": bad}))
        rc = main(
            ["online", config_path, "--trace", str(trace), "--class-map", str(cmap),
             "--window", "10000", "--out-dir", str(tmp_path)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "class_map['k1'] must be an integer in [1, 3]" in err, bad
    for content in ("[1, 2]", "null", '"k0"'):
        cmap.write_text(content)
        rc = main(
            ["online", config_path, "--trace", str(trace), "--class-map", str(cmap),
             "--window", "10000", "--out-dir", str(tmp_path)]
        )
        assert rc == 2
        assert "is not a JSON object" in capsys.readouterr().err
    cmap.write_text("{bad")
    rc = main(
        ["online", config_path, "--trace", str(trace), "--class-map", str(cmap),
         "--window", "10000", "--out-dir", str(tmp_path)]
    )
    assert rc == 2
    assert f"--class-map file {cmap} is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("window", ["0", "-5", "nan", "inf"])
def test_online_synthetic_rejects_bad_window_flag(tmp_path, config_path, capsys, window):
    # Without --trace the synthetic horizon is built from --window; the error
    # must name the flag, not a horizon the user never set.
    rc = main(
        ["online", config_path, "--windows", "3", "--window", window,
         "--out-dir", str(tmp_path)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --window: window_length must be positive")
    assert "horizon" not in err


@pytest.mark.parametrize("windows", ["1", "0", "-3"])
def test_online_synthetic_rejects_too_few_windows(tmp_path, config_path, capsys, windows):
    rc = main(
        ["online", config_path, "--windows", windows, "--out-dir", str(tmp_path)]
    )
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: --windows must be at least 2, got {windows}\n"
    )


@pytest.mark.parametrize("command", ["optimize", "simulate", "online"])
def test_negative_seed_flag_exits_2(tmp_path, config_path, capsys, command):
    # --seed follows the config's seed rule; numpy's seeding would refuse it
    # later with a ValueError.
    rc = main([command, config_path, "--seed", "-1", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: --seed must be an integer >= 0, got -1\n"


def test_online_trace_with_empty_full_windows_exits_2(tmp_path, config_path, capsys):
    # The only record, at 4 ms, falls in the partial third window that the
    # driver drops, so the two full windows hold no job.
    trace = tmp_path / "one.csv"
    trace.write_text("timestamp_ms,key\n4,a\n")
    out = tmp_path / "one"
    rc = main(
        ["online", config_path, "--trace", str(trace), "--window", "2",
         "--out-dir", str(out)]
    )
    assert rc == 2
    assert "hold no job" in capsys.readouterr().err
    assert not out.exists()
    # A record in warmup window 0 keeps the run going; with no scored job its
    # objective is nan, which the report writes as null.
    trace.write_text("timestamp_ms,key\n1,a\n4,a\n")
    rc = main(
        ["online", config_path, "--trace", str(trace), "--window", "2",
         "--out-dir", str(out)]
    )
    assert rc == 0
    report = json.loads((out / "online_report.json").read_text())
    assert report["online"]["overall"]["weighted_objective"] is None


def test_example_fig3_prints_and_writes(tmp_path, config_path, capsys):
    out = tmp_path / "fig"
    assert main(["example-fig3", "--out-dir", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads((out / "example_fig3.json").read_text())
    assert printed == on_disk
    assert printed["policy1"]["weighted_age"] == pytest.approx(27.55)
    assert printed["policy2"]["weighted_completion"] == pytest.approx(57.05)
    assert printed["manifest"]["command"] == "example-fig3"


@pytest.mark.parametrize(
    "flag", [["--seed", "3"], ["--moment-mode", "exact"], ["--margin", "0.1"]]
)
def test_example_fig3_takes_only_out_dir(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["example-fig3", *flag, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


_MANIFEST = {"command", "version", "created", "seed", "moment_mode", "margin"}
_CONFIG_KEYS = {"config_path", "config_sha256", "config_hash"}


def test_manifest_keys_per_command(tmp_path, config_path):
    sched = tmp_path / "opt" / "schedule.csv"
    short_sim = ["--horizon", "2e4", "--replications", "1"]
    runs = [
        (["optimize", config_path], "opt/report.json", {"settings"}),
        (["simulate", config_path, "--policy", "rca", *short_sim],
         "sim/simulation.json", {"policy", "sim"}),
        (["simulate", config_path, "--policy", "pps", *short_sim],
         "pps/simulation.json", {"policy", "sim", "settings"}),
        (["simulate", config_path, "--schedule", str(sched), *short_sim],
         "sched/simulation.json", {"policy", "sim"}),
        (["sweep", config_path, "--axis", "theta", "--values", "0.5"],
         "sweep/sweep_manifest.json", {"settings", "axis", "values", "simulate"}),
        (["online", config_path, "--windows", "2", "--window", "20000"],
         "online/online_report.json",
         {"settings", "trace_source", "window_length", "class_mapping"}),
    ]
    for argv, report, extra in runs:
        assert main([*argv, "--out-dir", str(tmp_path / Path(report).parent)]) == 0
        payload = json.loads((tmp_path / report).read_text())
        man = payload if report.endswith("sweep_manifest.json") else payload["manifest"]
        assert set(man) == _MANIFEST | _CONFIG_KEYS | extra, argv
    assert main(["example-fig3", "--out-dir", str(tmp_path / "fig")]) == 0
    fig = json.loads((tmp_path / "fig" / "example_fig3.json").read_text())
    assert set(fig["manifest"]) == _MANIFEST


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_every_report_is_strict_json(tmp_path, config_path, capsys):
    # The sparse trace leaves the online run with no scored job, so its
    # objectives and gap are nan; they must reach the report as null.
    cfg4 = tmp_path / "cfg4.json"
    save_config(default_config(4), cfg4)
    trace = tmp_path / "sparse.csv"
    trace.write_text("timestamp_ms,key\n1,1\n2,2\n3,1\n250,1\n")
    runs = [
        ["optimize", config_path],
        ["simulate", config_path, "--horizon", "2e4", "--replications", "1"],
        ["sweep", config_path, "--axis", "theta", "--values", "0.2,0.8"],
        ["online", config_path, "--windows", "2", "--window", "20000"],
        ["online", str(cfg4), "--trace", str(trace), "--window", "100"],
        ["example-fig3"],
    ]
    for k, argv in enumerate(runs):
        out = tmp_path / f"run{k}"
        assert main(argv + ["--out-dir", str(out)]) == 0
        reports = [path.read_text() for path in sorted(out.glob("*.json"))]
        assert reports
        printed = capsys.readouterr().out
        if argv[0] == "example-fig3":
            reports.append(printed)
        for text in reports:
            _strict_json(text)
    report = _strict_json((tmp_path / "run4" / "online_report.json").read_text())
    assert report["objective_gap_percent"] is None


def test_read_schedule_checks_class_ids_and_row_width(tmp_path):
    # Row j is class j's row: ids out of file order would silently swap rows.
    path = tmp_path / "schedule.csv"
    path.write_text("class_id,p_1,p_2\n1,0.5,0.5\n2,1.0,0.0\n")
    assert read_schedule(path).tolist() == [[0.5, 0.5], [1.0, 0.0]]
    header = "class_id,p_1,p_2\n"
    bad = {
        header + "2,1.0,0.0\n1,0.5,0.5\n": "line 2: class_id must be 1",
        header + "1,0.5,0.5\n1,1.0,0.0\n": "line 3: class_id must be 2",
        header + "1,0.5,0.5\n\n3,1.0,0.0\n": "line 4: class_id must be 2",
        # The id's text is compared, as optimize writes it.
        header + "1.0,0.5,0.5\n": "line 2: class_id must be 1",
        "class_id,p_1\n1,0.5,0.5\n2,1.0,0.0\n": "line 2: wrong number of probabilities",
    }
    for text, message in bad.items():
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            read_schedule(path)


def test_schedule_file_breaking_the_rules_is_named_on_stderr(
    tmp_path, config_path, capsys
):
    # Rows 1 and 3 are off the simplex; row numbers print as plain ints.
    path = tmp_path / "rows.csv"
    path.write_text("class_id,p_1,p_2\n1,0.5,0.4\n2,1.0,0.0\n3,0.6,0.6\n")
    argv = ["simulate", config_path, "--schedule", str(path), "--horizon", "2000"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: schedule rows [1, 3] do not sum to 1 within 1e-9\n"
    )


def test_error_exit_codes(tmp_path, config_path, capsys):
    assert main(["optimize", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err

    bad_sched = tmp_path / "bad.csv"
    bad_sched.write_text("not,a,schedule\n0,0,0\n")
    rc = main(
        ["simulate", config_path, "--schedule", str(bad_sched),
         "--out-dir", str(tmp_path)]
    )
    assert rc == 2
    assert "not a schedule file" in capsys.readouterr().err

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("class_id,p_1,p_2\n1,0.5,0.5\n2,1.0\n")
    rc = main(
        ["simulate", config_path, "--schedule", str(ragged),
         "--out-dir", str(tmp_path)]
    )
    assert rc == 2
    assert "line 3: wrong number of probabilities" in capsys.readouterr().err

    rc = main(
        ["sweep", config_path, "--axis", "theta", "--values", "a,b",
         "--out-dir", str(tmp_path)]
    )
    assert rc == 2
    assert "bad sweep values" in capsys.readouterr().err

    rc = main(
        ["online", config_path, "--trace", str(tmp_path / "none.csv"),
         "--out-dir", str(tmp_path)]
    )
    assert rc == 2

    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize(
    "command, field, value, named",
    [
        ("optimize", ("num_classes",), True, "num_classes"),
        ("simulate", ("num_classes",), 1e308, "num_classes"),
        ("optimize", ("classes", 0, "info_set"), "12", "classes[0].info_set"),
        ("simulate", ("classes", 0, "info_set"), [None], "classes[0].info_set"),
        ("optimize", ("classes", 0, "compute_size"), 1e308, "classes[0]: compute"),
        ("simulate", ("vms", 0, "shift"), 1e308, "classes[0]: compute"),
        ("simulate", ("classes", 0, "info_set"), [], "classes[0].info_set must name"),
    ],
)
def test_bad_config_fields_exit_2(tmp_path, capsys, command, field, value, named):
    data = config_to_dict(default_config(4))
    if field == ("num_classes",):
        del data["classes"]
        data["pareto"] = {"shape": 2.0, "scale": 0.5}
    *parents, name = field
    node = data
    for key in parents:
        node = node[key]
    node[name] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc = main([command, str(path), "--max-iters", "5", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("rate, got", [("-0.02", "-0.02"), ("0", "0.0"), ("1e400", "inf")])
def test_num_classes_config_with_a_bad_total_rate_exits_2(tmp_path, capsys, rate, got):
    # 1e400 reads as inf. Each once named classes[0..2].arrival_rate, paths
    # the file does not contain.
    data = config_to_dict(default_config(3))
    del data["classes"]
    data.update(num_classes=3, pareto={"shape": 2.0, "scale": 0.5})
    data["total_arrival_rate"] = "RATE"
    path = tmp_path / "rate.json"
    path.write_text(json.dumps(data).replace('"RATE"', rate))
    assert main(["optimize", str(path), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: total_arrival_rate must be positive and finite, got {got}\n"
    )


def test_simulate_updates_with_an_overflowing_update_rate_exits_2(tmp_path, capsys):
    # update_rate * horizon overflows to inf, which sized no draw.
    data = config_to_dict(default_config(4))
    for c in data["classes"]:
        c["update_rate"] = 0.05
    data["classes"][1]["update_rate"] = 1e308
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(data))
    rc = main(
        [
            "simulate", str(path), "--policy", "rca", "--horizon", "5e4",
            "--simulate-updates", "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 2
    assert "classes[1].update_rate: 1e+308 per ms" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["simulate", "--policy", "rca", "--horizon", "1e300"], "horizon: 1e+300 ms"),
        (["online", "--window", "1e300"], "--window: horizon: 9e+300 ms"),
        (["online", "--window", "1e308"], "--window: horizon must be positive"),
    ],
)
def test_draw_counts_past_any_array_exit_2(tmp_path, capsys, argv, named):
    # Each asked numpy for a negative draw count after an overflowing cast,
    # or named a horizon the user never set.
    path = tmp_path / "c.json"
    save_config(default_config(4), path)
    command, *flags = argv
    assert main([command, str(path), *flags, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {named}" in err and "internal error" not in err


def test_sweep_builds_one_evaluator_per_point_and_discipline(tmp_path, monkeypatch):
    # Each point's cold and warm solves, its policy scores and the ocafcfs
    # score share the point config's two Evaluators, and each config
    # instance (the loaded one and every point's) reads its numbers once.
    path = tmp_path / "c.json"
    save_config(default_config(6), path)
    built, read = [], []
    real_evaluator, real_numbers = Evaluator.__init__, ConfigNumbers.__init__

    def evaluator(self, config, networking="priority"):
        built.append((id(config), networking))
        real_evaluator(self, config, networking)

    def numbers(self, config):
        read.append(id(config))
        real_numbers(self, config)

    monkeypatch.setattr(Evaluator, "__init__", evaluator)
    monkeypatch.setattr(ConfigNumbers, "__init__", numbers)
    values = {"theta": "0.2,0.5,0.8", "vms": "3,4", "lambda-scale": "1,1.3",
              "weights": "0.3,0.6"}
    for axis, points in values.items():
        built.clear()
        read.clear()
        argv = ["sweep", str(path), "--axis", axis, "--values", points, "--seed", "0"]
        assert main([*argv, "--out-dir", str(tmp_path / axis)]) == 0
        n = len(points.split(","))
        assert len(set(built)) == len(built) == 2 * n
        networks = sorted(network for _, network in built)
        assert networks == ["fcfs"] * n + ["priority"] * n
        assert len(set(read)) == len(read) == n + 1


def test_optimize_reports_stop_reason_and_rejects_bad_settings(
    tmp_path, config_path, capsys
):
    out = tmp_path / "opt"
    assert main(["optimize", config_path, "--out-dir", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["optimize"]["stop_reason"] == "rel_tol"
    capsys.readouterr()
    for flag, value in (("--margin", "nan"), ("--step", "-1")):
        rc = main(["optimize", config_path, flag, value, "--out-dir", str(out)])
        assert rc == 2
        assert "OptimizerSettings." in capsys.readouterr().err


@pytest.mark.parametrize("command", ["optimize", "online"])
def test_pca_mode_only_where_a_baseline_runs(config_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, config_path, "--pca-mode", "inverse_time"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --pca-mode" in capsys.readouterr().err


def test_optimize_report_records_every_start(tmp_path, config_path):
    out = tmp_path / "opt"
    assert main(["optimize", config_path, "--out-dir", str(out)]) == 0
    solve = json.loads((out / "report.json").read_text())["optimize"]
    starts = solve["starts"]
    assert [s["label"] for s in starts] == ["uniform", "pca_literal", "pca_inverse"]
    (winner,) = [s for s in starts if s["label"] == solve["start"]]
    assert winner["stop_reason"] == solve["stop_reason"]
    assert winner["iterations"] == solve["iterations"]
    assert winner["objective"] == solve["objective"]
    assert min(s["objective"] for s in starts) == solve["objective"]
    assert all(s["rejected"] >= 0 for s in starts)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("aoisched ")


def test_simulate_flag_defaults_are_sim_configs():
    args = build_parser().parse_args(["simulate", "system.json"])
    sim = SimConfig()
    assert (args.horizon, args.replications, args.warmup) == (
        sim.horizon,
        sim.replications,
        sim.warmup_fraction,
    )
