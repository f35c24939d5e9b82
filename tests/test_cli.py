import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from aoisched.cli import _sweep_point_config, main, read_schedule
from aoisched.model import (
    JobClass,
    NetworkProfile,
    SystemConfig,
    VmProfile,
    load_config,
    reference_vms,
    save_config,
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    cfg = SystemConfig(
        classes=(
            JobClass(
                id=1, arrival_rate=0.012, compute_size=1.0, output_size=1.0,
                update_rate=0.05,
            ),
            JobClass(
                id=2, arrival_rate=0.010, compute_size=1.0, output_size=0.7,
                update_rate=0.05,
            ),
            JobClass(
                id=3, arrival_rate=0.008, compute_size=1.0, output_size=1.3,
                update_rate=0.05,
            ),
        ),
        vms=(
            VmProfile(id=1, rate=0.05, shift=0.0),
            VmProfile(id=2, rate=0.04, shift=0.0),
        ),
        network=NetworkProfile(rate=112.0, shift=18.0),
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
    cmap.write_text(json.dumps({"k0": 1, "k1": 1.5}))
    rc = main(
        ["online", config_path, "--trace", str(trace), "--class-map", str(cmap),
         "--window", "10000", "--out-dir", str(tmp_path)]
    )
    assert rc == 2
    assert "not an integer" in capsys.readouterr().err


def test_example_fig3_prints_and_writes(tmp_path, config_path, capsys):
    out = tmp_path / "fig"
    assert main(["example-fig3", "--out-dir", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads((out / "example_fig3.json").read_text())
    assert printed == on_disk
    assert printed["policy1"]["weighted_age"] == pytest.approx(27.55)
    assert printed["policy2"]["weighted_completion"] == pytest.approx(57.05)
    assert printed["manifest"]["command"] == "example-fig3"


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

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("aoisched ")
