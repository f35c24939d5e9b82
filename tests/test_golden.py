"""Golden CLI outputs: every file a fixed set of commands writes, by digest.

The commands run in-process on `default_config(6)` inside a scratch
directory, with relative paths, and each output file's sha256 is compared
with `tests/golden_outputs.json`. CSVs are hashed as bytes; JSON is hashed
after the `created` timestamp and the config path are dropped, as canonical
JSON with sorted keys.

A change that moves an output on purpose regenerates the digests with

    PYTHONPATH=src python tests/test_golden.py --write

and lists each changed file, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from aoisched import cli
from aoisched.model import default_config, save_config, write_table

GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"
DROPPED = ("created", "config_path")

_SIM = ["--horizon", "2e4", "--replications", "3"]
# (name, argv): each command writes into out/<name>.
COMMANDS = [
    ("optimize", ["optimize", "config.json"]),
    *(
        (f"simulate-{policy}", ["simulate", "config.json", "--policy", policy,
                                "--event-log", *_SIM])
        for policy in cli.POLICIES
    ),
    *(
        (f"sweep-{axis}", ["sweep", "config.json", "--axis", axis])
        for axis in cli.SWEEP_AXES
    ),
    ("sweep-weights-simulate", ["sweep", "config.json", "--axis", "weights",
                                "--simulate", *_SIM]),
    ("online-synthetic", ["online", "config.json", "--windows", "4"]),
    ("example-fig3", ["example-fig3"]),
    ("simulate-updates", ["simulate", "updates.json", "--policy", "rca",
                          "--simulate-updates", *_SIM]),
    ("simulate-schedule", ["simulate", "config.json", "--schedule",
                           "out/optimize/schedule.csv", *_SIM]),
    ("online-trace", ["online", "config.json", "--trace", "trace.csv",
                      "--class-map", "class_map.json", "--window", "2e4"]),
]


def _write_inputs() -> None:
    """The config files, trace and class map the commands read, in the
    current directory."""
    config = default_config(num_classes=6)
    save_config(config, "config.json")
    # Every class updates; class 2 reads its own source and class 1's.
    classes = [dataclasses.replace(c, update_rate=0.05) for c in config.classes]
    classes[1] = dataclasses.replace(classes[1], info_set=(1, 2))
    save_config(dataclasses.replace(config, classes=tuple(classes)), "updates.json")
    rng = np.random.default_rng(14)
    times = np.cumsum(rng.exponential(30.0, 4000))
    keys = rng.choice(["a", "b", "c", "d", "e", "f", "g"], size=len(times))
    write_table("trace.csv", ["timestamp_ms", "key"], zip(times, keys.tolist()))
    class_map = {"a": 1, "b": 2, "c": 3, "d": 4, "e": 5, "f": 6, "g": 6}
    Path("class_map.json").write_text(json.dumps(class_map))


def _without(value):
    if isinstance(value, dict):
        return {k: _without(v) for k, v in value.items() if k not in DROPPED}
    if isinstance(value, list):
        return [_without(v) for v in value]
    return value


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".json":
        canon = json.dumps(_without(json.loads(data)), sort_keys=True)
        data = canon.encode()
    return hashlib.sha256(data).hexdigest()


def run_commands(workdir: Path) -> dict[str, dict[str, str]]:
    """Run every command in `workdir`; per command, each file's digest."""
    digests = {}
    cwd = os.getcwd()
    os.chdir(workdir)  # relative paths keep the manifests' paths fixed
    try:
        _write_inputs()
        for name, argv in COMMANDS:
            out = Path("out") / name
            with contextlib.redirect_stdout(None):
                rc = cli.main([*argv, "--out-dir", str(out)])
            assert rc == 0, f"{name}: exit {rc}"
            digests[name] = {p.name: _digest(p) for p in sorted(out.iterdir())}
    finally:
        os.chdir(cwd)
    return digests


def test_cli_outputs_match_goldens(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = run_commands(tmp_path)
    assert sorted(got) == sorted(golden), "the command set differs from the goldens"
    changed = [
        f"{name}: {file}"
        for name, files in golden.items()
        for file in sorted(set(files) | set(got[name]))
        if files.get(file) != got[name].get(file)
    ]
    assert not changed, (
        f"outputs differ from {GOLDEN.name} (left in {tmp_path / 'out'}): "
        + ", ".join(changed)
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        result = run_commands(Path(scratch))
    GOLDEN.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, result.values()))} digests to {GOLDEN}")
