"""Corrupted config files: each one loads, is refused by validate_config, or
raises a ConfigError that names the corrupted key; nothing else escapes.

The base is default_config(4) with three optional shapes switched on: class 0
omits compute_size (drawn from the pareto section), class 1 carries an
info_set and class 2 an update_rate. Each of 20 JSON paths is set to each of
11 values, or deleted.
"""

import copy
import json
import warnings

import pytest

from aoisched.cli import main
from aoisched.model import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    default_config,
    validate_config,
)

DELETE = object()
# 10**400 is a JSON integer too large for a float.
VALUES = [float("nan"), float("inf"), -1, 0, 1e308, 10**400, "x", None, True, [], {}]
VALUES.append(DELETE)
PATHS = [
    ("theta",),
    ("seed",),
    ("moment_mode",),
    ("aoi_network_weighting",),
    ("network",),
    ("network", "rate"),
    ("network", "shift"),
    ("vms",),
    ("vms", 0),
    ("vms", 0, "rate"),
    ("vms", 0, "shift"),
    ("classes",),
    ("classes", 0),
    ("classes", 1, "arrival_rate"),
    ("classes", 1, "compute_size"),
    ("classes", 1, "output_size"),
    ("classes", 1, "info_set"),
    ("classes", 2, "update_rate"),
    ("pareto",),
    ("pareto", "scale"),
]


def _base() -> dict:
    data = config_to_dict(default_config(4))
    del data["classes"][0]["compute_size"]
    data["classes"][1]["info_set"] = [1, 2]
    data["classes"][2]["update_rate"] = 0.05
    return data


def _corrupt(path: tuple, value) -> dict:
    data = copy.deepcopy(_base())
    *parents, last = path
    node = data
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return data


def _parts(path: tuple) -> list[str]:
    """The JSON path's dotted parts, e.g. ["classes[1]", "info_set"]."""
    parts: list[str] = []
    for key in path:
        if isinstance(key, int):
            parts[-1] += f"[{key}]"
        else:
            parts.append(key)
    return parts


def _outcome(data: dict) -> str:
    """"loads", "problems" or the ConfigError's message; anything else,
    warnings included, propagates."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "problems" if validate_config(config_from_dict(data)) else "loads"
        except ConfigError as exc:
            return str(exc)


def test_base_config_loads():
    assert _outcome(_base()) == "loads"


@pytest.mark.parametrize("path", PATHS, ids=lambda p: ".".join(map(str, p)))
def test_corrupted_key_is_refused_by_name_or_loads(path):
    unnamed = []
    for value in VALUES:
        outcome = _outcome(_corrupt(path, value))
        if outcome not in ("loads", "problems") and not all(
            part in outcome for part in _parts(path)
        ):
            unnamed.append((value, outcome))
    assert unnamed == []


def test_wrong_container_types_and_overflow_name_their_path():
    cases = [
        ("vms", 3, "vms must be a list, got 3"),
        ("network", "x", "network must be an object, got 'x'"),
        ("classes", None, "classes must be a list, got None"),
        ("pareto", [], "pareto must be an object, got []"),
        ("vms", [1], "vms[0] must be an object, got 1"),
        ("moment_mode", None, "moment_mode must be a string, got None"),
        (
            "theta",
            -(10**400),
            "theta must be a finite number, got an integer past 1e308",
        ),
    ]
    for key, value, message in cases:
        assert _outcome({**_base(), key: value}) == message
    data = _corrupt(("vms", 0, "shift"), DELETE)
    assert _outcome(data) == "config missing required key: vms[0].shift"
    # A rate near 1e308 overflows the class's offered load, not a warning.
    config = config_from_dict(_corrupt(("classes", 1, "arrival_rate"), 1e308))
    problems = validate_config(config)
    assert problems and all(p.startswith("class 2: ") for p in problems)


@pytest.mark.parametrize(
    "path, value, named",
    [
        (("vms",), 3, "vms must be a list"),
        (("network",), "x", "network must be an object"),
        (("classes",), None, "classes must be a list"),
        (("pareto",), [], "pareto must be an object"),
        (("vms", 0, "shift"), DELETE, "vms[0].shift"),
        pytest.param(
            ("classes", 1, "arrival_rate"),
            10**400,
            "classes[1].arrival_rate must be a finite number",
            id="huge-integer-rate",
        ),
        (("classes", 1, "arrival_rate"), 1e308, "class 2: "),
    ],
)
def test_cli_exits_2_on_corrupted_configs(tmp_path, capsys, path, value, named):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_corrupt(path, value)))
    for argv in (
        ["optimize", str(config), "--max-iters", "20"],
        ["simulate", str(config), "--policy", "rca", "--horizon", "2000"],
    ):
        assert main([*argv, "--out-dir", str(tmp_path)]) == 2
        assert named in capsys.readouterr().err
