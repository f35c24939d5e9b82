import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoisched import model
from aoisched.analytics import stability_report
from aoisched.model import (
    REFERENCE_VM_PARAMS,
    ConfigError,
    JobClass,
    ParetoSpec,
    ServiceProfile,
    SystemConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_config,
    generate_classes,
    load_config,
    reference_vms,
    sample_class_sizes,
    save_config,
    validate_config,
)

from conftest import instances, make_system, near_limit_link


def test_validate_accepts_reference_network_load():
    # One class at 0.04/ms on the measured link: rho = 0.04*(18 + 1/112) = 0.7204.
    cfg = make_system([(0.04, 1.0, 1.0)], [(0.05, 0.0)])
    assert validate_config(cfg) == []


def test_validate_rejects_overloaded_network():
    # 0.06/ms pushes the same link to rho = 1.0805.
    cfg = make_system([(0.06, 1.0, 1.0)], [(0.05, 0.0)])
    problems = validate_config(cfg)
    assert len(problems) == 1
    assert "networking queue unstable" in problems[0]
    assert "1.0805" in problems[0]


def test_validate_flags_the_link_exactly_at_utilization_one():
    # Link utilization within 3 ulps of 1: validate_config flags the link
    # exactly when stability_report's link utilization reaches 1.
    rng = np.random.default_rng(29)
    for _ in range(200):
        cfg = near_limit_link(rng, 1.0)
        rho = stability_report(np.ones((cfg.num_classes, 1)), cfg, 0.0)
        flagged = any("networking" in p for p in validate_config(cfg))
        assert flagged == (rho.network_utilization >= 1.0)


def test_validate_theta_out_of_range():
    cfg = make_system([(0.01, 1.0, 1.0)], [(0.05, 0.0)], theta=1.2)
    assert any("theta" in p for p in validate_config(cfg))


def test_validate_collects_field_violations():
    cfg = SystemConfig(
        classes=(
            JobClass(arrival_rate=-1.0, compute_size=0.0, output_size=1.0),
            JobClass(arrival_rate=0.01, compute_size=1.0, output_size=1.0),
        ),
        vms=(ServiceProfile(rate=0.0, shift=-1.0),),
        network=ServiceProfile(rate=112.0, shift=18.0),
        theta=0.5,
    )
    assert validate_config(cfg) == [
        "classes[0].arrival_rate must be positive and finite",
        "classes[0].compute_size must be positive and finite",
        "vms[0].rate must be positive and finite",
        "vms[0].shift must be non-negative and finite",
    ]


def test_validate_rejects_nan_vm_rate():
    cfg = make_system([(0.01, 1.0, 1.0)], [(float("nan"), 0.0), (0.05, 0.0)])
    assert validate_config(cfg) == ["vms[0].rate must be positive and finite"]


def test_validate_info_set_references():
    cfg = SystemConfig(
        classes=(
            JobClass(
                arrival_rate=0.01, compute_size=1.0, output_size=1.0,
                info_set=(1, 9),
            ),
        ),
        vms=(ServiceProfile(rate=0.05, shift=0.0),),
        network=ServiceProfile(rate=112.0, shift=18.0),
        theta=0.5,
    )
    assert validate_config(cfg) == ["classes[0].info_set names classes [9] outside 1..1"]
    # No source at all: the class's staleness would grow with the horizon.
    empty = dataclasses.replace(cfg.classes[0], info_set=())
    assert validate_config(dataclasses.replace(cfg, classes=(empty,))) == [
        "classes[0].info_set must name at least one class"
    ]


def test_validate_holds_info_set_entries_to_the_integer_rule():
    # The JSON reader's rule, for a config built in Python: no fraction, no
    # bool read as class 1, and a string is a problem, not a TypeError.
    cfg = default_config(num_classes=4)
    for bad, got in ((1.5, "1.5"), (True, "True"), ("2", "'2'")):
        classes = list(cfg.classes)
        classes[2] = dataclasses.replace(classes[2], info_set=(1, bad))
        assert validate_config(dataclasses.replace(cfg, classes=tuple(classes))) == [
            f"classes[2].info_set[1] must be an integer >= 1, got {got}"
        ]
    # An integral float or a numpy integer meets the rule, as in the reader.
    classes = list(cfg.classes)
    classes[2] = dataclasses.replace(classes[2], info_set=(2.0, np.int64(3)))
    assert validate_config(dataclasses.replace(cfg, classes=tuple(classes))) == []


def test_validate_holds_numeric_fields_to_the_number_rule(tmp_path):
    # The JSON reader's number rule, for a config built in Python: a numeric
    # string is a problem, the same one load_config reports for the file
    # that save_config writes, and not a number read through float().
    cfg = default_config(num_classes=4)
    classes = list(cfg.classes)
    classes[0] = dataclasses.replace(classes[0], arrival_rate="0.01")
    bad = dataclasses.replace(cfg, classes=tuple(classes))
    message = "classes[0].arrival_rate must be a number, got '0.01'"
    assert validate_config(bad) == [message]
    save_config(bad, tmp_path / "bad.json")
    with pytest.raises(ConfigError) as refused:
        load_config(tmp_path / "bad.json")
    assert message in str(refused.value)
    # A bool, None, an integer past any float, and the other numeric fields.
    classes[0] = dataclasses.replace(classes[0], arrival_rate=True, output_size=None)
    classes[2] = dataclasses.replace(classes[2], update_rate=10**400)
    vms = (dataclasses.replace(cfg.vms[0], shift="0"), *cfg.vms[1:])
    bad = dataclasses.replace(cfg, classes=tuple(classes), vms=vms, theta="0.5")
    assert validate_config(bad) == [
        "theta must be a number, got '0.5'",
        "classes[0].arrival_rate must be a number, got True",
        "classes[0].output_size must be a number, got None",
        "classes[2].update_rate must be a finite number, got an integer past 1e308",
        "vms[0].shift must be a number, got '0'",
    ]
    # Integers and numpy floats are numbers.
    classes = [dataclasses.replace(c, compute_size=2) for c in cfg.classes]
    classes[1] = dataclasses.replace(classes[1], arrival_rate=np.float32(0.01))
    assert validate_config(dataclasses.replace(cfg, classes=tuple(classes))) == []


def test_validate_messages_exact_text_and_order():
    # Several bad fields at once: messages follow class order, then field
    # order within a class, then VMs, with the text written out in full.
    cfg = default_config(num_classes=8, num_vms=3)
    classes = list(cfg.classes)
    for j in (2, 6):
        classes[j] = dataclasses.replace(classes[j], arrival_rate=float("nan"))
    classes[6] = dataclasses.replace(classes[6], compute_size=float("inf"))
    classes[4] = dataclasses.replace(classes[4], output_size=0.0)
    classes[3] = dataclasses.replace(
        classes[3], info_set=(1, 42, 9), update_rate=-1.0
    )
    classes[1] = dataclasses.replace(classes[1], update_rate=0.5)  # a valid one
    vms = list(cfg.vms)
    vms[1] = dataclasses.replace(vms[1], rate=float("nan"), shift=-1.0)
    cfg = dataclasses.replace(cfg, classes=tuple(classes), vms=tuple(vms))
    network = dataclasses.replace(cfg.network, rate=0.0, shift="1")
    assert validate_config(dataclasses.replace(cfg, network=network))[-3:] == [
        "vms[1].shift must be non-negative and finite",
        "network.rate must be positive and finite",
        "network.shift must be a number, got '1'",
    ]
    assert validate_config(cfg) == [
        "classes[2].arrival_rate must be positive and finite",
        "classes[3].update_rate must be positive and finite when set",
        "classes[3].info_set names classes [42, 9] outside 1..8",
        "classes[4].output_size must be positive and finite",
        "classes[6].arrival_rate must be positive and finite",
        "classes[6].compute_size must be positive and finite",
        "vms[1].rate must be positive and finite",
        "vms[1].shift must be non-negative and finite",
    ]


def test_validate_moment_mode_and_weighting_enums():
    cfg = dataclasses.replace(
        make_system([(0.01, 1.0, 1.0)], [(0.05, 0.0)]),
        moment_mode="bogus",
        aoi_network_weighting="nope",
    )
    problems = validate_config(cfg)
    assert any("moment_mode" in p for p in problems)
    assert any("aoi_network_weighting" in p for p in problems)


def test_pareto_support_and_cap():
    spec = ParetoSpec(shape=2.0, scale=300.0, cap_multiplier=5.0)
    sizes = sample_class_sizes(spec, 20000, seed=1)
    # mean = 2*300/1 = 600, cap = 3000
    assert spec.raw_mean == 600.0
    assert spec.cap == 3000.0
    assert sizes.min() >= 300.0
    assert sizes.max() <= 3000.0


def test_pareto_truncated_mean():
    # E[min(X, c)] = scale + integral of (scale/u)^2 from scale to c
    #              = 300 + (300 - 300^2/3000) = 570 for shape 2, cap 3000.
    spec = ParetoSpec(shape=2.0, scale=300.0, cap_multiplier=5.0)
    sizes = sample_class_sizes(spec, 100000, seed=2)
    assert abs(sizes.mean() - 570.0) / 570.0 < 0.03


def test_pareto_degenerate_cap_clips():
    spec = ParetoSpec(shape=2.0, scale=300.0, cap_multiplier=0.5)
    sizes = sample_class_sizes(spec, 1000, seed=3)
    assert sizes.max() <= spec.cap
    assert np.any(sizes == spec.cap)  # cap = 300 = scale, so everything clips


def test_pareto_seed_reproducible():
    spec = ParetoSpec(shape=2.0, scale=0.5)
    a = sample_class_sizes(spec, 100, seed=7)
    b = sample_class_sizes(spec, 100, seed=7)
    c = sample_class_sizes(spec, 100, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_pareto_generator_passthrough():
    spec = ParetoSpec(shape=2.0, scale=0.5)
    rng = np.random.default_rng(7)
    a = sample_class_sizes(spec, 100, rng)
    b = sample_class_sizes(spec, 100, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_pareto_bad_parameters_rejected():
    with pytest.raises(ConfigError):
        ParetoSpec(shape=1.0)
    with pytest.raises(ConfigError):
        ParetoSpec(shape=2.0, scale=0.0)
    with pytest.raises(ConfigError):
        ParetoSpec(shape=2.0, scale=1.0, cap_multiplier=0.0)
    with pytest.raises(ConfigError):
        sample_class_sizes(ParetoSpec(), -1, seed=0)


@pytest.mark.parametrize("field", ["shape", "scale", "cap_multiplier"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_pareto_non_finite_parameters_rejected(field, value):
    with pytest.raises(ConfigError, match=rf"pareto\.{field} must be"):
        ParetoSpec(**{field: value})


def test_reference_vms_cycle_the_measured_profiles():
    vms = reference_vms(12)
    assert [(v.rate, v.shift) for v in vms] == (
        REFERENCE_VM_PARAMS + REFERENCE_VM_PARAMS[:2]
    )
    assert default_config(num_vms=12).vms == vms


def test_config_json_roundtrip(tmp_path):
    cfg = default_config(num_classes=4, num_vms=2)
    path = tmp_path / "config.json"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg  # json floats survive a repr round trip exactly


def test_config_from_dict_draws_missing_sizes():
    data = {
        "theta": 0.3,
        "network": {"rate": 112.0, "shift": 18.0},
        "vms": [{"rate": 82.0, "shift": 10.0}],
        "pareto": {"shape": 2.0, "scale": 0.5, "cap_multiplier": 5.0},
        "classes": [
            {"arrival_rate": 0.01},
            {"arrival_rate": 0.02, "compute_size": 3.0, "output_size": 2.0},
        ],
    }
    cfg = config_from_dict(data)
    assert cfg.classes[1].compute_size == 3.0
    assert cfg.classes[1].output_size == 2.0
    assert cfg.classes[0].compute_size >= 0.5  # drawn from the pareto section
    # The same dict parses to the same drawn sizes (seeded).
    again = config_from_dict(data)
    assert again == cfg


def test_config_from_dict_num_classes():
    data = {
        "theta": 0.3,
        "seed": 5,
        "network": {"rate": 112.0, "shift": 18.0},
        "vms": [{"rate": 82.0, "shift": 10.0}, {"rate": 76.0, "shift": 12.0}],
        "num_classes": 6,
        "total_arrival_rate": 0.03,
        "pareto": {"shape": 2.0, "scale": 0.5},
    }
    cfg = config_from_dict(data)
    assert cfg.num_classes == 6
    assert cfg.total_rate == pytest.approx(0.03)


def test_config_from_dict_errors():
    with pytest.raises(ConfigError, match="missing required key"):
        config_from_dict({"theta": 0.3, "vms": []})
    with pytest.raises(ConfigError, match="classes or num_classes"):
        config_from_dict(
            {"theta": 0.3, "network": {"rate": 1, "shift": 0}, "vms": []}
        )
    with pytest.raises(ConfigError, match="no pareto section"):
        config_from_dict(
            {
                "theta": 0.3,
                "network": {"rate": 1, "shift": 0},
                "vms": [{"rate": 1, "shift": 0}],
                "classes": [{"arrival_rate": 0.01}],
            }
        )
    with pytest.raises(ConfigError, match="requires a pareto section"):
        config_from_dict(
            {
                "theta": 0.3,
                "network": {"rate": 1, "shift": 0},
                "vms": [{"rate": 1, "shift": 0}],
                "num_classes": 3,
            }
        )


def _sized_classes():
    """A config dict whose first class omits its sizes, drawn from pareto."""
    return {
        "theta": 0.3,
        "network": {"rate": 112.0, "shift": 18.0},
        "vms": [{"rate": 82.0, "shift": 10.0}],
        "pareto": {"shape": 2.0, "scale": 0.5},
        "classes": [
            {"arrival_rate": 0.01},
            {"arrival_rate": 0.02, "compute_size": 3.0, "output_size": 2.0},
        ],
    }


@pytest.mark.parametrize("name", ["compute_size", "output_size"])
def test_explicit_nan_size_is_an_error_not_a_draw(name):
    data = _sized_classes()
    data["classes"][1][name] = float("nan")
    with pytest.raises(ConfigError, match=rf"classes\[1\]\.{name}"):
        config_from_dict(data)
    del data["classes"][1][name]  # absent: drawn from the pareto section
    assert getattr(config_from_dict(data).classes[1], name) >= 0.5


@pytest.mark.parametrize("seed", [1.7, -1, float("nan"), "3", None, True])
def test_seed_must_be_a_non_negative_integer(seed):
    data = {**_sized_classes(), "seed": seed}
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict(data)


def test_integral_seeds_load():
    assert config_from_dict({**_sized_classes(), "seed": 4}).seed == 4
    assert config_from_dict({**_sized_classes(), "seed": 4.0}).seed == 4


def _generated_classes(num_classes):
    data = {k: v for k, v in _sized_classes().items() if k != "classes"}
    return {**data, "num_classes": num_classes}


def _set(path, value):
    """_sized_classes() with the field at path, a tuple of keys, set."""
    data = _sized_classes()
    *parents, name = path
    node = data
    for key in parents:
        node = node[key]
    node[name] = value
    return data


_BAD_FIELDS = [
    *[(_generated_classes(v), "num_classes")
      for v in (True, 2.5, 0, -3, float("nan"), "x", None, [], {}, 1e308)],
    *[(_set(("classes", 1, "info_set"), v), r"classes\[1\]\.info_set")
      for v in ("12", [1.5], ["a"], 3, [None], None, [True], [0])],
    # Finite inputs whose service moments overflow, named by class and VM.
    (_set(("classes", 1, "compute_size"), 1e308), r"classes\[1\]: compute .* vms\[0\]"),
    (_set(("vms", 0, "shift"), 1e308), r"classes\[0\]: compute .* vms\[0\]"),
    (_set(("classes", 1, "output_size"), 1e308), r"classes\[1\]: network service"),
    (_set(("pareto", "scale"), 1e307), r"classes\[0\]: compute .* vms\[0\]"),
    (_set(("pareto", "scale"), 1e308), r"pareto size cap .* pareto\.scale 1e\+308"),
]


@pytest.mark.parametrize("data, field", _BAD_FIELDS)
def test_bad_counts_ids_and_overflowing_moments_name_their_field(data, field):
    with pytest.raises(ConfigError, match=field):
        config = config_from_dict(data)
        problems = validate_config(config)
        if problems:
            raise ConfigError("; ".join(problems))


def test_integral_counts_and_ids_load():
    assert config_from_dict(_generated_classes(4.0)).num_classes == 4
    config = config_from_dict(_set(("classes", 1, "info_set"), [1, 2.0]))
    assert config.classes[1].info_set == (1, 2)
    assert validate_config(config) == []


@pytest.mark.parametrize("value", [True, "0.5", None])
def test_theta_must_be_a_json_number(value):
    with pytest.raises(ConfigError, match="theta must be a number"):
        config_from_dict({**_sized_classes(), "theta": value})


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    # Python refuses to parse an integer of over 4,300 digits, and bytes
    # that are not UTF-8 are no JSON text.
    for text in (b'{"theta": ' + b"9" * 5000 + b"}", b'{"theta": "\xff"}'):
        bad.write_bytes(text)
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(arr)


def test_config_to_dict_optional_fields():
    cfg = SystemConfig(
        classes=(
            JobClass(
                arrival_rate=0.01, compute_size=1.0, output_size=1.0,
                update_rate=0.02, info_set=(1,),
            ),
        ),
        vms=(ServiceProfile(rate=0.05, shift=0.0),),
        network=ServiceProfile(rate=112.0, shift=18.0),
        theta=0.5,
    )
    d = config_to_dict(cfg)
    assert d["classes"][0]["update_rate"] == 0.02
    assert d["classes"][0]["info_set"] == [1]
    assert config_from_dict(d) == cfg


@pytest.mark.parametrize(
    "num_classes, digest",
    [
        (4, "e51a6b84852559e583a5fb6cbe1face7f1679d8fb3b97734fcb4c8d5d25f295d"),
        (20, "e3b55d6dc49b4965bf1df2ecf6313bb6b9e9264957d9361b2b9925a913403250"),
        (100, "0566be6f8549ef927cd4d9636c15812dbc826301078f1b0a194f6b4514608efe"),
    ],
)
def test_config_hash_is_pinned(num_classes, digest):
    assert config_hash(default_config(num_classes)) == digest


def _one_field_changed(obj):
    """Copies of the dataclass obj, each with one leaf field changed: a
    number plus 1, a string or a tuple of class numbers one item longer."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            for changed in _one_field_changed(value):
                yield dataclasses.replace(obj, **{f.name: changed})
        elif isinstance(value, tuple) and dataclasses.is_dataclass(value[0]):
            for i, item in enumerate(value):
                for changed in _one_field_changed(item):
                    items = (*value[:i], changed, *value[i + 1 :])
                    yield dataclasses.replace(obj, **{f.name: items})
        else:
            grown = {str: "x", tuple: (1,)}.get(type(value), 1)
            yield dataclasses.replace(obj, **{f.name: value + grown})


@settings(max_examples=25)
@given(instances(), st.integers(0, 2**32))
def test_every_config_field_reaches_the_json_and_the_hash(config, seed):
    # Every optional field set, so each field of the four types is written.
    classes = tuple(
        dataclasses.replace(c, update_rate=0.01 * (j + 1), info_set=(1, j + 1))
        for j, c in enumerate(config.classes)
    )
    config = dataclasses.replace(
        config, classes=classes, seed=seed, pareto=ParetoSpec(2.5, 0.4, 6.0)
    )
    assert config_from_dict(config_to_dict(config)) == config
    digest = config_hash(config)
    changed = list(_one_field_changed(config))
    # SystemConfig's 4 scalar fields, 5 per class, 2 per VM and the link,
    # 3 in pareto.
    assert len(changed) == 4 + 5 * config.num_classes + 2 * (config.num_vms + 1) + 3
    for other in changed:
        assert config_hash(other) != digest


def test_generate_classes_rate_apportionment():
    pareto = ParetoSpec(shape=2.0, scale=0.5)
    classes = generate_classes(5, 0.035, pareto, seed=7)
    rates = np.array([c.arrival_rate for c in classes])
    weights = 1.0 / (np.arange(1, 6) + 1.0)
    np.testing.assert_allclose(rates, 0.035 * weights / weights.sum())
    assert rates.sum() == pytest.approx(0.035)
    with pytest.raises(ConfigError):
        generate_classes(0, 0.035, pareto, seed=7)


def test_with_rates_replaces_and_validates():
    cfg = make_system([(0.01, 1.0, 1.0), (0.02, 2.0, 1.5)], [(0.05, 0.0)])
    swapped = cfg.with_rates(np.array([0.005, 0.007]))
    assert swapped.arrival_rates().tolist() == [0.005, 0.007]
    assert swapped.classes[1].compute_size == 2.0  # sizes untouched
    with pytest.raises(ConfigError):
        cfg.with_rates(np.array([0.005]))


def test_numbers_are_read_once_and_refuse_writes():
    cfg = default_config(num_classes=4, num_vms=3)
    digest, text = config_hash(cfg), repr(cfg)
    numbers = cfg.numbers
    assert cfg.numbers is numbers and cfg.arrival_rates() is numbers.arrival_rates
    arrays = {k: v for k, v in vars(numbers).items() if isinstance(v, np.ndarray)}
    assert len(arrays) == 8
    for values in arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0
    assert numbers.vm_rates.tolist() == [r for r, _ in REFERENCE_VM_PARAMS[:3]]
    assert (numbers.link_rate, numbers.link_shift) == (112.0, 18.0)
    assert np.isnan(numbers.update_rates).all()  # none is set
    # The cache is no field: hash, repr, equality and the JSON form ignore it.
    assert config_hash(cfg) == digest and repr(cfg) == text
    assert cfg == dataclasses.replace(cfg) and "numbers" not in config_to_dict(cfg)


def test_copies_read_their_own_numbers():
    cfg = default_config(num_classes=4)
    before = cfg.arrival_rates().copy()
    doubled = cfg.with_rates(cfg.arrival_rates() * 2.0)
    np.testing.assert_array_equal(doubled.arrival_rates(), 2.0 * before)
    slower = dataclasses.replace(cfg, network=ServiceProfile(56.0, 18.0))
    assert slower.numbers.link_rate == 56.0 and cfg.numbers.link_rate == 112.0
    vms = dataclasses.replace(cfg, vms=reference_vms(2))
    assert vms.numbers.vm_rates.tolist() == [82.0, 76.0]
    np.testing.assert_array_equal(cfg.arrival_rates(), before)
    assert cfg.numbers.vm_rates.size == 5


def test_validate_config_runs_its_rules_once_per_instance(monkeypatch):
    runs = []
    rules = model._config_problems
    monkeypatch.setattr(model, "_config_problems", lambda c: runs.append(c) or rules(c))
    cfg = default_config(num_classes=4)
    bad = dataclasses.replace(cfg, theta=2.0)  # a copy starts with no verdict
    for _ in range(2):
        problems = validate_config(bad)
        assert problems == ["theta must lie in [0, 1], got 2.0"]
        problems.clear()  # each call returns a fresh list
    assert validate_config(cfg) == validate_config(cfg) == []
    assert len(runs) == 2 and runs[0] is bad and runs[1] is cfg
    assert validate_config(cfg.with_rates(cfg.arrival_rates() * 1e3))
    assert len(runs) == 3


def test_default_config_is_valid_and_seeded():
    cfg = default_config()
    assert cfg.num_classes == 20
    assert cfg.num_vms == 5
    assert validate_config(cfg) == []
    assert default_config() == cfg  # deterministic at the default seed
