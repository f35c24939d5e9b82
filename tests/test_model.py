import dataclasses

import numpy as np
import pytest

from aoisched.analytics import stability_report
from aoisched.model import (
    REFERENCE_VM_PARAMS,
    ConfigError,
    JobClass,
    ParetoSpec,
    ServiceProfile,
    SystemConfig,
    config_from_dict,
    config_to_dict,
    default_config,
    generate_classes,
    load_config,
    reference_vms,
    sample_class_sizes,
    save_config,
    validate_config,
)

from conftest import make_system, near_limit_link


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


def test_default_config_is_valid_and_seeded():
    cfg = default_config()
    assert cfg.num_classes == 20
    assert cfg.num_vms == 5
    assert validate_config(cfg) == []
    assert default_config() == cfg  # deterministic at the default seed
