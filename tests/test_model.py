import dataclasses
import json

import numpy as np
import pytest

from aoisched.model import (
    REFERENCE_VM_PARAMS,
    ConfigError,
    JobClass,
    NetworkProfile,
    ParetoSpec,
    SystemConfig,
    VmProfile,
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

from conftest import make_system


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


def test_validate_theta_out_of_range():
    cfg = make_system([(0.01, 1.0, 1.0)], [(0.05, 0.0)], theta=1.2)
    assert any("theta" in p for p in validate_config(cfg))


def test_validate_collects_field_violations():
    cfg = SystemConfig(
        classes=(
            JobClass(id=1, arrival_rate=-1.0, compute_size=0.0, output_size=1.0),
            JobClass(id=3, arrival_rate=0.01, compute_size=1.0, output_size=1.0),
        ),
        vms=(VmProfile(id=1, rate=0.0, shift=-1.0),),
        network=NetworkProfile(rate=112.0, shift=18.0),
        theta=0.5,
    )
    problems = validate_config(cfg)
    assert any("class ids must be 1..J contiguous" in p for p in problems)
    assert any("arrival_rate must be positive" in p for p in problems)
    assert any("compute_size must be positive" in p for p in problems)
    assert any("rate must be positive" in p for p in problems)
    assert any("shift must be non-negative" in p for p in problems)


def test_validate_rejects_nan_vm_rate():
    cfg = make_system([(0.01, 1.0, 1.0)], [(float("nan"), 0.0), (0.05, 0.0)])
    assert any(p.startswith("vm 1: rate") for p in validate_config(cfg))


def test_validate_info_set_references():
    cfg = SystemConfig(
        classes=(
            JobClass(
                id=1, arrival_rate=0.01, compute_size=1.0, output_size=1.0,
                info_set=(1, 9),
            ),
        ),
        vms=(VmProfile(id=1, rate=0.05, shift=0.0),),
        network=NetworkProfile(rate=112.0, shift=18.0),
        theta=0.5,
    )
    assert any("unknown class ids [9]" in p for p in validate_config(cfg))


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
    with pytest.raises(ConfigError, match=f"pareto {field}"):
        ParetoSpec(**{field: value})


def test_reference_vms_cycle_the_measured_profiles():
    vms = reference_vms(12)
    assert [v.id for v in vms] == list(range(1, 13))
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


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
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
                id=1, arrival_rate=0.01, compute_size=1.0, output_size=1.0,
                update_rate=0.02, info_set=(1,),
            ),
        ),
        vms=(VmProfile(id=1, rate=0.05, shift=0.0),),
        network=NetworkProfile(rate=112.0, shift=18.0),
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
