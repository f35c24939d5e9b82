import csv
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aoisched.analytics import (
    Evaluator,
    EvaluatorStack,
    StabilityError,
    analytic_report,
    check_schedule,
    fcfs_waiting_time,
    net_service_moments,
    priority_waiting_times,
    service_moment_matrices,
    stability_report,
    weighted_metrics,
    wsept_order,
)
from aoisched.model import ConfigError, default_config
from aoisched.optimizer import optimize_pps
from aoisched.simulator import SimConfig, run_simulation

from conftest import instances, make_system, objective, random_instance, schedules


def test_compute_moments_exact_reference_vm():
    # Unit-size job on the (82, 10) profile: mean 10 + 1/82, second moment
    # 100 + 2*10/82 + 2/82^2, both hand-evaluated.
    cfg = make_system([(0.01, 1.0, 1.0)], [(82.0, 10.0)])
    m1, m2 = service_moment_matrices(cfg)
    assert m1[0, 0] == pytest.approx(10.012195121951219, abs=0)
    assert m2[0, 0] == pytest.approx(100.2441998810232, rel=1e-15)


def test_compute_moments_scale_with_size():
    # Size d multiplies the shift by d and divides the rate by d, so the
    # exact moments are m1(d) = d*m1(1) and m2(d) = d^2*m2(1).
    one = make_system([(0.01, 1.0, 1.0)], [(82.0, 10.0)])
    three = make_system([(0.01, 3.0, 1.0)], [(82.0, 10.0)])
    m1a, m2a = service_moment_matrices(one)
    m1b, m2b = service_moment_matrices(three)
    assert m1b[0, 0] == pytest.approx(3.0 * m1a[0, 0])
    assert m2b[0, 0] == pytest.approx(9.0 * m2a[0, 0])


def test_compute_moments_paper_literal_variant():
    cfg = make_system(
        [(0.01, 1.0, 1.0)], [(82.0, 10.0)], moment_mode="paper_literal"
    )
    _, m2 = service_moment_matrices(cfg)
    # b^2 + b + (b+2)/alpha with b = 10: 100 + 10 + 12/82
    assert m2[0, 0] == pytest.approx(110.0 + 12.0 / 82.0, rel=1e-15)
    exact = make_system([(0.01, 1.0, 1.0)], [(82.0, 10.0)])
    assert m2[0, 0] != service_moment_matrices(exact)[1][0, 0]


def test_paper_literal_differs_even_without_shift():
    # With beta = 0 the literal form keeps 2/alpha where the exact second
    # moment has 2/alpha^2; they agree only at alpha = 1.
    lit = make_system([(0.01, 1.0, 1.0)], [(0.05, 0.0)], moment_mode="paper_literal")
    exa = make_system([(0.01, 1.0, 1.0)], [(0.05, 0.0)])
    assert service_moment_matrices(lit)[1][0, 0] == pytest.approx(40.0)
    assert service_moment_matrices(exa)[1][0, 0] == pytest.approx(800.0)


def test_net_moments_match_compute_formula():
    cfg = make_system([(0.01, 1.0, 2.0)], [(82.0, 10.0)], net=(112.0, 18.0))
    m1, m2 = net_service_moments(cfg)
    b, inv_g = 36.0, 2.0 / 112.0
    assert m1[0] == pytest.approx(b + inv_g)
    assert m2[0] == pytest.approx(b * b + 2 * b * inv_g + 2 * inv_g * inv_g)


def test_pk_wait_hand_mixture():
    # Two classes, one VM (rate 1, shift 0.5): sizes 1 and 2 give per-class
    # means 1.5 and 3, second moments 3.25 and 13. Flow weights 0.75/0.25
    # mix them to E[Z] = 1.875 and E[Z^2] = 5.6875 at Lambda = 0.4, so
    # rho = 0.75 and W = 0.4 * 5.6875 / (2 * 0.25) = 4.55.
    cfg = make_system([(0.3, 1.0, 0.01), (0.1, 2.0, 0.01)], [(1.0, 0.5)])
    w1 = Evaluator(cfg).classes(np.ones((2, 1)))[0]
    np.testing.assert_allclose(w1, [4.55, 4.55], rtol=1e-14)


def test_pk_wait_zero_flow_vm():
    # A VM that receives no traffic waits zero and adds nothing to w1.
    cfg = make_system([(0.01, 1.0, 1.0)], [(0.05, 0.0), (0.04, 0.0)])
    p = np.array([[1.0, 0.0]])
    w1 = Evaluator(cfg).classes(p)[0]
    alone = Evaluator(make_system([(0.01, 1.0, 1.0)], [(0.05, 0.0)]))
    assert w1[0] == alone.classes(np.ones((1, 1)))[0][0]
    assert analytic_report(p, cfg).vm_rates.tolist() == [0.01, 0.0]


def test_pk_wait_mm1_textbook():
    # M/M/1: W = rho / (mu - lambda) = 1.0 at lambda = 0.5, mu = 1.
    cfg = make_system([(0.5, 1.0, 0.01)], [(1.0, 0.0)])
    w1 = Evaluator(cfg).classes(np.ones((1, 1)))[0]
    assert w1[0] == pytest.approx(1.0, rel=1e-15)


def test_pk_wait_shifted_exponential_hand_value():
    # lambda = 0.02, shift 10, rate 0.1: m1 = 20, m2 = 500, rho = 0.4,
    # W = 0.02*500/(2*0.6) = 25/3.
    cfg = make_system([(0.02, 1.0, 1.0)], [(0.1, 10.0)])
    w1 = Evaluator(cfg).classes(np.ones((1, 1)))[0]
    assert w1[0] == pytest.approx(25.0 / 3.0, rel=1e-14)


def test_pk_wait_unstable_raises():
    cfg = make_system([(1.1, 1.0, 0.001)], [(1.0, 0.0)])
    with pytest.raises(StabilityError, match="VM 1 unstable"):
        Evaluator(cfg).classes(np.ones((1, 1)))


def test_priority_waits_two_class_hand_value():
    # Equal classes, exp service mean 2 (m2 = 8): R = 0.8, rho = 0.2 each.
    # Tie on the key goes to class 1: W1 = 0.8/0.8 = 1, W2 = 0.8/(0.8*0.6).
    cfg = make_system([(0.1, 1.0, 1.0), (0.1, 1.0, 1.0)], [(1.0, 0.0)], net=(0.5, 0.0))
    w = priority_waiting_times(cfg)
    assert w[0] == pytest.approx(1.0, rel=1e-14)
    assert w[1] == pytest.approx(0.8 / (0.8 * 0.6), rel=1e-14)
    assert list(wsept_order(cfg)) == [1, 2]


def test_priority_conservation_law():
    # Work conservation: sum_j rho_j W_j is the same for priority and FCFS.
    rng = np.random.default_rng(5)
    for _ in range(20):
        cfg = random_instance(rng)
        lam = cfg.arrival_rates()
        m1, _ = net_service_moments(cfg)
        rho = lam * m1
        lhs = float(rho @ priority_waiting_times(cfg))
        rhs = float(rho.sum() * fcfs_waiting_time(cfg))
        assert lhs == pytest.approx(rhs, rel=1e-10)


@given(instances(j_max=30))
def test_link_conservation_property(cfg):
    # Kleinrock: a work-conserving non-preemptive discipline leaves the
    # load-weighted wait sum_j rho_j W_j at its FCFS value rho * W_FCFS.
    rho = cfg.arrival_rates() * net_service_moments(cfg)[0]
    lhs = float(rho @ priority_waiting_times(cfg))
    assert lhs == pytest.approx(float(rho.sum()) * fcfs_waiting_time(cfg), rel=1e-12)


@given(st.data())
def test_age_bounds_property(data):
    # The compute wait ages no information, so age <= completion per class
    # under "unweighted"; "paper_theorem1" scales the network terms by shares
    # <= 1, so its age never exceeds the unweighted one.
    cfg = data.draw(instances())
    p = data.draw(schedules(cfg))
    unw = dataclasses.replace(cfg, aoi_network_weighting="unweighted")
    thm = dataclasses.replace(cfg, aoi_network_weighting="paper_theorem1")
    for net in ("priority", "fcfs"):
        *_, aoi, completion = Evaluator(unw, net).classes(p)
        assert np.all(aoi <= completion)
        assert np.all(Evaluator(thm, net).classes(p)[4] <= aoi)


def test_wsept_order_key_and_ties():
    # Keys (share/E): class 2 has the largest, classes 1 and 3 tie and break
    # toward the lower id.
    cfg = make_system(
        [(0.01, 1.0, 1.0), (0.02, 1.0, 0.5), (0.02, 1.0, 2.0)],
        [(0.05, 0.0)],
    )
    assert list(wsept_order(cfg)) == [2, 1, 3]


def test_priority_unstable_level_raises():
    cfg = make_system(
        [(0.03, 1.0, 1.0), (0.04, 1.0, 1.0)], [(0.05, 0.0)], net=(112.0, 18.0)
    )
    # rho_net = 0.07 * 18.009 = 1.26: the second level crosses 1.
    with pytest.raises(StabilityError, match="priority level"):
        priority_waiting_times(cfg)
    with pytest.raises(StabilityError, match="unstable"):
        fcfs_waiting_time(cfg)


def test_fcfs_wait_is_residual_over_slack():
    cfg = make_system([(0.02, 1.0, 1.0), (0.01, 1.0, 1.5)], [(0.05, 0.0)])
    lam = cfg.arrival_rates()
    m1, m2 = net_service_moments(cfg)
    expect = (lam @ m2) / 2.0 / (1.0 - lam @ m1)
    assert fcfs_waiting_time(cfg) == pytest.approx(expect, rel=1e-14)


def test_aoi_weighting_modes():
    cfg = make_system(
        [(0.012, 1.0, 1.0), (0.006, 1.0, 0.7)], [(0.05, 0.0), (0.04, 0.0)]
    )
    p = np.full((2, 2), 0.5)
    m1, _ = service_moment_matrices(cfg)
    s1 = (p * m1).sum(axis=1)
    s2, _ = net_service_moments(cfg)
    w2 = priority_waiting_times(cfg)
    share = cfg.arrival_rates() / cfg.total_rate
    aoi = Evaluator(cfg).classes(p)[4]
    np.testing.assert_allclose(aoi, s1 + share * (w2 + s2))
    unw = dataclasses.replace(cfg, aoi_network_weighting="unweighted")
    aoi_unw = Evaluator(unw).classes(p)[4]
    np.testing.assert_allclose(aoi_unw, s1 + w2 + s2)
    # Shares are below one, so the weighted mode never exceeds the unweighted.
    assert np.all(aoi <= aoi_unw)


def test_completion_assembly():
    cfg = make_system(
        [(0.012, 1.0, 1.0), (0.006, 2.0, 0.7)], [(0.05, 0.0), (0.04, 2.0)]
    )
    p = np.array([[0.7, 0.3], [0.2, 0.8]])
    m1, m2 = service_moment_matrices(cfg)
    # Pollaczek-Khinchine per VM: sum_j flow_jv m2_jv / (2 (1 - rho_v)).
    flow = p * cfg.arrival_rates()[:, None]
    rho = (flow * m1).sum(axis=0)
    w1 = p @ ((flow * m2).sum(axis=0) / (2.0 * (1.0 - rho)))
    s2, _ = net_service_moments(cfg)
    expect = w1 + (p * m1).sum(axis=1) + priority_waiting_times(cfg) + s2
    np.testing.assert_allclose(Evaluator(cfg).classes(p)[5], expect)


def test_objective_blends_weighted_metrics():
    cfg = make_system(
        [(0.012, 1.0, 1.0), (0.006, 1.0, 0.7)], [(0.05, 0.0), (0.04, 0.0)], theta=0.3
    )
    p = np.full((2, 2), 0.5)
    wc, wa = weighted_metrics(p, cfg)
    assert objective(p, cfg) == pytest.approx(0.3 * wc + 0.7 * wa, rel=1e-15)
    at0 = dataclasses.replace(cfg, theta=0.0)
    at1 = dataclasses.replace(cfg, theta=1.0)
    assert objective(p, at0) == pytest.approx(wa)
    assert objective(p, at1) == pytest.approx(wc)


def test_objective_fcfs_variant_uses_fcfs_wait():
    cfg = make_system(
        [(0.012, 1.0, 1.0), (0.006, 1.0, 0.7)], [(0.05, 0.0), (0.04, 0.0)]
    )
    p = np.full((2, 2), 0.5)
    assert objective(p, cfg, networking="fcfs") != objective(p, cfg)
    with pytest.raises(ValueError, match="networking"):
        objective(p, cfg, networking="lifo")


def test_check_schedule_violations():
    cfg = make_system(
        [(0.01, 1.0, 1.0), (0.01, 1.0, 1.0)], [(0.05, 0.0), (0.04, 0.0)]
    )
    assert check_schedule(np.full((2, 2), 0.5), cfg) == []
    assert check_schedule(np.ones(4)) != []  # 1-D rejected outright
    assert any(
        "does not match" in p for p in check_schedule(np.full((3, 2), 0.5), cfg)
    )
    assert any(
        "sum to 1" in p for p in check_schedule(np.array([[0.5, 0.4], [0.5, 0.5]]), cfg)
    )
    assert any(
        "lie in [0, 1]" in p
        for p in check_schedule(np.array([[1.5, -0.5], [0.5, 0.5]]), cfg)
    )


def test_check_schedule_rejects_nan_entry():
    cfg = make_system(
        [(0.01, 1.0, 1.0), (0.01, 1.0, 1.0)], [(0.05, 0.0), (0.04, 0.0)]
    )
    p = np.array([[np.nan, 0.5], [0.5, 0.5]])
    assert check_schedule(p, cfg) == ["schedule entries must be finite"]


# Every public entry that takes a schedule, by the name of that argument.
_SCHEDULE_ENTRIES = {
    "optimize_pps": ("initial", lambda p, cfg: optimize_pps(cfg, initial=p)),
    "stability_report": ("p", stability_report),
    "weighted_metrics": ("p", weighted_metrics),
    "analytic_report": ("p", analytic_report),
    "run_simulation": (
        "p",
        lambda p, cfg: run_simulation(cfg, p, SimConfig(horizon=1e3, replications=1)),
    ),
}
_BAD_SCHEDULES = {
    "negative": (
        -np.ones((4, 5)),
        "schedule entries must lie in [0, 1]; "
        "schedule rows [1, 2, 3, 4] do not sum to 1 within 1e-9",
    ),
    "nan": (np.full((4, 5), np.nan), "schedule entries must be finite"),
    "shape": (np.full((3, 5), 0.2), "schedule shape (3, 5) does not match (J=4, V=5)"),
    "ragged": ([[1.0]] + [[0.2] * 5] * 3, "schedule must be an array of numbers"),
    "text": ([["0.2"] * 5] * 3 + [["x"] * 5], "schedule must be an array of numbers"),
}


@pytest.mark.parametrize("entry", _SCHEDULE_ENTRIES)
@pytest.mark.parametrize("case", _BAD_SCHEDULES)
def test_entries_refuse_a_bad_schedule_naming_the_argument(entry, case):
    name, call = _SCHEDULE_ENTRIES[entry]
    p, problems = _BAD_SCHEDULES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic
        with pytest.raises(ConfigError) as info:
            call(p, default_config(4))
    assert str(info.value) == f"{name}: {problems}"


def test_reports_and_metrics_agree_bitwise():
    # Every analytic entry point evaluates the same assembly, so the numbers
    # must agree exactly, not just to rounding.
    rng = np.random.default_rng(17)
    for _ in range(10):
        base = random_instance(rng)
        p = rng.dirichlet(np.ones(base.num_vms), size=base.num_classes)
        for weighting in ("paper_theorem1", "unweighted"):
            cfg = dataclasses.replace(base, aoi_network_weighting=weighting)
            for net in ("priority", "fcfs"):
                rep = analytic_report(p, cfg, net)
                wc, wa = weighted_metrics(p, cfg, net)
                assert rep.weighted_completion == wc
                assert rep.weighted_aoi == wa
                assert rep.objective == objective(p, cfg, net)
                assert np.array_equal(rep.aoi, Evaluator(cfg, net).classes(p)[4])


def test_stability_report_margin_verdict():
    cfg = make_system(
        [(0.012, 1.0, 1.0), (0.006, 1.0, 0.7)], [(0.05, 0.0), (0.04, 0.0)]
    )
    p = np.full((2, 2), 0.5)
    rep = stability_report(p, cfg)
    assert rep.stable
    # The optimizer's loads, bit for bit.
    stack = EvaluatorStack([Evaluator(cfg)])
    assert np.array_equal(rep.vm_utilization, stack.utilization(p[None])[0])
    assert rep.network_utilization < 1.0
    assert list(rep.priority_order) == list(wsept_order(cfg))
    # A load inside the margin band (0.9994 > 1 - 1e-3) flips the verdict
    # without raising.
    hot = make_system([(0.04997, 1.0, 0.02)], [(0.05, 0.0)])
    rep2 = stability_report(np.ones((1, 1)), hot, margin=1e-3)
    assert not rep2.stable


def test_analytic_report_values_and_csv(tmp_path):
    cfg = make_system(
        [(0.012, 1.0, 1.0), (0.006, 1.0, 0.7)], [(0.05, 0.0), (0.04, 0.0)], theta=0.3
    )
    p = np.full((2, 2), 0.5)
    rep = analytic_report(p, cfg)
    *_, aoi, completion = Evaluator(cfg).classes(p)
    np.testing.assert_allclose(rep.completion, completion)
    np.testing.assert_allclose(rep.aoi, aoi)
    assert rep.objective == pytest.approx(objective(p, cfg), rel=1e-15)
    d = rep.to_dict()
    assert "manifest" not in d
    assert len(d["classes"]) == 2

    path = tmp_path / "report.csv"
    rep.write_csv(path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    # repr round trip keeps full precision
    assert float(rows[0]["mean_completion"]) == rep.completion[0]
    assert float(rows[1]["mean_aoi"]) == rep.aoi[1]


def test_analytic_report_rejects_bad_schedule():
    cfg = make_system([(0.01, 1.0, 1.0)], [(0.05, 0.0)])
    with pytest.raises(ValueError, match="sum to 1"):
        analytic_report(np.array([[0.7]]), cfg)


def test_nan_stability_report_margin_rejected(tiny_config):
    p = np.full((2, 2), 0.5)
    with pytest.raises(ConfigError, match="margin"):
        stability_report(p, tiny_config, margin=float("nan"))
    with pytest.raises(ConfigError, match="margin"):
        stability_report(p, tiny_config, margin=1.0)
