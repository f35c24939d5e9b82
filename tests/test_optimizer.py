import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.optimize import minimize

from aoisched import optimizer
from aoisched.analytics import (
    EvaluatorStack,
    analytic_report,
    margin_limit,
    service_moment_matrices,
    stability_report,
)
from aoisched.model import ConfigError, default_config
from aoisched.optimizer import (
    InfeasibleError,
    OptimizerSettings,
    baseline_pca,
    baseline_rca,
    optimize_many,
    optimize_pps,
    project_simplex_rows,
)

from conftest import (
    instances,
    make_system,
    near_limit,
    near_limit_link,
    objective,
    objective_gradient,
    random_instance,
    schedules,
)


def test_projection_hand_values():
    np.testing.assert_allclose(
        project_simplex_rows(np.array([[0.5, 0.7]])), [[0.4, 0.6]], atol=1e-15
    )
    np.testing.assert_allclose(
        project_simplex_rows(np.array([[2.0, 0.0]])), [[1.0, 0.0]], atol=1e-15
    )
    np.testing.assert_allclose(
        project_simplex_rows(np.array([[0.3, 0.3, 0.3]])),
        [[1.0 / 3.0] * 3],
        atol=1e-15,
    )
    # Strongly negative coordinates drop to the boundary.
    np.testing.assert_allclose(
        project_simplex_rows(np.array([[-1.0, 0.5, 0.4]])),
        [[0.0, 0.55, 0.45]],
        atol=1e-15,
    )


def test_projection_keeps_huge_rows_on_the_simplex():
    # Entries near 1e16 and beyond once cancelled against the threshold, so
    # the row projected to all zeros or summed far past 1.
    np.testing.assert_array_equal(
        project_simplex_rows(np.array([[1e17], [-3e17], [5.0]])), [[1.0]] * 3
    )
    np.testing.assert_array_equal(
        project_simplex_rows(np.array([[1e17, 0.0], [3e16, -3e16]])),
        [[1.0, 0.0], [1.0, 0.0]],
    )


def test_projection_idempotent_and_feasible():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(50, 6))
    p = project_simplex_rows(m)
    assert np.all(p >= 0.0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(project_simplex_rows(p), p, atol=1e-12)


@given(
    arrays(
        np.float64,
        array_shapes(min_dims=2, max_dims=2, max_side=8),
        elements=st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3)),
    )
)
def test_projection_idempotent_property(m):
    # Projecting a projected point moves no entry by more than the rounding
    # left in its row sum, plus one ulp of 1.
    p = project_simplex_rows(m)
    slack = np.abs(p.sum(axis=1, keepdims=True) - 1.0) + np.finfo(float).eps
    assert np.all(p >= 0.0)
    assert np.all(np.abs(project_simplex_rows(p) - p) <= slack)


def test_projection_matches_quadratic_program():
    # Independent oracle: nearest simplex point via SLSQP.
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(size=4)
        mine = project_simplex_rows(x[None, :])[0]
        res = minimize(
            lambda z: 0.5 * np.sum((z - x) ** 2),
            np.full(4, 0.25),
            jac=lambda z: z - x,
            bounds=[(0.0, 1.0)] * 4,
            constraints=[{"type": "eq", "fun": lambda z: z.sum() - 1.0}],
            method="SLSQP",
        )
        np.testing.assert_allclose(mine, res.x, atol=1e-6)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(42)
    for _ in range(3):
        cfg = random_instance(rng)
        J, V = cfg.num_classes, cfg.num_vms
        for _ in range(10):
            p = rng.dirichlet(np.ones(V), size=J)
            g = objective_gradient(p, cfg)
            h = 1e-6
            fd = np.empty_like(g)
            for j in range(J):
                for v in range(V):
                    e = np.zeros_like(p)
                    e[j, v] = h
                    fd[j, v] = (objective(p + e, cfg) - objective(p - e, cfg)) / (
                        2 * h
                    )
            rel = np.abs(g - fd) / np.maximum(
                np.maximum(np.abs(g), np.abs(fd)), 1e-8
            )
            assert rel.max() < 1e-5


@settings(max_examples=60)
@given(st.data())
def test_gradient_matches_central_differences_property(data):
    # Any row-stochastic schedule of these configs is stable, so p +- h e_jv
    # is too. With h = 1e-6 a central difference carries a rounding error
    # of about eps * |f| / h ~ 2e-10 |f| and a truncation error of h^2 / 6
    # times the third derivative; over 400 drawn examples the largest error
    # relative to |g_jv| was 1.2e-7 (the smallest |g_jv| was 0.48). The
    # tolerance, a relative 1e-5 per entry, leaves a factor of about 80.
    cfg = data.draw(instances())
    p = data.draw(schedules(cfg))
    g = objective_gradient(p, cfg)
    h = 1e-6
    fd = np.empty_like(g)
    for j in range(cfg.num_classes):
        for v in range(cfg.num_vms):
            e = np.zeros_like(p)
            e[j, v] = h
            fd[j, v] = (objective(p + e, cfg) - objective(p - e, cfg)) / (2 * h)
    np.testing.assert_allclose(g, fd, rtol=1e-5, atol=0.0)


def test_pgd_trace_monotone_and_converged():
    cfg = make_system(
        [(0.012, 1.0, 1.0), (0.010, 1.0, 0.7), (0.008, 1.0, 1.3)],
        [(0.05, 0.0), (0.04, 0.0)],
    )
    trace = optimize_pps(cfg)
    assert trace.converged
    assert trace.iterations == len(trace.objectives) - 1
    assert trace.objective == trace.objectives[-1]
    assert np.all(np.diff(trace.objectives) <= 0.0)  # monotone by construction
    # The optimum beats the starting point.
    assert trace.objective < trace.objectives[0]


def test_optimize_dominates_baselines():
    rng = np.random.default_rng(9)
    for _ in range(10):
        cfg = random_instance(rng)
        best = optimize_pps(cfg).objective
        for p in (
            baseline_rca(cfg),
            baseline_pca(cfg, "paper_literal"),
            baseline_pca(cfg, "inverse_time"),
        ):
            assert best <= objective(p, cfg) + 1e-9


def test_optimize_respects_initial_point():
    cfg = make_system(
        [(0.012, 1.0, 1.0), (0.010, 1.0, 0.7)], [(0.05, 0.0), (0.04, 0.0)]
    )
    p0 = np.array([[0.9, 0.1], [0.1, 0.9]])
    trace = optimize_pps(cfg, initial=p0)
    assert trace.start == "given"
    fresh = optimize_pps(cfg)
    assert trace.objective == pytest.approx(fresh.objective, rel=1e-6)


def test_midpoint_convexity_fails_for_mixed_size_classes():
    """Mixed per-class compute sizes break midpoint convexity.

    Published convexity claims silently require the per-class service moments
    feeding a VM to be proportional; this instance mixes sizes 4.0/1.8/0.7
    and violates the midpoint inequality by about 10 (not float noise).
    """
    cfg = make_system(
        [(0.004, 4.0, 1.0), (0.016, 1.8, 1.0), (0.02, 0.7, 1.0)],
        [(0.076, 4.6), (0.037, 2.1)],
        theta=1.0,
    )
    a = np.array([[0.15, 0.85], [0.77, 0.23], [0.47, 0.53]])
    b = np.array([[0.99, 0.01], [0.47, 0.53], [0.01, 0.99]])
    f_mid = objective((a + b) / 2.0, cfg)
    f_avg = (objective(a, cfg) + objective(b, cfg)) / 2.0
    assert f_mid > f_avg + 1.0


def test_midpoint_convexity_holds_for_equal_sizes():
    rng = np.random.default_rng(7)
    for _ in range(3):
        cfg = random_instance(rng, equal_d=True)
        J, V = cfg.num_classes, cfg.num_vms
        for _ in range(100):
            a = rng.dirichlet(np.ones(V), size=J)
            b = rng.dirichlet(np.ones(V), size=J)
            f_mid = objective((a + b) / 2.0, cfg)
            f_avg = (objective(a, cfg) + objective(b, cfg)) / 2.0
            assert f_mid <= f_avg + 1e-9


def test_feasible_init_meets_margin():
    # Uniform rows put load 0.1*20*0.5 = 1.0 on VM1, over the margin; the
    # projected point must clear it while staying near uniform.
    hot = make_system([(0.1, 1.0, 0.1)], [(0.05, 0.0), (0.2, 0.0)])
    p = baseline_rca(hot, margin=1e-3)
    assert p.shape == (1, 2)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    util1 = 0.1 * 20.0 * p[0, 0]
    assert util1 <= 1.0 - 1e-3 + 1e-9
    # Nearest feasible point barely moves off (0.5, 0.5).
    assert 0.45 < p[0, 0] < 0.5


def test_feasible_init_with_several_classes_meets_margin():
    # The LP certificate runs whenever the anchor is infeasible; with more
    # than one class its constraint rows once had one column too many.
    hot = make_system([(0.05, 1.0, 0.1), (0.05, 1.0, 0.1)], [(0.05, 0.0), (0.2, 0.0)])
    p = baseline_rca(hot, margin=1e-3)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert 0.05 * 20.0 * p[:, 0].sum() <= 1.0 - 1e-3 + 1e-9


def test_infeasible_compute_raises_with_certificate():
    cfg = make_system([(0.2, 1.0, 0.1)], [(0.05, 0.0), (0.04, 0.0)])
    # Best split gives max utilization well above 1: no schedule works.
    with pytest.raises(InfeasibleError, match="max utilization"):
        baseline_rca(cfg)
    with pytest.raises(InfeasibleError):
        optimize_pps(cfg)


def test_infeasible_network_raises():
    cfg = make_system([(0.06, 1.0, 1.0)], [(0.5, 0.0)])
    with pytest.raises(InfeasibleError, match="networking"):
        optimize_pps(cfg)


def test_network_load_inside_margin_band_is_infeasible():
    # Link utilization 0.9995: below 1 but inside the default 1e-3 margin,
    # where stability_report already calls any schedule unstable.
    e = 0.02
    cfg = make_system([(0.9995 / (e * (18.0 + 1.0 / 112.0)), 0.01, e)], [(1e3, 0.0)])
    assert not stability_report(np.ones((1, 1)), cfg).stable
    for solve in (optimize_pps, baseline_rca, baseline_pca):
        with pytest.raises(InfeasibleError, match="networking"):
            solve(cfg)
    # A smaller margin admits the same load, and the verdicts still agree.
    settings = OptimizerSettings(stability_margin=1e-4)
    schedule = optimize_pps(cfg, settings).schedule
    assert stability_report(schedule, cfg, margin=1e-4).stable


def test_optimum_on_the_margin_is_stable():
    # The descent accepts a VM utilization up to 1 - margin + 1e-12; here
    # the optimum lands at 0.800000000000643, which stability_report once
    # called unstable at the same margin.
    cfg = make_system(
        [(0.0404, 1.087, 0.1), (0.0901, 0.841, 0.1), (0.0661, 0.626, 0.1),
         (0.0849, 1.681, 0.1)],
        [(0.0946, 0.0), (0.2667, 0.0), (0.0458, 0.0)],
    )
    schedule = optimize_pps(cfg, OptimizerSettings(stability_margin=0.2)).schedule
    report = stability_report(schedule, cfg, margin=0.2)
    assert report.vm_utilization.max() > 0.8
    assert report.stable


def test_zero_margin_excludes_a_saturated_vm(monkeypatch):
    # Uniform rows load VM1 to exactly 1. At margin 0 that start was once
    # accepted, and the descent then failed on it. The Dykstra halfspaces
    # aim below margin_limit(0), so its projection stops after the first
    # round (one simplex projection there, one after the loop) instead of
    # running all 500.
    calls = []
    project = optimizer.project_simplex_rows
    monkeypatch.setattr(
        optimizer, "project_simplex_rows", lambda m: calls.append(1) or project(m)
    )
    cfg = make_system([(0.1, 1.0, 0.1)], [(0.05, 0.0), (0.2, 0.0)])
    assert stability_report(np.full((1, 2), 0.5), cfg).vm_utilization[0] == 1.0
    rca = baseline_rca(cfg, margin=0.0)
    assert len(calls) == 2
    schedule = optimize_pps(cfg, OptimizerSettings(stability_margin=0.0)).schedule
    for p in (rca, schedule):
        report = stability_report(p, cfg, margin=0.0)
        assert np.all(report.vm_utilization < 1.0)
        assert report.stable


def test_near_limit_vm_solutions_pass_stability_report():
    # Rates put the uniform schedule's busiest VM within 4 ulps of the
    # margin limit, where a utilization computed in two ways once made the
    # optimizer accept schedules that stability_report called unstable, at
    # margin 0 baselines whose load analytic_report's own sum rounded to 1,
    # and PGD steps so long that the projection lost the row sum.
    rng = np.random.default_rng(17)
    margins = (0.0, 1e-3, 0.05, 0.2)
    for i in range(160):
        margin = margins[i % 4]
        J, V = int(rng.integers(2, 41)), int(rng.integers(1, 4))
        vms = [(rng.uniform(0.03, 0.12), rng.uniform(0.0, 5.0)) for _ in range(V)]
        sizes = rng.uniform(0.5, 2.0, J).tolist()
        uniform = np.full((J, V), 1.0 / V)

        def build(lam):
            return make_system([(r, d, 1e-3) for r, d in zip(lam, sizes)], vms)

        def load(cfg):
            m1, _ = service_moment_matrices(cfg)
            lam = cfg.arrival_rates()[:, None]
            return ((lam * uniform) * m1).sum(axis=0).max()

        lam = rng.uniform(0.5, 1.5, J)
        cfg = near_limit(build, load, lam, margin_limit(margin), rng, 4)
        try:
            solved = [baseline_rca(cfg, margin)]
            if i % 5 == 0:
                solver = OptimizerSettings(stability_margin=margin, max_iters=50)
                solved.append(optimize_pps(cfg, solver).schedule)
        except InfeasibleError:
            continue
        for p in solved:
            assert stability_report(p, cfg, margin=margin).stable
            analytic_report(p, cfg)


def test_near_limit_link_verdicts_agree():
    # Link utilization within 3 ulps of the margin limit: optimize_pps
    # refuses the config exactly when stability_report calls the link
    # unstable, and what it returns passes stability_report.
    rng = np.random.default_rng(23)
    solver = {m: OptimizerSettings(stability_margin=m, max_iters=0) for m in (1e-3, 0.05)}
    for i in range(200):
        margin = (1e-3, 0.05)[i % 2]
        cfg = near_limit_link(rng, margin_limit(margin))
        p = np.ones((cfg.num_classes, 1))
        unstable = not stability_report(p, cfg, margin).stable
        try:
            schedule = optimize_pps(cfg, solver[margin]).schedule
        except InfeasibleError as exc:
            assert unstable and "networking" in str(exc)
            continue
        assert not unstable
        assert stability_report(schedule, cfg, margin).stable


@settings(max_examples=60)
@given(instances(), st.sampled_from([1e-3, 0.05, 0.2]))
def test_solutions_meet_the_margin_they_were_solved_for(cfg, margin):
    # The baselines and the optimum pass stability_report at the margin they
    # were built for; draws that no schedule can fit are skipped.
    try:
        solved = [
            baseline_rca(cfg, margin),
            baseline_pca(cfg, "paper_literal", margin),
            baseline_pca(cfg, "inverse_time", margin),
            optimize_pps(cfg, OptimizerSettings(stability_margin=margin)).schedule,
        ]
    except InfeasibleError:
        return
    for p in solved:
        assert stability_report(p, cfg, margin=margin).stable


def test_baseline_pca_modes():
    cfg = make_system(
        [(0.004, 1.0, 1.0), (0.003, 2.0, 0.8)], [(0.05, 0.0), (0.1, 0.0)]
    )
    lit = baseline_pca(cfg, "paper_literal")
    inv = baseline_pca(cfg, "inverse_time")
    # Mean times are (20, 10) per unit size: literal weights 2:1, inverse 1:2.
    np.testing.assert_allclose(lit, [[2 / 3, 1 / 3]] * 2, atol=1e-12)
    np.testing.assert_allclose(inv, [[1 / 3, 2 / 3]] * 2, atol=1e-12)
    with pytest.raises(ConfigError):
        baseline_pca(cfg, "nope")
    np.testing.assert_allclose(baseline_rca(cfg), 0.5, atol=1e-12)


def test_trace_csv_round_trip(tmp_path):
    cfg = make_system(
        [(0.012, 1.0, 1.0), (0.010, 1.0, 0.7)], [(0.05, 0.0), (0.04, 0.0)]
    )
    trace = optimize_pps(cfg)
    path = tmp_path / "convergence.csv"
    trace.write_csv(path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(trace.objectives)
    assert int(rows[0]["iteration"]) == 0
    assert float(rows[-1]["objective"]) == trace.objective


def test_nan_stability_margin_rejected(tiny_config):
    with pytest.raises(ConfigError, match="stability_margin"):
        optimize_pps(tiny_config, OptimizerSettings(stability_margin=float("nan")))
    # The entry points that take the margin directly check it the same way.
    with pytest.raises(ConfigError, match="margin"):
        baseline_rca(tiny_config, margin=float("nan"))
    with pytest.raises(ConfigError, match="margin"):
        baseline_pca(tiny_config, margin=-0.5)


@pytest.mark.parametrize(
    "classes, vms, field",
    [([], [(0.05, 0.0)], "classes"), ([(0.01, 1.0, 1.0)], [], "vms")],
)
def test_empty_config_rejected(classes, vms, field):
    cfg = make_system(classes, vms)
    for solve in (
        optimize_pps,
        lambda c: optimize_many([c]),
        baseline_rca,
        baseline_pca,
    ):
        with pytest.raises(ConfigError, match=f"config.{field} is empty"):
            solve(cfg)


def test_negative_stability_margin_rejected(tiny_config):
    with pytest.raises(ConfigError, match="stability_margin"):
        optimize_pps(tiny_config, OptimizerSettings(stability_margin=-0.5))


def test_nan_initial_step_rejected(tiny_config):
    with pytest.raises(ConfigError, match="initial_step"):
        optimize_pps(tiny_config, OptimizerSettings(initial_step=float("nan")))


def test_negative_max_iters_rejected(tiny_config):
    with pytest.raises(ConfigError, match="max_iters"):
        optimize_pps(tiny_config, OptimizerSettings(max_iters=-1))


@pytest.mark.parametrize(
    "field, value",
    [
        ("stability_margin", 1.0),
        ("stability_margin", float("inf")),
        ("max_iters", 2.5),
        ("rel_tol", -1e-12),
        ("rel_tol", float("inf")),
        ("initial_step", 0.0),
        ("initial_step", float("inf")),
        ("min_step", 0.0),
        ("min_step", float("nan")),
    ],
)
def test_out_of_range_settings_name_the_field(field, value):
    with pytest.raises(ConfigError, match=f"OptimizerSettings.{field} "):
        OptimizerSettings(**{field: value})


@pytest.mark.parametrize(
    "field, value", [("max_iters", True), ("max_iters", -1), ("seed", -1), ("seed", 0.5)]
)
def test_settings_counts_follow_the_integer_rule(field, value):
    with pytest.raises(ConfigError) as info:
        OptimizerSettings(**{field: value})
    assert str(info.value) == (
        f"OptimizerSettings.{field} must be an integer >= 0, got {value!r}"
    )
    settings = OptimizerSettings(**{field: 7.0})
    assert getattr(settings, field) == 7 and type(getattr(settings, field)) is int


def test_settings_range_edges_accepted():
    OptimizerSettings(stability_margin=0.0, max_iters=0, rel_tol=0.0)


def test_stop_reason_on_known_instances(tiny_config):
    # The 100-class reference stops on the relative objective drop; the
    # 20-class one reaches a point where the projected step vanishes first.
    assert optimize_pps(default_config(num_classes=100)).stop_reason == "rel_tol"
    assert optimize_pps(default_config()).stop_reason == "stationary"
    capped = optimize_pps(tiny_config, OptimizerSettings(max_iters=1))
    assert (capped.stop_reason, capped.iterations, capped.converged) == (
        "max_iters",
        1,
        False,
    )
    # min_step above the first step: backtracking has nothing left to try.
    floor = optimize_pps(
        tiny_config, OptimizerSettings(initial_step=1e-3, min_step=1e-2)
    )
    assert (floor.stop_reason, floor.iterations) == ("step_floor", 0)
    # With one VM the only schedule is a column of ones.
    one_vm = make_system([(0.004, 1.0, 1.0), (0.003, 1.0, 0.8)], [(0.05, 0.0)])
    stuck = optimize_pps(one_vm)
    assert (stuck.stop_reason, stuck.iterations) == ("stationary", 0)


def test_start_records_say_how_each_descent_stopped(tiny_config, monkeypatch):
    labels = ["uniform", "pca_literal", "pca_inverse"]
    capped = optimize_pps(default_config(), OptimizerSettings(max_iters=3))
    assert [r.label for r in capped.starts] == labels
    assert [(r.stop_reason, r.iterations) for r in capped.starts] == [
        ("max_iters", 3)
    ] * 3
    (winner,) = [r for r in capped.starts if r.label == capped.start]
    assert winner.objective == capped.objective
    assert winner.stop_reason == capped.stop_reason
    # min_step above the first step: no start tries a candidate.
    floor = optimize_pps(
        tiny_config, OptimizerSettings(initial_step=1e-3, min_step=1e-2)
    )
    assert [(r.stop_reason, r.iterations, r.rejected) for r in floor.starts] == [
        ("step_floor", 0, 0)
    ] * 3
    # Restarted at its own optimum, a descent has nowhere to go.
    best = optimize_pps(default_config())
    (again,) = optimize_pps(default_config(), initial=best.schedule).starts
    assert (again.label, again.stop_reason, again.iterations, again.rejected) == (
        "given",
        "stationary",
        0,
        0,
    )
    assert again.objective == best.objective
    assert np.array_equal(again.initial, best.schedule)
    # A lone descent scores one candidate per round: each round accepts,
    # rejects, or finds the projected step vanished.
    scored = []
    objectives = EvaluatorStack.objectives

    def counting(self, P, loads, margin=0.0):
        scored.append(len(P))
        return objectives(self, P, loads, margin)

    monkeypatch.setattr(EvaluatorStack, "objectives", counting)
    start = best.starts[0]
    (record,) = optimize_pps(default_config(), initial=start.initial).starts
    assert (record.iterations, record.rejected) == (start.iterations, start.rejected)
    assert record.rejected > 0
    assert sum(scored) - 1 == (
        record.iterations + record.rejected + (record.stop_reason == "stationary")
    )
