"""End-to-end acceptance checks.

Each test prints one `ACCEPTANCE n <label>: PASS|FAIL` line (kept visible
under plain `pytest -v` via capsys.disabled) and then asserts the same
condition, so a regression is both readable in the log and red in the run.
"""

import itertools
import time

import numpy as np
import pytest

from aoisched.analytics import (
    Evaluator,
    analytic_report,
    net_service_moments,
    stability_report,
    weighted_metrics,
    wsept_order,
)
from aoisched.model import REFERENCE_VM_PARAMS, default_config
from aoisched.online import (
    offline_reference,
    online_driver,
    synthesize_poisson_trace,
)
from aoisched.optimizer import (
    OptimizerSettings,
    baseline_pca,
    baseline_rca,
    optimize_pps,
)
from aoisched.simulator import SimConfig, policy_tradeoff_example, run_simulation

from conftest import make_system, objective, objective_gradient, random_instance


def _report(n: int, label: str, ok: bool, capsys) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {n} {label}: {'PASS' if ok else 'FAIL'}")


# Cross-validation system: four equal-size classes on two exponential VMs,
# every queue at or below 0.7 utilization under the uniform schedule.
XVAL_CLASSES = [
    (0.012, 1.0, 1.0),
    (0.010, 1.0, 0.7),
    (0.008, 1.0, 1.3),
    (0.006, 1.0, 0.9),
]
XVAL_VMS = [(0.05, 0.0), (0.04, 0.0)]


@pytest.fixture(scope="module")
def cross_validation():
    cfg = make_system(XVAL_CLASSES, XVAL_VMS, theta=0.3, weighting="unweighted")
    p = np.full((4, 2), 0.5)
    t0 = time.perf_counter()
    res = run_simulation(
        cfg, p, SimConfig(horizon=1.0e6, replications=10, seed=11)
    )
    elapsed = time.perf_counter() - t0
    return cfg, p, res, elapsed


def _within(sim, se, analytic, rel_cap):
    tol = np.maximum(3.0 * se, rel_cap * np.abs(analytic))
    return np.abs(sim - analytic) <= tol


def test_acceptance_01_deterministic_example(capsys):
    t0 = time.perf_counter()
    out = policy_tradeoff_example()
    elapsed = time.perf_counter() - t0
    got = (
        out["policy1"]["weighted_age"],
        out["policy2"]["weighted_age"],
        out["policy1"]["weighted_completion"],
        out["policy2"]["weighted_completion"],
    )
    want = (27.55, 32.05, 77.55, 57.05)
    ok = all(abs(g - w) <= 1e-9 for g, w in zip(got, want)) and elapsed < 1.0
    _report(1, "deterministic two-policy example", ok, capsys)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-9, (got, want)
    assert elapsed < 1.0


def test_acceptance_02_analytics_match_simulation(cross_validation, capsys):
    cfg, p, res, elapsed = cross_validation
    rep = analytic_report(p, cfg)
    sr = stability_report(p, cfg)
    assert sr.vm_utilization.max() <= 0.7 and sr.network_utilization <= 0.7

    tight = [
        (res.mean_wait_compute, res.se_wait_compute, rep.wait_compute),
        (res.mean_service_compute, res.se_service_compute, rep.service_compute),
        (res.mean_service_network, res.se_service_network, rep.service_network),
    ]
    loose = [
        (res.mean_wait_network, res.se_wait_network, rep.wait_network),
        (res.mean_aoi, res.se_aoi, rep.aoi),
        (res.mean_completion, res.se_completion, rep.completion),
    ]
    ok = (
        all(np.all(_within(s, e, a, 0.05)) for s, e, a in tight)
        and all(np.all(_within(s, e, a, 0.15)) for s, e, a in loose)
        and elapsed < 120.0
    )
    _report(2, "analytics cross-validated by simulation", ok, capsys)
    for s, e, a in tight:
        assert np.all(_within(s, e, a, 0.05)), (s, a)
    for s, e, a in loose:
        assert np.all(_within(s, e, a, 0.15)), (s, a)
    assert elapsed < 120.0


def test_acceptance_03_convergence(capsys):
    trace = optimize_pps(default_config())
    idx = min(200, trace.iterations)
    rel_at_200 = (trace.objectives[idx] - trace.objective) / max(
        abs(trace.objective), 1e-12
    )
    rises = np.diff(trace.objectives)
    ok = (
        trace.converged
        and rel_at_200 <= 1e-3
        and np.all(rises <= 1e-12 * max(1.0, abs(trace.objectives[0])))
    )
    _report(3, "descent converges within 200 iterations", ok, capsys)
    assert trace.converged
    assert rel_at_200 <= 1e-3
    assert np.all(rises <= 1e-12 * max(1.0, abs(trace.objectives[0])))


def test_acceptance_04_gradient_correctness(capsys):
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(5):
        cfg = random_instance(rng)
        J, V = cfg.num_classes, cfg.num_vms
        for _ in range(20):
            p = rng.dirichlet(np.ones(V), size=J)
            g = objective_gradient(p, cfg)
            h = 1e-6
            fd = np.empty_like(g)
            for j in range(J):
                for v in range(V):
                    e = np.zeros_like(p)
                    e[j, v] = h
                    fd[j, v] = (
                        objective(p + e, cfg) - objective(p - e, cfg)
                    ) / (2 * h)
            rel = np.abs(g - fd) / np.maximum(
                np.maximum(np.abs(g), np.abs(fd)), 1e-8
            )
            worst = max(worst, float(rel.max()))
    ok = worst < 1e-5
    _report(4, f"gradient matches finite differences (worst {worst:.2e})", ok, capsys)
    assert worst < 1e-5


def test_acceptance_05_midpoint_convexity(capsys):
    # Valid for proportional per-class service moments, hence the equal
    # compute sizes; tests/test_optimizer.py holds the mixed-size
    # counterexample showing the restriction is necessary.
    rng = np.random.default_rng(5)
    worst = -np.inf
    for _ in range(5):
        cfg = random_instance(rng, equal_d=True)
        J, V = cfg.num_classes, cfg.num_vms
        for _ in range(1000):
            a = rng.dirichlet(np.ones(V), size=J)
            b = rng.dirichlet(np.ones(V), size=J)
            fm = objective((a + b) / 2.0, cfg)
            fa = (objective(a, cfg) + objective(b, cfg)) / 2.0
            worst = max(worst, fm - fa)
    ok = worst <= 1e-9
    _report(5, f"midpoint convexity, equal sizes (worst {worst:.2e})", ok, capsys)
    assert worst <= 1e-9


def test_acceptance_06_wsept_minimizes_weighted_cost(capsys):
    rng = np.random.default_rng(6)
    fails = 0
    for _ in range(20):
        cfg = random_instance(rng, j_max=5)
        lam = cfg.arrival_rates()
        m1, m2 = net_service_moments(cfg)
        c = lam / lam.sum()

        def cost(order):
            big_r = 0.5 * float(np.sum(lam * m2))
            cum = 0.0
            waits = np.empty(len(order))
            for j in order:
                prev = cum
                cum += lam[j] * m1[j]
                waits[j] = big_r / ((1.0 - prev) * (1.0 - cum))
            return float(np.sum(lam * c * (waits + m1)))

        mine = cost([cid - 1 for cid in wsept_order(cfg)])
        best = min(
            cost(list(perm))
            for perm in itertools.permutations(range(cfg.num_classes))
        )
        if mine > best + 1e-9 * (1.0 + abs(best)):
            fails += 1
    ok = fails == 0
    _report(6, f"priority order is exhaustive-search optimal ({20 - fails}/20)", ok, capsys)
    assert fails == 0


def test_acceptance_07_policy_dominance(capsys):
    rng = np.random.default_rng(21)
    fails = 0
    for _ in range(50):
        cfg = random_instance(rng, theta=0.0)
        p = optimize_pps(cfg).schedule
        obj = objective(p, cfg, networking="priority")
        rivals = (
            objective(baseline_rca(cfg), cfg),
            objective(baseline_pca(cfg, "paper_literal"), cfg),
            objective(p, cfg, networking="fcfs"),
        )
        if any(obj > r + 1e-9 * max(1.0, abs(r)) for r in rivals):
            fails += 1

    # Heterogeneous ten-VM system at 1.8x load: the optimized schedule must
    # beat proportional assignment on weighted AoI by a wide margin.
    drng = np.random.default_rng(3)
    d = drng.uniform(0.5, 2.0, 8)
    base = 1.0 / (np.arange(8) + 2.0)
    rates = base / base.sum() * 0.030 * 1.8
    heavy = make_system(
        [(float(rates[j]), float(d[j]), 1.0) for j in range(8)],
        list(REFERENCE_VM_PARAMS),
        theta=0.0,
    )
    wa_pps = weighted_metrics(optimize_pps(heavy).schedule, heavy)[1]
    wa_pca = weighted_metrics(baseline_pca(heavy, "paper_literal"), heavy)[1]
    improvement = (wa_pca - wa_pps) / wa_pca
    ok = fails == 0 and improvement >= 0.10
    _report(
        7,
        f"optimum dominates baselines ({50 - fails}/50, "
        f"heavy-load AoI gain {improvement * 100:.1f}%)",
        ok,
        capsys,
    )
    assert fails == 0
    assert improvement >= 0.10


def test_acceptance_08_theta_frontier(capsys):
    thetas = np.round(np.arange(0.0, 1.0001, 0.1), 10)
    settings = OptimizerSettings(max_iters=20000, rel_tol=1e-16)
    cfgs = [
        make_system(XVAL_CLASSES, XVAL_VMS, theta=float(t)) for t in thetas
    ]
    best = [optimize_pps(c, settings) for c in cfgs]
    # Polish with warm starts along both grid directions; keeps whichever
    # solve lands lower, which removes solver noise between adjacent points.
    for i in range(1, len(cfgs)):
        warm = optimize_pps(cfgs[i], settings, initial=best[i - 1].schedule)
        if warm.objective < best[i].objective:
            best[i] = warm
    for i in range(len(cfgs) - 2, -1, -1):
        warm = optimize_pps(cfgs[i], settings, initial=best[i + 1].schedule)
        if warm.objective < best[i].objective:
            best[i] = warm
    wc = np.empty(len(thetas))
    wa = np.empty(len(thetas))
    for i, (c, b) in enumerate(zip(cfgs, best)):
        wc[i], wa[i] = weighted_metrics(b.schedule, c)
    ok = np.all(np.diff(wc) <= 1e-9) and np.all(np.diff(wa) >= -1e-9)
    _report(8, "completion falls and AoI rises along the theta grid", ok, capsys)
    assert np.all(np.diff(wc) <= 1e-9), wc
    assert np.all(np.diff(wa) >= -1e-9), wa


def test_acceptance_09_online_tracking(capsys):
    cfg = make_system(
        [(0.020, 1.0, 0.7), (0.012, 1.0, 0.9), (0.008, 1.0, 1.1)],
        [(0.06, 0.0), (0.05, 0.0)],
        theta=0.3,
    )
    window = 2.0e5  # at least 1000 arrivals per class per window
    trace = synthesize_poisson_trace(cfg, 7.0 * window, seed=5)
    online = online_driver(trace, cfg, window_length=window, seed=9)
    offline = offline_reference(trace, cfg, window_length=window, seed=9)

    true_rates = cfg.arrival_rates()
    worst_rate = max(
        float(np.max(np.abs(w.rates - true_rates) / true_rates))
        for w in online.windows
    )
    gap = abs(
        online.result.weighted_objective - offline.result.weighted_objective
    ) / abs(offline.result.weighted_objective)
    ok = (
        worst_rate <= 0.10
        and gap <= 0.05
        and online.sources[0] == "uniform"
        and all(s == "optimized" for s in online.sources[1:])
    )
    _report(
        9,
        f"online tracks offline (rate err {worst_rate * 100:.1f}%, "
        f"objective gap {gap * 100:.3f}%)",
        ok,
        capsys,
    )
    assert worst_rate <= 0.10
    assert gap <= 0.05
    assert online.sources[0] == "uniform"
    assert all(s == "optimized" for s in online.sources[1:])


def test_acceptance_10_moment_mode_exposure(cross_validation, capsys):
    cfg, p, res, _ = cross_validation

    # Positive-shift service: the two second-moment conventions disagree.
    shifted = make_system([(0.05, 1.0, 1.0)], [(82.0, 10.0)])
    shifted_literal = make_system(
        [(0.05, 1.0, 1.0)], [(82.0, 10.0)], moment_mode="paper_literal"
    )
    one = np.array([[1.0]])
    w_exact = float(Evaluator(shifted).classes(one)[0][0])
    w_literal = float(Evaluator(shifted_literal).classes(one)[0][0])

    # Against measured data only the exact mode survives the 5% gate that
    # the cross-validation run holds itself to.
    literal_cfg = make_system(
        XVAL_CLASSES, XVAL_VMS, theta=0.3, weighting="unweighted",
        moment_mode="paper_literal",
    )
    w1_exact = analytic_report(p, cfg).wait_compute
    w1_literal = analytic_report(p, literal_cfg).wait_compute
    exact_ok = np.all(
        _within(res.mean_wait_compute, res.se_wait_compute, w1_exact, 0.05)
    )
    literal_rejected = np.all(
        ~_within(res.mean_wait_compute, res.se_wait_compute, w1_literal, 0.05)
    )
    ok = (
        abs(w_exact - w_literal) > 1e-3
        and w_exact == pytest.approx(5.0183, abs=5e-4)
        and exact_ok
        and literal_rejected
    )
    _report(
        10,
        f"moment conventions measurably differ (exact {w_exact:.3f} vs "
        f"literal {w_literal:.3f})",
        ok,
        capsys,
    )
    assert abs(w_exact - w_literal) > 1e-3
    assert w_exact == pytest.approx(5.0183, abs=5e-4)
    assert exact_ok
    assert literal_rejected
