"""The optimizer's hot loop against the original arithmetic, exactly.

Every comparison here is ``==`` / ``np.array_equal``, never a tolerance: the
leaner loop must return the same iterates, objectives and stop as the code
kept verbatim in ``pgd_oracle.py``.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aoisched.analytics import (
    Evaluator,
    StabilityError,
    net_service_moments,
    priority_waiting_times,
)
from aoisched.model import default_config
from aoisched.optimizer import (
    OptimizerSettings,
    _min_load_lp,
    _pgd,
    baseline_pca,
    feasible_init,
    optimize_pps,
    project_simplex_rows,
)

import pgd_oracle
from conftest import make_system

_unit = st.floats(0.0, 1.0)


def _scaled(draw, lo, hi, n):
    return [lo + (hi - lo) * draw(_unit) for _ in range(n)]


@st.composite
def _instances(draw):
    """A config whose best max VM load sits just inside a drawn margin.

    Heavy load makes full gradient steps leave the stable region, so
    backtracking meets +inf candidates; mixed compute sizes give the
    nonconvex case.
    """
    n_classes = draw(st.integers(1, 8))
    n_vms = draw(st.integers(1, 6))
    vms = list(zip(_scaled(draw, 0.03, 0.12, n_vms), _scaled(draw, 0.0, 5.0, n_vms)))
    if draw(st.booleans()):
        sizes = _scaled(draw, 0.5, 2.0, 1) * n_classes
    else:
        sizes = _scaled(draw, 0.5, 2.0, n_classes)
    rates = np.array(_scaled(draw, 0.2, 1.0, n_classes))
    outputs = np.array(_scaled(draw, 0.5, 1.5, n_classes))
    margin = draw(st.sampled_from([1e-3, 0.05, 0.2]))
    theta = draw(_unit)
    weighting = draw(st.sampled_from(["paper_theorem1", "unweighted"]))
    moment_mode = draw(st.sampled_from(["exact", "paper_literal"]))

    def build(rates, outputs):
        classes = list(zip(rates, sizes, outputs))
        return make_system(
            classes, vms, theta=theta, weighting=weighting, moment_mode=moment_mode
        )

    cfg = build(rates, outputs)
    # Utilization is linear in the rates: put the LP's best max load at a
    # drawn fraction of 1 - margin, then keep the link at most 70% busy.
    t_star, _ = _min_load_lp(cfg)
    rates = rates * ((0.5 + 0.48 * draw(_unit)) * (1.0 - margin) / t_star)
    cfg = build(rates, outputs)
    link = float(rates @ net_service_moments(cfg)[0])
    if link > 0.7:
        cfg = build(rates, outputs * (0.7 / link))
    start = draw(st.sampled_from(["uniform", "paper_literal", "inverse_time"]))
    if start == "uniform":
        p0 = feasible_init(cfg, margin)
    else:
        p0 = baseline_pca(cfg, start, margin)
    settings = OptimizerSettings(
        stability_margin=margin,
        max_iters=draw(st.sampled_from([150, 40, 1, 0])),
        rel_tol=draw(st.sampled_from([1e-12, 0.0])),
    )
    return cfg, p0, settings


def _assert_same_descent(core, oracle_core, p0, settings):
    p, objs, stop = _pgd(core, p0, settings)
    p_ref, objs_ref, converged_ref = pgd_oracle.pgd(oracle_core, p0, settings)
    assert objs == objs_ref
    assert np.array_equal(p, p_ref)
    assert (stop != "max_iters") == converged_ref
    return p, objs, stop


@given(_instances())
def test_pgd_matches_oracle_exactly(instance):
    cfg, p0, settings = instance
    ev = Evaluator(cfg)
    oracle = pgd_oracle.EvaluatorOracle(ev)
    margin = settings.stability_margin
    assert ev.evaluate(p0, margin)[0] == oracle.value(p0, margin)
    assert np.array_equal(ev.grad(p0), oracle.grad(p0))
    assert np.array_equal(ev.utilization(p0), oracle.utilization(p0))
    _assert_same_descent(ev, oracle, p0, settings)


def test_backtracking_meets_infinite_candidates():
    # The property above relies on heavy instances stepping past the margin;
    # check that such a descent exists and still matches the oracle.
    cfg = make_system(
        [(0.02, 1.0, 1.0), (0.015, 1.6, 0.8), (0.01, 0.7, 1.2)],
        [(0.05, 0.0), (0.03, 1.0), (0.04, 2.0)],
        net=(112.0, 1.0),
    )
    t_star, _ = _min_load_lp(cfg)
    cfg = cfg.with_rates(cfg.arrival_rates() * (0.97 * 0.95 / t_star))
    settings = OptimizerSettings(stability_margin=0.05, max_iters=200)
    ev = Evaluator(cfg)
    infinite = []

    class Counting:
        def evaluate(self, x, margin):
            f, loads = ev.evaluate(x, margin)
            infinite.append(f == np.inf)
            return f, loads

        grad_at = staticmethod(ev.grad_at)

    p0 = feasible_init(cfg, 0.05)
    _assert_same_descent(Counting(), pgd_oracle.EvaluatorOracle(ev), p0, settings)
    assert any(infinite)


@pytest.mark.parametrize("num_classes", [8, 12, 40])
def test_single_vm_loads_match_oracle(num_classes):
    # A (J, 1) column sums pairwise, not row by row like wider schedules;
    # the one load reduction must follow it there too.
    rng = np.random.default_rng(num_classes)
    cfg = make_system(
        [(r, d, 1.0) for r, d in rng.uniform(0.5, 2.0, (num_classes, 2))],
        [(0.05, 0.5)],
        net=(112.0, 1.0),
    )
    cfg = cfg.with_rates(cfg.arrival_rates() * (0.9 / _min_load_lp(cfg)[0]))
    ev = Evaluator(cfg)
    oracle = pgd_oracle.EvaluatorOracle(ev)
    p = np.ones((num_classes, 1))
    assert ev.evaluate(p)[0] == oracle.value(p)
    assert np.array_equal(ev.grad(p), oracle.grad(p))
    assert np.array_equal(ev.utilization(p), oracle.utilization(p))


_entries = st.one_of(
    st.integers(-3, 3).map(float),  # ties
    st.floats(-1e3, 1e3, allow_nan=False),
)


@given(
    st.integers(1, 8).flatmap(
        lambda rows: st.integers(1, 6).flatmap(
            lambda cols: st.lists(
                st.lists(_entries, min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
    )
)
def test_projection_matches_oracle_exactly(rows):
    m = np.array(rows)
    assert np.array_equal(project_simplex_rows(m), pgd_oracle.project_simplex_rows(m))


@given(
    st.lists(
        st.tuples(st.floats(0.05, 3.0), st.floats(0.2, 3.0)), min_size=1, max_size=8
    ),
    st.floats(0.3, 1.3),
)
def test_priority_waits_match_loop_exactly(classes, load):
    # load scales the link's total utilization, so some draws are unstable
    # at an intermediate priority level.
    rates = np.array([r for r, _ in classes])
    outputs = [e for _, e in classes]
    cfg = make_system([(r, 1.0, e) for r, e in zip(rates, outputs)], [(0.05, 0.0)])
    link = float(rates @ net_service_moments(cfg)[0])
    cfg = cfg.with_rates(rates * (load / link))
    try:
        expected = pgd_oracle.priority_waiting_times(cfg)
    except StabilityError as exc:
        with pytest.raises(StabilityError) as got:
            priority_waiting_times(cfg)
        assert str(got.value) == str(exc)
    else:
        assert np.array_equal(priority_waiting_times(cfg), expected)


@pytest.mark.parametrize("num_classes", [20, 100])
def test_default_configs_match_oracle_from_every_start(num_classes):
    cfg = default_config(num_classes=num_classes)
    settings = OptimizerSettings()
    ev = Evaluator(cfg)
    oracle = pgd_oracle.EvaluatorOracle(ev)
    runs = []
    for p0 in (
        feasible_init(cfg),
        baseline_pca(cfg, "paper_literal"),
        baseline_pca(cfg, "inverse_time"),
    ):
        p, objs, _ = _assert_same_descent(ev, oracle, p0, settings)
        runs.append((objs[-1], p))
    trace = optimize_pps(cfg, settings)
    best_obj, best_p = min(runs, key=lambda run: run[0])
    assert trace.objective == best_obj
    assert np.array_equal(trace.schedule, best_p)
