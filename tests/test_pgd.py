"""The optimizer's hot loop against the original arithmetic, exactly.

Every comparison here is ``==`` / ``np.array_equal``, never a tolerance: for
every descent of a lockstep batch, batches of one included, the loop must
return the same iterates, objectives and stop reason as the one-descent
loop kept verbatim in ``pgd_oracle.py``, or raise its error.
"""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from aoisched.analytics import (
    Evaluator,
    EvaluatorStack,
    InfeasibleError,
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
    baseline_rca,
    optimize_many,
    optimize_pps,
    project_simplex_rows,
)

import pgd_oracle
from conftest import make_system, random_instance

_unit = st.floats(0.0, 1.0)
_margins = st.sampled_from([1e-3, 0.05, 0.2])


def _scaled(draw, lo, hi, n):
    return [lo + (hi - lo) * draw(_unit) for _ in range(n)]


@st.composite
def _member(draw, n_classes, n_vms, margin):
    """A config whose best max VM load sits just inside the margin, and a
    feasible start for it.

    Heavy load makes full gradient steps leave the stable region, so
    backtracking meets +inf candidates; mixed compute sizes give the
    nonconvex case.
    """
    vms = list(zip(_scaled(draw, 0.03, 0.12, n_vms), _scaled(draw, 0.0, 5.0, n_vms)))
    if draw(st.booleans()):
        sizes = _scaled(draw, 0.5, 2.0, 1) * n_classes
    else:
        sizes = _scaled(draw, 0.5, 2.0, n_classes)
    rates = np.array(_scaled(draw, 0.2, 1.0, n_classes))
    outputs = np.array(_scaled(draw, 0.5, 1.5, n_classes))
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
        p0 = baseline_rca(cfg, margin)
    else:
        p0 = baseline_pca(cfg, start, margin)
    return cfg, p0


@st.composite
def _instances(draw):
    n_classes = draw(st.integers(1, 8))
    n_vms = draw(st.integers(1, 6))
    margin = draw(_margins)
    cfg, p0 = draw(_member(n_classes, n_vms, margin))
    settings = OptimizerSettings(
        stability_margin=margin,
        max_iters=draw(st.sampled_from([150, 40, 1, 0])),
        rel_tol=draw(st.sampled_from([1e-12, 0.0])),
    )
    return cfg, p0, settings


@st.composite
def _batches(draw):
    """Up to five configs of one schedule shape, each with its own start,
    sharing settings; a min_step of 0.2 makes some members stop on the
    step floor while others run on."""
    n_classes = draw(st.integers(1, 8))
    n_vms = draw(st.integers(1, 6))
    margin = draw(_margins)
    members = draw(st.lists(_member(n_classes, n_vms, margin), min_size=1, max_size=5))
    settings = OptimizerSettings(
        stability_margin=margin,
        max_iters=draw(st.sampled_from([150, 40, 1, 0])),
        rel_tol=draw(st.sampled_from([1e-12, 0.0])),
        min_step=draw(st.sampled_from([1e-18, 0.2])),
    )
    return members, settings


def _assert_same_descents(evs, starts, settings):
    """Run the starts as one lockstep batch and check each member against
    the oracle descending alone."""
    runs = _pgd(EvaluatorStack(evs), np.stack(starts), settings)
    assert len(runs) == len(evs)
    for ev, p0, run in zip(evs, starts, runs):
        try:
            ref = pgd_oracle.pgd(pgd_oracle.EvaluatorOracle(ev), p0, settings)
        except InfeasibleError as exc:
            assert isinstance(run, InfeasibleError)
            assert str(run) == str(exc)
            continue
        p, objs, stop, rejected = run
        assert objs == ref[1]
        assert np.array_equal(p, ref[0])
        assert stop == ref[2]
        assert rejected >= 0
    return runs


@given(_instances())
def test_pgd_matches_oracle_exactly(instance):
    cfg, p0, settings = instance
    ev = Evaluator(cfg)
    oracle = pgd_oracle.EvaluatorOracle(ev)
    margin = settings.stability_margin
    stack = EvaluatorStack([ev])
    loads = stack.loads(p0[None])
    assert stack.objectives(p0[None], loads, margin)[0] == [oracle.value(p0, margin)]
    assert np.array_equal(stack.gradient(loads)[0], oracle.grad(p0))
    assert np.array_equal(stack.loads(p0[None])[1][0, 0], oracle.utilization(p0))
    _assert_same_descents([ev], [p0], settings)


@hyp_settings(max_examples=60)
@given(_batches())
def test_lockstep_batches_match_oracle_exactly(batch):
    members, settings = batch
    _assert_same_descents(
        [Evaluator(cfg) for cfg, _ in members], [p0 for _, p0 in members], settings
    )


def _same_shape_configs(n, shape=(4, 3), seed=7):
    rng = np.random.default_rng(seed)
    configs = []
    while len(configs) < n:
        cfg = random_instance(rng, j_max=shape[0], v_max=shape[1])
        if (cfg.num_classes, cfg.num_vms) == shape:
            configs.append(cfg)
    return configs


def test_batch_members_stop_at_different_rounds_for_every_reason():
    configs = _same_shape_configs(8)
    evs = [Evaluator(cfg) for cfg in configs]
    starts = [baseline_rca(cfg) for cfg in configs]
    settings = OptimizerSettings(max_iters=100, min_step=0.2)
    runs = _assert_same_descents(evs, starts, settings)
    assert {run[2] for run in runs} == {"rel_tol", "stationary", "step_floor", "max_iters"}
    assert len({len(run[1]) for run in runs}) >= 4
    # With no iterations allowed every member stops at its start.
    zero = OptimizerSettings(max_iters=0)
    for run, p0 in zip(_assert_same_descents(evs, starts, zero), starts):
        assert run[2] == "max_iters"
        assert len(run[1]) == 1
        assert np.array_equal(run[0], p0)


def _three_class_config(load):
    """Three classes on three VMs with the LP's best max VM load at `load`."""
    cfg = make_system(
        [(0.02, 1.0, 1.0), (0.015, 1.6, 0.8), (0.01, 0.7, 1.2)],
        [(0.05, 0.0), (0.03, 1.0), (0.04, 2.0)],
        net=(112.0, 1.0),
    )
    t_star, _ = _min_load_lp(cfg)
    return cfg.with_rates(cfg.arrival_rates() * (load / t_star))


def test_backtracking_meets_infinite_candidates(monkeypatch):
    # The properties above rely on heavy instances stepping past the margin;
    # check that such descents exist and still match the oracle, alone and
    # beside a lighter member in one batch.
    heavy, light = _three_class_config(0.97 * 0.95), _three_class_config(0.5)
    settings = OptimizerSettings(stability_margin=0.05, max_iters=200)
    infinite = []
    objectives = EvaluatorStack.objectives

    def counting(self, P, loads, margin=0.0):
        f, amax = objectives(self, P, loads, margin)
        infinite.append([x == np.inf for x in f])
        return f, amax

    monkeypatch.setattr(EvaluatorStack, "objectives", counting)
    ev = Evaluator(heavy)
    p0 = baseline_rca(heavy, 0.05)
    _assert_same_descents([ev], [p0], settings)
    assert any(any(row) for row in infinite)
    infinite.clear()
    _assert_same_descents(
        [ev, Evaluator(light), ev],
        [p0, baseline_rca(light, 0.05), baseline_pca(heavy, "paper_literal", 0.05)],
        settings,
    )
    assert any(row[0] for row in infinite if len(row) == 3)


def test_infeasible_members_fail_alone():
    # A start past the margin fails its own descent, as the oracle raises,
    # while the rest of the batch runs on.
    cfg = _three_class_config(0.9)
    ev = Evaluator(cfg)
    p0 = baseline_rca(cfg)
    slowest = np.zeros_like(p0)
    slowest[:, 1] = 1.0
    settings = OptimizerSettings(max_iters=50)
    runs = _assert_same_descents([ev, ev, ev], [p0, slowest, p0], settings)
    assert isinstance(runs[1], InfeasibleError)
    assert runs[0][1] == runs[2][1]


@pytest.mark.parametrize("num_classes", [8, 12, 40])
def test_single_vm_loads_match_oracle(num_classes):
    # A (J, 1) column sums pairwise, not row by row like wider schedules;
    # the one load reduction must follow it there too, in a stack of one
    # and of several.
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
    for size in (1, 3):
        stack = EvaluatorStack([ev] * size)
        P = np.stack([p] * size)
        loads = stack.loads(P)
        assert stack.objectives(P, loads)[0] == [oracle.value(p)] * size
        for b in range(size):
            assert np.array_equal(stack.gradient(loads)[b], oracle.grad(p))
            assert np.array_equal(stack.loads(P)[1][b, 0], oracle.utilization(p))


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
    starts = [
        baseline_rca(cfg),
        baseline_pca(cfg, "paper_literal"),
        baseline_pca(cfg, "inverse_time"),
    ]
    runs = []
    for p0 in starts:
        ((p, objs, _, _),) = _assert_same_descents([ev], [p0], settings)
        runs.append((objs[-1], p))
    # The three starts as one batch, as optimize_pps runs them.
    _assert_same_descents([ev] * 3, starts, settings)
    trace = optimize_pps(cfg, settings)
    best_obj, best_p = min(runs, key=lambda run: run[0])
    assert trace.objective == best_obj
    assert np.array_equal(trace.schedule, best_p)


def test_optimize_many_matches_optimize_pps_per_config():
    # Mixed shapes, a config whose link is past the margin and one whose
    # VMs cannot meet it: each comes back as optimize_pps returns or raises.
    base = default_config()
    configs = [
        base,
        base.with_rates(base.arrival_rates() * 9.0),
        *_same_shape_configs(2),
        base.with_rates(base.arrival_rates() * 1.3),
        make_system([(0.5, 1.0, 0.01)], [(0.05, 0.0)]),
    ]
    settings = OptimizerSettings()
    for cfg, got in zip(configs, optimize_many(configs, settings)):
        try:
            want = optimize_pps(cfg, settings)
        except (InfeasibleError, StabilityError) as exc:
            assert type(got) is type(exc)
            assert str(got) == str(exc)
            continue
        assert np.array_equal(got.objectives, want.objectives)
        assert np.array_equal(got.schedule, want.schedule)
        assert (got.start, got.stop_reason) == (want.start, want.stop_reason)
        assert [r.to_dict() for r in got.starts] == [r.to_dict() for r in want.starts]
