"""Schedule optimization: projected gradient descent over row simplexes.

The decision variable is the J x V schedule matrix p (rows are per-class
assignment distributions). Only the compute phase depends on p; the network
terms are constants folded into the objective so traces report the full
tradeoff objective. Gradient steps are projected row-wise onto the simplex
(sort-based Euclidean projection); compute-queue stability is enforced by
rejecting candidates beyond the margin inside the Armijo backtracking loop,
so every accepted iterate is feasible. The objective is convex when classes
share one compute size but can be nonconvex when per-class sizes mix on a VM
(segregating large jobs can beat any mixture), so optimize_pps descends
from three starts, the uniform point and both proportional baselines, and
keeps the best descent; the returned trace is the winning run's and is
monotone by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytics import (
    STABILITY_MARGIN,
    Evaluator,
    InfeasibleError,
    check_margin,
    net_service_moments,
    service_moment_matrices,
)
from .model import ConfigError, SystemConfig


@dataclass(frozen=True)
class OptimizerSettings:
    max_iters: int = 5000
    rel_tol: float = 1.0e-12  # stop when the relative objective drop is below
    initial_step: float = 1.0
    armijo_c1: float = 1.0e-4
    armijo_shrink: float = 0.5
    step_growth: float = 2.0
    min_step: float = 1.0e-18
    stability_margin: float = STABILITY_MARGIN
    seed: int = 0
    """Recorded in manifests only: PGD and its starting points are
    deterministic, so no optimizer code draws from it."""

    def __post_init__(self):
        check_margin(self.stability_margin, "OptimizerSettings.stability_margin")
        is_int = isinstance(self.max_iters, (int, np.integer))
        for name, ok, rule in (
            ("max_iters", is_int and self.max_iters >= 0, "an integer >= 0"),
            ("rel_tol", self.rel_tol >= 0.0, ">= 0"),
            ("initial_step", self.initial_step > 0.0, "> 0"),
            ("min_step", self.min_step > 0.0, "> 0"),
            ("armijo_c1", 0.0 < self.armijo_c1 < 1.0, "in (0, 1)"),
            ("armijo_shrink", 0.0 < self.armijo_shrink < 1.0, "in (0, 1)"),
            ("step_growth", self.step_growth >= 1.0, ">= 1"),
        ):
            value = getattr(self, name)
            # NaN fails every comparison above; inf is caught here.
            if not (ok and np.isfinite(value)):
                raise ConfigError(
                    f"OptimizerSettings.{name} must be finite and {rule}, "
                    f"got {value!r}"
                )


@dataclass(frozen=True)
class OptimizeTrace:
    """Result of one optimization: best schedule plus its descent trace.

    stop_reason says why the winning descent stopped: "rel_tol" (the
    objective dropped by less than rel_tol), "stationary" (the projected step
    vanished at the current step size), "step_floor" (backtracking went below
    min_step without an acceptable candidate) or "max_iters".
    """

    schedule: np.ndarray
    objectives: np.ndarray  # objective after each accepted iterate, [0] = start
    start: str  # label of the winning initial point
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason != "max_iters"

    @property
    def iterations(self) -> int:
        return len(self.objectives) - 1

    @property
    def objective(self) -> float:
        return float(self.objectives[-1])

    def write_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "objective"])
            for i, obj in enumerate(self.objectives):
                writer.writerow([i, repr(float(obj))])


def project_simplex_rows(m: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex.

    Sort-based O(V log V) per row; idempotent on points already on the
    simplex.
    """
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    rows, cols = m.shape
    return _project(m, np.arange(1, cols + 1), np.arange(rows), cols - 1)


def _project(
    m: np.ndarray, ks: np.ndarray, rows: np.ndarray, vm1: int
) -> np.ndarray:
    # The projection of a 2-D float64 m, given its shape constants
    # ks = 1..V, rows = 0..J-1 and vm1 = V - 1, which PGD builds once.
    u = np.sort(m, axis=1)[:, ::-1]
    css = u.cumsum(axis=1)
    cond = u - (css - 1.0) / ks > 0.0
    # rho: last index where cond holds; cond[:, 0] is always true.
    rho = vm1 - cond[:, ::-1].argmax(axis=1)
    tau = (css[rows, rho] - 1.0) / (rho + 1.0)
    return np.maximum(m - tau[:, None], 0.0)


def objective_gradient(p: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Gradient of the analytic tradeoff objective with respect to p."""
    return Evaluator(config).grad(np.asarray(p, dtype=np.float64))


def _require_network_stable(config: SystemConfig, margin: float) -> None:
    # Networking load ignores p entirely, so check it once up front, against
    # the same margin stability_report applies.
    check_margin(margin)
    lam = config.arrival_rates()
    mean_s2, _ = net_service_moments(config)
    rho = float(np.dot(lam, mean_s2))
    if rho >= 1.0 - margin:
        raise InfeasibleError(
            f"networking queue unstable at utilization {rho:.6f} "
            f"(margin {margin:g}); no schedule can fix this"
        )


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first use.

    The LP only runs when a starting point is infeasible, and importing
    scipy.optimize costs most of ``import aoisched``.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _min_load_lp(config: SystemConfig) -> tuple[float, np.ndarray]:
    """Minimize the max VM utilization over row-stochastic schedules.

    Returns (t*, minimizing schedule). Serves as the feasibility certificate:
    the margin is achievable iff t* <= 1 - margin.
    """
    lam = config.arrival_rates()
    m1, _ = service_moment_matrices(config)
    J, V = m1.shape
    n = J * V
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.zeros((V, n + 1))
    for v in range(V):
        a_ub[v, v:n:V] = lam * m1[:, v]
        a_ub[v, -1] = -1.0
    a_eq = np.zeros((J, n + 1))
    for j in range(J):
        a_eq[j, j * V : (j + 1) * V] = 1.0
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(V),
        A_eq=a_eq,
        b_eq=np.ones(J),
        bounds=[(0.0, None)] * n + [(0.0, None)],
        method="highs",
    )
    if not res.success:
        raise InfeasibleError(f"feasibility LP failed: {res.message}")
    return float(res.x[-1]), res.x[:-1].reshape(J, V)


def _nearest_feasible(
    anchor: np.ndarray, config: SystemConfig, margin: float
) -> np.ndarray:
    """Minimal-perturbation projection of anchor onto the feasible set.

    Dykstra's alternating projections between the product of row simplexes
    and each VM's stability halfspace; falls back to blending toward the LP
    minimizer to clear any residual overshoot.
    """
    core = Evaluator(config)
    if np.all(core.utilization(anchor) <= 1.0 - margin):
        return anchor.copy()
    t_star, p_lp = _min_load_lp(config)
    if t_star > 1.0 - margin:
        raise InfeasibleError(
            f"no schedule satisfies the stability margin: best achievable "
            f"max utilization {t_star:.6f} > {1.0 - margin:.6f}"
        )
    coeff = core.lam[:, None] * core.m1  # halfspace normals, one column per VM
    sqnorm = (coeff**2).sum(axis=0)
    bound = 1.0 - margin

    p = anchor.copy()
    n_sets = 1 + config.num_vms
    increments = [np.zeros_like(p) for _ in range(n_sets)]
    for _ in range(500):
        for s in range(n_sets):
            z = p + increments[s]
            if s == 0:
                proj = project_simplex_rows(z)
            else:
                v = s - 1
                over = float((coeff[:, v] * z[:, v]).sum()) - bound
                proj = z.copy()
                if over > 0.0:
                    proj[:, v] = z[:, v] - over * coeff[:, v] / sqnorm[v]
            increments[s] = z - proj
            p = proj
        if (
            np.all(core.utilization(p) <= bound + 1e-12)
            and np.all(p >= -1e-12)
            and np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        ):
            break
    p = project_simplex_rows(np.maximum(p, 0.0))
    util = core.utilization(p)
    if np.any(util > bound):
        # The Dykstra iterate can overshoot by float dust; blend toward the
        # strictly feasible LP point just enough to clear the margin.
        util_lp = core.utilization(p_lp)
        with np.errstate(divide="ignore", invalid="ignore"):
            need = (util - bound) / np.maximum(util - util_lp, 1e-300)
        s = float(np.clip(np.max(need[util > bound]), 0.0, 1.0))
        s = min(1.0, s * (1.0 + 1e-9) + 1e-12)
        p = (1.0 - s) * p + s * p_lp
        p = project_simplex_rows(p)
        if np.any(core.utilization(p) > bound + 1e-9):
            raise InfeasibleError("could not project anchor to the feasible set")
    return p


def feasible_init(
    config: SystemConfig, margin: float = STABILITY_MARGIN
) -> np.ndarray:
    """Uniform schedule, minimally shifted to meet the stability margin."""
    _require_network_stable(config, margin)
    uniform = np.full((config.num_classes, config.num_vms), 1.0 / config.num_vms)
    return _nearest_feasible(uniform, config, margin)


def baseline_rca(
    config: SystemConfig, margin: float = STABILITY_MARGIN
) -> np.ndarray:
    """Rate-blind baseline: uniform rows (projected to feasibility if needed)."""
    return feasible_init(config, margin)


def baseline_pca(
    config: SystemConfig,
    mode: str = "paper_literal",
    margin: float = STABILITY_MARGIN,
) -> np.ndarray:
    """Proportional assignment baseline.

    "paper_literal" weights VMs proportionally to their mean service time
    (as published; slower VMs get more traffic), "inverse_time" weights by
    the reciprocal (faster VMs get more). Compute size cancels row-wise, so
    every class gets the same row.
    """
    _require_network_stable(config, margin)
    m1, _ = service_moment_matrices(config)
    if mode == "paper_literal":
        w = m1
    elif mode == "inverse_time":
        w = 1.0 / m1
    else:
        raise ConfigError(f"unknown pca mode {mode!r}")
    p = w / w.sum(axis=1, keepdims=True)
    return _nearest_feasible(p, config, margin)


def _pgd(
    ev: Evaluator, p0: np.ndarray, settings: OptimizerSettings
) -> tuple[np.ndarray, list[float], str]:
    """Projected gradient descent with Armijo backtracking from p0.

    Each candidate's loads are reduced once by ``ev.evaluate``, and the
    accepted one's are reused by ``ev.grad_at`` for the next gradient.
    Returns the last iterate, the objective after each accepted step
    ([0] = start) and the stop reason (see OptimizeTrace).
    """
    margin = settings.stability_margin
    p = p0.copy()
    f, loads = ev.evaluate(p, margin)
    if not np.isfinite(f):
        raise InfeasibleError("initial point violates the stability margin")
    objs = [f]
    step = settings.initial_step
    stop = "max_iters"
    tiny = (1e-16 * max(1.0, float(np.abs(p0).max()))) ** 2
    rows, cols = p.shape
    ks, row_idx = np.arange(1, cols + 1), np.arange(rows)
    for _ in range(settings.max_iters):
        g = ev.grad_at(loads)
        reason = "step_floor"
        while step >= settings.min_step:
            cand = _project(p - step * g, ks, row_idx, cols - 1)
            move = p - cand
            move_sq = float(np.add.reduce(move * move, axis=None))
            if move_sq <= tiny:
                reason = "stationary"  # shrinking the step cannot help
                break
            fc, cand_loads = ev.evaluate(cand, margin)
            if fc <= f and fc <= f - settings.armijo_c1 / step * move_sq:
                reason = None
                break
            step *= settings.armijo_shrink
        if reason is not None:
            stop = reason
            break
        drop = f - fc
        p, f, loads = cand, fc, cand_loads
        objs.append(f)
        if drop <= settings.rel_tol * max(1.0, abs(f)):
            stop = "rel_tol"
            break
        step = min(step * settings.step_growth, settings.initial_step * 1e9)
    return p, objs, stop


def optimize_pps(
    config: SystemConfig,
    settings: OptimizerSettings | None = None,
    initial: np.ndarray | None = None,
) -> OptimizeTrace:
    """Minimize the tradeoff objective over row-stochastic stable schedules.

    Without an explicit initial point, descent runs from the uniform feasible
    point and from both proportional baselines and the best run wins, which
    guarantees the result is never worse than those baselines even off the
    convex regime.
    """
    settings = settings or OptimizerSettings()
    margin = settings.stability_margin
    _require_network_stable(config, margin)
    ev = Evaluator(config)

    if initial is not None:
        p0 = _nearest_feasible(np.asarray(initial, float), config, margin)
        starts = [("given", p0)]
    else:
        starts = [
            ("uniform", feasible_init(config, margin)),
            ("pca_literal", baseline_pca(config, "paper_literal", margin)),
            ("pca_inverse", baseline_pca(config, "inverse_time", margin)),
        ]

    best: tuple[np.ndarray, list[float], str, str] | None = None
    for label, p0 in starts:
        p, objs, stop = _pgd(ev, p0, settings)
        if best is None or objs[-1] < best[1][-1]:
            best = (p, objs, stop, label)
    p, objs, stop, label = best
    return OptimizeTrace(
        schedule=p,
        objectives=np.array(objs),
        start=label,
        stop_reason=stop,
    )
