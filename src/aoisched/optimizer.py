"""Schedule optimization: projected gradient descent over row simplexes.

The decision variable is the J x V schedule matrix p (rows are per-class
assignment distributions). Only the compute phase depends on p; the network
terms are constants folded into the objective so traces report the full
tradeoff objective. Gradient steps are projected row-wise onto the simplex
(sort-based Euclidean projection); compute-queue stability is enforced by
rejecting candidates beyond the margin inside the Armijo backtracking loop,
so every accepted iterate is feasible. The network check, the start points
and the descent all meet the margin by stability_report's one rule,
analytics.margin_limit. The objective is convex when classes share one
compute size but can be nonconvex when per-class sizes mix on a VM
(segregating large jobs can beat any mixture), so optimize_pps descends
from three starts, the uniform point and both proportional baselines, and
keeps the best descent; the returned trace is the winning run's and is
monotone by construction.

Descents run in lockstep. The descents of one schedule shape, the three
starts of one config or those of every config passed to optimize_many, go
through one loop in batches of up to PGD_BATCH_ENTRIES schedule entries: in
each round each running descent projects, scores and accepts or rejects one
candidate, and a descent leaves the batch when it stops. The descents share
only the interpreter overhead of the numpy calls, which on these small
matrices costs more than their arithmetic. Results are bit-identical to
descending one start at a time: elementwise operations do not depend on
their neighbours, every sort, cumulative sum and search runs along one row,
and every reduction covers one descent's own entries in the order a lone
descent sums them. A single descent, such as a warm start, is a batch of
one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytics import (
    STABILITY_MARGIN,
    Evaluator,
    EvaluatorStack,
    InfeasibleError,
    StabilityError,
    check_margin,
    link_utilization,
    margin_limit,
    require_schedule,
    service_moment_matrices,
)
from .model import ConfigError, SystemConfig, integer, write_table


# Schedule entries in one lockstep batch, summed over its descents. A round
# costs a fixed interpreter overhead plus a part that grows with the entries;
# past a few thousand entries the overhead is shared out, and the batch's
# temporary arrays, not its speed, grow with more.
PGD_BATCH_ENTRIES = 4096

# Armijo backtracking: a candidate must lower the objective by _ARMIJO_C1 /
# step times its squared move; a rejection shrinks the step, an acceptance
# grows it.
_ARMIJO_C1, _STEP_SHRINK, _STEP_GROWTH = 1.0e-4, 0.5, 2.0


@dataclass(frozen=True)
class OptimizerSettings:
    max_iters: int = 5000
    rel_tol: float = 1.0e-12  # stop when the relative objective drop is below
    initial_step: float = 1.0
    min_step: float = 1.0e-18
    stability_margin: float = STABILITY_MARGIN
    seed: int = 0
    """Recorded in manifests only: PGD and its starting points are
    deterministic, so no optimizer code draws from it."""

    def __post_init__(self):
        check_margin(self.stability_margin, "OptimizerSettings.stability_margin")
        for name in ("max_iters", "seed"):
            # The frozen field keeps the int the rule returns: 20.0 runs as 20.
            value = integer(getattr(self, name), f"OptimizerSettings.{name}", 0)
            object.__setattr__(self, name, value)
        for name, ok, rule in (
            ("rel_tol", self.rel_tol >= 0.0, ">= 0"),
            ("initial_step", self.initial_step > 0.0, "> 0"),
            ("min_step", self.min_step > 0.0, "> 0"),
        ):
            value = getattr(self, name)
            # NaN fails every comparison above; inf is caught here.
            if not (ok and np.isfinite(value)):
                raise ConfigError(
                    f"OptimizerSettings.{name} must be finite and {rule}, "
                    f"got {value!r}"
                )


@dataclass(frozen=True)
class StartRecord:
    """How one descent of a solve went, from its start point to its stop."""

    label: str  # "uniform", "pca_literal", "pca_inverse" or "given"
    initial: np.ndarray  # the feasible start point
    iterations: int  # accepted steps
    rejected: int  # candidates the Armijo test turned down
    stop_reason: str  # as OptimizeTrace.stop_reason
    objective: float  # at the descent's last iterate

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "iterations": self.iterations,
            "rejected": self.rejected,
            "stop_reason": self.stop_reason,
            "objective": self.objective,
        }


@dataclass(frozen=True)
class OptimizeTrace:
    """Result of one optimization: best schedule plus its descent trace.

    stop_reason says why the winning descent stopped: "rel_tol" (the
    objective dropped by less than rel_tol), "stationary" (the projected step
    vanished at the current step size), "step_floor" (backtracking went below
    min_step without an acceptable candidate) or "max_iters". `starts` has
    one record per descent, the winner's included, in start order.
    """

    schedule: np.ndarray
    objectives: np.ndarray  # objective after each accepted iterate, [0] = start
    start: str  # label of the winning initial point
    stop_reason: str
    starts: tuple[StartRecord, ...] = ()

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
        write_table(path, ["iteration", "objective"], enumerate(self.objectives))


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
    # rho: last index where cond holds; cond[:, 0] holds in exact arithmetic.
    rho = vm1 - cond[:, ::-1].argmax(axis=1)
    tau = (css[rows, rho] - 1.0) / (rho + 1.0)
    out = np.maximum(m - tau[:, None], 0.0)
    # Entries near 1e16 or beyond lose the 1 to cancellation, and the row
    # leaves the simplex; it is redone shifted by its maximum, which does not
    # move the projection. While every row maximum lies within 1e4 of 0,
    # rounding moves a row sum by a few ulps of 1e4 at most, so ordinary
    # input pays only for one dot product.
    if u[:, 0] @ u[:, 0] > 1e8:
        off = np.abs(out.sum(axis=1) - 1.0) > 1e-9
        if off.any():
            out[off] = project_simplex_rows(m[off] - m[off].max(axis=1, keepdims=True))
    return out


def _require_network_stable(config: SystemConfig, margin: float) -> None:
    # Networking load ignores p entirely, so check it once up front, against
    # the same margin stability_report applies.
    check_margin(margin)
    for name in ("classes", "vms"):
        if not getattr(config, name):
            raise ConfigError(f"config.{name} is empty: no schedule to solve for")
    rho = float(link_utilization(config)[1][-1])
    if not rho <= margin_limit(margin):
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
    the margin is achievable iff t* <= margin_limit(margin).
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
    anchor: np.ndarray, ev: Evaluator, margin: float
) -> np.ndarray:
    """Minimal-perturbation projection of anchor onto ev's feasible set.

    Dykstra's alternating projections between the product of row simplexes
    and each VM's stability halfspace; falls back to blending toward the LP
    minimizer to clear any residual overshoot.
    """
    stack = EvaluatorStack([ev])
    limit = margin_limit(margin)

    def utilization(x: np.ndarray) -> np.ndarray:
        return stack.utilization(x[None])[0]

    if np.all(utilization(anchor) <= limit):
        return anchor.copy()
    t_star, p_lp = _min_load_lp(ev.config)
    if t_star > limit:
        raise InfeasibleError(
            f"no schedule satisfies the stability margin: best achievable "
            f"max utilization {t_star:.6f} > {1.0 - margin:.6f}"
        )
    coeff = ev.lam[:, None] * ev.m1  # halfspace normals, one column per VM
    sqnorm = (coeff**2).sum(axis=0)
    bound = 1.0 - max(margin, 1e-9)  # the halfspaces' target, < margin_limit(margin)

    p = anchor.copy()
    n_sets = 1 + coeff.shape[1]
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
            np.all(utilization(p) <= limit)
            and np.all(p >= -1e-12)
            and np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        ):
            break
    p = project_simplex_rows(np.maximum(p, 0.0))
    util = utilization(p)
    high = util > limit
    if high.any():
        # The Dykstra iterate can overshoot by float dust; blend toward the
        # strictly feasible LP point just enough to clear the margin.
        gap = np.maximum(util[high] - utilization(p_lp)[high], 1e-300)
        s = float(np.clip(np.max((util[high] - bound) / gap), 0.0, 1.0))
        s = min(1.0, s * (1.0 + 1e-9) + 1e-12)
        p = project_simplex_rows((1.0 - s) * p + s * p_lp)
        if np.any(utilization(p) > limit):
            raise InfeasibleError("could not project anchor to the feasible set")
    return p


# The optimizer's start label for each proportional baseline mode.
PCA_STARTS = {"paper_literal": "pca_literal", "inverse_time": "pca_inverse"}


def _anchor(label: str, m1: np.ndarray) -> np.ndarray:
    # Start `label` before projection, from the (J, V) mean service times m1.
    # Compute size cancels row-wise, so the pca rows are all alike.
    if label == "uniform":
        return np.full(m1.shape, 1.0 / m1.shape[1])
    w = m1 if label == "pca_literal" else 1.0 / m1
    return w / w.sum(axis=1, keepdims=True)


def baseline_rca(
    config: SystemConfig, margin: float = STABILITY_MARGIN
) -> np.ndarray:
    """Rate-blind baseline: uniform rows (projected to feasibility if needed)."""
    _require_network_stable(config, margin)
    ev = Evaluator(config)
    return _nearest_feasible(_anchor("uniform", ev.m1), ev, margin)


def baseline_pca(
    config: SystemConfig,
    mode: str = "paper_literal",
    margin: float = STABILITY_MARGIN,
) -> np.ndarray:
    """Proportional assignment baseline (projected to feasibility if needed).

    "paper_literal" weights VMs proportionally to their mean service time
    (as published; slower VMs get more traffic), "inverse_time" weights by
    the reciprocal (faster VMs get more).
    """
    _require_network_stable(config, margin)
    if mode not in PCA_STARTS:
        raise ConfigError(f"unknown pca mode {mode!r}")
    ev = Evaluator(config)
    return _nearest_feasible(_anchor(PCA_STARTS[mode], ev.m1), ev, margin)


def _pgd(
    stack: EvaluatorStack, starts: np.ndarray, settings: OptimizerSettings
) -> list[tuple[np.ndarray, list[float], str, int] | InfeasibleError]:
    """Projected gradient descent with Armijo backtracking, one descent per
    stack member from starts[b], all B of them in lockstep.

    In each round every running descent projects one candidate from its own
    step, scores it, then accepts it or shrinks its own step, exactly as a
    lone descent would; a descent leaves the batch when it stops. Each
    candidate's loads are reduced once, and an accepted one's are reused
    for the next gradient. Per member, returns the last iterate, the
    objective after each accepted step ([0] = start), the stop reason (see
    OptimizeTrace) and the count of rejected candidates, or the
    InfeasibleError a lone descent would have raised.
    """
    margin = settings.stability_margin
    max_iters, min_step = settings.max_iters, settings.min_step
    rel_tol = settings.rel_tol
    step_cap = settings.initial_step * 1e9
    n, rows, cols = starts.shape
    ks, row_idx = np.arange(1, cols + 1), np.arange(n * rows)

    # Per member, by id: Python scalars, which cost less than numpy
    # bookkeeping for the small batches that dominate.
    results: list = [None] * n
    scale = np.abs(starts).max(axis=(1, 2)).tolist()
    tiny = [(1e-16 * max(1.0, x)) ** 2 for x in scale]
    steps = [settings.initial_step] * n
    rejected = [0] * n
    P = starts
    L = stack.loads(P)
    f, amax = stack.objectives(P, L, margin)
    objs = [[x] for x in f]

    def runs_on(k: int, X: np.ndarray, r: int) -> bool:
        # Whether member k, just arrived at X[r], starts another iteration;
        # a lone descent computes the gradient (and checks utilization)
        # first.
        if len(objs[k]) - 1 == max_iters:
            results[k] = (X[r].copy(), objs[k], "max_iters", rejected[k])
        elif amax[k] >= 1.0:
            results[k] = InfeasibleError("gradient requested at an unstable point")
        elif steps[k] < min_step:
            results[k] = (X[r].copy(), objs[k], "step_floor", rejected[k])
        else:
            return True
        return False

    live = []
    for k in range(n):
        if not np.isfinite(f[k]):
            results[k] = InfeasibleError("initial point violates the stability margin")
        elif runs_on(k, P, k):
            live.append(k)
    if not live:
        return results
    if len(live) < n:
        P, L, stack = P[live], L[:, live], stack.take(live)
    G = stack.gradient(L)
    while live:
        b = len(live)
        # A lone descent scales by its Python float step, which costs less
        # than a one-element array and gives the same products.
        if b == 1:
            S = steps[live[0]]
        else:
            S = np.array([steps[k] for k in live])[:, None, None]
        # Every row of the stack is projected on its own, so the (B * J, V)
        # view projects exactly as the B matrices would one by one.
        C = _project(
            (P - S * G).reshape(b * rows, cols), ks, row_idx[: b * rows], cols - 1
        ).reshape(b, rows, cols)
        move_sq = np.add.reduce(np.square(P - C), axis=(1, 2)).tolist()
        Lc = stack.loads(C)
        fc, amax_c = stack.objectives(C, Lc, margin)
        keep, moved = [], []
        for r, k in enumerate(live):
            if move_sq[r] <= tiny[k]:
                # Stationary at this step size; shrinking cannot help.
                results[k] = (P[r].copy(), objs[k], "stationary", rejected[k])
                continue
            step, fk, fr = steps[k], f[k], fc[r]
            if fr <= fk and fr <= fk - _ARMIJO_C1 / step * move_sq[r]:
                f[k], amax[k] = fr, amax_c[r]
                objs[k].append(fr)
                if fk - fr <= rel_tol * max(1.0, abs(fr)):
                    results[k] = (C[r].copy(), objs[k], "rel_tol", rejected[k])
                    continue
                steps[k] = min(step * _STEP_GROWTH, step_cap)
                if runs_on(k, C, r):
                    keep.append(r)
                    moved.append(r)
                continue
            rejected[k] += 1
            steps[k] = step * _STEP_SHRINK
            if steps[k] < min_step:
                results[k] = (P[r].copy(), objs[k], "step_floor", rejected[k])
            else:
                keep.append(r)
        if len(moved) == b:
            P, L = C, Lc
        elif not keep:
            break
        else:
            if moved:
                took = np.zeros(b, dtype=bool)
                took[moved] = True
                P = np.where(took[:, None, None], C, P)
                L = np.where(took[:, None, None], Lc, L)
            if len(keep) < b:
                P, L, G = P[keep], L[:, keep], G[keep]
                stack = stack.take(keep)
                live = [live[r] for r in keep]
            if not moved:
                continue
        G = stack.gradient(L)
    return results


def _starts(
    config: SystemConfig, settings: OptimizerSettings, initial: np.ndarray | None
) -> tuple[Evaluator, list[tuple[str, np.ndarray]]]:
    margin = settings.stability_margin
    _require_network_stable(config, margin)
    ev = Evaluator(config)
    if initial is not None:
        anchors = [("given", require_schedule(initial, config, "initial"))]
    else:
        labels = ("uniform", *PCA_STARTS.values())
        anchors = [(label, _anchor(label, ev.m1)) for label in labels]
    return ev, [(label, _nearest_feasible(a, ev, margin)) for label, a in anchors]


def _solve(
    problems: list[tuple[Evaluator, list[tuple[str, np.ndarray]]]],
    settings: OptimizerSettings,
) -> list[OptimizeTrace | InfeasibleError]:
    """Descend from every start of every problem, one lockstep batch per
    schedule shape, and keep each problem's best descent."""
    members = [(ev, label, p0) for ev, starts in problems for label, p0 in starts]
    by_shape: dict[tuple[int, int], list[int]] = {}
    for m, (_, _, p0) in enumerate(members):
        by_shape.setdefault(p0.shape, []).append(m)
    outcomes: list = [None] * len(members)
    for shape, same in by_shape.items():
        # Split into near-equal batches of at most PGD_BATCH_ENTRIES entries.
        count = -(-len(same) * shape[0] * shape[1] // PGD_BATCH_ENTRIES)
        size = -(-len(same) // count)
        for i in range(0, len(same), size):
            batch = same[i : i + size]
            stack = EvaluatorStack([members[m][0] for m in batch])
            runs = _pgd(stack, np.stack([members[m][2] for m in batch]), settings)
            for m, run in zip(batch, runs):
                outcomes[m] = run
    solved: list[OptimizeTrace | InfeasibleError] = []
    first = 0
    for _, starts in problems:
        runs = outcomes[first : first + len(starts)]
        first += len(starts)
        failed = [run for run in runs if isinstance(run, InfeasibleError)]
        if failed:
            # A lone descent raises, so the first failing start decides.
            solved.append(failed[0])
            continue
        # min keeps the first of equal objectives: the earlier start wins.
        best = min(range(len(runs)), key=lambda s: runs[s][1][-1])
        p, objs, stop, _ = runs[best]
        solved.append(
            OptimizeTrace(
                schedule=p,
                objectives=np.array(objs),
                start=starts[best][0],
                stop_reason=stop,
                starts=tuple(
                    StartRecord(
                        label=label,
                        initial=p0,
                        iterations=len(run[1]) - 1,
                        rejected=run[3],
                        stop_reason=run[2],
                        objective=run[1][-1],
                    )
                    for (label, p0), run in zip(starts, runs)
                ),
            )
        )
    return solved


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
    (trace,) = _solve([_starts(config, settings, initial)], settings)
    if isinstance(trace, InfeasibleError):
        raise trace
    return trace


def optimize_many(
    configs: list[SystemConfig], settings: OptimizerSettings | None = None
) -> list[OptimizeTrace | InfeasibleError | StabilityError]:
    """`optimize_pps` from its three starts for every config, with the
    descents of every config of one schedule shape in one lockstep batch.

    Returns, in config order, the trace `optimize_pps(config, settings)`
    would return or the error it would raise.
    """
    settings = settings or OptimizerSettings()
    problems: list = []
    for config in configs:
        try:
            problems.append(_starts(config, settings, None))
        except (InfeasibleError, StabilityError) as exc:
            problems.append(exc)
    solved = iter(_solve([p for p in problems if isinstance(p, tuple)], settings))
    return [p if isinstance(p, Exception) else next(solved) for p in problems]
