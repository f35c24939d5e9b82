"""Reference arithmetic the optimizer's hot loop is checked against.

These are the original projected-gradient loop, simplex projection,
objective/gradient evaluation, two-stage descent and looped priority waits,
kept verbatim as slow oracles: every iterate, objective and wait the package
returns must equal theirs exactly.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from aoisched.analytics import (
    Evaluator,
    InfeasibleError,
    StabilityError,
    net_service_moments,
    wsept_order,
)
from aoisched.optimizer import (
    OptimizerSettings,
    TwoStageSchedule,
    expand_two_stage,
    feasible_init,
)


def project_simplex_rows(m: np.ndarray) -> np.ndarray:
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    u = np.sort(m, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    ks = np.arange(1, m.shape[1] + 1)
    cond = u - (css - 1.0) / ks > 0.0
    # rho: last index where cond holds; cond[:, 0] is always true.
    rho = m.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
    tau = (css[np.arange(m.shape[0]), rho] - 1.0) / (rho + 1.0)
    return np.maximum(m - tau[:, None], 0.0)


class EvaluatorOracle:
    """value/grad of an ``analytics.Evaluator``, recomputing loads each call."""

    def __init__(self, ev):
        self.lam = ev.lam
        self.total = ev.total
        self.theta = ev.theta
        self.m1, self.m2 = ev.m1, ev.m2
        self.net_const = ev.net_const
        self.lin = ev.lin

    def _loads(self, p: np.ndarray):
        flow = self.lam[:, None] * p
        lam_v = flow.sum(axis=0)
        a = (flow * self.m1).sum(axis=0)  # utilization per VM
        b = (flow * self.m2).sum(axis=0)  # Lambda_v * E[Z^2] per VM
        return lam_v, a, b

    def utilization(self, p: np.ndarray) -> np.ndarray:
        return self._loads(p)[1]

    def value(self, p: np.ndarray, margin: float = 0.0) -> float:
        """Objective at p; +inf past the stability margin."""
        lam_v, a, b = self._loads(p)
        if np.any(a > 1.0 - margin + 1e-12):
            return np.inf
        wait_part = float(np.sum(lam_v * b / (2.0 * (1.0 - a))))
        return float(
            np.sum(self.lin * p)
            + self.theta * wait_part / self.total
            + self.net_const
        )

    def grad(self, p: np.ndarray) -> np.ndarray:
        lam_v, a, b = self._loads(p)
        if np.any(a >= 1.0):
            raise InfeasibleError("gradient requested at an unstable point")
        denom = 2.0 * (1.0 - a)
        t1 = (b[None, :] + lam_v[None, :] * self.m2) / denom[None, :]
        t2 = (lam_v * b)[None, :] * self.m1 / (denom * (1.0 - a))[None, :]
        return self.lin + (self.theta / self.total) * self.lam[:, None] * (t1 + t2)


def pgd(
    core, p0: np.ndarray, settings: OptimizerSettings
) -> tuple[np.ndarray, list[float], bool]:
    margin = settings.stability_margin
    p = p0.copy()
    f = core.value(p, margin)
    if not np.isfinite(f):
        raise InfeasibleError("initial point violates the stability margin")
    objs = [f]
    step = settings.initial_step
    converged = False
    scale = max(1.0, float(np.abs(p0).max()))
    for _ in range(settings.max_iters):
        g = core.grad(p)
        accepted = False
        while step >= settings.min_step:
            cand = project_simplex_rows(p - step * g)
            move = p - cand
            move_sq = float((move * move).sum())
            if move_sq <= (1e-16 * scale) ** 2:
                break  # stationary at this step size; shrinking cannot help
            fc = core.value(cand, margin)
            if fc <= f and fc <= f - settings.armijo_c1 / step * move_sq:
                accepted = True
                break
            step *= settings.armijo_shrink
        if not accepted:
            converged = True
            break
        drop = f - fc
        p, f = cand, fc
        objs.append(f)
        if drop <= settings.rel_tol * max(1.0, abs(f)):
            converged = True
            break
        step = min(step * settings.step_growth, settings.initial_step * 1e9)
    return p, objs, converged


def two_stage(config, num_tors, settings=None, rounds=4):
    """optimize_two_stage's descent with its two nested factor adapters."""
    settings = settings or OptimizerSettings()
    margin = settings.stability_margin
    J, V = config.num_classes, config.num_vms
    ts = TwoStageSchedule(
        pi=np.full((J, num_tors), 1.0 / num_tors),
        tor=np.full((num_tors, V), 1.0 / V),
    )
    q, flat = expand_two_stage(ts, config)
    core = EvaluatorOracle(Evaluator(flat))
    if not np.isfinite(core.value(q, margin)):
        p = feasible_init(config, margin)
        ts = TwoStageSchedule(pi=ts.pi, tor=np.tile(p.mean(axis=0), (num_tors, 1)))
        q, _ = expand_two_stage(ts, config)
        if not np.isfinite(core.value(q, margin)):
            raise InfeasibleError("no feasible two-stage starting point found")

    def value(ts: TwoStageSchedule) -> float:
        q, _ = expand_two_stage(ts, config)
        return core.value(q, margin)

    objs = [value(ts)]
    half = replace(settings, max_iters=max(settings.max_iters // (2 * rounds), 50))
    for _ in range(rounds):
        pi, tor = ts.pi, ts.tor

        class _PiCore:
            def value(self, x, margin=margin):
                return core.value(
                    (x[:, :, None] * tor[None, :, :]).reshape(J, -1), margin
                )

            def grad(self, x):
                g = core.grad((x[:, :, None] * tor[None, :, :]).reshape(J, -1))
                return np.einsum("juv,uv->ju", g.reshape(J, num_tors, V), tor)

        pi_new, pi_objs, _ = pgd(_PiCore(), pi, half)
        ts = TwoStageSchedule(pi=pi_new, tor=tor)
        objs.extend(pi_objs[1:])

        pi = ts.pi

        class _TorCore:
            def value(self, x, margin=margin):
                return core.value(
                    (pi[:, :, None] * x[None, :, :]).reshape(J, -1), margin
                )

            def grad(self, x):
                g = core.grad((pi[:, :, None] * x[None, :, :]).reshape(J, -1))
                return np.einsum("juv,ju->uv", g.reshape(J, num_tors, V), pi)

        tor_new, tor_objs, _ = pgd(_TorCore(), ts.tor, half)
        ts = TwoStageSchedule(pi=pi, tor=tor_new)
        objs.extend(tor_objs[1:])
    return ts, np.array(objs)


def priority_waiting_times(config) -> np.ndarray:
    lam = config.arrival_rates()
    mean_s2, m2_s2 = net_service_moments(config)
    residual = float(np.dot(lam, m2_s2)) / 2.0
    order = wsept_order(config) - 1
    rho = lam * mean_s2
    waits = np.empty(config.num_classes, dtype=np.float64)
    cum_prev = 0.0
    for level, j in enumerate(order):
        cum = cum_prev + rho[j]
        if cum >= 1.0:
            raise StabilityError(
                f"networking queue unstable at priority level {level + 1} "
                f"(class {j + 1}): cumulative utilization {cum:.6f} >= 1"
            )
        waits[j] = residual / ((1.0 - cum_prev) * (1.0 - cum))
        cum_prev = cum
    return waits
