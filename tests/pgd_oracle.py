"""Reference arithmetic the optimizer's hot loop is checked against.

These are the original projected-gradient loop, simplex projection,
objective/gradient evaluation and looped priority waits, kept verbatim as
slow oracles: every iterate, objective and wait the package returns must
equal theirs exactly.
"""

from __future__ import annotations

import numpy as np

from aoisched.analytics import (
    InfeasibleError,
    StabilityError,
    net_service_moments,
    wsept_order,
)
from aoisched.optimizer import OptimizerSettings


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
    """Objective and gradient of one ``analytics.Evaluator``'s config,
    recomputing loads each call."""

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
) -> tuple[np.ndarray, list[float], str]:
    """The original one-descent loop; returns the last iterate, the
    objectives ([0] = start) and the stop reason."""
    margin = settings.stability_margin
    p = p0.copy()
    f = core.value(p, margin)
    if not np.isfinite(f):
        raise InfeasibleError("initial point violates the stability margin")
    objs = [f]
    step = settings.initial_step
    stop = "max_iters"
    scale = max(1.0, float(np.abs(p0).max()))
    for _ in range(settings.max_iters):
        g = core.grad(p)
        accepted = False
        reason = "step_floor"
        while step >= settings.min_step:
            cand = project_simplex_rows(p - step * g)
            move = p - cand
            move_sq = float((move * move).sum())
            if move_sq <= (1e-16 * scale) ** 2:
                reason = "stationary"  # shrinking the step cannot help
                break
            fc = core.value(cand, margin)
            if fc <= f and fc <= f - 1.0e-4 / step * move_sq:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            stop = reason
            break
        drop = f - fc
        p, f = cand, fc
        objs.append(f)
        if drop <= settings.rel_tol * max(1.0, abs(f)):
            stop = "rel_tol"
            break
        step = min(step * 2.0, settings.initial_step * 1e9)
    return p, objs, stop


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
