"""Closed-form age and completion analytics for the two-phase system.

Phase 1: each VM is an M/G/1 queue fed by the Poisson thinning that the
schedule matrix p induces (entry p[j, v] is the probability a class-j job is
assigned to VM v). Phase 2: all compute departures share one non-preemptive
priority M/G/1 link, with priority order given by the weighted shortest
expected processing time rule. Mean waits come from the Pollaczek-Khinchine
formula and its priority generalization; both need only the first two service
moments, so everything here is exact given Poisson arrivals at each queue.

Per-class results, with share_j = rate_j / total_rate:
    completion_j = sum_v p[j,v] * (W1_v + S1_jv) + W2_j + S2_j
    age_j        = sum_v p[j,v] * S1_jv + c_j * (W2_j + S2_j)
where c_j = share_j under the "paper_theorem1" weighting and 1 otherwise.
The scalar objective is sum_j share_j * (theta * completion_j +
(1 - theta) * age_j).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import ConfigError, SystemConfig, fraction, require_numbers, write_table

# A queue meets a stability margin m when its utilization is at most
# margin_limit(m), in the optimizer and in stability_report alike; analytic
# formulas only hard-fail at 1.
STABILITY_MARGIN = 1e-3


class StabilityError(RuntimeError):
    """A queueing formula was evaluated at or beyond its stability limit."""


class InfeasibleError(RuntimeError):
    """No schedule can satisfy the stability margin."""


def margin_limit(margin: float) -> float:
    """Largest utilization that meets the margin: 1 - margin plus 1e-12 of
    float slack, but never above 1 - 1e-10. `Evaluator.classes` sums a VM's
    load in another order, which can move it by a few ulps; that headroom
    keeps every load that meets a margin of 0 below 1 there too."""
    return min(1.0 - margin + 1e-12, 1.0 - 1e-10)


def check_schedule(p: np.ndarray, config: SystemConfig | None = None) -> list[str]:
    """Rule violations for a schedule matrix; empty list means valid."""
    problems: list[str] = []
    try:
        p = np.asarray(p, dtype=np.float64)
    except (TypeError, ValueError):  # text, None entries or ragged rows
        return ["schedule must be an array of numbers"]
    if p.ndim != 2:
        return [f"schedule must be 2-D, got shape {p.shape}"]
    if config is not None and p.shape != (config.num_classes, config.num_vms):
        problems.append(
            f"schedule shape {p.shape} does not match "
            f"(J={config.num_classes}, V={config.num_vms})"
        )
    if not np.all(np.isfinite(p)):
        return problems + ["schedule entries must be finite"]
    if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
        problems.append("schedule entries must lie in [0, 1]")
    bad_rows = np.where(np.abs(p.sum(axis=1) - 1.0) > 1e-9)[0]
    if bad_rows.size:
        problems.append(
            f"schedule rows {(bad_rows + 1).tolist()} do not sum to 1 within 1e-9"
        )
    return problems


def require_schedule(p: np.ndarray, config: SystemConfig, name: str) -> np.ndarray:
    """p as a float array, or a ConfigError naming the argument `name` with
    every problem check_schedule finds in it."""
    problems = check_schedule(p, config)
    if problems:
        raise ConfigError(f"{name}: " + "; ".join(problems))
    return np.asarray(p, dtype=np.float64)


def _shifted_exp_moments(b, inv_rate, moment_mode: str):
    """First and second moments of b + Exp with mean inv_rate.

    The exact second moment is (b + 1/a)^2 + 1/a^2 expanded below; the
    "paper_literal" mode reproduces a published variant b^2 + b + (b+2)/a
    that drops the size scaling on its middle terms.
    """
    m1 = b + inv_rate
    if moment_mode == "paper_literal":
        m2 = b * b + b + (b + 2.0) * inv_rate
    else:
        m2 = b * b + 2.0 * b * inv_rate + 2.0 * inv_rate * inv_rate
    return m1, m2


def service_moment_matrices(config: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """First and second compute-service moments, shape (J, V).

    A class-j job on VM v is served in shift*size + Exp(rate/size) ms.
    """
    numbers = config.numbers
    d = numbers.compute_sizes[:, None]
    return _shifted_exp_moments(
        numbers.vm_shifts * d, d / numbers.vm_rates, config.moment_mode
    )


def net_service_moments(config: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """First and second network-service moments per class, shape (J,) each."""
    numbers = config.numbers
    e = numbers.output_sizes
    b = numbers.link_shift * e
    return _shifted_exp_moments(b, e / numbers.link_rate, config.moment_mode)


def wsept_order(config: SystemConfig) -> np.ndarray:
    """Class ids ordered by decreasing (w_j + g_j) / output_size.

    w_j + g_j = rate_j / total_rate regardless of theta, so the order only
    depends on arrival rates and output sizes. Ties break toward the lower
    class id.
    """
    key = wsept_keys(config.arrival_rates(), config.output_sizes())
    ids = np.arange(1, config.num_classes + 1)
    order = np.lexsort((ids, -key))
    return ids[order]


def wsept_keys(rates: np.ndarray, output_sizes: np.ndarray) -> np.ndarray:
    """Per-class priority key, rate share over output size; larger goes first."""
    return (rates / rates.sum()) / output_sizes


def link_utilization(config: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """WSEPT priority order (class ids, highest first) and the link's
    cumulative utilization through each priority level, summed in that
    order. The last entry is the link's utilization, which every network
    stability verdict reads."""
    order = wsept_order(config)
    mean_s2, _ = net_service_moments(config)
    return order, np.cumsum((config.arrival_rates() * mean_s2)[order - 1])


def priority_waiting_times(config: SystemConfig) -> np.ndarray:
    """Mean network wait per class (class-id order) under WSEPT priorities."""
    lam = config.arrival_rates()
    _, m2_s2 = net_service_moments(config)
    residual = float(np.dot(lam, m2_s2)) / 2.0
    order, cum = link_utilization(config)
    order = order - 1
    full = np.flatnonzero(cum >= 1.0)
    if full.size:
        level = int(full[0])
        raise StabilityError(
            f"networking queue unstable at priority level {level + 1} "
            f"(class {order[level] + 1}): cumulative utilization "
            f"{cum[level]:.6f} >= 1"
        )
    cum_prev = np.concatenate(([0.0], cum[:-1]))
    waits = np.empty(config.num_classes, dtype=np.float64)
    waits[order] = residual / ((1.0 - cum_prev) * (1.0 - cum))
    return waits


def fcfs_waiting_time(config: SystemConfig) -> float:
    """Mean network wait if the link served FCFS instead of by priority."""
    lam = config.arrival_rates()
    mean_s2, m2_s2 = net_service_moments(config)
    rho = float(np.dot(lam, mean_s2))
    if rho >= 1.0:
        raise StabilityError(
            f"networking queue unstable: utilization {rho:.6f} >= 1"
        )
    residual = float(np.dot(lam, m2_s2)) / 2.0
    return residual / (1.0 - rho)


class Evaluator:
    """The objective's schedule-independent pieces, computed once per config.

    Holds the service moments, traffic shares, AoI network weights c_j and
    the per-class network waits under one discipline, all as read-only
    arrays. `classes` gives the per-class results at a schedule and
    `weighted` their share-weighted means. The optimizer's objective and
    gradient, with the p-independent network terms folded into one
    constant, are `EvaluatorStack`'s: one config is a stack of one.
    `Evaluator.of` keeps one per config instance and discipline.
    """

    def __init__(self, config: SystemConfig, networking: str = "priority"):
        self.lam = config.arrival_rates()
        self.total = float(self.lam.sum())
        self.share = self.lam / self.total
        self.theta = config.theta
        self.m1, self.m2 = service_moment_matrices(config)
        self.mean_s2, _ = net_service_moments(config)
        if networking == "priority":
            self.w2 = priority_waiting_times(config)
        elif networking == "fcfs":
            self.w2 = np.full(config.num_classes, fcfs_waiting_time(config))
        else:
            raise ValueError(
                f"networking must be 'priority' or 'fcfs', got {networking!r}"
            )
        if config.aoi_network_weighting == "paper_theorem1":
            self.c = self.share
        else:
            self.c = np.ones(config.num_classes)
        weight = self.share * (self.theta + (1.0 - self.theta) * self.c)
        self.net_const = float(np.dot(weight, self.w2 + self.mean_s2))
        self.lin = self.share[:, None] * self.m1
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @classmethod
    def of(cls, config: SystemConfig, networking: str = "priority") -> Evaluator:
        """The Evaluator of `config` under `networking`, built on first use
        and kept on the config instance, as its `numbers` are: a solve, the
        scores of its schedules and their report share one."""
        cache = vars(config).setdefault("_evaluators", {})
        if networking not in cache:
            cache[networking] = cls(config, networking)
        return cache[networking]

    def classes(self, p: np.ndarray):
        """Per-class (w1, s1, w2, s2, aoi, completion) at schedule p."""
        p = np.asarray(p, dtype=np.float64)
        # Pollaczek-Khinchine wait per VM, Lambda_v E[Z^2] / (2 (1 - rho_v)),
        # with mixture moments weighted by the flow p[j,v] rate_j; a VM that
        # receives no traffic has zero moments. This rho_v only hard-fails
        # at 1: margin verdicts read vm_utilization's.
        lam_v = p.T @ self.lam
        flow = p * self.lam[:, None]
        flow_v = flow.sum(axis=0)
        nz = flow_v > 0.0
        ez, ez2 = np.zeros((2, lam_v.size))
        ez[nz] = (flow * self.m1).sum(axis=0)[nz] / flow_v[nz]
        ez2[nz] = (flow * self.m2).sum(axis=0)[nz] / flow_v[nz]
        rho = lam_v * ez
        bad = np.flatnonzero(rho >= 1.0)
        if bad.size:
            v = int(bad[0])
            raise StabilityError(
                f"compute queue at VM {v + 1} unstable: utilization {rho[v]:.6f} >= 1"
            )
        s1 = (p * self.m1).sum(axis=1)
        w1 = p @ (lam_v * ez2 / (2.0 * (1.0 - rho)))
        aoi = s1 + self.c * (self.w2 + self.mean_s2)
        completion = w1 + s1 + self.w2 + self.mean_s2
        return w1, s1, self.w2, self.mean_s2, aoi, completion

    def weighted(self, aoi, completion) -> tuple[float, float]:
        """(weighted completion, weighted age) of per-class vectors."""
        return float(np.dot(self.share, completion)), float(np.dot(self.share, aoi))


class EvaluatorStack:
    """The objective and its gradient for B evaluators of one schedule shape.

    Each evaluator's constants sit on a leading batch axis, so one call
    scores a (B, J, V) stack of schedules, member b against evaluator b.
    Every member gets the float operations, in the order, that a stack of
    one gives it: the products are elementwise, and each reduction runs
    over one member's entries only (see `loads` and `objectives`).
    """

    def __init__(self, evaluators):
        evs = list(evaluators)
        m1 = np.array([ev.m1 for ev in evs])
        self.weights = np.array([np.ones_like(m1), m1, [ev.m2 for ev in evs]])
        self.m1, self.m2 = self.weights[1], self.weights[2]
        self.lam_col = np.array([ev.lam[:, None] for ev in evs])
        self.lin = np.array([ev.lin for ev in evs])
        self.grad_scale = np.array(
            [(ev.theta / ev.total) * ev.lam[:, None] for ev in evs]
        )
        self.theta = [ev.theta for ev in evs]
        self.total = [ev.total for ev in evs]
        self.net_const = [ev.net_const for ev in evs]

    def take(self, rows: list[int]) -> EvaluatorStack:
        """The stack of the members at `rows`, in that order."""
        out = copy.copy(self)
        out.weights = self.weights[:, rows]
        out.m1, out.m2 = out.weights[1], out.weights[2]
        out.lam_col, out.lin = self.lam_col[rows], self.lin[rows]
        out.grad_scale = self.grad_scale[rows]
        out.theta = [self.theta[r] for r in rows]
        out.total = [self.total[r] for r in rows]
        out.net_const = [self.net_const[r] for r in rows]
        return out

    def loads(self, P: np.ndarray) -> np.ndarray:
        """Rows Lambda_v, utilization rho_v and Lambda_v * E[Z^2] per VM,
        shape (3, B, 1, V), for schedules P of shape (B, J, V).

        One reduction over the class axis of the (3, B, J, V) stack. Each
        (k, b) slab is summed exactly as its own ``.sum(axis=0)`` would be,
        also at V = 1, where numpy sums the (J, 1) column pairwise; a stack
        with the class axis outside the (3, B) axes differs there in the
        last bits.
        """
        return np.add.reduce(
            (self.lam_col * P) * self.weights, axis=2, keepdims=True
        )

    def objectives(
        self, P: np.ndarray, loads: np.ndarray, margin: float = 0.0
    ) -> tuple[list[float], list[float]]:
        """Objective of each member (+inf past the stability margin) and its
        largest VM utilization, both as Python floats.

        `loads` are `self.loads(P)`, which the gradient at an accepted
        point reuses. A member's waits are summed only when it is inside
        the margin, so a member past it raises no floating-point warning.
        """
        lam_v, a, b = loads
        amax = np.maximum.reduce(a, axis=(1, 2)).tolist()
        limit = margin_limit(margin)
        inside = [i for i, x in enumerate(amax) if not x > limit]
        if len(inside) < len(amax):
            lam_v, a, b = loads[:, inside]
        waits = np.add.reduce(lam_v * b / (2.0 * (1.0 - a)), axis=(1, 2)).tolist()
        lin = np.add.reduce(self.lin * P, axis=(1, 2)).tolist()
        theta, total, net_const = self.theta, self.total, self.net_const
        out = [np.inf] * len(amax)
        for i, wait in zip(inside, waits):
            out[i] = lin[i] + theta[i] * wait / total[i] + net_const[i]
        return out, amax

    def gradient(self, loads: np.ndarray) -> np.ndarray:
        """Gradient in P at the points whose `loads` these are.

        Callers check first that no utilization reaches 1.
        """
        lam_v, a, b = loads
        slack = 1.0 - a
        denom = 2.0 * slack
        t1 = (b + lam_v * self.m2) / denom
        t2 = (lam_v * b) * self.m1 / (denom * slack)
        return self.lin + self.grad_scale * (t1 + t2)


def weighted_metrics(
    p: np.ndarray, config: SystemConfig, networking: str = "priority"
) -> tuple[float, float]:
    """(weighted completion, weighted age), both share-weighted over classes."""
    require_numbers(config)
    ev = Evaluator.of(config, networking)
    *_, aoi, completion = ev.classes(require_schedule(p, config, "p"))
    return ev.weighted(aoi, completion)


def vm_utilization(lam: np.ndarray, m1: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Utilization of each VM under schedule p, from the arrival rates lam
    and the (J, V) mean compute times m1: EvaluatorStack.loads' utilization
    row, bit for bit, and the one load every margin verdict reads."""
    return ((lam[:, None] * p) * m1).sum(axis=0)


@dataclass(frozen=True)
class StabilityReport:
    vm_utilization: np.ndarray
    network_utilization: float
    network_cumulative: np.ndarray  # cumulative rho per priority level
    priority_order: np.ndarray  # class ids, highest priority first
    margin: float
    stable: bool


def stability_report(
    p: np.ndarray, config: SystemConfig, margin: float = STABILITY_MARGIN
) -> StabilityReport:
    """Utilizations of every queue plus a margin-aware stability verdict."""
    fraction(margin, "margin")
    require_numbers(config)
    p = require_schedule(p, config, "p")
    m1, _ = service_moment_matrices(config)
    rho_vm = vm_utilization(config.arrival_rates(), m1, p)
    order, cum = link_utilization(config)
    network = float(cum[-1]) if cum.size else 0.0
    limit = margin_limit(margin)
    return StabilityReport(
        vm_utilization=rho_vm,
        network_utilization=network,
        network_cumulative=cum,
        priority_order=order,
        margin=margin,
        stable=bool(np.all(rho_vm <= limit) and network <= limit),
    )


# Per-class report columns after class_id, each with its AnalyticReport field.
_REPORT_FIELDS = {
    "arrival_rate": "arrival_rates",
    "mean_wait_compute": "wait_compute",
    "mean_service_compute": "service_compute",
    "mean_wait_network": "wait_network",
    "mean_service_network": "service_network",
    "mean_aoi": "aoi",
    "mean_completion": "completion",
}
REPORT_COLUMNS = ["class_id", *_REPORT_FIELDS]


@dataclass(frozen=True)
class AnalyticReport:
    """All closed-form per-class and per-VM results for one schedule."""

    class_ids: np.ndarray
    arrival_rates: np.ndarray
    wait_compute: np.ndarray
    service_compute: np.ndarray
    wait_network: np.ndarray
    service_network: np.ndarray
    aoi: np.ndarray
    completion: np.ndarray
    vm_rates: np.ndarray
    vm_utilization: np.ndarray
    priority_order: np.ndarray
    weighted_completion: float
    weighted_aoi: float
    objective: float
    theta: float
    moment_mode: str
    networking: str

    def _class_rows(self) -> list[list]:
        """The per-class table under REPORT_COLUMNS, one row per class."""
        return [
            [int(self.class_ids[j])]
            + [float(getattr(self, a)[j]) for a in _REPORT_FIELDS.values()]
            for j in range(len(self.class_ids))
        ]

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "moment_mode": self.moment_mode,
            "networking": self.networking,
            "objective": self.objective,
            "weighted_completion": self.weighted_completion,
            "weighted_aoi": self.weighted_aoi,
            "priority_order": [int(x) for x in self.priority_order],
            "vm_rates": [float(x) for x in self.vm_rates],
            "vm_utilization": [float(x) for x in self.vm_utilization],
            "classes": [dict(zip(REPORT_COLUMNS, row)) for row in self._class_rows()],
        }

    def write_csv(self, path: str | Path) -> None:
        write_table(path, REPORT_COLUMNS, self._class_rows())


def analytic_report(
    p: np.ndarray,
    config: SystemConfig,
    networking: str = "priority",
) -> AnalyticReport:
    """Evaluate every closed-form quantity for one schedule."""
    require_numbers(config)
    p = require_schedule(p, config, "p")
    ev = Evaluator.of(config, networking)
    w1, s1, w2, mean_s2, aoi, completion = ev.classes(p)
    wc, wa = ev.weighted(aoi, completion)
    stability = stability_report(p, config)
    return AnalyticReport(
        class_ids=np.arange(1, config.num_classes + 1),
        arrival_rates=ev.lam,
        wait_compute=w1,
        service_compute=s1,
        wait_network=w2,
        service_network=mean_s2,
        aoi=aoi,
        completion=completion,
        vm_rates=p.T @ ev.lam,
        vm_utilization=stability.vm_utilization,
        priority_order=stability.priority_order,
        weighted_completion=wc,
        weighted_aoi=wa,
        objective=config.theta * wc + (1.0 - config.theta) * wa,
        theta=config.theta,
        moment_mode=config.moment_mode,
        networking=networking,
    )
