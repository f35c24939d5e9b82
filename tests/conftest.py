"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aoisched.analytics import (
    Evaluator,
    EvaluatorStack,
    net_service_moments,
    service_moment_matrices,
    stability_report,
)
from aoisched.model import JobClass, ServiceProfile, SystemConfig

# Property tests that run PGD take a variable time per example on a loaded
# host, so no example has a deadline.
settings.register_profile("aoisched", deadline=None)
settings.load_profile("aoisched")


def make_system(
    classes,
    vms,
    net=(112.0, 18.0),
    theta=0.3,
    weighting="paper_theorem1",
    moment_mode="exact",
    **kwargs,
):
    """Build a SystemConfig from (rate, d_size, e_size) and (rate, shift) tuples."""
    return SystemConfig(
        classes=tuple(
            JobClass(arrival_rate=r, compute_size=d, output_size=e)
            for r, d, e in classes
        ),
        vms=tuple(ServiceProfile(rate=a, shift=b) for a, b in vms),
        network=ServiceProfile(rate=net[0], shift=net[1]),
        theta=theta,
        aoi_network_weighting=weighting,
        moment_mode=moment_mode,
        **kwargs,
    )


def objective(p, config, networking="priority"):
    """The tradeoff objective theta * C + (1 - theta) * A at p. It reads the
    Evaluator that weighted_metrics wraps, as a central difference steps off
    the schedule simplex that weighted_metrics requires."""
    ev = Evaluator(config, networking)
    *_, aoi, completion = ev.classes(np.asarray(p, dtype=np.float64))
    wc, wa = ev.weighted(aoi, completion)
    return config.theta * wc + (1.0 - config.theta) * wa


def objective_gradient(p, config):
    """The optimizer's gradient of the objective at schedule p."""
    stack = EvaluatorStack([Evaluator(config)])
    return stack.gradient(stack.loads(np.asarray(p, dtype=np.float64)[None]))[0]


def near_limit(build, load, lam, target, rng, ulps):
    """build(lam) with the rates lam scaled so that load(config) lies within
    a few units in the last place of target, on a random side of it."""
    for _ in range(2):
        lam = lam * (target / load(build(lam)))
    return build(lam * (1.0 + int(rng.integers(-ulps, ulps + 1)) * 2.0**-53))


def near_limit_link(rng, target):
    """One fast VM and J random classes whose link utilization lies within
    3 ulps of target."""
    J = int(rng.integers(2, 41))
    sizes = rng.uniform(0.5, 1.5, J).tolist()

    def build(lam):
        return make_system([(r, 0.01, e) for r, e in zip(lam, sizes)], [(1e3, 0.0)])

    def load(cfg):
        return stability_report(np.ones((J, 1)), cfg, 0.0).network_utilization

    return near_limit(build, load, rng.uniform(0.5, 1.5, J), target, rng, 3)


def random_instance(rng, equal_d=False, j_max=6, v_max=4, theta=None):
    """Random stable instance: every schedule keeps all queues under 0.8 load.

    Worst-case VM load (all classes on their slowest VM) is scaled to 0.8, so
    any row-stochastic matrix is feasible; useful for property tests that
    sample schedules freely.
    """
    J = int(rng.integers(3, j_max + 1))
    V = int(rng.integers(2, v_max + 1))
    vms = [
        (float(rng.uniform(0.03, 0.12)), float(rng.uniform(0.0, 5.0)))
        for _ in range(V)
    ]
    if equal_d:
        dsz = np.full(J, float(rng.uniform(0.5, 2.0)))
    else:
        dsz = rng.uniform(0.5, 2.0, J)
    esz = rng.uniform(0.5, 1.5, J)
    lam = rng.uniform(0.5, 1.5, J)
    worst_m1 = np.array([max(b * d + d / a for a, b in vms) for d in dsz])
    lam = lam / float(lam @ worst_m1) * 0.8
    net_m1 = esz * (18.0 + 1.0 / 112.0)
    s = float(lam @ net_m1)
    if s > 0.8:
        lam = lam * (0.8 / s)
    if theta is None:
        theta = float(rng.uniform(0.0, 1.0))
    classes = [(float(lam[j]), float(dsz[j]), float(esz[j])) for j in range(J)]
    return make_system(classes, vms, theta=theta)


@st.composite
def instances(draw, j_max=8, v_max=4):
    """Hypothesis counterpart of random_instance, with drawn load levels.

    Rates are scaled so the worst-case VM load (all classes on their slowest
    VM) is a drawn fraction of 1, so any row-stochastic schedule is stable;
    output sizes are scaled so the link load is another drawn fraction.
    """

    def floats(lo, hi, n):
        return draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))

    J = draw(st.integers(1, j_max))
    V = draw(st.integers(1, v_max))
    vms = list(zip(floats(0.03, 0.12, V), floats(0.0, 5.0, V)))
    dsz = floats(0.5, 2.0, J)
    esz = np.array(floats(0.5, 1.5, J))
    lam = np.array(floats(0.5, 1.5, J))
    vm_load, link_load = floats(0.05, 0.95, 2)
    theta = draw(st.floats(0.0, 1.0))
    weighting = draw(st.sampled_from(["paper_theorem1", "unweighted"]))
    moment_mode = draw(st.sampled_from(["exact", "paper_literal"]))

    def build(lam, esz):
        return make_system(
            list(zip(lam, dsz, esz)),
            vms,
            theta=theta,
            weighting=weighting,
            moment_mode=moment_mode,
        )

    cfg = build(lam, esz)
    worst_m1 = service_moment_matrices(cfg)[0].max(axis=1)
    lam = lam * (vm_load / float(lam @ worst_m1))
    # The mean network service is linear in the output size.
    esz = esz * (link_load / float(lam @ net_service_moments(build(lam, esz))[0]))
    return build(lam, esz)


@st.composite
def schedules(draw, config):
    """A row-stochastic schedule for config with every entry positive."""
    shape = (config.num_classes, config.num_vms)
    raw = draw(arrays(np.float64, shape, elements=st.floats(0.01, 1.0)))
    return raw / raw.sum(axis=1, keepdims=True)


@pytest.fixture
def tiny_config():
    # Two light classes on two exponential VMs; stable under any schedule.
    return make_system(
        [(0.004, 1.0, 1.0), (0.003, 1.0, 0.8)],
        [(0.05, 0.0), (0.04, 0.0)],
    )
