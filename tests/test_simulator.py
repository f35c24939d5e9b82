import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoisched import _kernels, simulator
from aoisched.model import ConfigError, default_config
from aoisched.simulator import (
    ScriptedJob,
    SimConfig,
    assign_vms,
    group_by_class,
    interdeparture_stats,
    merged_arrivals,
    network_start_times,
    policy_tradeoff_example,
    run_simulation,
    scripted_arrivals,
    service_times,
)

from conftest import instances, make_system, schedules
from scan_oracles import assign_vms_per_class, fcfs_scan, merged_arrivals_per_class


def test_interdeparture_needs_three_points():
    assert np.isnan(interdeparture_stats(np.array([1.0, 2.0]))[0])
    mean, cv = interdeparture_stats(np.array([0.0, 1.0, 2.0, 3.0]))
    assert mean == 1.0 and cv == 0.0


def test_assign_vms_degenerate_and_boundary():
    p = np.array([[1.0, 0.0], [0.0, 1.0]])
    cls = np.array([0, 0, 1, 1])
    u = np.array([0.0, 0.999999, 0.0, 0.999999])
    np.testing.assert_array_equal(assign_vms(u, p, cls), [0, 0, 1, 1])
    # Split row: mass below 0.5 goes left, at or above goes right.
    p2 = np.array([[0.5, 0.5]])
    u2 = np.array([0.0, 0.499, 0.5, 0.999])
    np.testing.assert_array_equal(assign_vms(u2, p2, np.zeros(4, int)), [0, 0, 1, 1])


@given(
    n_classes=st.integers(1, 400),
    n_vms=st.integers(1, 6),
    n=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_assign_vms_matches_per_class_loop(n_classes, n_vms, n, seed):
    rng = np.random.default_rng(seed)
    p = rng.random((n_classes, n_vms))
    p[rng.random(p.shape) < 0.4] = 0.0  # rows with zero entries
    p[p.sum(axis=1) == 0.0, 0] = 1.0
    p /= p.sum(axis=1, keepdims=True)
    short = rng.random(n_classes) < 0.3
    p[short] *= 1.0 - 1e-12  # cumulative sums ending just below 1
    cls = rng.integers(0, n_classes, n)
    u = rng.random(n)
    # Uniforms landing exactly on a cumulative entry, on 0 and just below 1.
    pcum = np.cumsum(p, axis=1)
    on_edge = rng.random(n) < 0.3
    u[on_edge] = pcum[cls[on_edge], rng.integers(0, n_vms, n)[on_edge]]
    u[rng.random(n) < 0.05] = 0.0
    u[rng.random(n) < 0.05] = np.nextafter(1.0, 0.0)
    np.testing.assert_array_equal(
        assign_vms(u, p, cls), assign_vms_per_class(u, p, cls)
    )


def _same_draws(rates, horizon, seed):
    """merged_arrivals against the per-class oracle, streams included."""
    rng = np.random.Generator(np.random.PCG64DXSM(seed))
    ref = np.random.Generator(np.random.PCG64DXSM(seed))
    t, cls = merged_arrivals(rng, rates, horizon)
    t_ref, cls_ref = merged_arrivals_per_class(ref, rates, horizon)
    # Plain asserts: a failing example then costs no array formatting while
    # hypothesis shrinks it.
    assert np.array_equal(t, t_ref)
    assert np.array_equal(cls, cls_ref)
    assert cls.dtype == np.min_scalar_type(len(rates) - 1)
    # The next draw after the call comes from the same place in the stream.
    assert rng.bit_generator.state == ref.bit_generator.state


# (class count, horizon, seed); rates come from the seed, so a failing case
# shrinks over three numbers only.
_arrival_cases = st.tuples(
    st.integers(1, 400), st.floats(0.5, 60.0), st.integers(0, 2**32 - 1)
)


def _rates(n_classes, seed):
    return 10.0 ** np.random.default_rng(seed).uniform(-3.0, 0.3, n_classes)


@given(_arrival_cases)
def test_merged_arrivals_matches_per_class_draws(case):
    n_classes, horizon, seed = case
    _same_draws(_rates(n_classes, seed), horizon, seed)


@given(_arrival_cases, st.data())
def test_merged_arrivals_fallback_matches_per_class_draws(case, data):
    n_classes, horizon, seed = case
    rates = _rates(n_classes, seed)
    short = data.draw(st.integers(0, n_classes - 1))
    # At rate 100 / horizon one gap exceeds the horizon with probability
    # e**-100, so this class's one-draw block always ends short of it.
    rates[short] = 100.0 / horizon
    real_sizes = simulator._block_sizes
    real_arrivals = simulator._poisson_arrivals
    calls = []

    def too_small(rates, horizon):
        sizes = real_sizes(rates, horizon)
        sizes[short] = 1
        return sizes

    def counted(*args):
        calls.append(args)
        return real_arrivals(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(simulator, "_block_sizes", too_small)
        m.setattr(simulator, "_poisson_arrivals", counted)
        _same_draws(rates, horizon, seed)
    assert len(calls) == len(rates)  # the per-class path ran


@pytest.mark.parametrize("n_classes", [255, 256])
def test_class_codes_are_narrow_and_event_log_ids_do_not_wrap(n_classes):
    rng = np.random.Generator(np.random.PCG64DXSM(n_classes))
    _, cls = merged_arrivals(rng, np.full(n_classes, 0.5), 40.0)
    assert cls.dtype == np.min_scalar_type(n_classes - 1)
    assert np.unique(cls).tolist() == list(range(n_classes))
    config = default_config(n_classes).with_rates(np.full(n_classes, 1e-4))
    p = np.full((n_classes, config.num_vms), 1.0 / config.num_vms)
    sim = SimConfig(horizon=3.0e5, replications=1, seed=1, collect_event_log=True)
    log = run_simulation(config, p, sim).event_log
    assert log.class_id.dtype == np.int64
    assert np.unique(log.class_id).tolist() == list(range(1, n_classes + 1))


@pytest.mark.parametrize("n_vms", [255, 256])
def test_vm_codes_are_narrow_and_stay_below_the_vm_count(n_vms):
    # Row 1 ends short of 1, so a uniform above its last cumulative entry
    # counts every VM, n_vms itself, before the cap to the last one.
    p = np.full((2, n_vms), 1.0 / n_vms)
    p[1] = 0.0
    p[1, -1] = 1.0 - 1e-12
    rng = np.random.default_rng(n_vms)
    m = 4000
    cls = rng.integers(0, 2, m)
    u = rng.random(m)
    u[::5] = np.nextafter(1.0, 0.0)
    u[1::5] = 0.0
    vm_idx = assign_vms(u, p, cls)
    assert vm_idx.dtype == np.min_scalar_type(n_vms)
    np.testing.assert_array_equal(vm_idx, assign_vms_per_class(u, p, cls))
    assert vm_idx.min() == 0 and vm_idx.max() == n_vms - 1
    # The FCFS scan sorts a block's jobs by server in the same type: half
    # the jobs on VM 0 make it a wide server, the rest spread thin.
    srv = np.where(rng.random(m) < 0.5, 0, vm_idx).astype(vm_idx.dtype)
    t = np.cumsum(rng.exponential(1.0, m))
    s = rng.exponential(1.8, m)
    np.testing.assert_array_equal(
        _kernels.fcfs_start(t, srv, s, n_vms), fcfs_scan(t, srv, s, n_vms)
    )


@pytest.mark.parametrize("net_shift", [0.0, 18.0])
def test_service_times_are_the_formula_written_into_the_draws(net_shift):
    vms = [(0.05, 0.0), (0.04, 2.5), (0.07, 0.0)]  # zero and nonzero shifts
    config = make_system(
        [(0.01, 0.7, 1.3), (0.02, 1.9, 0.4), (0.005, 1.0, 1.0)],
        vms,
        net=(112.0, net_shift),
    )
    rng = np.random.default_rng(4)
    n = 2000
    cls = rng.integers(0, 3, n).astype(np.uint8)
    vm_idx = rng.integers(0, 3, n).astype(np.uint8)
    draws = rng.exponential(1.0, (2, n))
    e1, e2 = draws.copy()
    d, e = config.compute_sizes()[cls], config.output_sizes()[cls]
    vrate, vshift = np.array(vms).T
    want1 = d * (vshift[vm_idx] + e1 / vrate[vm_idx])
    want2 = e * (net_shift + e2 / 112.0)
    s1, s2 = service_times(config, cls, vm_idx, *draws)
    assert s1.tobytes() == want1.tobytes() and s2.tobytes() == want2.tobytes()
    assert np.shares_memory(s1, draws[0]) and np.shares_memory(s2, draws[1])


def test_group_by_class_layout():
    cls = np.array([1, 0, 1, 0, 1])
    grouped, offsets = group_by_class(cls, 3)
    np.testing.assert_array_equal(grouped, [1, 3, 0, 2, 4])
    np.testing.assert_array_equal(offsets, [0, 2, 5, 5])


def test_fcfs_kernel_hand_example():
    # Two servers: job 2 waits for job 0 on server 0, job 1 rides server 1.
    t = np.array([0.0, 1.0, 2.0])
    srv = np.array([0, 1, 0])
    s = np.array([5.0, 1.0, 1.0])
    start = _kernels.fcfs_start(t, srv, s, 2)
    np.testing.assert_array_equal(start, [0.0, 1.0, 5.0])


def test_priority_kernel_prefers_larger_key():
    # Both jobs queued when the server frees at t=4; key picks job 1.
    dep1 = np.array([0.0, 1.0, 2.0])
    cls = np.array([0, 1, 2])
    key = np.array([0.0, 5.0, 9.0])
    s2 = np.array([4.0, 1.0, 1.0])
    start = network_start_times(dep1, cls, key, s2, 3, "priority")
    np.testing.assert_array_equal(start, [0.0, 5.0, 4.0])


def test_scripted_policy_tradeoff_values():
    out = policy_tradeoff_example()
    assert out["policy1"]["completions"] == [70.0, 77.0, 1.1]
    assert out["policy1"]["ages"] == [70.0, 27.0, 1.1]
    assert out["policy2"]["completions"] == [70.0, 22.0, 70.1]
    assert out["policy2"]["ages"] == [70.0, 22.0, 20.1]
    assert out["policy1"]["weighted_age"] == pytest.approx(27.55)
    assert out["policy2"]["weighted_age"] == pytest.approx(32.05)
    assert out["policy1"]["weighted_completion"] == pytest.approx(77.55)
    assert out["policy2"]["weighted_completion"] == pytest.approx(57.05)
    # The point of the example: one policy wins on age, the other on time.
    assert out["policy1"]["weighted_age"] < out["policy2"]["weighted_age"]
    assert (
        out["policy2"]["weighted_completion"]
        < out["policy1"]["weighted_completion"]
    )


def test_scripted_arrivals_errors():
    job = ScriptedJob(0.0, 1, 1.0, 1.0)
    with pytest.raises(ConfigError, match="one VM id"):
        scripted_arrivals([job], [1, 2], num_vms=2)
    with pytest.raises(ConfigError, match="at least one"):
        scripted_arrivals([], [], num_vms=1)
    with pytest.raises(ConfigError, match="1..num_vms"):
        scripted_arrivals([job], [3], num_vms=2)


def test_scripted_event_log_matches_report():
    jobs = [
        ScriptedJob(0.0, 5, 2.0, 1.0),
        ScriptedJob(0.5, 9, 2.0, 1.0),
        ScriptedJob(4.0, 5, 1.0, 1.0),
    ]
    res = scripted_arrivals(jobs, [1, 1, 1], num_vms=1)
    np.testing.assert_array_equal(res.class_ids, [5, 9])  # sparse ids allowed
    log = res.event_log
    assert log is not None and len(log) == 3
    np.testing.assert_allclose(log.compute_start, [0.0, 2.0, 4.0])
    np.testing.assert_allclose(log.net_start, [2.0, 4.0, 5.0])
    # Per-class means recompute from the log exactly.
    for row, cid in enumerate([5, 9]):
        mask = log.class_id == cid
        np.testing.assert_allclose(
            res.mean_completion[row], np.mean(log.net_end[mask] - log.release[mask])
        )


@pytest.fixture(scope="module")
def mm1_result():
    # M/M/1 compute stage: arrival rate 0.5, service rate 1.0, so the
    # textbook waiting time is rho/(mu - lambda) = 1.0. The network stage is
    # nearly free and does not disturb the compute queue.
    cfg = make_system([(0.5, 1.0, 0.01)], [(1.0, 0.0)], net=(112.0, 0.1))
    sim = SimConfig(horizon=3.0e4, replications=8, seed=17)
    return run_simulation(cfg, np.array([[1.0]]), sim)


def test_mm1_waiting_time(mm1_result):
    assert mm1_result.mean_wait_compute[0] == pytest.approx(1.0, rel=0.08)
    assert mm1_result.mean_service_compute[0] == pytest.approx(1.0, rel=0.05)
    assert not mm1_result.unstable_vms.any()
    assert not mm1_result.unstable_network
    assert mm1_result.vm_utilization[0] == pytest.approx(0.5, rel=0.05)


def test_mm1_departures_look_poisson(mm1_result):
    # Burke: the stationary M/M/1 departure process is Poisson(lambda).
    assert mm1_result.interdeparture_mean == pytest.approx(2.0, rel=0.05)
    assert mm1_result.interdeparture_cv == pytest.approx(1.0, abs=0.08)


def test_aoi_excludes_compute_wait(mm1_result):
    res = mm1_result
    np.testing.assert_allclose(
        res.mean_aoi,
        res.mean_service_compute + res.mean_wait_network + res.mean_service_network,
        rtol=1e-9,
    )
    np.testing.assert_allclose(
        res.mean_completion, res.mean_wait_compute + res.mean_aoi, rtol=1e-9
    )
    assert np.all(res.mean_aoi < res.mean_completion)


@pytest.fixture(scope="module")
def small_system():
    return make_system(
        [(0.006, 1.0, 1.0), (0.004, 1.5, 0.7)],
        [(0.05, 0.0), (0.04, 1.0)],
    )


def test_seed_reproducibility(small_system):
    p = np.array([[0.6, 0.4], [0.3, 0.7]])
    sim = SimConfig(horizon=2.0e4, replications=3, seed=5)
    a = run_simulation(small_system, p, sim)
    b = run_simulation(small_system, p, sim)
    np.testing.assert_array_equal(a.mean_aoi, b.mean_aoi)
    np.testing.assert_array_equal(a.mean_completion, b.mean_completion)
    assert a.weighted_objective == b.weighted_objective
    c = run_simulation(small_system, p, replace(sim, seed=6))
    assert not np.array_equal(a.mean_aoi, c.mean_aoi)


def test_event_log_invariants(small_system):
    p = np.array([[0.6, 0.4], [0.3, 0.7]])
    sim = SimConfig(
        horizon=2.0e4, replications=2, seed=5, collect_event_log=True
    )
    res = run_simulation(small_system, p, sim)
    log = res.event_log
    assert log is not None
    assert np.all(log.compute_start >= log.release)
    assert np.all(log.compute_end >= log.compute_start)
    assert np.all(log.net_start >= log.compute_end)
    assert np.all(log.net_end >= log.net_start)
    # Single network server: busy intervals never overlap.
    o = np.argsort(log.net_start, kind="stable")
    assert np.all(log.net_start[o][1:] >= log.net_end[o][:-1] - 1e-9)
    # Compute stage: never more jobs in service than VMs.
    events = np.concatenate(
        [
            np.stack([log.compute_start, np.ones(len(log))], axis=1),
            np.stack([log.compute_end, -np.ones(len(log))], axis=1),
        ]
    )
    events = events[np.lexsort((events[:, 1], events[:, 0]))]
    assert np.cumsum(events[:, 1]).max() <= small_system.num_vms
    # FIFO within a class at the link: service order follows compute exit.
    for cid in (1, 2):
        mask = log.class_id == cid
        by_dep1 = np.argsort(log.compute_end[mask], kind="stable")
        assert np.all(np.diff(log.net_start[mask][by_dep1]) >= -1e-9)
    # Only the first replication is logged.
    solo = run_simulation(
        small_system, p, replace(sim, replications=1)
    ).event_log
    assert len(solo) == len(log)
    np.testing.assert_array_equal(solo.release, log.release)


def _area_under_number_in_system(arrive, depart):
    """Integral of the number of jobs in system over [0, last departure]."""
    times = np.concatenate([arrive, depart])
    steps = np.concatenate([np.ones(len(arrive)), -np.ones(len(depart))])
    # Stable: at equal times arrivals come first, so the count never dips
    # below zero for a job that leaves the instant it arrives.
    order = np.argsort(times, kind="stable")
    count = np.cumsum(steps[order])
    assert count.min(initial=0.0) >= 0.0
    return float(np.sum(count[:-1] * np.diff(times[order])))


@settings(max_examples=20)
@given(st.data())
def test_littles_law_holds_per_server(data):
    config = data.draw(instances())
    p = data.draw(schedules(config))
    n_jobs = data.draw(st.sampled_from([300, 6000]))
    networking = data.draw(st.sampled_from(["fcfs", "priority"]))
    sim = SimConfig(
        horizon=n_jobs / config.total_rate,
        replications=1,
        seed=data.draw(st.integers(0, 2**32 - 1)),
        networking=networking,
    )
    scans = []
    fcfs_start = _kernels.fcfs_start

    def recording(arrivals, server_idx, service, n_servers, order=None):
        start = fcfs_start(arrivals, server_idx, service, n_servers, order)
        walk = slice(None) if order is None else order
        srv = None if server_idx is None else server_idx[walk]
        scans.append((arrivals[walk], srv, service[walk], n_servers, start[walk]))
        return start

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "fcfs_start", recording)
        run_simulation(config, p, sim)
    # The compute stage, one queue per VM, then an FCFS link if there is one.
    assert [scan[3] for scan in scans] == [config.num_vms] + [1] * (
        networking == "fcfs"
    )
    for arrivals, server_idx, service, n_servers, start in scans:
        for v in range(n_servers):
            on_v = slice(None) if n_servers == 1 else server_idx == v
            a, s, d = arrivals[on_v], start[on_v], start[on_v] + service[on_v]
            # One job in service at a time, each after its arrival.
            assert np.all(s >= a) and np.all(s[1:] >= d[:-1])
            sojourn = float(np.sum(d - a))
            area = _area_under_number_in_system(a, d)
            assert area == pytest.approx(sojourn, rel=1e-9, abs=0.0)


def test_fcfs_replication_peak_memory_per_job():
    # The tracemalloc peak of one replication on the FCFS link, per job
    # offered (rate x horizon; 200,772 were drawn). A run holds six float64
    # arrays per job (arrival, the two service times, both starts, the
    # compute departure: 48 bytes) plus one-byte class and VM codes, and at
    # its peak about two arrays more. With int64 codes and full-length
    # sorted copies the peak measured 91 bytes per job; with narrow codes,
    # in-place arithmetic and the link gathering per block, 67.
    config = default_config()
    p = np.full((config.num_classes, config.num_vms), 1.0 / config.num_vms)
    jobs = 2.0e5
    sim = SimConfig(
        horizon=jobs / config.total_rate, replications=1, seed=3, networking="fcfs"
    )
    tracemalloc.start()
    try:
        run_simulation(config, p, sim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / jobs < 79.0


def test_unstable_vm_is_flagged():
    # All load on a VM with capacity 0.03 jobs/ms against arrivals at 0.05.
    cfg = make_system([(0.05, 1.0, 0.01)], [(0.03, 0.0), (0.2, 0.0)])
    sim = SimConfig(horizon=2.0e4, replications=2, seed=2)
    res = run_simulation(cfg, np.array([[1.0, 0.0]]), sim)
    assert res.unstable_vms[0]
    assert not res.unstable_vms[1]
    assert not res.unstable_network
    assert res.vm_utilization[0] > 0.9
    assert res.vm_utilization[1] == 0.0


def test_staleness_mean_matches_update_rate(small_system):
    rates = (0.05, 0.2)
    cfg = replace(
        small_system,
        classes=tuple(
            replace(c, update_rate=r)
            for c, r in zip(small_system.classes, rates)
        ),
    )
    p = np.array([[0.6, 0.4], [0.3, 0.7]])
    sim = SimConfig(horizon=1.0e5, replications=4, seed=3)
    plain = run_simulation(cfg, p, sim)
    stale = run_simulation(cfg, p, replace(sim, simulate_updates=True))
    # Same seed, same draw order for arrivals and services: the runs share
    # every stream except the update processes, so the AoI difference is the
    # mean staleness, which for a Poisson source is 1/update_rate.
    np.testing.assert_array_equal(plain.mean_completion, stale.mean_completion)
    gap = stale.mean_aoi - plain.mean_aoi
    assert gap[0] == pytest.approx(1.0 / rates[0], rel=0.15)
    assert gap[1] == pytest.approx(1.0 / rates[1], rel=0.15)


def test_staleness_requires_update_rate(small_system):
    sim = SimConfig(horizon=5e3, replications=1, simulate_updates=True)
    with pytest.raises(ConfigError, match="update_rate"):
        run_simulation(small_system, np.full((2, 2), 0.5), sim)


def test_sim_config_validation(small_system):
    cases = [
        ({"horizon": 0.0}, "horizon"),
        ({"warmup_fraction": 1.0}, "warmup_fraction"),
        ({"replications": 0}, "replications"),
        ({"networking": "lifo"}, "networking"),
    ]
    for fields, frag in cases:
        with pytest.raises(ConfigError, match=frag):
            SimConfig(**fields)
    with pytest.raises(ConfigError, match="sum to 1"):
        run_simulation(small_system, np.full((2, 2), 0.3), SimConfig())
    with pytest.raises(ConfigError, match="shape"):
        run_simulation(small_system, np.full((3, 2), 0.5), SimConfig())


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"replications": 2.5}, "replications must be an integer >= 1, got 2.5"),
        ({"replications": True}, "replications must be an integer >= 1, got True"),
        ({"replications": 0}, "replications must be an integer >= 1, got 0"),
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
    ],
)
def test_sim_config_counts_follow_the_integer_rule(fields, message):
    with pytest.raises(ConfigError) as info:
        SimConfig(**fields)
    assert str(info.value) == message


def test_sim_config_keeps_integral_floats_as_ints(small_system):
    sim = SimConfig(horizon=2e3, replications=2.0, seed=3.0)
    assert (sim.replications, sim.seed) == (2, 3)
    assert type(sim.replications) is type(sim.seed) is int
    result = run_simulation(small_system, np.full((2, 2), 0.5), sim)
    assert result.replications == 2


def test_nan_vm_rate_rejected(small_system):
    vms = (replace(small_system.vms[0], rate=float("nan")), small_system.vms[1])
    # FCFS link: were the rate let through, the priority scan would never
    # finish on NaN departure times.
    with pytest.raises(ConfigError, match=r"vms\[0\]\.rate must be positive"):
        run_simulation(
            replace(small_system, vms=vms),
            np.full((2, 2), 0.5),
            SimConfig(horizon=5e3, replications=1, networking="fcfs"),
        )


def test_nan_schedule_entry_rejected(small_system):
    p = np.array([[np.nan, 0.5], [0.5, 0.5]])
    with pytest.raises(ConfigError, match="schedule entries must be finite"):
        run_simulation(small_system, p, SimConfig(horizon=5e3, replications=1))


def test_nan_horizon_rejected(small_system):
    with pytest.raises(ConfigError, match="horizon"):
        run_simulation(
            small_system, np.full((2, 2), 0.5), SimConfig(horizon=float("nan"))
        )


def test_classes_without_kept_jobs_report_nan_without_warnings():
    # ~70 jobs over 400 classes: most classes see no job in some or all runs.
    cfg = default_config(num_classes=400)
    p = np.full((400, cfg.num_vms), 1.0 / cfg.num_vms)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_simulation(cfg, p, SimConfig(horizon=2e3, replications=3))
    empty = res.counts == 0
    assert empty.any() and not empty.all()
    for values in (res.mean_aoi, res.se_aoi, res.ci_completion):
        assert np.isnan(values[empty]).all()
    assert np.isfinite(res.mean_aoi[~empty]).all()
    assert np.isfinite(res.weighted_objective)


@pytest.mark.parametrize("reps", [1, 3])
def test_mean_se_ci_mean_is_nanmean(reps):
    rng = np.random.default_rng(reps)
    vals = rng.normal(size=(reps, 60))
    vals[rng.random(vals.shape) < 0.4] = np.nan
    vals[:, :3] = np.nan  # columns with no value at all
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = np.nanmean(vals, axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, se, ci = simulator._mean_se_ci(vals)
    # Exact equality; nan must meet nan.
    np.testing.assert_array_equal(mean, expected)
    few = np.sum(~np.isnan(vals), axis=0) < 2
    assert np.isnan(se[few]).all() and np.isnan(ci[few]).all()
    assert np.isfinite(ci[~few]).all()


def test_result_csv_round_trip(tmp_path, small_system):
    import csv

    p = np.full((2, 2), 0.5)
    res = run_simulation(
        small_system, p, SimConfig(horizon=1.0e4, replications=2, seed=8)
    )
    path = tmp_path / "simulation.csv"
    res.write_csv(path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["class_id"] for r in rows] == ["1", "2"]
    for j, row in enumerate(rows):
        assert float(row["mean_aoi"]) == res.mean_aoi[j]
        assert float(row["mean_completion"]) == res.mean_completion[j]
    d = res.to_dict()
    assert d["backend"] in ("numba", "python")
    assert len(d["classes"]) == 2
    assert d["classes"][0]["class_id"] == 1
