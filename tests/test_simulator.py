import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aoisched import _kernels, simulator
from aoisched.analytics import wsept_keys
from aoisched.model import ConfigError, default_config, write_table
from aoisched.online import ingest_trace
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
from scan_oracles import (
    MaskedFlow,
    assign_vms_per_class,
    fcfs_scan,
    group_objectives_masked,
    interdeparture_stats_masked,
    merged_arrivals_per_class,
    reduce_run_masked,
)


def test_interdeparture_needs_three_points():
    assert np.isnan(interdeparture_stats(np.array([1.0, 2.0]))[0])
    mean, cv = interdeparture_stats(np.array([0.0, 1.0, 2.0, 3.0]))
    assert mean == 1.0 and cv == 0.0


@pytest.mark.parametrize(
    "n", [3, 4, 100, _kernels.FCFS_BLOCK + 1, 3 * _kernels.FCFS_BLOCK + 5]
)
@pytest.mark.parametrize("ties", [False, True])
def test_gap_stats_in_place_match_numpy_on_a_sorted_copy(n, ties):
    rng = np.random.default_rng(n)
    d = rng.uniform(0.0, 1e4, n)
    if ties:
        d = np.round(d / 50.0)  # duplicates, so some gaps are zero
    gaps = np.diff(np.sort(d))
    mean = float(gaps.mean())
    expected = (mean, float(gaps.std(ddof=1) / mean))
    assert interdeparture_stats(d) == expected  # sorts a copy
    # In place, on a view that does not start its buffer, as the reducer's
    # kept departures do.
    buf = np.concatenate(([np.nan], d))
    assert simulator._gap_stats(buf[1:]) == expected


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
    with pytest.raises(ConfigError, match=r"vm_assignment\[0\] .* in \[1, 2\], got 3"):
        scripted_arrivals([job], [3], num_vms=2)


@pytest.mark.parametrize(
    "jobs, vms, num_vms, named",
    [
        # Each once ran job 1 on VM 1, raised a TypeError, the kernel's
        # ValueError, or ran with a divide-by-zero warning.
        ([(0, 1, 1), (1, 1, 1)], [1.5, 2], 2, r"vm_assignment\[0\] must be an integer"),
        ([(0, 1, 1)], [1], 2.5, "num_vms must be an integer"),
        ([(0, 1, 1), (np.nan, 1, 1)], [1, 1], 1, r"jobs\[1\]\.release must be finite"),
        ([(np.inf, 1, 1)], [1], 1, r"jobs\[0\]\.release must be finite"),
        ([(0, -5, 1)], [1], 1, r"jobs\[0\]\.compute_time must be non-negative"),
        ([(0, 1, np.inf)], [1], 1, r"jobs\[0\]\.network_time must be non-negative"),
        ([(0, 1, 1), (1, 1, np.nan)], [1, 1], 1, r"jobs\[1\]\.network_time"),
    ],
    ids=["float_vm", "float_num_vms", "nan_release", "inf_release",
         "negative_compute", "inf_network", "nan_network"],
)
def test_scripted_arrivals_name_the_field_they_refuse(jobs, vms, num_vms, named):
    scripted = [ScriptedJob(r, 1, c, e) for r, c, e in jobs]
    with pytest.raises(ConfigError, match=named):
        scripted_arrivals(scripted, vms, num_vms)


def test_scripted_event_log_matches_report():
    jobs = [
        ScriptedJob(0.0, 5, 2.0, 1.0),
        ScriptedJob(0.5, 9, 2.0, 1.0),
        ScriptedJob(4.0, 5, 1.0, 1.0),
    ]
    res = scripted_arrivals(jobs, [1, 1, 1], num_vms=1)
    np.testing.assert_array_equal(res.class_ids, [5, 9])  # sparse ids allowed
    # Integer times read as the same floats.
    whole = [ScriptedJob(int(2 * j.release), j.class_id, 2, 1) for j in jobs]
    halved = [ScriptedJob(2 * j.release, j.class_id, 2.0, 1.0) for j in jobs]
    np.testing.assert_array_equal(
        scripted_arrivals(whole, [1, 1, 1], 1).mean_completion,
        scripted_arrivals(halved, [1, 1, 1], 1).mean_completion,
    )
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

    def recording(arrivals, server_idx, service, n_servers, out=None):
        # Jobs in served order, the stable order of their arrivals, which
        # are gathered first: the link writes its starts over them.
        walk = np.argsort(arrivals, kind="stable")
        a = arrivals[walk]
        start = fcfs_start(arrivals, server_idx, service, n_servers, out)
        srv = None if server_idx is None else server_idx[walk]
        scans.append((a, srv, service[walk], n_servers, start[walk]))
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


@settings(max_examples=20)
@given(st.data())
def test_kleinrock_conservation_on_the_simulated_link(data):
    # A replication's draws do not depend on the link discipline, so both
    # links see the same arrivals (the compute ends) and the same services.
    # Every non-preemptive work-conserving link then has the same integral
    # of unfinished work, sum_i (W_i S_i + S_i^2 / 2) over a sample path
    # that drains, so sum_i W_i S_i agrees between priority and FCFS.
    config = data.draw(instances())
    p = data.draw(schedules(config))
    seed = data.draw(st.integers(0, 2**32 - 1))
    logs = {}
    for networking in ("priority", "fcfs"):
        sim = SimConfig(
            horizon=300 / config.total_rate,
            replications=1,
            seed=seed,
            networking=networking,
            collect_event_log=True,
        )
        logs[networking] = run_simulation(config, p, sim).event_log
    prio, fcfs = logs["priority"], logs["fcfs"]
    assert np.array_equal(prio.compute_end, fcfs.compute_end)

    def work_in_queue(log):
        return math.fsum(
            (log.net_start - log.compute_end) * (log.net_end - log.net_start)
        )

    assert work_in_queue(prio) == pytest.approx(work_in_queue(fcfs), rel=1e-9, abs=0.0)


def test_fcfs_replication_peak_memory_per_job():
    # The tracemalloc peak of one replication on the FCFS link, per job
    # offered (rate x horizon; 200,772 were drawn). A run holds five float64
    # arrays per job (arrival, the two service times, both starts: 40
    # bytes) plus one-byte class and VM codes, and at its peak, in the
    # link, only fixed-size blocks beside them. Holding the compute
    # departures as well, and a full-length intp code array in the class
    # means, the peak measured 67 bytes per job; summing the departures
    # where they are read, with the link's starts written over them and
    # the reducer over a range of positions, 55.2 (the bound was 62); with
    # the link sorting a block at a time, the reducer walking blocks and
    # the gaps taken in the spent arrivals, 47.7.
    assert _replication_peak_per_job("fcfs") < 49.0


def test_priority_replication_peak_memory_per_job():
    # The same replication on the priority link (200,772 jobs drawn). At
    # its peak the kernel's walk holds arrivals as a list of floats (32
    # bytes per job) and class codes as a list of cached small ints (8),
    # and reads service, negated key and successor, and writes the starts,
    # through numpy buffers (8 each). Walking lists of all five columns
    # and collecting the starts in a sixth, the peak measured 232 bytes
    # per job; walking the buffers, 139; with the class grouping freed
    # before the walk, 131.
    assert _replication_peak_per_job("priority") < 160.0


def test_ingest_trace_peak_memory_per_record(tmp_path):
    # The tracemalloc peak of reading a 50,000-record trace with 300 keys,
    # CRLF line ends as csv.writer writes them, per record. The reader
    # keeps one float64 and one int64 code per row, and sorting the Trace
    # holds about five arrays of 8 bytes per record. Keeping a float object
    # and a key string per row, the peak measured about 140 bytes per
    # record; coding keys as rows are read, 51.
    rng = np.random.default_rng(7)
    records = 50_000
    keys = [f"svc-{k:04d}" for k in range(300)]
    stamps = rng.uniform(0.0, 1.0e6, records).tolist()
    rows = ((t, keys[k]) for t, k in zip(stamps, rng.integers(0, 300, records)))
    path = tmp_path / "trace.csv"
    write_table(path, ["timestamp_ms", "key"], rows)
    assert _traced_peak(ingest_trace, path) / records < 70.0


def _traced_peak(fn, *args) -> int:
    """The tracemalloc peak, in bytes, while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _replication_peak_per_job(networking: str) -> float:
    """The tracemalloc peak of one seed-3 default_config replication per job
    offered (rate x horizon, 2e5 jobs), under the uniform schedule."""
    config = default_config()
    p = np.full((config.num_classes, config.num_vms), 1.0 / config.num_vms)
    jobs = 2.0e5
    sim = SimConfig(
        horizon=jobs / config.total_rate, replications=1, seed=3, networking=networking
    )
    return _traced_peak(run_simulation, config, p, sim) / jobs


def _copy(flow):
    """The flow with its own arrivals, the one array reduce_run uses up."""
    return replace(flow, t=flow.t.copy())


def _assert_records_equal(got, want):
    # Exact equality field by field; nan must meet nan.
    for name in simulator.RunRecord.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        for x, y in zip(a, b) if name == "means" else [(a, b)]:
            np.testing.assert_array_equal(x, y, err_msg=name)


@settings(max_examples=40)
@given(st.data())
def test_reducer_over_a_range_matches_the_masked_oracle(data):
    # The reducer over a range of positions against the one that held the
    # compute departures and took a keep mask. The warm-up cut keeps no
    # job, some jobs or every job; arrivals on a coarse grid put ties at
    # the cut, and staleness is there or not.
    config = data.draw(instances())
    p = data.draw(schedules(config))
    networking = data.draw(st.sampled_from(["priority", "fcfs"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    lam, J, V = config.arrival_rates(), config.num_classes, config.num_vms
    horizon = data.draw(st.sampled_from([3, 40, 400])) / config.total_rate
    t, cls = simulator.merged_arrivals(rng, lam, horizon)
    n = len(t)
    assume(n > 0)
    if data.draw(st.booleans()):
        grid = 4.0 / config.total_rate  # about four arrivals per step
        t = np.floor(t / grid) * grid
    vm_idx = simulator.assign_vms(rng.random(n), p, cls)
    s1, s2 = simulator.service_times(config, cls, vm_idx, *rng.exponential(1.0, (2, n)))
    key = wsept_keys(lam, config.output_sizes())
    flow = simulator._flow(t, cls, vm_idx, s1, s2, V, key, networking)
    dep1 = flow.start1 + flow.s1
    masked = MaskedFlow(t, cls, vm_idx, s1, s2, flow.start1, dep1, flow.start2)
    cut = data.draw(st.sampled_from(["none", "some", "all"]))
    warm = {
        "none": np.nextafter(t[-1], np.inf),
        "some": t[rng.integers(n)],
        "all": t[0],
    }[cut]
    keep = t >= warm
    kept = slice(int(np.searchsorted(t, warm)), None)
    assert keep.sum() == len(t[kept]) and (cut != "none" or not keep.any())
    y = rng.exponential(5.0, n) if data.draw(st.booleans()) else None
    # The reducer uses up its flow's arrivals; each call gets a copy.
    _assert_records_equal(
        simulator.reduce_run(_copy(flow), J, V, kept, horizon, config, y),
        reduce_run_masked(masked, J, V, keep, horizon, config, y),
    )
    n_groups = data.draw(st.integers(1, 4))
    group = rng.integers(0, n_groups, n)
    np.testing.assert_array_equal(
        simulator.group_objectives(flow, config, group, n_groups),
        group_objectives_masked(masked, config, group, n_groups),
    )
    before = dep1.copy()
    for got, want in (
        (interdeparture_stats(dep1[kept]), interdeparture_stats_masked(dep1, keep)),
        (interdeparture_stats(dep1), interdeparture_stats_masked(dep1)),
    ):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(dep1, before)  # sorted a copy


@pytest.mark.parametrize("warmup", [0.0, 0.3, 0.99])
def test_replication_keeps_the_jobs_past_the_warmup(warmup):
    # The kept range the replication cuts is the jobs arriving at or after
    # warmup x horizon, as the event log's release times say.
    config = default_config(num_classes=3)
    p = np.full((3, config.num_vms), 1.0 / config.num_vms)
    sim = SimConfig(
        horizon=500 / config.total_rate,
        replications=1,
        seed=5,
        warmup_fraction=warmup,
        collect_event_log=True,
    )
    res = run_simulation(config, p, sim)
    log = res.event_log
    kept = log.release >= warmup * sim.horizon
    np.testing.assert_array_equal(
        res.counts, np.bincount(log.class_id[kept] - 1, minlength=3)
    )


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


def test_staleness_of_a_source_without_updates_is_its_age_since_zero():
    # At 1e-9 updates per ms no source updates within the run; each keeps
    # only the implicit update at time 0, so a job's staleness is its
    # compute start, and its AoI exceeds the plain run's by exactly that.
    config = default_config(4)
    config = replace(
        config, classes=tuple(replace(c, update_rate=1e-9) for c in config.classes)
    )
    p = np.full((4, config.num_vms), 1.0 / config.num_vms)
    sim = SimConfig(horizon=2e4, replications=1, collect_event_log=True)
    plain = run_simulation(config, p, sim)
    stale = run_simulation(config, p, replace(sim, simulate_updates=True))
    log = plain.event_log
    kept = log.release >= sim.warmup_fraction * sim.horizon
    for j in range(4):
        jobs = kept & (log.class_id == j + 1)
        expected = np.mean(log.compute_start[jobs])
        gap = stale.mean_aoi[j] - plain.mean_aoi[j]
        assert gap == pytest.approx(expected, rel=1e-9)


def test_staleness_requires_update_rate(small_system):
    sim = SimConfig(horizon=5e3, replications=1, simulate_updates=True)
    with pytest.raises(ConfigError, match="update_rate"):
        run_simulation(small_system, np.full((2, 2), 0.5), sim)


def test_draw_counts_are_checked_before_any_draw(small_system):
    # One count rule for arrivals and updates; past the longest array numpy
    # can make, a ConfigError names the field instead of a negative count.
    sim = SimConfig(horizon=1e300, replications=1)
    with pytest.raises(ConfigError, match=r"^horizon: 1e\+300 ms asks for more"):
        run_simulation(small_system, np.full((2, 2), 0.5), sim)
    rates = np.array([0.5, 1e300])
    with pytest.raises(ConfigError, match=r"^classes\[1\]\.update_rate: 1e\+300 per"):
        simulator._draw_counts(rates, 10.0, "update")
    counts = simulator._draw_counts(rates[:1], 1e4)
    assert counts.tolist() == [5000.0 + 6.0 * math.sqrt(5000.0) + 16.0]
    assert simulator._block_sizes(rates[:1], 1e4).tolist() == [int(counts[0])]


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


def test_student_t_table_is_stdtrit_bit_for_bit():
    from scipy.special import stdtrit

    dof = np.arange(1, 65)
    assert len(simulator._T975) == 64
    np.testing.assert_array_equal(simulator._T975, stdtrit(dof, 0.975))
    # Past the table the quantile comes from stdtrit itself.
    vals = np.random.default_rng(0).normal(size=(66, 2))
    vals[1:, 1] = np.nan  # one column with a single value
    _, se, ci = simulator._mean_se_ci(vals)
    assert ci[0] == stdtrit(65, 0.975) * se[0] and np.isnan(ci[1])


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
