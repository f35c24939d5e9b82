import csv
import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aoisched.analytics import wsept_keys
from aoisched.model import ConfigError, write_table
from aoisched.online import (
    Trace,
    default_window,
    ingest_trace,
    offline_reference,
    online_driver,
    resolve_classes,
    synthesize_poisson_trace,
    template_class_map,
    _prepare_trace,
)

from aoisched import online, simulator
from conftest import make_system
from scan_oracles import (
    assign_vms_per_class,
    ingest_trace_records,
    resolve_classes_records,
)


def _trace(jobs):
    """A Trace of (timestamp, key) pairs, keys coded in first-seen order."""
    keys = list(dict.fromkeys(k for _, k in jobs))
    return Trace([t for t, _ in jobs], keys, [keys.index(k) for _, k in jobs])


def _write(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_ingest_sorts_and_ignores_extras(tmp_path):
    path = _write(
        tmp_path,
        "key,region,timestamp_ms\n"
        "b,us,200.5\n"
        "a,eu,10\n"
        "\n"
        "a,ap,150\n",
    )
    trace = ingest_trace(path)
    assert trace.times.tolist() == [10.0, 150.0, 200.5]
    assert [trace.keys[c] for c in trace.codes] == ["a", "a", "b"]
    assert len(trace) == 3


def test_ingest_error_messages(tmp_path):
    with pytest.raises(ConfigError, match="empty trace file"):
        ingest_trace(_write(tmp_path, "", "e1.csv"))
    with pytest.raises(ConfigError, match="header must contain"):
        ingest_trace(_write(tmp_path, "time,key\n1,a\n", "e2.csv"))
    with pytest.raises(ConfigError, match="line 3: too few columns"):
        ingest_trace(_write(tmp_path, "timestamp_ms,key\n1,a\n2\n", "e3.csv"))
    with pytest.raises(ConfigError, match="line 2: bad timestamp 'soon'"):
        ingest_trace(_write(tmp_path, "timestamp_ms,key\nsoon,a\n", "e4.csv"))
    with pytest.raises(ConfigError, match="non-finite"):
        ingest_trace(_write(tmp_path, "timestamp_ms,key\ninf,a\n", "e5.csv"))
    with pytest.raises(ConfigError, match="no records"):
        ingest_trace(_write(tmp_path, "timestamp_ms,key\n", "e6.csv"))
    # Several bad lines: the first in file order is named, and blank rows
    # count toward the line number.
    text = "timestamp_ms,key\n\n1,a\n \ninf,b\nsoon,c\n7\n"
    with pytest.raises(ConfigError, match="line 5: non-finite"):
        ingest_trace(_write(tmp_path, text, "e7.csv"))
    text = "timestamp_ms,key\n1,a\nsoon,b\n-inf,c\n"
    with pytest.raises(ConfigError, match="line 3: bad timestamp 'soon'"):
        ingest_trace(_write(tmp_path, text, "e8.csv"))


def test_resolve_classes_explicit_map():
    records = _trace([(5.0, "svc-b"), (1.0, "svc-a"), (3.0, "svc-a")])
    times, cls, mapping = resolve_classes(
        records, 2, {"svc-a": 1, "svc-b": 2}
    )
    np.testing.assert_array_equal(times, [1.0, 3.0, 5.0])
    np.testing.assert_array_equal(cls, [0, 0, 1])
    assert mapping == {"svc-a": 1, "svc-b": 2}
    with pytest.raises(ConfigError, match="not in class_map"):
        resolve_classes(records, 2, {"svc-a": 1})
    # Class ids follow the config's integer rule: no bool, no string.
    for bad in (3, 1.5, float("nan"), "one", True, "2", "1e0"):
        with pytest.raises(
            ConfigError, match=r"class_map\['svc-b'\] must be an integer in \[1, 2\]"
        ):
            resolve_classes(records, 2, {"svc-a": 1, "svc-b": bad})
    # An integral float is an integer class id.
    assert resolve_classes(records, 2, {"svc-a": 1, "svc-b": 2.0})[2]["svc-b"] == 2


def test_resolve_classes_rejects_non_finite_timestamp():
    # A Trace cannot hold one, so the check happens at construction.
    with pytest.raises(ConfigError, match="trace record 1: timestamp"):
        resolve_classes(_trace([(1.0, "a"), (float("nan"), "a")]), 2)


def test_trace_checks_and_sorts_its_columns():
    trace = Trace([3.0, 1.0, 3.0, 2.0], ("a", "b"), [0, 1, 1, 0])
    assert trace.times.tolist() == [1.0, 2.0, 3.0, 3.0]
    assert trace.codes.tolist() == [1, 0, 0, 1]  # the tie keeps input order
    assert len(trace) == 4
    with pytest.raises(ConfigError, match="one key code per job"):
        Trace([1.0, 2.0], ("a",), [0])
    with pytest.raises(ConfigError, match="distinct"):
        Trace([1.0], ("a", "a"), [0])
    for codes in ([1], [-1]):
        with pytest.raises(ConfigError, match=r"codes must lie in 0\.\.0"):
            Trace([1.0], ("a",), codes)
    with pytest.raises(ConfigError, match="empty trace"):
        resolve_classes(Trace([], (), []), 2)
    # A key no job carries (a synthetic class with no arrival) is neither
    # ranked nor required in a class_map.
    absent = Trace([1.0], ("a", "b"), [0])
    assert resolve_classes(absent, 2)[2] == {"a": 1}
    assert resolve_classes(absent, 2, {"a": 2})[1].tolist() == [1]


def test_resolve_classes_frequency_rank():
    records = _trace(
        [(float(i), "hot") for i in range(5)]
        + [(10.0 + i, "warm") for i in range(3)]
        + [(20.0 + i, "cold") for i in range(2)]
    )
    _, cls, mapping = resolve_classes(records, 2)
    # Ranked by frequency: hot -> 1, warm -> 2, cold wraps around to 1.
    assert mapping == {"hot": 1, "warm": 2, "cold": 1}
    # Equal counts break ties by key string.
    _, _, tie = resolve_classes(_trace([(0.0, "b"), (1.0, "a")]), 2)
    assert tie == {"a": 1, "b": 2}


# Cells of a random trace CSV. Timestamps come from a small pool so that
# rows tie; keys carry whitespace and commas (written quoted); the malformed
# cells and the short and blank rows make some files fail.
_STAMPS = ["0", "1", "2.5", " 3 ", "1e1", "-0.0", "7_0", "12.25"]
_BAD_STAMPS = ["inf", "-inf", "nan", "soon", ""]
_KEYS = ["a", " a", "a ", "b", "b,c", " b,c ", "\u00e9", "0"]


@st.composite
def _trace_csv(draw):
    # "\r\n" is csv.writer's default, and what model.write_table writes.
    end = draw(st.sampled_from(["\n", "\r\n"]))
    extra = draw(st.integers(0, 2))
    header = ["timestamp_ms", "key"] + [f"x{i}" for i in range(extra)]
    header = draw(st.permutations(header))
    header = [draw(st.sampled_from(["", " "])) + h for h in header]
    t_col = [h.strip() for h in header].index("timestamp_ms")
    k_col = [h.strip() for h in header].index("key")
    bad = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["job"] * 8 + ["blank", "space", "bad", "short"]))
        if kind == "blank":
            rows.append(None)
        elif kind == "space":
            rows.append(["  "])
        elif kind == "short" and bad:
            rows.append(["1"])
        else:
            row = [draw(st.sampled_from(["r", "s"])) for _ in header]
            pool = _BAD_STAMPS if kind == "bad" and bad else _STAMPS
            row[t_col] = draw(st.sampled_from(pool))
            row[k_col] = draw(st.sampled_from(_KEYS))
            rows.append(row)
    lines = []
    for row in rows:
        if row is None:
            lines.append(end)
        else:
            buf = io.StringIO()
            csv.writer(buf, lineterminator=end).writerow(row)
            lines.append(buf.getvalue())
    return ",".join(header) + end + "".join(lines)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("traces") / "trace.csv"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ConfigError as err:
        return f"ConfigError: {err}"


@given(
    text=_trace_csv(),
    num_classes=st.integers(1, 4),
    map_seed=st.integers(0, 2**32 - 1),
    drop_one=st.booleans(),
)
def test_trace_path_matches_record_oracle(
    csv_path, text, num_classes, map_seed, drop_one
):
    # newline="" keeps the line ends as drawn.
    csv_path.write_text(text, newline="")
    trace = _outcome(ingest_trace, csv_path)
    records = _outcome(ingest_trace_records, csv_path)
    if isinstance(records, str):
        assert trace == records  # the same ConfigError text
        return
    # The explicit map covers the keys that occur, or all but one of them.
    rng = np.random.default_rng(map_seed)
    present = sorted({r.class_key for r in records})
    class_map = {k: int(rng.integers(1, num_classes + 1)) for k in present}
    if drop_one:
        del class_map[present[int(rng.integers(len(present)))]]
    _assert_matches_record_oracle(trace, records, num_classes, class_map)


def test_trace_with_many_keys_matches_record_oracle(tmp_path):
    # 1,000 distinct keys, so codes run past the small-int cache, each also
    # written with whitespace around it; CRLF line ends, as csv.writer and
    # model.write_table write them.
    rng = np.random.default_rng(30)
    names = [f"key-{k}" for k in range(1000)]
    jobs = np.concatenate([np.arange(1000), rng.integers(0, 1000, 5000)])
    jobs = rng.permutation(jobs)  # every key occurs
    rows = [
        [repr(float(t)), pad + names[k] + trail]
        for t, k, pad, trail in zip(
            rng.integers(0, 5000, 6000) / 4.0,  # many tied timestamps
            jobs.tolist(),
            rng.choice(["", " ", "\t"], 6000),
            rng.choice(["", " ", "  "], 6000),
        )
    ]
    path = tmp_path / "many.csv"
    write_table(path, ["timestamp_ms", "key"], rows)
    assert b"\r\n" in path.read_bytes()
    trace = ingest_trace(path)
    records = ingest_trace_records(path)
    assert len(trace.keys) == 1000
    class_map = {k: int(c) for k, c in zip(names, rng.integers(1, 8, 1000))}
    _assert_matches_record_oracle(trace, records, 7, class_map)


def _assert_matches_record_oracle(trace, records, num_classes, class_map):
    """The Trace and the oracle's records hold the same jobs in the same
    order, and resolve to the same classes by rank and by class_map."""
    assert len(trace) == len(records)
    assert [trace.keys[c] for c in trace.codes.tolist()] == [
        r.class_key for r in records
    ]
    for mapping in (None, class_map):
        got = _outcome(resolve_classes, trace, num_classes, mapping)
        want = _outcome(resolve_classes_records, records, num_classes, mapping)
        if isinstance(want, str):
            assert got == want
            continue
        np.testing.assert_array_equal(got[0], want[0])
        assert got[0].dtype == want[0].dtype
        np.testing.assert_array_equal(got[1], want[1])
        assert got[1].dtype == want[1].dtype
        assert got[2] == want[2]


@pytest.fixture(scope="module")
def online_config():
    return make_system(
        [(0.012, 1.0, 1.0), (0.010, 1.0, 0.7), (0.008, 1.0, 1.3)],
        [(0.05, 0.0), (0.04, 0.0)],
    )


def test_synthesize_trace_matches_rates(online_config):
    trace = synthesize_poisson_trace(online_config, 1.0e5, seed=4)
    again = synthesize_poisson_trace(online_config, 1.0e5, seed=4)
    np.testing.assert_array_equal(trace.times, again.times)
    np.testing.assert_array_equal(trace.codes, again.codes)
    assert trace.keys == again.keys == ("1", "2", "3")
    counts = np.bincount(trace.codes, minlength=3)
    for j, lam in enumerate((0.012, 0.010, 0.008)):
        assert counts[j] == pytest.approx(lam * 1.0e5, rel=0.12)
    for horizon in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="horizon"):
            synthesize_poisson_trace(online_config, horizon)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "1"])
def test_trace_and_replay_seeds_follow_the_integer_rule(online_config, seed):
    message = f"seed must be an integer >= 0, got {seed!r}"
    with pytest.raises(ConfigError) as info:
        synthesize_poisson_trace(online_config, 1.0e5, seed=seed)
    assert str(info.value) == message
    trace = synthesize_poisson_trace(online_config, 3.0e5, seed=2)
    for run in (online_driver, offline_reference):
        with pytest.raises(ConfigError) as info:
            run(trace, online_config, 1.0e5, seed=seed)
        assert str(info.value) == message


def test_template_map_and_default_window(online_config):
    assert template_class_map(online_config) == {"1": 1, "2": 2, "3": 3}
    assert default_window(online_config) == 1.0e5
    slow = make_system([(0.001, 1.0, 1.0)], [(0.05, 0.0)])
    assert default_window(slow) == 1.0e6  # stretched to expect 1000 arrivals
    with pytest.raises(ConfigError, match="total arrival rate must be positive"):
        default_window(online_config.with_rates([0.0, 0.0, 0.0]))


def test_synthetic_trace_past_any_array_names_the_horizon(online_config):
    with pytest.raises(ConfigError, match=r"^horizon: 1e\+300 ms asks for more"):
        synthesize_poisson_trace(online_config, 1e300, seed=0)


def test_driver_needs_two_windows(online_config):
    trace = synthesize_poisson_trace(online_config, 5.0e4, seed=1)
    with pytest.raises(ConfigError, match="two full windows"):
        online_driver(trace, online_config, window_length=1.0e5)


def test_driver_rejects_trace_with_empty_full_windows(online_config):
    # Windows [0, 2) and [2, 4) are full but empty; the only record, at 4 ms,
    # opens the partial window that the driver drops.
    class_map = template_class_map(online_config)
    for solve in (online_driver, offline_reference):
        with pytest.raises(ConfigError, match="hold no job"):
            solve(_trace([(4.0, "1")]), online_config, 2.0, class_map=class_map)
    # A record in warmup window 0 is enough: the run goes on, and with no
    # scored job its objective is nan.
    res = online_driver(
        _trace([(1.0, "1"), (4.0, "1")]), online_config, 2.0, class_map=class_map
    )
    assert np.isnan(res.result.weighted_objective)


def test_window_counts_hand_example(online_config):
    # Window length 100: [0, 100) and [100, 200) are full; the record at
    # exactly 100 opens window 1, and [200, 250] is a dropped partial window.
    records = _trace(
        [
            (10.0, "1"),
            (20.0, "2"),
            (30.0, "1"),
            (100.0, "1"),
            (110.0, "1"),
            (200.0, "2"),
            (250.0, "3"),
        ]
    )
    res = online_driver(
        records, online_config, 100.0, class_map=template_class_map(online_config)
    )
    assert res.num_windows == 2
    np.testing.assert_array_equal(res.windows[0].counts, [2, 1, 0])
    np.testing.assert_array_equal(res.windows[1].counts, [2, 0, 0])
    np.testing.assert_allclose(res.windows[0].rates, [0.02, 0.01, 0.0])


@pytest.mark.parametrize("window", [0.0, -1.0, float("nan"), float("inf")])
def test_driver_rejects_bad_window_length(online_config, window):
    trace = synthesize_poisson_trace(online_config, 4.2e5, seed=4)
    with pytest.raises(ConfigError, match="window_length must be positive"):
        online_driver(trace, online_config, window)


@given(
    num_classes=st.integers(1, 4),
    window=st.integers(1, 10),
    jobs=st.lists(
        st.tuples(st.integers(0, 60), st.integers(0, 3)), min_size=1, max_size=80
    ),
)
def test_window_counts_match_per_window_masks(num_classes, window, jobs):
    config = make_system([(0.001, 1.0, 1.0)] * num_classes, [(0.05, 0.0)])
    # Integer timestamps put many jobs exactly on window edges; the last job
    # guarantees two full windows.
    jobs = jobs + [(2 * window, 0)]
    records = _trace([(float(t), str(j % num_classes + 1)) for t, j in jobs])
    times = np.array(sorted(float(t) for t, _ in jobs))
    if np.all(times >= times[-1] // window * window):
        # Every job is in the dropped partial window.
        with pytest.raises(ConfigError, match="hold no job"):
            _prepare_trace(records, config, float(window), template_class_map(config))
        return
    tr = _prepare_trace(records, config, float(window), template_class_map(config))
    cls = np.array([j % num_classes for _, j in sorted(jobs, key=lambda x: x[0])])
    for k, w in enumerate(tr.windows):
        mask = (times >= k * window) & (times < (k + 1) * window)
        np.testing.assert_array_equal(
            w.counts, np.bincount(cls[mask], minlength=num_classes)
        )
    assert len(tr.windows) == int(times[-1] // window)


@given(
    num_classes=st.integers(1, 4),
    window=st.integers(1, 10),
    jobs=st.lists(
        st.tuples(st.integers(0, 60), st.integers(0, 3)), min_size=1, max_size=80
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_objectives_match_per_window_masks(num_classes, window, jobs, seed):
    # Sparse integer timestamps leave windows empty, and the config has one
    # class more than the jobs use; both give nan cells in the grid.
    config = make_system(
        [(0.001, 1.0, 0.5 + j) for j in range(num_classes + 1)],
        [(0.05, 0.0), (0.02, 1.0)],
        theta=0.4,
    )
    # The last job guarantees two full windows.
    jobs = jobs + [(2 * window, 0)]
    trace = _trace([(float(t), str(j % num_classes + 1)) for t, j in jobs])
    full_end = max(t for t, _ in jobs) // window * window
    if all(t >= full_end for t, _ in jobs):
        # Every job is in the dropped partial window.
        with pytest.raises(ConfigError, match="hold no job"):
            _prepare_trace(trace, config, float(window), template_class_map(config))
        return
    tr = _prepare_trace(trace, config, float(window), template_class_map(config))
    K, J = len(tr.windows), num_classes + 1
    rng = np.random.default_rng(seed)
    schedules = rng.dirichlet(np.ones(2), (K, J))
    keys = rng.integers(0, 3, len(tr.times)).astype(float)
    flows = []
    real = online.reduce_run

    def spy(flow, *args):
        # A copy: the reducer uses up the flow's arrivals.
        flows.append(replace(flow, t=flow.t.copy()))
        return real(flow, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(online, "reduce_run", spy)
        res = online._replay(config, tr, schedules, ["x"] * K, keys, seed % 100)
    # Jobs are in arrival order, so window k is one range of positions.
    edges = np.searchsorted(tr.win, np.arange(K + 1)).tolist()
    for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
        np.testing.assert_array_equal(np.flatnonzero(tr.win == k), np.arange(lo, hi))
    expected = [
        simulator.reduce_run(
            replace(flows[0], t=flows[0].t.copy()), J, 2, slice(lo, hi), 1.0, config
        ).objective
        for lo, hi in zip(edges, edges[1:])
    ]
    # Exact equality; nan (an empty window) must meet nan.
    np.testing.assert_array_equal(res.window_objectives, expected)


@pytest.fixture(scope="module")
def driver_pair(online_config):
    trace = synthesize_poisson_trace(online_config, 4.2e5, seed=4)
    on = online_driver(trace, online_config, window_length=1.0e5, seed=2)
    off = offline_reference(trace, online_config, window_length=1.0e5, seed=2)
    return on, off


def test_driver_windows_and_sources(driver_pair, online_config):
    on, _ = driver_pair
    assert on.num_windows == 4
    assert on.sources[0] == "uniform"
    assert all(s == "optimized" for s in on.sources[1:])
    assert on.schedules.shape == (4, 3, 2)
    np.testing.assert_allclose(on.schedules.sum(axis=2), 1.0, atol=1e-9)
    np.testing.assert_allclose(on.schedules[0], 0.5, atol=1e-12)
    # Estimated rates hover around the true ones.
    for w in on.windows:
        np.testing.assert_allclose(w.rates, [0.012, 0.010, 0.008], rtol=0.2)
    assert np.all(np.isfinite(on.window_objectives))
    # Cold-start window is excluded from the aggregate statistics.
    kept = sum(int(w.counts.sum()) for w in on.windows[1:])
    assert int(on.result.counts.sum()) == kept


def test_empty_estimation_window_falls_back(online_config):
    # Window 1 holds no job, so window 2 has no estimate to solve from: it
    # keeps window 1's schedule and priority keys.
    full = synthesize_poisson_trace(online_config, 3.9e3, seed=4)
    gap = (full.times >= 1.0e3) & (full.times < 2.0e3)
    trace = Trace(full.times[~gap], full.keys, full.codes[~gap])
    keys = []
    real = online.network_start_times

    def spy(dep1, cls, key, *args, **kwargs):
        keys.append(key)
        return real(dep1, cls, key, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(online, "network_start_times", spy)
        on = online_driver(trace, online_config, window_length=1.0e3)
    assert on.sources == ["uniform", "optimized", "fallback"]
    assert not on.windows[1].counts.any()
    np.testing.assert_array_equal(on.schedules[2], on.schedules[1])
    assert not np.array_equal(on.schedules[1], on.schedules[0])
    tr = _prepare_trace(trace, online_config, 1.0e3, None)
    window1_keys = wsept_keys(on.windows[0].rates, online_config.output_sizes())
    late = tr.win == 2
    assert late.any()
    np.testing.assert_array_equal(keys[0][late], window1_keys[tr.cls[late]])


def test_offline_reference_is_paired(driver_pair):
    on, off = driver_pair
    assert off.sources == ["offline"] * 4
    np.testing.assert_array_equal(off.schedules[0], off.schedules[1])
    np.testing.assert_array_equal(on.result.counts, off.result.counts)
    assert on.class_map == off.class_map
    # Same trace, same seed, near-true estimates: the online run lands close
    # to the clairvoyant one (it merely must not be wildly worse).
    assert on.result.weighted_objective <= off.result.weighted_objective * 1.10


def test_replay_vm_choice_matches_per_window_loop(online_config, monkeypatch):
    # The replay picks every job's VM in one call over the stacked schedules;
    # it must match choosing per window with that window's own schedule.
    seen = []
    real = online.assign_vms

    def spy(u, p, rows):
        vm = real(u, p, rows)
        seen.append((u, vm))
        return vm

    monkeypatch.setattr(online, "assign_vms", spy)
    trace = synthesize_poisson_trace(online_config, 4.5e5, seed=6)
    res = online_driver(trace, online_config, window_length=1.0e5, seed=5)
    assert len(seen) == 1
    u, vm = seen[0]
    tr = _prepare_trace(trace, online_config, 1.0e5, None)
    expected = np.empty(len(u), dtype=np.int64)
    for k in range(res.num_windows):
        mask = tr.win == k
        expected[mask] = assign_vms_per_class(u[mask], res.schedules[k], tr.cls[mask])
    np.testing.assert_array_equal(vm, expected)
    # The online schedules differ across windows, so the rows matter.
    assert not np.array_equal(res.schedules[1], res.schedules[0])


def test_driver_falls_back_on_infeasible_window(online_config):
    rng = np.random.default_rng(0)
    # Window 0 carries an impossible burst; window 1 is calm. The schedule
    # for window 1 is solved from window 0 and must fall back to uniform.
    burst = sorted(rng.uniform(0.0, 1.0e4, 3000))
    calm = sorted(rng.uniform(1.0e4, 2.0e4, 60))
    jobs = [(float(t), "1") for t in burst]
    jobs += [(float(t), str(1 + i % 3)) for i, t in enumerate(calm)]
    jobs.append((2.05e4, "2"))
    res = online_driver(
        _trace(jobs),
        online_config,
        window_length=1.0e4,
        class_map=template_class_map(online_config),
    )
    assert res.sources == ["uniform", "fallback"]
    np.testing.assert_array_equal(res.schedules[1], res.schedules[0])


def _served_keys(monkeypatch, *args, **kwargs):
    """online_driver's result and the per-class priority key row each
    window's jobs were served with at the link."""
    seen = []

    def spy(dep1, cls, key, *rest, **kwargs):
        seen.append((cls, np.asarray(key)))
        return simulator.network_start_times(dep1, cls, key, *rest, **kwargs)

    monkeypatch.setattr(online, "network_start_times", spy)
    res = online_driver(*args, **kwargs)
    ((cls, key),) = seen
    win = np.repeat(np.arange(res.num_windows), [w.counts.sum() for w in res.windows])
    rows = np.full((res.num_windows, 3), np.nan)
    rows[win, cls] = key
    return res, rows


def test_fallback_keys_depend_on_its_cause(monkeypatch, online_config):
    # Both causes keep window k-1's schedule. After an infeasible solve the
    # link takes the new estimate's keys; after an empty estimation window
    # it keeps window k-1's keys, there being no estimate.
    sizes = online_config.output_sizes()
    rng = np.random.default_rng(0)
    burst = sorted(rng.uniform(0.0, 1.0e4, 3000))
    calm = sorted(rng.uniform(1.0e4, 2.0e4, 60))
    jobs = [(float(t), "1") for t in burst]
    jobs += [(float(t), str(1 + i % 3)) for i, t in enumerate(calm)]
    jobs.append((2.05e4, "2"))
    res, rows = _served_keys(
        monkeypatch,
        _trace(jobs),
        online_config,
        window_length=1.0e4,
        class_map=template_class_map(online_config),
    )
    assert res.sources == ["uniform", "fallback"]
    # Window 0 holds class 1 only, served with the cold-start key 1/3.
    assert rows[0, 0] == wsept_keys(np.ones(3), sizes)[0] == 1.0 / 3.0
    np.testing.assert_array_equal(rows[1], [1.0, 0.0, 0.0])

    # Window 1 is empty, so window 2 falls back with window 1's keys.
    jobs = [(100.0 * i + 50.0, str(1 + i % 3)) for i in range(100)]
    jobs += [(2.0e4 + 100.0 * i + 50.0, str(1 + i % 3)) for i in range(100)]
    jobs.append((3.05e4, "1"))
    res, rows = _served_keys(
        monkeypatch,
        _trace(jobs),
        online_config,
        window_length=1.0e4,
        class_map=template_class_map(online_config),
    )
    assert res.sources == ["uniform", "optimized", "fallback"]
    np.testing.assert_array_equal(res.schedules[2], res.schedules[1])
    np.testing.assert_array_equal(
        rows[2], wsept_keys(res.windows[0].rates, sizes)
    )


def test_driver_tracks_rate_shift(online_config):
    # Class 1 only for 30k ms, then class 2 only; regular 50 ms spacing.
    seg1 = [(25.0 + 50.0 * i, "1") for i in range(600)]
    seg2 = [(3.0e4 + 25.0 + 50.0 * i, "2") for i in range(670)]
    res = online_driver(
        _trace(seg1 + seg2),
        online_config,
        window_length=1.0e4,
        class_map=template_class_map(online_config),
    )
    assert res.num_windows == 6
    np.testing.assert_allclose(res.windows[1].rates, [0.02, 0.0, 0.0])
    np.testing.assert_allclose(res.windows[4].rates, [0.0, 0.02, 0.0])
    assert res.sources[1:] == ["optimized"] * 5
    # Classes unseen in the estimation window get uniform rows.
    np.testing.assert_allclose(res.schedules[2][1], 0.5, atol=1e-12)
    np.testing.assert_allclose(res.schedules[5][0], 0.5, atol=1e-12)


def test_windows_csv_round_trip(tmp_path, driver_pair):
    on, _ = driver_pair
    path = tmp_path / "windows.csv"
    on.write_windows_csv(path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == on.num_windows
    assert rows[0]["source"] == "uniform"
    for k, row in enumerate(rows):
        assert float(row["objective_estimate"]) == on.window_objectives[k]
        for j in range(3):
            assert float(row[f"rate_{j + 1}"]) == on.windows[k].rates[j]
    d = on.to_dict()
    assert d["num_windows"] == on.num_windows
    assert len(d["windows"]) == on.num_windows
    assert set(d["windows"][0]) == {
        "index",
        "source",
        "objective_estimate",
        "counts",
        "rates",
    }
    assert d["overall"]["weighted_objective"] == on.result.weighted_objective
