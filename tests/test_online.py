import csv

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aoisched.model import ConfigError
from aoisched.online import (
    TraceRecord,
    default_window,
    ingest_trace,
    offline_reference,
    online_driver,
    resolve_classes,
    synthesize_poisson_trace,
    template_class_map,
    _prepare_trace,
)

from aoisched import online
from conftest import make_system
from scan_oracles import assign_vms_per_class


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
    records = ingest_trace(path)
    assert [r.timestamp for r in records] == [10.0, 150.0, 200.5]
    assert [r.class_key for r in records] == ["a", "a", "b"]


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


def test_resolve_classes_explicit_map():
    records = [
        TraceRecord(5.0, "svc-b"),
        TraceRecord(1.0, "svc-a"),
        TraceRecord(3.0, "svc-a"),
    ]
    times, cls, mapping = resolve_classes(
        records, 2, {"svc-a": 1, "svc-b": 2}
    )
    np.testing.assert_array_equal(times, [1.0, 3.0, 5.0])
    np.testing.assert_array_equal(cls, [0, 0, 1])
    assert mapping == {"svc-a": 1, "svc-b": 2}
    with pytest.raises(ConfigError, match="not in class_map"):
        resolve_classes(records, 2, {"svc-a": 1})
    with pytest.raises(ConfigError, match="outside 1..2"):
        resolve_classes(records, 2, {"svc-a": 1, "svc-b": 3})
    for bad in (1.5, float("nan"), "one"):
        with pytest.raises(ConfigError, match="not an integer"):
            resolve_classes(records, 2, {"svc-a": 1, "svc-b": bad})
    # An integral float is an integer class id.
    assert resolve_classes(records, 2, {"svc-a": 1, "svc-b": 2.0})[2]["svc-b"] == 2


def test_resolve_classes_rejects_non_finite_timestamp():
    records = [TraceRecord(1.0, "a"), TraceRecord(float("nan"), "a")]
    with pytest.raises(ConfigError, match="trace record 1: timestamp"):
        resolve_classes(records, 2)


def test_resolve_classes_frequency_rank():
    records = (
        [TraceRecord(float(i), "hot") for i in range(5)]
        + [TraceRecord(10.0 + i, "warm") for i in range(3)]
        + [TraceRecord(20.0 + i, "cold") for i in range(2)]
    )
    _, cls, mapping = resolve_classes(records, 2)
    # Ranked by frequency: hot -> 1, warm -> 2, cold wraps around to 1.
    assert mapping == {"hot": 1, "warm": 2, "cold": 1}
    # Equal counts break ties by key string.
    _, _, tie = resolve_classes(
        [TraceRecord(0.0, "b"), TraceRecord(1.0, "a")], 2
    )
    assert tie == {"a": 1, "b": 2}


@pytest.fixture(scope="module")
def online_config():
    return make_system(
        [(0.012, 1.0, 1.0), (0.010, 1.0, 0.7), (0.008, 1.0, 1.3)],
        [(0.05, 0.0), (0.04, 0.0)],
    )


def test_synthesize_trace_matches_rates(online_config):
    trace = synthesize_poisson_trace(online_config, 1.0e5, seed=4)
    again = synthesize_poisson_trace(online_config, 1.0e5, seed=4)
    assert trace == again
    assert all(t.class_key in {"1", "2", "3"} for t in trace)
    counts = {k: 0 for k in ("1", "2", "3")}
    for r in trace:
        counts[r.class_key] += 1
    for c, lam in zip(online_config.classes, (0.012, 0.010, 0.008)):
        assert counts[str(c.id)] == pytest.approx(lam * 1.0e5, rel=0.12)
    for horizon in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="horizon"):
            synthesize_poisson_trace(online_config, horizon)


def test_template_map_and_default_window(online_config):
    assert template_class_map(online_config) == {"1": 1, "2": 2, "3": 3}
    assert default_window(online_config) == 1.0e5
    slow = make_system([(0.001, 1.0, 1.0)], [(0.05, 0.0)])
    assert default_window(slow) == 1.0e6  # stretched to expect 1000 arrivals


def test_driver_needs_two_windows(online_config):
    trace = synthesize_poisson_trace(online_config, 5.0e4, seed=1)
    with pytest.raises(ConfigError, match="two full windows"):
        online_driver(trace, online_config, window_length=1.0e5)


def test_window_counts_hand_example(online_config):
    # Window length 100: [0, 100) and [100, 200) are full; the record at
    # exactly 100 opens window 1, and [200, 250] is a dropped partial window.
    records = [
        TraceRecord(10.0, "1"),
        TraceRecord(20.0, "2"),
        TraceRecord(30.0, "1"),
        TraceRecord(100.0, "1"),
        TraceRecord(110.0, "1"),
        TraceRecord(200.0, "2"),
        TraceRecord(250.0, "3"),
    ]
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
    records = [TraceRecord(float(t), str(j % num_classes + 1)) for t, j in jobs]
    tr = _prepare_trace(records, config, float(window), template_class_map(config))
    times = np.array(sorted(float(t) for t, _ in jobs))
    cls = np.array([j % num_classes for _, j in sorted(jobs, key=lambda x: x[0])])
    for k, w in enumerate(tr.windows):
        mask = (times >= k * window) & (times < (k + 1) * window)
        np.testing.assert_array_equal(
            w.counts, np.bincount(cls[mask], minlength=num_classes)
        )
    assert len(tr.windows) == int(times[-1] // window)


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
    records = [TraceRecord(float(t), "1") for t in burst]
    records += [
        TraceRecord(float(t), str(1 + i % 3)) for i, t in enumerate(calm)
    ]
    records.append(TraceRecord(2.05e4, "2"))
    res = online_driver(
        records,
        online_config,
        window_length=1.0e4,
        class_map=template_class_map(online_config),
    )
    assert res.sources == ["uniform", "fallback"]
    np.testing.assert_array_equal(res.schedules[1], res.schedules[0])


def test_driver_tracks_rate_shift(online_config):
    # Class 1 only for 30k ms, then class 2 only; regular 50 ms spacing.
    seg1 = [TraceRecord(25.0 + 50.0 * i, "1") for i in range(600)]
    seg2 = [TraceRecord(3.0e4 + 25.0 + 50.0 * i, "2") for i in range(670)]
    res = online_driver(
        seg1 + seg2,
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
