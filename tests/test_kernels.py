"""The FCFS and priority kernels against the original scans, and their guards."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoisched import _kernels
from aoisched.simulator import group_by_class, network_start_times

from scan_oracles import fcfs_scan, priority_scan

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_python(script: str) -> str:
    """Stdout of `script` run by a fresh interpreter that imports from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    ).stdout


# Small integer-valued times make ties in arrival, key and start time common.
_times = st.integers(0, 12).map(float)
_keys = np.array([0.0, 1.0, 2.5, -1.0, np.inf, -np.inf])


@st.composite
def _priority_inputs(draw):
    # Services of 0..4 over a short span make long busy periods and ties; a
    # long span leaves lone arrivals that find the link idle. Hypothesis
    # draws the sizes, the span and a seed; numpy draws the n entries of
    # each column, which costs far less than one draw per entry.
    n_classes = draw(st.integers(1, 30))
    n = draw(st.integers(0, 200))
    span = draw(st.sampled_from([12, 100, 800]))
    # Classes drawn from a prefix of range(n_classes) leave the rest empty.
    used = draw(st.integers(1, n_classes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dep1 = rng.integers(0, span, n, endpoint=True).astype(np.float64)
    cls = rng.integers(0, used, n).astype(np.int64)
    # Per-job keys change within a class, as they do across online windows.
    key = rng.choice(_keys, n)
    s2 = rng.integers(0, 4, n, endpoint=True).astype(np.float64)
    return _kernel_inputs(dep1, cls, n_classes, key, s2, rng)


@st.composite
def _priority_edge_inputs(draw):
    # The corners of the successor links: up to 500 classes with most of
    # them empty, or every job in a class of its own; every job arriving at
    # one instant; zero services. The oracle scans every class per job, so
    # runs stay short.
    n_classes = draw(st.integers(1, 500))
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()) and n <= n_classes:
        cls = rng.choice(n_classes, n, replace=False)  # single-job classes
    else:
        cls = rng.choice(rng.choice(n_classes, min(n_classes, 5)), n)
    if draw(st.booleans()):
        dep1 = np.full(n, float(draw(st.integers(0, 5))))
    else:
        dep1 = rng.integers(0, 3 * n + 1, n).astype(np.float64)
    if draw(st.booleans()):
        s2 = np.zeros(n)
    else:
        s2 = rng.integers(0, 4, n, endpoint=True).astype(np.float64)
    key = rng.choice(_keys, n)
    return _kernel_inputs(dep1, cls.astype(np.int64), n_classes, key, s2, rng)


def _kernel_inputs(dep1, cls, n_classes, key, s2, rng):
    """The kernel's arguments, walking tied arrivals in a random order."""
    order = np.lexsort((rng.permutation(len(dep1)), dep1))
    return dep1, order, cls, n_classes, key, s2


def _scan(dep1, order, cls, n_classes, key, s2):
    """The oracle on the kernel's arguments: grouped job indices, each class
    in walk order."""
    grouped, offsets = group_by_class(cls[order], n_classes)
    return priority_scan(dep1, order[grouped], offsets, key, s2)


@settings(max_examples=300)
@given(_priority_inputs())
def test_priority_start_matches_scan(inputs):
    np.testing.assert_array_equal(_kernels.priority_start(*inputs), _scan(*inputs))


@settings(max_examples=150)
@given(_priority_edge_inputs())
def test_priority_start_matches_scan_at_the_edges(inputs):
    np.testing.assert_array_equal(_kernels.priority_start(*inputs), _scan(*inputs))


def test_priority_start_rejects_an_order_that_does_not_sort_arrivals():
    dep1 = np.array([0.0, 2.0, 1.0])
    cls = np.zeros(3, dtype=np.int64)
    s2 = np.ones(3)
    with pytest.raises(ValueError, match="order must sort arrivals"):
        _kernels.priority_start(dep1, np.arange(3), cls, 1, s2, s2)


@pytest.mark.parametrize("n_classes", [1, 256, 257, 70_000])
def test_group_by_class_matches_an_int64_stable_sort(n_classes):
    rng = np.random.default_rng(n_classes)
    n = 3000
    cls = rng.integers(0, n_classes, n)
    cls[rng.choice(n, 2, replace=False)] = n_classes - 1  # sets the code dtype
    grouped, offsets = group_by_class(cls, n_classes)
    np.testing.assert_array_equal(
        grouped, np.argsort(cls.astype(np.int64), kind="stable")
    )
    assert grouped.dtype == np.int64
    np.testing.assert_array_equal(
        offsets, np.concatenate([[0], np.cumsum(np.bincount(cls, minlength=n_classes))])
    )


@given(
    st.integers(1, 4).flatmap(
        lambda v: st.lists(
            st.tuples(_times, st.integers(0, v - 1), st.integers(0, 4).map(float)),
            max_size=40,
        ).map(lambda jobs: (v, jobs))
    )
)
def test_fcfs_start_matches_scan(case):
    n_servers, jobs = case
    jobs.sort(key=lambda job: job[0])
    t = np.array([j[0] for j in jobs], dtype=np.float64)
    srv = np.array([j[1] for j in jobs], dtype=np.int64)
    s = np.array([j[2] for j in jobs], dtype=np.float64)
    np.testing.assert_array_equal(
        _kernels.fcfs_start(t, srv, s, n_servers), fcfs_scan(t, srv, s, n_servers)
    )


BLOCK = _kernels.FCFS_BLOCK


@pytest.mark.parametrize(
    "n",
    [0, 1, BLOCK // 2 - 1, BLOCK // 2, BLOCK // 2 + 1, BLOCK + BLOCK // 2 + 7]
    + [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7],
)
def test_fcfs_start_across_chunk_boundaries(n):
    assert BLOCK == 16384
    rng = np.random.default_rng(n)
    # Load above one per server keeps queues, so state crosses every block.
    t = np.cumsum(rng.exponential(1.0, n))
    srv = rng.integers(0, 3, n)
    s = rng.exponential(2.5, n)
    s[::5] = 0.0
    np.testing.assert_array_equal(
        _kernels.fcfs_start(t, srv, s, 3), fcfs_scan(t, srv, s, 3)
    )


@pytest.mark.parametrize("n_servers", [1, 3])
@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
def test_fcfs_start_through_an_order_matches_gather_scan_scatter(n, n_servers):
    # Arrivals out of order with many ties, as compute departures reach the
    # link; the kernel serves them in their stable order, and queues carry
    # across blocks.
    rng = np.random.default_rng(n + n_servers)
    t = np.round(rng.uniform(0.0, n, n), 1)
    srv = rng.integers(0, n_servers, n)
    s = rng.exponential(0.95 * n_servers, n)
    s[::7] = 0.0
    expected = _gather_scan_scatter(t, srv, s, n_servers)
    np.testing.assert_array_equal(_kernels.fcfs_start(t, srv, s, n_servers), expected)
    if n_servers == 1:
        cls = rng.integers(0, 3, n)
        np.testing.assert_array_equal(
            network_start_times(t, cls, None, s, 3, "fcfs"), expected
        )


def _gather_scan_scatter(t, srv, s, n_servers):
    """The FCFS oracle over the stable sort of t, scattered back to positions."""
    order = np.argsort(t, kind="stable")
    start = np.empty(len(t))
    start[order] = fcfs_scan(t[order], srv[order], s[order], n_servers)
    return start


def _count_block_jobs(monkeypatch) -> list[int]:
    """Record how many jobs each call of the block scan is handed."""
    block = _kernels._fcfs_block
    handed: list[int] = []

    def counting(a, *rest):
        handed.append(len(a))
        return block(a, *rest)

    monkeypatch.setattr(_kernels, "_fcfs_block", counting)
    return handed


@pytest.mark.parametrize("n_servers", [1, 3])
@pytest.mark.parametrize(
    "case",
    ["ties", "ties_at_edges", "descending", "halves_swapped", "blocks_rotated", "rounded"],
)
def test_fcfs_start_serves_out_of_order_arrivals_in_stable_order(
    monkeypatch, case, n_servers
):
    # n is no multiple of the block. "ties" draws a few hundred values, so
    # tied jobs sit in every block and most wait pending over several;
    # "ties_at_edges" is sorted with a run of ties across each block edge;
    # "descending" keeps every job pending until the last block, and ties
    # 50 of them with the latest arrival; "halves_swapped" puts the later
    # half of the arrivals before the earlier one; "blocks_rotated" moves
    # the first block of sorted arrivals behind the next two, so block 0's
    # jobs wait for block 2 although block 1 holds none earlier.
    rng = np.random.default_rng(len(case) + n_servers)
    n = 3 * BLOCK + 123
    if case == "ties":
        t = rng.integers(0, 300, n).astype(np.float64)
    elif case == "ties_at_edges":
        t = np.sort(rng.uniform(0.0, n, n))
        for edge in range(BLOCK, n, BLOCK):
            t[edge - 3 : edge + 3] = t[edge - 3]
    elif case == "descending":
        t = np.sort(rng.uniform(0.0, n, n))[::-1].copy()
        t[rng.integers(0, n, 50)] = t[0]
    elif case == "halves_swapped":
        t = np.sort(rng.uniform(0.0, n, n))
        t = np.concatenate((t[n // 2 :], t[: n // 2]))
    elif case == "blocks_rotated":
        t = np.sort(rng.uniform(0.0, n, n))
        t = np.concatenate((t[BLOCK : 3 * BLOCK], t[:BLOCK], t[3 * BLOCK :]))
    else:
        t = np.round(rng.uniform(0.0, n, n), 1)
    srv = rng.integers(0, n_servers, n)
    s = rng.exponential(0.95 * n_servers, n)
    s[::7] = 0.0
    expected = _gather_scan_scatter(t, srv, s, n_servers)
    handed = _count_block_jobs(monkeypatch)
    np.testing.assert_array_equal(_kernels.fcfs_start(t, srv, s, n_servers), expected)
    assert sum(handed) == n  # each job served once
    if case == "descending":
        assert handed[-1] == n
    buf = t.copy()
    assert _kernels.fcfs_start(buf, srv, s, n_servers, out=buf) is buf
    np.testing.assert_array_equal(buf, expected)


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 7])
def test_link_kernels_write_their_starts_over_their_arrivals(n):
    # Tied, unsorted arrivals, as compute departures reach the link. Starts
    # written into the arrival buffer must equal an out-of-place call's:
    # each block reads its arrivals before its starts land on them.
    rng = np.random.default_rng(n)
    t = np.round(rng.uniform(0.0, n, n), 1)
    s = rng.exponential(0.95, n)
    s[::7] = 0.0
    cls = rng.integers(0, 3, n)
    key = np.array([0.0, 2.0, 2.0])[cls]
    order = np.argsort(t, kind="stable")
    kernels = {
        "fcfs": lambda a, out=None: _kernels.fcfs_start(a, None, s, 1, out),
        "priority": lambda a, out=None: _kernels.priority_start(
            a, order, cls, 3, key, s, out
        ),
    }
    for networking, kernel in kernels.items():
        expected = kernel(t)
        assert n < 2 or not np.array_equal(expected, t)  # some job waits
        buf = t.copy()
        assert kernel(buf, buf) is buf
        np.testing.assert_array_equal(buf, expected)
        buf = t.copy()
        assert network_start_times(buf, cls, key, s, 3, networking, out=buf) is buf
        np.testing.assert_array_equal(buf, expected)
    # In position order too, across servers, as the docstring allows.
    ts, srv = np.sort(t), rng.integers(0, 3, n)
    expected = _kernels.fcfs_start(ts, srv, 3 * s, 3)
    assert _kernels.fcfs_start(ts, srv, 3 * s, 3, out=ts) is ts
    np.testing.assert_array_equal(ts, expected)


@st.composite
def _fcfs_runs(draw):
    # Sizes up to several blocks, one to five servers with uneven shares:
    # a zero share leaves a server without jobs, and a small one leaves it
    # a few jobs per block while the others have thousands.
    small = 1024
    n_servers = draw(st.integers(1, 5))
    n = draw(
        st.one_of(
            st.integers(0, 3 * small),
            st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + small]),
        )
    )
    shares = draw(
        st.lists(
            st.sampled_from([0.0, 0.03, 0.3, 1.0]),
            min_size=n_servers,
            max_size=n_servers,
        ).filter(any)
    )
    load = draw(st.sampled_from([0.3, 0.9, 1.0, 1.3]))  # on the busiest server
    integer_times = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = np.array(shares) / sum(shares)
    srv = rng.choice(n_servers, n, p=p)
    t = np.cumsum(rng.exponential(1.0, n))
    s = rng.exponential(load / p.max(), n)
    if integer_times:
        # Ties in arrival and start times, and zero services at low load.
        t, s = np.floor(t), np.floor(s)
    else:
        s[rng.random(n) < 0.1] = 0.0
    return t, srv, s, n_servers


@settings(max_examples=40)
@given(_fcfs_runs())
def test_fcfs_start_matches_scan_over_blocks(run):
    np.testing.assert_array_equal(_kernels.fcfs_start(*run), fcfs_scan(*run))


def _count_loop_jobs(monkeypatch) -> list[int]:
    """Record how many jobs each call of the list loop is handed."""
    loop = _kernels._lindley_loop
    handed: list[int] = []

    def counting(a, *rest):
        handed.append(len(a))
        return loop(a, *rest)

    monkeypatch.setattr(_kernels, "_lindley_loop", counting)
    return handed


@pytest.mark.parametrize("n_servers", [24, 100])
@pytest.mark.parametrize("n", [1, 40, 1000, BLOCK, 2 * BLOCK + 7])
def test_fcfs_start_matches_scan_on_many_servers(monkeypatch, n, n_servers):
    # From under one job per server up to whole blocks of a few hundred per
    # server, in the simulator's narrow server codes. Every server's jobs
    # take the busy-period scan: on continuous times no job takes the loop.
    rng = np.random.default_rng(n + n_servers)
    srv = rng.integers(0, n_servers, n).astype(np.min_scalar_type(n_servers))
    t = np.cumsum(rng.exponential(1.0, n))
    s = rng.exponential(0.9 * n_servers, n)
    s[::9] = 0.0
    handed = _count_loop_jobs(monkeypatch)
    np.testing.assert_array_equal(
        _kernels.fcfs_start(t, srv, s, n_servers), fcfs_scan(t, srv, s, n_servers)
    )
    assert handed == []


@pytest.mark.parametrize("n_servers", [1, 2])
def test_fcfs_start_falls_back_when_the_guess_is_wrong(monkeypatch, n_servers):
    guess = _kernels._guess_idle

    def wrong(*args):
        idle = guess(*args)
        idle[-1] = ~idle[-1]
        return idle

    monkeypatch.setattr(_kernels, "_guess_idle", wrong)
    handed = _count_loop_jobs(monkeypatch)
    rng = np.random.default_rng(11)
    n = 2 * BLOCK + 100
    t = np.cumsum(rng.exponential(1.0, n))
    srv = rng.integers(0, n_servers, n)
    s = rng.exponential(0.9 * n_servers, n)
    got = _kernels.fcfs_start(t, srv, s, n_servers)
    # Every block fails the check and runs whole through the loop.
    assert handed == [BLOCK, BLOCK, 100]
    np.testing.assert_array_equal(got, fcfs_scan(t, srv, s, n_servers))


@pytest.mark.parametrize("load", [0.3, 0.9, 1.1])
def test_busy_period_guess_holds_on_continuous_times(monkeypatch, load):
    # The fallback is for near-ties only: on continuous times the guess
    # passes the check, and no job goes through the loop.
    handed = _count_loop_jobs(monkeypatch)
    rng = np.random.default_rng(3)
    n = 3 * BLOCK
    t = np.cumsum(rng.exponential(1.0, n))
    for n_servers in (1, 3):
        srv = rng.integers(0, n_servers, n)
        s = rng.exponential(load * n_servers, n)  # each server at `load`
        np.testing.assert_array_equal(
            _kernels.fcfs_start(t, srv, s, n_servers),
            fcfs_scan(t, srv, s, n_servers),
        )
    assert handed == []


def test_network_start_times_matches_oracles():
    rng = np.random.default_rng(3)
    n = 400
    dep1 = np.sort(rng.uniform(0.0, 100.0, n))
    cls = rng.integers(0, 3, n)
    key = np.array([0.3, 0.1, 0.9])[cls]
    s2 = rng.exponential(0.5, n)
    order = np.arange(n)
    np.testing.assert_array_equal(
        network_start_times(dep1, cls, key, s2, 3, "priority"),
        _scan(dep1, order, cls, 3, key, s2),
    )
    fcfs = np.empty(n)
    fcfs[order] = fcfs_scan(dep1[order], np.zeros(n, dtype=np.int64), s2[order], 1)
    np.testing.assert_array_equal(
        network_start_times(dep1, cls, key, s2, 3, "fcfs"), fcfs
    )
    # The FCFS link reads no keys.
    np.testing.assert_array_equal(
        network_start_times(dep1, cls, None, s2, 3, "fcfs"), fcfs
    )
    with pytest.raises(ValueError, match="discipline"):
        network_start_times(dep1, cls, key, s2, 3, "lifo")


def test_priority_link_takes_unsorted_departures_with_ties_across_classes():
    # Small integer departures in no particular order: many jobs of different
    # classes leave their VMs at the same instant. The oracle gets each
    # class's jobs in arrival order, ties by job index.
    rng = np.random.default_rng(11)
    n, n_classes = 600, 7
    dep1 = rng.integers(0, 150, n).astype(np.float64)
    cls = rng.integers(0, n_classes, n)
    key = rng.choice(_keys, n_classes)[cls]
    s2 = rng.integers(0, 3, n, endpoint=True).astype(np.float64)
    offsets = np.concatenate([[0], np.cumsum(np.bincount(cls, minlength=n_classes))])
    np.testing.assert_array_equal(
        network_start_times(dep1, cls, key, s2, n_classes, "priority"),
        priority_scan(dep1, np.lexsort((dep1, cls)), offsets, key, s2),
    )


_NAN_SCRIPT = """
import numpy as np
from aoisched import _kernels

t = np.array([0.0, 1.0, 2.0])
s = np.array([1.0, 1.0, 1.0])
order, cls = np.arange(3), np.array([0, 0, 1])
key = np.array([1.0, 1.0, 2.0])
srv = np.zeros(3, dtype=np.int64)
nan_at_1 = lambda a, bad=np.nan: np.where(np.arange(3) == 1, bad, a)
calls = [
    lambda: _kernels.priority_start(nan_at_1(t), order, cls, 2, key, s),
    lambda: _kernels.priority_start(t, order, cls, 2, key, nan_at_1(s)),
    lambda: _kernels.priority_start(t, order, cls, 2, key, nan_at_1(s, np.inf)),
    lambda: _kernels.priority_start(t, order, cls, 2, nan_at_1(key), s),
    lambda: _kernels.fcfs_start(nan_at_1(t), srv, s, 1),
    lambda: _kernels.fcfs_start(t, srv, nan_at_1(s), 1),
]
for call in calls:
    try:
        call()
    except ValueError as exc:
        print(exc)
    else:
        print("no error")
"""


def test_non_finite_times_raise_instead_of_hanging():
    # A NaN departure once made the priority scan loop forever; a hang here
    # fails on the timeout instead of stalling the suite.
    assert _run_python(_NAN_SCRIPT).splitlines() == [
        "arrivals must be finite",
        "service must be finite",
        "service must be finite",
        "key must not be NaN",
        "arrivals must be finite",
        "service must be finite",
    ]


def test_import_leaves_scipy_solvers_unloaded():
    script = (
        "import sys, aoisched; "
        "print(sorted({'scipy.optimize', 'scipy.stats'} & set(sys.modules)))"
    )
    assert _run_python(script).strip() == "[]"
    # The replications' confidence intervals need one Student t quantile,
    # which scipy.special gives without loading scipy.stats.
    script = (
        "import sys, numpy as np; "
        "from aoisched import SimConfig, default_config, run_simulation; "
        "r = run_simulation(default_config(3, 2), np.full((3, 2), 0.5), "
        "SimConfig(horizon=2e4, replications=2)); "
        "print(np.isfinite(r.ci_weighted_objective), 'scipy.stats' in sys.modules)"
    )
    assert _run_python(script).strip() == "True False"


def test_ten_replications_leave_scipy_special_unloaded():
    # Their Student t quantile, at 9 degrees of freedom, comes from the
    # simulator's table; scipy loads only past 64.
    script = (
        "import sys, numpy as np; "
        "from aoisched import SimConfig, default_config, run_simulation; "
        "r = run_simulation(default_config(3, 2), np.full((3, 2), 0.5), "
        "SimConfig(horizon=2e4, replications=10)); "
        "print(np.isfinite(r.ci_weighted_objective), "
        "sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert _run_python(script).strip() == "True []"
