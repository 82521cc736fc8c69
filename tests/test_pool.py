"""The two-thread pool: the same bits at width 1 and 2, the OpenBLAS hold, and fork."""

import glob
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import affinitykit as ak
from affinitykit import _pool

RNG = np.random.default_rng(41)
# 600 keys make 218-row blocks: 700 queries are four, the last one partial.
Q, KV = RNG.normal(size=(700, 6)), RNG.normal(size=(600, 6))
X = RNG.normal(size=(600, 6))
MHA_CFG = ak.AttentionConfig(d_model=6, heads=3, d_k=2)
MHA_PROJ = ak.ProjectionSet(*(tuple(RNG.normal(size=(6, 2)) for _ in range(3)) for _ in range(3)),
                            RNG.normal(size=(6, 6)))
NL_PROJ = ak.NonLocalProjections(*(RNG.normal(size=(6, 6)) * 0.5 for _ in range(3)))
GAT_HEADS = [ak.GatParams(RNG.normal(size=(6, 4)), RNG.normal(size=(6, 4)), RNG.normal(size=8))
             for _ in range(2)]
GAT_ALLOWED = RNG.random((600, 600)) < 0.05
np.fill_diagonal(GAT_ALLOWED, True)
GAT_MASK = ak.NeighborhoodMask(GAT_ALLOWED)
# 201 rows: strips of 101 at width 2, and mirror strips of 64 ending on a partial one.
GAUSS_X = RNG.normal(size=(201, 7))

CALLS = {
    "attention": lambda: ak.attention(Q, KV, KV),
    "multi_head_attention": lambda: ak.multi_head_attention(X, MHA_CFG, MHA_PROJ),
    "non_local_block-embedded_gaussian": lambda: ak.non_local_block(X, NL_PROJ),
    "non_local_block-dot_product": lambda: ak.non_local_block(X, NL_PROJ, "dot_product"),
    "gat_layer": lambda: ak.gat_layer(X, GAT_HEADS[0], GAT_MASK),
    "multi_head_gat-concat": lambda: ak.multi_head_gat(X, GAT_HEADS, GAT_MASK),
    "multi_head_gat-average": lambda: ak.multi_head_gat(X, GAT_HEADS, GAT_MASK, mode="average"),
    "build_gaussian_affinity": lambda: ak.build_gaussian_affinity(GAUSS_X, 2.5).matrix,
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_same_bits_at_width_one_and_two(name, monkeypatch):
    outputs = []
    for width in (1, 2):
        monkeypatch.setattr(_pool, "_WIDTH", width)
        outputs.append(CALLS[name]())
    assert_array_equal(outputs[0].view(np.int64), outputs[1].view(np.int64))


def thread_name(_):
    return threading.current_thread().name


def test_units_run_on_workers_and_nested_units_inline(monkeypatch):
    monkeypatch.setattr(_pool, "_WIDTH", 2)
    outer = _pool.run(lambda i: (thread_name(i), _pool.run(thread_name, range(3))), range(4))
    for name, inner in outer:
        assert name.startswith("affinitykit") and inner == [name] * 3
    monkeypatch.setattr(_pool, "_WIDTH", 1)
    assert _pool.run(thread_name, range(3)) == [threading.current_thread().name] * 3


def test_units_run_under_the_callers_error_state(monkeypatch):
    monkeypatch.setattr(_pool, "_WIDTH", 2)
    huge = np.full(4, 1e308)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _pool.run(lambda i: huge * i, range(4))
    with np.errstate(over="ignore"):
        assert _pool.run(lambda i: np.isinf(huge * i).all(), range(2, 4)) == [True, True]


def test_every_unit_is_done_when_one_raises(monkeypatch):
    monkeypatch.setattr(_pool, "_WIDTH", 2)
    done = []

    def unit(i):
        if i == 0:
            raise ValueError("first")
        threading.Event().wait(0.01)
        done.append(i)

    with pytest.raises(ValueError, match="first"):
        _pool.run(unit, range(6))
    assert sorted(done) == [1, 2, 3, 4, 5]


@pytest.fixture
def blas_threads(monkeypatch):
    """OpenBLAS's thread-count getter, the count set to 2 and the pool on for the test."""
    blas = _pool._blas()
    if not blas:
        pytest.skip("numpy's OpenBLAS exports no thread-count setter")
    get, set_ = blas
    monkeypatch.setattr(_pool, "_WIDTH", 2)
    saved = get()
    set_(2)
    yield get
    set_(saved)


@pytest.mark.parametrize("cores, setter, expected", [
    (1, True, 1), (2, True, 2), (3, True, 1), (16, True, 1), (2, False, 1),
])
def test_pool_is_on_only_on_two_cores_with_the_setter(cores, setter, expected, monkeypatch):
    if setter and not _pool._blas():
        pytest.skip("numpy's OpenBLAS exports no thread-count setter")
    monkeypatch.setattr(_pool, "_WIDTH", None)
    if not setter:
        monkeypatch.setattr(_pool, "_BLAS", ())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    assert _pool.width() == expected


def test_a_call_during_the_first_probe_sees_the_setter(monkeypatch):
    # A second thread must not take the probe in progress for "no setter",
    # which would turn the pool off for good.
    if not _pool._blas():
        pytest.skip("numpy's OpenBLAS exports no thread-count setter")
    monkeypatch.setattr(_pool, "_BLAS", None)
    monkeypatch.setattr(_pool, "_WIDTH", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    entered, release, real_glob = threading.Event(), threading.Event(), glob.glob

    def slow_glob(pattern):
        if not entered.is_set():
            entered.set()
            release.wait(10)
        return real_glob(pattern)

    monkeypatch.setattr(glob, "glob", slow_glob)
    first = threading.Thread(target=_pool.width)
    first.start()
    try:
        assert entered.wait(10)
        assert _pool.width() == 2
    finally:
        release.set()
        first.join(10)
    assert _pool._BLAS and _pool.width() == 2


def test_blas_is_held_at_one_thread_and_restored(blas_threads):
    seen = []

    def activation(out):
        seen.append(blas_threads())
        ak.attention(out, out, out)  # a nested hold
        seen.append(blas_threads())
        return out

    ak.gat_layer(X, GAT_HEADS[0], GAT_MASK, activation)
    assert seen == [1, 1] and blas_threads() == 2
    ak.multi_head_gat(X, GAT_HEADS, GAT_MASK, activation=activation)
    assert blas_threads() == 2
    with pytest.raises(ak.NonFiniteInput):
        ak.attention(np.full((5, 4), 1e308), X[:5, :4], X[:5, :4])
    assert blas_threads() == 2
    with pytest.raises(ak.DimensionMismatch):
        ak.attention(X[:5, :4], X[:5, :3], X[:5, :4])
    assert blas_threads() == 2


def test_blas_is_untouched_with_the_pool_off_and_by_the_gaussian(blas_threads, monkeypatch):
    seen, real_run = [], _pool.run
    record = lambda out: seen.append(blas_threads()) or out  # noqa: E731
    monkeypatch.setattr(_pool, "_WIDTH", 1)
    ak.gat_layer(X, GAT_HEADS[0], GAT_MASK, record)
    monkeypatch.setattr(_pool, "_WIDTH", 2)
    monkeypatch.setattr(_pool, "run", lambda fn, items: record(real_run(fn, items)))
    ak.build_gaussian_affinity(GAUSS_X, 2.5)  # no gemm to hold
    assert seen == [2, 2] and blas_threads() == 2


def test_concurrent_callers_share_the_pool_and_the_hold(blas_threads, monkeypatch):
    # More caller threads than cores, switching often: a lost update of the
    # hold's depth would restore OpenBLAS inside a call or never restore it.
    monkeypatch.setattr(_pool, "_WIDTH", 2)
    names = ("attention", "build_gaussian_affinity", "gat_layer")
    expected = {name: CALLS[name]() for name in names}
    mismatches, inside = [], []

    def caller(name):
        for _ in range(5):
            if not np.array_equal(CALLS[name](), expected[name]):
                mismatches.append(name)
            ak.gat_layer(X, GAT_HEADS[0], GAT_MASK, lambda out: inside.append(blas_threads()) or out)

    threads = [threading.Thread(target=caller, args=(name,)) for name in names * 2]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == [] and inside == [1] * 30
    assert blas_threads() == 2


def attend_in_child(expected):
    assert_array_equal(CALLS["attention"](), expected)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_child_forked_after_the_pool_ran_can_attend(monkeypatch):
    monkeypatch.setattr(_pool, "_WIDTH", 2)
    expected = CALLS["attention"]()  # the parent's workers exist now
    child = multiprocessing.get_context("fork").Process(target=attend_in_child, args=(expected,))
    child.start()
    child.join(60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child hung in attention")
    assert child.exitcode == 0


def hold_until(inside, release):
    def activation(out):
        inside.set()
        release.wait(60)
        return out
    ak.gat_layer(X, GAT_HEADS[0], GAT_MASK, activation)


def blas_restored_in_child(get):
    assert get() == 2 and _pool._depth == 0


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_child_forked_during_another_threads_hold_gets_blas_back(blas_threads):
    inside, release = threading.Event(), threading.Event()
    holder = threading.Thread(target=hold_until, args=(inside, release))
    holder.start()
    try:
        assert inside.wait(60) and blas_threads() == 1
        child = multiprocessing.get_context("fork").Process(
            target=blas_restored_in_child, args=(blas_threads,))
        child.start()
        child.join(60)
    finally:
        release.set()
        holder.join(60)
    assert child.exitcode == 0 and blas_threads() == 2


class Forked(Exception):
    """Unwinds the forked child out of the hold it was forked in."""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_child_forked_inside_a_hold_keeps_it_until_it_exits(blas_threads):
    pids = []

    def activation(out):
        pid = os.fork()
        if pid == 0:
            try:
                held = blas_threads() == 1 and _pool._depth == 1
            except BaseException:
                os._exit(1)
            raise Forked(held)
        pids.append(pid)
        return out

    try:
        ak.gat_layer(X, GAT_HEADS[0], GAT_MASK, activation)
    except Forked as inside:  # the child only: report, and never return to the test runner
        ok = False
        try:
            ok = inside.args[0] and blas_threads() == 2 and _pool._depth == 0
        finally:
            os._exit(0 if ok else 1)
    for _ in range(600):
        pid, status = os.waitpid(pids[0], os.WNOHANG)
        if pid:
            break
        threading.Event().wait(0.1)
    else:
        os.kill(pids[0], 9)
        os.waitpid(pids[0], 0)
        pytest.fail("the forked child hung")
    assert os.waitstatus_to_exitcode(status) == 0 and blas_threads() == 2
