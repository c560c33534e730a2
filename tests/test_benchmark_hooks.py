"""The benchmark's traced run patches cobst functions by name; this
guards those names, so a rename fails here instead of in ``--trace 1``.
It also runs the benchmark's own self-test of its output checks."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import inspect

import cobst.harness
from cobst.concurrent_set import ConcurrentSet
from cobst.rwlock import CondRwLock, SpinPolicy

from scenarios import script_parallel_inserts, script_twin_replacement

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_existing_names_and_restores_them(monkeypatch):
    # an insert that finds its edge bit held spins, so ``rwlock.acquire``
    # spans too; the first pause frees the bit
    held = []
    monkeypatch.setattr(SpinPolicy, "pause",
                        staticmethod(lambda: setattr(held.pop(), "word", 0)))
    tracing = load_tracing()
    targets = [(owner, attr) for owner, attr, _, _ in tracing._TARGETS]
    missing = [(owner.__name__, attr) for owner, attr in targets
               if not hasattr(owner, attr)]
    assert missing == []
    before = [getattr(owner, attr) for owner, attr in targets]

    tr = tracing.Tracer()
    tr.install()
    try:
        s = ConcurrentSet()
        for k in (5, 3, 7):
            s.insert(k)
        s.contains(3)
        s.delete(3)
        held.append(s.root.left.right)      # 7, whose right edge 9 hangs on
        s.root.left.right.word = 2
        assert s.insert(9) and held == []
        s.reclaimer.drain()
        # through the module, as the benchmark calls it
        cobst.harness.run_script(script_parallel_inserts())
        # only stepped deletes retire what they unlink
        cobst.harness.run_script(script_twin_replacement())
    finally:
        tr.uninstall()
    tr.flush(1.0)

    assert [getattr(owner, attr) for owner, attr in targets] == before
    for name in ("concurrent_set.contains", "concurrent_set.insert",
                 "concurrent_set.delete", "rwlock.acquire", "rwlock.attempt",
                 "rwlock.unlock", "tree_core.node_init", "tree_core.validate",
                 "reclaim.pin", "reclaim.unpin", "reclaim.retire",
                 "reclaim.try_advance", "history.record",
                 "harness.run_script"):
        assert tr.count(name) > 0, name


# ``benchmark/selftest.py`` subclasses ConcurrentSet and drives its
# ``_lock`` on ``root.state_lock`` directly; guard those names too.

SELFTEST = TRACING.parent / "selftest.py"


def test_selftest_locking_contains_takes_one_root_read_lock(monkeypatch):
    # selftest.py imports its sibling modules by plain name
    monkeypatch.syspath_prepend(str(SELFTEST.parent))
    fresh = [m for m in ("workloads", "checks", "refclock")
             if m not in sys.modules]
    spec = importlib.util.spec_from_file_location("benchmark_selftest",
                                                  SELFTEST)
    selftest = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(selftest)
    finally:
        for m in fresh:
            sys.modules.pop(m, None)
    s = selftest.LockingContains()
    for k in (5, 3, 7):
        s.insert(k)
    keys = (3, 4, 5, 7, 9)
    assert [s.contains(k) for k in keys] == [True, False, True, True, False]
    assert s.stats_snapshot()["acquisitions"]["contains"] == len(keys)
    assert s.root.state_lock.word == 0


def traced_insert(s, key, stepped=False):
    """Insert ``key`` into ``s`` traced, plain or stepped, and return the
    tracer and the (span name, edge) of each traced lock call, in call
    order."""
    tracing = load_tracing()
    seen = []

    def spy(attr, traced):
        sig = inspect.signature(traced.__wrapped__)

        def call(*args, **kwargs):
            edge = sig.bind(*args, **kwargs).arguments.get("edge", 0)
            result = traced(*args, **kwargs)
            seen.append((tr.spans[-1][1], edge))   # this call's own span
            return result
        return call

    tr = tracing.Tracer()
    tr.install()
    attrs = ("lock_with_spin", "try_lock_with_condition", "unlock")
    traced = {a: getattr(CondRwLock, a) for a in attrs}
    try:
        for a in attrs:
            setattr(CondRwLock, a, spy(a, traced[a]))
        assert s._drain(s.op_gen("insert", key)).result if stepped else s.insert(key)
    finally:
        for a in attrs:
            setattr(CondRwLock, a, traced[a])
        tr.uninstall()
    tr.flush(1.0)
    return tr, seen


def test_one_insert_traces_an_edge_word_and_a_state_word():
    """Each traced lock method records its span whichever lock it acts
    on; an insert of a new leaf takes an edge bit and a state lock.  The
    stepped insert makes one attempt on each and releases both through
    the lock methods; the plain insert pastes those steps, so it traces
    no lock span at all under its own."""
    for stepped in (True, False):
        s = ConcurrentSet()
        s.insert(5)
        tr, seen = traced_insert(s, 3, stepped)
        assert seen == ([("rwlock.attempt", 1), ("rwlock.attempt", 0),
                         ("rwlock.unlock", 0), ("rwlock.unlock", 1)] if stepped else [])
        for name in ("rwlock.attempt", "rwlock.unlock"):
            assert tr.count(name) == 2 * stepped
        assert tr.count("concurrent_set.insert") == 1 - stepped
        assert tr.count("rwlock.acquire") == 0


def test_a_contended_lock_nests_its_retries_under_an_acquire_span(monkeypatch):
    """Only a contended attempt leads to ``lock_with_spin``: its span sits
    under the insert and holds the retry, the one lock call of the
    insert; here the first pause frees the held edge bit."""
    s = ConcurrentSet()
    s.insert(5)
    parent = s.root.left
    parent.word = 1     # another writer holds the left edge
    monkeypatch.setattr(SpinPolicy, "pause",
                        staticmethod(lambda: setattr(parent, "word", 0)))
    tr, seen = traced_insert(s, 3)
    assert seen == [("rwlock.attempt", 1), ("rwlock.acquire", 1)]
    for name, parent_span, n in (
            ("rwlock.acquire", "concurrent_set.insert", 1),
            ("rwlock.attempt", "concurrent_set.insert", 0),
            ("rwlock.attempt", "rwlock.acquire", 1),
            ("rwlock.pause", "rwlock.acquire", 1),
            ("rwlock.unlock", "concurrent_set.insert", 0)):
        assert tr.count(name, (parent_span,)) == n, name
    assert tr.count("rwlock.attempt") == 1


def test_the_benchmark_self_test_holds_every_expectation(tmp_path):
    # each output check of the benchmark must still catch its planted
    # fault, and the real code must pass them all
    selftest = TRACING.parent / "selftest.py"
    proc = subprocess.run([sys.executable, str(selftest)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "12 of 12 expectations held" in proc.stdout
