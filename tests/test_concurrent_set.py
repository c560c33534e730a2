"""Lock conditions, single-threaded equivalence, stats, and
reclamation behaviour of the concurrent set."""

import gc
import itertools
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from cobst.concurrent_set import (ConcurrentSet, K_CREATE, K_LOCK, K_READ,
                                  LockPoint,
                                  K_WRITE, S_CONT_STATE, S_TRAV_LEFT,
                                  S_TRAV_RIGHT, _edge_holds, _edge_is,
                                  _EDGE_BIT, _state_is)
from cobst.reclaim import POISON, EpochReclaimer
from cobst.rwlock import CondRwLock, LockMode, LockOutcome, SpinPolicy
from cobst.tree_core import (DATA, LEFT, MAX_KEY, MIN_KEY, PLUS_INF, RIGHT,
                             ROUTING, Node, SequentialBst, traverse,
                             validate_key, validate_structure)

from tree_text import dump_tree


def two_level_tree():
    """parent 10 with children 5 and 15, hanging off a set's root."""
    s = ConcurrentSet()
    for k in (10, 5, 15):
        s.insert(k)
    parent = s.root.left
    return s, parent, parent.left, parent.right


# One attempt at a lock under each condition the set's operations use.

def try_lock_edge_ref(node, side, expected):
    return node.try_lock_with_condition(
        LockMode.WRITE, _edge_is, expected, _EDGE_BIT[side])


def try_lock_edge_val(node, side, expected_key):
    return node.try_lock_with_condition(
        LockMode.WRITE, _edge_holds, expected_key, _EDGE_BIT[side])


def try_lock_state(node, mode, expected_state):
    return node.try_lock_with_condition(mode, _state_is, expected_state)


# -- edge lock by reference ------------------------------------------------

def test_edge_ref_acquires_on_match():
    _, parent, child, _ = two_level_tree()
    assert try_lock_edge_ref(parent, LEFT, child) is LockOutcome.ACQUIRED
    assert parent.word == 1


def test_edge_ref_rejects_deleted_node():
    _, parent, child, _ = two_level_tree()
    parent.deleted = True
    assert try_lock_edge_ref(parent, LEFT, child) is LockOutcome.CONDITION_VIOLATED
    assert parent.word == 0


def test_edge_ref_rejects_swung_child():
    _, parent, child, _ = two_level_tree()
    parent.left = Node(5)               # same key, different node
    assert try_lock_edge_ref(parent, LEFT, child) is LockOutcome.CONDITION_VIOLATED


def test_edge_ref_expected_null():
    s = ConcurrentSet()
    s.insert(10)
    parent = s.root.left
    assert try_lock_edge_ref(parent, RIGHT, None) is LockOutcome.ACQUIRED
    parent.unlock(LockMode.WRITE, 2)
    parent.right = Node(15)
    assert try_lock_edge_ref(parent, RIGHT, None) is LockOutcome.CONDITION_VIOLATED


def test_edge_ref_contended_when_held():
    _, parent, child, _ = two_level_tree()
    parent.try_lock_with_condition(LockMode.WRITE, lambda *_: True, edge=1)
    assert try_lock_edge_ref(parent, LEFT, child) is LockOutcome.CONTENDED


# -- edge lock by value -------------------------------------------------------

def test_edge_val_acquires_on_key_match():
    _, parent, _, _ = two_level_tree()
    assert try_lock_edge_val(parent, LEFT, 5) is LockOutcome.ACQUIRED


def test_edge_val_tolerates_node_replacement():
    # the twin-delete enabler: a new node carrying the same key satisfies
    # the value condition even though the reference changed
    _, parent, _, _ = two_level_tree()
    parent.left = Node(5)
    assert try_lock_edge_val(parent, LEFT, 5) is LockOutcome.ACQUIRED
    assert parent.word == 1


def test_edge_val_rejects_null_child():
    _, parent, _, _ = two_level_tree()
    parent.left = None
    assert try_lock_edge_val(parent, LEFT, 5) is LockOutcome.CONDITION_VIOLATED


def test_edge_val_rejects_key_mismatch():
    _, parent, _, _ = two_level_tree()
    assert try_lock_edge_val(parent, LEFT, 7) is LockOutcome.CONDITION_VIOLATED


def test_edge_val_rejects_deleted_parent():
    _, parent, _, _ = two_level_tree()
    parent.deleted = True
    assert try_lock_edge_val(parent, LEFT, 5) is LockOutcome.CONDITION_VIOLATED


# -- state lock -----------------------------------------------------------------

def test_state_lock_write_on_expected_state():
    _, parent, _, _ = two_level_tree()
    assert try_lock_state(parent, LockMode.WRITE, DATA) is LockOutcome.ACQUIRED
    assert parent.word == 4


def test_state_lock_rejects_state_mismatch():
    _, parent, _, _ = two_level_tree()
    assert try_lock_state(parent, LockMode.WRITE, ROUTING) \
        is LockOutcome.CONDITION_VIOLATED


def test_state_lock_rejects_deleted():
    _, parent, _, _ = two_level_tree()
    parent.deleted = True
    assert try_lock_state(parent, LockMode.READ, DATA) \
        is LockOutcome.CONDITION_VIOLATED


def test_state_lock_read_is_shared():
    _, parent, _, _ = two_level_tree()
    assert try_lock_state(parent, LockMode.READ, DATA) is LockOutcome.ACQUIRED
    assert try_lock_state(parent, LockMode.READ, DATA) is LockOutcome.ACQUIRED
    assert parent.word == 16
    assert try_lock_state(parent, LockMode.WRITE, DATA) is LockOutcome.CONTENDED



# -- the three locks of a node ---------------------------------------------------

def words(node):
    """The left and right edge bits and the state lock's bits shifted
    down: 1 for a writer, 2 * k for k readers."""
    return node.word & 1, node.word >> 1 & 1, node.word >> 2


def test_a_nodes_three_words_are_independent():
    n = Node(5)
    R, W = LockMode.READ, LockMode.WRITE
    ok = LockOutcome.ACQUIRED
    attempt = n.try_lock_with_condition
    assert attempt(W, lambda *_: True, edge=1) is ok
    assert words(n) == (1, 0, 0)
    # a held left bit blocks neither the right bit nor the state lock
    assert attempt(W, lambda *_: True, edge=2) is ok
    assert attempt(R, lambda *_: True) is ok
    assert attempt(R, lambda *_: True) is ok
    assert words(n) == (1, 1, 4)
    # the state lock still shares READ and excludes WRITE
    assert attempt(W, lambda *_: True) is LockOutcome.CONTENDED
    assert attempt(W, lambda *_: True, edge=1) is LockOutcome.CONTENDED
    assert words(n) == (1, 1, 4)
    n.unlock(R)
    n.unlock(R)
    # with the state lock free, the held left bit still excludes a writer,
    # and a reader too: an edge bit is exclusive whatever the mode
    assert attempt(W, lambda *_: True, edge=1) is LockOutcome.CONTENDED
    assert attempt(R, lambda *_: True, edge=1) is LockOutcome.CONTENDED
    assert words(n) == (1, 1, 0)
    assert attempt(W, lambda *_: True) is ok
    assert attempt(R, lambda *_: True) is LockOutcome.CONTENDED
    n.unlock(W, 1)
    assert words(n) == (0, 1, 1)
    n.unlock(W, 2)
    n.unlock(W)
    assert words(n) == (0, 0, 0)


def test_a_lock_point_reads_the_word_it_names():
    n = Node(5)
    n.word = 1          # the left edge
    always = lambda *_: True  # noqa: E731
    point = LockPoint("x", n, LockMode.WRITE, always)
    assert point.edge == 0 and not point.would_block()
    assert point._replace(edge=1).would_block()
    assert point._replace(edge=1, mode=LockMode.READ).would_block()
    assert not point._replace(edge=2).would_block()
    assert repr(point._replace(edge=1)).endswith(
        "<Node 5 D> left edge lock write-held>")
    n.word = 1 + 16     # and two readers
    assert repr(point).endswith("<Node 5 D> state lock 2 readers>")
    assert repr(point._replace(edge=2)).endswith("right edge lock free>")
    n.word = 2 + 16     # the right edge instead
    assert not point._replace(edge=1).would_block()
    assert repr(point._replace(edge=2)).endswith("right edge lock write-held>")


def test_a_node_refers_to_no_lock_object():
    _, parent, left, right = two_level_tree()
    locks = [r for r in gc.get_referents(parent) if isinstance(r, CondRwLock)]
    assert sorted(map(id, locks)) == sorted(map(id, (left, right)))  # children
    assert [r for r in gc.get_referents(left) if isinstance(r, CondRwLock)] == []
    assert not hasattr(left, "__dict__")


def test_only_the_stepping_form_draws_node_ids():
    # the plain form records no trace, so its nodes need no id, and a
    # node has no slot for one: the set's ``ids`` map names them
    assert Node.__slots__ == ("val", "state", "left", "right", "deleted")
    assert CondRwLock.__slots__ == ("word",)
    s = ConcurrentSet()
    assert s.insert(5) and s.ids[s.root.left] == -1
    assert dict(s.ids) == {s.root: 0}
    s._drain(s.op_gen("insert", 3, "t"))
    s._drain(s.op_gen("insert", 7, "t"))
    assert (s.ids[s.root.left.left], s.ids[s.root.left.right]) == (1, 2)
    assert [e[1] for e in s.trace if e[0] == "create"] == [1, 2]
    assert ("edge", -1, LEFT, 1) in s.trace     # 3 hangs off the plain 5


def test_lock_predicates_agree_with_the_closures_they_replaced():
    from cond_oracle import edge_ref_cond, edge_val_cond, state_cond
    child, twin, other = Node(5), Node(5), Node(7)
    children = (None, child, twin, other)
    seen = set()
    for state, deleted, left, right in itertools.product(
            (DATA, ROUTING), (False, True), children, children):
        node = Node(10, state)
        node.deleted, node.left, node.right = deleted, left, right
        for side in (LEFT, RIGHT):
            for expected in children:
                got = _edge_is(node, expected, _EDGE_BIT[side])
                assert got == edge_ref_cond(node, side, expected)(), \
                    (node, side, expected)
                seen.add(("ref", got))
            for key in (5, 7, 10):
                got = _edge_holds(node, key, _EDGE_BIT[side])
                assert got == edge_val_cond(node, side, key)(), (node, side, key)
                seen.add(("val", got))
        for want in (DATA, ROUTING):
            got = _state_is(node, want, 0)
            assert got == state_cond(node, want)(), (node, want)
            seen.add(("state", got))
    assert len(seen) == 6      # each predicate answered both ways


# -- single-threaded equivalence -------------------------------------------------

ops_strategy = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "contains"]),
              st.integers(min_value=0, max_value=15)),
    max_size=100)


def both_forms():
    """A set driven by the plain public methods and one driven by
    draining the stepping form, which also asserts the lock order and
    lists every unlinked node for ``validate_structure``."""
    plain = ConcurrentSet()
    stepped = ConcurrentSet()
    return ((plain, lambda op, k: getattr(plain, op)(k)),
            (stepped, lambda op, k: stepped._drain(stepped.op_gen(op, k)).result))


@settings(max_examples=150, deadline=None)
@given(ops_strategy)
def test_single_thread_matches_oracle(ops):
    for s, run in both_forms():
        oracle = set()
        for op, k in ops:
            assert run(op, k) == {"insert": k not in oracle,
                                  "delete": k in oracle,
                                  "contains": k in oracle}[op]
            if op == "insert":
                oracle.add(k)
            elif op == "delete":
                oracle.discard(k)
        assert s.snapshot_keys() == sorted(oracle)
        rep = validate_structure(s)
        assert rep.ok, rep.problems


@settings(max_examples=100, deadline=None)
@given(ops_strategy)
def test_single_thread_builds_same_shape_as_sequential(ops):
    # driven by one thread the concurrent code must perform the exact
    # structural steps of the sequential algorithm
    for con, run in both_forms():
        seq = SequentialBst()
        for op, k in ops:
            assert run(op, k) == getattr(seq, op)(k)
        assert dump_tree(con) == dump_tree(seq)


def test_drained_op_gen_reports_outcome():
    s = ConcurrentSet()
    out = s._drain(s.op_gen("insert", 5))
    assert (out.op, out.key, out.result, out.restarts) == ("insert", 5, True, 0)
    out = s._drain(s.op_gen("insert", 5))
    assert out.result is False
    out = s._drain(s.op_gen("contains", 5))
    assert out.result is True and out.restarts == 0


def test_op_gen_rejects_unknown_op():
    s = ConcurrentSet()
    with pytest.raises(ValueError, match="unknown operation 'pop'"):
        s.op_gen("pop", 1)
    assert s.stats_snapshot()["completed"] == 0


def test_insert_promotes_existing_routing_node():
    s = ConcurrentSet()
    for k in (2, 1, 3):
        s.insert(k)
    s.delete(2)
    node2 = s.root.left
    assert node2.state == ROUTING
    assert s.insert(2) is True
    assert s.root.left is node2
    assert node2.state == DATA


def test_key_validation_at_api_boundary():
    s = ConcurrentSet()
    with pytest.raises(ValueError):
        s.insert(2 ** 63 - 1)
    with pytest.raises(TypeError):
        s.contains("x")
    with pytest.raises(TypeError):
        s.delete(1.5)


class Key(int):
    """An int subclass: accepted as a key, but off the ``type(v) is int``
    fast path."""


def key_entry_points(s):
    """Every way a key enters the set, each run to completion, in the
    order contains, insert, delete per form."""
    ops = ("contains", "insert", "delete")
    calls = {op: getattr(s, op) for op in ops}
    calls.update({"op_gen " + op:
                  lambda k, op=op: s._drain(s.op_gen(op, k, "t")).result
                  for op in ops})
    return calls


@pytest.mark.parametrize("key", [True, False, 1.5, "1", None, PLUS_INF,
                                 MAX_KEY + 1, MIN_KEY - 1])
def test_bad_keys_raise_exactly_what_validate_key_raises(key):
    with pytest.raises((TypeError, ValueError)) as want:
        validate_key(key)
    s = ConcurrentSet()
    for name, call in key_entry_points(s).items():
        with pytest.raises(want.type) as got:
            call(key)
        assert str(got.value) == str(want.value), name
    assert s.snapshot_keys() == []
    assert s.stats_snapshot()["completed"] == 0


@pytest.mark.parametrize("key", [MIN_KEY, MAX_KEY, Key(7)])
def test_every_entry_point_accepts_the_edge_keys_and_int_subclasses(key):
    s = ConcurrentSet()
    want = {"contains": False, "insert": True, "delete": True}
    for name, call in key_entry_points(s).items():
        assert call(key) is want[name.split()[-1]], name
    assert s.snapshot_keys() == []
    assert validate_structure(s).ok


# -- lock bookkeeping ---------------------------------------------------------------

def logs_pops(log):
    """A profile function that logs the lock of each entry that a list
    ``pop`` takes off a list of held locks."""
    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__qualname__", None) == "list.pop":
            held = arg.__self__
            if held and isinstance(held[-1], tuple):
                log.append(held[-1][0])
    return profile


@pytest.mark.parametrize("stepped", [False, True])
def test_updates_that_lock_nothing_do_no_lock_bookkeeping(stepped, monkeypatch):
    s = ConcurrentSet()
    s.insert(10)
    unlocked = []
    if stepped:
        real = CondRwLock.unlock
        monkeypatch.setattr(CondRwLock, "unlock",
                            lambda lk, *args: unlocked.append(lk) or real(lk, *args))

        def run(op, k):
            return s._drain(s.op_gen(op, k, "t")).result
    else:   # the plain form releases inline, popping each lock off its list
        def run(op, k):
            sys.setprofile(logs_pops(unlocked))
            try:
                return getattr(s, op)(k)
            finally:
                sys.setprofile(None)
    assert run("insert", 10) is False            # present
    assert run("delete", 3) is False             # absent: no node at all
    parent = s.root.left
    parent.state = ROUTING
    assert run("delete", 10) is False            # absent: a routing node
    assert unlocked == []
    assert run("insert", 5) is True              # locks the edge and the state
    assert unlocked == [parent] * 2
    assert run("insert", 10) is True             # promotes the routing node
    assert unlocked == [parent] * 3
    assert validate_structure(s).ok


def test_one_context_serves_every_attempt_of_an_update():
    s = ConcurrentSet()
    s.insert(10)
    parent = s.root.left
    parent.word = 4     # a writer holds the parent's state
    gen = s.op_gen("insert", 5, "t")
    point = next(gen)
    while getattr(point, "name", None) != "insert.parent_state":
        point = next(gen)
    ctx = s.attempts["t"]
    assert ctx.last_level == -1 and len(ctx) == 1   # the edge lock
    assert next(gen) in (S_TRAV_LEFT, S_TRAV_RIGHT)      # contended: retraverse
    assert ctx == [] and ctx.last_level is None
    assert busy_locks(s, but=(parent, 0)) == []
    parent.word = 0
    assert s._drain(gen).restarts == 1
    assert s.attempts["t"] is ctx and ctx == []
    assert busy_locks(s) == []


# -- stats and wait-freedom ---------------------------------------------------------

def test_contains_acquires_no_locks():
    s = ConcurrentSet()
    for k in (10, 5, 15, 3, 7):
        s.insert(k)
    for k in range(20):
        s.contains(k)
    snap = s.stats_snapshot()
    assert snap["acquisitions"]["contains"] == 0
    assert snap["ops"]["contains"] == 20
    # updates do lock; the counters must attribute them to updates only
    assert snap["acquisitions"]["insert"] > 0


def test_stats_count_every_logical_thread_in_one_set():
    s = ConcurrentSet()
    for op, k, tkey in (("insert", 1, "a"), ("insert", 2, "b"),
                        ("delete", 1, "b")):
        s._drain(s.op_gen(op, k, tkey))
    assert s._thread_stats("a") is s._thread_stats("b") is s
    snap = s.stats_snapshot()
    assert snap["completed"] == 3
    assert snap["ops"] == {"contains": 0, "insert": 2, "delete": 1}
    # an edge and a state each; deleting 1 splices its child 2 up: 3 locks
    assert snap["acquisitions"] == {"contains": 0, "insert": 4, "delete": 3}


def test_stats_snapshot_can_be_read_mid_run():
    s = ConcurrentSet()
    stop = threading.Event()

    def worker(seed):
        rng = random.Random(seed)
        while not stop.is_set():
            (s.insert if rng.random() < 0.5 else s.delete)(rng.randrange(16))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    reads, last = 0, 0
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            restarts = s.stats_snapshot()["restarts"]
            assert restarts >= last
            reads, last = reads + 1, restarts
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        for t in threads:
            t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert reads > 0 and s.stats_snapshot()["completed"] > 0


# -- reclamation ----------------------------------------------------------------------

def stepped_delete(s, k):
    """Delete through the stepping form, which lists what it unlinks."""
    return s._drain(s.op_gen("delete", k)).result


def test_unlinked_nodes_reclaimed_after_drain():
    s = ConcurrentSet()
    for k in (10, 5, 15):
        s.insert(k)
    stepped_delete(s, 5)
    stepped_delete(s, 15)               # unlinks leaf 15 and demoted parents
    ghosts = list(s.unlinked)
    assert ghosts and all(g.deleted for g in ghosts)
    assert all(g.left is not POISON for g in ghosts) or s.reclaimer.pending() == 0
    s.reclaimer.drain()
    assert s.reclaimer.pending() == 0
    assert all(g.left is POISON and g.right is POISON for g in ghosts)
    assert validate_structure(s).ok


def test_retired_node_stays_intact_while_a_reader_is_pinned():
    s = ConcurrentSet()
    for k in (10, 5):
        s.insert(k)
    s.reclaimer.pin("slow-reader")
    stepped_delete(s, 5)
    ghost = s.unlinked[0]
    for _ in range(10):
        s.reclaimer.try_advance()       # cannot advance past the pin
    assert ghost.left is None and ghost.right is None     # not poisoned
    assert ghost.deleted                # observable as logically deleted
    s.reclaimer.unpin("slow-reader")
    s.reclaimer.drain()
    assert ghost.left is POISON and ghost.right is POISON


def test_retire_requires_deleted_mark():
    r = EpochReclaimer()
    with pytest.raises(AssertionError):
        r.retire(Node(5))


def test_epoch_advances_only_when_pins_caught_up():
    r = EpochReclaimer()
    r.pin("t1")
    assert r.try_advance()              # t1 pinned at current epoch: fine
    assert not r.try_advance()          # now t1 lags one epoch behind
    r.unpin("t1")
    assert r.try_advance()


# -- the stepping form ------------------------------------------------------------

def test_instrumented_insert_yields_frozen_checkpoint_sequence():
    s = ConcurrentSet()
    points = []
    g = s.op_gen("insert", 5, tkey=0)
    try:
        while True:
            points.append(g.send(None))
    except StopIteration as stop:
        out = stop.value
    assert out.result is True
    kinds = [p.kind for p in points]
    names = [p.name for p in points]
    # one traversal read (root), the edge lock, the parent state read
    # lock, the node allocation, the link write
    assert kinds == [K_READ, K_LOCK, K_LOCK, K_CREATE, K_WRITE]
    assert names == ["traverse.left", "insert.edge", "insert.parent_state",
                     "insert.node", "insert.link"]


def test_instrumented_contains_yields_reads_only():
    s = ConcurrentSet()
    s.insert(5)
    points = []
    g = s.op_gen("contains", 5, tkey=1)
    try:
        while True:
            points.append(g.send(None))
    except StopIteration as stop:
        out = stop.value
    assert out.result is True
    assert [p.kind for p in points] == [K_READ, K_READ]
    assert s.stats_snapshot()["acquisitions"]["contains"] == 0


# under the root: 50, with children 20 and 80; deleting 50 leaves it routing
@pytest.mark.parametrize("deleted,k,path", [
    ((), 20, "LL"),               # hit on the left
    ((), 80, "LR"),               # hit on the right
    ((), 10, "LLL"),              # miss under the left leaf
    ((), 90, "LRR"),              # miss under the right leaf
    ((50, 20, 80), 5, "L"),       # miss on the empty set
    ((50,), 50, "L"),             # routing node: found, not a member
])
def test_contains_checkpoints_follow_the_traverse_path(deleted, k, path):
    s = ConcurrentSet()
    for key in (50, 20, 80):
        s.insert(key)
    for key in deleted:
        s.delete(key)
    _, prev, curr = traverse(s.root, k)
    last, node = None, s.root
    for step in path:
        last, node = node, node.left if step == "L" else node.right
    assert (last, node) == (prev, curr)          # path is traverse's path
    sites = []
    g = s.op_gen("contains", k)
    try:
        while True:
            sites.append(next(g))
    except StopIteration as stop:
        out = stop.value
    want = [S_TRAV_LEFT if step == "L" else S_TRAV_RIGHT for step in path]
    assert sites == want + ([S_CONT_STATE] if curr is not None else [])
    assert list(s._traverse(k)) == want          # the updates' descent
    assert out.result == (curr is not None and curr.state == DATA)


def test_lock_event_hook_sees_outcomes():
    s = ConcurrentSet()
    s.insert(5)
    snap = s.stats_snapshot()
    assert snap["acquisitions"]["insert"] == 2       # edge + parent state
    s.insert(5)                                      # present: no locking
    assert s.stats_snapshot() == dict(snap, completed=2,
                                      ops={"contains": 0, "insert": 2,
                                           "delete": 0})


def test_lock_order_tracker_rejects_upward_then_downward():
    # white-box: feed the stepping form's order assert a
    # shallower-then-deeper pair, which the algorithm never produces
    s = ConcurrentSet()
    s.insert(10)
    node = s.root.left
    from cobst.concurrent_set import _AttemptCtx
    ctx = _AttemptCtx("t")
    st = s._thread_stats("t")

    def run(gen):
        while True:
            try:
                next(gen)
            except StopIteration as stop:
                return stop.value

    run(s._lock(ctx, "t", st, "delete", node, LockMode.READ,
                lambda: True, "state", "x", level=-1))
    assert ctx == [(node, LockMode.READ, 0)]
    with pytest.raises(AssertionError):
        run(s._lock(ctx, "t", st, "delete", node, LockMode.WRITE,
                    lambda: True, "edge_ref", "y", level=0, edge=1))
    s._release_all(ctx)


def busy_locks(s, but=None):
    """The tree's held locks, as ``(node, edge)`` other than ``but``."""
    busy, stack = [], [s.root]
    while stack:
        node = stack.pop()
        busy += [(node, e) for e in (1, 2, 0)
                 if (node.word & e if e else node.word >> 2) and (node, e) != but]
        stack += [c for c in (node.left, node.right) if c is not None]
    return busy


class ChecksReleaseBeforeBackoff(ConcurrentSet):
    """Backs off only once the aborted attempt has released every lock
    but the hand-held one, then frees that one."""

    hand_held = None
    backoffs = 0

    def _backoff(self, n):
        assert busy_locks(self, but=self.hand_held) == []
        node, edge = self.hand_held
        node.unlock(LockMode.WRITE, edge)
        self.backoffs += 1


def test_plain_contended_abort_releases_before_backoff(monkeypatch):
    monkeypatch.setattr(SpinPolicy, "pause", staticmethod(lambda: None))
    s = ChecksReleaseBeforeBackoff()
    s.insert(10)
    parent = s.root.left
    s.hand_held = (parent, 0)
    parent.word = 4   # a writer holds the parent's state
    before = s.stats_snapshot()
    assert s.insert(5) is True
    after = s.stats_snapshot()
    assert s.backoffs == 1
    assert after["restarts"] == before["restarts"] + 1
    assert after["contended_aborts"] == {"state_plain": 1}
    assert busy_locks(s) == []


def test_a_held_edge_word_ends_in_a_counted_restart(monkeypatch):
    pauses = []
    monkeypatch.setattr(SpinPolicy, "pause",
                        staticmethod(lambda: pauses.append(parent.word)))
    s = ChecksReleaseBeforeBackoff()
    s.insert(10)
    parent = s.root.left
    s.hand_held = (parent, 1)
    parent.word = 1   # a writer holds the edge the insert hangs 5 on
    before = s.stats_snapshot()
    assert s.insert(5) is True
    after = s.stats_snapshot()
    assert pauses == [1] * (SpinPolicy.ATTEMPTS - 1)
    assert s.backoffs == 1
    assert after["restarts"] == before["restarts"] + 1
    assert after["contended_aborts"] == {"edge_ref": 1}
    assert busy_locks(s) == [] and s.contains(5)


def test_an_exception_in_a_plain_update_releases_its_locks(monkeypatch):
    # the plain insert's new node raises, while the insert holds the edge
    # it hangs on and its parent's state; later attempts lock as usual
    held = []
    real = Node.__init__

    def raises_at_the_first(node, *args):
        held.append(busy_locks(s))
        if len(held) == 1:
            raise RuntimeError("with two locks held")
        real(node, *args)

    s = ConcurrentSet()
    monkeypatch.setattr(Node, "__init__", raises_at_the_first)
    with pytest.raises(RuntimeError):
        s.insert(5)
    assert held == [[(s.root, 1), (s.root, 0)]]
    assert busy_locks(s) == [] and s.stats_snapshot()["completed"] == 0
    assert s.insert(5) is True and s.delete(5) is True
    assert held[1:] == [[(s.root, 1), (s.root, 0)]] and busy_locks(s) == []
    assert s.stats_snapshot()["ops"] == {"contains": 0, "insert": 1, "delete": 1}


def test_closing_an_abandoned_stepped_update_keeps_later_locks():
    # both operations run under the same thread key; the first is left
    # suspended inside its attempt and closed once the second holds a lock
    s = ConcurrentSet()
    s.insert(10)
    abandoned = s.op_gen("insert", 5, "t")
    assert next(abandoned) in (S_TRAV_LEFT, S_TRAV_RIGHT)
    later = s.op_gen("insert", 15, "t")
    point = next(later)
    while getattr(point, "name", None) != "insert.parent_state":
        point = next(later)
    held = list(s.attempts["t"])
    assert [(lk, e) for lk, _, e in held] == [(s.root.left, 2)]
    abandoned.close()
    assert s.attempts["t"] == held
    assert busy_locks(s) == [(s.root.left, 2)]
    assert s._drain(later).result is True
    assert busy_locks(s) == [] and s.snapshot_keys() == [10, 15]


def test_stepped_contended_abort_holds_nothing_at_the_next_traversal():
    s = ConcurrentSet()
    s.insert(10)
    parent = s.root.left
    parent.word = 4     # a writer holds the parent's state
    gen = s.op_gen("insert", 5, "t")
    point = next(gen)
    while getattr(point, "name", None) != "insert.parent_state":
        point = next(gen)
    assert point.would_block()
    point = next(gen)           # the attempt fails and the insert retraverses
    assert point in (S_TRAV_LEFT, S_TRAV_RIGHT)
    assert s.attempts["t"] == []
    assert busy_locks(s, but=(parent, 0)) == []
    parent.word = 0
    assert s._drain(gen).restarts == 1
    assert s.stats_snapshot()["contended_aborts"] == {"state_plain": 1}
    assert s.contains(5)


# -- short real-thread smoke -----------------------------------------------------------

def test_concurrent_smoke():
    s = ConcurrentSet()
    errors = []
    barrier = threading.Barrier(4)

    def worker(seed):
        import random
        rng = random.Random(seed)
        barrier.wait()
        try:
            for _ in range(800):
                k = rng.randrange(32)
                op = rng.choice(("insert", "delete", "contains"))
                getattr(s, op)(k)
        except BaseException as e:  # noqa: BLE001
            errors.append(repr(e))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    rep = validate_structure(s)
    assert rep.ok, rep.problems
    snap = s.stats_snapshot()
    assert snap["completed"] == 4 * 800
    assert snap["acquisitions"]["contains"] == 0


# -- one descent, four copies ------------------------------------------------

def _stepped(gen):
    """Drain a stepping-form generator: (checkpoints, return value)."""
    points = []
    try:
        while True:
            points.append(next(gen))
    except StopIteration as stop:
        return points, stop.value


class Descends(ConcurrentSet):
    """The updates' descent with a twin of its own, ``_descend_plain``,
    which pastes it as the attempt twins do."""

    def _descend(self, v):
        return (yield from self._traverse(v))


def test_every_descent_finds_the_same_nodes_on_trees_with_routing_nodes():
    # tree_core.traverse (the sequential oracle's and coarse-bst's
    # descent), the updates' descent in both forms and contains in both
    # forms must agree on every key: present, absent and routing.  The
    # updates' descent rotates three slots, three steps to a loop, so it
    # has six exits, the key found or a null child reached after a number
    # of steps of each residue mod 3, and every one must be taken
    rng = random.Random(5)
    seen, exits = set(), set()
    for _ in range(40):
        s = Descends()
        keys = rng.sample(range(64), rng.randint(8, 40))
        for k in keys:
            s.insert(k)
        for k in rng.sample(keys, len(keys) // 2):
            s.delete(k)
        assert validate_structure(s).ok
        for k in range(-1, 66):
            want = traverse(s.root, k)
            curr = want[2]
            seen.add("absent" if curr is None else curr.state)
            # the path by the textbook rule: stop on an equal key,
            # otherwise go left on smaller
            path, node = [], s.root
            while node is not None and node.val != k:
                path.append(S_TRAV_LEFT if k < node.val else S_TRAV_RIGHT)
                node = node.left if k < node.val else node.right
            assert node is curr
            got = s._descend_plain(k)
            assert len(got) == 3 and all(g is w for g, w in zip(got, want)), k
            sites, got = _stepped(s._traverse(k))
            assert sites == path and all(g is w for g, w in zip(got, want)), k
            exits.add((len(path) % 3, curr is None))
            member = curr is not None and curr.state == DATA
            assert s.contains(k) is member
            sites, out = _stepped(s.op_gen("contains", k, tkey="t"))
            assert sites == path + ([S_CONT_STATE] if curr is not None else [])
            assert out.result is member
    assert seen == {"absent", DATA, ROUTING}
    assert exits == {(r, absent) for r in range(3) for absent in (False, True)}


def test_stepped_contains_and_insert_checkpoints_are_exact():
    s = ConcurrentSet()
    for k in (50, 20, 80, 10, 30):
        s.insert(k)
    s.delete(20)                     # two children: 20 stays, routing
    assert s.root.left.left.state == ROUTING

    def names(op, k):
        points, out = _stepped(s.op_gen(op, k, tkey=1))
        return [p.name for p in points], out.result

    assert names("contains", 30) == (
        ["traverse.left", "traverse.left", "traverse.right",
         "contains.state"], True)
    assert names("contains", 20) == (
        ["traverse.left", "traverse.left", "contains.state"], False)
    assert names("insert", 25) == (
        ["traverse.left", "traverse.left", "traverse.right", "traverse.left",
         "insert.edge", "insert.parent_state", "insert.node", "insert.link"],
        True)
    assert names("insert", 20) == (
        ["traverse.left", "traverse.left", "insert.state",
         "insert.promote_state", "insert.promote"], True)
