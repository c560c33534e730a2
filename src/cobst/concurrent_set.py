"""Concurrent set over the partially-external BST.

Every operation is optimistic: an unsynchronized traversal finds the
relevant nodes, then the operation takes the smallest possible set of
conditional locks, re-verifies that the world still looks the way the
traversal saw it, and commits.  A lock that is not granted, or a
re-check that fails, raises ``Restart``; the restart loop in ``_op``
catches it, releases everything the attempt holds and traverses again.
Reads (``contains``) take no locks at all and never restart.

Lock granularity is per-field: each node holds one lock per outgoing
child edge (bits 1 and 2 of its lock ``word``) and one for its
state/deleted pair (the rest of ``word``).  Edge locks are exclusive in
either mode; state locks are taken shared by operations that merely
need the state pinned and exclusively by the ones changing it.  Edge
locks come in two conditional flavours: by reference (the child pointer
must still be the expected object) and by value (the child must hold
the expected key, tolerating replacement of the node by an equal one).
Within one attempt locks are acquired from deeper nodes towards the
root, which rules out deadlock; the stepping form asserts that ordering.

A delete takes one of three shapes: a node with two children is demoted
to ROUTING and stays; one with one child is spliced out; a leaf is
unlinked, together with its parent when that is a ROUTING node, which
the leaf's sibling then replaces.  Unlinking is two-stage: a node is
first marked ``deleted`` (the logical point of no return) and then
unlinked, both under the same locks.  Readers that already hold a
reference may still observe the node as DATA afterwards; that is
deliberate and linearizable, because such reads overlap the deletion.
Reference counting frees unlinked nodes (a node has no parent pointer,
so they form no cycles); stepped deletes also retire them to the epoch
reclaimer, whose poisoning checks schedules.

The operation bodies are written once, as generators.  ``op_gen`` runs
them as written, the stepping form: they yield a checkpoint descriptor
before every shared read, committed write, node creation and lock
attempt, which is what the deterministic schedule harness steps on.
Post-lock re-verification reads do not yield: no other thread can run
between a lock grant and its re-check in any schedule, so suspending
there would only inflate the interleaving space without adding
behaviours.  The public methods are plain functions instead, which
``cobst.plain.compile_plain`` derives from the same generator source
when one of them is first looked up:
every ``if self._instr:`` block is folded away, ``_op`` becomes
``contains``, ``insert`` and ``delete``, and each ``yield from`` but
``_op``'s calls of the attempts becomes the callee's folded body, pasted
in place with the lock steps of ``rwlock``, their conditions and
``tree_core``'s child links, so a read runs one Python frame and an
uncontended update two (the operation and its attempt), no lock or
``Node`` method call, no generator frame, no dispatch on the operation
and no observation.  Each lock site passes its mode as a module constant
and its edge as 0 or an item of ``_EDGE_BIT``, so its paste keeps one
CAS branch.  The twins return bare bools, the stepping form an
``OpOutcome``.  Both forms keep every check, counter and lock step.

All three operations descend by ``_traverse``, which tests ``v <
curr.val`` first and ``curr.val < v`` second, so a left step costs one
comparison and only the node holding ``v`` pays two; ``val`` never
changes, so reading it twice needs no checkpoint.  It rotates three
slots, so no step copies a parent.
The counters are attributes of the set, which every thread bumps by a
straight-line ``+=``: with the GIL no increment is lost, for the reason
no lock word's step is, so an operation reads no thread id.  A plain
update counts its acquisitions once an attempt, at the release.
"""

from __future__ import annotations

import inspect
import random
import threading
import time
from collections import defaultdict
from typing import NamedTuple

from .reclaim import EpochReclaimer
from .rwlock import (ACQUIRED, CONDITION_VIOLATED, CONTENDED, READ, WRITE,
                     CondRwLock, LockMode, try_lock_with_condition, unlock)
from .tree_core import (DATA, LEFT, MIN_KEY, PLUS_INF, RIGHT, ROUTING, Node,
                        child, set_child, snapshot_keys, validate_key)

__all__ = [
    "ConcurrentSet", "OpOutcome",
    "Site", "LockPoint",
    "K_READ", "K_WRITE", "K_LOCK", "K_CREATE",
]

# the operations, each a public method: ``_op``'s plain twin with ``op`` bound
_OPS = ("contains", "insert", "delete")

_new = tuple.__new__   # builds a stepping record without a constructor frame

# checkpoint kinds, as seen by the schedule harness
K_READ = "read"
K_WRITE = "write"
K_LOCK = "lock"
K_CREATE = "create"


class Site:
    """Constant descriptor of one checkpoint of the stepping form."""

    __slots__ = ("kind", "name")

    def __init__(self, kind: str, name: str):
        self.kind = kind
        self.name = name

    def __repr__(self):
        return "<%s %s>" % (self.kind, self.name)


class LockPoint(NamedTuple):
    """Checkpoint for one pending lock attempt.

    Unlike the constant Sites this is allocated per attempt because the
    harness needs the concrete lock (the node and edge), the requested
    mode and the guard predicate with its arguments to decide whether it
    could even succeed right now (the predicate only performs reads, so
    peeking is free of side effects).  The stepping form builds it with
    ``tuple.__new__``, without the Python frame of a constructor;
    ``kind`` is a class attribute, the same for every attempt.
    """

    name: str
    lock: CondRwLock
    mode: LockMode
    cond: object
    expected: object = None
    edge: int = 0
    kind = K_LOCK

    def would_block(self) -> bool:
        """True if attempting now could only end in CONTENDED.

        A false condition short-circuits the attempt before the CAS, so
        such attempts are never blocked, they fail fast with
        CONDITION_VIOLATED.
        """
        _, lock, mode, cond, expected, edge = self
        if not cond(lock, expected, edge):
            return False
        w = lock.word & edge if edge else lock.word >> 2
        return w != 0 if edge or mode is WRITE else w == 1

    def __repr__(self):
        w = self.lock.word & self.edge != 0 if self.edge else self.lock.word >> 2
        state = ("free", "write-held")[w] if w < 2 else "%d readers" % (w >> 1)
        return "<lock %s %s %r %s %s>" % (self.name, self.mode.value, self.lock,
                                          _LOCK_NAME[self.edge], state)


# traversal and case-selection reads; these mirror the reads the
# sequential algorithm performs, which is exactly the set of points
# where interleavings can differ
S_TRAV_LEFT = Site(K_READ, "traverse.left")
S_TRAV_RIGHT = Site(K_READ, "traverse.right")
S_CONT_STATE = Site(K_READ, "contains.state")
S_INS_STATE = Site(K_READ, "insert.state")
S_DEL_STATE = Site(K_READ, "delete.state")
S_DEL_LEFT = Site(K_READ, "delete.left")
S_DEL_RIGHT = Site(K_READ, "delete.right")
S_DEL_PSTATE = Site(K_READ, "delete.parent_state")
S_DEL_SIBLING = Site(K_READ, "delete.sibling")

# committed structural writes
W_INS_LINK = Site(K_WRITE, "insert.link")
W_INS_PROMOTE = Site(K_WRITE, "insert.promote")
W_DEL_DEMOTE = Site(K_WRITE, "delete.demote")
W_DEL_MARK = Site(K_WRITE, "delete.mark")
W_DEL_MARK_PARENT = Site(K_WRITE, "delete.mark_parent")
W_DEL_SPLICE = Site(K_WRITE, "delete.splice")
W_DEL_UNLINK_LEAF = Site(K_WRITE, "delete.unlink_leaf")
W_DEL_UNLINK_PAIR = Site(K_WRITE, "delete.unlink_pair")

C_INS_NODE = Site(K_CREATE, "insert.node")

class Restart(Exception):
    """Aborts an update attempt: release everything, traverse again."""


# Randomized backoff between restarts, while no locks are held.  Timed
# sleeps are safe here precisely because the attempt released everything;
# they are what breaks the symmetry when two threads keep colliding on
# the same pair of locks.
_BACKOFF_BASE_S = 5e-5
_BACKOFF_CAP_S = 2e-3
_BACKOFF_MAX_EXP = 5


# -- lock conditions -----------------------------------------------------
#
# The guard predicates re-read the node fields on every call, which is
# the whole point: they run once before the CAS and once after, and only
# the post-acquire evaluation is authoritative.  ``rwlock`` passes the
# lock, which is the node, the expected value and the edge bit, by which
# an edge condition finds the child; each is one ``return``, which twins paste.

def _always(node: Node, expected, edge) -> bool:
    return True


def _state_is(node: Node, state, edge) -> bool:
    return node.state == state and not node.deleted


def _edge_is(node: Node, expected, edge) -> bool:
    return (node.left if edge == 1 else node.right) is expected and not node.deleted


def _edge_holds(node: Node, key, edge) -> bool:
    return ((c := node.left if edge == 1 else node.right) is not None
            and c.val == key and not node.deleted)


def _nullary(lock, cond, edge) -> bool:   # ``cond()``, passed as the expected value
    return cond()


_EDGE_BIT = (1, 2)                          # a node's edge lock, by side
_LOCK_NAME = ("state lock", "left edge lock", "right edge lock")   # in reprs, by edge


class OpOutcome(NamedTuple):
    op: str
    key: int
    result: bool
    restarts: int


class _NodeIds(dict):
    """Node -> trace id: the root 0, each stepped insert's node the next, else -1."""

    def __missing__(self, node):
        return -1


class _AttemptCtx(list):
    """What a stepped update's current attempt holds, as ``(lock, mode,
    edge)`` entries (for the all-or-nothing release and the schedule
    harness's wait-for chain), with its thread key and its last lock
    level (for the deadlock-order assert).  ``_op`` empties it and resets
    the level between attempts.  Each stepped update makes its own, so
    that closing an abandoned generator cannot release a later one's
    locks; a plain update holds its locks in a fresh ``list``."""

    __slots__ = ("tkey", "last_level")

    def __init__(self, tkey):
        super().__init__()
        self.tkey = tkey
        self.last_level = None


class ConcurrentSet:
    """Linearizable set of integer keys with wait-free membership tests.

    Thread safe without any external locking.  ``contains`` never takes
    a lock and never restarts; ``insert`` and ``delete`` lock only the
    couple of nodes they modify.  Operations stepped through ``op_gen``
    make single-shot lock attempts, assert the lock order and keep three
    records; the public methods observe nothing:

    trace     structural events (created/state/mark/edge tuples) in
              commit order, naming nodes by ``ids`` (a ``_NodeIds``)
    unlinked  every node unlinked, so validation can prove that none
              becomes reachable again
    attempts  thread key -> its current ``_AttemptCtx``, the list of what
              that thread holds
    """

    _instr = True   # the stepping form; ``cobst.plain`` folds it to False

    def __init__(self):
        self.root = Node(PLUS_INF)
        self.ids = _NodeIds({self.root: 0})
        self.reclaimer = EpochReclaimer()
        # the counters, which every thread bumps (see the module docstring)
        self.ops = {"contains": 0, "insert": 0, "delete": 0}   # completed
        self.restarts = 0
        # successful lock acquisitions attributed to the operation type;
        # the contains column staying at zero is the wait-free-read
        # evidence the tests assert on
        self.acquisitions = {"contains": 0, "insert": 0, "delete": 0}
        self.cond_violations = defaultdict(int)    # lock family -> count
        self.contended_aborts = defaultdict(int)   # lock family -> count
        self.trace: list = []
        self.unlinked: list[Node] = []
        self.attempts: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if any(map(inspect.isgeneratorfunction, vars(cls).values())):
            from .plain import compile_plain
            compile_plain(cls)   # a redefined generator method needs new twins

    # -- public set interface -------------------------------------------
    #
    # ``contains(v)``, ``insert(v)`` and ``delete(v)`` are the plain twins
    # of ``_op``, which ``cobst.plain`` compiles on the first lookup of a
    # stand-in installed at the end of this module.

    def op_gen(self, op: str, v, tkey=None):
        """The stepping form used by the schedule harness: a generator
        that yields at every checkpoint.  One real thread at a time steps
        a set's stepping form, as ``ids``, ``trace`` and ``reclaimer`` need
        it to; logical threads interleave only by checkpoint.  ``tkey``
        keys ``attempts`` only (an omitted key is None there); a caller
        that steps it by hand pins ``reclaimer`` itself, as the harness
        does."""
        if op not in _OPS:
            raise ValueError("unknown operation %r" % (op,))
        return self._op(op, v, tkey)

    @staticmethod
    def _drain(gen) -> OpOutcome:
        while True:
            try:
                next(gen)
            except StopIteration as stop:
                return stop.value

    # -- introspection (``snapshot_keys``: quiescent callers only) -------

    snapshot_keys = snapshot_keys

    def stats_snapshot(self) -> dict:
        """A copy of the set's counters, with ``completed`` the sum of
        ``ops``, which count each operation once it completes.  Safe while
        operations run: each counter is then copied once during the call,
        so counts may differ by the operations in flight but never fall
        from call to call."""
        ops = dict(self.ops)
        return {
            "completed": sum(ops.values()),
            "restarts": self.restarts,
            "ops": ops,
            "acquisitions": dict(self.acquisitions),
            "cond_violations": {k: n for k, n in dict(self.cond_violations).items() if n},
            "contended_aborts": {k: n for k, n in dict(self.contended_aborts).items() if n},
        }

    # -- internals ---------------------------------------------------------

    def _thread_stats(self, tkey) -> ConcurrentSet:
        """What holds the counters that thread ``tkey`` bumps: the set."""
        return self

    def _backoff(self, n: int) -> None:
        """Sleep a random, exponentially growing amount after the n-th
        restart of one operation.  Called with no locks held."""
        limit = min(_BACKOFF_BASE_S * (1 << min(n - 1, _BACKOFF_MAX_EXP)),
                    _BACKOFF_CAP_S)
        time.sleep(random.uniform(0.0, limit))

    def _release_all(self, ctx: _AttemptCtx) -> None:
        while ctx:
            lock, mode, edge = ctx.pop()
            lock.unlock(mode, edge)

    def _lock(self, ctx: _AttemptCtx, tkey, st: ConcurrentSet, optag: str,
              lock: CondRwLock, mode: LockMode, cond, family: str,
              name: str, level: int, expected=_nullary, edge=0):
        """One bounded acquisition of ``lock``'s state lock (``edge`` 0) or
        edge bit ``edge`` under ``cond(lock, expected, edge)``.

        Both forms make one attempt; the stepping form yields a LockPoint
        checkpoint before it and stops there.  The plain form pastes the
        step and waits out a CONTENDED attempt in ``lock_with_spin``, all
        of it inside what would be one checkpoint, because a failed CAS
        re-attempt reads nothing new about the tree.  A granted lock goes
        on ``ctx``, which ``_op`` owns and releases; the stepping form
        counts it under ``optag`` here, the plain ``_op`` counts all of an
        attempt's at the release.  Any other outcome is counted and raises
        ``Restart``, all on ``st``, which the attempts pass as the set.  The
        body has no ``return``, so the plain form pastes it into every
        caller.  ``tkey`` is not read (the attempts pass None, and the
        stepping form records ``ctx`` under ``ctx.tkey``); it, ``st`` and a
        ``cond()`` without ``expected`` keep the ten-argument call of
        ``benchmark/selftest.py``.
        """
        if self._instr:
            assert ctx.last_level is None or level <= ctx.last_level, \
                "lock order violated: level %d after %d at %s" % (
                    level, ctx.last_level, name)
            ctx.last_level = level
            self.attempts[ctx.tkey] = ctx
            if expected is _nullary:
                cond, expected = _nullary, cond
            yield _new(LockPoint, (name, lock, mode, cond, expected, edge))
            out = lock.try_lock_with_condition(mode, cond, expected, edge)
        else:
            out = try_lock_with_condition(lock, mode, cond, expected, edge)
            if out is CONTENDED:
                out = lock.lock_with_spin(mode, cond, expected, edge)
        if out is not ACQUIRED:
            if out is CONDITION_VIOLATED:
                st.cond_violations[family] += 1
            else:
                st.contended_aborts[family] += 1
            raise Restart
        ctx.append((lock, mode, edge))
        if self._instr:
            st.acquisitions[optag] += 1   # the plain form counts at the release

    def _traverse(self, v: int):
        """The set's one descent, which ``contains`` and both attempts
        paste: unsynchronized, to ``(gprev, prev, curr)`` as in
        ``tree_core.traverse``, with the same reads and comparison order;
        the only checkpoints are the child pointer reads, one per step
        down.  Three slots take turns, three steps to a loop: each step
        stores the child over the grandparent's slot, so no step copies
        a parent, and the exit names the slots in order once."""
        x = y = None
        z = self.root
        while True:   # (gprev, prev, curr) is (x, y, z)
            if z is None:
                gprev, prev, curr = x, y, z
                break
            if v < z.val:
                if self._instr:
                    yield S_TRAV_LEFT
                x = z.left
            elif z.val < v:
                if self._instr:
                    yield S_TRAV_RIGHT
                x = z.right
            else:
                gprev, prev, curr = x, y, z
                break
            if x is None:   # (gprev, prev, curr) is (y, z, x)
                gprev, prev, curr = y, z, x
                break
            if v < x.val:
                if self._instr:
                    yield S_TRAV_LEFT
                y = x.left
            elif x.val < v:
                if self._instr:
                    yield S_TRAV_RIGHT
                y = x.right
            else:
                gprev, prev, curr = y, z, x
                break
            if y is None:   # (gprev, prev, curr) is (z, x, y)
                gprev, prev, curr = z, x, y
                break
            if v < y.val:
                if self._instr:
                    yield S_TRAV_LEFT
                z = y.left
            elif y.val < v:
                if self._instr:
                    yield S_TRAV_RIGHT
                z = y.right
            else:
                gprev, prev, curr = z, x, y
                break
        return gprev, prev, curr

    # -- one operation: the wrapper shared by all three -------------------

    def _op(self, op, v, tkey):
        """Run ``op`` on ``v``: the wait-free read (the descent, then one
        state read) or the restart loop of an update (no epoch pin: a
        stepping caller pins), counted in the set's ``ops`` once it
        completes.  The stepping form returns an ``OpOutcome``, the plain
        twins, the public methods, the bare result; only the stepping form
        reads ``tkey``, the logical thread under which ``attempts`` records
        what the update holds."""
        if not (type(v) is int and MIN_KEY <= v < PLUS_INF):
            validate_key(v)   # int subclasses pass; anything else raises
        if op == "contains":
            if self._instr:
                restarts = 0   # for the ``OpOutcome``; the plain twin reads none
            gprev, prev, curr = yield from self._traverse(v)
            result = False
            if curr is not None:
                if self._instr:
                    yield S_CONT_STATE
                result = curr.state == DATA
        else:
            restarts = 0
            ctx = []   # the locks that the current attempt holds
            if self._instr:
                ctx = _AttemptCtx(tkey)   # see ``_AttemptCtx``
            while True:
                if self._instr:
                    ctx.last_level = None
                try:
                    if op == "insert":
                        result = yield from self._insert_attempt(ctx, v)
                    else:
                        result = yield from self._delete_attempt(ctx, v)
                    break
                except Restart:
                    restarts += 1
                    self.restarts += 1
                finally:   # ``ctx`` is empty if the attempt took no lock
                    if self._instr:
                        if ctx:
                            self._release_all(ctx)
                    else:   # one count an attempt; ``len`` is a call, so
                        n = len(ctx)   # it is read before the ``+=``
                        self.acquisitions[op] += n
                        while ctx:
                            lock, mode, edge = ctx.pop()
                            unlock(lock, mode, edge)
                if self._instr:
                    continue   # stepped: the schedule picks who runs next
                self._backoff(restarts)
        self.ops[op] += 1
        if self._instr:
            return _new(OpOutcome, (op, v, result, restarts))
        return result

    # -- insert ------------------------------------------------------------

    def _insert_attempt(self, ctx, v):
        gprev, prev, curr = yield from self._traverse(v)
        if curr is not None:
            if self._instr:
                yield S_INS_STATE
            if curr.state == DATA:
                # present already; lock-free and final even if the
                # node is concurrently being deleted, the read just
                # linearizes before that deletion
                return False
            # routing node holds the key structurally: claim it
            yield from self._lock(
                ctx, None, self, "insert", curr, WRITE, _state_is,
                "state", "insert.promote_state", 0, ROUTING)
            if self._instr:
                yield W_INS_PROMOTE
                self.trace.append(("state", self.ids[curr], DATA))
            curr.state = DATA
            return True
        # key absent: hang a fresh leaf off prev, guarded by the edge
        # still being empty and prev still being live
        side = LEFT if v < prev.val else RIGHT
        yield from self._lock(
            ctx, None, self, "insert", prev, WRITE, _edge_is, "edge_ref",
            "insert.edge", 0, None, _EDGE_BIT[side])
        # shared hold on prev's state: blocks a concurrent demotion or
        # deletion of prev between our deleted re-check and the link
        yield from self._lock(
            ctx, None, self, "insert", prev, READ,
            _always, "state_plain", "insert.parent_state", -1, None)
        if prev.deleted:   # fresh read under the lock
            raise Restart
        if self._instr:
            yield C_INS_NODE
        node = Node(v)
        if self._instr:
            self.ids[node] = nid = len(self.ids)
            self.trace.append(("create", nid, v, DATA))
            yield W_INS_LINK
            self.trace.append(("edge", self.ids[prev], side, nid))
        set_child(prev, side, node)
        return True

    # -- delete ------------------------------------------------------------

    def _delete_attempt(self, ctx, v):
        gprev, prev, curr = yield from self._traverse(v)
        if curr is None:
            return False
        if self._instr:
            yield S_DEL_STATE
        if curr.state != DATA:
            return False
        if self._instr:
            yield S_DEL_LEFT
        left = curr.left
        if self._instr:
            yield S_DEL_RIGHT
        right = curr.right

        if left is not None and right is not None:
            return (yield from self._delete_two_children(ctx, curr))
        if left is not None or right is not None:
            lone = left if left is not None else right
            return (yield from self._delete_one_child(
                ctx, v, prev, curr, lone,
                LEFT if left is not None else RIGHT))
        return (yield from self._delete_leaf(ctx, v, gprev, prev))

    def _delete_two_children(self, ctx, curr):
        """Both children present: the node only loses its membership and
        stays as routing structure."""
        yield from self._lock(
            ctx, None, self, "delete", curr, WRITE, _state_is,
            "state", "delete.demote_state", 0, DATA)
        # the state lock keeps leaf deletions below us out, but a child
        # may have been spliced away before we got the lock; re-check
        if curr.left is None or curr.right is None:
            raise Restart
        if self._instr:
            yield W_DEL_DEMOTE
            self.trace.append(("state", self.ids[curr], ROUTING))
        curr.state = ROUTING
        return True

    def _delete_one_child(self, ctx, v, prev, curr, lone, lone_side):
        """Exactly one child: splice it up into our parent's slot.

        Lock order is strictly deeper-first: the edge below curr, the
        edge above curr, then curr's state.
        """
        side = LEFT if v < prev.val else RIGHT
        yield from self._lock(
            ctx, None, self, "delete", curr, WRITE, _edge_is,
            "edge_ref", "delete.splice_child_edge", 1, lone, _EDGE_BIT[lone_side])
        yield from self._lock(
            ctx, None, self, "delete", prev, WRITE, _edge_is, "edge_ref",
            "delete.splice_parent_edge", 0, curr, _EDGE_BIT[side])
        yield from self._lock(
            ctx, None, self, "delete", curr, WRITE, _state_is,
            "state", "delete.splice_state", 0, DATA)
        # fresh re-check that curr still has exactly this one child: the
        # other slot may have been filled by an insert before our state
        # lock landed
        other = curr.right if lone_side == LEFT else curr.left
        if other is not None:
            raise Restart
        if self._instr:
            yield W_DEL_MARK
            self.trace.append(("mark", self.ids[curr]))
        curr.deleted = True
        if self._instr:
            yield W_DEL_SPLICE
            self.trace.append(("edge", self.ids[prev], side, self.ids[lone]))
            self.unlinked.append(curr)
            self.reclaimer.retire(curr)
        set_child(prev, side, lone)
        return True

    def _delete_leaf(self, ctx, v, gprev, prev):
        """A leaf: under a DATA parent just empty the parent's slot; under
        a ROUTING parent the parent must go too, or it would be left with
        a single child, so the sibling moves up into the grandparent's
        slot, taking both nodes out in one pointer swing.

        The leaf's edge is locked by value, so it does not matter whether
        the leaf we traversed to was replaced by another node with the
        same key in the meantime; we re-read the current occupant under
        the lock and delete that one.
        """
        if self._instr:
            yield S_DEL_PSTATE
        pair = prev.state != DATA   # the parent is routing and goes too
        side, sside = (LEFT, RIGHT) if v < prev.val else (RIGHT, LEFT)
        if pair:
            assert gprev is not None, "routing parent cannot be the root"
            if self._instr:
                yield S_DEL_SIBLING
            sibling = prev.right if side == LEFT else prev.left
        yield from self._lock(
            ctx, None, self, "delete", prev, WRITE, _edge_holds, "edge_val",
            "delete.pair_edge" if pair else "delete.leaf_edge", 0, v, _EDGE_BIT[side])
        curr = child(prev, side)   # fresh: the locked occupant, maybe a twin
        yield from self._lock(
            ctx, None, self, "delete", curr, WRITE, _state_is, "state",
            "delete.pair_state" if pair else "delete.leaf_state", 0, DATA)
        if curr.left is not None or curr.right is not None:
            raise Restart     # grew children since the traversal
        if not pair:
            yield from self._lock(
                ctx, None, self, "delete", prev, READ, _state_is,
                "state", "delete.leaf_parent_state", -1, DATA)
            if self._instr:
                yield W_DEL_MARK
                self.trace.append(("mark", self.ids[curr]))
            curr.deleted = True
            if self._instr:
                yield W_DEL_UNLINK_LEAF
                self.trace.append(("edge", self.ids[prev], side, None))
                self.unlinked.append(curr)
                self.reclaimer.retire(curr)
            set_child(prev, side, None)
            return True
        pside = LEFT if prev.val < gprev.val else RIGHT
        yield from self._lock(
            ctx, None, self, "delete", prev, WRITE, _edge_is, "edge_ref",
            "delete.pair_sibling_edge", 0, sibling, _EDGE_BIT[sside])
        yield from self._lock(
            ctx, None, self, "delete", gprev, WRITE, _edge_is, "edge_ref",
            "delete.pair_parent_edge", -1, prev, _EDGE_BIT[pside])
        yield from self._lock(
            ctx, None, self, "delete", prev, WRITE, _state_is,
            "state", "delete.pair_parent_state", -1, ROUTING)
        if self._instr:
            yield W_DEL_MARK_PARENT
            self.trace.append(("mark", self.ids[prev]))
        prev.deleted = True
        if self._instr:
            yield W_DEL_MARK
            self.trace.append(("mark", self.ids[curr]))
        curr.deleted = True
        if self._instr:
            yield W_DEL_UNLINK_PAIR
            self.trace.append(("edge", self.ids[gprev], pside, self.ids[sibling]))
            self.unlinked += (prev, curr)
            self.reclaimer.retire(prev)
            self.reclaimer.retire(curr)
        set_child(gprev, pside, sibling)
        return True


_compiling = threading.RLock()   # held while a class's twins are compiled


class _CompiledOnUse:
    """Stands for a public method of ``cls`` until the first lookup, which
    compiles the twins (importing cobst folds nothing) and gets ``cls``'s
    own, also through ``super()``; several threads' first lookups compile once."""

    plain_twin = True

    def __init__(self, cls, name):
        self.cls, self.name = cls, name

    def __get__(self, obj, owner):
        with _compiling:
            if vars(self.cls).get(self.name) is self:   # not compiled meanwhile
                from .plain import compile_plain
                compile_plain(self.cls)
        return vars(self.cls)[self.name].__get__(obj, owner)


for _twin in _OPS:
    setattr(ConcurrentSet, _twin, _CompiledOnUse(ConcurrentSet, _twin))
