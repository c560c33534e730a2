"""Concurrent set over the partially-external BST.

Every operation is optimistic: an unsynchronized traversal finds the
relevant nodes, then the operation takes the smallest possible set of
conditional locks, re-verifies that the world still looks the way the
traversal saw it, and commits.  A lock that is not granted, or a
re-check that fails, raises ``Restart``; the restart loop in ``_op``
catches it, releases everything the attempt holds and traverses again.
Reads (``contains``) take no locks at all and never restart.

Lock granularity is per-field: each node holds one lock per outgoing
child edge (bits 1 and 2 of ``edges``) and one for its state/deleted
pair (``word``).  Edge locks are exclusive in either mode; state locks
are taken shared by operations that merely need the state pinned and
exclusively by the ones changing it.  Edge locks come in two
conditional flavours: by reference (the child pointer
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
``compile_plain`` derives from the same generator source when one of
them is first looked up:
every ``if self._instr:`` block is folded away, ``_op`` becomes
``contains``, ``insert`` and ``delete``, and each ``yield from`` in an
attempt becomes the callee's folded body, pasted in place, so an update
runs two Python frames (the operation and its attempt) and real threads
pay for no generator frames, no dispatch on the operation and no
observation.  The twins return bare bools, the stepping form an
``OpOutcome``.  Both forms keep every check, counter and lock call.

Every descent tests ``v < curr.val`` first and ``curr.val < v`` second,
so a left step costs one comparison and only the node holding ``v`` pays
two; ``val`` never changes, so reading it twice needs no checkpoint.
The wrapper reads a thread's stats with one dict lookup and creates
them on its first operation only.
"""

from __future__ import annotations

import ast
import copy
import inspect
import linecache
import operator
import random
import threading
import time
from typing import NamedTuple

from .reclaim import EpochReclaimer
from .rwlock import (ACQUIRED, CONDITION_VIOLATED, CONTENDED, READ, WRITE,
                     CondRwLock, LockMode)
from .tree_core import (DATA, LEFT, MIN_KEY, PLUS_INF, RIGHT, ROUTING, Node,
                        snapshot_keys, validate_key)

__all__ = [
    "ConcurrentSet", "OpOutcome", "ThreadStats",
    "Site", "LockPoint", "compile_plain",
    "K_READ", "K_WRITE", "K_LOCK", "K_CREATE",
]

# the operations, each a public method: ``_op``'s plain twin with ``op`` bound
_OPS = ("contains", "insert", "delete")

_get_ident = threading.get_ident   # one global read, not a global and an attribute
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
    harness needs the concrete lock (holder and edge), the requested mode
    and the guard predicate with its arguments to decide whether it could
    even succeed right now (the predicate only performs reads, so
    peeking is free of side effects).  The stepping form builds it with
    ``tuple.__new__``, without the Python frame of a constructor;
    ``kind`` is a class attribute, the same for every attempt.
    """

    family: str
    name: str
    lock: CondRwLock
    mode: LockMode
    cond: object
    node: Node | None = None
    expected: object = None
    edge: int = 0
    kind = K_LOCK

    def would_block(self) -> bool:
        """True if attempting now could only end in CONTENDED.

        A false condition short-circuits the attempt before the CAS, so
        such attempts are never blocked, they fail fast with
        CONDITION_VIOLATED.
        """
        _, _, lock, mode, cond, node, expected, edge = self
        if not (cond() if node is None else cond(node, expected)):
            return False
        w = lock.edges & edge if edge else lock.word
        return w != 0 if edge or mode is WRITE else w == 1

    def __repr__(self):
        w = self.lock.edges & self.edge != 0 if self.edge else self.lock.word
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

_ALWAYS = lambda: True  # noqa: E731  (plain, unconditional acquisition)


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
# the post-acquire evaluation is authoritative.  ``rwlock`` calls them
# with the node and the expected value, so an attempt builds no closure.

def _left_is(node: Node, expected) -> bool:
    return node.left is expected and not node.deleted


def _right_is(node: Node, expected) -> bool:
    return node.right is expected and not node.deleted


def _left_holds(node: Node, key) -> bool:
    return (c := node.left) is not None and c.val == key and not node.deleted


def _right_holds(node: Node, key) -> bool:
    return (c := node.right) is not None and c.val == key and not node.deleted


def _state_is(node: Node, state) -> bool:
    return node.state == state and not node.deleted


_EDGE_IS = (_left_is, _right_is)            # edge by reference, by side
_EDGE_HOLDS = (_left_holds, _right_holds)   # edge by value, by side
_EDGE_BIT = (1, 2)                          # a node's edge lock, by side
_LOCK_NAME = ("word", "left_word", "right_word")    # a lock in reprs, by edge


class ThreadStats:
    __slots__ = ("ops", "completed", "restarts", "acquisitions",
                 "cond_violations", "contended_aborts", "ctx")

    def __init__(self):
        self.ops = {"contains": 0, "insert": 0, "delete": 0}
        self.completed = 0
        self.restarts = 0
        # successful lock acquisitions attributed to the operation type;
        # the contains column staying at zero is the wait-free-read
        # evidence the tests assert on
        self.acquisitions = {"contains": 0, "insert": 0, "delete": 0}
        self.cond_violations = {}    # lock family -> count
        self.contended_aborts = {}   # lock family -> count


class OpOutcome(NamedTuple):
    op: str
    key: int
    result: bool
    restarts: int


class _NodeIds(dict):
    """Node -> trace id: the root 0, each stepped insert's node the next, else -1."""

    def __missing__(self, node):
        return -1


class _AttemptCtx:
    """Lock bookkeeping of an update: what its current attempt holds (for
    the all-or-nothing release) and, in the stepping form, the last lock
    level (for the deadlock-order assert).  ``_op`` resets both between
    attempts, ``held`` before any backoff.  A plain update reuses its
    thread's, made with its stats; a stepped one makes its own, so that
    closing an abandoned generator cannot release a later one's locks."""

    __slots__ = ("tkey", "held", "last_level")

    def __init__(self, tkey):
        self.tkey = tkey
        self.held = []
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
    attempts  thread key -> its current ``_AttemptCtx``, whose ``held``
              list is what that thread holds
    """

    _instr = True   # the stepping form; ``compile_plain`` folds it to False

    def __init__(self):
        self.root = Node(PLUS_INF)
        self.ids = _NodeIds({self.root: 0})
        self.reclaimer = EpochReclaimer()
        self._stats: dict = {}
        self.trace: list = []
        self.unlinked: list[Node] = []
        self.attempts: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if any(map(inspect.isgeneratorfunction, vars(cls).values())):
            compile_plain(cls)   # a redefined generator method needs new twins

    # -- public set interface -------------------------------------------
    #
    # ``contains(v)``, ``insert(v)`` and ``delete(v)`` are the plain twins
    # of ``_op``, which ``compile_plain`` installs at the end of the module.

    def op_gen(self, op: str, v, tkey=None):
        """The stepping form used by the schedule harness: a generator
        that yields at every checkpoint.  ``tkey`` keys the logical
        thread's stats only (default: the real thread id); a caller that
        steps it by hand pins ``reclaimer`` itself, as the harness does."""
        if op not in _OPS:
            raise ValueError("unknown operation %r" % (op,))
        return self._op(op, v, _get_ident() if tkey is None else tkey)

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
        """Merged per-thread counters.  Safe while operations run: each
        counter is then read once during the call, so counts may differ
        by the operations in flight but never fall from call to call."""
        total = ThreadStats()
        for st in list(self._stats.values()):
            total.completed += st.completed
            total.restarts += st.restarts
            for k in total.ops:
                total.ops[k] += st.ops[k]
                total.acquisitions[k] += st.acquisitions[k]
            for d_to, d_from in ((total.cond_violations, st.cond_violations),
                                 (total.contended_aborts, st.contended_aborts)):
                for k, n in list(d_from.items()):
                    d_to[k] = d_to.get(k, 0) + n
        return {
            "completed": total.completed,
            "restarts": total.restarts,
            "ops": total.ops,
            "acquisitions": total.acquisitions,
            "cond_violations": total.cond_violations,
            "contended_aborts": total.contended_aborts,
        }

    # -- internals ---------------------------------------------------------

    def _thread_stats(self, tkey) -> ThreadStats:
        st = self._stats.get(tkey)
        if st is None:
            st = self._stats[tkey] = ThreadStats()
            st.ctx = _AttemptCtx(tkey)
        return st

    def _backoff(self, n: int) -> None:
        """Sleep a random, exponentially growing amount after the n-th
        restart of one operation.  Called with no locks held."""
        limit = min(_BACKOFF_BASE_S * (1 << min(n - 1, _BACKOFF_MAX_EXP)),
                    _BACKOFF_CAP_S)
        time.sleep(random.uniform(0.0, limit))

    def _release_all(self, ctx: _AttemptCtx) -> None:
        held = ctx.held
        while held:
            lock, mode, edge = held.pop()
            lock.unlock(mode, edge)

    def _lock(self, ctx: _AttemptCtx, tkey, st: ThreadStats, optag: str,
              lock: CondRwLock, mode: LockMode, cond, family: str,
              name: str, level: int, node=None, expected=None, edge=0):
        """One bounded acquisition of ``lock``'s state word (``edge`` 0) or
        edge bit ``edge`` under ``cond(node, expected)``.

        Both forms make one attempt; the stepping form yields a LockPoint
        checkpoint before it and stops there.  The plain form waits out a
        CONTENDED attempt in ``lock_with_spin``, all of it inside what
        would be one checkpoint, because a failed CAS re-attempt reads
        nothing new about the tree.  A granted lock goes on ``ctx.held``,
        which ``_op`` owns and releases; any other outcome is counted and
        raises ``Restart``.  The body has no ``return``, so the plain form
        pastes it into every caller.
        """
        if self._instr:
            assert ctx.last_level is None or level <= ctx.last_level, \
                "lock order violated: level %d after %d at %s" % (
                    level, ctx.last_level, name)
            ctx.last_level = level
            self.attempts[ctx.tkey] = ctx
            yield _new(LockPoint, (family, name, lock, mode, cond, node, expected, edge))
            out = lock.try_lock_with_condition(mode, cond, node, expected, edge)
        else:
            out = lock.try_lock_with_condition(mode, cond, node, expected, edge)
            if out is CONTENDED:
                out = lock.lock_with_spin(mode, cond, node, expected, edge)
        if out is not ACQUIRED:
            counts = (st.cond_violations if out is CONDITION_VIOLATED
                      else st.contended_aborts)
            counts[family] = counts.get(family, 0) + 1
            raise Restart
        ctx.held.append((lock, mode, edge))
        st.acquisitions[optag] += 1

    def _traverse(self, v: int):
        """Unsynchronized descent to ``(gprev, prev, curr)`` as in
        ``tree_core.traverse``, with the same comparison order; the only
        checkpoints are the child pointer reads, one per step down."""
        gprev = None
        prev = None
        curr = self.root
        while curr is not None:
            if v < curr.val:
                gprev = prev
                prev = curr
                if self._instr:
                    yield S_TRAV_LEFT
                curr = curr.left
            elif curr.val < v:
                gprev = prev
                prev = curr
                if self._instr:
                    yield S_TRAV_RIGHT
                curr = curr.right
            else:
                break
        return gprev, prev, curr

    # -- one operation: the wrapper shared by all three -------------------

    def _op(self, op, v, tkey):
        """Run ``op`` on ``v``: ``tkey``'s stats (no epoch pin: a stepping
        caller pins) around the wait-free read or the restart loop of an
        update.  The stepping form returns an ``OpOutcome``, the plain
        twins, the public methods, the bare result; they take ``tkey``
        from the running thread."""
        if not (type(v) is int and MIN_KEY <= v < PLUS_INF):
            validate_key(v)   # int subclasses pass; anything else raises
        st = self._stats.get(tkey)
        if st is None:   # the thread's first operation
            st = self._thread_stats(tkey)
        st.ops[op] += 1
        restarts = 0
        if op == "contains":
            # ``_traverse``'s descent and checkpoints, keeping only curr
            result = False
            curr = self.root
            while curr is not None:
                if v < curr.val:
                    if self._instr:
                        yield S_TRAV_LEFT
                    curr = curr.left
                elif curr.val < v:
                    if self._instr:
                        yield S_TRAV_RIGHT
                    curr = curr.right
                else:
                    if self._instr:
                        yield S_CONT_STATE
                    result = curr.state == DATA
                    break
        else:
            ctx = st.ctx
            if self._instr:
                ctx = _AttemptCtx(tkey)   # see ``_AttemptCtx``
            held = ctx.held
            while True:
                if self._instr:
                    ctx.last_level = None
                try:
                    if op == "insert":
                        result = yield from self._insert_attempt(
                            ctx, tkey, st, v)
                    else:
                        result = yield from self._delete_attempt(
                            ctx, tkey, st, v)
                    break
                except Restart:
                    restarts += 1
                    st.restarts += 1
                finally:   # ``held`` is empty if the attempt took no lock
                    if self._instr:
                        if held:
                            self._release_all(ctx)
                    else:
                        while held:
                            lock, mode, edge = held.pop()
                            lock.unlock(mode, edge)
                if self._instr:
                    continue   # stepped: the schedule picks who runs next
                self._backoff(restarts)
        st.completed += 1
        if self._instr:
            return _new(OpOutcome, (op, v, result, restarts))
        return result

    # -- insert ------------------------------------------------------------

    def _insert_attempt(self, ctx, tkey, st, v):
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
                ctx, tkey, st, "insert", curr, WRITE, _state_is,
                "state", "insert.promote_state", 0, curr, ROUTING)
            if self._instr:
                yield W_INS_PROMOTE
                self.trace.append(("state", self.ids[curr], DATA))
            curr.state = DATA
            return True
        # key absent: hang a fresh leaf off prev, guarded by the edge
        # still being empty and prev still being live
        side = LEFT if v < prev.val else RIGHT
        yield from self._lock(
            ctx, tkey, st, "insert", prev, WRITE, _EDGE_IS[side], "edge_ref",
            "insert.edge", 0, prev, None, _EDGE_BIT[side])
        # shared hold on prev's state: blocks a concurrent demotion or
        # deletion of prev between our deleted re-check and the link
        yield from self._lock(
            ctx, tkey, st, "insert", prev, READ,
            _ALWAYS, "state_plain", "insert.parent_state", -1)
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
        prev.set_child(side, node)
        return True

    # -- delete ------------------------------------------------------------

    def _delete_attempt(self, ctx, tkey, st, v):
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
            return (yield from self._delete_two_children(ctx, tkey, st, curr))
        if left is not None or right is not None:
            child = left if left is not None else right
            return (yield from self._delete_one_child(
                ctx, tkey, st, v, prev, curr, child,
                LEFT if left is not None else RIGHT))
        return (yield from self._delete_leaf(ctx, tkey, st, v, gprev, prev))

    def _delete_two_children(self, ctx, tkey, st, curr):
        """Both children present: the node only loses its membership and
        stays as routing structure."""
        yield from self._lock(
            ctx, tkey, st, "delete", curr, WRITE, _state_is,
            "state", "delete.demote_state", 0, curr, DATA)
        # the state lock keeps leaf deletions below us out, but a child
        # may have been spliced away before we got the lock; re-check
        if curr.left is None or curr.right is None:
            raise Restart
        if self._instr:
            yield W_DEL_DEMOTE
            self.trace.append(("state", self.ids[curr], ROUTING))
        curr.state = ROUTING
        return True

    def _delete_one_child(self, ctx, tkey, st, v, prev, curr, child, child_side):
        """Exactly one child: splice it up into our parent's slot.

        Lock order is strictly deeper-first: the edge below curr, the
        edge above curr, then curr's state.
        """
        side = LEFT if v < prev.val else RIGHT
        yield from self._lock(
            ctx, tkey, st, "delete", curr, WRITE, _EDGE_IS[child_side],
            "edge_ref", "delete.splice_child_edge", 1, curr, child,
            _EDGE_BIT[child_side])
        yield from self._lock(
            ctx, tkey, st, "delete", prev, WRITE, _EDGE_IS[side], "edge_ref",
            "delete.splice_parent_edge", 0, prev, curr, _EDGE_BIT[side])
        yield from self._lock(
            ctx, tkey, st, "delete", curr, WRITE, _state_is,
            "state", "delete.splice_state", 0, curr, DATA)
        # fresh re-check that curr still has exactly this one child: the
        # other slot may have been filled by an insert before our state
        # lock landed
        other = curr.right if child_side == LEFT else curr.left
        if other is not None:
            raise Restart
        if self._instr:
            yield W_DEL_MARK
            self.trace.append(("mark", self.ids[curr]))
        curr.deleted = True
        if self._instr:
            yield W_DEL_SPLICE
            self.trace.append(("edge", self.ids[prev], side, self.ids[child]))
            self.unlinked.append(curr)
            self.reclaimer.retire(curr)
        prev.set_child(side, child)
        return True

    def _delete_leaf(self, ctx, tkey, st, v, gprev, prev):
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
            ctx, tkey, st, "delete", prev, WRITE, _EDGE_HOLDS[side], "edge_val",
            "delete.pair_edge" if pair else "delete.leaf_edge", 0, prev, v,
            _EDGE_BIT[side])
        curr = prev.child(side)   # fresh: the locked occupant, maybe a twin
        yield from self._lock(
            ctx, tkey, st, "delete", curr, WRITE, _state_is, "state",
            "delete.pair_state" if pair else "delete.leaf_state", 0, curr, DATA)
        if curr.left is not None or curr.right is not None:
            raise Restart     # grew children since the traversal
        if not pair:
            yield from self._lock(
                ctx, tkey, st, "delete", prev, READ, _state_is,
                "state", "delete.leaf_parent_state", -1, prev, DATA)
            if self._instr:
                yield W_DEL_MARK
                self.trace.append(("mark", self.ids[curr]))
            curr.deleted = True
            if self._instr:
                yield W_DEL_UNLINK_LEAF
                self.trace.append(("edge", self.ids[prev], side, None))
                self.unlinked.append(curr)
                self.reclaimer.retire(curr)
            prev.set_child(side, None)
            return True
        pside = LEFT if prev.val < gprev.val else RIGHT
        yield from self._lock(
            ctx, tkey, st, "delete", prev, WRITE, _EDGE_IS[sside], "edge_ref",
            "delete.pair_sibling_edge", 0, prev, sibling, _EDGE_BIT[sside])
        yield from self._lock(
            ctx, tkey, st, "delete", gprev, WRITE, _EDGE_IS[pside], "edge_ref",
            "delete.pair_parent_edge", -1, gprev, prev, _EDGE_BIT[pside])
        yield from self._lock(
            ctx, tkey, st, "delete", prev, WRITE, _state_is,
            "state", "delete.pair_parent_state", -1, prev, ROUTING)
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
        gprev.set_child(pside, sibling)
        return True


# -- the plain-call form ---------------------------------------------------
#
# Each generator method ``_m`` is recompiled from its own source into a
# plain function installed beside it as ``_m_plain``, except ``_op``,
# which becomes ``contains``, ``insert`` and ``delete``: each read of
# ``op`` becomes that operation's name, and ``tkey`` is bound from
# ``_get_ident()`` at entry.  ``self._instr`` reads as False and
# comparisons of constants fold, so each ``if`` keeps only the branch
# taken: the twins keep no checkpoint, record or ``OpOutcome``.
#
# Outside ``_op``, ``yield from self._m(...)`` pastes the folded body of
# ``_m``, a generator method of the same module, as a statement or an
# assignment if its only ``return`` is its last statement or it has
# none, and as a tail ``return (yield from ...)`` in any case.  Constant
# arguments, and names that the paste never assigns, are substituted;
# others are bound at the top of the paste if the body reads them.  Any
# other ``yield from self._m(...)`` calls ``self._m_plain``, as ``_op``
# calls an attempt.  The twins keep the source's file name and line
# numbers, so a traceback through one points into the generator bodies.

def _self_call(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self")


def _subst(node, args):
    """``node`` with each read of a name in ``args`` replaced by a copy of
    its value, a constant or a name; a subtree that reads none is shared."""
    if isinstance(node, ast.Name):
        arg = args.get(node.id)
        if arg is None or not isinstance(node.ctx, ast.Load):
            return node
        return ast.copy_location(ast.Name(arg.id, ast.Load()) if isinstance(arg, ast.Name)
                                 else ast.Constant(arg.value), node)
    new = node
    for field in node._fields:
        old = getattr(node, field, None)
        if isinstance(old, list):
            value = [_subst(x, args) if isinstance(x, ast.AST) else x for x in old]
            same = all(map(operator.is_, value, old))
        elif isinstance(old, ast.AST):
            value = _subst(old, args)
            same = value is old
        else:
            continue
        if not same:
            new = copy.copy(node) if new is node else new
            setattr(new, field, value)
    return new


class _FoldInstrumentation(ast.NodeTransformer):
    """Folds a method of ``where``, ``_op`` with ``op`` bound to ``op``,
    and pastes each callee for which ``pasted(name)`` gives its fold.  A
    fold is the def, the names its body reads and assigns, and its count
    of ``return`` statements."""

    def __init__(self, where, op, pasted):
        self.where, self.op, self.pasted = where, op, pasted
        self.loads, self.stores, self.loops, self.pastes = [], set(), [], []
        self.reads, self.assigns, self.returns = set(), set(), 0

    def visit_FunctionDef(self, node):
        self.generic_visit(node)
        locals_ = self.stores | {a.arg for a in node.args.args}
        for stmt, looped, names, callee in self.pastes:
            end = (stmt.end_lineno, stmt.end_col_offset)
            clash = names & locals_ & {n for n, at in self.loads if at > end or looped}
            if clash:
                raise TypeError("%s, line %d: pasting %s would change its local %s"
                                % (self.where, stmt.lineno, callee, ", ".join(sorted(clash))))
        if self.op is not None:
            node.args.args = [a for a in node.args.args if a.arg not in ("op", "tkey")]
            if any(n == "tkey" for n, _ in self.loads):
                i = int(ast.get_docstring(node) is not None)
                node.body.insert(i, ast.fix_missing_locations(ast.copy_location(ast.Assign(
                    [ast.Name("tkey", ast.Store())],
                    ast.Call(ast.Name("_get_ident", ast.Load()), [], [])), node.body[i])))
        return (node, self.reads | {n for n, _ in self.loads},
                self.assigns | self.stores, self.returns)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.loads.append((node.id, (node.lineno, node.col_offset)))
        else:
            self.stores.add(node.id)
        if self.op is not None and node.id == "op":
            return ast.copy_location(ast.Constant(self.op), node)
        return node

    def visit_Attribute(self, node):
        if (node.attr == "_instr" and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return ast.copy_location(ast.Constant(False), node)
        return self.generic_visit(node)

    def visit_Compare(self, node):
        self.generic_visit(node)
        if (len(node.ops) == 1 and isinstance(node.ops[0], (ast.Eq, ast.NotEq))
                and isinstance(node.left, ast.Constant)
                and isinstance(node.comparators[0], ast.Constant)):
            equal = node.left.value == node.comparators[0].value
            return ast.copy_location(
                ast.Constant(equal == isinstance(node.ops[0], ast.Eq)), node)
        return node

    def visit_If(self, node):   # a constant test keeps one branch, unvisited
        node.test = self.visit(node.test)
        if not isinstance(node.test, ast.Constant):
            return self.generic_visit(node)
        return self.generic_visit(
            ast.Module(node.body if node.test.value else node.orelse, [])).body

    def visit_While(self, node):   # and For: a paste inside reads the whole loop
        self.loops.append(((node.lineno, node.col_offset),
                           (node.end_lineno, node.end_col_offset)))
        return self.generic_visit(node)

    visit_For = visit_While

    def visit_YieldFrom(self, node):
        self.generic_visit(node)
        if _self_call(node.value):
            node.value.func.attr += "_plain"
            return node.value
        return node

    def visit_Expr(self, stmt):   # and Assign and Return: paste the callee
        call = getattr(stmt.value, "value", None)
        callee = (self.pasted(call.func.attr)
                  if isinstance(stmt.value, ast.YieldFrom) and _self_call(call) else None)
        if callee is None:
            stmt = self.generic_visit(stmt)
            self.returns += isinstance(stmt, ast.Return)
            return stmt
        fn, read, stored, returns = callee
        targets = getattr(stmt, "targets", None if isinstance(stmt, ast.Return) else [])
        params, defaults = [p.arg for p in fn.args.args], fn.args.defaults
        args = dict(zip(params[len(params) - len(defaults):], defaults))
        args.update(zip(params, [ast.Name("self", ast.Load())] + call.args))
        args.update((k.arg, k.value) for k in call.keywords)
        used = read & set(params)
        bound = {p for p in used if p in stored
                 or not isinstance(args[p], (ast.Constant, ast.Name))}
        while more := {p for p in used - bound
                       if getattr(args[p], "id", None) in stored | bound}:
            bound |= more    # a name argument must keep its value in the paste
        body = fn.body[ast.get_docstring(fn) is not None:]
        if targets is not None and returns > isinstance(body[-1], ast.Return):
            line = next(n.lineno for n in ast.walk(ast.Module(body, []))
                        if isinstance(n, ast.Return) and n is not body[-1])
            raise TypeError("%s, line %d: %s returns at line %d, where no paste "
                            "form covers it" % (self.where, stmt.lineno,
                                                call.func.attr, line))
        tnames = {n.id for t in targets or () for n in ast.walk(t) if isinstance(n, ast.Name)}
        at, end = (stmt.lineno, stmt.col_offset), (stmt.end_lineno, stmt.end_col_offset)
        self.pastes.append((stmt, any(b <= at and end <= e for b, e in self.loops),
                            (stored | bound) - tnames, call.func.attr))
        self.reads |= read - set(params) | {n.id for a in args.values()
                                            for n in ast.walk(a) if isinstance(n, ast.Name)}
        self.assigns |= stored | bound | tnames
        subst = {p: args[p] for p in used - bound if getattr(args[p], "id", None) != p}
        body = [_subst(b, subst) for b in body] if subst else body[:]
        if targets is None:
            self.returns += returns
            if not isinstance(body[-1], (ast.Return, ast.Raise)):
                body.append(ast.copy_location(ast.Return(None), body[-1]))
                self.returns += 1
        else:
            last = body.pop() if isinstance(body[-1], ast.Return) else stmt
            value = getattr(last, "value", None) or ast.Constant(None)
            if not targets and last is not stmt and last.value:
                body.append(ast.copy_location(ast.Expr(value), last))
            elif targets and [ast.unparse(t) for t in targets] != [ast.unparse(value)]:
                body.append(ast.copy_location(ast.Assign(targets, value), last))
        if bound:
            order = [p for p in params if p in bound]
            body.insert(0, ast.fix_missing_locations(ast.copy_location(ast.Assign(
                [ast.Tuple([ast.Name(p, ast.Store()) for p in order], ast.Store())],
                ast.Tuple([args[p] for p in order], ast.Load())), stmt)))
        return body

    visit_Assign = visit_Return = visit_Expr


def _method_def(fn) -> ast.FunctionDef:
    """The def of ``fn`` from its own lines, read by ``linecache`` to the
    last line in ``co_positions()`` (by ``inspect`` on CPython 3.10) and
    padded so that every line and column number is the file's."""
    code = fn.__code__
    if hasattr(code, "co_positions"):
        first = code.co_firstlineno
        block = linecache.getlines(code.co_filename, fn.__globals__)[
            first - 1:max(filter(None, map(operator.itemgetter(1), code.co_positions())))]
    else:   # CPython 3.10
        block, first = inspect.getsourcelines(fn)
    indented = block[0][:1].isspace()
    source = ("\n" * (first - 1 - indented)
              + ("class _:\n" if indented else "") + "".join(block))
    return next(n for n in ast.walk(ast.parse(source, code.co_filename))
                if isinstance(n, ast.FunctionDef))


def _plain_defs(cls, parse=_method_def) -> dict:
    """Twin name -> (folded def, method) for every generator method that
    ``cls`` has, own or inherited; ``parse(fn)`` gives the def of ``fn``."""
    gens: dict = {}
    for klass in reversed(cls.__mro__):
        gens.update(vars(klass))
    gens = {n: fn for n, fn in gens.items() if inspect.isgeneratorfunction(fn)}
    done: dict = {}

    def fold(name, op=None):
        fn = gens[name]
        if fn.__code__.co_freevars:
            raise TypeError("%s.%s uses enclosing variables %s; only plain "
                            "methods can be compiled"
                            % (cls.__name__, name, fn.__code__.co_freevars))

        def paste(m):   # ``_op`` calls its attempts, and a twin calls across modules
            return (folded(m) if name != "_op" and m in gens
                    and gens[m].__globals__ is fn.__globals__ else None)
        return _FoldInstrumentation("%s.%s" % (cls.__name__, name), op,
                                    paste).visit(parse(fn))

    def folded(name):
        if name not in done:
            done[name] = None   # a method that pastes itself calls itself
            done[name] = fold(name)
        return done[name]

    twins = {op: (fold("_op", op)[0], gens["_op"]) for op in _OPS if "_op" in gens}
    twins.update((name + "_plain", (folded(name)[0], fn))
                 for name, fn in gens.items() if name != "_op")
    done.clear()   # ``fold`` and ``folded`` form a cycle; the defs need not wait for it
    return twins


def compile_plain(cls) -> None:
    """Install on ``cls`` the plain twins of every generator method that
    ``cls`` has, own or inherited, as an inherited twin may have pasted a
    method that ``cls`` redefines; a public method that ``cls`` or a base
    defines itself stays.  Subclasses that define a generator method are
    compiled when they are created; call this again after replacing one.
    ``TypeError`` names the method and line of a ``return`` that no paste
    form covers, a paste that changes a caller local read later, or a
    ``yield`` left after folding.
    """
    for twin, (node, fn) in _plain_defs(cls).items():
        own = inspect.getattr_static(cls, twin, None)
        if twin in _OPS and own is not None and not hasattr(own, "plain_twin"):
            continue
        node.name = twin
        ns: dict = {}
        exec(compile(ast.Module([node], []), fn.__code__.co_filename, "exec"),
             fn.__globals__, ns)
        if inspect.isgeneratorfunction(ns[twin]):
            line = next(n.lineno for n in ast.walk(node)
                        if isinstance(n, (ast.Yield, ast.YieldFrom)))
            raise TypeError("%s.%s: yield left at line %d after folding"
                            % (cls.__name__, fn.__name__, line))
        ns[twin].plain_twin = True
        setattr(cls, twin, ns[twin])


class _CompiledOnUse:
    """Stands for a twin of ``cls`` until one is looked up, which compiles
    them all, so that importing cobst folds nothing."""

    plain_twin = True

    def __init__(self, cls, name):
        self.cls, self.name = cls, name

    def __get__(self, obj, owner):
        compile_plain(self.cls)
        return vars(self.cls)[self.name].__get__(obj, owner)


for _twin in [n + "_plain" for n, fn in vars(ConcurrentSet).items()
              if inspect.isgeneratorfunction(fn) and n != "_op"] + list(_OPS):
    setattr(ConcurrentSet, _twin, _CompiledOnUse(ConcurrentSet, _twin))
