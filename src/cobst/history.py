"""Histories of set operations and the linearizability checker.

A history is a sequence of invocation and response events, each stamped
with a globally unique, monotonically increasing sequence number.  The
checker answers whether the history could have been produced by a
single-threaded set: it searches for a total order of the operations
that respects real time (an operation that responded before another was
invoked must come first) and replays correctly against the sequential
set semantics.

Events and operations are immutable, hashable named tuples:
``HistoryEvent`` (seq, thread, kind, op, key, ret) per invocation or
response, and ``OpRecord`` per operation, built once when ``History``
pairs a response with its invocation (or at the end, for an operation
still pending).  ``HistoryRecorder`` builds each event with
``tuple.__new__``, so recording an event costs a counter step, a tuple
and a list append: 0.4-0.5 us on CPython 3.11 (Xeon, 2 hardware
threads), against 3-6 us for the set operation it brackets.

Incomplete operations (invoked, never responded) are handled inside
the one search, after Herlihy & Wing: a pending ``contains`` is dropped,
a read that never took effect; a pending ``insert`` or ``delete`` may or
may not have taken effect, so the search may place it as returning true,
with its response at infinity, or leave it out (returning false would
leave the set as unchanged as leaving it out does).

The search is exponential in the worst case, so the checker refuses
histories whose searched operations exceed a configurable count
instead of silently burning CPU.

Separately, ``check_observable_correctness`` replays a structural trace
(node creations, state changes, deleted marks, child-pointer swings)
against a shadow tree and verifies after every prefix that the reachable
nodes form a search tree, that routing nodes keep two children, and that
no node that once left the tree ever becomes reachable again.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from .tree_core import LEFT, MIN_KEY, PLUS_INF, RIGHT, DATA, ROUTING

__all__ = [
    "HistoryEvent", "History", "OpRecord", "HistoryRecorder",
    "HistoryTooLargeError", "LinResult", "set_type_step", "is_linearizable",
    "emit_history", "parse_history",
    "ObservabilityReport", "check_observable_correctness",
]

INV = "inv"
RES = "res"

_OPS = ("insert", "delete", "contains")


class HistoryTooLargeError(ValueError):
    """The checker's explicit refusal for histories beyond its bound."""


class HistoryEvent(NamedTuple):
    seq: int
    thread: int
    kind: str          # "inv" | "res"
    op: str            # "insert" | "delete" | "contains"
    key: int
    ret: bool | None   # None on invocations


class OpRecord(NamedTuple):
    index: int         # position in invocation order
    thread: int
    op: str
    key: int
    ret: bool | None   # None while pending
    inv_seq: int
    res_seq: int | None

    @property
    def pending(self) -> bool:
        return self.res_seq is None


# ``tuple.__new__`` builds a record without the Python frame of the
# generated ``__new__``: the recorder and the pairing call it directly
_new = tuple.__new__


class History:
    """An event sequence plus the paired-up operation view.

    Construction validates well-formedness: per thread, invocations and
    responses strictly alternate and each response matches the op and
    key of the invocation it answers.
    """

    def __init__(self, events):
        self.events = sorted(events, key=itemgetter(0))
        seen = set()
        for e in self.events:
            if e.seq in seen:
                raise ValueError("duplicate sequence number %d" % e.seq)
            seen.add(e.seq)
        self._ops = self._pair_up()

    def _pair_up(self):
        # an open operation's slot in ``ops`` holds its invocation event
        # until the response (or the end, for a pending one) replaces it
        # with the operation's one OpRecord
        open_by_thread: dict = {}
        ops = []
        for e in self.events:
            seq, thread, kind, op, key, ret = e
            if kind == INV:
                if op not in _OPS:
                    raise ValueError("unknown operation %r" % (op,))
                if thread in open_by_thread:
                    raise ValueError(
                        "thread %r invokes while an operation is open" % (thread,))
                open_by_thread[thread] = len(ops)
                ops.append(e)
            elif kind == RES:
                i = open_by_thread.pop(thread, None)
                if i is None:
                    raise ValueError(
                        "thread %r responds without an open operation" % (thread,))
                inv = ops[i]
                if inv.op != op or inv.key != key:
                    raise ValueError(
                        "thread %r response %s(%s) does not match open %s(%s)"
                        % (thread, op, key, inv.op, inv.key))
                if not isinstance(ret, bool):
                    raise ValueError("response without a boolean return")
                ops[i] = _new(OpRecord, (i, thread, op, key, ret, inv.seq, seq))
            else:
                raise ValueError("unknown event kind %r" % (kind,))
        for thread, i in open_by_thread.items():
            inv = ops[i]
            ops[i] = OpRecord(i, thread, inv.op, inv.key, None, inv.seq, None)
        return ops

    def ops(self) -> list[OpRecord]:
        return list(self._ops)

    def complete_ops(self) -> list[OpRecord]:
        return [o for o in self._ops if not o.pending]

    def pending_ops(self) -> list[OpRecord]:
        return [o for o in self._ops if o.pending]

    def __len__(self):
        return len(self.events)

    def __eq__(self, other):
        return isinstance(other, History) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        # every field but seq: (thread, kind, op, key, ret)
        return tuple(e[1:] for e in self.events)


class HistoryRecorder:
    """Thread-safe event sink; callers need no lock of their own.

    Callers record each operation's interval: ``invoke`` just before
    calling the set, ``respond`` with its result just after.  Each call
    appends one ``HistoryEvent`` built with ``tuple.__new__`` (about
    0.4-0.5 us an event, see the module docstring).
    Sequence numbers come from ``itertools.count``, whose increment is a
    single C call and therefore atomic under the interpreter lock; list
    appends are atomic the same way.  Events may land in the list
    slightly out of seq order under real threads, which is why History
    sorts on construction.
    """

    def __init__(self):
        self._seq = itertools.count()
        self.events: list[HistoryEvent] = []

    def invoke(self, thread, op, key) -> None:
        self.events.append(
            _new(HistoryEvent, (next(self._seq), thread, INV, op, key, None)))

    def respond(self, thread, op, key, ret) -> None:
        self.events.append(
            _new(HistoryEvent, (next(self._seq), thread, RES, op, key, ret)))

    def history(self) -> History:
        return History(list(self.events))


# -- sequential set semantics ------------------------------------------

def set_type_step(state: frozenset, op: str, key: int, ret: bool):
    """Apply one completed operation to an abstract set state.

    Returns the successor state, or None if the recorded return value is
    impossible from ``state``.
    """
    if op == "contains":
        return state if ret == (key in state) else None
    if op == "insert":
        if ret != (key not in state):
            return None
        return state | {key} if ret else state
    if op == "delete":
        if ret != (key in state):
            return None
        return state - {key} if ret else state
    raise ValueError("unknown operation %r" % (op,))


# -- the checker --------------------------------------------------------

@dataclass
class LinResult:
    ok: bool
    # a legal sequential order of the completed operations, when ok,
    # with the pending updates that took effect (their ret is true)
    witness: list | None = None
    # on failure: the completed ops still unplaced at the deepest
    # frontier the search reached, with the abstract state there; the
    # smallest point where every continuation is inconsistent
    stuck_ops: list | None = None
    stuck_state: frozenset | None = None

    def __str__(self):
        if self.ok:
            lines = ["LINEARIZABLE"]
            for o in self.witness or ():
                lines.append("  %s(%d) -> %s  [thread %s%s]"
                             % (o.op, o.key, str(o.ret).lower(), o.thread,
                                ", pending" if o.pending else ""))
            return "\n".join(lines)
        lines = ["NOT LINEARIZABLE"]
        if self.stuck_state is not None:
            lines.append("  reachable state before the failure: {%s}"
                         % ", ".join(str(k) for k in sorted(self.stuck_state)))
        for o in self.stuck_ops or ():
            lines.append("  cannot order: %s(%d) -> %s  [thread %s]"
                         % (o.op, o.key, str(o.ret).lower(), o.thread))
        return "\n".join(lines)


DEFAULT_MAX_OPS = 24


def is_linearizable(h: History, initial=frozenset(), *,
                    max_ops: int = DEFAULT_MAX_OPS) -> LinResult:
    """Decide linearizability of ``h`` against set semantics.

    One depth-first search, on an explicit stack, over orders of the
    completed operations and the pending updates.  A pending update is
    placed as returning true or never placed; pending reads are left out.
    The search succeeds once every completed operation is placed.  Two
    prunings: an operation is eligible next only if its invocation
    precedes the response of every unplaced operation (real-time order),
    and (placed-set, abstract-state) pairs already proven dead are
    memoized.  Histories whose searched operations outnumber ``max_ops``
    raise HistoryTooLargeError.
    """
    initial = frozenset(initial)
    ops = [o._replace(ret=True) if o.pending else o
           for o in h.ops() if not (o.pending and o.op == "contains")]
    n = len(ops)
    if n > max_ops:
        raise HistoryTooLargeError(
            "history has %d operations, checker bound is %d" % (n, max_ops))
    inv = [o.inv_seq for o in ops]
    res = [o.res_seq if o.res_seq is not None else math.inf for o in ops]
    required = sum(1 << i for i, o in enumerate(ops) if not o.pending)

    def successors(mask, state):
        # ops are in invocation order, so the eligible ones are the
        # unplaced ops invoked before the earliest unplaced response
        min_res = math.inf
        for i in range((~mask & (mask + 1)).bit_length() - 1, n):
            if inv[i] > min_res:
                break
            if not mask >> i & 1:
                min_res = min(min_res, res[i])
                nxt = set_type_step(state, ops[i].op, ops[i].key, ops[i].ret)
                if nxt is not None:
                    yield i, mask | 1 << i, nxt

    if not required:
        return LinResult(True, witness=[])
    # frames are (op placed last, placed mask, state, successor iterator);
    # the ops of the frames above the root are the order so far
    stack = [(None, 0, initial, successors(0, initial))]
    dead: set = set()
    best_placed, best = 0, (0, initial)
    while stack:
        _, mask, state, succ = stack[-1]
        step = next(succ, None)
        if step is None:
            dead.add((mask, state))
            stack.pop()
            continue
        i, mask, state = step
        if mask & required == required:
            return LinResult(True, witness=[ops[f[0]] for f in stack[1:]] + [ops[i]])
        if (mask, state) in dead:
            continue
        placed = (mask & required).bit_count()
        if placed > best_placed:
            best_placed, best = placed, (mask, state)
        stack.append((i, mask, state, successors(mask, state)))
    mask, state = best
    return LinResult(False, stuck_ops=[o for i, o in enumerate(ops)
                                       if required >> i & 1 and not mask >> i & 1],
                     stuck_state=state)


# -- text format --------------------------------------------------------
#
#   <seq> <thread> <INV|RES> <INSERT|DELETE|CONTAINS> <key> [<true|false>]

def emit_history(h: History) -> str:
    lines = []
    for e in h.events:
        parts = [str(e.seq), str(e.thread), e.kind.upper(), e.op.upper(), str(e.key)]
        if e.kind == RES:
            parts.append("true" if e.ret else "false")
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_history(text: str) -> History:
    events = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (5, 6):
            raise ValueError("line %d: expected 5 or 6 fields, got %d" % (ln, len(parts)))
        try:
            seq = int(parts[0])
            thread = int(parts[1])
            key = int(parts[4])
        except ValueError:
            raise ValueError("line %d: seq, thread and key must be integers" % ln) from None
        kind = parts[2].lower()
        op = parts[3].lower()
        if kind not in (INV, RES):
            raise ValueError("line %d: expected INV or RES, got %r" % (ln, parts[2]))
        if op not in _OPS:
            raise ValueError("line %d: unknown operation %r" % (ln, parts[3]))
        ret = None
        if kind == RES:
            if len(parts) != 6 or parts[5] not in ("true", "false"):
                raise ValueError("line %d: responses need a true/false value" % ln)
            ret = parts[5] == "true"
        elif len(parts) != 5:
            raise ValueError("line %d: invocations take no return value" % ln)
        events.append(HistoryEvent(seq, thread, kind, op, key, ret))
    return History(events)


# -- structural trace checking ------------------------------------------

class _ShadowNode:
    __slots__ = ("key", "state", "left", "right", "deleted")

    def __init__(self, key, state):
        self.key = key
        self.state = state
        self.left = None     # node ids
        self.right = None
        self.deleted = False


@dataclass
class ObservabilityReport:
    violations: list = field(default_factory=list)   # (event index, message)
    events_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "trace ok: %d events" % self.events_checked
        lines = ["trace BROKEN: %d violation(s)" % len(self.violations)]
        for idx, msg in self.violations[:20]:
            lines.append("  after event %d: %s" % (idx, msg))
        return "\n".join(lines)


def check_observable_correctness(trace) -> ObservabilityReport:
    """Replay a structural trace and validate every prefix.

    ``trace`` is the event list a set's stepping form produced, on a
    tree whose root is node 0 holding ``PLUS_INF``, as ``ConcurrentSet``
    builds it:

    * ``("create", id, key, state)``
    * ``("state", id, new_state)``
    * ``("mark", id)``                    deleted flag raised
    * ``("edge", parent_id, side, child_id_or_None)``

    After each event the reachable shadow nodes must form a search tree
    (single parent, no cycles, strict key bounds), every ROUTING node
    must have two children, and no node that was reachable once and then
    unreachable may be reachable again.  A node marked deleted may
    legally stay reachable for a while, the mark happens under lock
    before the unlink; what must never happen is an edge event that
    hangs it anew, or the reverse, which the resurrection check catches.

    An event that cannot change what a walk finds (``create``, ``mark``,
    ``state`` on an unreached node) reuses the last walk's findings.
    """
    rep = ObservabilityReport()
    root_id = 0
    nodes = {root_id: _ShadowNode(PLUS_INF, DATA)}
    was_reachable = {root_id}
    exited: set = set()

    def walk():
        """One preorder walk from the root: the reachable ids and the
        first value-property or routing violation.  A node reached twice
        ends the walk with reach None (an edge to an unknown id is refused)."""
        reach = set()
        err = None
        stack = [(root_id, MIN_KEY - 1, PLUS_INF + 1)]
        while stack:
            nid, lo, hi = stack.pop()
            if nid in reach:
                return None, "node %d reachable along two paths" % nid
            sh = nodes[nid]
            reach.add(nid)
            if err is None:
                if not lo < sh.key < hi:
                    err = "key %d at node %d outside (%s, %s)" % (sh.key, nid, lo, hi)
                elif sh.state == ROUTING and (sh.left is None or sh.right is None):
                    err = "routing node %d with fewer than two children" % nid
            if sh.right is not None:
                stack.append((sh.right, sh.key, hi))
            if sh.left is not None:
                stack.append((sh.left, lo, sh.key))
        return reach, err

    reach, err, back = {root_id}, None, ()   # what a walk of the bare root finds
    for idx, ev in enumerate(trace):
        tag = ev[0]
        if tag == "create":
            _, nid, key, state = ev
            if nid in nodes:
                rep.violations.append((idx, "node id %d created twice" % nid))
                continue
            nodes[nid] = _ShadowNode(key, state)
        elif tag == "state":
            _, nid, state = ev
            if nid not in nodes:
                rep.violations.append((idx, "state change on unknown node %d" % nid))
                continue
            nodes[nid].state = state
        elif tag == "mark":
            _, nid = ev
            if nid not in nodes:
                rep.violations.append((idx, "deleted mark on unknown node %d" % nid))
                continue
            nodes[nid].deleted = True
        elif tag == "edge":
            _, pid, side, cid = ev
            if pid not in nodes or (cid is not None and cid not in nodes):
                rep.violations.append((idx, "edge event on unknown node"))
                continue
            if cid is not None and nodes[cid].deleted:
                rep.violations.append((idx, "edge to node %d marked deleted" % cid))
            if side == LEFT:
                nodes[pid].left = cid
            elif side == RIGHT:
                nodes[pid].right = cid
            else:
                rep.violations.append((idx, "bad side %r" % (side,)))
                continue
        else:
            rep.violations.append((idx, "unknown trace event %r" % (tag,)))
            continue

        if tag == "edge" or (tag == "state" and nid in reach):
            reach, err = walk()
            if reach is not None:
                back = reach & exited
                exited.update(was_reachable - reach)
                was_reachable.update(reach)
        if err is not None:
            rep.violations.append((idx, err))
        if reach is None:
            rep.events_checked = idx + 1
            return rep
        if back:
            rep.violations.append(
                (idx, "nodes resurrected after leaving the tree: %s"
                 % sorted(back)))
        rep.events_checked = idx + 1
    return rep
