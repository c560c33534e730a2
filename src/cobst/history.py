"""Histories of set operations and the linearizability checker.

A history is a sequence of invocation and response events, each stamped
with a globally unique, monotonically increasing sequence number.  The
checker answers whether the history could have been produced by a
single-threaded set: it searches for a total order of the operations
that respects real time (an operation that responded before another was
invoked must come first) and replays correctly against the sequential
set semantics.

Incomplete operations (invoked, never responded) are handled by
completion enumeration before the search: a pending ``contains`` can
simply be dropped (a read that never took effect), while a pending
``insert`` or ``delete`` may or may not have taken effect, so both the
dropped and the took-effect-returning-true variants are tried.

The search itself is exponential in the worst case, so the checker
refuses histories beyond a configurable operation count instead of
silently burning CPU.  A brute-force permutation checker over tiny
histories is also provided; it exists to cross-validate the real
checker, not for production use.

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

from .tree_core import LEFT, MIN_KEY, PLUS_INF, RIGHT, DATA, ROUTING

__all__ = [
    "HistoryEvent", "History", "OpRecord", "HistoryRecorder",
    "HistoryTooLargeError", "LinResult",
    "complete_history", "set_type_step", "is_linearizable",
    "linearizable_by_enumeration",
    "emit_history", "parse_history",
    "ObservabilityReport", "check_observable_correctness",
]

INV = "inv"
RES = "res"

_OPS = ("insert", "delete", "contains")


class HistoryTooLargeError(ValueError):
    """The checker's explicit refusal for histories beyond its bound."""


@dataclass(frozen=True)
class HistoryEvent:
    seq: int
    thread: int
    kind: str          # "inv" | "res"
    op: str            # "insert" | "delete" | "contains"
    key: int
    ret: bool | None   # None on invocations


@dataclass(frozen=True)
class OpRecord:
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


class History:
    """An event sequence plus the paired-up operation view.

    Construction validates well-formedness: per thread, invocations and
    responses strictly alternate and each response matches the op and
    key of the invocation it answers.
    """

    def __init__(self, events):
        self.events = sorted(events, key=lambda e: e.seq)
        seen = set()
        for e in self.events:
            if e.seq in seen:
                raise ValueError("duplicate sequence number %d" % e.seq)
            seen.add(e.seq)
        self._ops = self._pair_up()

    def _pair_up(self):
        open_by_thread: dict = {}
        ops = []
        for e in self.events:
            if e.kind == INV:
                if e.op not in _OPS:
                    raise ValueError("unknown operation %r" % (e.op,))
                if open_by_thread.get(e.thread) is not None:
                    raise ValueError(
                        "thread %r invokes while an operation is open" % (e.thread,))
                rec = OpRecord(len(ops), e.thread, e.op, e.key, None, e.seq, None)
                open_by_thread[e.thread] = rec
                ops.append(rec)
            elif e.kind == RES:
                rec = open_by_thread.get(e.thread)
                if rec is None:
                    raise ValueError(
                        "thread %r responds without an open operation" % (e.thread,))
                if rec.op != e.op or rec.key != e.key:
                    raise ValueError(
                        "thread %r response %s(%s) does not match open %s(%s)"
                        % (e.thread, e.op, e.key, rec.op, rec.key))
                if not isinstance(e.ret, bool):
                    raise ValueError("response without a boolean return")
                ops[rec.index] = OpRecord(rec.index, rec.thread, rec.op, rec.key,
                                          e.ret, rec.inv_seq, e.seq)
                open_by_thread[e.thread] = None
            else:
                raise ValueError("unknown event kind %r" % (e.kind,))
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
        return tuple((e.thread, e.kind, e.op, e.key, e.ret) for e in self.events)


class HistoryRecorder:
    """Thread-safe event sink.

    Callers record each operation's interval: ``invoke`` just before
    calling the set, ``respond`` with its result just after.
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
        self.events.append(HistoryEvent(next(self._seq), thread, INV, op, key, None))

    def respond(self, thread, op, key, ret) -> None:
        self.events.append(HistoryEvent(next(self._seq), thread, RES, op, key, ret))

    def history(self) -> History:
        return History(list(self.events))


# -- completion --------------------------------------------------------

_MAX_PENDING_UPDATES = 12


def complete_history(h: History) -> list[History]:
    """All ways to resolve the pending operations of ``h``.

    Pending reads are dropped.  Each pending update contributes two
    variants: dropped (it never took effect) and completed with a true
    response (it took effect but the response was never observed).  The
    false-returning completion adds nothing a drop does not already
    cover, since a false update leaves the set unchanged.
    """
    pend = h.pending_ops()
    updates = [o for o in pend if o.op != "contains"]
    if len(updates) > _MAX_PENDING_UPDATES:
        raise HistoryTooLargeError(
            "%d pending updates means %d completions; refusing"
            % (len(updates), 2 ** len(updates)))
    drop_seqs_base = {o.inv_seq for o in pend if o.op == "contains"}
    out = []
    next_seq = (h.events[-1].seq + 1) if h.events else 0
    for mask in range(2 ** len(updates)):
        drop = set(drop_seqs_base)
        extra = []
        seq = next_seq
        for i, o in enumerate(updates):
            if mask & (1 << i):
                extra.append(HistoryEvent(seq, o.thread, RES, o.op, o.key, True))
                seq += 1
            else:
                drop.add(o.inv_seq)
        events = [e for e in h.events
                  if not (e.kind == INV and e.seq in drop)] + extra
        out.append(History(events))
    return out


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
    # a legal sequential order of the (completed) operations, when ok
    witness: list | None = None
    # on failure: the pending ops at the deepest frontier the search
    # reached, with the abstract state there; the smallest point where
    # every continuation is inconsistent
    stuck_ops: list | None = None
    stuck_state: frozenset | None = None
    completions_tried: int = 0

    def __str__(self):
        if self.ok:
            lines = ["LINEARIZABLE"]
            for o in self.witness or ():
                lines.append("  %s(%d) -> %s  [thread %s]"
                             % (o.op, o.key, str(o.ret).lower(), o.thread))
            return "\n".join(lines)
        lines = ["NOT LINEARIZABLE (%d completion(s) tried)" % self.completions_tried]
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

    Backtracking search over operation orders with two prunings: only
    operations whose invocation precedes every unfinished operation's
    response are eligible next (real-time order), and (done-set,
    abstract-state) pairs already proven dead are memoized.  Histories
    with more than ``max_ops`` operations raise HistoryTooLargeError.
    """
    initial = frozenset(initial)
    completions = complete_history(h)
    best_depth = -1
    best_frontier: tuple = ((), initial)
    for tried, comp in enumerate(completions, start=1):
        ops = comp.complete_ops()
        if len(ops) > max_ops:
            raise HistoryTooLargeError(
                "history has %d operations, checker bound is %d"
                % (len(ops), max_ops))
        ok, witness, depth, frontier = _search(ops, initial)
        if ok:
            return LinResult(True, witness=witness, completions_tried=tried)
        if depth > best_depth:
            best_depth = depth
            best_frontier = frontier
    return LinResult(False, stuck_ops=list(best_frontier[0]),
                     stuck_state=best_frontier[1],
                     completions_tried=len(completions))


def _search(ops, initial):
    n = len(ops)
    if n == 0:
        return True, [], 0, ((), initial)
    inv = [o.inv_seq for o in ops]
    res = [o.res_seq if o.res_seq is not None else math.inf for o in ops]
    full = (1 << n) - 1
    dead: set = set()
    path: list = []
    best = {"depth": -1, "frontier": ((), initial)}

    def dfs(mask, state):
        if mask == full:
            return True
        key = (mask, state)
        if key in dead:
            return False
        depth = mask.bit_count()
        if depth > best["depth"]:
            pending = tuple(ops[i] for i in range(n) if not mask & (1 << i))
            best["depth"] = depth
            best["frontier"] = (pending, state)
        min_res = min(res[i] for i in range(n) if not mask & (1 << i))
        for i in range(n):
            bit = 1 << i
            if mask & bit or inv[i] > min_res:
                continue
            nxt = set_type_step(state, ops[i].op, ops[i].key, ops[i].ret)
            if nxt is None:
                continue
            path.append(ops[i])
            if dfs(mask | bit, nxt):
                return True
            path.pop()
        dead.add(key)
        return False

    ok = dfs(0, initial)
    return ok, list(path), best["depth"], best["frontier"]


def linearizable_by_enumeration(h: History, initial=frozenset(), *,
                                max_ops: int = 8) -> bool:
    """Brute-force oracle: try every permutation of every completion.

    Exists to cross-check ``is_linearizable`` on tiny histories.
    """
    initial = frozenset(initial)
    for comp in complete_history(h):
        ops = comp.complete_ops()
        if len(ops) > max_ops:
            raise HistoryTooLargeError(
                "enumeration oracle refuses %d > %d operations"
                % (len(ops), max_ops))
        for perm in itertools.permutations(ops):
            pos = {o.index: i for i, o in enumerate(perm)}
            if any(a.res_seq is not None and a.res_seq < b.inv_seq
                   and pos[a.index] > pos[b.index]
                   for a in ops for b in ops):
                continue
            state = initial
            for o in perm:
                state = set_type_step(state, o.op, o.key, o.ret)
                if state is None:
                    break
            else:
                return True
    return False


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
    before the unlink; what must never happen is the reverse, which the
    resurrection check catches.
    """
    rep = ObservabilityReport()
    root_id = 0
    nodes = {root_id: _ShadowNode(PLUS_INF, DATA)}
    was_reachable = {root_id}
    exited: set = set()

    def reachable():
        seen_set = set()
        stack = [root_id]
        while stack:
            nid = stack.pop()
            if nid is None:
                continue
            if nid in seen_set:
                return None, "node %d reachable along two paths" % nid
            if nid not in nodes:
                return None, "edge points at unknown node %d" % nid
            seen_set.add(nid)
            sh = nodes[nid]
            stack.append(sh.left)
            stack.append(sh.right)
        return seen_set, None

    def value_ok(nid, lo, hi):
        if nid is None:
            return None
        sh = nodes[nid]
        if not lo < sh.key < hi:
            return "key %d at node %d outside (%s, %s)" % (sh.key, nid, lo, hi)
        if sh.state == ROUTING and (sh.left is None or sh.right is None):
            return "routing node %d with fewer than two children" % nid
        return value_ok(sh.left, lo, sh.key) or value_ok(sh.right, sh.key, hi)

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

        reach, err = reachable()
        if err is not None:
            rep.violations.append((idx, err))
            rep.events_checked = idx + 1
            return rep
        err = value_ok(root_id, MIN_KEY - 1, PLUS_INF + 1)
        if err:
            rep.violations.append((idx, err))
        back = reach & exited
        if back:
            rep.violations.append(
                (idx, "nodes resurrected after leaving the tree: %s"
                 % sorted(back)))
        exited.update(was_reachable - reach)
        was_reachable.update(reach)
        rep.events_checked = idx + 1
    return rep
