"""Output checks computed apart from the program under test.

Each check takes what the benchmark recorded and an independent
reference (a plain membership table, the benchmark's own walk of the
tree, replay of a witness order) and returns the problems it found.
They use cobst's node-state constants and history types, but none of
its operations; ``checker_selftest`` exercises whichever checker it is
given.
"""

from __future__ import annotations

import random

from cobst import history
from cobst.tree_core import DATA, PLUS_INF, ROUTING

__all__ = [
    "CONTAINS", "INSERT", "DELETE", "RAISED", "OP_NAMES",
    "replay_segment", "walk_tree", "conservation", "witness_problems",
    "checker_selftest",
]

# op codes used in the benchmark's streams and result buffers
CONTAINS, INSERT, DELETE = 0, 1, 2
OP_NAMES = ("contains", "insert", "delete")
RAISED = 2          # result code of a call that raised


def replay_segment(member: bytearray, ops, keys, lo: int, hi: int,
                   res) -> int:
    """Replay ``ops[lo:hi]`` against the membership table ``member`` (one
    byte per key, the sequential reference set) and count results that
    differ from the recorded ``res[0:hi-lo]``.  Updates ``member``."""
    bad = 0
    j = 0
    for i in range(lo, hi):
        k = keys[i]
        present = member[k]
        op = ops[i]
        if op == CONTAINS:
            want = present
        elif op == INSERT:
            want = 1 - present
            member[k] = 1
        else:
            want = present
            member[k] = 0
        if res[j] != want:
            bad += 1
        j += 1
    return bad


class WalkReport:
    """What the benchmark's own walk of ``root`` found."""

    def __init__(self):
        self.keys: list[int] = []      # DATA keys in search order
        self.problems: list[str] = []
        self.nodes = 0
        self.routing = 0
        self.depth_sum = 0             # over DATA nodes, sentinel at depth 0
        self.max_depth = 0             # over all nodes

    @property
    def mean_depth(self) -> float:
        return self.depth_sum / len(self.keys) if self.keys else 0.0


def walk_tree(root) -> WalkReport:
    """In-order walk from ``root`` with key bounds.

    Reads only ``val``, ``state``, ``left`` and ``right``.  Confirms the
    search order (every key strictly inside the bounds its ancestors
    give it), that no node is reached twice, and collects the DATA keys
    in order plus the shape figures.
    """
    rep = WalkReport()
    seen = set()
    # (node, lo, hi, depth, expanded)
    stack = [(root, None, None, 0, False)]
    while stack:
        node, lo, hi, depth, expanded = stack.pop()
        if node is None:
            continue
        if expanded:
            if node.state == DATA and node.val != PLUS_INF:
                rep.keys.append(node.val)
                rep.depth_sum += depth
            continue
        if id(node) in seen:
            rep.problems.append("node %r reached twice" % (node.val,))
            continue
        seen.add(id(node))
        rep.nodes += 1
        if node.state == ROUTING:
            rep.routing += 1
        if depth > rep.max_depth:
            rep.max_depth = depth
        v = node.val
        if (lo is not None and v <= lo) or (hi is not None and v >= hi):
            rep.problems.append("key %r outside (%r, %r)" % (v, lo, hi))
        stack.append((node.right, v, hi, depth + 1, False))
        stack.append((node, lo, hi, depth, True))
        stack.append((node.left, lo, v, depth + 1, False))
    if any(a >= b for a, b in zip(rep.keys, rep.keys[1:])):
        rep.problems.append("DATA keys are not strictly increasing in order")
    return rep


def conservation(initial: bytearray, ins_ok, del_ok, final_keys) -> list[int]:
    """Per-key conservation for concurrent runs: for every key,
    initial + successful inserts - successful deletes must equal the
    final membership, and that value must be 0 or 1.  Returns the keys
    that break it."""
    final = bytearray(len(initial))
    for k in final_keys:
        final[k] = 1
    return [k for k in range(len(initial))
            if initial[k] + ins_ok[k] - del_ok[k] != final[k]]


def witness_problems(lin, ops, final_keys) -> list[str]:
    """Replay a checker's witness order on an empty set.

    ``lin`` is a ``LinResult``; ``ops`` the completed operations of the
    recorded history; ``final_keys`` what the run left in the tree.  The
    witness must order every recorded operation once, reproduce every
    recorded return value and end in ``final_keys``.
    """
    if not lin.ok:
        return ["checker rejected the history"]
    witness = lin.witness or []
    probs = []
    if sorted(o.index for o in witness) != sorted(o.index for o in ops):
        probs.append("witness does not order every operation exactly once")
    recorded = {o.index: o.ret for o in ops}
    state: set = set()
    for o in witness:
        if o.op == "contains":
            got = o.key in state
        elif o.op == "insert":
            got = o.key not in state
            state.add(o.key)
        else:
            got = o.key in state
            state.discard(o.key)
        if got != o.ret or recorded.get(o.index) != o.ret:
            probs.append("%s(%d) returns %s in witness order, recorded %s"
                         % (o.op, o.key, got, recorded.get(o.index)))
    if sorted(state) != sorted(final_keys):
        probs.append("witness ends in %s, tree holds %s"
                     % (sorted(state), sorted(final_keys)))
    return probs


def _sequential_history(rng: random.Random, n_ops: int):
    """A history with no overlapping operations, returns fixed by replay
    on a plain set; also returns the index of one response to flip."""
    Event = history.HistoryEvent
    state: set = set()
    events = []
    seq = 0
    for _ in range(n_ops):
        op = rng.choice(OP_NAMES)
        key = rng.randrange(6)
        if op == "contains":
            ret = key in state
        elif op == "insert":
            ret = key not in state
            state.add(key)
        else:
            ret = key in state
            state.discard(key)
        t = rng.randrange(3)
        events.append(Event(seq, t, history.INV, op, key, None))
        events.append(Event(seq + 1, t, history.RES, op, key, ret))
        seq += 2
    return events, 2 * rng.randrange(n_ops) + 1


def checker_selftest(is_linearizable, seed: int,
                     count: int = 200) -> list[str]:
    """Seeded sequential histories must be accepted; each with one
    response flipped must be rejected.  Returns the problems."""
    rng = random.Random("%s:checker-selftest" % seed)
    probs = []
    for i in range(count):
        events, flip = _sequential_history(rng, rng.randint(1, 12))
        if not is_linearizable(history.History(events)).ok:
            probs.append("sequential history %d rejected" % i)
        e = events[flip]
        events[flip] = history.HistoryEvent(e.seq, e.thread, e.kind, e.op,
                                            e.key, not e.ret)
        if is_linearizable(history.History(events)).ok:
            probs.append("history %d with a flipped return accepted" % i)
    return probs
