"""Core types for the partially-external binary search tree.

A node is either DATA (its key is in the set) or ROUTING (structural
only, always with exactly two children).  Deletion of a node with two
children just demotes it to ROUTING; routing nodes are physically
unlinked later, when a child deletion leaves them with one child.  The
tree is rooted at a sentinel DATA node holding PLUS_INF, which is never
deleted and compares greater than every client key, so client traffic
always descends into the root's left subtree.

This module keeps everything single-threaded: traversal, the sequential
set operations used as the reference implementation, and structural
validation.  The concurrent operations live in concurrent_set and reuse
the same Node type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .reclaim import POISON
from .rwlock import CondRwLock

__all__ = [
    "PLUS_INF", "MAX_KEY", "MIN_KEY", "LEFT", "RIGHT",
    "DATA", "ROUTING", "Node", "validate_key",
    "traverse", "snapshot_keys", "SequentialBst", "StructureReport",
    "validate_structure",
]

PLUS_INF = 2 ** 63 - 1          # sentinel key of the root, never a client key
MAX_KEY = PLUS_INF - 1
MIN_KEY = -(2 ** 63)

LEFT = 0
RIGHT = 1

# Node states.  Strings keep traces readable.
DATA = "data"
ROUTING = "routing"


def validate_key(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError("key must be an int, got %r" % (v,))
    if v == PLUS_INF:
        raise ValueError("key %d is the internal sentinel and cannot be used" % v)
    if not MIN_KEY <= v <= MAX_KEY:
        raise ValueError("key %d outside the 64-bit signed range" % v)
    return v


def child(self, side: int):
    """``self``'s child on ``side``."""
    return self.left if side == LEFT else self.right


def set_child(self, side: int, node) -> None:
    """Make ``node`` ``self``'s child on ``side``."""
    if side == LEFT:
        self.left = node
    else:
        self.right = node


class Node(CondRwLock):
    """One tree node: the sequential tree's fields, of which only ``val``
    never changes, and the lock word it inherits from ``CondRwLock``,
    whose bits 1 and 2 lock the left and right child edges and the rest
    the state/deleted pair; trace ids live in the set.  Six slots make
    80 B, a block of pymalloc's 80-B size class."""

    __slots__ = ("val", "state", "left", "right", "deleted")

    def __init__(self, val: int, state: str = DATA):
        self.val = val
        self.state = state
        self.left = None
        self.right = None
        self.deleted = False
        self.word = 0

    # the node, whose ``word`` holds its state lock: ``benchmark/selftest.py``
    # passes ``root.state_lock`` as a lock to ``ConcurrentSet._lock``
    state_lock = property(lambda self: self)

    def __repr__(self):
        v = "inf" if self.val == PLUS_INF else str(self.val)
        tag = "D" if self.state == DATA else "R"
        return "<Node %s %s%s>" % (v, tag, " deleted" if self.deleted else "")


def traverse(root: Node, v: int) -> tuple:
    """Walk from the root towards ``v`` without locks and return
    ``(gprev, prev, curr)``.

    Descends left when v is smaller than the current key and right when
    larger, stopping at the first node holding v or at a null child.
    Testing ``v < curr.val`` first makes a left step cost one comparison.
    ``curr`` is that node, or None if the key is absent (then ``prev``
    is the would-be parent).  ``prev`` is never null: the root compares
    greater than every client key, so at least one descent happens.
    """
    gprev = None
    prev = None
    curr = root
    while curr is not None:
        if v < curr.val:
            gprev = prev
            prev = curr
            curr = curr.left
        elif curr.val < v:
            gprev = prev
            prev = curr
            curr = curr.right
        else:
            break
    return gprev, prev, curr


def snapshot_keys(tree) -> list[int]:
    """Sorted keys of a quiescent tree (DATA nodes, sentinel excluded).
    Both sets use it as their ``snapshot_keys`` method."""
    out = []
    stack = [tree.root]
    while stack:
        n = stack.pop()
        if n is None:
            continue
        if n.state == DATA and n.val != PLUS_INF:
            out.append(n.val)
        stack.append(n.left)
        stack.append(n.right)
    out.sort()
    return out


class SequentialBst:
    """Single-threaded partially-external BST set.

    This is the reference implementation: the concurrent set must be
    indistinguishable from it when driven by one thread.  It shares the
    Node type (lock word included, unused here).
    """

    def __init__(self):
        self.root = Node(PLUS_INF)

    @staticmethod
    def _side(parent: Node, v: int) -> int:
        return LEFT if v < parent.val else RIGHT

    def seq_contains(self, v) -> bool:
        validate_key(v)
        curr = traverse(self.root, v)[2]
        return curr is not None and curr.state == DATA

    def seq_insert(self, v) -> bool:
        validate_key(v)
        _, prev, curr = traverse(self.root, v)
        if curr is not None:
            if curr.state == DATA:
                return False
            curr.state = DATA
            return True
        set_child(prev, self._side(prev, v), Node(v))
        return True

    def seq_delete(self, v) -> bool:
        validate_key(v)
        gprev, prev, curr = traverse(self.root, v)
        if curr is None or curr.state != DATA:
            return False
        left, right = curr.left, curr.right
        if left is not None and right is not None:
            # both children present: keep the node for routing
            curr.state = ROUTING
            return True
        if left is not None or right is not None:
            # exactly one child: splice it into our parent's slot
            lone = left if left is not None else right
            set_child(prev, self._side(prev, v), lone)
            curr.deleted = True
            return True
        # leaf; the root sentinel is DATA and never demoted
        if prev.state == DATA:
            set_child(prev, self._side(prev, v), None)
            curr.deleted = True
            return True
        # leaf under a routing parent: the parent would be left with one
        # child, so both go and the sibling moves up to the grandparent
        sibling = prev.right if self._side(prev, v) == LEFT else prev.left
        set_child(gprev, self._side(gprev, prev.val), sibling)
        prev.deleted = True
        curr.deleted = True
        return True

    # convenience aliases so the sequential tree satisfies the same
    # duck-typed set interface as the concurrent one
    contains = seq_contains
    insert = seq_insert
    delete = seq_delete

    snapshot_keys = snapshot_keys


@dataclass
class StructureReport:
    problems: list[str] = field(default_factory=list)
    node_count: int = 0
    data_count: int = 0
    held_locks: int = 0     # held state locks and edge bits; ``ok`` ignores them

    @property
    def ok(self) -> bool:
        return not self.problems

    def __str__(self):
        if self.ok:
            return "structure ok: %d nodes, %d data" % (self.node_count, self.data_count)
        return "structure BROKEN:\n  " + "\n  ".join(self.problems)


def validate_structure(tree) -> StructureReport:
    """Check every structural invariant of a quiescent tree.

    ``tree`` is anything with a ``root`` node (sequential or concurrent
    set).  Verified: the root is the undeleted PLUS_INF DATA sentinel
    with an empty right subtree; reachable nodes form a tree (no sharing,
    no cycles); the value property holds with strict bounds; routing
    nodes have exactly two children; no reachable node is marked deleted
    or reclaimed (``left`` is ``POISON``); and no node of ``tree.unlinked``
    is reachable.  The walk also counts, in ``held_locks``, the state locks
    and edge bits left held on reachable and unlinked nodes.
    """
    rep = StructureReport()
    root = tree.root
    if root.val != PLUS_INF:
        rep.problems.append("root key is %r, not the sentinel" % (root.val,))
    if root.state != DATA:
        rep.problems.append("root is not a DATA node")
    if root.deleted:
        rep.problems.append("root is marked deleted")
    if root.right is not None:
        rep.problems.append("root has a right child; all client keys sort below the sentinel")

    seen = set()
    stack = [(root, MIN_KEY - 1, PLUS_INF + 1)]     # preorder, left first
    while stack:
        node, lo, hi = stack.pop()
        nid = id(node)
        if nid in seen:
            rep.problems.append("node %r reachable twice (cycle or shared child)" % (node,))
            continue
        seen.add(nid)
        rep.node_count += 1
        rep.held_locks += _held(node)
        if node.left is POISON:
            rep.problems.append("reclaimed node %r still reachable" % (node,))
            continue
        if not lo < node.val < hi:
            rep.problems.append(
                "value property violated at %r: %d not in (%d, %d)"
                % (node, node.val, lo, hi))
        if node.deleted:
            rep.problems.append("deleted node %r still reachable" % (node,))
        if node.state == DATA:
            rep.data_count += 1
        elif node.state == ROUTING:
            if node.left is None or node.right is None:
                rep.problems.append("routing node %r has fewer than two children" % (node,))
        else:
            rep.problems.append("node %r has unknown state %r" % (node, node.state))
        if node.right is not None:
            stack.append((node.right, node.val, hi))
        if node.left is not None:
            stack.append((node.left, lo, node.val))

    for node in getattr(tree, "unlinked", ()):
        if id(node) in seen:
            rep.problems.append("unlinked node %r became reachable again" % (node,))
        else:
            rep.held_locks += _held(node)
    return rep


def _held(node) -> int:
    return (node.word & 1) + (node.word >> 1 & 1) + (node.word > 3)
