"""Reference lock conditions: the closure factories the set used before
its lock conditions became module-level predicates.

Each factory binds the node and the expected value into a fresh
zero-argument closure.  The differential test in
``test_concurrent_set.py`` holds each predicate of
``cobst.concurrent_set`` to the closure it replaced, on every side, node
state and kind of child.
"""

from cobst.tree_core import LEFT


def edge_ref_cond(node, side, expected):
    if side == LEFT:
        return lambda: node.left is expected and not node.deleted
    return lambda: node.right is expected and not node.deleted


def edge_val_cond(node, side, expected_key):
    if side == LEFT:
        def cond():
            c = node.left
            return c is not None and c.val == expected_key and not node.deleted
    else:
        def cond():
            c = node.right
            return c is not None and c.val == expected_key and not node.deleted
    return cond


def state_cond(node, expected_state):
    return lambda: node.state == expected_state and not node.deleted
