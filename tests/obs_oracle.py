"""Reference trace checker.

This is ``history.check_observable_correctness`` as it was before it
reused its last walk after events that cannot change the walk's result
(``create``, ``mark``, and ``state`` on a node the walk did not reach):
it walks the reachable shadow tree after every event.  The differential
test in ``test_history.py`` holds the current checker to the same
violations, in the same order, and the same count of events checked.
"""

from cobst.history import ObservabilityReport, _ShadowNode
from cobst.tree_core import DATA, LEFT, MIN_KEY, PLUS_INF, RIGHT, ROUTING


def reference_check_observable_correctness(trace) -> ObservabilityReport:
    """``check_observable_correctness`` as it was: one walk per event."""
    rep = ObservabilityReport()
    root_id = 0
    nodes = {root_id: _ShadowNode(PLUS_INF, DATA)}
    was_reachable = {root_id}
    exited: set = set()

    def walk():
        """One preorder walk from the root: the reachable ids and the
        first value-property or routing violation.  A node reached twice
        or an edge to an unknown node ends the walk with reach None."""
        reach = set()
        err = None
        stack = [(root_id, MIN_KEY - 1, PLUS_INF + 1)]
        while stack:
            nid, lo, hi = stack.pop()
            if nid in reach:
                return None, "node %d reachable along two paths" % nid
            sh = nodes.get(nid)
            if sh is None:
                return None, "edge points at unknown node %d" % nid
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

        reach, err = walk()
        if err is not None:
            rep.violations.append((idx, err))
        if reach is None:
            rep.events_checked = idx + 1
            return rep
        back = reach & exited
        if back:
            rep.violations.append(
                (idx, "nodes resurrected after leaving the tree: %s"
                 % sorted(back)))
        exited.update(was_reachable - reach)
        was_reachable.update(reach)
        rep.events_checked = idx + 1
    return rep
