"""Brute-force linearizability oracle: ``complete_history`` and
``linearizable_by_enumeration``, with which ``test_history.py`` and
criterion 3 of ``test_acceptance.py`` cross-check ``is_linearizable``."""

import itertools

from cobst.history import (INV, RES, History, HistoryEvent,
                           HistoryTooLargeError, set_type_step)

_MAX_PENDING_UPDATES = 12


def complete_history(h: History) -> list[History]:
    """All ways to resolve the pending operations of ``h``, for the oracle.

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
