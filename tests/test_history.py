"""History recording, the linearizability checker, its brute-force
cross-check, the text format, and structural trace validation."""

import random
import sys
import threading

import pytest

from cobst.concurrent_set import ConcurrentSet
from cobst.history import (INV, RES, History, HistoryEvent, HistoryRecorder,
                           HistoryTooLargeError, OpRecord, check_observable_correctness,
                           emit_history, is_linearizable, parse_history,
                           set_type_step)
from cobst.tree_core import DATA, LEFT, RIGHT, ROUTING

from histgen import corrupt_history, make_linearizable_history
from lin_oracle import complete_history, linearizable_by_enumeration


def ev(seq, thread, kind, op, key, ret=None):
    return HistoryEvent(seq, thread, kind, op, key, ret)


def seq_history(*ops):
    """ops: (thread, op, key, ret); each invocation immediately answered."""
    events = []
    for i, (t, op, key, ret) in enumerate(ops):
        events.append(ev(2 * i, t, INV, op, key))
        events.append(ev(2 * i + 1, t, RES, op, key, ret))
    return History(events)


# -- recording and well-formedness -----------------------------------------

def test_recorder_produces_well_formed_history():
    rec = HistoryRecorder()
    rec.invoke(0, "insert", 5)
    rec.invoke(1, "contains", 5)
    rec.respond(0, "insert", 5, True)
    rec.respond(1, "contains", 5, False)
    h = rec.history()
    assert len(h) == 4
    assert [o.op for o in h.ops()] == ["insert", "contains"]
    assert not h.pending_ops()


def test_history_sorts_events_by_seq():
    events = [ev(1, 0, RES, "insert", 5, True), ev(0, 0, INV, "insert", 5)]
    h = History(events)
    assert [e.kind for e in h.events] == [INV, RES]


def test_history_rejects_duplicate_seq():
    with pytest.raises(ValueError):
        History([ev(0, 0, INV, "insert", 5), ev(0, 0, RES, "insert", 5, True)])


def test_history_rejects_double_invocation():
    with pytest.raises(ValueError):
        History([ev(0, 0, INV, "insert", 5), ev(1, 0, INV, "insert", 6)])


def test_history_rejects_orphan_response():
    with pytest.raises(ValueError):
        History([ev(0, 0, RES, "insert", 5, True)])


def test_history_rejects_mismatched_response():
    with pytest.raises(ValueError):
        History([ev(0, 0, INV, "insert", 5), ev(1, 0, RES, "delete", 5, True)])
    with pytest.raises(ValueError):
        History([ev(0, 0, INV, "insert", 5), ev(1, 0, RES, "insert", 6, True)])


def test_history_rejects_non_boolean_return():
    with pytest.raises(ValueError):
        History([ev(0, 0, INV, "insert", 5), ev(1, 0, RES, "insert", 5, None)])


def test_history_rejects_unknown_op_and_kind():
    with pytest.raises(ValueError):
        History([ev(0, 0, INV, "fetch", 5)])
    with pytest.raises(ValueError):
        History([ev(0, 0, "ack", "insert", 5)])


def test_pending_ops_view():
    h = History([ev(0, 0, INV, "insert", 5),
                 ev(1, 1, INV, "contains", 5),
                 ev(2, 1, RES, "contains", 5, False)])
    assert [o.op for o in h.pending_ops()] == ["insert"]
    assert [o.op for o in h.complete_ops()] == ["contains"]


def test_history_equality_ignores_seq_values():
    a = seq_history((0, "insert", 5, True))
    b = History([ev(10, 0, INV, "insert", 5), ev(20, 0, RES, "insert", 5, True)])
    assert a == b
    assert hash(a) == hash(b)


def test_record_contract():
    e = HistoryEvent(3, 1, INV, "insert", 5, None)
    o = OpRecord(0, 1, "insert", 5, True, 3, 4)
    assert repr(e) == ("HistoryEvent(seq=3, thread=1, kind='inv', op='insert', "
                       "key=5, ret=None)")
    assert repr(o) == ("OpRecord(index=0, thread=1, op='insert', key=5, ret=True, "
                       "inv_seq=3, res_seq=4)")
    for rec, name in ((e, "seq"), (e, "ret"), (o, "ret"), (o, "res_seq")):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
    assert {e, HistoryEvent(3, 1, INV, "insert", 5, None)} == {e}
    assert {o, OpRecord(0, 1, "insert", 5, True, 3, 4)} == {o}
    assert not o.pending

    # an operation without a response: pending, no return value; the
    # checker may list it in its witness as an update that took effect
    h = History([e, ev(4, 2, INV, "contains", 5), ev(5, 2, RES, "contains", 5, True)])
    pend, read = h.ops()
    assert pend == OpRecord(0, 1, "insert", 5, None, 3, None)
    assert pend.pending and pend.ret is None
    assert not read.pending and read.ret is True
    r = is_linearizable(h)
    assert r.ok
    assert [(w.op, w.ret, w.pending) for w in r.witness] == [
        ("insert", True, True), ("contains", True, False)]

    # equality and hashing see the events, not their seq values
    b = History([ev(30, 1, INV, "insert", 5), ev(41, 2, INV, "contains", 5),
                 ev(52, 2, RES, "contains", 5, True)])
    assert h == b and hash(h) == hash(b)
    assert h != History([ev(3, 2, INV, "insert", 5), ev(4, 1, INV, "contains", 5),
                         ev(5, 1, RES, "contains", 5, True)])


def test_recorder_is_thread_safe_without_a_lock():
    threads, pairs = 4, 2000
    rec = HistoryRecorder()
    start = threading.Barrier(threads)

    def worker(tid):
        start.wait(timeout=30)
        for k in range(pairs):
            rec.invoke(tid, "insert", k)
            rec.respond(tid, "insert", k, k % 2 == 0)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)      # switch threads often
    try:
        ts = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    n = 2 * threads * pairs
    assert sorted(e.seq for e in rec.events) == list(range(n))
    h = rec.history()
    assert len(h) == n and not h.pending_ops()
    for tid in range(threads):
        mine = [o for o in h.ops() if o.thread == tid]
        assert [o.key for o in mine] == list(range(pairs))
        assert [o.ret for o in mine] == [k % 2 == 0 for k in range(pairs)]


# -- completion enumeration ----------------------------------------------------

def test_complete_history_of_complete_history_is_identity():
    h = seq_history((0, "insert", 5, True))
    comps = complete_history(h)
    assert comps == [h]


def test_pending_contains_is_dropped():
    h = History([ev(0, 0, INV, "contains", 5)])
    comps = complete_history(h)
    assert len(comps) == 1
    assert len(comps[0]) == 0


def test_pending_update_enumerates_both_choices():
    h = History([ev(0, 0, INV, "insert", 5)])
    comps = complete_history(h)
    assert len(comps) == 2
    sizes = sorted(len(c.complete_ops()) for c in comps)
    assert sizes == [0, 1]
    completed = next(c for c in comps if c.complete_ops())
    assert completed.complete_ops()[0].ret is True


def test_two_pending_updates_give_four_completions():
    h = History([ev(0, 0, INV, "insert", 5), ev(1, 1, INV, "delete", 5)])
    assert len(complete_history(h)) == 4


def test_completion_bound_is_enforced():
    events = [ev(i, i, INV, "insert", i) for i in range(13)]
    with pytest.raises(HistoryTooLargeError):
        complete_history(History(events))


# -- sequential set semantics -----------------------------------------------------

def test_set_type_step_insert():
    assert set_type_step(frozenset(), "insert", 5, True) == {5}
    assert set_type_step(frozenset({5}), "insert", 5, True) is None
    assert set_type_step(frozenset({5}), "insert", 5, False) == {5}
    assert set_type_step(frozenset(), "insert", 5, False) is None


def test_set_type_step_delete():
    assert set_type_step(frozenset({5}), "delete", 5, True) == frozenset()
    assert set_type_step(frozenset(), "delete", 5, True) is None
    assert set_type_step(frozenset(), "delete", 5, False) == frozenset()


def test_set_type_step_contains():
    assert set_type_step(frozenset({5}), "contains", 5, True) == {5}
    assert set_type_step(frozenset({5}), "contains", 5, False) is None
    assert set_type_step(frozenset(), "contains", 5, False) == frozenset()


def test_set_type_step_unknown_op():
    with pytest.raises(ValueError):
        set_type_step(frozenset(), "swap", 5, True)


# -- the checker ---------------------------------------------------------------------

def test_sequential_run_linearizes():
    h = seq_history((0, "insert", 1, True), (0, "contains", 1, True),
                    (0, "delete", 1, True), (0, "contains", 1, False))
    r = is_linearizable(h)
    assert r.ok
    assert [o.op for o in r.witness] == ["insert", "contains", "delete", "contains"]
    assert "LINEARIZABLE" in str(r)


def test_two_sequential_true_inserts_do_not_linearize():
    h = seq_history((0, "insert", 1, True), (1, "insert", 1, True))
    r = is_linearizable(h)
    assert not r.ok
    assert "NOT LINEARIZABLE" in str(r)
    assert r.stuck_ops


def test_overlapping_contains_false_with_insert_true():
    h = History([ev(0, 0, INV, "insert", 1),
                 ev(1, 1, INV, "contains", 1),
                 ev(2, 0, RES, "insert", 1, True),
                 ev(3, 1, RES, "contains", 1, True)])
    assert is_linearizable(h).ok
    h2 = History([ev(0, 0, INV, "insert", 1),
                  ev(1, 1, INV, "contains", 1),
                  ev(2, 0, RES, "insert", 1, True),
                  ev(3, 1, RES, "contains", 1, False)])
    assert is_linearizable(h2).ok    # the read may linearize first


def test_non_overlapping_order_is_binding():
    # insert(1) fully precedes contains(1); a false read cannot linearize
    h = History([ev(0, 0, INV, "insert", 1),
                 ev(1, 0, RES, "insert", 1, True),
                 ev(2, 1, INV, "contains", 1),
                 ev(3, 1, RES, "contains", 1, False)])
    assert not is_linearizable(h).ok


def test_initial_state_is_honoured():
    h = seq_history((0, "delete", 5, True))
    assert not is_linearizable(h).ok
    assert is_linearizable(h, initial={5}).ok


def test_twin_deletes_with_interleaved_insert():
    # both deletes return true: legal when the insert linearizes between
    h = History([ev(0, 0, INV, "delete", 3),
                 ev(1, 1, INV, "delete", 3),
                 ev(2, 2, INV, "insert", 3),
                 ev(3, 1, RES, "delete", 3, True),
                 ev(4, 2, RES, "insert", 3, True),
                 ev(5, 0, RES, "delete", 3, True)])
    assert is_linearizable(h, initial={3}).ok


def test_pending_update_may_be_taken_as_effective():
    # the insert never responded, yet the read saw the key: only the
    # completed-true variant of the insert explains it
    h = History([ev(0, 0, INV, "insert", 7),
                 ev(1, 1, INV, "contains", 7),
                 ev(2, 1, RES, "contains", 7, True)])
    assert is_linearizable(h).ok


def test_witness_replays_against_the_type():
    h = History([ev(0, 0, INV, "insert", 1),
                 ev(1, 1, INV, "delete", 1),
                 ev(2, 0, RES, "insert", 1, True),
                 ev(3, 1, RES, "delete", 1, True)])
    r = is_linearizable(h)
    assert r.ok
    state = frozenset()
    for o in r.witness:
        state = set_type_step(state, o.op, o.key, o.ret)
        assert state is not None


def test_size_bound_raises_instead_of_guessing():
    ops = [(0, "insert", i, True) for i in range(25)]
    with pytest.raises(HistoryTooLargeError):
        is_linearizable(seq_history(*ops))
    # the bound is configurable
    assert is_linearizable(seq_history(*ops), max_ops=25).ok


def test_bound_counts_the_pending_updates_the_search_may_place():
    ops = [(0, "insert", i, True) for i in range(24)]
    events = list(seq_history(*ops).events) + [ev(48, 1, INV, "insert", 99)]
    with pytest.raises(HistoryTooLargeError):
        is_linearizable(History(events))
    assert is_linearizable(History(events), max_ops=25).ok


def test_thirteen_pending_inserts_are_decided():
    pending = [ev(i, i, INV, "insert", i) for i in range(13)]
    seen = History(pending + [ev(13, 13, INV, "contains", 5),
                              ev(14, 13, RES, "contains", 5, True)])
    r = is_linearizable(seen)
    assert r.ok
    assert [(o.op, o.key) for o in r.witness if not o.pending] == [("contains", 5)]
    assert ("insert", 5) in [(o.op, o.key) for o in r.witness if o.pending]
    never = History(pending + [ev(13, 13, INV, "contains", 13),
                               ev(14, 13, RES, "contains", 13, True)])
    r = is_linearizable(never)
    assert not r.ok
    assert [(o.op, o.key) for o in r.stuck_ops] == [("contains", 13)]


def test_enumeration_oracle_bound():
    ops = [(0, "insert", i, True) for i in range(9)]
    with pytest.raises(HistoryTooLargeError):
        linearizable_by_enumeration(seq_history(*ops))


# -- checker vs oracle on random histories ----------------------------------------

def test_checker_agrees_with_permutation_oracle():
    rng = random.Random(42)
    disagreements = []
    for i in range(200):
        h = make_linearizable_history(rng)
        fast = is_linearizable(h).ok
        slow = linearizable_by_enumeration(h)
        if fast != slow:
            disagreements.append((i, emit_history(h)))
        assert fast, "constructed history must linearize:\n" + emit_history(h)
    assert disagreements == []


def test_corrupted_histories_are_all_detected():
    rng = random.Random(43)
    for i in range(120):
        h = corrupt_history(rng, make_linearizable_history(rng))
        r = is_linearizable(h)
        assert not r.ok, "corruption escaped:\n" + emit_history(h)
        assert not linearizable_by_enumeration(h)


def test_checker_agrees_with_oracle_on_mixed_verdicts():
    # one flipped return makes most histories non-linearizable; cutting
    # half of them at a random event leaves operations pending, which the
    # search handles inline and the oracle by completion enumeration
    rng = random.Random(7)
    verdicts = []
    for _ in range(1000):
        events = list(make_linearizable_history(rng, threads=3, max_ops=7).events)
        responses = [i for i, e in enumerate(events) if e.kind == RES]
        if responses:
            j = rng.choice(responses)
            e = events[j]
            events[j] = ev(e.seq, e.thread, RES, e.op, e.key, not e.ret)
        if rng.random() < 0.5:
            events = events[:rng.randrange(len(events) + 1)]
        h = History(events)
        fast = is_linearizable(h).ok
        assert fast == linearizable_by_enumeration(h), emit_history(h)
        verdicts.append(fast)
    assert 0 < sum(verdicts) < len(verdicts)


def test_prefixes_of_linearizable_histories_stay_linearizable():
    rng = random.Random(44)
    for _ in range(60):
        h = make_linearizable_history(rng)
        events = list(h.events)
        for cut in range(len(events)):
            if events[cut].kind != RES:
                continue
            prefix = History(events[:cut + 1])
            assert is_linearizable(prefix).ok


# -- recorded end-to-end ---------------------------------------------------------

def test_single_threaded_recording_always_linearizes():
    # the caller records the interval around each call
    rec = HistoryRecorder()
    s = ConcurrentSet()
    rng = random.Random(9)
    for _ in range(10):
        op, k = rng.choice(("insert", "delete", "contains")), rng.randrange(4)
        rec.invoke(0, op, k)
        rec.respond(0, op, k, getattr(s, op)(k))
    r = is_linearizable(rec.history())
    assert r.ok
    assert len(r.witness) == 10


# -- text format -------------------------------------------------------------------

def test_emit_format_is_exact():
    h = History([ev(0, 0, INV, "insert", 5),
                 ev(1, 0, RES, "insert", 5, True),
                 ev(2, 1, INV, "contains", 5)])
    assert emit_history(h) == ("0 0 INV INSERT 5\n"
                               "1 0 RES INSERT 5 true\n"
                               "2 1 INV CONTAINS 5\n")


def test_emit_empty_history():
    assert emit_history(History([])) == ""


def test_parse_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        h = make_linearizable_history(rng)
        assert parse_history(emit_history(h)) == h


def test_parse_accepts_comments_and_blank_lines():
    text = "# a comment\n\n0 0 INV INSERT 5\n1 0 RES INSERT 5 true  # inline\n"
    h = parse_history(text)
    assert len(h) == 2


@pytest.mark.parametrize("line", [
    "0 0 INV INSERT",                    # missing key
    "0 0 INV INSERT 5 true",             # invocation with a return
    "0 0 RES INSERT 5",                  # response without a return
    "0 0 RES INSERT 5 yes",              # not a boolean
    "0 0 PING INSERT 5",                 # bad kind
    "0 0 INV SHRINK 5",                  # bad op
    "x 0 INV INSERT 5",                  # non-integer seq
    "0 0 INV INSERT five",               # non-integer key
])
def test_parse_rejects_malformed_lines(line):
    with pytest.raises(ValueError):
        parse_history(line)


# -- structural trace checking -------------------------------------------------------

def run_traced(ops):
    s = ConcurrentSet()
    for op, k in ops:
        s._drain(s.op_gen(op, k))
    return s.trace


def test_clean_sequential_trace_passes():
    trace = run_traced([("insert", 5), ("insert", 3), ("insert", 7),
                        ("delete", 5), ("delete", 7), ("insert", 4),
                        ("delete", 3), ("delete", 4)])
    rep = check_observable_correctness(trace)
    assert rep.ok, str(rep)
    assert rep.events_checked == len(trace)


def test_mark_before_unlink_is_legal():
    trace = [("create", 1, 5, DATA), ("edge", 0, LEFT, 1), ("mark", 1)]
    rep = check_observable_correctness(trace)
    assert rep.ok


def test_edge_to_a_marked_node_is_flagged():
    trace = [("create", 1, 5, DATA), ("create", 2, 3, DATA),
             ("edge", 0, LEFT, 1), ("edge", 1, LEFT, 2),
             ("mark", 2),
             ("edge", 1, LEFT, None),       # node 2 unlinked
             ("edge", 1, LEFT, 2)]          # and re-hung while marked
    rep = check_observable_correctness(trace)
    assert (6, "edge to node 2 marked deleted") in rep.violations


def test_resurrection_is_flagged():
    trace = [("create", 1, 5, DATA), ("edge", 0, LEFT, 1),
             ("edge", 0, LEFT, None),       # node 1 leaves the tree
             ("edge", 0, LEFT, 1)]          # and comes back: forbidden
    rep = check_observable_correctness(trace)
    assert any("resurrected" in msg for _, msg in rep.violations)


def test_routing_arity_violation_is_flagged():
    trace = [("create", 1, 5, DATA), ("create", 2, 3, DATA),
             ("edge", 0, LEFT, 1), ("edge", 1, LEFT, 2),
             ("state", 1, ROUTING)]         # routing node with one child
    rep = check_observable_correctness(trace)
    assert any("routing" in msg for _, msg in rep.violations)


def test_value_property_violation_is_flagged():
    trace = [("create", 1, 5, DATA), ("create", 2, 9, DATA),
             ("edge", 0, LEFT, 1), ("edge", 1, LEFT, 2)]   # 9 under 5's left
    rep = check_observable_correctness(trace)
    assert any("outside" in msg for _, msg in rep.violations)


def test_trace_of_a_path_deeper_than_the_recursion_limit():
    # link a 1 200-node path bottom up, then hang it under the root
    depth = 1200
    trace = [("create", i, i, DATA) for i in range(1, depth + 1)]
    trace += [("edge", i, RIGHT, i + 1) for i in range(1, depth)]
    trace.append(("edge", 0, LEFT, 1))
    rep = check_observable_correctness(trace)
    assert rep.ok, str(rep)
    assert rep.events_checked == len(trace)
    # the deepest key out of order is still found
    trace[depth - 1] = ("create", depth, 0, DATA)
    rep = check_observable_correctness(trace)
    assert [idx for idx, _ in rep.violations] == [len(trace) - 1]
    assert "key 0 at node %d outside" % depth in rep.violations[0][1]


def test_two_paths_to_one_node_is_flagged():
    trace = [("create", 1, 5, DATA), ("create", 2, 3, DATA),
             ("edge", 0, LEFT, 1), ("edge", 1, LEFT, 2), ("edge", 1, RIGHT, 2)]
    rep = check_observable_correctness(trace)
    assert any("two paths" in msg for _, msg in rep.violations)


def test_malformed_trace_events_are_flagged():
    for bad in ([("state", 9, DATA)],
                [("mark", 9)],
                [("edge", 0, LEFT, 9)],
                [("create", 0, 5, DATA)],          # id 0 is the root
                [("create", 1, 5, DATA), ("edge", 0, 7, 1)],
                [("teleport", 1)]):
        rep = check_observable_correctness(bad)
        assert not rep.ok, bad


# every message the trace checker can give; "edge points at unknown
# node" cannot arise from events, since an edge event naming an unknown
# node is refused before it changes anything
TRACE_MESSAGES = ("created twice", "state change on unknown",
                  "deleted mark on unknown", "edge event on unknown",
                  "marked deleted", "bad side", "unknown trace event",
                  "two paths", "outside", "fewer than two children",
                  "resurrected")


def _corrupted(trace, rng):
    """The trace, then variants each changed at one random place."""
    yield trace
    ids = [e[1] for e in trace if e[0] == "create"] + [0]
    for _ in range(8):
        t = list(trace)
        i = rng.randrange(len(t) + 1)
        kind = rng.randrange(7)
        if kind == 0 and t:
            del t[min(i, len(t) - 1)]
        elif kind == 1 and t:
            t.insert(i, t[rng.randrange(len(t))])       # a repeated event
        elif kind == 2:
            t.insert(i, ("edge", rng.choice(ids), rng.choice((LEFT, RIGHT, 7)),
                         rng.choice(ids + [None, 999])))
        elif kind == 3:
            t.insert(i, ("state", rng.choice(ids + [999]),
                         rng.choice((DATA, ROUTING))))
        elif kind == 4:
            t.insert(i, ("mark", rng.choice(ids + [999])))
        elif kind == 5:
            t.insert(i, ("create", rng.choice(ids + [999]), rng.randrange(-2, 10),
                         DATA))
        else:
            t.insert(i, ("teleport", rng.choice(ids)))
        yield t


def test_trace_checker_matches_the_always_walk_reference():
    from cobst.harness import run_script
    from obs_oracle import reference_check_observable_correctness as ref
    from scenarios import random_schedule
    rng = random.Random(5)
    seen = set()
    for s in range(200):
        trace = run_script(random_schedule(2 + s % 3, 4, 8, s),
                           on_blocked="reassign").trace
        for t in _corrupted(trace, rng):
            want = ref(t)
            got = check_observable_correctness(t)
            assert (got.violations, got.events_checked) == (
                want.violations, want.events_checked), t
            seen.update(m for _, msg in want.violations
                        for m in TRACE_MESSAGES if m in msg)
    assert seen == set(TRACE_MESSAGES)
