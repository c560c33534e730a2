"""Deterministic replay, script parsing, the named scenarios, and the
bounded exhaustive explorer."""

import gc
import hashlib
import os
import random
import re
import subprocess
import sys
import tracemalloc

import pytest

from cobst import harness
from cobst.cli import main
from cobst.concurrent_set import (K_LOCK, S_INS_STATE, W_DEL_DEMOTE, WRITE,
                                  ConcurrentSet, _state_is)
from cobst.harness import (SETUP_THREAD, ExplorationBoundError, ScheduleBlockedError,
                           ScheduleScript, ScriptError, emit_script, explore_small,
                           parse_script, run_script)
from cobst.history import History, check_observable_correctness, is_linearizable
from cobst.reclaim import EpochReclaimer
from cobst.tree_core import DATA, MAX_KEY, MIN_KEY, PLUS_INF, ROUTING, SequentialBst

from scenarios import (random_schedule, script_edge_conflict_restart,
                       script_parallel_inserts, script_twin_replacement)


# -- script validation ------------------------------------------------------

def test_validate_rejects_duplicate_setup_keys():
    s = ScheduleScript(setup=[1, 1], programs={0: [("insert", 2)]})
    with pytest.raises(ScriptError, match="distinct"):
        s.validate()


def test_validate_rejects_empty_programs():
    with pytest.raises(ScriptError, match="no threads"):
        ScheduleScript().validate()


def test_validate_rejects_bad_thread_ids():
    with pytest.raises(ScriptError, match="non-negative"):
        ScheduleScript(programs={-1: [("insert", 2)]}).validate()
    with pytest.raises(ScriptError, match="non-negative"):
        ScheduleScript(programs={"a": [("insert", 2)]}).validate()


def test_validate_rejects_bad_ops_and_keys():
    with pytest.raises(ScriptError, match="unknown op"):
        ScheduleScript(programs={0: [("upsert", 2)]}).validate()
    with pytest.raises(ScriptError, match="non-integer key"):
        ScheduleScript(programs={0: [("insert", "x")]}).validate()
    with pytest.raises(ScriptError, match="64-bit signed range, in thread 0"):
        ScheduleScript(
            programs={0: [("insert", 99999999999999999999)]}).validate()
    with pytest.raises(ScriptError, match="sentinel.*, in setup"):
        ScheduleScript(setup=[PLUS_INF],
                       programs={0: [("insert", 2)]}).validate()


def test_validate_key_check_edges():
    ScheduleScript(setup=[MIN_KEY],
                   programs={0: [("insert", MAX_KEY)]}).validate()
    with pytest.raises(ScriptError, match="non-integer key True in thread 0"):
        ScheduleScript(programs={0: [("insert", True)]}).validate()
    with pytest.raises(ScriptError, match="non-integer key 1.0 in setup"):
        ScheduleScript(setup=[1.0], programs={0: [("insert", 2)]}).validate()
    with pytest.raises(ScriptError, match="sentinel.*, in thread 0"):
        ScheduleScript(programs={0: [("insert", PLUS_INF)]}).validate()
    with pytest.raises(ScriptError, match="64-bit signed range, in setup"):
        ScheduleScript(setup=[MIN_KEY - 1],
                       programs={0: [("insert", 2)]}).validate()


def test_validate_rejects_bad_steps():
    with pytest.raises(ScriptError, match="unknown thread"):
        ScheduleScript(programs={0: [("insert", 2)]}, steps=[(3, 1)]).validate()
    with pytest.raises(ScriptError, match="positive"):
        ScheduleScript(programs={0: [("insert", 2)]}, steps=[(0, 0)]).validate()
    for n in (1.5, "2", True):
        with pytest.raises(ScriptError, match=re.escape(
                "non-integer grant count %r for thread 0" % (n,))):
            ScheduleScript(programs={0: [("insert", 2)]}, steps=[(0, n)]).validate()
    # a step that is not a pair, or names a thread by a list, a bool or a
    # float, is refused before it runs, not met by a TypeError or ValueError
    for step, msg in [((0,), "malformed schedule step"),
                      ((0, 1, 2), "malformed schedule step"),
                      (5, "malformed schedule step"),
                      (([0], 1), "non-negative ints, got [0]"),
                      ((True, 1), "non-negative ints, got True"),
                      ((0.0, 1), "non-negative ints, got 0.0")]:
        s = ScheduleScript(programs={0: [("insert", 2)], 1: [("insert", 3)]},
                           steps=[step])
        with pytest.raises(ScriptError, match=re.escape(msg)):
            run_script(s)


def test_validate_rejects_malformed_ops_and_bool_thread_ids():
    for entry in [("insert",), ("insert", 1, 2), (["insert"], 1), "insert"]:
        with pytest.raises(ScriptError, match=re.escape(
                "malformed op %r in thread 0" % (entry,))):
            run_script(ScheduleScript(programs={0: [entry]}))
    with pytest.raises(ScriptError, match="non-negative ints, got True"):
        run_script(ScheduleScript(programs={True: [("insert", 1)]},
                                  steps=[(True, 1)]))


def test_validate_refuses_ill_typed_containers():
    ok = {0: [("insert", 2)]}
    for script, msg in [
            (ScheduleScript(programs={0: 5}),
             "the program of thread 0 must be a list or tuple, got 5"),
            (ScheduleScript(programs={0: None}),
             "the program of thread 0 must be a list or tuple, got None"),
            (ScheduleScript(programs=ok, steps=None),
             "steps must be a list or tuple, got None"),
            (ScheduleScript(setup=None, programs=ok),
             "setup must be a list or tuple, got None"),
            (ScheduleScript(programs=[[("insert", 2)]]),
             "programs must be a dict, got [[('insert', 2)]]")]:
        with pytest.raises(ScriptError) as ei:
            run_script(script)
        assert str(ei.value) == msg
    for setup, programs, msg in [
            ([1], {0: 5}, "the program of thread 0 must be a list or tuple, got 5"),
            (5, ok, "setup must be a list or tuple, got 5")]:
        with pytest.raises(ScriptError) as ei:
            explore_small(setup, programs)
        assert str(ei.value) == msg
    # tuples stand in for lists anywhere
    rep = run_script(ScheduleScript(setup=(1,), programs={0: (("insert", 2),)},
                                    steps=((0, 1),)))
    assert rep.final_keys == [1, 2]
    assert explore_small((1,), {0: (("insert", 2),)}).interleavings == 1


# -- basic running ---------------------------------------------------------

def test_drain_only_script_runs_to_completion():
    s = ScheduleScript(setup=[3],
                       programs={0: [("insert", 1), ("contains", 1)],
                                 1: [("delete", 3)]})
    rep = run_script(s)
    assert [o.result for o in rep.outcomes[0]] == [True, True]
    assert [o.result for o in rep.outcomes[1]] == [True]
    assert rep.final_keys == [1]
    assert rep.structure.ok
    assert rep.locks_clean


def test_setup_ops_are_recorded_on_the_setup_thread():
    rep = run_script(script_parallel_inserts())
    setup_ops = [o for o in rep.history.ops() if o.thread == SETUP_THREAD]
    assert [(o.op, o.key, o.ret) for o in setup_ops] == [("insert", 2, True)]
    assert not rep.history.pending_ops()


def test_same_script_same_run():
    s = random_schedule(3, 4, 8, seed=11)
    a = run_script(s, on_blocked="reassign")
    b = run_script(s, on_blocked="reassign")
    assert a.history == b.history
    assert a.trace == b.trace
    assert a.realized == b.realized
    assert a.final_keys == b.final_keys


def test_granting_a_finished_thread_is_a_script_error():
    s = ScheduleScript(programs={0: [("insert", 1)]}, steps=[(0, 40)])
    with pytest.raises(ScriptError, match="finished thread 0"):
        run_script(s)


def test_schedule_past_the_grant_cap_is_a_script_error():
    # thread 0 marks 3 and stops before unlinking it; thread 1's insert
    # then restarts on every attempt until the cap of 10 000 + 1 000 per op
    s = ScheduleScript(setup=[1, 3],
                       programs={0: [("delete", 3)], 1: [("insert", 2)]},
                       steps=[(0, 10), (1, 30_000)])
    with pytest.raises(ScriptError, match="14000 grants"):
        run_script(s)


def test_a_step_past_the_grant_cap_replays_as_one_of_cap_plus_one():
    # a count past sys.maxsize grants until the run finishes or passes the
    # cap, so it ends every run as a step of cap + 1 grants does
    huge = 2 ** 63
    for setup, programs, steps in (
            ([], {0: [("insert", 1)]}, [(0, 2), (0, huge), (0, 1)]),
            ([1, 3], {0: [("delete", 3)], 1: [("insert", 2)]}, [(0, 10), (1, huge)])):
        cap = 10_000 + 1_000 * (len(setup) + len(programs))
        clipped = [(t, min(n, cap + 1)) for t, n in steps]
        for mode in ("error", "reassign"):
            want = _replayed(run_script, ScheduleScript(setup, programs, clipped),
                             mode)
            script = ScheduleScript(setup, programs, steps)
            assert _replayed(run_script, script, mode) == want
            assert script.steps == steps
    assert want == (ScriptError, "run exceeded 14000 grants without finishing; "
                    "the schedule keeps recreating contention")


def test_reassign_stops_stepping_once_every_thread_finished(monkeypatch):
    # random schedules carry six steps per op, most of them left over
    # after the last thread finishes; the first of those learns it from
    # ``forced()`` returning None, and none after it may cost a call
    forced = harness._Run.forced
    finished = []   # runs whose forced() returned None

    def checked(self):
        assert not any(r is self for r in finished), \
            "forced() after every thread finished"
        w = forced(self)
        if w is None:
            finished.append(self)
        return w

    monkeypatch.setattr(harness._Run, "forced", checked)
    for seed in range(20):
        run_script(random_schedule(2 + seed % 3, 4, 8, seed),
                   on_blocked="reassign")
    assert finished   # the schedules did run past their threads' ends


class RefusesInserts(ConcurrentSet):
    """Mutant: every insert finds its key present."""

    def _insert_attempt(self, ctx, v):
        if self._instr:
            yield S_INS_STATE
        return False


def test_a_setup_insert_that_returns_false_is_a_script_error(monkeypatch):
    monkeypatch.setattr(harness, "ConcurrentSet", RefusesInserts)
    with pytest.raises(ScriptError, match=r"setup insert\(4\) returned false"):
        run_script(ScheduleScript(setup=[4], programs={0: [("contains", 4)]}))


def test_bad_on_blocked_value():
    with pytest.raises(ValueError):
        run_script(script_parallel_inserts(), on_blocked="panic")


# -- blocking --------------------------------------------------------------

def blocked_script():
    # thread 0 walks to the empty edge and write-locks it (grant 3);
    # thread 1 wants the same edge: its lock attempt can only contend
    return ScheduleScript(
        setup=[2],
        programs={0: [("insert", 1)], 1: [("insert", 0)]},
        steps=[(0, 3), (1, 3)],
    )


def test_scripted_step_into_contention_raises_and_names_holder():
    with pytest.raises(ScheduleBlockedError) as ei:
        run_script(blocked_script())
    assert "thread 1 waits on" in ei.value.chain
    assert "held by thread 0" in ei.value.chain
    assert "left edge lock write-held>" in ei.value.chain   # the lock's state


def test_reassign_hands_the_grant_to_the_runnable_thread():
    rep = run_script(blocked_script(), on_blocked="reassign")
    assert rep.final_keys == [0, 1, 2]
    assert all(o.result for outs in rep.outcomes.values() for o in outs)
    assert rep.structure.ok and rep.locks_clean
    assert is_linearizable(rep.history, max_ops=40).ok


def test_mutual_sibling_block_resolves_by_forced_abort():
    # thread 2 demotes 4 to a routing node; threads 0 and 1 then race to
    # pair-delete its sibling leaves in lockstep, each holding its own
    # victim's edge and needing the other's.  Nobody is runnable at that
    # point; the drain must force one bounded attempt to fail CONTENDED
    # so the restart releases the locks and the other delete completes.
    s = ScheduleScript(setup=[4, 2, 6],
                       programs={0: [("delete", 2)], 1: [("delete", 6)],
                                 2: [("delete", 4)]})
    rep = run_script(s)
    assert all(o.result for outs in rep.outcomes.values() for o in outs)
    assert rep.contended_by_family.get("edge_ref", 0) == 1
    assert sum(rep.restarts.values()) >= 2
    assert rep.final_keys == []
    assert rep.structure.ok and rep.locks_clean
    assert is_linearizable(rep.history, max_ops=40).ok
    obs = check_observable_correctness(rep.trace)
    assert obs.ok and str(obs) == "trace ok: %d events" % len(rep.trace)


def test_a_scripted_step_into_a_lock_cycle_names_both_threads():
    # the mutual-sibling scenario above, stepped with the drain's first
    # 42 grants: threads 0 and 1 then each hold the edge the other wants
    s = ScheduleScript(setup=[4, 2, 6],
                       programs={0: [("delete", 2)], 1: [("delete", 6)],
                                 2: [("delete", 4)]},
                       steps=[(0, 1), (1, 1), (2, 1)] * 6 + [(0, 1), (1, 1)] * 12
                       + [(0, 1)])
    with pytest.raises(ScheduleBlockedError) as ei:
        run_script(s)
    hops = ei.value.chain.split("; ")
    assert len(hops) == 3 and hops[2] == "(cycle)"
    assert hops[0].startswith("thread 0 waits on") and hops[0].endswith("held by thread 1")
    assert hops[1].startswith("thread 1 waits on") and hops[1].endswith("held by thread 0")


def test_a_leaked_lock_blocks_with_its_holder_unknown(monkeypatch):
    # the setup inserts of 1 and 3 leak their read locks on 2's state,
    # which no attempt lists as held; the demotion of 2 then waits on them
    monkeypatch.setattr(harness, "ConcurrentSet", LeakingSet)
    s = ScheduleScript(setup=[2, 1, 3], programs={0: [("delete", 2)]},
                       steps=[(0, 5)])
    with pytest.raises(ScheduleBlockedError) as ei:
        run_script(s)
    assert ei.value.chain.startswith("thread 0 waits on <lock delete.demote_state")
    assert ei.value.chain.endswith("readers> (holder unknown)")


# -- reclamation ---------------------------------------------------------------

def test_scheduled_run_reclaims_nothing_under_a_pinned_reader(monkeypatch):
    # thread 0 stops three child reads into contains(deepest key); thread
    # 1 then deletes 300 of the 400 keys, those on thread 0's path first,
    # unlinking over 200 nodes.  The epoch can advance only once past
    # thread 0's pin, so what is unlinked under it may be reclaimed only
    # after its contains has finished; the last 100 deletes sweep it
    keys = random.Random(7).sample(range(1000), 400)
    bst = SequentialBst()
    for k in keys:
        bst.seq_insert(k)

    def path_to(k):
        out, node = [], bst.root.left
        while node.val != k:
            out.append(node.val)
            node = node.left if k < node.val else node.right
        return out + [k]

    path = path_to(max(keys, key=lambda k: len(path_to(k))))
    assert len(path) > 4
    rest = [k for k in keys if k not in path]
    deletes = [("delete", k) for k in path + rest]
    paused = len(run_script(ScheduleScript(
        setup=keys, programs={1: deletes[:300]})).realized)

    retired, reclaimed = [], []   # (key, thread 0 pinned at the time)
    orig_retire, orig_reclaim = EpochReclaimer.retire, EpochReclaimer._reclaim

    def retire(self, node):
        retired.append((node.val, 0 in self._pins))
        orig_retire(self, node)

    def reclaim(self, node):
        reclaimed.append((node.val, 0 in self._pins))
        orig_reclaim(self, node)

    monkeypatch.setattr(EpochReclaimer, "retire", retire)
    monkeypatch.setattr(EpochReclaimer, "_reclaim", reclaim)
    rep = run_script(ScheduleScript(
        setup=keys, programs={0: [("contains", path[-1])], 1: deletes},
        steps=[(0, 3), (1, paused)]))

    unlinked_under = {k for k, pinned in retired if pinned}
    assert len(unlinked_under) >= 200
    assert set(path) & unlinked_under
    assert len(reclaimed) >= 128            # at least two sweeps
    assert not any(pinned for _, pinned in reclaimed)
    assert set(path) & unlinked_under <= {k for k, _ in reclaimed}
    assert all(o.result for o in rep.outcomes[1])
    assert rep.final_keys == []
    assert rep.structure.ok and rep.locks_clean
    for k in keys:   # linearizability is local: check each key on its own
        assert is_linearizable(
            History([e for e in rep.history.events if e.key == k])).ok


# -- named scenarios ---------------------------------------------------------

def test_parallel_inserts_never_restart():
    rep = run_script(script_parallel_inserts())
    assert rep.restarts == {0: 0, 1: 0}
    assert rep.cv_by_family == {}
    assert rep.contended_by_family == {}
    assert [o.result for o in rep.outcomes[0]] == [True]
    assert [o.result for o in rep.outcomes[1]] == [True]
    assert rep.final_keys == [1, 2, 3]
    assert rep.structure.ok and rep.locks_clean
    assert is_linearizable(rep.history, max_ops=40).ok
    assert check_observable_correctness(rep.trace).ok


def test_twin_replacement_deletes_both_succeed_without_restart():
    rep = run_script(script_twin_replacement())
    assert rep.restarts == {0: 0, 1: 0, 2: 0}
    assert [o.result for o in rep.outcomes[0]] == [True]
    assert [o.result for o in rep.outcomes[1]] == [True]
    assert [o.result for o in rep.outcomes[2]] == [True]
    assert rep.final_keys == [1, 2]
    assert rep.structure.ok and rep.locks_clean
    assert is_linearizable(rep.history, max_ops=40).ok
    assert check_observable_correctness(rep.trace).ok


def test_edge_conflict_costs_exactly_one_violation_and_one_restart():
    rep = run_script(script_edge_conflict_restart())
    assert rep.cv_by_family == {"edge_ref": 1}
    assert rep.contended_by_family == {}
    assert rep.restarts == {0: 0, 1: 1}
    assert rep.final_keys == [0, 1, 2]
    assert rep.structure.ok and rep.locks_clean
    assert is_linearizable(rep.history, max_ops=40).ok
    assert check_observable_correctness(rep.trace).ok


def test_report_kv_lines():
    lines = run_script(script_parallel_inserts()).kv_lines()
    assert "thread.0.result.0=true" in lines
    assert "thread.1.result.0=true" in lines
    assert "thread.0.restarts=0" in lines
    assert "final=1,2,3" in lines
    assert "structure=ok" in lines
    assert "locks=free" in lines
    assert lines[0].startswith("steps=")


def test_report_str_mentions_each_thread():
    text = str(run_script(script_parallel_inserts()))
    assert "thread 0: insert(1) -> true" in text
    assert "thread 1: insert(3) -> true" in text
    assert "final keys: {1, 2, 3}" in text


# -- random schedules ---------------------------------------------------------

def test_random_schedule_is_deterministic_in_the_seed():
    a = random_schedule(3, 4, 8, seed=5)
    b = random_schedule(3, 4, 8, seed=5)
    c = random_schedule(3, 4, 8, seed=6)
    assert emit_script(a) == emit_script(b)
    assert emit_script(a) != emit_script(c)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_runs_are_clean_and_linearizable(seed):
    rep = run_script(random_schedule(3, 5, 8, seed=seed), on_blocked="reassign")
    assert rep.structure.ok and rep.locks_clean
    assert is_linearizable(rep.history, max_ops=40).ok
    assert check_observable_correctness(rep.trace).ok


def replay_corpus():
    """The 300 random schedules whose reports every change must keep."""
    for s in range(300):
        yield run_script(random_schedule(2 + s % 3, 4, 8, s),
                         on_blocked="reassign")


def test_replay_digest_of_the_random_corpus_is_pinned():
    h = hashlib.sha256()
    for rep in replay_corpus():
        h.update(repr((rep.kv_lines(), rep.trace,
                       rep.history.events)).encode())
    assert h.hexdigest() == (
        "67cd7dca207bfcbff971c0c5398512c9236e301899aeec3bce3a7d596cce8757")


def test_small_stepped_runs_reclaim_most_of_what_they_retire(monkeypatch):
    # the end of each stepped operation advances the epoch, so most
    # nodes a run retires are poisoned before the run ends
    reclaimers = []
    report = harness._Run.report

    def kept(self):
        reclaimers.append(self.set.reclaimer)
        return report(self)

    monkeypatch.setattr(harness._Run, "report", kept)
    for _ in replay_corpus():
        pass
    reclaimed = sum(r.reclaimed_count for r in reclaimers)
    retired = reclaimed + sum(r.pending() for r in reclaimers)
    assert retired > 200
    assert reclaimed > retired / 2


# -- exploration ------------------------------------------------------------

def test_single_thread_explores_one_interleaving():
    rep = explore_small([2], {0: [("insert", 1), ("delete", 1)]})
    assert rep.estimate == 1
    assert rep.interleavings == 1
    assert rep.unique_histories == 1
    assert rep.ok


def test_two_insert_exploration_is_exhaustive_and_clean():
    rep = explore_small([2], {0: [("insert", 1)], 1: [("insert", 3)]})
    assert rep.interleavings == 924
    assert rep.estimate == 924
    assert rep.ok
    assert rep.unique_histories == 6
    assert rep.unique_traces == 6     # creation orders differ
    kinds = {k for k, _ in rep.checkpoint_coverage}
    assert "lock" in kinds and "write" in kinds and "create" in kinds
    assert "explored 924 interleavings" in str(rep)


# scenario -> (estimate, interleavings, unique histories, unique traces,
# lock acquisitions by op summed over all runs); any change to the
# checkpoints or to the scheduling shows here first
EXPLORATION_TABLE = [
    pytest.param([2], {0: [("insert", 1), ("delete", 1)]},
                 (1, 1, 1, 1, {"contains": 0, "insert": 4, "delete": 3}),
                 id="insert-then-delete"),
    pytest.param([2], {0: [("insert", 1)], 1: [("insert", 3)]},
                 (924, 924, 6, 6, {"contains": 0, "insert": 5544, "delete": 0}),
                 id="sibling-inserts"),
    pytest.param([2], {0: [("insert", 0)], 1: [("insert", 1)]},
                 (924, 56, 6, 2, {"contains": 0, "insert": 336, "delete": 0}),
                 id="same-edge-inserts"),
    pytest.param([5], {0: [("insert", 5)], 1: [("delete", 5)],
                       2: [("contains", 5)]},
                 (6006, 6026, 85, 2,
                  {"contains": 0, "insert": 12294, "delete": 18078}),
                 id="insert-delete-contains"),
    pytest.param([], {0: [("insert", 1)], 1: [("insert", 2)],
                      2: [("contains", 1)]},
                 (2772, 486, 40, 2, {"contains": 0, "insert": 1944, "delete": 0}),
                 id="two-inserts-and-contains"),
]


@pytest.mark.parametrize("setup,programs,want", EXPLORATION_TABLE)
def test_exploration_table_is_pinned(setup, programs, want):
    rep = explore_small(setup, programs)
    assert rep.ok, str(rep)
    assert (rep.estimate, rep.interleavings, rep.unique_histories,
            rep.unique_traces, rep.acquisitions_by_op) == want


def test_contended_exploration_covers_both_winners():
    # same-edge race: the explorer must reach both relink orders
    rep = explore_small([2], {0: [("insert", 0)], 1: [("insert", 1)]})
    assert rep.ok
    assert rep.unique_traces == 2
    assert rep.interleavings == 56


class LeakingSet(ConcurrentSet):
    """Forgets to release the last lock each attempt took."""

    def _release_all(self, ctx):
        if ctx:
            ctx.pop()
        super()._release_all(ctx)


def test_a_lock_left_held_fails_replay_and_exploration(monkeypatch, tmp_path,
                                                       capsys):
    monkeypatch.setattr(harness, "ConcurrentSet", LeakingSet)
    rep = run_script(ScheduleScript(programs={0: [("insert", 1)]}))
    assert rep.structure.ok and not rep.locks_clean
    assert "locks=HELD" in rep.kv_lines()
    ex = explore_small([], {0: [("insert", 1)]})
    assert not ex.ok
    assert [msg for _, msg in ex.structure_failures] == [
        "locks left held at quiescence"]
    p = tmp_path / "one.script"
    p.write_text("thread 0: insert(1)\n")
    assert main(["replay", "--script", str(p)]) == 1
    assert "locks left held: 1" in capsys.readouterr().out


def _flips_contains(gen):
    out = yield from gen
    return out._replace(result=not out.result) if out.op == "contains" else out


class LyingSet(ConcurrentSet):
    """Reports the opposite of what each stepped ``contains`` read, with
    a sound tree and trace: only the history shows it."""

    def op_gen(self, op, v, tkey=None):
        return _flips_contains(super().op_gen(op, v, tkey))


def test_a_wrong_result_fails_replay_and_exploration(monkeypatch, tmp_path,
                                                     capsys):
    monkeypatch.setattr(harness, "ConcurrentSet", LyingSet)
    ex = explore_small([1], {0: [("contains", 1)]})
    assert not ex.ok and not ex.obs_failures and not ex.structure_failures
    assert [msg.startswith("NOT LINEARIZABLE") for _, msg in ex.lin_failures] == [True]
    p = tmp_path / "one.script"
    p.write_text("setup: 1\nthread 0: contains(1)\n")
    assert main(["replay", "--script", str(p), "--kv"]) == 1
    out = capsys.readouterr().out
    assert "NOT LINEARIZABLE" in out and "structure=ok" in out


class DemotesWithoutRecheck(ConcurrentSet):
    """Demotes a node with two children without re-reading them under
    the state lock."""

    def _delete_two_children(self, ctx, curr):
        yield from self._lock(
            ctx, ctx.tkey, self, "delete", curr, WRITE, _state_is,
            "state", "delete.demote_state", 0, DATA)
        if self._instr:
            yield W_DEL_DEMOTE
            self.trace.append(("state", self.ids[curr], ROUTING))
        curr.state = ROUTING
        return True


def test_two_child_demotion_needs_its_recheck(monkeypatch):
    # delete(5) reads both children of 5; delete(3) then unlinks the
    # left one before 5's state lock lands.  Demoting 5 anyway would
    # leave a routing node with one child
    scenario = ([5, 3, 7], {0: [("delete", 5)], 1: [("delete", 3)]})
    assert explore_small(*scenario).ok
    monkeypatch.setattr(harness, "ConcurrentSet", DemotesWithoutRecheck)
    rep = explore_small(*scenario)
    assert len(rep.obs_failures) == 1 and len(rep.structure_failures) == 1


def test_exploration_refuses_oversized_scenarios():
    with pytest.raises(ExplorationBoundError, match="exceeds the bound"):
        explore_small([2], {0: [("insert", 1)], 1: [("insert", 3)],
                            2: [("contains", 2)], 3: [("contains", 1)]})
    # a stand-off, every thread blocked, needs two pair-deletes under one
    # routing parent; the smallest such scenario is refused, so no
    # exploration reaches a forced grant
    with pytest.raises(ExplorationBoundError, match="estimated 129024480 interleavings"):
        explore_small([4, 2, 6], {0: [("delete", 4), ("delete", 6)], 1: [("delete", 2)]})


def test_exploration_past_the_bound_in_actual_interleavings_stops(monkeypatch):
    # estimated 6 006 interleavings, 6 026 actual: restarts add some
    monkeypatch.setattr(harness, "_EXPLORE_BOUND", 6_010)
    with pytest.raises(ExplorationBoundError,
                       match="actual interleavings exceeded the bound 6010"):
        explore_small([5], {0: [("insert", 5)], 1: [("delete", 5)], 2: [("contains", 5)]})


# -- the loops against their former versions ------------------------------------

def _replayed(run, script, mode):
    try:
        rep = run(script, on_blocked=mode)
    except (ScriptError, ScheduleBlockedError) as e:
        return type(e), str(e)
    return (rep.realized, rep.kv_lines(), rep.trace, rep.history.events,
            rep.outcomes)


def test_replay_loops_match_the_reference_loops():
    from loop_oracle import reference_run_script
    scripts = [random_schedule(2 + s % 3, 4, 8, seed) for s, seed in
               enumerate(range(1000, 1320))]
    scripts.append(ScheduleScript(setup=[4, 2, 6],   # mutual sibling block
                                  programs={0: [("delete", 2)], 1: [("delete", 6)],
                                            2: [("delete", 4)]}))
    forced = 0
    for script in scripts:
        want = _replayed(reference_run_script, script, "reassign")
        assert _replayed(run_script, script, "reassign") == want, emit_script(script)
        # only a forced grant attempts a lock that can only contend
        forced += any(ln.startswith("contended.") for ln in want[1])
    assert forced > 0


def test_error_mode_matches_the_reference_loops():
    from loop_oracle import reference_run_script
    kinds = set()
    scripts = [random_schedule(2 + s % 3, 4, 8, s) for s in range(150)]
    scripts += [blocked_script(),
                ScheduleScript(programs={0: [("insert", 1)]}, steps=[(0, 40)])]
    for script in scripts:
        want = _replayed(reference_run_script, script, "error")
        assert _replayed(run_script, script, "error") == want, emit_script(script)
        if want[0] is ScheduleBlockedError:
            kinds.add("blocked")
        elif want[0] is ScriptError:
            kinds.add(want[1].split(" thread")[0])
    assert kinds == {"blocked", "schedule grants a step to finished"}


@pytest.mark.parametrize("setup,programs", [
    ([2], {0: [("insert", 0)], 1: [("insert", 1)]}),
    ([2], {0: [("insert", 1)], 1: [("insert", 3)]}),
    ([], {0: [("insert", 1)], 1: [("insert", 2)], 2: [("contains", 1)]}),
    ([], {0: [("insert", 1)], 1: [("insert", 1)]}),
    ([1], {0: [("delete", 1)], 1: [("delete", 1)]}),
    ([5], {0: [("insert", 5)], 1: [("delete", 5)], 2: [("contains", 5)]}),
])
def test_exploration_matches_the_reference_loop(setup, programs):
    from loop_oracle import reference_explore_small
    assert explore_small(setup, programs) == reference_explore_small(setup,
                                                                     programs)


def _first_free_or_forced(run):
    """Step ``run`` to its end as exploration does past its last branch
    point: the first free thread goes, else the one ``forced()`` picks."""
    while True:
        w = next((w for w in run.workers.values() if (p := w.pending) is not None
                  and (p.kind != K_LOCK or not p.would_block())), None)
        if w is None and (w := run.forced()) is None:
            return run
        run.grant(w)


def test_a_replayed_prefix_with_its_forced_count_continues_as_recorded(
        monkeypatch):
    # exploration grants the last run's prefix by thread id, with no call to
    # forced(), and leaves the forced-grant count at 0.  No scenario under
    # the exploration bound blocks every thread: a routing parent takes one
    # delete, its sibling leaves two more, and such scenarios estimate over
    # 10^8 interleavings (``test_exploration_refuses_oversized_scenarios``).
    # Were one to, the count would need restoring: the mutual sibling block
    # is stepped here, from the drain's first forced grant on
    script = ScheduleScript(setup=[4, 2, 6], programs={
        0: [("delete", 2)], 1: [("delete", 6)], 2: [("delete", 4)]})
    forced_at = []   # grant index of each forced grant
    forced = harness._Run.forced

    def recording(self):
        w = forced(self)
        if w is not None:
            forced_at.append((len(self.realized), w.tid))
        return w

    monkeypatch.setattr(harness._Run, "forced", recording)
    start = run_script(script).realized[:forced_at[0][0]]
    forced_at.clear()
    whole = harness._Run(script)
    for tid in start:
        whole.grant(whole.workers[tid])
    _first_free_or_forced(whole)
    assert len({tid for _, tid in forced_at}) == 2   # the rotation mattered
    forced_grants = [i for i, _ in forced_at]
    diverged = 0
    for g in range(len(start), len(whole.realized) + 1):
        for restore in (True, False):
            run = harness._Run(script)
            for tid in whole.realized[:g]:
                run.grant(run.workers[tid])
            if restore:
                run._forced = sum(1 for i in forced_grants if i < g)
            _first_free_or_forced(run)
            if restore:
                assert (run.realized, run.set.trace) == (whole.realized,
                                                         whole.set.trace)
            else:
                diverged += run.realized != whole.realized
    assert diverged   # a count left at 0 would rotate wrongly


def test_finish_counts_one_grant_per_checkpoint_left():
    script = ScheduleScript(programs={0: [("insert", 1)], 1: []})
    run = harness._Run(script)
    w = run.workers[0]
    for _ in range(3):
        run.grant(w)
    assert w.finish() == harness._Run(script).workers[0].finish() - 3
    assert w.finish() == 0
    assert run.workers[1].finish() == 1   # an empty program takes one grant


# -- text format --------------------------------------------------------------

SCRIPT_TEXT = """\
# two racing inserts
setup: 2

thread 0: insert(1) delete(1)
thread 1: contains(2)   # reader
schedule: 0:3 1:2 0:1
"""


def test_parse_script_reads_all_sections():
    s = parse_script(SCRIPT_TEXT)
    assert s.setup == [2]
    assert s.programs == {0: [("insert", 1), ("delete", 1)],
                          1: [("contains", 2)]}
    assert s.steps == [(0, 3), (1, 2), (0, 1)]


def test_a_script_changed_after_parsing_is_still_refused():
    text = "setup: 5\nthread 0: insert(1)\nthread 1: delete(1)\nschedule: 0:1 1:1\n"
    edits = [
        (lambda s: s.steps.append((7, 1)), "schedule step for unknown thread 7"),
        (lambda s: s.steps.append((0, 0)), "schedule grants must be positive"),
        # in place: the same list, of the same length
        (lambda s: s.steps.__setitem__(1, (7, 1)), "schedule step for unknown thread 7"),
        (lambda s: s.steps.__setitem__(1, (1, 0)), "schedule grants must be positive"),
        (lambda s: s.steps.__setitem__(1, (1, -3)), "schedule grants must be positive"),
        (lambda s: s.steps.__setitem__(1, (1, 1.5)),
         "non-integer grant count 1.5 for thread 1"),
        (lambda s: s.programs[1].__setitem__(0, ("delete", "x")),
         "non-integer key 'x' in thread 1"),
        (lambda s: s.setup.__setitem__(0, "5"), "non-integer key '5' in setup"),
        (lambda s: s.programs.pop(1), "schedule step for unknown thread 1"),
        (lambda s: setattr(s, "steps", [(0, 1), (9, 1)]),
         "schedule step for unknown thread 9"),
    ]
    for edit, msg in edits:
        script = parse_script(text)
        run_script(script)
        edit(script)
        with pytest.raises(ScriptError) as ei:
            run_script(script)
        assert str(ei.value) == msg
    # a count past sys.maxsize, in place, replays up to the grant cap
    script = parse_script("setup: 1 3\nthread 0: delete(3)\nthread 1: insert(2)\n"
                          "schedule: 0:10 1:1\n")
    run_script(script)
    script.steps[1] = (1, 2 ** 63)
    with pytest.raises(ScriptError, match="14000 grants"):
        run_script(script)


def test_a_parsed_script_holds_each_distinct_tuple_once():
    s = parse_script("thread 0: insert(5) delete(5) insert(5)\n"
                     "thread 1: insert(5) contains(7) delete(5)\n"
                     "schedule: 0:2 1:1 0:2 1:1 1:1 0:1\n")
    a, b = s.programs[0], s.programs[1]
    assert a[0] is a[2] is b[0] and a[1] is b[2]
    assert s.steps[0] is s.steps[2] and s.steps[1] is s.steps[3] is s.steps[4]
    assert s.steps[5] == (0, 1) and s.programs[1][1] == ("contains", 7)


def test_parse_script_keeps_nothing_between_calls():
    # fresh keys and counts in each of two rounds: a cache kept across
    # calls grows by the second round's scripts.  Retention is the growth
    # from the end of one round to the end of the next, so what a round
    # leaves in CPython's free lists, both rounds leave, and it cancels
    rounds = [["thread 0: insert(%d) delete(%d)\nthread 1: contains(%d)\n"
               "schedule: 0:%d 1:%d 0:1\n" % (k, k, k, k, k)
               for k in range(lo, lo + 1000)] for lo in (10 ** 6, 2 * 10 ** 6)]
    parse_script(rounds[0][0])
    gc.collect()
    ends = []
    tracemalloc.start()
    try:
        for texts in rounds:
            base = tracemalloc.get_traced_memory()[0]
            scripts = [parse_script(t) for t in texts]
            held = tracemalloc.get_traced_memory()[0] - base
            del scripts
            gc.collect()
            ends.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    left = ends[1] - ends[0]
    assert held > 500_000 and left < 4_096, (held, left)


def test_parse_script_shares_small_tuples_across_scripts():
    a = parse_script("thread 0: insert(3) delete(9)\nschedule: 0:2\n")
    b = parse_script("setup: 1\nthread 0: contains(1) insert(3)\n"
                     "thread 1: delete(2)\nschedule: 1:1 0:2 0:2\n")
    assert a.steps[0] is b.steps[1] is b.steps[2] == (0, 2)
    assert a.programs[0][0] is b.programs[0][1] == ("insert", 3)


def test_the_small_table_never_grows():
    parse_script(SCRIPT_TEXT)
    table = harness._small_table()
    size = len(table)
    for seed in range(2000):
        parse_script(emit_script(random_schedule(2 + seed % 3, 6, 8, seed)))
    assert harness._small_table() is table and len(table) == size == 112


def test_importing_cobst_builds_no_table():
    code = ("import cobst.harness as h; "
            "assert h._small_table.cache_info().currsize == 0; "
            "h.parse_script('thread 0: insert(1)'); "
            "assert h._small_table.cache_info().currsize == 1")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


def _script_across_the_table(rng):
    tids = rng.sample(range(21), rng.randint(1, 4))
    programs = {tid: [(rng.choice(("insert", "delete", "contains")),
                       rng.randint(-20, 300)) for _ in range(rng.randint(1, 5))]
                for tid in tids}
    steps = [(rng.choice(tids), rng.randint(1, 20))
             for _ in range(rng.randint(0, 12))]
    return ScheduleScript(setup=rng.sample(range(-20, 301), rng.randint(0, 4)),
                          programs=programs, steps=steps)


def test_parse_script_reads_the_same_without_the_table(monkeypatch):
    rng = random.Random(5)
    scripts = [_script_across_the_table(rng) for _ in range(1000)]
    texts = [emit_script(s) for s in scripts]
    # half with every number zero-padded: equal values, other texts
    texts[1::2] = [re.sub(r"(?<![-\d])(\d+)", r"0\1", t) for t in texts[1::2]]
    with_table = [parse_script(t) for t in texts]
    monkeypatch.setattr(harness, "_small_table", dict)
    without = [parse_script(t) for t in texts]
    assert with_table == without == scripts


class _RegexCalled(Exception):
    pass


class _RefusingRegex:
    """Stands in for a compiled pattern: any use of it raises."""

    def __init__(self, name):
        self.name = name

    def __getattr__(self, attr):
        raise _RegexCalled("%s.%s" % (self.name, attr))


def test_parse_script_looks_tokens_up_before_any_regex(monkeypatch):
    from script_oracle import reference_parse_script
    scripts = [random_schedule(1 + s % 4, 6, 8, s) for s in range(300)]
    texts = [emit_script(s) for s in scripts]
    off_table = ["thread 0: insert(1)  delete(2)",          # two spaces
                 "thread 0: insert(1)\nschedule: 0:1  0:1",
                 "thread 0: insert(01)",                    # zero-padded
                 "thread 0: insert(1)\nschedule: 00:1",
                 "thread 0: insert(1)delete(2)",            # glued
                 "thread 0: insert(15) insert(16)",         # past the table
                 "thread 0: insert(1)\nschedule: 0:1\u00a00:1",
                 "thread 0:", "thread 0: 0:1",
                 "thread 0: insert(1)\nschedule: insert(1)"]
    for name in ("_OPS_RE", "_OP_RE", "_STEPS_RE"):
        monkeypatch.setattr(harness, name, _RefusingRegex(name))
    assert [parse_script(t) for t in texts] == scripts
    for text in off_table:
        with pytest.raises(_RegexCalled):
            parse_script(text)
    monkeypatch.undo()
    verdicts = set()
    for text in off_table:
        want = _parsed(reference_parse_script, text)
        assert _parsed(parse_script, text) == want, text
        verdicts.add(want[0])
    assert verdicts == {"ok", "ScriptError"}


def test_script_slots_keep_the_dataclass_behaviour():
    s = ScheduleScript(setup=[1], programs={0: [("insert", 2)]}, steps=[(0, 1)])
    assert not hasattr(s, "__dict__")
    with pytest.raises(AttributeError):
        s.stepz = []
    assert repr(s) == ("ScheduleScript(setup=[1], programs={0: [('insert', 2)]}, "
                       "steps=[(0, 1)])")
    a, b = ScheduleScript(), ScheduleScript()
    assert a == b and a.setup is not b.setup and a.programs is not b.programs
    assert a.steps is not b.steps
    t = ScheduleScript(setup=[1], programs={0: [("insert", 2)]}, steps=[(0, 1)])
    t.validate()
    assert s == t


def test_a_parsed_verify_shaped_corpus_stays_small():
    # shaped like the benchmark's verify corpus: 2-4 threads of 1-6 ops
    # over keys 0-7, 0-4 setup keys, 6 steps per op of 1-3 grants each
    rng = random.Random(3)
    texts = []
    for _ in range(2048):
        tids = range(rng.randint(2, 4))
        script = ScheduleScript(
            setup=rng.sample(range(8), rng.randint(0, 4)),
            programs={t: [(rng.choice(("insert", "delete", "contains")),
                           rng.randrange(8)) for _ in range(rng.randint(1, 6))]
                      for t in tids})
        n_ops = sum(map(len, script.programs.values()))
        script.steps = [(rng.choice(tids), rng.randint(1, 3))
                        for _ in range(6 * n_ops)]
        texts.append(emit_script(script))
    parse_script(texts[0])
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        scripts = [parse_script(t) for t in texts]
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(scripts) == 2048
    # bytes a script: 1 274 on CPython 3.11, 2 381 with no table and a dict
    # in each script
    assert held / 2048 < 1600, held / 2048


def test_emit_parse_round_trip():
    for script in (script_parallel_inserts(), script_twin_replacement(),
                   script_edge_conflict_restart(), parse_script(SCRIPT_TEXT),
                   *(random_schedule(2 + s % 3, 6, 8, s) for s in range(20)),
                   *(random_schedule(1 + s % 4, 1 + s % 7, 4 + s % 13, s)
                     for s in range(300))):
        text = emit_script(script)
        again = parse_script(text)
        assert again == script
        assert emit_script(again) == text


def test_emit_format_is_exact():
    assert emit_script(script_parallel_inserts()) == (
        "setup: 2\n"
        "thread 0: insert(1)\n"
        "thread 1: insert(3)\n"
        "schedule: 0:1 1:1 0:1 1:1 0:1 1:1 0:1 1:1 0:1 1:1 0:1 1:1\n")


def test_emit_refuses_a_thread_that_parse_would_refuse():
    """``thread 0:`` with no operations does not parse, so a script that
    runs with an empty program has no text."""
    script = ScheduleScript(setup=[1], programs={0: [], 1: [("insert", 2)]})
    assert run_script(script).history.ops()
    with pytest.raises(ScriptError, match="thread 0 has no operations"):
        emit_script(script)
    with pytest.raises(ScriptError, match="line 2: cannot parse ops"):
        parse_script("setup: 1\nthread 0: \nthread 1: insert(2)\n")


@pytest.mark.parametrize("text,msg", [
    ("setup: one two", "line 1"),
    ("thread x: insert(1)", "line 1"),
    ("thread 0: insert(1) jump(2)", "cannot parse ops"),
    ("thread 0: insert 1", "cannot parse ops"),
    ("thread 0: insert(1)\nschedule: 0:1 nope", "cannot parse schedule"),
    ("prelude: insert(1)", "unknown directive"),
    ("thread 0: insert(1)\nschedule: 5:1", "unknown thread"),
    ("thread 0: insert(1)\nthread 0: insert(2)", "line 2: repeated directive 'thread 0'"),
    ("thread 0: insert(1)\nthread 00: insert(2)", "line 2: repeated directive 'thread 0'"),
    ("setup: 1\nthread 0: insert(2)\nsetup: 3", "line 3: repeated directive 'setup'"),
    ("thread 0: insert(1)\nschedule: 0:1\nschedule: 0:2",
     "line 3: repeated directive 'schedule'"),
    ("threadX 0 junk: insert(1)", "line 1: expected 'thread <id>:'"),
    ("thread 0 junk: insert(1)", "line 1: expected 'thread <id>:'"),
])
def test_parse_script_rejects_malformed_text(text, msg):
    with pytest.raises(ScriptError, match=msg):
        parse_script(text)


# -- the parser against its reference ---------------------------------------

def _parsed(parse, text):
    try:
        s = parse(text)
    except Exception as e:   # the type and the message must match
        return type(e).__name__, str(e)
    return "ok", repr((s.setup, s.programs, s.steps))


# hand-picked line variants on top of the emitted ones: separators the
# format does and does not allow, glued tokens, odd digits
_PARSER_EDGE_LINES = [
    "schedule:", "schedule:   ", "schedule: 0:1\t1:1", "schedule: 0:1  1:1",
    "schedule: 0:1:2", "schedule: 0:11:1", "schedule: 00:01 0:007",
    "schedule: ٠:١", "schedule: 0:１", "schedule: 0 :1",
    "schedule: 0: 1", "schedule: :1", "schedule: 0:1 ", "schedule: -0:1",
    "thread 0: insert(1)delete(2)", "thread 0: insert(1)  delete(2)",
    "thread 0: insert(1)\tdelete(2)", "thread 0: insert(007)",
    "thread 0: insert(-0)", "thread 0: insert(١٢)",
    "thread 0: insert( 1)", "thread 0: insert(1) ", "thread 0:",
    "thread 0: insert(1)x", "thread 0: insert(1):", "thread 0: insert(--1)",
    "thread 0: insert(15) insert(16)", "schedule: 7:8 8:1", "schedule: 0:1\u00a01:1",
]


def _mutants(text, rng):
    lines = text.splitlines()
    yield text
    for edge in _PARSER_EDGE_LINES:
        head = edge.split(":", 1)[0]
        yield "\n".join([ln for ln in lines if not ln.startswith(head)] + [edge])
    for _ in range(6):
        pos = rng.randrange(len(text))
        ch = rng.choice([" ", "  ", "\t", ":", "(", ")", "-", "0", "7",
                         "٣", "x", "#", ""])
        yield text[:pos] + ch + text[pos + rng.choice((0, 1)):]
    yield text.replace(" ", "  ")
    yield text.replace(") ", ")")
    yield text.replace(" 0:", " 00:")


def test_parse_script_matches_the_reference_parser():
    from script_oracle import reference_parse_script
    rng = random.Random(11)
    verdicts = set()
    for seed in range(120):
        script = random_schedule(1 + seed % 4, 1 + seed % 5, 8, seed=seed)
        for text in _mutants(emit_script(script), rng):
            want = _parsed(reference_parse_script, text)
            assert _parsed(parse_script, text) == want, text
            verdicts.add(want[0])
    assert verdicts == {"ok", "ScriptError"}
