"""Deterministic replay, script parsing, the named scenarios, and the
bounded exhaustive explorer."""

import random

import pytest

from cobst import harness
from cobst.cli import main
from cobst.concurrent_set import ConcurrentSet
from cobst.harness import (SETUP_THREAD, ExplorationBoundError, ScheduleBlockedError,
                           ScheduleScript, ScriptError, emit_script, explore_small,
                           parse_script, random_schedule, run_script,
                           script_edge_conflict_restart, script_parallel_inserts,
                           script_twin_replacement)
from cobst.history import History, check_observable_correctness, is_linearizable
from cobst.reclaim import EpochReclaimer
from cobst.tree_core import PLUS_INF, SequentialBst


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


def test_validate_rejects_bad_steps():
    with pytest.raises(ScriptError, match="unknown thread"):
        ScheduleScript(programs={0: [("insert", 2)]}, steps=[(3, 1)]).validate()
    with pytest.raises(ScriptError, match="positive"):
        ScheduleScript(programs={0: [("insert", 2)]}, steps=[(0, 0)]).validate()


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
    assert check_observable_correctness(rep.trace).ok


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
    assert rep.unique_histories >= 1
    assert rep.unique_traces >= 2     # creation orders differ
    kinds = {k for k, _ in rep.checkpoint_coverage}
    assert "lock" in kinds and "write" in kinds and "create" in kinds
    assert "explored 924 interleavings" in str(rep)


def test_contended_exploration_covers_both_winners():
    # same-edge race: the explorer must reach both relink orders
    rep = explore_small([2], {0: [("insert", 0)], 1: [("insert", 1)]})
    assert rep.ok
    assert rep.unique_traces >= 2
    assert rep.interleavings >= 2


class LeakingSet(ConcurrentSet):
    """Forgets to release the last lock each attempt took."""

    def _release_all(self, ctx):
        if ctx.held:
            ctx.held.pop()
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


def test_exploration_refuses_oversized_scenarios():
    with pytest.raises(ExplorationBoundError, match="exceeds the bound"):
        explore_small([2], {0: [("insert", 1)], 1: [("insert", 3)],
                            2: [("contains", 2)], 3: [("contains", 1)]})


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


def test_emit_parse_round_trip():
    for script in (script_parallel_inserts(), script_twin_replacement(),
                   script_edge_conflict_restart(), parse_script(SCRIPT_TEXT)):
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


@pytest.mark.parametrize("text,msg", [
    ("setup: one two", "line 1"),
    ("thread x: insert(1)", "line 1"),
    ("thread 0: insert(1) jump(2)", "cannot parse ops"),
    ("thread 0: insert 1", "cannot parse ops"),
    ("thread 0: insert(1)\nschedule: 0:1 nope", "cannot parse schedule"),
    ("prelude: insert(1)", "unknown directive"),
    ("thread 0: insert(1)\nschedule: 5:1", "unknown thread"),
])
def test_parse_script_rejects_malformed_text(text, msg):
    with pytest.raises(ScriptError, match=msg):
        parse_script(text)
