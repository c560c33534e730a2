"""Scripts only tests replay: ``random_schedule`` (the pinned replay
digest depends on it draw for draw) and the scenarios ``script_*``, for
``test_harness.py``, ``test_acceptance.py``, ``test_history.py``,
``test_bench.py`` and ``test_benchmark_hooks.py``."""

import random

from cobst.harness import ScheduleScript


def random_schedule(thread_count: int, ops_per_thread: int, key_range: int,
                    seed: int) -> ScheduleScript:
    """Seeded random script: setup keys, per-thread programs and a step
    sequence.  Deterministic in the seed.  Run it with
    ``on_blocked="reassign"`` since random steps cannot know about
    blocking."""
    rng = random.Random(seed)
    setup = rng.sample(range(key_range), key_range // 2)
    programs = {}
    for tid in range(thread_count):
        programs[tid] = [
            (rng.choice(("insert", "delete", "contains")), rng.randrange(key_range))
            for _ in range(rng.randint(1, ops_per_thread))]
    total_ops = sum(len(p) for p in programs.values())
    steps = [(rng.randrange(thread_count), rng.randint(1, 3))
             for _ in range(total_ops * 6)]
    return ScheduleScript(setup=setup, programs=programs, steps=steps)


def script_parallel_inserts() -> ScheduleScript:
    """Two inserts under different edges of the same parent, stepped in
    lockstep.  Both must succeed with zero restarts: the per-edge locks
    never collide."""
    return ScheduleScript(
        setup=[2],
        programs={0: [("insert", 1)], 1: [("insert", 3)]},
        steps=[(0, 1), (1, 1)] * 6,
    )


def script_twin_replacement() -> ScheduleScript:
    """A delete pauses right before locking the edge to its victim; the
    victim is deleted and re-inserted (a fresh node, same key) behind its
    back; the paused delete then resumes and must still succeed without
    restarting, because the edge lock validates by value, not identity."""
    return ScheduleScript(
        setup=[2, 1, 3],
        programs={0: [("delete", 3)], 1: [("delete", 3)], 2: [("insert", 3)]},
        # thread 0 walks to the leaf and its case reads (6 checkpoints),
        # then thread 1 deletes outright (11) and thread 2 re-inserts (6);
        # the drain lets thread 0 finish on the replacement node
        steps=[(0, 6), (1, 11), (2, 6)],
    )


def script_edge_conflict_restart() -> ScheduleScript:
    """Two inserts racing for the same empty edge.  The loser's
    conditional edge lock must fail with exactly one condition violation
    (the slot is no longer null) followed by one clean restart that
    relinks below the winner."""
    return ScheduleScript(
        setup=[2],
        programs={0: [("insert", 0)], 1: [("insert", 1)]},
        # thread 1 stops at the edge lock attempt; thread 0 fills the
        # edge completely; thread 1's attempt then condition-fails
        steps=[(1, 2), (0, 6)],
    )
