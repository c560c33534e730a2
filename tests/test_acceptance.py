"""End-to-end acceptance checks.

One test per numbered criterion, in order; each prints a single
``ACCEPTANCE n: PASS`` line with the measured figures (visible with
``pytest -s``).  Later criteria consume evidence collected by earlier
ones through the module-level dictionaries below.
"""

import os
import random
import threading
import time

from cobst.bench import WorkloadConfig, prefill, run_bench
from cobst.concurrent_set import ConcurrentSet
from cobst.harness import (explore_small, random_schedule, run_script,
                           script_edge_conflict_restart, script_parallel_inserts,
                           script_twin_replacement)
from cobst.history import (check_observable_correctness, is_linearizable,
                           linearizable_by_enumeration)
from cobst.tree_core import validate_structure

from histgen import corrupt_history, make_linearizable_history

# contains-attributed lock acquisitions observed per criterion; criterion 8
# asserts they are all zero.  Criterion 3 never touches a tree, so it has
# no entry.
CONTAINS_ACQ: dict = {}

# artifacts of the criterion-7 stress run, reused by criterion 9
STRESS: dict = {}


def note(n: int, text: str) -> None:
    print("ACCEPTANCE %d: PASS - %s" % (n, text))


def test_criterion_01_sequential_oracle_equivalence():
    t0 = time.perf_counter()
    acq = 0
    for seq in range(100):
        rng = random.Random(1_000 + seq)
        s = ConcurrentSet()
        oracle: set = set()
        for _ in range(10_000):
            op = rng.choice(("insert", "delete", "contains"))
            k = rng.randrange(256)
            got = s.run_op(op, k).result
            if op == "insert":
                want = k not in oracle
                oracle.add(k)
            elif op == "delete":
                want = k in oracle
                oracle.discard(k)
            else:
                want = k in oracle
            assert got == want, "sequence %d: %s(%d) returned %s" % (seq, op, k, got)
        assert s.snapshot_keys() == sorted(oracle)
        acq += s.stats_snapshot()["acquisitions"]["contains"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, "took %.1f s, limit is 30 s" % elapsed
    CONTAINS_ACQ[1] = acq
    note(1, "100 x 10^4 sequential ops matched the oracle in %.1f s" % elapsed)


def test_criterion_02_linearizability_stress():
    t0 = time.perf_counter()
    runs = 10_000
    acq = 0
    for i in range(runs):
        script = random_schedule(2 + i % 3, 6, 8, seed=i)
        rep = run_script(script, on_blocked="reassign")
        res = is_linearizable(rep.history, max_ops=40)
        assert res.ok, "run %d not linearizable:\n%s" % (i, rep)
        assert check_observable_correctness(rep.trace).ok, "run %d trace" % i
        assert rep.structure.ok and rep.locks_clean, "run %d left debris" % i
        acq += rep.acquisitions_by_op["contains"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, "took %.1f s, limit is 10 min" % elapsed
    CONTAINS_ACQ[2] = acq
    note(2, "%d scheduled mini-runs all linearizable in %.1f s" % (runs, elapsed))


def test_criterion_03_checker_selftest():
    rng = random.Random(9_000)
    clean, corrupted = 900, 150
    for i in range(clean):
        h = make_linearizable_history(rng, threads=3, max_ops=8)
        fast = is_linearizable(h).ok
        slow = linearizable_by_enumeration(h)
        assert fast and slow, "clean history %d rejected" % i
    for i in range(corrupted):
        h = corrupt_history(rng, make_linearizable_history(rng, threads=3, max_ops=7))
        fast = is_linearizable(h).ok
        slow = linearizable_by_enumeration(h)
        assert not fast and not slow, "corrupted history %d slipped through" % i
    note(3, "checker agreed with the permutation oracle on %d histories, "
            "all %d corrupted ones detected" % (clean + corrupted, corrupted))


def test_criterion_04_optimality_scenarios():
    par = run_script(script_parallel_inserts())
    assert [o.result for o in par.outcomes[0]] == [True]
    assert [o.result for o in par.outcomes[1]] == [True]
    assert par.restarts == {0: 0, 1: 0}, par.restarts
    assert par.final_keys == [1, 2, 3]

    twin = run_script(script_twin_replacement())
    assert all(o.result for outs in twin.outcomes.values() for o in outs)
    assert twin.restarts == {0: 0, 1: 0, 2: 0}, twin.restarts
    assert twin.final_keys == [1, 2]

    CONTAINS_ACQ[4] = (par.acquisitions_by_op["contains"]
                       + twin.acquisitions_by_op["contains"])
    note(4, "parallel inserts and twin deletes completed with zero restarts")


def test_criterion_05_rejection_scenario():
    rep = run_script(script_edge_conflict_restart())
    assert rep.cv_by_family == {"edge_ref": 1}, rep.cv_by_family
    assert sum(rep.restarts.values()) == 1, rep.restarts
    assert rep.final_keys == [0, 1, 2]     # what insert(0); insert(1) leaves
    assert rep.structure.ok and rep.locks_clean
    assert is_linearizable(rep.history, max_ops=40).ok
    CONTAINS_ACQ[5] = rep.acquisitions_by_op["contains"]
    note(5, "lost-update race cost exactly one edge violation and one restart")


def test_criterion_06_exhaustive_exploration():
    t0 = time.perf_counter()
    triple = explore_small([5], {0: [("insert", 5)],
                                 1: [("delete", 5)],
                                 2: [("contains", 5)]})
    assert triple.ok, str(triple)
    pair = explore_small([2], {0: [("insert", 1)], 1: [("insert", 3)]})
    assert pair.ok, str(pair)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, "took %.1f s, limit is 5 min" % elapsed
    CONTAINS_ACQ[6] = (triple.acquisitions_by_op.get("contains", 0)
                       + pair.acquisitions_by_op.get("contains", 0))
    note(6, "explored %d + %d interleavings clean in %.1f s"
            % (triple.interleavings, pair.interleavings, elapsed))


def test_criterion_07_structural_invariants_under_stress():
    nthreads, key_range, duration_s = 8, 2 ** 10, 10.0
    s = ConcurrentSet()
    prefill(s, key_range, seed=4)

    pause = threading.Event()
    gate = threading.Barrier(nthreads + 1)
    stop = [False]
    completed = [0] * nthreads
    errors: list = []

    def worker(tid):
        rng = random.Random(10_000 + tid)
        try:
            while not stop[0]:
                if pause.is_set():
                    gate.wait(timeout=60)    # everyone parked
                    gate.wait(timeout=60)    # validation done
                    continue
                r = rng.random() * 100.0
                k = rng.randrange(key_range)
                if r < 10.0:
                    s.insert(k)
                elif r < 20.0:
                    s.delete(k)
                else:
                    s.contains(k)
                completed[tid] += 1
        except Exception as e:             # noqa: BLE001 - reported below
            errors.append((tid, repr(e)))
            gate.abort()

    threads = [threading.Thread(target=worker, args=(tid,), daemon=True)
               for tid in range(nthreads)]
    for t in threads:
        t.start()

    samples = [sum(completed)]
    reports = []
    t0 = time.monotonic()
    next_validation = t0 + 0.5
    while time.monotonic() - t0 < duration_s and not errors:
        time.sleep(0.1)
        samples.append(sum(completed))
        if time.monotonic() >= next_validation:
            pause.set()
            try:
                gate.wait(timeout=60)
                reports.append(validate_structure(s))
                pause.clear()
                gate.wait(timeout=60)
            except threading.BrokenBarrierError:
                break                      # a worker died; asserted below
            next_validation += 0.5
    stop[0] = True
    pause.clear()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), "workers failed to stop"
    assert errors == [], errors

    final = validate_structure(s)
    bad = [str(r) for r in reports + [final] if not r.ok]
    assert bad == [], bad
    # every thread is parked between operations: no lock may be held
    assert [r.held_locks for r in reports + [final]] == [0] * (len(reports) + 1)
    assert len(reports) >= 15, "only %d stop-the-world validations" % len(reports)

    STRESS["samples"] = samples
    snap = s.stats_snapshot()
    CONTAINS_ACQ[7] = snap["acquisitions"]["contains"]
    note(7, "%d ops under 8 threads, %d mid-run validations, all clean"
            % (snap["completed"], len(reports)))


def test_criterion_08_contains_takes_no_locks():
    missing = [n for n in (1, 2, 4, 5, 6, 7) if n not in CONTAINS_ACQ]
    assert missing == [], "criteria %s left no evidence (did they fail?)" % missing
    assert all(v == 0 for v in CONTAINS_ACQ.values()), CONTAINS_ACQ
    note(8, "contains acquired 0 locks across criteria 1-7 "
            "(criterion 3 runs no tree operations)")


def test_criterion_09_progress_in_every_window():
    samples = STRESS.get("samples")
    assert samples is not None, "criterion 7 produced no samples (did it fail?)"
    deltas = [b - a for a, b in zip(samples, samples[1:])]
    assert all(d > 0 for d in deltas), \
        "stalled windows at %s" % [i for i, d in enumerate(deltas) if d <= 0]
    note(9, "completed-op counter grew in all %d stress windows (min +%d)"
            % (len(deltas), min(deltas)))


def test_criterion_10_scaling_advisory(tmp_path):
    artifact = tmp_path / "scaling_advisory.txt"

    def measure(impl, threads):
        return run_bench(WorkloadConfig(
            impl=impl, threads=threads, key_range=2 ** 15, update_pct=0,
            duration_ms=500, warmup_ms=150, seed=5)).throughput_ops_s

    hw = os.cpu_count() or 1
    co1 = measure("co-bst", 1)
    co8 = measure("co-bst", 8)
    coarse8 = measure("coarse-bst", 8)
    figures = ("hardware threads: %d\nco-bst 1T: %.0f ops/s\n"
               "co-bst 8T: %.0f ops/s\ncoarse-bst 8T: %.0f ops/s\n"
               % (hw, co1, co8, coarse8))
    ok = hw >= 8 and co8 >= 2 * co1 and co8 >= coarse8
    if ok:
        note(10, "scaling sanity met: " + figures.replace("\n", ", ").rstrip(", "))
    else:
        reason = ("fewer than 8 hardware threads" if hw < 8
                  else "throughput ratios below target")
        artifact.write_text(
            "scaling sanity advisory: NOT met on this machine (%s).\n%s"
            "This check is hardware-dependent and advisory only.\n"
            % (reason, figures))
        note(10, "advisory only: %s; wrote %s" % (reason, artifact))
