"""Workload configuration, the coarse-locked baseline, measurement
plumbing, CSV output, and the command line front end."""

import csv
import random
import threading
import time

import pytest

from cobst import bench, harness
from cobst.bench import (CSV_HEADER, RANGE_PRESETS, BenchResult, CoarseLockedSet,
                         WorkloadConfig, draw_op, make_set, prefill,
                         run_bench, thread_seed)
from cobst.cli import main
from cobst.concurrent_set import ConcurrentSet, Restart
from cobst.harness import emit_script
from cobst.history import HistoryRecorder, is_linearizable
from cobst.tree_core import MAX_KEY

from scenarios import script_parallel_inserts


# -- configuration ------------------------------------------------------------

def test_default_config_is_valid():
    WorkloadConfig().validate()
    WorkloadConfig(key_range=MAX_KEY + 1, prefill=False).validate()  # keys 0..MAX_KEY


@pytest.mark.parametrize("kw,msg", [
    (dict(impl="avl"), "impl"),
    (dict(threads=0), "threads"),
    (dict(key_range=1), "key range"),
    (dict(update_pct=-1), "update percentage"),
    (dict(update_pct=101), "update percentage"),
    (dict(duration_ms=0), "duration"),
    (dict(warmup_ms=-5), "warmup"),
    (dict(key_range=MAX_KEY + 2), "key range"),      # largest key past MAX_KEY
    (dict(threads=bench.MAX_THREADS + 1), "threads must be within 1..64"),
    (dict(key_range=bench.MAX_PREFILL_RANGE + 1), "no-prefill"),
])
def test_config_validation_errors(kw, msg):
    with pytest.raises(ValueError, match=msg):
        WorkloadConfig(**kw).validate()


def test_range_presets():
    assert RANGE_PRESETS == {"small": 2 ** 15, "medium": 2 ** 19, "large": 2 ** 21}


def test_thread_seed_is_deterministic_and_distinct():
    assert thread_seed(1, 0) == thread_seed(1, 0)
    seeds = {thread_seed(s, t) for s in range(4) for t in range(16)}
    assert len(seeds) == 64
    assert all(0 <= s < 2 ** 64 for s in seeds)


def test_drawn_mix_within_one_percent():
    rng = random.Random(6)
    n = 1_000_000
    counts = {"insert": 0, "delete": 0, "contains": 0}
    for _ in range(n):
        counts[draw_op(rng, 20)] += 1
    assert abs(counts["insert"] / n - 0.10) < 0.01
    assert abs(counts["delete"] / n - 0.10) < 0.01
    assert abs(counts["contains"] / n - 0.80) < 0.01


def test_drawn_mix_edges():
    rng = random.Random(7)
    assert {draw_op(rng, 0) for _ in range(1000)} == {"contains"}
    assert "contains" not in {draw_op(rng, 100) for _ in range(1000)}


# -- baseline implementation -------------------------------------------------

def test_make_set_dispatch():
    assert isinstance(make_set("co-bst"), ConcurrentSet)
    assert isinstance(make_set("coarse-bst"), CoarseLockedSet)
    with pytest.raises(ValueError):
        make_set("skiplist")


def test_coarse_set_matches_concurrent_set_key_for_key():
    coarse = CoarseLockedSet()
    fine = ConcurrentSet()
    rng = random.Random(3)
    for i in range(10_000):
        op = rng.choice(("insert", "delete", "contains"))
        k = rng.randrange(32)
        a = getattr(coarse, op)(k)
        b = getattr(fine, op)(k)
        assert a is b, "op %d: %s(%d)" % (i, op, k)
    assert coarse.snapshot_keys() == fine.snapshot_keys()
    assert fine.stats_snapshot()["restarts"] == 0


def test_coarse_set_concurrent_history_linearizes():
    s = CoarseLockedSet()
    rec = HistoryRecorder()
    rec_lock = threading.Lock()

    def worker(tid):
        rng = random.Random(tid)
        for _ in range(6):
            op = rng.choice(("insert", "delete", "contains"))
            k = rng.randrange(4)
            with rec_lock:
                rec.invoke(tid, op, k)
            got = getattr(s, op)(k)
            with rec_lock:
                rec.respond(tid, op, k, got)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert is_linearizable(rec.history()).ok


# -- prefill --------------------------------------------------------------------

def test_prefill_inserts_exactly_half_the_range():
    s = make_set("co-bst")
    n = prefill(s, 64, seed=9)
    assert n == 32
    keys = s.snapshot_keys()
    assert len(keys) == 32
    assert all(0 <= k < 64 for k in keys)


def test_prefill_is_deterministic_in_the_seed():
    a, b, c = make_set("co-bst"), make_set("co-bst"), make_set("co-bst")
    prefill(a, 64, seed=9)
    prefill(b, 64, seed=9)
    prefill(c, 64, seed=10)
    assert a.snapshot_keys() == b.snapshot_keys()
    assert a.snapshot_keys() != c.snapshot_keys()


# -- measurement ---------------------------------------------------------------

def small_cfg(**kw):
    base = dict(threads=1, key_range=64, update_pct=20,
                duration_ms=150, warmup_ms=20, seed=1)
    base.update(kw)
    return WorkloadConfig(**base)


@pytest.mark.parametrize("impl", ["co-bst", "coarse-bst"])
def test_bench_smoke(impl):
    r = run_bench(small_cfg(impl=impl, threads=2))
    assert r.impl == impl and r.threads == 2 and r.key_range == 64
    assert r.total_ops > 0
    assert r.throughput_ops_s > 0
    # the measured window is the sleep plus scheduling slack
    assert 150 <= r.duration_ms < 1500


def test_bench_mix_close_to_configured():
    r = run_bench(small_cfg(threads=2, update_pct=20, duration_ms=400))
    frac_ins = r.inserts / r.total_ops
    frac_del = r.deletes / r.total_ops
    frac_ctn = r.contains / r.total_ops
    assert abs(frac_ins - 0.10) < 0.03
    assert abs(frac_del - 0.10) < 0.03
    assert abs(frac_ctn - 0.80) < 0.05


def test_read_only_workload_never_updates_or_restarts():
    r = run_bench(small_cfg(threads=2, update_pct=0))
    assert r.inserts == 0 and r.deletes == 0
    assert r.contains == r.total_ops > 0
    assert r.restarts == 0
    assert r.update_ok == 0
    assert "updates succeeded" not in str(r)


def test_update_success_rate_is_reported_not_asserted():
    # prefilled to half the range, roughly half the updates should land,
    # but only the reporting is checked tightly
    r = run_bench(small_cfg(threads=1, update_pct=100, duration_ms=200))
    assert 0 < r.update_ok <= r.inserts + r.deletes
    assert "% of updates succeeded" in str(r)


def test_workload_is_drawn_before_the_threads_start(monkeypatch):
    started = []
    draws = []
    real_draw, real_start = bench.draw_op, threading.Thread.start
    monkeypatch.setattr(bench, "draw_op",
                        lambda rng, pct: draws.append(len(started))
                        or real_draw(rng, pct))
    monkeypatch.setattr(threading.Thread, "start",
                        lambda t: started.append(t) or real_start(t))
    monkeypatch.setattr(bench, "_STREAM_LEN", 256)   # many passes
    r = run_bench(small_cfg(threads=2, key_range=4096, update_pct=100,
                            duration_ms=200))
    assert draws == [0] * 512           # 2 streams, drawn before any start
    # the replayed passes keep the prefilled balance: without the key
    # shift, updates after the first pass would mostly fail
    assert r.total_ops > 10 * 512
    assert 0.3 < r.update_ok / r.total_ops < 0.7


class RestartsEachInsertOnce(ConcurrentSet):
    """Every insert's first attempt restarts; the second runs the real one."""

    _base_insert_attempt = ConcurrentSet._insert_attempt

    def _insert_attempt(self, ctx, tkey, st, v):
        if st.restarts < st.ops["insert"]:
            raise Restart
        return (yield from self._base_insert_attempt(ctx, tkey, st, v))


def test_restarts_are_the_sets_own(monkeypatch):
    threads = 2
    monkeypatch.setattr(bench, "make_set", lambda impl: RestartsEachInsertOnce())
    r = run_bench(small_cfg(threads=threads, update_pct=100))
    assert r.inserts > 100
    # each edge reads the counters and the set's stats a moment apart, so
    # a thread's insert in flight may be counted by one and not the other
    assert abs(r.restarts - r.inserts) <= 2 * threads
    monkeypatch.undo()
    r = run_bench(small_cfg(impl="coarse-bst", threads=threads, update_pct=100))
    assert r.inserts > 100 and r.restarts == 0


class InsertFailsAfterFour(CoarseLockedSet):
    """A broken set: its fifth insert, and every one after, raises."""

    inserts = 0

    def insert(self, v):
        self.inserts += 1
        if self.inserts > 4:
            raise RuntimeError("insert of %d broke" % v)
        return super().insert(v)


def test_a_worker_that_raises_fails_the_run(monkeypatch):
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    monkeypatch.setattr(bench, "make_set", lambda impl: InsertFailsAfterFour())
    with pytest.raises(bench.WorkerError,
                       match=r"^worker [01] raised RuntimeError: insert of \d+ broke$"
                       ) as err:
        run_bench(small_cfg(threads=2, update_pct=100, prefill=False))
    assert isinstance(err.value.__cause__, RuntimeError)
    assert hooked == []       # caught in the worker, not left to the hook


def test_a_worker_that_raises_ends_the_run_at_once(monkeypatch):
    monkeypatch.setattr(bench, "make_set", lambda impl: InsertFailsAfterFour())
    cfg = small_cfg(threads=2, update_pct=100, prefill=False,
                    warmup_ms=500, duration_ms=2000)
    t0 = time.monotonic()
    with pytest.raises(bench.WorkerError):
        run_bench(cfg)
    assert time.monotonic() - t0 < 0.5   # not after the warmup and window


# -- CSV -----------------------------------------------------------------------

def test_csv_header_is_frozen():
    assert CSV_HEADER == ("impl,threads,range,update_pct,duration_ms,"
                          "throughput_ops_s,inserts,deletes,contains,restarts")


def sample_result():
    return BenchResult(impl="co-bst", threads=4, key_range=1024, update_pct=20,
                       duration_ms=10_000, throughput_ops_s=123456.78,
                       inserts=100, deletes=90, contains=810, restarts=7)


def test_csv_row_matches_header_shape():
    r = sample_result()
    assert r.csv_row() == "co-bst,4,1024,20,10000,123456.8,100,90,810,7"
    assert r.csv_row().count(",") == CSV_HEADER.count(",")
    assert r.total_ops == 1000


def test_emit_csv_round_trips_the_numbers():
    # The CSV that `cobst bench --csv` emits is CSV_HEADER once, then one
    # csv_row() per result.
    r = sample_result()
    rows = list(csv.DictReader([CSV_HEADER, r.csv_row(), r.csv_row()]))
    assert len(rows) == 2
    got = rows[0]
    assert got["impl"] == r.impl
    assert int(got["threads"]) == r.threads
    assert int(got["range"]) == r.key_range
    assert int(got["update_pct"]) == r.update_pct
    assert int(got["duration_ms"]) == r.duration_ms
    assert float(got["throughput_ops_s"]) == round(r.throughput_ops_s, 1)
    assert int(got["inserts"]) == r.inserts
    assert int(got["deletes"]) == r.deletes
    assert int(got["contains"]) == r.contains
    assert int(got["restarts"]) == r.restarts


def test_result_str_mentions_the_figures():
    text = str(sample_result())
    assert "co-bst" in text and "4 thread(s)" in text and "20% updates" in text


# -- CLI: bench -----------------------------------------------------------------

def bench_args(*extra):
    return ["bench", "--threads", "1", "--range", "64",
            "--duration-ms", "80", "--warmup-ms", "10"] + list(extra)


def test_cli_bench_runs_and_appends_csv(tmp_path, capsys):
    csv = tmp_path / "r.csv"
    assert main(bench_args("--csv", str(csv))) == 0
    assert "ops/s" in capsys.readouterr().out
    assert main(bench_args("--csv", str(csv))) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3          # header written once, two rows


@pytest.mark.parametrize("where", ["dir", "missing/r.csv"])
def test_cli_bench_unwritable_csv_exits_2_before_the_run(tmp_path, monkeypatch,
                                                         capsys, where):
    def no_run(cfg):
        raise AssertionError("run_bench reached with an unwritable --csv")

    monkeypatch.setattr("cobst.cli.run_bench", no_run)
    (tmp_path / "dir").mkdir()
    assert main(bench_args("--csv", str(tmp_path / where))) == 2
    err = capsys.readouterr().err
    assert "cannot write --csv" in err and "Traceback" not in err


def test_cli_bench_worker_failure_exits_1_without_traceback(monkeypatch, capsys):
    monkeypatch.setattr(bench, "make_set", lambda impl: InsertFailsAfterFour())
    assert main(bench_args("--threads", "2", "--updates", "100",
                           "--no-prefill")) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("bench failed: worker ")
    assert "RuntimeError: insert of" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_cli_bench_accepts_presets(capsys):
    rc = main(["bench", "--range", "small", "--threads", "1", "--no-prefill",
               "--duration-ms", "60", "--warmup-ms", "5"])
    assert rc == 0
    assert "range 32768" in capsys.readouterr().out


def test_cli_bench_rejects_bad_range(capsys):
    assert main(bench_args()[:3] + ["--range", "tiny"]) == 2
    assert "bad --range" in capsys.readouterr().err
    # refused before anything is allocated or any thread starts
    assert main(bench_args("--range", str(2 ** 64), "--no-prefill")) == 2
    assert "key range" in capsys.readouterr().err


def test_cli_bench_refuses_a_prefill_that_cannot_fit(monkeypatch, capsys):
    def no_run(cfg):
        raise AssertionError("run_bench reached with range %d" % cfg.key_range)

    monkeypatch.setattr("cobst.cli.run_bench", no_run)
    WorkloadConfig(key_range=bench.MAX_PREFILL_RANGE).validate()
    for key_range in (bench.MAX_PREFILL_RANGE + 1, 2 ** 62):
        assert main(bench_args("--range", str(key_range))) == 2
        err = capsys.readouterr().err
        assert "too large to prefill" in err and "--no-prefill" in err
    WorkloadConfig(key_range=2 ** 62, prefill=False).validate()


def test_cli_bench_rejects_bad_config(capsys):
    assert main(bench_args("--updates", "150")) == 2
    assert "update percentage" in capsys.readouterr().err


def test_thread_count_is_capped_before_any_thread_starts(monkeypatch, capsys):
    WorkloadConfig(threads=bench.MAX_THREADS).validate()

    def no_run(cfg):
        raise AssertionError("run_bench reached with %d threads" % cfg.threads)

    monkeypatch.setattr("cobst.cli.run_bench", no_run)
    assert main(bench_args("--threads", "100000")) == 2
    assert "threads must be within 1..64" in capsys.readouterr().err


# -- CLI: check --------------------------------------------------------------------

GOOD_HISTORY = """\
0 0 INV INSERT 5
1 0 RES INSERT 5 true
2 1 INV CONTAINS 5
3 1 RES CONTAINS 5 true
"""

BAD_HISTORY = """\
0 0 INV INSERT 5
1 0 RES INSERT 5 true
2 1 INV INSERT 5
3 1 RES INSERT 5 true
"""


def test_cli_check_verdicts(tmp_path, capsys):
    good = tmp_path / "good.hist"
    good.write_text(GOOD_HISTORY)
    assert main(["check", "--history", str(good)]) == 0
    assert "LINEARIZABLE" in capsys.readouterr().out

    bad = tmp_path / "bad.hist"
    bad.write_text(BAD_HISTORY)
    assert main(["check", "--history", str(bad)]) == 1
    assert "NOT LINEARIZABLE" in capsys.readouterr().out


def test_cli_check_initial_state(tmp_path, capsys):
    h = tmp_path / "del.hist"
    h.write_text("0 0 INV DELETE 5\n1 0 RES DELETE 5 true\n")
    assert main(["check", "--history", str(h)]) == 1
    assert main(["check", "--history", str(h), "--initial", "5"]) == 0
    assert main(["check", "--history", str(h), "--initial", "5,banana"]) == 2
    capsys.readouterr()


def test_cli_check_bad_inputs(tmp_path, capsys):
    assert main(["check", "--history", str(tmp_path / "missing.hist")]) == 2
    assert "cannot read" in capsys.readouterr().err
    mangled = tmp_path / "m.hist"
    mangled.write_text("0 0 INV INSERT\n")
    assert main(["check", "--history", str(mangled)]) == 2
    assert "bad history" in capsys.readouterr().err


def test_cli_check_long_sequential_history(tmp_path, capsys):
    lines, present = [], set()
    for i in range(1500):
        op, key = ("insert", "contains", "delete")[i % 3], i % 7
        if op == "insert":
            ret = key not in present
            present.add(key)
        elif op == "delete":
            ret = key in present
            present.discard(key)
        else:
            ret = key in present
        lines.append("%d 0 INV %s %d" % (2 * i, op.upper(), key))
        lines.append("%d 0 RES %s %d %s" % (2 * i + 1, op.upper(), key, str(ret).lower()))
    long = tmp_path / "long.hist"
    long.write_text("\n".join(lines) + "\n")
    assert main(["check", "--history", str(long), "--max-ops", "5000"]) == 0
    assert capsys.readouterr().out.startswith("LINEARIZABLE")


def test_cli_check_size_refusal(tmp_path, capsys):
    lines = []
    for i in range(25):
        lines.append("%d %d INV INSERT %d" % (2 * i, 0, i))
        lines.append("%d %d RES INSERT %d true" % (2 * i + 1, 0, i))
    big = tmp_path / "big.hist"
    big.write_text("\n".join(lines) + "\n")
    assert main(["check", "--history", str(big)]) == 2
    assert "refused" in capsys.readouterr().err
    assert main(["check", "--history", str(big), "--max-ops", "25"]) == 0


# -- CLI: replay ----------------------------------------------------------------------

def test_cli_replay_clean_script(tmp_path, capsys):
    p = tmp_path / "par.script"
    p.write_text(emit_script(script_parallel_inserts()))
    assert main(["replay", "--script", str(p), "--kv"]) == 0
    out = capsys.readouterr().out
    assert "LINEARIZABLE" in out
    assert "final=1,2,3" in out
    assert "structure=ok" in out


def test_cli_replay_no_check_skips_the_verdict(tmp_path, capsys):
    p = tmp_path / "par.script"
    p.write_text(emit_script(script_parallel_inserts()))
    assert main(["replay", "--script", str(p), "--no-check"]) == 0
    assert "LINEARIZABLE" not in capsys.readouterr().out


class MarkingSet(ConcurrentSet):
    """Starts its trace with a mark of a node that never existed."""

    def __init__(self):
        super().__init__()
        self.trace.append(("mark", 99))


def test_cli_replay_audits_the_trace(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "ConcurrentSet", MarkingSet)
    p = tmp_path / "par.script"
    p.write_text(emit_script(script_parallel_inserts()))
    assert main(["replay", "--script", str(p), "--no-check"]) == 1
    assert "trace BROKEN" in capsys.readouterr().out


def test_cli_replay_bad_inputs(tmp_path, capsys):
    assert main(["replay", "--script", str(tmp_path / "nope.script")]) == 2
    assert "cannot read" in capsys.readouterr().err
    bad = tmp_path / "bad.script"
    bad.write_text("thread 0: fly(1)\n")
    assert main(["replay", "--script", str(bad)]) == 2
    assert "bad script" in capsys.readouterr().err
    bad.write_bytes(b"\xff\xfethread 0: insert(1)\n")     # not UTF-8
    assert main(["replay", "--script", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad script" in err and "utf-8" in err and "Traceback" not in err
    for text, msg in (("thread 0: insert(99999999999999999999)\n",
                       "outside the 64-bit signed range"),
                      ("setup: 9223372036854775807\nthread 0: insert(1)\n",
                       "internal sentinel"),
                      ("thread 0: insert(1)\nschedule: 3:1\n",
                       "unknown thread 3"),
                      ("thread 0: insert(1)\nthread 0: insert(2)\n",
                       "line 2: repeated directive 'thread 0'")):
        bad.write_text(text)
        assert main(["replay", "--script", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad script" in err and msg in err and "Traceback" not in err
    bad.write_text("thread 0: insert(1)\nschedule: 0:9223372036854775808\n")
    assert main(["replay", "--script", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "replay failed: schedule grants a step to finished thread 0" in err
    assert "Traceback" not in err


def test_cli_replay_blocked_schedule(tmp_path, capsys):
    blocked = tmp_path / "blocked.script"
    blocked.write_text("setup: 2\n"
                       "thread 0: insert(1)\n"
                       "thread 1: insert(0)\n"
                       "schedule: 0:3 1:3\n")
    assert main(["replay", "--script", str(blocked)]) == 2
    assert "replay failed" in capsys.readouterr().err


def test_cli_replay_grant_cap_overrun(tmp_path, capsys):
    # thread 1 keeps restarting while thread 0 sits between its mark and
    # its unlink, until the run's grant cap (10 000 + 1 000 per op) ends it
    p = tmp_path / "livelock.script"
    p.write_text("setup: 1 3\n"
                 "thread 0: delete(3)\n"
                 "thread 1: insert(2)\n"
                 "schedule: 0:10 1:30000\n")
    assert main(["replay", "--script", str(p)]) == 2
    err = capsys.readouterr().err
    assert "replay failed: run exceeded 14000 grants" in err
    assert "Traceback" not in err
