"""The three workloads: seeded inputs, start state, measured phase.

Inputs come only from the benchmark's own generators and ``--seed``;
nothing here calls ``cobst.bench`` helpers or ``random_schedule``, so a
change to those cannot change what is measured.  Work runs in segments;
between two segments the work is paused, a reference slice runs
(``refclock``), and the segment's results are checked and its latencies
folded into a histogram in reference units.  Only the segments are
timed.
"""

from __future__ import annotations

import random
import resource
import threading
import time
import traceback
from array import array
from dataclasses import dataclass

import cobst
from cobst import harness, history
from cobst.bench import CoarseLockedSet

from checks import (CONTAINS, DELETE, INSERT, OP_NAMES, RAISED,
                    checker_selftest, conservation, replay_segment,
                    walk_tree, witness_problems)
from refclock import R_NOMINAL, RefClock

__all__ = ["SET_WORKLOADS", "SetWorkload", "SetPhase", "VerifyPhase",
           "setup_only", "measure", "measure_traced"]


@dataclass(frozen=True)
class SetWorkload:
    key_bits: int
    mixes: tuple        # per thread: (insert %, delete %), contains the rest
    stream_len: int     # ops per thread, cycled
    chunk: int          # ops per thread per segment

    @property
    def threads(self) -> int:
        return len(self.mixes)


SET_WORKLOADS = {
    "read-mostly": SetWorkload(key_bits=17, mixes=((5, 5),),
                               stream_len=1 << 18, chunk=8192),
    # 25/25/50 overall, with every update on one thread: updates from two
    # threads at once can make EpochReclaimer._sweep raise (see README)
    "update-heavy": SetWorkload(key_bits=16, mixes=((50, 50), (0, 0)),
                                stream_len=1 << 17, chunk=4096),
}
SETUP_CHUNK = 8192        # prefill inserts between two reference slices

CORPUS_SIZE = 8192        # schedule scripts per verify round
CORPUS_CHUNK = 64         # scripts per segment
# the two exhaustive scenarios of tier-1 acceptance criterion 6
EXHAUSTIVE = (
    ([5], {0: [("insert", 5)], 1: [("delete", 5)], 2: [("contains", 5)]}),
    ([2], {0: [("insert", 1)], 1: [("insert", 3)]}),
)

# latency histogram: 1-ns bins in ref units up to 2^17 ns; slower units
# (every verify scenario, GIL hand-offs) go to an exact overflow list
_NBINS = 1 << 17


# -- inputs ---------------------------------------------------------------

def prefill_keys(seed: int, w: SetWorkload) -> array:
    rng = random.Random("%d:prefill" % seed)
    r = 1 << w.key_bits
    return array("i", rng.sample(range(r), r // 2))


def op_stream(seed: int, tid: int, w: SetWorkload):
    rng = random.Random("%d:stream:%d" % (seed, tid))
    n = w.stream_len
    ins = w.mixes[tid][0] / 100.0
    dele = ins + w.mixes[tid][1] / 100.0
    ops = array("b", bytes(n))
    keys = array("i", bytes(4 * n))
    rand, bits = rng.random, rng.getrandbits
    for i in range(n):
        r = rand()
        ops[i] = INSERT if r < ins else DELETE if r < dele else CONTAINS
        keys[i] = bits(w.key_bits)
    return ops, keys


def corpus_texts(seed: int) -> list[str]:
    """Schedule scripts in the ``cobst replay`` text format: 2-4 logical
    threads of 1-6 ops over keys 0-7, 0-4 setup keys, and a random step
    sequence (run with ``on_blocked="reassign"``).

    Thread and op counts cycle through a fixed pattern and only the ops,
    keys, setup and steps are drawn from the seed, so every seed's corpus
    has the same mix of small and large scripts."""
    rng = random.Random("%d:corpus" % seed)
    texts = []
    for i in range(CORPUS_SIZE):
        n_threads = 2 + i % 3
        lines = []
        setup = rng.sample(range(8), rng.randint(0, 4))
        if setup:
            lines.append("setup: " + " ".join(map(str, setup)))
        total = 0
        for tid in range(n_threads):
            n_ops = 1 + (i // 3 + 2 * tid) % 6
            total += n_ops
            lines.append("thread %d: " % tid + " ".join(
                "%s(%d)" % (rng.choice(OP_NAMES), rng.randrange(8))
                for _ in range(n_ops)))
        lines.append("schedule: " + " ".join(
            "%d:%d" % (rng.randrange(n_threads), rng.randint(1, 3))
            for _ in range(6 * total)))
        texts.append("\n".join(lines) + "\n")
    return texts


# -- start state ----------------------------------------------------------

def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()


def make_set(impl: str):
    return cobst.ConcurrentSet() if impl == "co-bst" else CoarseLockedSet()


def build_set(impl: str, keys: array, ref: RefClock):
    """The timed part of set-up: construct the set and insert ``keys``,
    in chunks with reference slices between them.  Returns the set, the
    ref seconds it took and the RSS growth in bytes."""
    rss0 = _rss_bytes()
    clock = time.perf_counter
    t0 = clock()
    s = make_set(impl)
    ins = s.insert
    dt = (clock() - t0) * ref.factor()
    for lo in range(0, len(keys), SETUP_CHUNK):
        chunk = keys[lo:lo + SETUP_CHUNK]
        t0 = clock()
        for k in chunk:
            ins(k)
        dt += (clock() - t0) * ref.factor()
    return s, dt, _rss_bytes() - rss0


def build_corpus(texts, ref: RefClock):
    """Parse the corpus with ``parse_script``, in chunks; returns the
    scripts and the ref seconds the parsing took."""
    scripts = []
    dt = 0.0
    parse = harness.parse_script
    for lo in range(0, len(texts), CORPUS_CHUNK * 4):
        chunk = texts[lo:lo + CORPUS_CHUNK * 4]
        t0 = time.perf_counter()
        scripts += [parse(t) for t in chunk]
        dt += (time.perf_counter() - t0) * ref.factor()
    return scripts, dt


def setup_only(workload: str, seed: int, impl: str, ref: RefClock) -> float:
    """Build the start state once; returns the program's share in ref s."""
    if workload == "verify":
        return build_corpus(corpus_texts(seed), ref)[1]
    return build_set(impl, prefill_keys(seed, SET_WORKLOADS[workload]), ref)[1]


# -- measured phase helpers -------------------------------------------------

class Latencies:
    """Per-unit latencies in ref ns: a 1-ns histogram plus overflow."""

    def __init__(self):
        self.hist = array("q", bytes(8 * _NBINS))
        self.over: list[float] = []
        self.n = 0

    def add(self, v: float) -> None:
        b = int(v)
        if b < _NBINS:
            self.hist[b] += 1
        else:
            self.over.append(v)
        self.n += 1

    def quantile(self, q: float) -> float:
        """Value at rank q*(n-1); inside a 1-ns bin the samples are taken
        as spread evenly over the bin."""
        rank = q * (self.n - 1)
        cum = 0
        for b, c in enumerate(self.hist):
            if c and cum + c > rank:
                return b + (rank - cum + 0.5) / c
            cum += c
        over = sorted(self.over)
        return over[min(int(rank - cum), len(over) - 1)]


def run_chunk(fns, ops, keys, lo, hi, res, lat, errors):
    """The timed loop: one call per op, timed around the call."""
    clock = time.perf_counter_ns
    j = 0
    for i in range(lo, hi):
        fn = fns[ops[i]]
        k = keys[i]
        t0 = clock()
        try:
            r = fn(k)
        except Exception:      # a unit that raises counts as failed
            r = RAISED
            if len(errors) < 5:
                errors.append(traceback.format_exc())
        t1 = clock()
        res[j] = r
        lat[j] = t1 - t0
        j += 1


class Crew:
    """Worker threads that each run one chunk per segment and park on a
    barrier in between, so the reference slice and the checks run while
    no set operation is in flight."""

    def __init__(self, n: int, body):
        self._body = body
        self._go = threading.Barrier(n + 1)
        self._done = threading.Barrier(n + 1)
        self._span = (0, 0)
        self._stop = False
        self._threads = [threading.Thread(target=self._loop, args=(tid,),
                                          daemon=True) for tid in range(n)]
        for t in self._threads:
            t.start()

    def _loop(self, tid):
        while True:
            self._go.wait()
            if self._stop:
                return
            try:
                self._body(tid, *self._span)
            except BaseException:
                self._done.abort()
                raise
            self._done.wait()

    def run(self, lo: int, hi: int) -> None:
        self._span = (lo, hi)
        self._go.wait()
        self._done.wait()

    def close(self) -> None:
        self._stop = True
        self._go.wait(timeout=30)
        for t in self._threads:
            t.join(timeout=30)
        if any(t.is_alive() for t in self._threads):
            raise RuntimeError("benchmark worker threads did not stop")


class NullSet:
    """Do-nothing set: the floor under the driver loop."""

    def contains(self, k):
        return False

    insert = delete = contains


# -- set workloads ------------------------------------------------------------

class SetPhase:
    """Measured phases of read-mostly or update-heavy on one set."""

    def __init__(self, w: SetWorkload, seed: int, s, initial: array):
        self.w = w
        self.s = s
        self.streams = [op_stream(seed, tid, w) for tid in range(w.threads)]
        self.res = [array("b", bytes(w.chunk)) for _ in range(w.threads)]
        self.lat = [array("q", bytes(8 * w.chunk)) for _ in range(w.threads)]
        self.errors: list[str] = []
        # one thread: membership table the stream is replayed against;
        # two threads: initial membership and per-key successful updates
        self.member = bytearray(1 << w.key_bits)
        for k in initial:
            self.member[k] = 1
        if w.threads > 1:
            self.initial = self.member
            self.ins_ok = array("i", bytes(4 << w.key_bits))
            self.del_ok = array("i", bytes(4 << w.key_bits))
        self.mismatches = 0
        self.raised = 0
        self.seg = 0

    def phase(self, seconds: float, ref: RefClock, tracer=None):
        """Run segments for ``seconds``; returns (units, ref seconds, wall
        seconds, Latencies)."""
        w = self.w
        s = self.s
        fns = (s.contains, s.insert, s.delete)   # bound after any patching
        lats = Latencies()

        def body(tid, lo, hi):
            ops, keys = self.streams[tid]
            run_chunk(fns, ops, keys, lo, hi, self.res[tid], self.lat[tid],
                      self.errors)

        crew = Crew(w.threads, body) if w.threads > 1 else None
        units = 0
        ref_s = wall_s = 0.0
        per_pass = w.stream_len // w.chunk
        clock = time.perf_counter_ns
        t_end = time.monotonic() + seconds
        ref.start()
        try:
            while True:
                lo = (self.seg % per_pass) * w.chunk
                hi = lo + w.chunk
                t0 = clock()
                if crew is None:
                    body(0, lo, hi)
                else:
                    crew.run(lo, hi)
                t1 = clock()
                f = ref.factor()
                if tracer is not None:
                    tracer.flush(f)
                ref_s += (t1 - t0) * 1e-9 * f
                wall_s += (t1 - t0) * 1e-9
                units += w.chunk * w.threads
                self.seg += 1
                for tid in range(w.threads):
                    self._check(tid, lo, hi)
                    lat = self.lat[tid]
                    for j in range(w.chunk):
                        lats.add(lat[j] * f)
                if time.monotonic() >= t_end:
                    break
        finally:
            if crew is not None:
                crew.close()
        return units, ref_s, wall_s, lats

    def _check(self, tid, lo, hi):
        """Checks that need the segment's results, run while paused."""
        ops, keys = self.streams[tid]
        res = self.res[tid]
        if self.w.threads == 1:
            # an op that raised never matches the reference: counted here
            self.mismatches += replay_segment(self.member, ops, keys, lo, hi, res)
            return
        self.raised += res[:hi - lo].count(RAISED)
        ins_ok, del_ok = self.ins_ok, self.del_ok
        j = 0
        for i in range(lo, hi):
            if res[j] == 1:
                op = ops[i]
                if op == INSERT:
                    ins_ok[keys[i]] += 1
                elif op == DELETE:
                    del_ok[keys[i]] += 1
            j += 1

    def final_checks(self):
        """Whole-run checks on the quiescent set; returns (problems, walk)."""
        s = self.s
        probs = []
        walk = walk_tree(s.root)
        probs += walk.problems
        rep = cobst.tree_core.validate_structure(s)
        if not rep.ok:
            probs.append(str(rep))
        if self.w.threads == 1:
            want = [k for k in range(len(self.member)) if self.member[k]]
            if walk.keys != want:
                probs.append("final key set differs from the replayed reference")
        else:
            bad = conservation(self.initial, self.ins_ok, self.del_ok, walk.keys)
            if bad:
                probs.append("%d keys break per-key conservation, first %s"
                             % (len(bad), bad[:5]))
        if hasattr(s, "stats_snapshot"):
            acq = s.stats_snapshot()["acquisitions"]["contains"]
            if acq:
                probs.append("contains took %d locks" % acq)
        if self.mismatches:
            probs.append("%d results differ from the replayed reference"
                         % self.mismatches)
        probs += self.errors
        return probs, walk

    def failed(self) -> int:
        return self.mismatches + self.raised


def driver_floor_ns(w: SetWorkload, seed: int, ref: RefClock) -> float:
    """ns per op of the timed loop against a do-nothing set."""
    ops, keys = op_stream(seed, 0, w)
    null = NullSet()
    fns = (null.contains, null.insert, null.delete)
    res = array("b", bytes(w.chunk))
    lat = array("q", bytes(8 * w.chunk))
    total = 0.0
    ref.start()
    rounds = 16
    for c in range(rounds):
        lo = (c % (w.stream_len // w.chunk)) * w.chunk
        t0 = time.perf_counter_ns()
        run_chunk(fns, ops, keys, lo, lo + w.chunk, res, lat, [])
        t1 = time.perf_counter_ns()
        total += (t1 - t0) * ref.factor()
    return total / (rounds * w.chunk)


# -- verify ---------------------------------------------------------------------

class VerifyPhase:
    """Measured phases of the verify workload: whole rounds of the corpus
    plus the exhaustive scenarios."""

    def __init__(self, seed: int, scripts):
        self.seed = seed
        self.scripts = scripts
        self.failed_units = 0
        self.problems: list[str] = []

    def phase(self, seconds: float, ref: RefClock, tracer=None):
        clock = time.perf_counter_ns
        lats = Latencies()
        units = 0
        ref_s = wall_s = 0.0
        t_end = time.monotonic() + seconds
        ref.start()
        while True:       # whole rounds only
            for lo in range(0, len(self.scripts), CORPUS_CHUNK):
                batch = self.scripts[lo:lo + CORPUS_CHUNK]
                outs = []
                lat = []
                run, lin_check = harness.run_script, history.is_linearizable
                obs_check = history.check_observable_correctness
                t0 = clock()
                for script in batch:
                    a = clock()
                    try:
                        rep = run(script, on_blocked="reassign")
                        out = (rep, lin_check(rep.history, max_ops=40),
                               obs_check(rep.trace))
                    except Exception:
                        out = traceback.format_exc()
                    lat.append(clock() - a)
                    outs.append(out)
                t1 = clock()
                f = ref.factor()
                if tracer is not None:
                    tracer.flush(f)
                ref_s += (t1 - t0) * 1e-9 * f
                wall_s += (t1 - t0) * 1e-9
                units += len(batch)
                for v in lat:
                    lats.add(v * f)
                for out in outs:
                    self._check_script(out)
            for setup, programs in EXHAUSTIVE:
                explore = harness.explore_small
                t0 = clock()
                try:
                    rep = explore(setup, programs)
                except Exception:
                    rep = traceback.format_exc()
                t1 = clock()
                f = ref.factor()
                if tracer is not None:
                    tracer.flush(f)
                ref_s += (t1 - t0) * 1e-9 * f
                wall_s += (t1 - t0) * 1e-9
                units += 1
                lats.add((t1 - t0) * f)
                if isinstance(rep, str) or not rep.ok:
                    self._fail(str(rep))
            if time.monotonic() >= t_end:
                break
        return units, ref_s, wall_s, lats

    def _fail(self, msg: str) -> None:
        self.failed_units += 1
        if len(self.problems) < 5:
            self.problems.append(msg)

    def _check_script(self, out) -> None:
        if isinstance(out, str):
            self._fail(out)
            return
        rep, lin, obs = out
        probs = witness_problems(lin, rep.history.complete_ops(), rep.final_keys)
        if not obs.ok:
            probs.append(str(obs))
        if not rep.structure.ok:
            probs.append(str(rep.structure))
        if not rep.locks_clean:
            probs.append("locks left held")
        if rep.acquisitions_by_op["contains"]:
            probs.append("contains took locks")
        if probs:
            self._fail("; ".join(probs))

    def final_checks(self):
        """Returns (problems, None): nothing to walk after verify."""
        return (checker_selftest(history.is_linearizable, self.seed)
                + self.problems), None

    def failed(self) -> int:
        return self.failed_units


# -- entry points ---------------------------------------------------------------

def _start_state(workload, seed, impl, ref):
    """Inputs plus the timed build; returns (phase object, build ref s,
    RSS growth per key)."""
    if workload == "verify":
        scripts, dt = build_corpus(corpus_texts(seed), ref)
        return VerifyPhase(seed, scripts), dt, 0.0
    w = SET_WORKLOADS[workload]
    keys = prefill_keys(seed, w)
    s, dt, grew = build_set(impl, keys, ref)
    return SetPhase(w, seed, s, keys), dt, grew / len(keys)


def _end_to_end(units, ref_s, lats):
    return {
        "throughput_per_ref_s": units / ref_s,
        "latency_p50_ref_us": lats.quantile(0.50) / 1e3,
        "latency_p99_ref_us": lats.quantile(0.99) / 1e3,
    }


def _opstats(before: dict, after: dict) -> dict:
    """The set's own counters over one phase, from two snapshots."""
    def upd(d):
        return d["insert"] + d["delete"]
    return {
        "updates": upd(after["ops"]) - upd(before["ops"]),
        "restarts": after["restarts"] - before["restarts"],
        "update_locks": upd(after["acquisitions"]) - upd(before["acquisitions"]),
        "cond_violations": sum(after["cond_violations"].values())
        - sum(before["cond_violations"].values()),
        "contended": sum(after["contended_aborts"].values())
        - sum(before["contended_aborts"].values()),
    }


def measure(workload: str, seed: int, seconds: float, impl: str,
            import_s: float, ref: RefClock) -> dict:
    """One untraced measured run: the end-to-end figures."""
    phase, build_s, _ = _start_state(workload, seed, impl, ref)
    units, ref_s, wall_s, lats = phase.phase(seconds, ref)
    # read before the final checks and percentiles: their temporaries are
    # the benchmark's, not the program's
    out = {"setup_s": import_s + build_s,
           "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    problems, _ = phase.final_checks()
    out.update(_end_to_end(units, ref_s, lats))
    out.update(attempted=units, failed=phase.failed(), problems=problems,
               raw_units_per_s=units / wall_s,
               ref_rate_median=sorted(ref.rates)[len(ref.rates) // 2])
    return out


def measure_traced(workload: str, seed: int, seconds: float, impl: str,
                   ref: RefClock, spans_path) -> dict:
    """The traced run: an untraced third as the overhead baseline, a
    traced third, then the figures measured outside the phase."""
    from tracing import Tracer, layer_metrics
    phase, _, bytes_per_key = _start_state(workload, seed, impl, ref)
    base_units, base_s, _, _ = phase.phase(seconds / 3.0, ref)
    set_ = getattr(phase, "s", None)
    before = set_.stats_snapshot() if set_ is not None else None
    tracer = Tracer()
    tracer.install()
    try:
        units, ref_s, _, _ = phase.phase(seconds / 3.0, ref, tracer)
        problems, walk = phase.final_checks()
        tracer.flush(ref.rates[-1] / R_NOMINAL)
    finally:
        tracer.uninstall()
    opstats, shape = {}, {}
    if set_ is not None:
        opstats = _opstats(before, set_.stats_snapshot())
        shape = {"bytes_per_key": bytes_per_key, "mean_depth": walk.mean_depth,
                 "max_depth": walk.max_depth,
                 "routing_share": walk.routing / walk.nodes,
                 "pending_end": set_.reclaimer.pending()}
    extra = {"trace.overhead_ratio": (ref_s / units) / (base_s / base_units),
             "bench.driver_ns_per_op":
                 driver_floor_ns(SET_WORKLOADS["read-mostly"], seed, ref),
             "bench.run_bench_ops_s": _run_bench_ops(seed, ref)}
    tracer.write_spans(spans_path)
    return {"attempted": units, "failed": phase.failed(), "problems": problems,
            "layers": layer_metrics(tracer, units, opstats, shape, extra)}


def _run_bench_ops(seed: int, ref: RefClock) -> float:
    """``cobst.bench.run_bench`` on the read-mostly mix, in ops per ref s."""
    from cobst.bench import WorkloadConfig, run_bench
    w = SET_WORKLOADS["read-mostly"]
    ref.start()
    res = run_bench(WorkloadConfig(
        impl="co-bst", threads=1, key_range=1 << w.key_bits,
        update_pct=sum(w.mixes[0]), duration_ms=1000,
        warmup_ms=200, seed=seed))
    return res.throughput_ops_s / ref.factor()
