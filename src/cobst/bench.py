"""Throughput benchmark in the style of the synchrobench harness.

A workload is a key range, a thread count and an update percentage x:
each thread draws operations from its own seeded generator, picking
insert with probability x/2 %, delete with x/2 % and contains otherwise,
over uniformly random keys.  The draws are made before timing starts:
each thread replays its stream of 2^14 draws, shifting the keys by one
more on every pass, so the measured loop does not pay for the random
number generator.  The structure is prefilled to half the key range so
successful and failing updates stay roughly balanced during the run.

Timing uses a warmup phase and a measured window carved out of a longer
run: workers call the set's own ``contains``/``insert``/``delete`` until
a shared stop flag flips, each counting its operations and successful
updates, and the main thread reads those counters and the set's restart
count (``stats_snapshot()``; the coarse set has none) at the window
edges, so no barrier disturbs the steady state.  Workers check only the
flag per operation; the clock lives with the coordinator.  A worker that
raises stops the run at once: it sets an event the coordinator waits on
in place of sleeping, and ``run_bench`` raises ``WorkerError`` naming it.

Two implementations can be driven: the fine-grained concurrent set
("co-bst") and the sequential tree behind one global mutex
("coarse-bst"), which is the baseline any finer scheme has to beat.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from .concurrent_set import ConcurrentSet
from .tree_core import MAX_KEY, SequentialBst

__all__ = ["WorkloadConfig", "BenchResult", "WorkerError", "CoarseLockedSet",
           "run_bench", "CSV_HEADER", "RANGE_PRESETS", "thread_seed", "draw_op"]

IMPLS = ("co-bst", "coarse-bst")
MAX_THREADS = 64    # each is an OS thread, and the GIL runs one at a time
# prefill inserts half the range: 2^22 nodes, about 0.6 GiB at 152 B a node
MAX_PREFILL_RANGE = 2 ** 23

# the standard experiment sizes; pass any other range explicitly
RANGE_PRESETS = {"small": 2 ** 15, "medium": 2 ** 19, "large": 2 ** 21}

CSV_HEADER = ("impl,threads,range,update_pct,duration_ms,throughput_ops_s,"
              "inserts,deletes,contains,restarts")

_GOLDEN = 0x9E3779B97F4A7C15

_STREAM_LEN = 1 << 14    # ops pre-drawn per thread, replayed in passes


def thread_seed(seed: int, tid: int) -> int:
    """Per-thread generator seed: distinct, deterministic, well mixed."""
    return (seed * _GOLDEN + tid) & (2 ** 64 - 1)


def draw_op(rng: random.Random, update_pct: int) -> str:
    """One draw from the workload mix: update_pct/2 % insert, the same
    for delete, contains otherwise."""
    r = rng.random() * 100.0
    if r < update_pct / 2.0:
        return "insert"
    if r < update_pct:
        return "delete"
    return "contains"


class CoarseLockedSet:
    """The sequential tree behind a single global mutex."""

    def __init__(self):
        self._bst = SequentialBst()
        self._mutex = threading.Lock()
        self.root = self._bst.root

    def contains(self, v) -> bool:
        with self._mutex:
            return self._bst.seq_contains(v)

    def insert(self, v) -> bool:
        with self._mutex:
            return self._bst.seq_insert(v)

    def delete(self, v) -> bool:
        with self._mutex:
            return self._bst.seq_delete(v)

    def snapshot_keys(self):
        with self._mutex:
            return self._bst.snapshot_keys()


@dataclass
class WorkloadConfig:
    impl: str = "co-bst"
    threads: int = 1
    key_range: int = RANGE_PRESETS["small"]
    update_pct: int = 20
    duration_ms: int = 10_000
    warmup_ms: int = 5_000
    seed: int = 1
    prefill: bool = True

    def validate(self) -> None:
        if self.impl not in IMPLS:
            raise ValueError("impl must be one of %s, got %r" % (IMPLS, self.impl))
        if not 1 <= self.threads <= MAX_THREADS:
            raise ValueError("threads must be within 1..%d" % MAX_THREADS)
        if not 2 <= self.key_range <= MAX_KEY + 1:
            raise ValueError("key range must be within 2..%d" % (MAX_KEY + 1))
        if self.prefill and self.key_range > MAX_PREFILL_RANGE:
            raise ValueError("key range %d is too large to prefill (at most %d); "
                             "use --no-prefill" % (self.key_range, MAX_PREFILL_RANGE))
        if not 0 <= self.update_pct <= 100:
            raise ValueError("update percentage must be within 0..100")
        if self.duration_ms <= 0:
            raise ValueError("duration must be positive")
        if self.warmup_ms < 0:
            raise ValueError("warmup cannot be negative")


@dataclass
class BenchResult:
    impl: str
    threads: int
    key_range: int
    update_pct: int
    duration_ms: int          # measured window, not the configured target
    throughput_ops_s: float
    inserts: int
    deletes: int
    contains: int
    restarts: int
    update_ok: int = 0        # successful updates; informational only

    @property
    def total_ops(self) -> int:
        return self.inserts + self.deletes + self.contains

    def csv_row(self) -> str:
        return "%s,%d,%d,%d,%d,%.1f,%d,%d,%d,%d" % (
            self.impl, self.threads, self.key_range, self.update_pct,
            self.duration_ms, self.throughput_ops_s,
            self.inserts, self.deletes, self.contains, self.restarts)

    def __str__(self):
        text = ("%s: %d thread(s), range %d, %d%% updates: "
                "%.0f ops/s over %d ms (%d ins / %d del / %d ctn, %d restarts)"
                % (self.impl, self.threads, self.key_range, self.update_pct,
                   self.throughput_ops_s, self.duration_ms,
                   self.inserts, self.deletes, self.contains, self.restarts))
        updates = self.inserts + self.deletes
        if updates:
            text += ", %.0f%% of updates succeeded" % (100.0 * self.update_ok
                                                       / updates)
        return text


class WorkerError(RuntimeError):
    """A benchmark worker raised; the run measured nothing."""


class _WorkerCounters:
    __slots__ = ("inserts", "deletes", "contains", "update_ok")

    def __init__(self):
        self.inserts = 0
        self.deletes = 0
        self.contains = 0
        self.update_ok = 0


def _totals(counters: list) -> list:
    """Each counter summed over the workers, in ``__slots__`` order."""
    return [sum(getattr(c, f) for c in counters)
            for f in _WorkerCounters.__slots__]


def make_set(impl: str):
    if impl == "co-bst":
        return ConcurrentSet()
    if impl == "coarse-bst":
        return CoarseLockedSet()
    raise ValueError("unknown impl %r" % (impl,))


def prefill(set_, key_range: int, seed: int) -> int:
    """Insert a deterministic half of the key range."""
    rng = random.Random(seed)
    keys = rng.sample(range(key_range), key_range // 2)
    n = 0
    for k in keys:
        n += bool(set_.insert(k))
    return n


def _draw_stream(cfg: WorkloadConfig, tid: int) -> tuple[list, list]:
    """Thread ``tid``'s ops and keys, drawn from its seeded generator
    before any thread starts, so the timed loop only replays them."""
    rng = random.Random(thread_seed(cfg.seed, tid))
    ops, keys = [], []
    for _ in range(_STREAM_LEN):
        ops.append(draw_op(rng, cfg.update_pct))
        keys.append(rng.randrange(cfg.key_range))
    return ops, keys


def _worker(set_, key_range: int, stream: tuple[list, list],
            counters: _WorkerCounters, stop: list, failures: list,
            failed: threading.Event, tid: int):
    ops, keys = stream
    contains, insert, delete = set_.contains, set_.insert, set_.delete
    shift = 0
    try:
        while True:
            for op, key in zip(ops, keys):
                if stop[0]:
                    return
                k = (key + shift) % key_range
                if op == "contains":
                    contains(k)
                    counters.contains += 1
                elif op == "insert":
                    counters.update_ok += insert(k)
                    counters.inserts += 1
                else:
                    counters.update_ok += delete(k)
                    counters.deletes += 1
            # each pass shifts the keys by one more: replaying the same
            # op/key pairs would make every update after the first pass fail
            shift += 1
    except Exception as e:   # run_bench raises it; the other workers stop
        failures.append((tid, e))
        stop[0] = True
        failed.set()


def run_bench(cfg: WorkloadConfig) -> BenchResult:
    cfg.validate()
    set_ = make_set(cfg.impl)
    if cfg.prefill:
        prefill(set_, cfg.key_range, cfg.seed)

    stats = getattr(set_, "stats_snapshot", lambda: {"restarts": 0})
    stop = [False]
    failures: list = []
    failed = threading.Event()   # set by a worker that raises; ends the waits
    counters = [_WorkerCounters() for _ in range(cfg.threads)]
    threads = [threading.Thread(target=_worker,
                                args=(set_, cfg.key_range, _draw_stream(cfg, tid),
                                      counters[tid], stop, failures, failed, tid),
                                daemon=True)
               for tid in range(cfg.threads)]
    for t in threads:
        t.start()

    failed.wait(cfg.warmup_ms / 1000.0)
    t0 = time.monotonic()
    before = _totals(counters) + [stats()["restarts"]]
    failed.wait(cfg.duration_ms / 1000.0)
    after = _totals(counters) + [stats()["restarts"]]
    t1 = time.monotonic()
    stop[0] = True
    for t in threads:
        t.join()
    if failures:
        tid, exc = failures[0]
        raise WorkerError("worker %d raised %s: %s"
                          % (tid, type(exc).__name__, exc)) from exc

    ins, dele, ctn, ok, rst = (a - b for a, b in zip(after, before))
    elapsed = t1 - t0
    total = ins + dele + ctn
    return BenchResult(
        impl=cfg.impl, threads=cfg.threads, key_range=cfg.key_range,
        update_pct=cfg.update_pct, duration_ms=int(elapsed * 1000),
        throughput_ops_s=total / elapsed if elapsed > 0 else 0.0,
        inserts=ins, deletes=dele, contains=ctn, restarts=rst, update_ok=ok)
