"""Runtime spans around the public functions of each cobst layer.

The traced run replaces layer functions with wrappers from this file;
nothing in cobst changes.  Each wrapper records a span (name, start,
end, parent span) and adds to per-(name, parent name) totals: call
count, inclusive time and self time (inclusive time minus the time of
its child spans).  Where a module imports a wrapped function by name,
that name is patched too, so those calls land inside the spans.

Totals are kept per thread, in raw nanoseconds, and folded into
reference units at every segment boundary by ``flush(factor)``, while
the measured work is paused.  The first ``SPAN_LIMIT`` raw spans are
kept for the trace file.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

import cobst.concurrent_set
import cobst.harness
import cobst.history
import cobst.reclaim
import cobst.rwlock
import cobst.tree_core

__all__ = ["Tracer", "PER_LAYER"]

SPAN_LIMIT = 20_000

OP_SPANS = ("concurrent_set.contains", "concurrent_set.insert",
            "concurrent_set.delete")
UPDATE_SPANS = OP_SPANS[1:]
RWLOCK_SPANS = ("rwlock.acquire", "rwlock.attempt", "rwlock.unlock")

# name -> unit, in report order; BENCHMARK.json gives each one's direction
PER_LAYER = {
    "concurrent_set.contains_us": "ref_us",
    "concurrent_set.update_us": "ref_us",
    "concurrent_set.self_us_per_op": "ref_us",
    "concurrent_set.attempts_per_update": "ratio",
    "concurrent_set.locks_per_update": "count",
    "concurrent_set.cond_violations_per_mop": "1/Mop",
    "concurrent_set.contended_per_mop": "1/Mop",
    "rwlock.attempt_ns": "ref_ns",
    "rwlock.unlock_ns": "ref_ns",
    "rwlock.acquired_ratio": "ratio",
    "rwlock.update_share": "ratio",
    "rwlock.spin_pauses": "1/Mop",
    "tree_core.node_init_ns": "ref_ns",
    "tree_core.bytes_per_key": "B",
    "tree_core.mean_depth": "nodes",
    "tree_core.max_depth": "nodes",
    "tree_core.routing_share": "ratio",
    "tree_core.validate_ms": "ref_ms",
    "reclaim.pin_unpin_ns": "ref_ns",
    "reclaim.retired_per_kupdate": "count",
    "reclaim.epoch_advances": "1/Mop",
    "reclaim.pending_end": "nodes",
    "history.lin_check_us": "ref_us",
    "history.obs_check_us": "ref_us",
    "history.recorder_ns_per_event": "ref_ns",
    "harness.replay_us": "ref_us",
    "harness.grants_per_run": "count",
    "harness.explore_s": "ref_s",
    "harness.interleavings": "count",
    "bench.driver_ns_per_op": "ref_ns",
    "bench.run_bench_ops_s": "1/ref_s",
    "trace.overhead_ratio": "ratio",
}


def _add(counters, key, n):
    counters[key] = counters.get(key, 0) + n


def _count_acquired(counters, out):
    _add(counters, "acquired", out is cobst.rwlock.LockOutcome.ACQUIRED)


def _count_advance(counters, advanced):
    _add(counters, "epoch_advances", bool(advanced))


def _count_run(counters, rep):
    """Op statistics of one scheduled run, the harness's counterpart of
    ``stats_snapshot()`` on the production path.  Setup inserts count as
    updates: their locks are in ``acquisitions_by_op`` too."""
    outs = [o for outs in rep.outcomes.values() for o in outs]
    _add(counters, "grants", len(rep.realized))
    _add(counters, "updates",
         sum(o.op != "contains" for o in outs) + len(rep.script.setup))
    _add(counters, "restarts", sum(o.restarts for o in outs))
    _add(counters, "update_locks", rep.acquisitions_by_op["insert"]
         + rep.acquisitions_by_op["delete"])
    _add(counters, "cond_violations", sum(rep.cv_by_family.values()))
    _add(counters, "contended", sum(rep.contended_by_family.values()))


def _count_interleavings(counters, rep):
    _add(counters, "interleavings", rep.interleavings)


# (owner, attribute, span name, result hook)
_TARGETS = [
    (cobst.concurrent_set.ConcurrentSet, "contains", "concurrent_set.contains", None),
    (cobst.concurrent_set.ConcurrentSet, "insert", "concurrent_set.insert", None),
    (cobst.concurrent_set.ConcurrentSet, "delete", "concurrent_set.delete", None),
    (cobst.rwlock.CondRwLock, "lock_with_spin", "rwlock.acquire", None),
    (cobst.rwlock.CondRwLock, "try_lock_with_condition", "rwlock.attempt",
     _count_acquired),
    (cobst.rwlock.CondRwLock, "unlock", "rwlock.unlock", None),
    (cobst.rwlock.SpinPolicy, "pause", "rwlock.pause", None),
    (cobst.tree_core.Node, "__init__", "tree_core.node_init", None),
    (cobst.tree_core, "validate_structure", "tree_core.validate", None),
    (cobst.harness, "validate_structure", "tree_core.validate", None),
    (cobst.reclaim.EpochReclaimer, "pin", "reclaim.pin", None),
    (cobst.reclaim.EpochReclaimer, "unpin", "reclaim.unpin", None),
    (cobst.reclaim.EpochReclaimer, "retire", "reclaim.retire", None),
    (cobst.reclaim.EpochReclaimer, "try_advance", "reclaim.try_advance",
     _count_advance),
    (cobst.history, "is_linearizable", "history.is_linearizable", None),
    (cobst.harness, "is_linearizable", "history.is_linearizable", None),
    (cobst.history, "check_observable_correctness", "history.obs_check", None),
    (cobst.harness, "check_observable_correctness", "history.obs_check", None),
    (cobst.history.HistoryRecorder, "invoke", "history.record", None),
    (cobst.history.HistoryRecorder, "respond", "history.record", None),
    (cobst.harness, "run_script", "harness.run_script", _count_run),
    (cobst.harness, "explore_small", "harness.explore_small",
     _count_interleavings),
]


class _ThreadState:
    __slots__ = ("stack", "pairs", "counters")

    def __init__(self):
        self.stack: list = []      # frames: [child ns, name, span id]
        self.pairs: dict = {}      # (name, parent name) -> [count, ns, self ns]
        self.counters: dict = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list = []
        # folded totals: (name, parent) -> [count, ref ns, self ref ns]
        self.pairs: dict = {}
        self.counters: dict = {}
        self.spans: list = []      # (id, name, start ns, end ns, parent id)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, hook in _TARGETS:
            orig = getattr(owner, attr)
            setattr(owner, attr, self._wrap(orig, name, hook))
            self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(st)
            return st

    def _wrap(self, fn, name, hook):
        state = self._state
        clock = time.perf_counter_ns
        ids = self._ids
        spans = self.spans

        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [0, name, next(ids)]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                pname = None
                pid = 0
                if parent is not None:
                    parent[0] += dur
                    pname = parent[1]
                    pid = parent[2]
                acc = st.pairs.get((name, pname))
                if acc is None:
                    acc = st.pairs[(name, pname)] = [0, 0, 0]
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[0]
                if len(spans) < SPAN_LIMIT:
                    spans.append((frame[2], name, t0, t1, pid))
            if hook is not None:
                hook(st.counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- folding -----------------------------------------------------------

    def flush(self, factor: float) -> None:
        """Fold every thread's raw totals into ``pairs`` in ref units.
        Call only while the traced work is paused."""
        for st in self._states:
            for key, (n, ns, self_ns) in st.pairs.items():
                acc = self.pairs.get(key)
                if acc is None:
                    acc = self.pairs[key] = [0, 0.0, 0.0]
                acc[0] += n
                acc[1] += ns * factor
                acc[2] += self_ns * factor
            st.pairs.clear()
            for key, n in st.counters.items():
                self.counters[key] = self.counters.get(key, 0) + n
            st.counters.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- queries -----------------------------------------------------------

    def count(self, name, parents=None) -> int:
        return sum(v[0] for (n, p), v in self.pairs.items()
                   if n == name and (parents is None or p in parents))

    def total_ns(self, name, parents=None) -> float:
        return sum(v[1] for (n, p), v in self.pairs.items()
                   if n == name and (parents is None or p in parents))

    def self_ns(self, name) -> float:
        return sum(v[2] for (n, _), v in self.pairs.items() if n == name)

    def mean_ns(self, name) -> float:
        n = self.count(name)
        return self.total_ns(name) / n if n else 0.0


def _per(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(tr: Tracer, units: int, opstats: dict, shape: dict,
                  extra: dict) -> dict:
    """Every per-layer metric from the folded spans and counters.

    ``units`` is the work done in the traced phase; ``opstats`` holds the
    set's own counters over that phase (updates, restarts, update_locks,
    cond_violations, contended); ``shape`` the end-of-run tree figures;
    ``extra`` the figures measured outside the traced phase.  A metric
    whose layer is not on a workload's path reads 0.
    """
    c = dict(tr.counters)
    c.update(opstats)
    ops_n = sum(tr.count(n) for n in OP_SPANS)
    upd_n = sum(tr.count(n) for n in UPDATE_SPANS)
    upd_ns = sum(tr.total_ns(n) for n in UPDATE_SPANS)
    lock_under_updates = sum(tr.total_ns(n, UPDATE_SPANS) for n in RWLOCK_SPANS)
    runs = tr.count("harness.run_script")
    explores = tr.count("harness.explore_small")
    updates = c.get("updates", 0)
    attempts = tr.count("rwlock.attempt")
    m = {
        "concurrent_set.contains_us": tr.mean_ns("concurrent_set.contains") / 1e3,
        "concurrent_set.update_us": _per(upd_ns, upd_n, 1e-3),
        "concurrent_set.self_us_per_op":
            _per(sum(tr.self_ns(n) for n in OP_SPANS), ops_n, 1e-3),
        "concurrent_set.attempts_per_update":
            1.0 + _per(c.get("restarts", 0), updates) if updates else 0.0,
        "concurrent_set.locks_per_update": _per(c.get("update_locks", 0), updates),
        "concurrent_set.cond_violations_per_mop":
            _per(c.get("cond_violations", 0), units, 1e6),
        "concurrent_set.contended_per_mop": _per(c.get("contended", 0), units, 1e6),
        "rwlock.attempt_ns": tr.mean_ns("rwlock.attempt"),
        "rwlock.unlock_ns": tr.mean_ns("rwlock.unlock"),
        "rwlock.acquired_ratio": _per(c.get("acquired", 0), attempts),
        "rwlock.update_share": _per(lock_under_updates, upd_ns),
        "rwlock.spin_pauses": _per(tr.count("rwlock.pause"), units, 1e6),
        "tree_core.node_init_ns": tr.mean_ns("tree_core.node_init"),
        "tree_core.bytes_per_key": shape.get("bytes_per_key", 0.0),
        "tree_core.mean_depth": shape.get("mean_depth", 0.0),
        "tree_core.max_depth": shape.get("max_depth", 0),
        "tree_core.routing_share": shape.get("routing_share", 0.0),
        "tree_core.validate_ms": tr.mean_ns("tree_core.validate") / 1e6,
        "reclaim.pin_unpin_ns": tr.mean_ns("reclaim.pin") + tr.mean_ns("reclaim.unpin"),
        "reclaim.retired_per_kupdate": _per(tr.count("reclaim.retire"), updates, 1e3),
        "reclaim.epoch_advances": _per(c.get("epoch_advances", 0), units, 1e6),
        "reclaim.pending_end": shape.get("pending_end", 0),
        "history.lin_check_us": tr.mean_ns("history.is_linearizable") / 1e3,
        "history.obs_check_us": tr.mean_ns("history.obs_check") / 1e3,
        "history.recorder_ns_per_event": tr.mean_ns("history.record"),
        "harness.replay_us": _per(
            tr.total_ns("harness.run_script")
            - tr.total_ns("tree_core.validate", ("harness.run_script",)),
            runs, 1e-3),
        "harness.grants_per_run": _per(c.get("grants", 0), runs),
        "harness.explore_s": _per(tr.total_ns("harness.explore_small"), explores, 1e-9),
        "harness.interleavings": _per(c.get("interleavings", 0), explores),
    }
    m.update(extra)
    return {k: {"value": m[k], "unit": unit} for k, unit in PER_LAYER.items()}
