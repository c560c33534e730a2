"""Deterministic schedule replay and bounded interleaving exploration.

The stepping form of the set (``ConcurrentSet.op_gen``) yields a
checkpoint descriptor before every shared read, committed write, node
creation and lock attempt.  The harness holds one operation-pipeline
generator per logical thread, which records each operation's
invocation and response and pins the epoch around it, and advances
exactly one of them at a time, so a schedule (a sequence of thread
ids) fully determines the execution: same script in, same history,
trace and final tree out.

Checkpoint granularity matters.  Suspension happens before the access
the checkpoint announces; granting a thread one step, one resume of its
generator, performs that access and runs it to its next one.  Traversal
child-pointer reads, case-selection field reads, committed writes and
node creations each get a checkpoint because interleavings genuinely
differ there.  Lock attempts get exactly one checkpoint regardless of
spinning (a failed CAS retry learns nothing new about the tree), and
post-lock re-verification reads get none, because no other thread can
run between a grant and its re-check anyway.

A thread whose pending checkpoint is a lock attempt that could only end
CONTENDED (predicate currently true, word held incompatibly) is called
blocked.  Scripted runs treat stepping a blocked thread as a script
error and name the holder; random and exhaustive runs skip blocked
threads, which prunes futile contention restarts but loses no committed
behaviours, since such an attempt cannot modify the tree.

Every unfinished thread being blocked at once is a real state, not a
bug: two sibling leaf deletions under one routing parent each hold
their own victim's edge and need the other's, two same-level locks
taken in opposite orders.  Real executions get out of it because lock
attempts are bounded: both attempts fail by contention, the restarts
release everything, and the randomized backoff lets one of them win
the next round.  The harness models the same resolution: when nobody
is runnable it grants one blocked thread (rotating fairly so no single
thread aborts forever), whose single-shot attempt fails CONTENDED and
restarts, unblocking the rest.

Replay (``run_script``) and exploration (``explore_small``) both step a
``_Run``, so they share one grant cap: a run of a script with n
operations, setup inserts included, may take at most 10 000 + 1 000·n
grants, which guards against pathological schedules that keep
recreating the stand-off; going past it raises ``ScriptError``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cache
from operator import itemgetter

from .concurrent_set import ConcurrentSet, K_LOCK, OpOutcome, Site
from .history import History, HistoryRecorder, check_observable_correctness, \
    is_linearizable
from .tree_core import MIN_KEY, PLUS_INF, StructureReport, validate_key, \
    validate_structure

__all__ = [
    "ScheduleScript", "RunReport", "ScriptError", "ScheduleBlockedError",
    "ExplorationBoundError", "ExplorationReport", "run_script", "explore_small",
    "parse_script", "emit_script",
]

SETUP_THREAD = -1
_OPS = {op: op for op in ("insert", "delete", "contains")}   # parsed ops share them


class ScriptError(ValueError):
    pass


class ScheduleBlockedError(RuntimeError):
    """A scripted step granted a thread whose pending lock attempt can
    only fail by contention.  Carries the wait-for chain."""

    def __init__(self, chain: str):
        super().__init__(chain)
        self.chain = chain


class ExplorationBoundError(RuntimeError):
    pass


@dataclass(slots=True)
class ScheduleScript:
    """Everything a deterministic run needs.

    setup      keys inserted (and recorded) before any stepping
    programs   logical thread id -> list of (op, key) pairs, run in order
    steps      (thread id, checkpoint grants) directives; once they are
               exhausted the run drains round-robin until every thread
               finishes

    A script has slots and no instance dict, so setting an attribute
    that is not one of these fields raises ``AttributeError``.
    """
    setup: list = field(default_factory=list)
    programs: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)

    def validate(self) -> None:
        for key in self.setup:
            _check_key(key)
        if len(set(self.setup)) != len(self.setup):
            raise ScriptError("setup keys must be distinct")
        programs = self.programs
        if not programs:
            raise ScriptError("script has no threads")
        for tid, ops in programs.items():
            if not isinstance(tid, int) or tid < 0:
                raise ScriptError("thread ids must be non-negative ints, got %r" % (tid,))
            for op, key in ops:
                if op not in _OPS:
                    raise ScriptError("unknown op %r in thread %d" % (op, tid))
                _check_key(key, tid)
        for tid, n in self.steps:
            if tid not in programs:
                raise ScriptError("schedule step for unknown thread %r" % (tid,))
            if type(n) is not int and (isinstance(n, bool) or not isinstance(n, int)):
                raise ScriptError("non-integer grant count %r for thread %d" % (n, tid))
            if n < 1:
                raise ScriptError("schedule grants must be positive")


def _check_key(key, tid=None) -> None:
    """Refuse a key of thread ``tid``'s program, or of the setup."""
    if type(key) is int and MIN_KEY <= key < PLUS_INF:
        return
    where = "setup" if tid is None else "thread %d" % tid
    try:
        validate_key(key)
    except TypeError:
        raise ScriptError("non-integer key %r in %s" % (key, where)) from None
    except ValueError as e:
        raise ScriptError("%s, in %s" % (e, where)) from None


_UNPRIMED = Site("start", "unprimed")   # a kind, but never a lock attempt


class _Worker:
    """One logical thread: a generator chaining its operations, each
    pinned from its first grant to its last, plus its pending checkpoint
    (``_UNPRIMED`` before the first grant, None once finished)."""

    __slots__ = ("tid", "gen", "pending", "outcomes")

    def __init__(self, tid: int, set_: ConcurrentSet, ops,
                 recorder: HistoryRecorder):
        self.tid = tid
        self.outcomes: list[OpOutcome] = []
        self.gen = self._pipeline(set_, ops, recorder)
        self.pending = _UNPRIMED

    def _pipeline(self, set_, ops, recorder):
        for op, key in ops:
            recorder.invoke(self.tid, op, key)
            set_.reclaimer.pin(self.tid)
            out = yield from set_.op_gen(op, key, tkey=self.tid)
            set_.reclaimer.unpin(self.tid)
            recorder.respond(self.tid, op, key, out.result)
            self.outcomes.append(out)

    def finish(self) -> int:
        """Run the thread to its end; returns the grants that took: one
        per checkpoint left, and one for an empty program."""
        if self.pending is None:
            return 0
        n = (self.pending is not _UNPRIMED) + sum(1 for _ in self.gen)
        self.pending = None
        return max(n, 1)


@dataclass
class RunReport:
    script: ScheduleScript
    history: History
    trace: list
    outcomes: dict                 # tid -> [OpOutcome]
    realized: list                 # thread id per grant, script plus drain
    cv_by_family: dict
    contended_by_family: dict
    acquisitions_by_op: dict       # op type -> successful lock acquisitions
    final_keys: list
    structure: StructureReport

    @property
    def locks_clean(self) -> bool:
        return not self.structure.held_locks

    @property
    def restarts(self) -> dict:
        return {tid: sum(o.restarts for o in outs)
                for tid, outs in self.outcomes.items()}

    def kv_lines(self) -> list[str]:
        lines = ["steps=%d" % len(self.realized)]
        restarts = self.restarts
        for tid in sorted(self.outcomes):
            for i, o in enumerate(self.outcomes[tid]):
                lines.append("thread.%d.result.%d=%s"
                             % (tid, i, "true" if o.result else "false"))
            lines.append("thread.%d.restarts=%d" % (tid, restarts[tid]))
        for fam in sorted(self.cv_by_family):
            lines.append("cv.%s=%d" % (fam, self.cv_by_family[fam]))
        for fam in sorted(self.contended_by_family):
            lines.append("contended.%s=%d" % (fam, self.contended_by_family[fam]))
        lines.append("final=%s" % ",".join(str(k) for k in self.final_keys))
        lines.append("structure=%s" % ("ok" if self.structure.ok else "broken"))
        lines.append("locks=%s" % ("free" if self.locks_clean else "HELD"))
        return lines

    def __str__(self):
        out = ["run of %d thread(s), %d grants"
               % (len(self.outcomes), len(self.realized))]
        restarts = self.restarts
        for tid in sorted(self.outcomes):
            ops = ", ".join("%s(%d) -> %s" % (o.op, o.key, str(o.result).lower())
                            for o in self.outcomes[tid])
            out.append("  thread %d: %s  [restarts %d]"
                       % (tid, ops, restarts[tid]))
        out.append("  final keys: {%s}" % ", ".join(str(k) for k in self.final_keys))
        out.append("  " + str(self.structure))
        return "\n".join(out)


class _Run:
    """One scheduled run: the set it steps, with the setup inserts done,
    the recorder of its history, one unstarted worker per thread (in
    thread id order), and the log of realized grants.

    Every operation, the setup inserts (thread ``SETUP_THREAD``)
    included, stays pinned while suspended at a checkpoint, so no node
    that stepped deletes retire is reclaimed under a reader of it.
    """

    def __init__(self, script: ScheduleScript):
        self.script = script
        self.set = ConcurrentSet()
        self.recorder = HistoryRecorder()
        setup = _Worker(SETUP_THREAD, self.set,
                        [("insert", k) for k in script.setup], self.recorder)
        for _ in setup.gen:
            pass
        for out in setup.outcomes:
            if not out.result:
                raise ScriptError("setup insert(%d) returned false" % out.key)
        self.workers = {tid: _Worker(tid, self.set, ops, self.recorder)
                        for tid, ops in sorted(script.programs.items())}
        self.realized: list[int] = []
        self._forced = 0   # mutual-block resolutions so far, for rotation
        self._cap = 10_000 + 1_000 * (
            len(script.setup) + sum(len(p) for p in script.programs.values()))

    def grant(self, w: _Worker):
        """Grant ``w`` one step, one resume of its generator, and return
        the checkpoint performed.  The first grant also runs the pipeline
        to its first checkpoint, where nothing shared happens (operations
        announce their very first read before performing it), so it too
        performs exactly one access."""
        performed = w.pending
        try:
            if performed is _UNPRIMED:
                performed = next(w.gen)
            w.pending = next(w.gen)
        except StopIteration:
            w.pending = None
            if performed is _UNPRIMED:   # an empty program
                performed = None
        self.realized.append(w.tid)
        if len(self.realized) > self._cap:
            raise ScriptError(
                "run exceeded %d grants without finishing; the schedule "
                "keeps recreating contention" % self._cap)
        return performed

    def forced(self):
        """The worker to grant when every unfinished thread is blocked,
        or None once all have finished.  Its bounded lock attempt fails
        CONTENDED and restarts it, releasing its locks; the choice
        rotates so no thread aborts forever."""
        stuck = [w for w in self.workers.values() if w.pending is not None]
        if not stuck:
            return None
        w = stuck[self._forced % len(stuck)]
        self._forced += 1
        return w

    def report(self) -> RunReport:
        stats = self.set.stats_snapshot()
        return RunReport(
            script=self.script,
            history=self.recorder.history(),
            trace=self.set.trace,
            outcomes={tid: w.outcomes for tid, w in self.workers.items()},
            realized=self.realized,
            cv_by_family=stats["cond_violations"],
            contended_by_family=stats["contended_aborts"],
            acquisitions_by_op=stats["acquisitions"],
            final_keys=self.set.snapshot_keys(),
            structure=validate_structure(self.set),
        )


def _wait_chain(set_: ConcurrentSet, workers: dict, start_tid: int) -> str:
    hops = []
    tid = start_tid
    for _ in range(len(workers) + 1):
        p = workers[tid].pending
        holders = [t for t, ctx in set_.attempts.items() if t != tid
                   and any(lock is p.lock and f == p.field for lock, _, f in ctx.held)]
        if not holders:
            hops.append("thread %d waits on %r (holder unknown)" % (tid, p))
            break
        holder = holders[0]
        hops.append("thread %d waits on %r held by thread %s" % (tid, p, holder))
        q = workers[holder].pending if holder in workers else None
        if q is not None and q.kind == K_LOCK and q.would_block():
            if holder == start_tid:
                hops.append("(cycle)")
                break
            tid = holder
            continue
        break
    return "; ".join(hops)


def run_script(script: ScheduleScript, *, on_blocked: str = "error") -> RunReport:
    """Execute a script deterministically and report everything.

    ``on_blocked`` decides what a scripted grant to a blocked or
    finished thread means: "error" raises (the script is wrong),
    "reassign" deterministically hands the grant to the lowest-id
    runnable unblocked thread instead, which is what randomly generated
    schedules use, and ends the schedule once every thread has finished.
    The script is validated on every call, so a script edited after
    parsing or an earlier run is checked as it now stands.  A step past
    the grant cap ends the run the same way a step of cap + 1 grants does.
    """
    if on_blocked not in ("error", "reassign"):
        raise ValueError("on_blocked must be 'error' or 'reassign'")
    script.validate()
    run = _Run(script)
    workers = run.workers
    grant = run.grant

    # a worker is free unless finished or pending on a lock that would block
    for tid, n in script.steps:
        me = workers[tid]
        for _ in range(n):
            p = me.pending
            if p is not None and (p.kind != K_LOCK or not p.would_block()):
                grant(me)
                continue
            if on_blocked == "error":
                if p is None:
                    raise ScriptError(
                        "schedule grants a step to finished thread %d" % tid)
                raise ScheduleBlockedError(_wait_chain(run.set, workers, tid))
            for w in workers.values():   # in thread id order
                p = w.pending
                if p is not None and (p.kind != K_LOCK or not p.would_block()):
                    break
            else:
                w = run.forced()
                if w is None:   # every thread finished: the steps left grant nothing
                    return run.report()
            grant(w)

    # drain: round-robin by thread id, one grant per turn, skip blocked
    while True:
        progressed = False
        for w in workers.values():
            p = w.pending
            if p is not None and (p.kind != K_LOCK or not p.would_block()):
                grant(w)
                progressed = True
        if not progressed:
            w = run.forced()
            if w is None:
                return run.report()
            grant(w)


# -- bounded exhaustive exploration --------------------------------------

_EXPLORE_BOUND = 10 ** 6


@dataclass
class ExplorationReport:
    estimate: int
    interleavings: int = 0
    unique_histories: int = 0
    unique_traces: int = 0
    lin_failures: list = field(default_factory=list)
    obs_failures: list = field(default_factory=list)
    structure_failures: list = field(default_factory=list)
    checkpoint_coverage: set = field(default_factory=set)
    acquisitions_by_op: dict = field(default_factory=dict)   # summed over runs

    @property
    def ok(self) -> bool:
        return not (self.lin_failures or self.obs_failures
                    or self.structure_failures)

    def __str__(self):
        return ("explored %d interleavings (estimate %d): "
                "%d unique histories, %d unique traces, "
                "%d linearizability / %d observability / %d structure failures"
                % (self.interleavings, self.estimate, self.unique_histories,
                   self.unique_traces, len(self.lin_failures),
                   len(self.obs_failures), len(self.structure_failures)))


def _interleaving_estimate(counts) -> int:
    # ways to interleave the threads' solo checkpoint sequences
    est = math.factorial(sum(counts))
    for c in counts:
        est //= math.factorial(c)
    return est


def explore_small(setup, programs) -> ExplorationReport:
    """Run every schedule of the given tiny scenario and check each
    distinct outcome.

    The state space is walked depth-first by deterministic replay.  At
    every point where more than one unblocked thread could go next, a
    run records its grant count, the number of such threads, the index
    of the one that went and the forced-grant count.  The next run
    grants the last run's schedule up to the deepest point with an
    untried alternative by thread id alone, restores the forced-grant
    count and takes that alternative.  Histories and traces
    repeat heavily across interleavings, so they are deduplicated before
    the (comparatively expensive) linearizability and trace checks.

    Before starting, the interleaving count is estimated from each
    thread's solo checkpoint count (a multinomial coefficient); if the
    estimate exceeds ``_EXPLORE_BOUND`` (10^6) the exploration refuses to
    start rather than run for hours.  The same bound caps the actual walk.
    """
    script = ScheduleScript(setup=list(setup), programs=dict(programs))
    script.validate()
    # each thread's checkpoint count when it runs alone
    est = _interleaving_estimate([_Run(script).workers[tid].finish()
                                  for tid in sorted(script.programs)])
    rep = ExplorationReport(estimate=est)
    if est > _EXPLORE_BOUND:
        raise ExplorationBoundError(
            "estimated %d interleavings exceeds the bound %d" % (est, _EXPLORE_BOUND))

    seen_histories: set = set()
    seen_traces: set = set()
    acquired = rep.acquisitions_by_op = dict.fromkeys(("contains", "insert", "delete"), 0)
    decisions = []   # (grant index, runnable count, chosen index, forced count)
    realized, nxt = [], 0
    while True:
        run = _Run(script)
        workers, grant = run.workers, run.grant
        if decisions:   # replay the last run up to its branch point
            g, _, chosen, run._forced = decisions.pop()
            nxt = chosen + 1
            for tid in realized[:g]:
                grant(workers[tid])
        while True:
            runnable = [w for w in workers.values() if (p := w.pending)
                        is not None and (p.kind != K_LOCK or not p.would_block())]
            if len(runnable) > 1:
                decisions.append((len(run.realized), len(runnable), nxt, run._forced))
                w = runnable[nxt]
                nxt = 0
            elif runnable:
                w = runnable[0]
            else:
                # mutual blocking, resolved the way a real run would.  The
                # rotation is not a decision point: which thread aborts
                # first only reorders restarts, and the grant cap bounds
                # schedules that keep colliding.
                w = run.forced()
                if w is None:
                    break
            point = grant(w)
            if point is not None:
                rep.checkpoint_coverage.add((point.kind, point.name))

        rep.interleavings += 1
        for st in run.set._stats.values():
            for op, n in st.acquisitions.items():
                acquired[op] += n
        if rep.interleavings > _EXPLORE_BOUND:
            raise ExplorationBoundError(
                "actual interleavings exceeded the bound %d" % _EXPLORE_BOUND)

        # ``History._key``: one real thread stepped, so events are in seq order
        hkey = tuple([e[1:] for e in run.recorder.events])
        if hkey not in seen_histories:
            seen_histories.add(hkey)
            rep.unique_histories += 1
            res = is_linearizable(run.recorder.history())
            if not res.ok:
                rep.lin_failures.append((run.realized, str(res)))
        tkey = tuple(run.set.trace)
        if tkey not in seen_traces:
            seen_traces.add(tkey)
            rep.unique_traces += 1
            obs = check_observable_correctness(run.set.trace)
            if not obs.ok:
                rep.obs_failures.append((run.realized, str(obs)))
            st = validate_structure(run.set)
            if not st.ok:
                rep.structure_failures.append((run.realized, str(st)))
            if st.held_locks:
                rep.structure_failures.append(
                    (run.realized, "locks left held at quiescence"))

        # backtrack to the deepest decision with an untried alternative
        realized = run.realized
        while decisions and decisions[-1][2] + 1 == decisions[-1][1]:
            decisions.pop()
        if not decisions:
            break
    return rep


# -- script text format ---------------------------------------------------
#
#   setup: 1 2 3
#   thread 0: insert(5) delete(3)
#   thread 1: contains(5)
#   schedule: 0:3 1:2 0:1
#
# Blank lines and # comments are ignored; setup and schedule are
# optional (no schedule means pure round-robin drain).  Each directive,
# and each thread id, may appear once.

_OP_RE = re.compile(r"(insert|delete|contains)\((-?\d+)\)")
# whole lines: ops with optional spaces between them, steps with at
# least one space between them
_OPS_RE = re.compile(r"%s(?: *%s)*" % ((_OP_RE.pattern,) * 2))
_STEPS_RE = re.compile(r"(?:\d+:\d+(?: +\d+:\d+)*)?")
_THREAD_RE = re.compile(r"thread\s+(-?\d+)")


@cache
def _small_table() -> dict:
    """The tuples every parse shares, keyed by their text: each step of
    threads 0-7 with 1-8 grants by "t:n", each ``(op, key)`` pair of keys
    0-15 by ``(op, "k")`` as ``_OP_RE`` finds it.  Built by the first
    parse (a process that parses nothing holds none of it), never changed."""
    table = {"%d:%d" % (t, n): (t, n) for t in range(8) for n in range(1, 9)}
    table.update(((op, str(k)), (op, k)) for op in _OPS for k in range(16))
    return table


def _lookup(table: dict, keys: list) -> list:
    """``[table[k] for k in keys]``, faster and allocated to its length."""
    if len(keys) > 1:
        return list(itemgetter(*keys)(table))
    return [table[k] for k in keys]


def parse_script(text: str) -> ScheduleScript:
    """Read and validate a script in the format above.

    Steps of threads 0-7 with 1-8 grants and ``(op, key)`` pairs of keys
    0-15, written plainly, are the tuples of one fixed table
    (``_small_table``), shared by every script.  Any other step or pair,
    a zero-padded one included, is a tuple of its own; nothing is kept
    between calls."""
    script = ScheduleScript()
    seen = set()
    small = _small_table()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        head = head.strip()
        rest = rest.strip()
        thread = _THREAD_RE.fullmatch(head)
        if thread:
            tid = int(thread.group(1))
            head = "thread %d" % tid
        elif head.startswith("thread"):
            raise ScriptError("line %d: expected 'thread <id>:'" % ln)
        if head in seen:
            raise ScriptError("line %d: repeated directive %r" % (ln, head))
        seen.add(head)
        if head == "setup":
            try:
                script.setup = [int(t) for t in rest.split()]
            except ValueError:
                raise ScriptError("line %d: setup keys must be integers" % ln) from None
        elif thread:
            if not _OPS_RE.fullmatch(rest):
                raise ScriptError("line %d: cannot parse ops %r" % (ln, rest))
            found = _OP_RE.findall(rest)
            try:
                script.programs[tid] = _lookup(small, found)
            except KeyError:   # a pair outside the table, or a key like "007"
                script.programs[tid] = [small.get((op, k)) or (_OPS[op], int(k))
                                        for op, k in found]
        elif head == "schedule":
            if not _STEPS_RE.fullmatch(rest):
                raise ScriptError("line %d: cannot parse schedule %r" % (ln, rest))
            toks = rest.split()
            try:
                script.steps = _lookup(small, toks)
            except KeyError:   # a step outside the table, or a text like "00:2"
                script.steps = [small.get(tok) or tuple(map(int, tok.split(":")))
                                for tok in toks]
        else:
            raise ScriptError("line %d: unknown directive %r" % (ln, head))
    script.validate()
    return script


def emit_script(script: ScheduleScript) -> str:
    lines = []
    if script.setup:
        lines.append("setup: " + " ".join(str(k) for k in script.setup))
    for tid in sorted(script.programs):
        lines.append("thread %d: " % tid + " ".join(
            "%s(%d)" % (op, k) for op, k in script.programs[tid]))
    if script.steps:
        lines.append("schedule: " + " ".join(
            "%d:%d" % (t, n) for t, n in script.steps))
    return "\n".join(lines) + "\n"
