"""Reference replay and exploration loops for the schedule harness.

These are ``harness.run_script``'s step and drain loops and
``explore_small``'s choice loop as they were before a grant became one
resume of the worker's generator: every grant goes through the worker's
own ``grant``, every freedom test through its ``blocked()``, a reassigned
step builds the ``unfinished()`` and ``runnable()`` lists, setup inserts
are granted one by one, exploration remembers its choices by thread id
and deduplicates on a ``History`` built for every run.  The differential
tests in ``test_harness.py`` hold the current loops to the same realized
schedules, reports, traces, histories, errors and exploration reports.
"""

from cobst import harness
from cobst.concurrent_set import K_LOCK
from cobst.harness import (_EXPLORE_BOUND, _UNPRIMED, SETUP_THREAD,
                           ExplorationBoundError, ExplorationReport,
                           ScheduleBlockedError, ScheduleScript, ScriptError,
                           _interleaving_estimate, _Run, _wait_chain, _Worker)
from cobst.history import HistoryRecorder


def _grant_worker(w):
    """``_Worker.grant`` as it was; a finished worker's pending is None."""
    assert w.pending is not None, "grant() on a finished worker"
    try:
        if w.pending is _UNPRIMED:
            w.pending = next(w.gen)
        performed = w.pending
        w.pending = w.gen.send(None)
    except StopIteration:
        performed = None if w.pending is _UNPRIMED else w.pending
        w.pending = None
    return performed


def _finish(w) -> int:
    n = 0
    while w.pending is not None:
        _grant_worker(w)
        n += 1
    return n


def _blocked(w) -> bool:
    p = w.pending
    return (p is not _UNPRIMED and p is not None
            and p.kind == K_LOCK and p.would_block())


class RefRun(_Run):
    """``_Run`` with its former setup, grant and list-building helpers;
    ``report`` is shared."""

    def __init__(self, script: ScheduleScript):
        self.script = script
        self.set = harness.ConcurrentSet()
        self.recorder = HistoryRecorder()
        setup = _Worker(SETUP_THREAD, self.set,
                        [("insert", k) for k in script.setup], self.recorder)
        _finish(setup)
        for out in setup.outcomes:
            if not out.result:
                raise ScriptError("setup insert(%d) returned false" % out.key)
        self.workers = {tid: _Worker(tid, self.set, ops, self.recorder)
                        for tid, ops in sorted(script.programs.items())}
        self.realized = []
        self._forced = 0
        self._cap = 10_000 + 1_000 * (
            len(script.setup) + sum(len(p) for p in script.programs.values()))

    def unfinished(self) -> list:
        return [t for t, w in self.workers.items() if w.pending is not None]

    def runnable(self) -> list:
        return [t for t, w in self.workers.items()
                if w.pending is not None and not _blocked(w)]

    def grant(self, tid: int):
        point = _grant_worker(self.workers[tid])
        self.realized.append(tid)
        if len(self.realized) > self._cap:
            raise ScriptError(
                "run exceeded %d grants without finishing; the schedule "
                "keeps recreating contention" % self._cap)
        return point

    def forced(self):
        stuck = self.unfinished()
        if not stuck:
            return None
        tid = stuck[self._forced % len(stuck)]
        self._forced += 1
        return tid


def reference_run_script(script: ScheduleScript, *, on_blocked: str = "error"):
    if on_blocked not in ("error", "reassign"):
        raise ValueError("on_blocked must be 'error' or 'reassign'")
    script.validate()
    run = RefRun(script)
    workers = run.workers

    for tid in (t for t, n in script.steps for _ in range(n)):
        w = workers[tid]
        if w.pending is not None and not _blocked(w):
            run.grant(tid)
            continue
        if on_blocked == "error":
            if w.pending is None:
                raise ScriptError(
                    "schedule grants a step to finished thread %d" % tid)
            raise ScheduleBlockedError(_wait_chain(run.set, workers, tid))
        if not run.unfinished():
            break
        others = run.runnable()
        run.grant(others[0] if others else run.forced())

    while True:
        todo = run.unfinished()
        if not todo:
            break
        progressed = False
        for tid in todo:
            w = workers[tid]
            if w.pending is not None and not _blocked(w):
                run.grant(tid)
                progressed = True
        if not progressed:
            run.grant(run.forced())
    return run.report()


def reference_explore_small(setup, programs) -> ExplorationReport:
    script = ScheduleScript(setup=list(setup), programs=dict(programs))
    script.validate()
    est = _interleaving_estimate([_finish(RefRun(script).workers[tid])
                                  for tid in sorted(script.programs)])
    rep = ExplorationReport(estimate=est)
    if est > _EXPLORE_BOUND:
        raise ExplorationBoundError(
            "estimated %d interleavings exceeds the bound %d" % (est, _EXPLORE_BOUND))

    seen_histories: set = set()
    seen_traces: set = set()
    prefix: list = []
    while True:
        run = RefRun(script)
        decisions = []
        while True:
            runnable = run.runnable()
            if len(runnable) > 1:
                depth = len(decisions)
                chosen = (runnable.index(prefix[depth])
                          if depth < len(prefix) else 0)
                decisions.append((runnable, chosen))
                tid = runnable[chosen]
            elif runnable:
                tid = runnable[0]
            else:
                tid = run.forced()
                if tid is None:
                    break
            point = run.grant(tid)
            if point is not None:
                rep.checkpoint_coverage.add((point.kind, point.name))

        rep.interleavings += 1
        for op, n in run.set.stats_snapshot()["acquisitions"].items():
            rep.acquisitions_by_op[op] = rep.acquisitions_by_op.get(op, 0) + n

        hist = run.recorder.history()
        hkey = hist._key()
        if hkey not in seen_histories:
            seen_histories.add(hkey)
            rep.unique_histories += 1
            res = harness.is_linearizable(hist)
            if not res.ok:
                rep.lin_failures.append((run.realized, str(res)))
        tkey = tuple(run.set.trace)
        if tkey not in seen_traces:
            seen_traces.add(tkey)
            rep.unique_traces += 1
            obs = harness.check_observable_correctness(run.set.trace)
            if not obs.ok:
                rep.obs_failures.append((run.realized, str(obs)))
            st = harness.validate_structure(run.set)
            if not st.ok:
                rep.structure_failures.append((run.realized, str(st)))
            if st.held_locks:
                rep.structure_failures.append(
                    (run.realized, "locks left held at quiescence"))

        nxt = None
        for i in range(len(decisions) - 1, -1, -1):
            options, chosen = decisions[i]
            if chosen + 1 < len(options):
                nxt = [opts[d] for opts, d in decisions[:i]]
                nxt.append(options[chosen + 1])
                break
        if nxt is None:
            break
        prefix = nxt
    return rep
