"""Self-test of the benchmark's output checks: each must be able to fail.

    python3 benchmark/selftest.py

Runs small versions of the workloads against deliberately wrong sets and
checkers and confirms that every check reports the fault, after a control
run on the real code reports none.  Exits 0 only if every expectation
holds.
"""

import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from cobst import harness, history                       # noqa: E402
from cobst.concurrent_set import ConcurrentSet, _AttemptCtx  # noqa: E402
from cobst.rwlock import LockMode                         # noqa: E402

import workloads                                          # noqa: E402
from checks import checker_selftest                       # noqa: E402
from refclock import RefClock                             # noqa: E402

SEED = 7
SMALL_1T = workloads.SetWorkload(key_bits=10, mixes=((25, 25),),
                                 stream_len=1 << 14, chunk=1024)
SMALL_2T = workloads.SetWorkload(key_bits=10, mixes=((50, 50), (0, 0)),
                                 stream_len=1 << 14, chunk=1024)


class DroppingSet(ConcurrentSet):
    """Drops one delete in 1000 but reports success."""

    def __init__(self):
        super().__init__()
        self._deletes = 0

    def delete(self, v):
        self._deletes += 1
        if self._deletes % 1000 == 0:
            return True
        return super().delete(v)


class LockingContains(ConcurrentSet):
    """Takes (and releases) the root's state lock in every contains."""

    def contains(self, v):
        tkey = threading.get_ident()
        ctx = _AttemptCtx(tkey)
        self._drain(self._lock(ctx, tkey, self._thread_stats(tkey), "contains",
                               self.root.state_lock, LockMode.READ,
                               lambda: True, "state", "selftest", 0))
        self._release_all(ctx)
        return super().contains(v)


def set_run(w, cls, corrupt=None):
    keys = workloads.prefill_keys(SEED, w)
    s = cls()
    for k in keys:
        s.insert(k)
    phase = workloads.SetPhase(w, SEED, s, keys)
    phase.phase(0.3, RefClock())
    if corrupt is not None:
        corrupt(s)
    problems, _ = phase.final_checks()
    return phase, problems


def sneak_in(s):
    """Insert a key the stream never names, behind the replay's back."""
    s.insert(1 << SMALL_1T.key_bits)


def misplace_leftmost(s):
    """Give the smallest key's node a key above every other key."""
    node = s.root.left
    while node.left is not None:
        node = node.left
    node.val = (1 << 20)


def flip_last_response(h):
    events = list(h.events)
    i = max(j for j, e in enumerate(events) if e.kind == history.RES)
    e = events[i]
    events[i] = history.HistoryEvent(e.seq, e.thread, e.kind, e.op, e.key,
                                     not e.ret)
    return history.History(events)


def verify_run(seconds=0.0):
    """One round: 64 corpus scripts plus the exhaustive scenarios."""
    texts = workloads.corpus_texts(SEED)[:64]
    ref = RefClock()
    ref.start()
    phase = workloads.VerifyPhase(SEED, workloads.build_corpus(texts, ref)[0])
    units, _, _, _ = phase.phase(seconds, ref)
    return phase, units


def main() -> int:
    results = []

    def expect(name, ok, detail):
        results.append(ok)
        print("%s  %-58s %s" % ("PASS" if ok else "FAIL", name, detail))

    phase, probs = set_run(SMALL_1T, ConcurrentSet)
    expect("control: real set, one thread, passes every check",
           not probs and phase.failed() == 0, "%d problems" % len(probs))
    phase, probs = set_run(SMALL_2T, ConcurrentSet)
    expect("control: real set, two threads, passes every check",
           not probs and phase.failed() == 0, "%d problems" % len(probs))

    phase, probs = set_run(SMALL_1T, DroppingSet)
    expect("replay against the reference flags dropped deletes",
           phase.failed() > 0, "%d failed ops" % phase.failed())
    _, probs = set_run(SMALL_1T, ConcurrentSet, corrupt=sneak_in)
    expect("final key set flags a key the stream never inserted",
           any("final key set" in p for p in probs), "")
    phase, probs = set_run(SMALL_2T, DroppingSet)
    expect("per-key conservation flags dropped deletes",
           any("conservation" in p for p in probs), "")

    _, probs = set_run(SMALL_1T, ConcurrentSet, corrupt=misplace_leftmost)
    expect("own walk flags a key out of search order",
           any("outside" in p for p in probs), "")
    expect("validate_structure flags a key out of search order",
           any("value property" in p for p in probs), "")

    _, probs = set_run(SMALL_1T, LockingContains)
    expect("wait-free read check flags a locking contains",
           any("contains took" in p for p in probs), "")

    real_lin, real_run = history.is_linearizable, harness.run_script

    def flipping_run(*a, **kw):
        rep = real_run(*a, **kw)
        rep.history = flip_last_response(rep.history)
        return rep

    def lax_checker(h, **kw):
        """Accepts, with the witness of the history before the flip."""
        res = real_lin(flip_last_response(h), **kw)
        ops = {o.index: o for o in h.complete_ops()}
        return history.LinResult(True, witness=[ops[o.index] for o in res.witness])

    harness.run_script, history.is_linearizable = flipping_run, lax_checker
    try:
        phase, units = verify_run()
    finally:
        harness.run_script, history.is_linearizable = real_run, real_lin
    expect("witness replay flags a flipped return the checker let pass",
           phase.failed() == 64, "%d of %d scripts failed" % (phase.failed(), 64))

    phase, units = verify_run()
    probs, _ = phase.final_checks()
    expect("control: verify on the real code passes every check",
           not probs and phase.failed() == 0, "%d units" % units)

    accept_all = lambda h, **kw: history.LinResult(True, witness=[])  # noqa: E731
    reject_all = lambda h, **kw: history.LinResult(False)            # noqa: E731
    expect("checker self-test flags a checker that accepts everything",
           any("accepted" in p for p in checker_selftest(accept_all, SEED)), "")
    expect("checker self-test flags a checker that rejects everything",
           any("rejected" in p for p in checker_selftest(reject_all, SEED)), "")

    print("%d of %d expectations held" % (sum(results), len(results)))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
