"""Word-encoding, conditional acquisition, and exclusion tests for
CondRwLock."""

import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from cobst import rwlock
from cobst.rwlock import CondRwLock, LockMode, LockOutcome, SpinPolicy


TRUE = lambda: True  # noqa: E731
FALSE = lambda: False  # noqa: E731

R, W = LockMode.READ, LockMode.WRITE


def acquire(lk, mode) -> bool:
    """One unconditional CAS attempt."""
    return lk.try_lock_with_condition(mode, TRUE) is LockOutcome.ACQUIRED


def test_module_constants_are_the_enum_members():
    assert rwlock.READ is LockMode.READ
    assert rwlock.WRITE is LockMode.WRITE
    assert rwlock.ACQUIRED is LockOutcome.ACQUIRED
    assert rwlock.CONTENDED is LockOutcome.CONTENDED
    assert rwlock.CONDITION_VIOLATED is LockOutcome.CONDITION_VIOLATED


# -- frozen word-encoding examples ---------------------------------------

def test_write_acquire_from_free():
    lk = CondRwLock()
    assert acquire(lk, W)
    assert lk.word == 1


def test_write_contended_on_writer():
    lk = CondRwLock()
    assert acquire(lk, W)
    assert not acquire(lk, W)
    assert lk.word == 1


def test_write_contended_on_readers():
    lk = CondRwLock()
    assert acquire(lk, R)
    assert acquire(lk, R)
    assert lk.word == 4
    assert not acquire(lk, W)
    assert lk.word == 4


def test_read_acquire_encoding():
    lk = CondRwLock()
    assert acquire(lk, R)
    assert lk.word == 2
    assert acquire(lk, R)
    assert lk.word == 4


def test_read_contended_on_writer():
    lk = CondRwLock()
    assert acquire(lk, W)
    assert not acquire(lk, R)
    assert lk.word == 1


def test_unlock_write_transition():
    lk = CondRwLock()
    acquire(lk, W)
    lk.unlock(W)
    assert lk.word == 0


def test_unlock_read_transitions():
    lk = CondRwLock()
    acquire(lk, R)
    acquire(lk, R)
    lk.unlock(R)
    assert lk.word == 2
    lk.unlock(R)
    assert lk.word == 0


def test_unlock_dispatches_by_mode():
    lk = CondRwLock()
    acquire(lk, W)
    lk.unlock(LockMode.WRITE)
    acquire(lk, R)
    lk.unlock(LockMode.READ)
    assert lk.word == 0


def test_unlock_write_without_hold_asserts():
    lk = CondRwLock()
    with pytest.raises(AssertionError):
        lk.unlock(W)


def test_unlock_write_mode_mismatch_asserts():
    lk = CondRwLock()
    acquire(lk, R)
    with pytest.raises(AssertionError):
        lk.unlock(W)


def test_unlock_read_without_hold_asserts():
    lk = CondRwLock()
    with pytest.raises(AssertionError):
        lk.unlock(R)
    acquire(lk, W)
    with pytest.raises(AssertionError):
        lk.unlock(R)


# -- conditional acquisition ----------------------------------------------

def test_cond_acquire_plain():
    lk = CondRwLock()
    assert lk.try_lock_with_condition(LockMode.WRITE, TRUE) is LockOutcome.ACQUIRED
    assert lk.word == 1


def test_cond_fails_before_acquire():
    lk = CondRwLock()
    calls = []
    out = lk.try_lock_with_condition(LockMode.WRITE,
                                     lambda: calls.append(1) and False)
    assert out is LockOutcome.CONDITION_VIOLATED
    assert lk.word == 0
    assert len(calls) == 1       # no second evaluation, no acquire


def test_cond_fails_after_acquire_releases():
    # the predicate flips between the pre-check and the post-check; the
    # lock must come back released
    lk = CondRwLock()
    answers = [True, False]
    out = lk.try_lock_with_condition(LockMode.READ, lambda: answers.pop(0))
    assert out is LockOutcome.CONDITION_VIOLATED
    assert lk.word == 0
    assert answers == []


def test_cond_contended_checks_before_cas():
    lk = CondRwLock()
    acquire(lk, W)
    out = lk.try_lock_with_condition(LockMode.READ, TRUE)
    assert out is LockOutcome.CONTENDED
    assert lk.word == 1
    # a false condition wins over contention: the caller must restart,
    # not retry
    out = lk.try_lock_with_condition(LockMode.READ, FALSE)
    assert out is LockOutcome.CONDITION_VIOLATED


def test_failed_outcomes_leave_word_unchanged():
    lk = CondRwLock()
    acquire(lk, R)
    before = lk.word
    assert lk.try_lock_with_condition(LockMode.WRITE, TRUE) is LockOutcome.CONTENDED
    assert lk.word == before
    assert lk.try_lock_with_condition(LockMode.WRITE, FALSE) is LockOutcome.CONDITION_VIOLATED
    assert lk.word == before


# -- bounded spin -----------------------------------------------------------

def test_spin_gives_up_after_budget(monkeypatch):
    lk = CondRwLock()
    acquire(lk, W)
    pauses = []
    monkeypatch.setattr(SpinPolicy, "pause", pauses.append)
    out = lk.lock_with_spin(LockMode.WRITE, TRUE)
    assert out is LockOutcome.CONTENDED
    # ATTEMPTS - 1 pauses between ATTEMPTS tries
    assert pauses == list(range(SpinPolicy.ATTEMPTS - 1))


def test_spin_succeeds_when_freed_mid_way(monkeypatch):
    lk = CondRwLock()
    acquire(lk, W)

    def freeing(round_):
        if round_ == 1:
            lk.unlock(W)

    monkeypatch.setattr(SpinPolicy, "pause", freeing)
    out = lk.lock_with_spin(LockMode.WRITE, TRUE)
    assert out is LockOutcome.ACQUIRED
    assert lk.word == 1


def test_spin_never_retries_condition_violation():
    lk = CondRwLock()
    calls = []

    def cond():
        calls.append(1)
        return False

    out = lk.lock_with_spin(LockMode.WRITE, cond)
    assert out is LockOutcome.CONDITION_VIOLATED
    assert len(calls) == 1


# -- the shared CAS guard -----------------------------------------------------

def test_guard_is_free_while_conditions_and_pauses_run(monkeypatch):
    """The guard covers the compare and the store only: a condition that
    ran under it, or a spin pause taken under it, would find it held
    (and one that took a lock itself would deadlock)."""
    seen = []

    def guard_free():
        seen.append(rwlock._GUARD.locked())
        return True

    def flipping(answers):
        return lambda: guard_free() and answers.pop(0)

    monkeypatch.setattr(SpinPolicy, "pause", lambda round_: guard_free())
    lk = CondRwLock()
    for mode in (W, R):
        assert lk.try_lock_with_condition(mode, guard_free) is LockOutcome.ACQUIRED
        lk.unlock(mode)
        # post-check fails: the release runs after the second condition
        assert lk.try_lock_with_condition(mode, flipping([True, False])) \
            is LockOutcome.CONDITION_VIOLATED
    acquire(lk, W)
    assert lk.lock_with_spin(R, guard_free) is LockOutcome.CONTENDED
    assert lk.lock_with_spin(W, guard_free) is LockOutcome.CONTENDED
    assert len(seen) == 4 * 2 + 2 * (2 * SpinPolicy.ATTEMPTS - 1)
    assert not any(seen)
    assert not rwlock._GUARD.locked()


class GuardHeldElsewhere:
    """Holds the CAS guard on another thread until ``release``."""

    def __init__(self):
        self._taken, self._free = threading.Event(), threading.Event()
        self._thread = threading.Thread(target=self._hold)
        self._thread.start()
        assert self._taken.wait(5)

    def _hold(self):
        with rwlock._GUARD:
            self._taken.set()
            self._free.wait()

    def release(self):
        self._free.set()
        self._thread.join(5)
        assert not self._thread.is_alive()


def test_a_busy_guard_fails_the_attempt_without_waiting():
    lk = CondRwLock()
    holder = GuardHeldElsewhere()
    try:
        for mode in (W, R):
            assert lk.try_lock_with_condition(mode, TRUE) is LockOutcome.CONTENDED
        assert lk.word == 0
    finally:
        holder.release()
    assert lk.try_lock_with_condition(W, TRUE) is LockOutcome.ACQUIRED
    assert lk.word == 1


def test_a_read_release_waits_for_the_guard():
    lk = CondRwLock()
    assert acquire(lk, R)
    holder = GuardHeldElsewhere()
    releaser = threading.Thread(target=lk.unlock, args=(R,))
    try:
        releaser.start()
        releaser.join(0.05)
        assert releaser.is_alive() and lk.word == 2
    finally:
        holder.release()
    releaser.join(5)
    assert not releaser.is_alive() and lk.word == 0


def test_condition_is_called_with_the_node_and_the_expected_value():
    lk = CondRwLock()
    calls = []

    def cond(node, expected):
        calls.append((node, expected))
        return expected == 3

    assert lk.lock_with_spin(W, cond, "node", 3) is LockOutcome.ACQUIRED
    lk.unlock(W)
    assert lk.try_lock_with_condition(R, cond, "node", 4) \
        is LockOutcome.CONDITION_VIOLATED
    assert calls == [("node", 3), ("node", 3), ("node", 4)]
    assert lk.word == 0


def test_lock_has_only_its_word():
    lk = CondRwLock()
    assert CondRwLock.__slots__ == ("word",)
    assert not hasattr(lk, "__dict__")


# -- encoding round-trip property -------------------------------------------

@given(st.lists(st.booleans(), max_size=60))
def test_reader_word_is_twice_net_acquires(flags):
    # True = acquire, False = release one held reader (skipped when none
    # held); afterwards word == 2 * (acquires - releases)
    lk = CondRwLock()
    held = 0
    for up in flags:
        if up:
            assert acquire(lk, R)
            held += 1
        elif held:
            lk.unlock(R)
            held -= 1
    assert lk.word == 2 * held


@given(st.lists(st.sampled_from(["w+", "w-", "r+", "r-"]), max_size=40))
def test_word_matches_reference_automaton(ops):
    # replay any op sequence against the plain integer automaton; illegal
    # releases are skipped, acquires may fail and must match the automaton
    lk = CondRwLock()
    word = 0
    for op in ops:
        if op == "w+":
            assert acquire(lk, W) == (word == 0)
            if word == 0:
                word = 1
        elif op == "r+":
            assert acquire(lk, R) == (word != 1)
            if word != 1:
                word += 2
        elif op == "w-" and word == 1:
            lk.unlock(W)
            word = 0
        elif op == "r-" and word >= 2:
            lk.unlock(R)
            word -= 2
        assert lk.word == word


# -- exhaustive two-thread model check ---------------------------------------

def _interleavings(a, b):
    """All merges of two sequences, as pick-from-a boolean tuples."""
    n, m = len(a), len(b)
    for picks in itertools.combinations(range(n + m), n):
        order = []
        ai = iter(a)
        bi = iter(b)
        pick_set = set(picks)
        for i in range(n + m):
            order.append(next(ai) if i in pick_set else next(bi))
        yield order


MODEL_OPS = ("tw", "tr", "un")


def test_two_thread_model_check():
    """Every interleaving of every pair of 3-op thread programs agrees
    with a reference automaton, and no state has a writer coexist with
    any other holder."""
    for prog_a in itertools.product(MODEL_OPS, repeat=3):
        for prog_b in itertools.product(MODEL_OPS, repeat=3):
            a = [("A", op) for op in prog_a]
            b = [("B", op) for op in prog_b]
            for order in _interleavings(a, b):
                lk = CondRwLock()
                word = 0
                held = {"A": [], "B": []}
                for tid, op in order:
                    if op == "tw":
                        got = acquire(lk, W)
                        assert got == (word == 0)
                        if got:
                            word = 1
                            held[tid].append("w")
                    elif op == "tr":
                        got = acquire(lk, R)
                        assert got == (word != 1)
                        if got:
                            word += 2
                            held[tid].append("r")
                    elif held[tid]:
                        kind = held[tid].pop()
                        lk.unlock(LockMode.WRITE if kind == "w" else LockMode.READ)
                        word = 0 if kind == "w" else word - 2
                    assert lk.word == word
                    writers = sum(g == "w" for g in held["A"] + held["B"])
                    total = len(held["A"]) + len(held["B"])
                    assert not (writers and total > 1)
                    assert writers <= 1


# -- real threads -------------------------------------------------------------

def test_mutual_exclusion_under_real_threads():
    """Several locks share the one CAS guard.  Each thread mixes READ and
    WRITE holds over all of them.  Writers bump their lock's counter by
    two in two steps and count themselves in and out; readers snapshot
    the counter.  An exclusion bug on any lock shows up as an odd
    snapshot or a second writer inside."""
    locks = [CondRwLock() for _ in range(3)]
    counters = [0] * len(locks)
    inside = [0] * len(locks)
    errors = []
    writes = []
    rounds = 3000

    def worker(seed):
        rng = random.Random(seed)
        done = wrote = 0
        while done < rounds:
            i = rng.randrange(len(locks))
            lk = locks[i]
            if rng.random() < 0.5:
                if not acquire(lk, W):
                    continue
                inside[i] += 1
                if inside[i] != 1:
                    errors.append(("two writers", i))
                counters[i] += 1
                counters[i] += 1
                inside[i] -= 1
                lk.unlock(W)
                wrote += 1
            else:
                if not acquire(lk, R):
                    continue
                if counters[i] % 2 or inside[i]:
                    errors.append(("reader saw a writer", i))
                lk.unlock(R)
            done += 1
        writes.append(wrote)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # switch threads inside the holds
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(old)
    assert errors == []
    assert sum(counters) == 2 * sum(writes)
    assert [lk.word for lk in locks] == [0] * len(locks)
    assert not rwlock._GUARD.locked()
