"""Word-encoding, conditional acquisition, and exclusion tests for
CondRwLock."""

import dis
import itertools
import pathlib
import random
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, strategies as st

from cobst import rwlock
from cobst.rwlock import CondRwLock, LockMode, LockOutcome, SpinPolicy
from cobst.tree_core import Node


TRUE = lambda: True  # noqa: E731
FALSE = lambda: False  # noqa: E731

R, W = LockMode.READ, LockMode.WRITE
ACQUIRED = LockOutcome.ACQUIRED


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


# -- the CAS step ------------------------------------------------------------

def test_conditions_run_before_and_after_the_cas_and_pauses_between(monkeypatch):
    """A condition sees the word as it was before the CAS or after it,
    never a step in between, and a spin pause sees the word that made
    the attempt fail."""
    lk = CondRwLock()
    seen = []

    def recording():
        seen.append(lk.word)
        return True

    def flipping(answers):
        return lambda: recording() and answers.pop(0)

    monkeypatch.setattr(SpinPolicy, "pause", lambda round_: recording())
    for mode, held in ((W, 1), (R, 2)):
        assert lk.try_lock_with_condition(mode, recording) is LockOutcome.ACQUIRED
        lk.unlock(mode)
        # post-check fails: the release runs after the second condition
        assert lk.try_lock_with_condition(mode, flipping([True, False])) \
            is LockOutcome.CONDITION_VIOLATED
        assert seen[-4:] == [0, held, 0, held] and lk.word == 0
    acquire(lk, W)
    assert lk.lock_with_spin(R, recording) is LockOutcome.CONTENDED
    assert lk.lock_with_spin(W, recording) is LockOutcome.CONTENDED
    assert len(seen) == 4 * 2 + 2 * (2 * SpinPolicy.ATTEMPTS - 1)
    assert seen[8:] == [1] * 2 * (2 * SpinPolicy.ATTEMPTS - 1)


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


# -- the bytecode of each CAS step --------------------------------------------

WORDS = ("word", "left_word", "right_word")

# Opcodes on which the GIL cannot pass to another thread: none of them
# calls, enters a function, yields or jumps, the points where CPython
# 3.10 and later check for a thread switch (3.10 also at a taken
# conditional jump).  One set serves 3.10 to 3.13; a name missing from a
# version's opcode table never occurs there.
NO_SWITCH = frozenset({
    # every version
    "LOAD_FAST", "STORE_FAST", "LOAD_CONST", "POP_TOP", "NOP", "UNARY_NOT",
    # 3.10
    "DUP_TOP", "ROT_TWO", "BINARY_ADD", "BINARY_MULTIPLY", "BINARY_AND",
    "INPLACE_SUBTRACT",
    # 3.11 and later
    "BINARY_OP", "COPY", "SWAP",
    # 3.12 and later
    "LOAD_FAST_CHECK",
    # 3.13
    "TO_BOOL", "LOAD_FAST_LOAD_FAST", "STORE_FAST_LOAD_FAST",
})
_ENDS = {"RETURN_VALUE", "RETURN_CONST", "RAISE_VARARGS", "RERAISE"}
_ALWAYS_JUMPS = {"JUMP_FORWARD", "JUMP_BACKWARD", "JUMP_ABSOLUTE",
                 "JUMP_BACKWARD_NO_INTERRUPT"}


def spans(func):
    """Every path through ``func``'s bytecode from a ``LOAD_ATTR`` of a
    lock word to a ``STORE_ATTR`` of the same word, as ``(word, steps)``
    with the opname of each instruction in between.  A path that comes
    back to an instruction ends in a ``<loop>`` step."""
    code = list(dis.get_instructions(func))
    index = {ins.offset: k for k, ins in enumerate(code)}
    found = []

    def walk(k, word, steps, seen):
        ins = code[k]
        if ins.opname == "STORE_ATTR" and ins.argval == word:
            found.append((word, steps))
        elif k in seen:
            found.append((word, steps + ["<loop>"]))
        elif ins.opname not in _ENDS:
            seen, steps = seen | {k}, steps + [ins.opname]
            if ins.opcode in dis.hasjrel or ins.opcode in dis.hasjabs:
                walk(index[ins.argval], word, steps, seen)
            if ins.opname not in _ALWAYS_JUMPS:
                walk(k + 1, word, steps, seen)

    for k, ins in enumerate(code):
        if ins.opname == "LOAD_ATTR" and ins.argval in WORDS:
            walk(k + 1, ins.argval, [], frozenset())
    return found


def switch_points(func):
    """The steps of ``spans(func)`` where the GIL may pass."""
    return [(word, op) for word, steps in spans(func) for op in steps
            if op not in NO_SWITCH]


def test_no_switching_opcode_is_on_the_allowlist():
    assert not {"CALL", "PRECALL", "CALL_FUNCTION", "RESUME", "JUMP_BACKWARD",
                "JUMP_ABSOLUTE", "POP_JUMP_IF_FALSE", "POP_JUMP_BACKWARD_IF_TRUE",
                "YIELD_VALUE", "SEND", "LOAD_ATTR", "STORE_ATTR"} & NO_SWITCH


@pytest.mark.parametrize("method", ["try_lock_with_condition", "unlock"])
def test_each_word_is_read_tested_and_stored_with_no_switch_point(method):
    func = getattr(CondRwLock, method)
    assert sorted({word for word, _ in spans(func)}) == sorted(WORDS)
    assert switch_points(func) == []


def _call_between(lk):
    w = lk.word
    getattr(lk, "word")
    lk.word = w + 2


def _loop_between(lk):
    w = lk.word
    while w > 8:
        w -= 2
    lk.word = w + 2


def test_the_bytecode_check_fails_a_call_or_a_loop_between_read_and_store():
    assert {op for _, op in switch_points(_call_between)} & {"CALL", "CALL_FUNCTION"}
    assert switch_points(_loop_between)
    # the guardless by-name CAS reads no word by attribute at all, nor
    # does a lock that excludes nothing
    for func in (GetattrBetween.try_lock_with_condition, GetattrBetween.unlock,
                 NoExclusion.try_lock_with_condition, NoExclusion.unlock):
        assert spans(func) == []


# -- supported runtimes -------------------------------------------------------

@pytest.mark.parametrize("gil", [True, False])
def test_import_refuses_a_build_without_the_gil(gil):
    src = pathlib.Path(rwlock.__file__).resolve().parents[1]
    stub = "import sys; sys._is_gil_enabled = lambda: %r; import cobst" % gil
    proc = subprocess.run([sys.executable, "-c", stub], cwd=src,
                          capture_output=True, text=True, timeout=60)
    if gil:
        assert proc.returncode == 0, proc.stderr
    else:
        assert proc.returncode == 1
        assert "ImportError: cobst needs the GIL" in proc.stderr


# -- real threads -------------------------------------------------------------

def hold():
    """Called inside every hold: a function entry, where the GIL may pass
    to another thread while the lock is held."""


class NoExclusion(Node):
    """Grants every attempt and releases nothing."""

    def try_lock_with_condition(self, mode, condition, node=None,
                                expected=None, field="word"):
        return ACQUIRED

    def unlock(self, mode, field="word"):
        pass


class GetattrBetween(Node):
    """The CAS and the read release by name and without a guard: the GIL
    may pass to another thread when the ``getattr`` that reads the word
    returns, before the ``setattr`` stores it."""

    def try_lock_with_condition(self, mode, condition, node=None,
                                expected=None, field="word"):
        w = getattr(self, field)
        if w == 1 or (w and mode is W):
            return LockOutcome.CONTENDED
        setattr(self, field, 1 if mode is W else w + 2)
        return ACQUIRED

    def unlock(self, mode, field="word"):
        setattr(self, field, 0 if mode is W else getattr(self, field) - 2)


def exclusion_errors(words, seconds=1.0, nthreads=4):
    """Exclusion failures seen on the ``(lock, field)`` pairs ``words``
    within ``seconds``; the threads stop once one is seen.

    Each thread mixes READ and WRITE holds over all of them, at a 1 us
    switch interval, and calls ``hold`` inside every hold.  Writers bump
    their word's counter by two in two steps around that call and count
    themselves in and out; readers check the counter is even and no
    writer is inside, before and after it.  A second holder admitted
    beside a writer shows up as an error, a lost word update as a word
    not back at 0 or as a worker that died on a release's assert."""
    counters = [0] * len(words)
    inside = [0] * len(words)
    errors = []
    writes = []
    start = threading.Barrier(nthreads)

    def worker(seed):
        rng = random.Random(seed)
        # drawn up front, so the loop's calls are the lock's and ``hold``
        plan = [(rng.randrange(len(words)), rng.random() < 0.5)
                for _ in range(256)]
        wrote = 0
        start.wait(60)
        while not errors and time.perf_counter() < deadline:
            for i, write in plan:
                lk, field = words[i]
                if write:
                    if lk.lock_with_spin(W, TRUE, field=field) is not ACQUIRED:
                        continue
                    inside[i] += 1
                    if inside[i] != 1:
                        errors.append(("two writers", field))
                    counters[i] += 1
                    hold()
                    counters[i] += 1
                    inside[i] -= 1
                    lk.unlock(W, field)
                    wrote += 1
                else:
                    if lk.lock_with_spin(R, TRUE, field=field) is not ACQUIRED:
                        continue
                    for _ in range(2):
                        if counters[i] % 2 or inside[i]:
                            errors.append(("reader saw a writer", field))
                        hold()
                    lk.unlock(R, field)
        writes.append(wrote)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads inside the holds
    try:
        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(nthreads)]
        deadline = time.perf_counter() + seconds
        for t in threads:
            t.start()
        for t in threads:
            t.join(seconds + 60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    if sum(counters) != 2 * sum(writes):
        errors.append(("lost counter update", sum(counters), sum(writes)))
    return errors + [("word left held", field, getattr(lk, field))
                     for lk, field in words if getattr(lk, field)]


def node_words(node):
    return [(node, field) for field in WORDS]


def test_mutual_exclusion_under_real_threads():
    """A standalone lock's word and the three words of one node, each
    read- and write-locked by four threads that switch inside the holds."""
    assert exclusion_errors([(CondRwLock(), "word")] + node_words(Node(0))) == []


@pytest.mark.parametrize("broken", [NoExclusion, GetattrBetween])
def test_the_exclusion_check_fails_a_broken_lock(broken):
    assert exclusion_errors(node_words(broken(0)))
