"""Word-encoding, conditional acquisition, and exclusion tests for
CondRwLock."""

import dis
import functools
import inspect
import itertools
import linecache
import pathlib
import random
import subprocess
import sys
import threading
import time
import types
from collections import Counter, defaultdict

import pytest
from hypothesis import given, strategies as st

import cobst.concurrent_set as cs
from cobst import rwlock
from cobst.concurrent_set import ConcurrentSet
from cobst.plain import compile_plain
from cobst.rwlock import (CONDITION_VIOLATED, CONTENDED, WRITE, CondRwLock,
                          LockMode, LockOutcome, SpinPolicy)
from cobst.tree_core import Node, validate_structure


TRUE = lambda *_: True  # noqa: E731
FALSE = lambda *_: False  # noqa: E731

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
    assert lk.word == 4


def test_write_contended_on_writer():
    lk = CondRwLock()
    assert acquire(lk, W)
    assert not acquire(lk, W)
    assert lk.word == 4


def test_write_contended_on_readers():
    lk = CondRwLock()
    assert acquire(lk, R)
    assert acquire(lk, R)
    assert lk.word == 16
    assert not acquire(lk, W)
    assert lk.word == 16


def test_read_acquire_encoding():
    lk = CondRwLock()
    assert acquire(lk, R)
    assert lk.word == 8
    assert acquire(lk, R)
    assert lk.word == 16


def test_read_contended_on_writer():
    lk = CondRwLock()
    assert acquire(lk, W)
    assert not acquire(lk, R)
    assert lk.word == 4


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
    assert lk.word == 8
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


# -- the two edge bits ---------------------------------------------------------

@pytest.mark.parametrize("mode", [R, W])
def test_an_edge_bit_is_exclusive_in_either_mode(mode):
    lk = CondRwLock()
    assert lk.try_lock_with_condition(mode, TRUE, edge=1) is ACQUIRED
    assert lk.word == 1
    for other in (R, W):
        assert lk.try_lock_with_condition(other, TRUE, edge=1) \
            is LockOutcome.CONTENDED
    assert lk.try_lock_with_condition(mode, TRUE, edge=2) is ACQUIRED
    assert lk.word == 3
    lk.unlock(mode, 1)
    assert lk.word == 2
    lk.unlock(mode, 2)
    assert lk.word == 0


def test_edge_unlock_without_hold_asserts_and_keeps_the_other_bit():
    lk = CondRwLock()
    lk.word = 2 + 8     # the right edge and a reader
    with pytest.raises(AssertionError):
        lk.unlock(W, 1)
    assert lk.word == 2 + 8


@given(st.lists(st.tuples(st.sampled_from([1, 2]), st.booleans()), max_size=40))
def test_edge_bits_match_reference_automaton(ops):
    # (bit, True) tries to take the bit, (bit, False) releases it if held;
    # the state lock's bits never move
    lk = CondRwLock()
    held = set()
    for bit, up in ops:
        if up:
            got = lk.try_lock_with_condition(W, TRUE, edge=bit) is ACQUIRED
            assert got == (bit not in held)
            held.add(bit)
        elif bit in held:
            lk.unlock(W, bit)
            held.remove(bit)
        assert lk.word == sum(held)


# -- conditional acquisition ----------------------------------------------

def test_cond_acquire_plain():
    lk = CondRwLock()
    assert lk.try_lock_with_condition(LockMode.WRITE, TRUE) is LockOutcome.ACQUIRED
    assert lk.word == 4


def test_cond_fails_before_acquire():
    lk = CondRwLock()
    calls = []
    out = lk.try_lock_with_condition(LockMode.WRITE,
                                     lambda *_: calls.append(1) and False)
    assert out is LockOutcome.CONDITION_VIOLATED
    assert lk.word == 0
    assert len(calls) == 1       # no second evaluation, no acquire


def test_cond_fails_after_acquire_releases():
    # the predicate flips between the pre-check and the post-check; the
    # lock must come back released
    lk = CondRwLock()
    answers = [True, False]
    out = lk.try_lock_with_condition(LockMode.READ, lambda *_: answers.pop(0))
    assert out is LockOutcome.CONDITION_VIOLATED
    assert lk.word == 0
    assert answers == []


def test_cond_contended_checks_before_cas():
    lk = CondRwLock()
    acquire(lk, W)
    out = lk.try_lock_with_condition(LockMode.READ, TRUE)
    assert out is LockOutcome.CONTENDED
    assert lk.word == 4
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
    events = []

    def cond(*_):
        events.append("try")
        return True

    monkeypatch.setattr(SpinPolicy, "pause", lambda: events.append(lk.word))
    assert lk.try_lock_with_condition(W, cond) is LockOutcome.CONTENDED
    out = lk.lock_with_spin(LockMode.WRITE, cond)
    assert out is LockOutcome.CONTENDED
    # after the caller's own try, a pause before each of ATTEMPTS - 1 retries
    assert events == ["try"] + [4, "try"] * (SpinPolicy.ATTEMPTS - 1)


def test_spin_succeeds_when_freed_mid_way(monkeypatch):
    lk = CondRwLock()
    acquire(lk, W)
    pauses = []

    def freeing():
        pauses.append(1)
        if len(pauses) == 2:
            lk.unlock(W)

    monkeypatch.setattr(SpinPolicy, "pause", freeing)
    assert lk.try_lock_with_condition(W, TRUE) is LockOutcome.CONTENDED
    out = lk.lock_with_spin(LockMode.WRITE, TRUE)
    assert out is LockOutcome.ACQUIRED
    assert lk.word == 4 and len(pauses) == 2


def test_spin_never_retries_condition_violation():
    lk = CondRwLock()
    calls = []

    def cond(*_):
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

    def recording(*_):
        seen.append(lk.word)
        return True

    def flipping(answers):
        return lambda *_: recording() and answers.pop(0)

    monkeypatch.setattr(SpinPolicy, "pause", recording)
    for mode, held in ((W, 4), (R, 8)):
        assert lk.try_lock_with_condition(mode, recording) is LockOutcome.ACQUIRED
        lk.unlock(mode)
        # post-check fails: the release runs after the second condition
        assert lk.try_lock_with_condition(mode, flipping([True, False])) \
            is LockOutcome.CONDITION_VIOLATED
        assert seen[-4:] == [0, held, 0, held] and lk.word == 0
    acquire(lk, W)
    for mode in (R, W):     # the caller's try, then the spin's retries
        assert lk.try_lock_with_condition(mode, recording) is LockOutcome.CONTENDED
        assert lk.lock_with_spin(mode, recording) is LockOutcome.CONTENDED
    assert len(seen) == 4 * 2 + 2 * (2 * SpinPolicy.ATTEMPTS - 1)
    assert seen[8:] == [4] * 2 * (2 * SpinPolicy.ATTEMPTS - 1)


def test_condition_is_called_with_the_node_and_the_expected_value():
    # the node is the lock itself; the edge bit is how an edge condition
    # finds the child
    lk = Node(5)
    calls = []

    def cond(node, expected, edge):
        calls.append((node, expected, edge))
        return expected == 3

    assert lk.lock_with_spin(W, cond, 3) is LockOutcome.ACQUIRED
    lk.unlock(W)
    assert lk.try_lock_with_condition(R, cond, 4, 2) \
        is LockOutcome.CONDITION_VIOLATED
    assert calls == [(lk, 3, 0), (lk, 3, 0), (lk, 4, 2)]   # a Node equals only itself
    assert lk.word == 0


class CountsUnlocks(CondRwLock):
    __slots__ = ("unlocks",)

    def unlock(self, mode, edge=0):
        self.unlocks.append((mode, edge))
        super().unlock(mode, edge)


@pytest.mark.parametrize("mode, edge", [(W, 0), (R, 0), (W, 1), (R, 2)])
def test_a_failed_recheck_releases_through_the_unlock_method(mode, edge):
    """The release after a failed re-check is one call of the lock's own
    ``unlock``, which the tracer wraps, and leaves the word free."""
    lk = CountsUnlocks()
    lk.unlocks = []
    answers = [True, False]
    out = lk.try_lock_with_condition(mode, lambda *_: answers.pop(0), None, edge)
    assert out is LockOutcome.CONDITION_VIOLATED and answers == []
    assert lk.unlocks == [(mode, edge)]
    assert lk.word == 0


def test_lock_has_only_its_word():
    lk = CondRwLock()
    assert CondRwLock.__slots__ == ("word",)
    assert lk.word == 0
    assert not hasattr(lk, "__dict__")


# -- encoding round-trip property -------------------------------------------

@given(st.lists(st.booleans(), max_size=60))
def test_reader_word_is_eight_times_net_acquires(flags):
    # True = acquire, False = release one held reader (skipped when none
    # held); afterwards word == 8 * (acquires - releases)
    lk = CondRwLock()
    held = 0
    for up in flags:
        if up:
            assert acquire(lk, R)
            held += 1
        elif held:
            lk.unlock(R)
            held -= 1
    assert lk.word == 8 * held


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
                word = 4
        elif op == "r+":
            assert acquire(lk, R) == (word != 4)
            if word != 4:
                word += 8
        elif op == "w-" and word == 4:
            lk.unlock(W)
            word = 0
        elif op == "r-" and word >= 8:
            lk.unlock(R)
            word -= 8
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
                            word = 4
                            held[tid].append("w")
                    elif op == "tr":
                        got = acquire(lk, R)
                        assert got == (word != 4)
                        if got:
                            word += 8
                            held[tid].append("r")
                    elif held[tid]:
                        kind = held[tid].pop()
                        lk.unlock(LockMode.WRITE if kind == "w" else LockMode.READ)
                        word = 0 if kind == "w" else word - 8
                    assert lk.word == word
                    writers = sum(g == "w" for g in held["A"] + held["B"])
                    total = len(held["A"]) + len(held["B"])
                    assert not (writers and total > 1)
                    assert writers <= 1


# -- the bytecode of each CAS step --------------------------------------------

WORDS = ("word",)

# Opcodes on which the GIL cannot pass to another thread: none of them
# calls, enters a function, yields or jumps, the points where CPython
# 3.10 and later check for a thread switch (3.10 also at a taken
# conditional jump).  One set serves 3.10 to 3.13; a name missing from a
# version's opcode table never occurs there.
NO_SWITCH = frozenset({
    # every version
    "LOAD_FAST", "STORE_FAST", "LOAD_CONST", "POP_TOP", "NOP", "UNARY_NOT",
    # 3.10
    "DUP_TOP", "DUP_TOP_TWO", "ROT_TWO", "ROT_THREE", "BINARY_ADD",
    "BINARY_MULTIPLY", "BINARY_AND", "INPLACE_ADD", "INPLACE_SUBTRACT",
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


# the set's counters, its own attributes: a count, and dicts of counts
COUNTERS = ("restarts", "ops", "acquisitions", "cond_violations", "contended_aborts")
TALLIES = COUNTERS[1:]


def spans(func, words=WORDS):
    """Every path through ``func``'s bytecode from a ``LOAD_ATTR`` of one
    of ``words`` to its store, a ``STORE_ATTR`` of the same name or, for a
    dict of ``TALLIES``, a ``STORE_SUBSCR``, as ``(word, steps)`` with the
    opname of each instruction in between.  A path that comes back to an
    instruction ends in a ``<loop>`` step."""
    code = list(dis.get_instructions(func))
    index = {ins.offset: k for k, ins in enumerate(code)}
    found = []

    def walk(k, word, steps, seen):
        ins = code[k]
        if (ins.opname == "STORE_ATTR" and ins.argval == word
                or ins.opname == "STORE_SUBSCR" and word in TALLIES):
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
        if ins.opname == "LOAD_ATTR" and ins.argval in words:
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
    # the guardless by-name CAS steps read no word by attribute at all,
    # nor does a lock that excludes nothing
    for func in (GetattrBetween.try_lock_with_condition, GetattrBetween.unlock,
                 EdgesByName.try_lock_with_condition, EdgesByName.unlock,
                 NoExclusion.try_lock_with_condition, NoExclusion.unlock):
        assert spans(func) == []


# The plain twins paste the lock steps: every span they hold must pass too.
CALLS = {"CALL", "CALL_FUNCTION", "CALL_METHOD", "PRECALL"}   # in 3.10 to 3.13
TWINS = ("insert", "delete", "_insert_attempt_plain", "_delete_attempt_plain")


def _step_with_a_call(self, mode, condition, expected=None, edge=0):
    """``rwlock.try_lock_with_condition`` with a call, which yields the GIL,
    between the read of a word and its store."""
    out = CONDITION_VIOLATED
    if condition(self, expected, edge):
        busy, step = (edge, edge) if edge else (-4, 4) if mode is WRITE else (4, 8)
        w = self.word
        time.sleep(0)
        self.word = w + step * (not w & busy)
        if w & busy:
            out = CONTENDED
        elif condition(self, expected, edge):
            out = ACQUIRED
        else:
            self.unlock(mode, edge)
    return out


class CallsInTheCas(ConcurrentSet):
    """Mutant: its twins paste ``_step_with_a_call`` as the lock step."""


with pytest.MonkeyPatch.context() as mp:
    mp.setattr(cs, "try_lock_with_condition", _step_with_a_call)
    compile_plain(CallsInTheCas)


@pytest.mark.parametrize("twin", TWINS)
def test_each_plain_twin_pastes_its_lock_steps_with_no_switch_point(twin):
    ConcurrentSet.insert   # compiles all the twins, setting the private ones
    func = getattr(ConcurrentSet, twin)
    assert sorted({word for word, _ in spans(func)}) == sorted(WORDS)
    assert switch_points(func) == []


def test_the_bytecode_check_fails_a_lock_step_with_a_call_in_the_twins():
    for twin in TWINS[2:]:
        calls = {op for _, op in switch_points(getattr(CallsInTheCas, twin))}
        assert calls & CALLS, twin


# Every thread bumps its set's own counters, so each count, too, must be
# read, added to and stored with no switch point in between.

def counter_switch_points(func):
    """The steps of ``spans(func, COUNTERS)`` where the GIL may pass, but
    for the one ``BINARY_SUBSCR`` that reads a count out of its dict."""
    points = []
    for name, steps in spans(func, COUNTERS):
        if name in TALLIES and "BINARY_SUBSCR" in steps:
            steps = steps.copy()
            steps.remove("BINARY_SUBSCR")
        points += [(name, op) for op in steps if op not in NO_SWITCH]
    return points


# the counters that each twin and each stepping function bumps: a plain
# update counts its acquisitions once an attempt, at the release in its
# ``_op`` twin, a stepped one in ``_lock``, once a lock
COUNTED = {"contains": {"ops"}, "insert": {"ops", "restarts", "acquisitions"},
           "delete": {"ops", "restarts", "acquisitions"},
           "_op": {"ops", "restarts", "acquisitions"},
           "_insert_attempt_plain": set(TALLIES[2:]),
           "_delete_attempt_plain": set(TALLIES[2:]), "_lock": set(TALLIES[1:])}


@functools.lru_cache(maxsize=None)
def counts_through_a_call():
    """Mutant: ``cobst.concurrent_set`` run again from its source, where
    ``_op`` bumps ``ops`` and ``acquisitions`` on ``self``, and ``_lock``
    each dict of counts on ``st``, by a ``get``, a call, then a store."""
    src = pathlib.Path(cs.__file__).read_text()
    for on, name, key, n in (("self", "ops", "op", "1"), ("st", "acquisitions", "optag", "1"),
                             ("self", "acquisitions", "op", "n"),
                             ("st", "cond_violations", "family", "1"),
                             ("st", "contended_aborts", "family", "1")):
        bump = "%s.%s[%s] += %s" % (on, name, key, n)
        assert src.count(bump) == 1, bump
        src = src.replace(bump, "%s.%s[%s] = %s.%s.get(%s, 0) + %s"
                          % (on, name, key, on, name, key, n))
    path = "<%s, counting through a call>" % cs.__file__
    linecache.cache[path] = (len(src), None, src.splitlines(True), path)
    mod = types.ModuleType("cobst.counts_through_a_call")
    mod.__package__ = "cobst"
    exec(compile(src, path, "exec"), vars(mod))
    return mod


def counted(cls):
    cls.insert   # compiles the twins, setting the private ones
    return {name: getattr(cls, name) for name in COUNTED}


@pytest.mark.parametrize("name", sorted(COUNTED))
def test_each_count_is_read_bumped_and_stored_with_no_switch_point(name):
    func = counted(ConcurrentSet)[name]
    assert {counter for counter, _ in spans(func, COUNTERS)} == COUNTED[name]
    assert counter_switch_points(func) == []


def test_each_count_is_read_by_a_subscript_with_no_python_code():
    s = ConcurrentSet()
    assert type(s.ops) is type(s.acquisitions) is dict
    for counts in (s.cond_violations, s.contended_aborts):
        assert type(counts) is defaultdict and counts.default_factory is int


def test_the_counter_check_fails_a_count_bumped_through_a_call():
    for name, func in counted(counts_through_a_call().ConcurrentSet).items():
        calls = {op for _, op in counter_switch_points(func)}
        assert calls & CALLS, name


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

    EDGES = (0, 1, 2)

    def try_lock_with_condition(self, mode, condition, expected=None, edge=0):
        return ACQUIRED

    def unlock(self, mode, edge=0):
        pass


class GetattrBetween(Node):
    """The state lock's CAS and read release by name and without a guard:
    the GIL may pass to another thread when the ``getattr`` that reads the
    word returns, before the ``setattr`` stores it."""

    EDGES = (0,)

    def try_lock_with_condition(self, mode, condition, expected=None, edge=0):
        w = getattr(self, "word")
        if w & (-4 if mode is W else 4):
            return LockOutcome.CONTENDED
        setattr(self, "word", w + (4 if mode is W else 8))
        return ACQUIRED

    def unlock(self, mode, edge=0):
        w = getattr(self, "word")
        setattr(self, "word", w & -5 if mode is W else w - 8)


class EdgesByName(Node):
    """The edge bits taken and released by name: a store of one bit may
    land after the GIL passed to another thread, which changed the other
    bit of ``word`` in between."""

    EDGES = (1, 2)

    def try_lock_with_condition(self, mode, condition, expected=None, edge=0):
        w = getattr(self, "word")
        if w & edge:
            return LockOutcome.CONTENDED
        setattr(self, "word", w + edge)
        return ACQUIRED

    def unlock(self, mode, edge=0):
        setattr(self, "word", getattr(self, "word") & (-1 - edge))


class DiesOnLock(Node):
    """Takes the ``field`` keyword, not the ``edge`` that the workers pass,
    so each of them dies on its first lock call."""

    def try_lock_with_condition(self, mode, condition, expected=None,
                                field="word"):
        return ACQUIRED


def lock_as_the_set_does(lk, mode, edge):
    """One attempt, and the bounded spin only if it was contended."""
    out = lk.try_lock_with_condition(mode, TRUE, edge=edge)
    if out is LockOutcome.CONTENDED:
        out = lk.lock_with_spin(mode, TRUE, edge=edge)
    return out


def held(lk, edge):
    return lk.word & edge if edge else lk.word >> 2


def on_threads(worker, nthreads, deadline):
    """Run ``worker(i)`` for each ``i`` below ``nthreads`` on its own
    thread, at a 1 us switch interval, and wait for all of them, until a
    minute past the ``time.perf_counter()`` value ``deadline`` at most."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads inside the holds
    try:
        threads = [threading.Thread(target=worker, args=(i,), daemon=True)
                   for i in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(max(0.0, deadline + 60 - time.perf_counter()))
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)


def exclusion_errors(locks, seconds=1.0, nthreads=4):
    """Exclusion failures seen on the ``(lock, edge)`` pairs ``locks``
    within ``seconds``; the threads stop once one is seen.

    Each thread mixes READ and WRITE holds over all of them, at a 1 us
    switch interval, and calls ``hold`` inside every hold.  Writers bump
    their lock's counter by two in two steps around that call and count
    themselves in and out; readers check the counter is even and no
    writer is inside, before and after it (an edge bit excludes readers
    too, so they never see one).  A second holder admitted beside a
    writer shows up as an error, a lost word update as a lock still held
    at the end, and a worker that died, on a release's assert or any
    other raise, or that never held a lock for writing, as an error of
    its own."""
    counters = [0] * len(locks)
    inside = [0] * len(locks)
    errors = []
    writes = [None] * nthreads      # a worker's write holds, once it ends
    start = threading.Barrier(nthreads)

    def worker(seed):
        rng = random.Random(seed)
        # drawn up front, so the loop's calls are the lock's and ``hold``
        plan = [(rng.randrange(len(locks)), rng.random() < 0.5)
                for _ in range(256)]
        wrote = 0
        start.wait(60)
        while not errors and time.perf_counter() < deadline:
            for i, write in plan:
                lk, edge = locks[i]
                if write:
                    if lock_as_the_set_does(lk, W, edge) is not ACQUIRED:
                        continue
                    inside[i] += 1
                    if inside[i] != 1:
                        errors.append(("two writers", edge))
                    counters[i] += 1
                    hold()
                    counters[i] += 1
                    inside[i] -= 1
                    lk.unlock(W, edge)
                    wrote += 1
                else:
                    if lock_as_the_set_does(lk, R, edge) is not ACQUIRED:
                        continue
                    for _ in range(2):
                        if counters[i] % 2 or inside[i]:
                            errors.append(("reader saw a writer", edge))
                        hold()
                    lk.unlock(R, edge)
        writes[seed] = wrote

    deadline = time.perf_counter() + seconds
    on_threads(worker, nthreads, deadline)
    errors += [("worker ended without a write hold", s)
               for s, wrote in enumerate(writes) if not wrote]
    if sum(counters) != 2 * sum(w or 0 for w in writes):
        errors.append(("lost counter update", sum(counters), writes))
    return errors + [("lock left held", edge, held(lk, edge))
                     for lk, edge in locks if held(lk, edge)]


def node_locks(node):
    return [(node, edge) for edge in (0, 1, 2)]


def test_mutual_exclusion_under_real_threads():
    """A standalone lock's state lock and edge bits and the three locks of
    one node, each read- and write-locked by four threads that switch
    inside the holds."""
    assert exclusion_errors(node_locks(CondRwLock()) + node_locks(Node(0))) == []


@pytest.mark.parametrize("broken", [NoExclusion, GetattrBetween, EdgesByName])
def test_the_exclusion_check_fails_a_broken_lock(broken):
    lk = broken(0)
    errors = exclusion_errors([(lk, edge) for edge in broken.EDGES])
    assert {e[0] for e in errors} - {"worker ended without a write hold"}


# the three locks of a node share its one word
ROLES = ((W, 1), (R, 2), (W, 0), (R, 0), (R, 0))


def shared_word_errors(node, seconds=1.0):
    """What goes wrong when five threads hold the locks of ``node``'s one
    word side by side for ``seconds``, at a 1 us switch interval: the left
    edge, the right edge (for reading: an edge excludes either mode), the
    state lock for writing and twice for reading, as ``ROLES``.

    Each holder checks its own bits in the word before and after a call
    of ``hold``: its edge bit, or the state lock's bits showing it (a
    writer and no reader, or readers and no writer).  A holder that
    raised (on a release's assert, say), that never held its lock or
    never saw another lock's bits beside its own, and a word not free at
    the end, are errors too; the threads stop once one is seen."""
    errors = []
    holds = [0] * len(ROLES)
    beside = [0] * len(ROLES)   # holds that saw more than their own bits
    start = threading.Barrier(len(ROLES))

    def worker(r):
        mode, edge = ROLES[r]
        own = edge or (4 if mode is W else 8)   # the word with this hold alone
        start.wait(60)
        try:
            while not errors and time.perf_counter() < deadline:
                if lock_as_the_set_does(node, mode, edge) is not ACQUIRED:
                    continue
                holds[r] += 1
                for _ in range(2):
                    w = node.word
                    state = w >> 2     # 1 a writer, 2 * k k readers
                    if not (w & edge if edge else state == 1 if mode is W
                            else state and not state & 1):
                        errors.append(("bits lost", ROLES[r], w))
                    beside[r] += w != own
                    hold()
                node.unlock(mode, edge)
        except Exception as e:
            errors.append(("raised", ROLES[r], repr(e)))

    deadline = time.perf_counter() + seconds
    on_threads(worker, len(ROLES), deadline)
    if not errors:
        errors += [("never held", ROLES[r]) for r, n in enumerate(holds) if not n]
        errors += [("never beside another lock", ROLES[r])
                   for r, n in enumerate(beside) if not n]
    return errors + ([("word left set", node.word)] if node.word else [])


def test_the_locks_of_one_word_keep_each_others_bits_under_real_threads():
    assert shared_word_errors(Node(0)) == []


def unlock_keeping_three_minus_edge():
    """``rwlock.unlock`` with the two-word layout's ``keep = 3 - edge``,
    so that an edge release clears the state lock's bits too."""
    src = inspect.getsource(rwlock.unlock)
    assert src.count("keep = -1 - edge") == 1
    ns = {}
    exec(src.replace("keep = -1 - edge", "keep = 3 - edge"), vars(rwlock).copy(), ns)
    return ns["unlock"]


class ClearsTheStateWithAnEdge(Node):
    """Mutant: releases an edge by ``unlock_keeping_three_minus_edge``."""

    unlock = unlock_keeping_three_minus_edge()


def test_the_shared_word_check_fails_an_edge_release_that_clears_the_state():
    errors = shared_word_errors(ClearsTheStateWithAnEdge(0))
    assert {"bits lost", "raised"} & {e[0] for e in errors}, errors


def lost_updates(cls, seconds=1.0, nthreads=4, nkeys=8):
    """What goes wrong when ``nthreads`` threads run a known mix of
    ``contains``, ``insert`` and ``delete`` over ``nkeys`` keys on a ``cls``
    set through its public methods for ``seconds``, at a 1 us switch
    interval; the threads stop once one of them raises.

    Per key, the initial membership plus the successful inserts minus the
    successful deletes must be the final membership; the tree must pass
    ``validate_structure``, and no lock word may be left set.  The set's
    counters must count exactly the operations run, and no lock taken by
    ``contains``.  An update that still restarts a second after the time
    is up, as one on a lock word left set does for ever, raises instead
    of backing off."""
    def _backoff(self, n):
        if time.perf_counter() > deadline + 1:
            raise TimeoutError("restarting after the time is up")
        cls._backoff(self, n)

    s = type("Bounded" + cls.__name__, (cls,), {"_backoff": _backoff})()
    initial = set(random.Random(nkeys).sample(range(nkeys), nkeys // 2))
    for k in initial:
        s.insert(k)
    nets = [[0] * nkeys for _ in range(nthreads)]
    plans = [[(rng.choice(cs._OPS), rng.randrange(nkeys)) for _ in range(256)]
             for rng in map(random.Random, range(nthreads))]
    passes = [0] * nthreads   # each thread's runs of its whole plan
    errors = []
    start = threading.Barrier(nthreads)

    def worker(t):
        net = nets[t]
        start.wait(60)
        try:
            while not errors and time.perf_counter() < deadline:
                for op, k in plans[t]:
                    if op == "insert":
                        net[k] += s.insert(k)
                    elif op == "delete":
                        net[k] -= s.delete(k)
                    else:
                        s.contains(k)
                passes[t] += 1
        except Exception as e:   # a release's assert, or a broken tree
            errors.append(("raised", repr(e)))

    deadline = time.perf_counter() + seconds
    on_threads(worker, nthreads, deadline)
    ran = Counter(insert=len(initial))
    for plan, n in zip(plans, passes):
        for op, _ in plan:
            ran[op] += n
    snap = s.stats_snapshot()
    if not errors and (snap["ops"], snap["completed"]) != (   # no thread raised mid-plan
            {op: ran[op] for op in cs._OPS}, sum(ran.values())):
        errors.append(("miscounted", snap["ops"], dict(ran)))
    if snap["acquisitions"]["contains"]:
        errors.append(("contains locked", snap["acquisitions"]["contains"]))
    final = set(s.snapshot_keys())
    errors += [("lost update", k) for k in range(nkeys)
               if (k in initial) + sum(net[k] for net in nets) != (k in final)]
    errors += [("structure", p) for p in validate_structure(s).problems]
    stack = [s.root]
    while stack:
        node = stack.pop()
        if node.word:
            errors.append(("lock left held", node.val, node.word))
        stack += [c for c in (node.left, node.right) if c is not None]
    return errors


def test_no_update_is_lost_by_the_plain_twins_under_real_threads():
    assert lost_updates(ConcurrentSet) == []


def test_the_lost_update_check_fails_a_lock_step_with_a_call():
    assert lost_updates(CallsInTheCas)


def test_the_lost_update_check_fails_a_count_bumped_through_a_call():
    errors = lost_updates(counts_through_a_call().ConcurrentSet)
    assert "miscounted" in {e[0] for e in errors}, errors


def test_the_exclusion_check_fails_a_lock_its_workers_die_on(monkeypatch):
    died = []
    monkeypatch.setattr(threading, "excepthook", died.append)
    errors = exclusion_errors(node_locks(DiesOnLock(0)), seconds=0.1)
    assert len(died) == 4
    assert all(d.exc_type is TypeError for d in died)
    assert errors == [("worker ended without a write hold", s) for s in range(4)]
