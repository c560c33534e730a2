"""The two forms of the set operations: the plain form, compiled from the
generator bodies, must behave exactly like the stepping form the
harness explores, and observe nothing."""

import dis
import inspect
import itertools
import os
import random
import subprocess
import sys
import threading
import tokenize
import traceback
from collections import Counter

import pytest

import cobst.concurrent_set as cs
from cobst.concurrent_set import (S_CONT_STATE, ConcurrentSet, OpOutcome,
                                  Restart, W_DEL_DEMOTE)
from cobst.plain import compile_plain
from cobst.rwlock import CondRwLock, SpinPolicy

from tree_text import dump_tree


OP_TWINS = ("contains", "insert", "delete")   # ``_op``'s twins are public


# the generator methods that the attempts paste, and so have no twin
PASTED = {"_traverse", "_lock", "_delete_two_children", "_delete_one_child",
          "_delete_leaf"}


def compiled():
    """``ConcurrentSet`` with its twins: the first lookup of a public
    method compiles them all, and only then are the private ones set."""
    ConcurrentSet.insert
    return ConcurrentSet


def twin_names():
    """Each generator method that a twin calls -> its plain twins: ``_op``
    has one per operation, an attempt one; the others are pasted."""
    names = [name for name, fn in vars(ConcurrentSet).items()
             if inspect.isgeneratorfunction(fn)]
    assert set(names) - PASTED == {"_op", "_insert_attempt", "_delete_attempt"}
    assert not [n for n in PASTED | {"_op"} if hasattr(compiled(), n + "_plain")]
    return {name: OP_TWINS if name == "_op" else (name + "_plain",)
            for name in names if name not in PASTED}


def test_plain_form_matches_drained_generators():
    rng = random.Random(20)
    stepped, plain = ConcurrentSet(), ConcurrentSet()
    for i in range(12_000):
        op = rng.choice(("insert", "delete", "contains"))
        k = rng.randrange(256)
        want = stepped._drain(stepped.op_gen(op, k))
        got = OpOutcome(op, k, getattr(plain, op)(k), 0)
        assert got == want, "op %d: %s(%d)" % (i, op, k)
    assert plain.stats_snapshot() == stepped.stats_snapshot()
    assert dump_tree(plain) == dump_tree(stepped)
    assert stepped.trace and stepped.unlinked and stepped.attempts
    assert (plain.trace, plain.unlinked, plain.attempts) == ([], [], {})
    # only stepped deletes retire, each node they unlink
    r = stepped.reclaimer
    assert r.pending() + r.reclaimed_count == len(stepped.unlinked)
    r = plain.reclaimer
    assert (r.pending(), r.reclaimed_count, r._pins) == (0, 0, {})


def test_every_twin_is_a_plain_function_from_the_module_source():
    for name, twins in twin_names().items():
        for twin in twins:
            fn = getattr(ConcurrentSet, twin)
            assert not inspect.isgeneratorfunction(fn), twin
            assert fn.__code__.co_filename == cs.__file__
    for twin in OP_TWINS:
        params = inspect.signature(getattr(ConcurrentSet, twin)).parameters
        assert list(params) == ["self", "v"], twin


def test_op_twins_keep_only_their_own_operation():
    other = {"contains": ("_traverse_plain", "_AttemptCtx",
                          "_insert_attempt_plain", "_delete_attempt_plain",
                          "_backoff"),
             "insert": ("_delete_attempt_plain",),
             "delete": ("_insert_attempt_plain",)}
    for twin, absent in other.items():
        names = getattr(ConcurrentSet, twin).__code__.co_names
        assert "OpOutcome" not in names, twin
        assert not set(absent) & set(names), twin


def test_plain_twins_build_no_closures_and_updates_no_context():
    """Neither a twin nor a module function it names (alone or in a
    tuple) holds a nested code object, so no lock attempt builds a
    closure; the update twins hold their locks in a plain list, not an
    ``_AttemptCtx``."""
    for twin in itertools.chain(*twin_names().values()):
        code = getattr(ConcurrentSet, twin).__code__
        codes = [code]
        for name in code.co_names:
            value = vars(cs).get(name)
            for fn in value if isinstance(value, tuple) else (value,):
                if inspect.isfunction(fn):
                    codes.append(fn.__code__)
        for c in codes:
            assert not [k for k in c.co_consts if inspect.iscode(k)], \
                (twin, c.co_name)
    for twin in ("insert", "delete"):
        names = getattr(ConcurrentSet, twin).__code__.co_names
        assert "_AttemptCtx" not in names, twin


def test_plain_form_observes_nothing_and_the_set_takes_no_options():
    stepped_only = ("trace", "unlinked", "attempts", "_instr", "reclaimer")
    for twin in itertools.chain(*twin_names().values()):
        names = getattr(ConcurrentSet, twin).__code__.co_names
        assert not [n for n in names if any(o in n for o in stepped_only)], twin
    assert not inspect.signature(ConcurrentSet).parameters


def line_of(name, text):
    """The line of ``ConcurrentSet``'s method ``name`` that holds ``text``."""
    lines, first = inspect.getsourcelines(getattr(ConcurrentSet, name))
    return first + next(i for i, line in enumerate(lines) if text in line)


def test_twin_traceback_points_into_the_generator_source(monkeypatch):
    """The attempt's frame, where ``_lock`` is pasted, points into
    ``_lock``'s lines; no frame runs between it and the spin that a held
    edge bit leads to.  A fault in a pasted lock step, from ``rwlock``,
    points at the line that calls it."""
    def boom(self, mode, cond, expected=None, edge=0):
        raise RuntimeError("from the lock")

    monkeypatch.setattr(CondRwLock, "lock_with_spin", boom)
    s = ConcurrentSet()
    s.root.word = 1     # the left edge
    with pytest.raises(RuntimeError) as info:
        s.insert(5)
    tb = traceback.extract_tb(info.value.__traceback__)[1:]   # from ``insert`` on
    assert [f.name for f in tb] == ["insert", "_insert_attempt_plain", "boom"]
    assert [(f.filename, f.lineno) for f in tb[:2]] == [
        (cs.__file__, line_of("_op", "_insert_attempt(ctx")),
        (cs.__file__, line_of("_lock", "lock.lock_with_spin("))]
    # the insert's new node frees the edge bit it holds: its release fails
    s.root.word = 0
    monkeypatch.setattr(cs, "Node", lambda v: setattr(s.root, "word", s.root.word & -2))
    with pytest.raises(AssertionError, match="edge unlock without") as info:
        s.insert(5)
    f = traceback.extract_tb(info.value.__traceback__)[-1]
    assert (f.name, f.filename, f.lineno) == (
        "insert", cs.__file__, line_of("_op", "unlock(lock, mode, edge)"))


# -- the flat shape: which Python functions one plain operation calls -----

def python_calls(fn, *args, builtins=False) -> Counter:
    """The names of the Python functions that ``fn(*args)`` runs, ``fn``
    included, or with ``builtins`` the qualified names of the built-in
    functions and methods that it calls, each with its count of calls."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and not builtins:
            calls[frame.f_code.co_name] += 1
        elif event == "c_call" and builtins and arg is not sys.setprofile:
            calls[arg.__qualname__] += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def flat_tree() -> ConcurrentSet:
    """50 over 20 and 80, 20 over 10 and 30."""
    s = ConcurrentSet()
    for k in (50, 20, 80, 10, 30):
        s.insert(k)
    return s


def test_a_plain_update_runs_its_twin_and_one_attempt_frame():
    s = flat_tree()
    # 25 hangs left of 30: 30's left edge bit, then 30's state lock, each
    # taken and released with no lock, condition or child-link call
    assert python_calls(s.insert, 25) == Counter({
        "insert": 1, "_insert_attempt_plain": 1, "__init__": 1})
    assert python_calls(s.insert, 30) == Counter(
        {"insert": 1, "_insert_attempt_plain": 1})
    assert python_calls(s.delete, 35) == Counter(
        {"delete": 1, "_delete_attempt_plain": 1})
    # 25, a leaf under the DATA node 30: its edge, its state, 30's state
    assert python_calls(s.delete, 25) == Counter({
        "delete": 1, "_delete_attempt_plain": 1})
    for k in (30, 35):
        assert python_calls(s.contains, k) == Counter({"contains": 1})
    # the set's one counter object: no thread id, no stats looked up by it
    for op, k in (("insert", 40), ("insert", 40), ("delete", 40),
                  ("delete", 40), ("contains", 30), ("contains", 35)):
        calls = python_calls(getattr(s, op), k, builtins=True)
        assert not {"get_ident", "dict.get"} & set(calls), (op, k, calls)
    assert python_calls(s.contains, 30, builtins=True) == Counter()


def test_each_pasted_lock_site_keeps_one_cas_and_tests_no_lock_kind():
    """Each lock site fixes its mode and whether it locks the state or
    an edge, so its paste keeps one CAS and picks what it tests and adds
    by no test at run time: an attempt twin reads ``word`` once per lock
    site, loads a state step's constant ``(busy, step)`` once per
    state-lock site, never jumps on ``edge``, and tests no mode, where
    ``WRITE is WRITE`` would load two globals and compare them."""
    compiled()
    for twin, sites, states in (("_insert_attempt_plain", 3, 2),
                                ("_delete_attempt_plain", 10, 5)):
        ins = list(dis.get_instructions(getattr(ConcurrentSet, twin)))
        loads = Counter(i.argval for i in ins if i.opname == "LOAD_ATTR")
        steps = [i for i in ins if i.opname == "LOAD_CONST" and i.argval in ((-4, 4), (4, 8))]
        assert (loads["word"], len(steps)) == (sites, states), twin
        # 3.13's ``TO_BOOL`` and a far jump's ``EXTENDED_ARG`` come between
        tested = [i for i in ins if i.opname not in ("TO_BOOL", "EXTENDED_ARG")]
        assert not [a.offset for a, b in zip(tested, tested[1:])
                    if a.argval == "edge" and "JUMP" in b.opname], twin
        assert not [c.offset for a, b, c in zip(ins, ins[1:], ins[2:])
                    if a.opname == b.opname == "LOAD_GLOBAL" and c.opname == "IS_OP"], twin


def test_one_held_edge_bit_adds_one_spin(monkeypatch):
    s = flat_tree()
    thirty = s.root.left.left.right
    uncontended = python_calls(s.insert, 25)
    assert s.delete(25)

    def pause():   # frees the held bit
        thirty.word &= -2

    monkeypatch.setattr(SpinPolicy, "pause", staticmethod(pause))
    thirty.word = 1
    contended = python_calls(s.insert, 25)
    # the pasted try fails on the held bit; the spin's retry, after the
    # pause, is the one call of the lock step and checks its condition
    # before and after the CAS
    assert contended - uncontended == Counter({
        "lock_with_spin": 1, "pause": 1, "try_lock_with_condition": 1,
        "_edge_is": 2})
    assert uncontended - contended == Counter()


# -- the fold's rules -------------------------------------------------------

def _calls_an_early_return(self, ctx, curr):
    yield from self._returns_early(curr)
    return True


def _returns_early(self, curr):
    """Demotes ``curr`` unless it lost a child, with no lock: the tests
    that use it run one operation at a time."""
    if curr.left is None or curr.right is None:
        return
    if self._instr:
        yield W_DEL_DEMOTE
    curr.state = cs.ROUTING


def _reads_a_clobbered_local(self, ctx, curr):
    seen = curr.left
    yield from self._sets_seen(curr)
    return seen is curr.left


def _sets_seen(self, curr):
    seen = curr.right
    if self._instr:
        yield W_DEL_DEMOTE
    curr.left = seen


def test_a_method_whose_return_no_paste_form_covers_stays_a_call():
    """As a function does: the twin of ``_delete_two_children`` calls the
    twin of the ``_returns_early`` that it names."""
    cls = type("EarlyReturn", (ConcurrentSet,), {
        "_delete_two_children": _calls_an_early_return,
        "_returns_early": _returns_early})
    assert "_returns_early_plain" in cls._delete_two_children_plain.__code__.co_names
    rng = random.Random(35)
    stepped, plain = cls(), cls()
    for i in range(3_000):
        op, k = rng.choice(("insert", "delete", "contains")), rng.randrange(64)
        want = stepped._drain(stepped.op_gen(op, k))
        assert OpOutcome(op, k, getattr(plain, op)(k), 0) == want, (i, op, k)
    assert dump_tree(plain) == dump_tree(stepped)
    assert " R " in dump_tree(plain)   # a demote ran through the call
    leaf = plain.root
    while leaf.left is not None:
        leaf = leaf.left
    state = leaf.state
    assert cls._returns_early_plain(plain, leaf) is None   # the early return
    assert stepped._drain(stepped._returns_early(leaf)) is None
    assert leaf.state == state


def test_a_paste_that_changes_a_local_read_later_is_refused():
    with pytest.raises(TypeError) as info:
        type("Clobbers", (ConcurrentSet,), {
            "_delete_two_children": _reads_a_clobbered_local,
            "_sets_seen": _sets_seen})
    assert str(info.value) == (
        "Clobbers._delete_two_children, line %d: pasting _sets_seen would "
        "change its local seen"
        % (_reads_a_clobbered_local.__code__.co_firstlineno + 2))


def _op_reads_seen(self, op, v, tkey):   # ``_op`` pastes as any method does
    seen = self.root.left
    yield from self._sets_seen(self.root)
    return seen is self.root.left


def test_a_paste_into_op_that_changes_a_local_read_later_is_refused():
    with pytest.raises(TypeError) as info:
        type("OpClobbers", (ConcurrentSet,), {
            "_op": _op_reads_seen, "_sets_seen": _sets_seen})
    assert str(info.value) == (
        "OpClobbers._op, line %d: pasting _sets_seen would change its local "
        "seen" % (_op_reads_seen.__code__.co_firstlineno + 2))


# functions that no paste binds: a twin keeps each as a call
def _reads_tkey(self, op, v, tkey):
    owner = tkey   # plain code: the twins have no thread key
    if self._instr:
        yield
    return owner


def test_an_op_that_reads_tkey_in_plain_code_is_refused():
    """The twins have no ``tkey``: an ``_op`` that reads it outside the
    stepping form is refused when its class is made, naming the line."""
    lines, first = inspect.getsourcelines(_reads_tkey)
    line = first + next(i for i, text in enumerate(lines) if "= tkey" in text)
    with pytest.raises(TypeError, match=r"ReadsTkey\._op, line %d: reads tkey" % line):
        type("ReadsTkey", (ConcurrentSet,), {"_op": _reads_tkey})


def _yields_unguarded(self, node):   # nothing pastes it, so it gets a twin
    yield W_DEL_DEMOTE   # outside ``if self._instr:``
    return node.state


def _yields_from_a_tuple(self, node):   # ``yield from`` of no method
    yield from (W_DEL_DEMOTE,)
    return node.state


def test_a_yield_left_after_folding_is_refused():
    for method in (_yields_unguarded, _yields_from_a_tuple):
        line = method.__code__.co_firstlineno + 1
        with pytest.raises(TypeError, match=r"YieldsUnguarded\.%s: yield left at line "
                                            r"%d after folding" % (method.__name__, line)):
            type("YieldsUnguarded", (ConcurrentSet,), {method.__name__: method})


def _positional_only(a, /, b):
    return a - b


def _keyword_only(a, *, b):
    return a - b


def _star_args(*ab):
    return ab[0] - ab[1]


def _star_kwargs(**ab):
    return ab["a"] - ab["b"]


def _two_returns(a, b):
    if a < b:
        return 0
    return a - b


def _nested_scope(a, b):
    return (lambda a: a - b)(a + 1)


def _comprehension(a, b):   # its own scope up to CPython 3.11, inlined after
    return [a - b for a in (a + 1,)][0]


def _difference(a, b):
    return a - b


def _pasted_difference(a, b):   # the control: this one pastes
    return a - b


def _doubles(a, b):   # reads ``a`` twice
    return a + a - b


def _applies(f, a, b):   # pastes; ``f`` names a call with a computed argument
    return f(a + 1, b)


def _calls_helpers(self, v):
    """Caller locals ``a``, ``b`` and ``ab`` that a paste binding the
    wrong parameters would read."""
    a, b, ab, xs, kw = 100, 7, (100, 7), (v, 1), {"a": v, "b": 1}
    p = _positional_only(v, 1)
    k = _keyword_only(v, b=1)
    s = _star_args(v, 1)
    w = _star_kwargs(a=v, b=1)
    t = _two_returns(v, 1)
    n = _nested_scope(v, 1)
    m = _comprehension(v, 1)
    c = _difference(*xs)
    d = _difference(**kw)
    e = _pasted_difference(v, 1)
    g = _applies(_doubles, v, 1)
    if self._instr:
        yield S_CONT_STATE
    return p, k, s, w, t, n, m, c, d, e, g, a, b


def test_a_call_that_no_paste_binds_stays_a_call():
    cls = type("CallsHelpers", (ConcurrentSet,), {"_calls_helpers": _calls_helpers})
    twin = cls._calls_helpers_plain
    assert set(twin.__code__.co_names) & {
        "_positional_only", "_keyword_only", "_star_args", "_star_kwargs",
        "_two_returns", "_nested_scope", "_comprehension", "_difference",
        "_pasted_difference", "_applies", "_doubles"} == {
        "_positional_only", "_keyword_only", "_star_args", "_star_kwargs",
        "_two_returns", "_nested_scope", "_comprehension", "_difference",
        "_doubles"}
    s = cls()
    gen = s._calls_helpers(5)
    while True:
        try:
            next(gen)
        except StopIteration as stop:
            stepped = stop.value
            break
    assert twin(s, 5) == stepped == (4, 4, 4, 4, 4, 5, 5, 4, 4, 4, 11, 100, 7)


def _has_a_nested_def(self, curr):   # a nested scope: nothing pastes it
    def lost_a_child(node):
        return node.left is None or node.right is None
    if self._instr:
        yield W_DEL_DEMOTE
    return lost_a_child(curr)


def _calls_a_nested_def(self, ctx, curr):
    return (yield from self._has_a_nested_def(curr))


@pytest.mark.parametrize("stepped", [False, True])
def test_a_method_with_a_nested_def_stays_a_call(stepped):
    cls = type("NestedDef", (ConcurrentSet,), {
        "_delete_two_children": _calls_a_nested_def,
        "_has_a_nested_def": _has_a_nested_def})
    assert "_has_a_nested_def_plain" in cls._delete_two_children_plain.__code__.co_names
    s = cls()

    def run(op, k):
        return s._drain(s.op_gen(op, k)).result if stepped else getattr(s, op)(k)

    for k in (10, 5, 15):
        run("insert", k)
    assert run("delete", 10) is False   # it kept both children
    assert run("delete", 5) is True and run("delete", 10) is True


def _adds_ten_times(base, step):   # assigns ``y``, which a caller may pass as ``base``
    y = step * 10
    return base + y


def _appends(xs, x):   # falls off its end: no final ``return``
    xs.append(x)


def _pastes_helpers(self, xs, v):
    y = v + 1
    f = _adds_ten_times(y, 2)
    if xs:
        return _appends(xs, f)
    if self._instr:
        yield S_CONT_STATE
    return f


@pytest.mark.parametrize("xs", [[], [0]])
def test_a_paste_binds_a_name_it_assigns_and_returns_where_its_callee_ends(xs):
    """A name argument that the paste assigns is bound first, and a tail
    ``return`` of a callee that falls off its end returns None there."""
    cls = type("PastesHelpers", (ConcurrentSet,), {"_pastes_helpers": _pastes_helpers})
    twin = cls._pastes_helpers_plain
    assert not {"_adds_ten_times", "_appends"} & set(twin.__code__.co_names)
    s = cls()
    stepped_xs, plain_xs = list(xs), list(xs)
    stepped = s._drain(s._pastes_helpers(stepped_xs, 5))
    assert twin(s, plain_xs, 5) == stepped == (None if xs else 26)
    assert plain_xs == stepped_xs == xs + [26] * bool(xs)


class CountsLockAttempts(ConcurrentSet):
    """Counts every lock attempt, then makes it as the base class does."""

    attempts_made = 0
    _base_lock = ConcurrentSet._lock

    def _lock(self, ctx, tkey, st, optag, lock, mode, cond, family, name,
              level, expected=None, edge=0):
        self.attempts_made += 1
        yield from self._base_lock(ctx, tkey, st, optag, lock, mode, cond,
                                   family, name, level, expected, edge)


@pytest.mark.parametrize("stepped", [False, True])
def test_a_redefined_lock_is_seen_by_the_updates(stepped):
    for twin in ("_insert_attempt_plain", "_delete_attempt_plain"):
        assert getattr(CountsLockAttempts, twin) is not getattr(compiled(), twin)
    # the attempts call a ``_lock`` of another module instead of pasting it
    assert "_lock_plain" in vars(CountsLockAttempts)
    assert not hasattr(compiled(), "_lock_plain")
    s = CountsLockAttempts()

    def run(op, k):
        return s._drain(s.op_gen(op, k)).result if stepped else getattr(s, op)(k)

    # locks taken: a leaf edge and state, the same, a leaf's edge, its
    # state and its DATA parent's state, none for an absent key
    for (op, k), attempts in zip((("insert", 10), ("insert", 5),
                                  ("delete", 5), ("delete", 7)), (2, 4, 7, 7)):
        assert run(op, k) is (k != 7)
        assert s.attempts_made == attempts, (op, k)
    assert s.stats_snapshot()["acquisitions"] == {
        "contains": 0, "insert": 4, "delete": 3}


class KeepsItsOwnDelete(ConcurrentSet):
    """A class body's own public method, beside a generator method, so
    that ``compile_plain`` runs on the class."""

    def delete(self, v):
        return "own"

    def _unused(self):
        if self._instr:
            yield S_CONT_STATE
        return None


class InheritsAnOwnDelete(KeepsItsOwnDelete):
    def _unused(self):
        if self._instr:
            yield S_CONT_STATE
        return None


def test_a_class_keeps_its_own_public_method():
    for cls in (KeepsItsOwnDelete, InheritsAnOwnDelete):
        compile_plain(cls)
        assert cls.delete is vars(KeepsItsOwnDelete)["delete"]
        assert cls.insert is not ConcurrentSet.insert
        s = cls()
        assert (s.insert(5), s.delete(5), s.contains(5)) == (True, "own", True)


class RefusesDemotion(ConcurrentSet):
    """Mutant: a node with two children is never demoted."""

    def _delete_two_children(self, ctx, curr):
        if self._instr:
            yield W_DEL_DEMOTE
        return False


@pytest.mark.parametrize("stepped", [False, True])
def test_subclass_generator_gets_its_own_twin(stepped):
    # the inherited attempt pasted the base shape, so it is compiled again,
    # and calls the shape of another module
    assert RefusesDemotion._delete_attempt_plain is not compiled()._delete_attempt_plain
    assert "_delete_two_children_plain" in vars(RefusesDemotion)
    assert not hasattr(compiled(), "_delete_two_children_plain")
    s = RefusesDemotion()

    def run(op, k):
        return s._drain(s.op_gen(op, k)).result if stepped else getattr(s, op)(k)

    for k in (10, 5, 15):
        run("insert", k)
    assert run("delete", 10) is False
    assert run("contains", 10)
    assert run("delete", 5) is True          # the other shapes are inherited


def test_closure_methods_are_refused():
    site = W_DEL_DEMOTE
    with pytest.raises(TypeError, match="enclosing variables"):
        class UsesClosure(ConcurrentSet):
            def _delete_two_children(self, ctx, curr):
                yield site
                return False


class RestartsEachInsertOnce(ConcurrentSet):
    """Every insert's first attempt restarts; the second runs the real one.
    An update's attempts share its ``ctx``, a new one per update, so an
    attempt is a first one if its thread's last attempt had another."""

    _base_insert_attempt = ConcurrentSet._insert_attempt

    def __init__(self):
        super().__init__()
        self.last_ctx = {}   # thread -> the ``ctx`` of its last insert attempt

    def _insert_attempt(self, ctx, v):
        if self.last_ctx.get(threading.get_ident()) is not ctx:
            self.last_ctx[threading.get_ident()] = ctx
            raise Restart
        return (yield from self._base_insert_attempt(ctx, v))


def test_plain_restarts_match_the_stepping_form():
    assert (RestartsEachInsertOnce._insert_attempt_plain
            is not compiled()._insert_attempt_plain)
    plain, stepped = RestartsEachInsertOnce(), RestartsEachInsertOnce()
    for k in (5, 3, 5):
        want = stepped._drain(stepped.op_gen("insert", k))
        before = plain.stats_snapshot()["restarts"]
        assert plain.insert(k) is want.result, k
        assert plain.stats_snapshot()["restarts"] - before == want.restarts == 1, k
    assert plain.stats_snapshot() == stepped.stats_snapshot()
    assert plain.contains(5) is True
    assert plain.stats_snapshot()["restarts"] == 3


class AnswersByOperation(ConcurrentSet):
    """Mutant ``_op``: contains answers True, updates False, nothing runs."""

    def _op(self, op, v, tkey):
        if self._instr:
            yield S_CONT_STATE
        return op == "contains"


def test_subclass_op_gets_fresh_per_op_twins():
    for twin in OP_TWINS:
        assert getattr(AnswersByOperation, twin) is not getattr(ConcurrentSet, twin)
    s = AnswersByOperation()
    assert (s.contains(5), s.insert(5), s.delete(5)) == (True, False, False)
    assert s._drain(s.op_gen("insert", 5)) is False
    assert s.snapshot_keys() == []


def same_code(a, b) -> bool:
    """Equal bytecode, constants (nested code compared the same way),
    names, variables, line table and positions.  CPython 3.10 has no
    ``co_qualname`` or ``co_positions``; its ``co_lines`` stand in."""
    if len(a.co_consts) != len(b.co_consts):
        return False
    for x, y in zip(a.co_consts, b.co_consts):
        if inspect.iscode(x) or inspect.iscode(y):
            if not (inspect.iscode(x) and inspect.iscode(y) and same_code(x, y)):
                return False
        elif type(x) is not type(y) or x != y:
            return False
    positions = lambda c: list(getattr(c, "co_positions", c.co_lines)())
    return all(getattr(a, f, None) == getattr(b, f, None) for f in (
        "co_code", "co_names", "co_varnames", "co_name", "co_qualname",
        "co_filename", "co_firstlineno", "co_flags", "co_linetable",
        "co_argcount", "co_kwonlyargcount")) and positions(a) == positions(b)


def _unindented_demotion(self, ctx, curr):
    if self._instr:
        yield W_DEL_DEMOTE
    return curr.left is None


def test_twins_match_the_whole_file_compiler():
    from plain_oracle import reference_twins

    class Nested(ConcurrentSet):        # methods indented two levels
        def _traverse(self, v):
            if self._instr:
                yield S_CONT_STATE
            return None, self.root, None

    class Unindented(ConcurrentSet):    # a method defined at column 0
        pass

    Unindented._delete_two_children = _unindented_demotion
    compile_plain(Unindented)
    assert set(reference_twins(ConcurrentSet)) == set(
        itertools.chain(*twin_names().values()))
    for cls in (ConcurrentSet, RefusesDemotion, RestartsEachInsertOnce,
                AnswersByOperation, Nested, Unindented):
        want = reference_twins(cls)
        assert want, cls.__name__
        for twin, fn in want.items():
            got = vars(cls)[twin]   # ``twin_names`` compiled ConcurrentSet
            assert getattr(cls, twin) is got
            assert same_code(got.__code__, fn.__code__), (cls.__name__, twin)


def _keep(fn):
    return fn


class Awkward(ConcurrentSet):
    """Generator methods laid out the ways a line-range reader could cut
    short or overrun; each twin returns what its body computes."""

    def _flush_left_docstring(self, v):
        """A docstring whose second line
starts at column 0."""
        if self._instr:
            yield S_CONT_STATE
        return v

    def _flush_left_continuation(self, v):
        if self._instr:
            yield S_CONT_STATE
        total = (v +
1)
        return total

    @_keep
    def _decorated(self, v):
        if self._instr:
            yield S_CONT_STATE
# a column-0 comment inside the body
        return v + 2
# a column-0 comment after the method

    def _multiline_end(self, v):
        if self._instr:
            yield S_CONT_STATE
        return (v,
                v + 3,
                )

    def _ends_in_a_handler(self, v):   # pastes the method above, value dropped
        try:
            yield from self._multiline_end(v)
        except LookupError:
            pass

    def _returns_the_multiline_end(self, v):   # pastes it as its value
        return (yield from self._multiline_end(v))


def test_awkward_layouts_match_the_whole_file_compiler():
    from plain_oracle import reference_twins

    want = reference_twins(Awkward)
    # ``_multiline_end`` has no twin: both its callers paste it
    assert set(want) == {"_flush_left_docstring_plain", "_flush_left_continuation_plain",
                         "_decorated_plain", "_ends_in_a_handler_plain",
                         "_returns_the_multiline_end_plain"} | set(
                             reference_twins(ConcurrentSet))
    for twin, fn in want.items():
        assert same_code(vars(Awkward)[twin].__code__, fn.__code__), twin
    s = Awkward()
    assert (s._flush_left_docstring_plain(1), s._flush_left_continuation_plain(1),
            s._decorated_plain(1), s._returns_the_multiline_end_plain(1),
            s._ends_in_a_handler_plain(1)) == (1, 2, 3, (1, 4), None)


def test_compiling_without_malloc_trim_still_installs_the_twins(monkeypatch):
    """After compiling, the twins' freed heap is handed back through the C
    library's ``malloc_trim``; a library without one is passed over.
    ``compile_plain`` imports ``ctypes`` only then, so that what the import
    allocates is not held while the twins compile."""
    import ctypes

    import cobst.plain as plain

    def no_such_library(name):
        raise OSError(name)

    assert not hasattr(plain, "ctypes")
    monkeypatch.setattr(ctypes, "CDLL", no_such_library)
    cls = type("TrimlessSet", (ConcurrentSet,),
               {"_insert_attempt": ConcurrentSet._insert_attempt})
    s = cls()
    assert vars(cls)["insert"].plain_twin and s.insert(3) and s.contains(3)


def test_first_lookups_in_several_threads_compile_once():
    """Four threads look up public methods, one of them on the class, while
    the first compile is still running: the class is compiled once and no
    lookup fails."""
    code = ("import threading, time\n"
            "import cobst.plain as plain\n"
            "from cobst.concurrent_set import ConcurrentSet\n"
            "compiled, defs = [], plain._plain_defs\n"
            "def slow(cls, *args):\n"
            "    compiled.append(cls)\n"
            "    time.sleep(0.05)\n"   # the others arrive meanwhile
            "    return defs(cls, *args)\n"
            "plain._plain_defs = slow\n"
            "s, go, errors, made = ConcurrentSet(), threading.Barrier(4), [], []\n"
            "def first(k):\n"
            "    go.wait(30)\n"
            "    try:\n"
            "        made.append(ConcurrentSet.delete(s, k) if k == 3 else s.insert(k))\n"
            "    except Exception as e:\n"
            "        errors.append(e)\n"
            "ts = [threading.Thread(target=first, args=(k,)) for k in range(4)]\n"
            "for t in ts: t.start()\n"
            "for t in ts: t.join(30)\n"
            "assert not any(t.is_alive() for t in ts)\n"
            "assert not errors and compiled == [ConcurrentSet], (errors, compiled)\n"
            "assert sorted(made) == [False, True, True, True], made\n"
            "assert [s.contains(k) for k in range(4)] == [True, True, True, False]\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.10 has no co_positions; inspect tokenizes")
def test_importing_cobst_runs_no_tokenizer():
    code = ("import tokenize\n"
            "calls = []\n"
            "real = tokenize.generate_tokens\n"
            "def counting(*args, **kwargs):\n"
            "    calls.append(args)\n"
            "    return real(*args, **kwargs)\n"
            "tokenize.generate_tokens = counting\n"
            "import cobst.concurrent_set as cs\n"
            "stand_ins = lambda: [n for n, a in vars(cs.ConcurrentSet).items()\n"
            "                     if isinstance(a, cs._CompiledOnUse)]\n"
            "assert stand_ins() == ['contains', 'insert', 'delete'], stand_ins()\n"
            "assert '_insert_attempt_plain' not in vars(cs.ConcurrentSet)\n"
            "import sys\n"
            "assert 'cobst.plain' not in sys.modules\n"   # the compiler loads on use
            "class Own(cs.ConcurrentSet):\n"
            "    def contains(self, v):\n"
            "        return super().contains(v)\n"
            "assert Own().contains(3) is False\n"   # compiled through super()
            "assert cs.ConcurrentSet.insert.__code__.co_name == 'insert'\n"
            "assert stand_ins() == [], stand_ins()\n"
            "assert '_insert_attempt_plain' in vars(cs.ConcurrentSet)\n"
            "assert '_lock_plain' not in vars(cs.ConcurrentSet)\n"
            "assert len(calls) == 0, len(calls)\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


def test_the_compiler_source_parses_below_the_token_cliff():
    """CPython 3.11's parser doubles its token array and allocates each new
    slot, so a module of 4 096 tokens or more costs about 0.23 MiB more to
    parse; ``cobst.plain`` is parsed in every process that runs without a
    bytecode cache, by the first lookup of a public method."""
    with open(inspect.getsourcefile(compile_plain), "rb") as f:
        count = sum(t.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
                    for t in tokenize.tokenize(f.readline))
    assert count < 4096, ("cobst/plain.py has %d tokens, past the parser's "
                          "4 096-token cliff" % count)


def test_a_first_lookup_through_super_runs_the_override_once():
    """The first lookup of a public method, through ``super()`` in a
    subclass's own override, compiles the twins and returns the base
    class's twin, not the override, which would run again."""
    code = ("import cobst.concurrent_set as cs\n"
            "class Counts(cs.ConcurrentSet):\n"
            "    calls = 0\n"
            "    def delete(self, v):\n"
            "        self.calls += 1\n"
            "        return super().delete(v)\n"
            "s = Counts()\n"
            "assert isinstance(vars(cs.ConcurrentSet)['delete'], cs._CompiledOnUse)\n"
            "assert s.delete(3) is False\n"
            "assert s.calls == 1, s.calls\n"
            "assert (s.insert(3), s.delete(3), s.calls) == (True, True, 2)\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
