"""The two forms of the set operations: the plain form, compiled from the
generator bodies, must behave exactly like the stepping form the
harness explores, and observe nothing."""

import inspect
import itertools
import os
import random
import subprocess
import sys
import traceback
from collections import Counter

import pytest

import cobst.concurrent_set as cs
from cobst.concurrent_set import (S_CONT_STATE, ConcurrentSet, OpOutcome,
                                  Restart, W_DEL_DEMOTE)
from cobst.rwlock import CondRwLock, SpinPolicy

from tree_text import dump_tree


OP_TWINS = ("contains", "insert", "delete")   # ``_op``'s twins are public


def twin_names():
    """Each generator method -> its plain twins: ``_op`` has one per
    operation, every other method one."""
    names = [name for name, fn in vars(ConcurrentSet).items()
             if inspect.isgeneratorfunction(fn)]
    assert "_op" in names and "_lock" in names
    assert not hasattr(ConcurrentSet, "_op_plain")
    return {name: OP_TWINS if name == "_op" else (name + "_plain",)
            for name in names}


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
    closure; the update twins reuse the thread's ``_AttemptCtx``."""
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


def test_twin_traceback_points_into_the_generator_source(monkeypatch):
    """The attempt's frame, where ``_lock`` is pasted, points into
    ``_lock``'s lines; no frame runs between it and the lock method."""
    def boom(self, mode, cond, node=None, expected=None, edge=0):
        raise RuntimeError("from the lock")

    monkeypatch.setattr(CondRwLock, "try_lock_with_condition", boom)
    s = ConcurrentSet()
    with pytest.raises(RuntimeError) as info:
        s.insert(5)
    tb = traceback.extract_tb(info.value.__traceback__)[1:]   # from ``insert`` on
    assert [f.name for f in tb] == ["insert", "_insert_attempt_plain", "boom"]
    for f, name in zip(tb, ("_op", "_lock")):
        lines, first = inspect.getsourcelines(getattr(ConcurrentSet, name))
        assert f.filename == cs.__file__
        assert first < f.lineno < first + len(lines), (f.name, f.lineno)


# -- the flat shape: which Python functions one plain operation calls -----

def python_calls(fn, *args) -> Counter:
    """The names of the Python functions that ``fn(*args)`` runs, ``fn``
    included, each with its count of calls."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def flat_tree() -> ConcurrentSet:
    """50 over 20 and 80, 20 over 10 and 30, after this thread's first
    operation, which alone makes its stats."""
    s = ConcurrentSet()
    for k in (50, 20, 80, 10, 30):
        s.insert(k)
    return s


def test_a_plain_update_runs_its_twin_and_one_attempt_frame():
    s = flat_tree()
    # 25 hangs left of 30: 30's left edge bit, then 30's state word
    assert python_calls(s.insert, 25) == Counter({
        "insert": 1, "_insert_attempt_plain": 1,
        "try_lock_with_condition": 2, "_left_is": 2, "<lambda>": 2,
        "__init__": 1, "set_child": 1, "unlock": 2})
    assert python_calls(s.insert, 30) == Counter(
        {"insert": 1, "_insert_attempt_plain": 1})
    assert python_calls(s.delete, 35) == Counter(
        {"delete": 1, "_delete_attempt_plain": 1})
    # 25, a leaf under the DATA node 30: its edge, its state, 30's state
    assert python_calls(s.delete, 25) == Counter({
        "delete": 1, "_delete_attempt_plain": 1,
        "try_lock_with_condition": 3, "_left_holds": 2, "_state_is": 4,
        "child": 1, "set_child": 1, "unlock": 3})
    for k in (30, 35):
        assert python_calls(s.contains, k) == Counter({"contains": 1})


def test_one_held_edge_bit_adds_one_spin(monkeypatch):
    s = flat_tree()
    thirty = s.root.left.left.right
    uncontended = python_calls(s.insert, 25)
    assert s.delete(25)

    def pause():   # frees the held bit
        thirty.edges = 0

    monkeypatch.setattr(SpinPolicy, "pause", staticmethod(pause))
    thirty.edges = 1
    contended = python_calls(s.insert, 25)
    # the contended try checks its condition once, before the CAS
    assert contended - uncontended == Counter({
        "lock_with_spin": 1, "pause": 1, "try_lock_with_condition": 1,
        "_left_is": 1})
    assert uncontended - contended == Counter()


# -- the fold's rules -------------------------------------------------------

def _calls_an_early_return(self, ctx, tkey, st, curr):
    yield from self._returns_early(curr)
    return True


def _returns_early(self, curr):
    if curr.left is None:
        return
    if self._instr:
        yield W_DEL_DEMOTE


def _reads_a_clobbered_local(self, ctx, tkey, st, curr):
    seen = curr.left
    yield from self._sets_seen(curr)
    return seen is curr.left


def _sets_seen(self, curr):
    seen = curr.right
    if self._instr:
        yield W_DEL_DEMOTE
    curr.left = seen


def test_a_return_that_no_paste_form_covers_is_refused():
    with pytest.raises(TypeError) as info:
        type("EarlyReturn", (ConcurrentSet,), {
            "_delete_two_children": _calls_an_early_return,
            "_returns_early": _returns_early})
    assert str(info.value) == (
        "EarlyReturn._delete_two_children, line %d: _returns_early returns "
        "at line %d, where no paste form covers it" % (
            _calls_an_early_return.__code__.co_firstlineno + 1,
            _returns_early.__code__.co_firstlineno + 2))


def test_a_paste_that_changes_a_local_read_later_is_refused():
    with pytest.raises(TypeError) as info:
        type("Clobbers", (ConcurrentSet,), {
            "_delete_two_children": _reads_a_clobbered_local,
            "_sets_seen": _sets_seen})
    assert str(info.value) == (
        "Clobbers._delete_two_children, line %d: pasting _sets_seen would "
        "change its local seen"
        % (_reads_a_clobbered_local.__code__.co_firstlineno + 2))


class CountsLockAttempts(ConcurrentSet):
    """Counts every lock attempt, then makes it as the base class does."""

    attempts_made = 0
    _base_lock = ConcurrentSet._lock

    def _lock(self, ctx, tkey, st, optag, lock, mode, cond, family, name,
              level, node=None, expected=None, edge=0):
        self.attempts_made += 1
        yield from self._base_lock(ctx, tkey, st, optag, lock, mode, cond,
                                   family, name, level, node, expected, edge)


@pytest.mark.parametrize("stepped", [False, True])
def test_a_redefined_lock_is_seen_by_the_updates(stepped):
    for twin in ("_insert_attempt_plain", "_delete_attempt_plain", "_lock_plain"):
        assert getattr(CountsLockAttempts, twin) is not getattr(ConcurrentSet, twin)
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
        cs.compile_plain(cls)
        assert cls.delete is vars(KeepsItsOwnDelete)["delete"]
        assert cls.insert is not ConcurrentSet.insert
        s = cls()
        assert (s.insert(5), s.delete(5), s.contains(5)) == (True, "own", True)


class RefusesDemotion(ConcurrentSet):
    """Mutant: a node with two children is never demoted."""

    def _delete_two_children(self, ctx, tkey, st, curr):
        if self._instr:
            yield W_DEL_DEMOTE
        return False


@pytest.mark.parametrize("stepped", [False, True])
def test_subclass_generator_gets_its_own_twin(stepped):
    # the inherited attempt pasted the base shape, so it is compiled again
    for twin in ("_delete_two_children_plain", "_delete_attempt_plain"):
        assert getattr(RefusesDemotion, twin) is not getattr(ConcurrentSet, twin)
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
            def _delete_two_children(self, ctx, tkey, st, curr):
                yield site
                return False


class RestartsEachInsertOnce(ConcurrentSet):
    """Every insert's first attempt restarts; the second runs the real one."""

    _base_insert_attempt = ConcurrentSet._insert_attempt

    def _insert_attempt(self, ctx, tkey, st, v):
        if st.restarts < st.ops["insert"]:
            raise Restart
        return (yield from self._base_insert_attempt(ctx, tkey, st, v))


def test_plain_restarts_match_the_stepping_form():
    assert (RestartsEachInsertOnce._insert_attempt_plain
            is not ConcurrentSet._insert_attempt_plain)
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


def _unindented_demotion(self, ctx, tkey, st, curr):
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
    cs.compile_plain(Unindented)
    assert set(reference_twins(ConcurrentSet)) == set(
        itertools.chain(*twin_names().values()))
    for cls in (ConcurrentSet, RefusesDemotion, RestartsEachInsertOnce,
                AnswersByOperation, Nested, Unindented):
        want = reference_twins(cls)
        assert want, cls.__name__
        for twin, fn in want.items():
            got = getattr(cls, twin)   # compiles a class not compiled yet
            assert vars(cls)[twin] is got
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

    def _ends_in_a_handler(self, v):
        try:
            yield from self._multiline_end(v)
        except LookupError:
            pass


def test_awkward_layouts_match_the_whole_file_compiler():
    from plain_oracle import reference_twins

    want = reference_twins(Awkward)
    assert set(want) == {"_flush_left_docstring_plain", "_flush_left_continuation_plain",
                         "_decorated_plain", "_multiline_end_plain",
                         "_ends_in_a_handler_plain"} | set(reference_twins(ConcurrentSet))
    for twin, fn in want.items():
        assert same_code(vars(Awkward)[twin].__code__, fn.__code__), twin
    s = Awkward()
    assert (s._flush_left_docstring_plain(1), s._flush_left_continuation_plain(1),
            s._decorated_plain(1), s._multiline_end_plain(1),
            s._ends_in_a_handler_plain(1)) == (1, 2, 3, (1, 4), None)


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
            "assert isinstance(vars(cs.ConcurrentSet)['insert'], "
            "cs._CompiledOnUse)\n"
            "class Own(cs.ConcurrentSet):\n"
            "    def contains(self, v):\n"
            "        return super().contains(v)\n"
            "assert Own().contains(3) is False\n"   # compiled through super()
            "assert cs.ConcurrentSet.insert.__code__.co_name == 'insert'\n"
            "assert not isinstance(vars(cs.ConcurrentSet)['_lock_plain'], "
            "cs._CompiledOnUse)\n"
            "assert len(calls) == 0, len(calls)\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
