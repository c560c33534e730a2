"""The plain-call form of the set operations: compiled from the generator
bodies, it must behave exactly like draining them."""

import inspect
import random
import traceback

import pytest

import cobst.concurrent_set as cs
from cobst.concurrent_set import ConcurrentSet, OpOutcome, W_DEL_DEMOTE
from cobst.history import HistoryRecorder
from cobst.tree_core import dump_tree


def observed_set():
    events = []
    s = ConcurrentSet(trace=[], recorder=HistoryRecorder(), debug_checks=True,
                      track_unlinked=True,
                      on_lock_event=lambda tkey, point, out: events.append(
                          (point, out)))
    return s, events


def test_plain_form_matches_drained_generators():
    rng = random.Random(20)
    gen_set, gen_events = observed_set()
    plain_set, plain_events = observed_set()
    for i in range(12_000):
        op = rng.choice(("insert", "delete", "contains"))
        k = rng.randrange(256)
        want = gen_set._drain(gen_set.op_gen(op, k))
        if i % 2:
            got = plain_set.run_op(op, k)
        else:
            got = OpOutcome(op, k, getattr(plain_set, op)(k), 0)
        assert got == want, "op %d: %s(%d)" % (i, op, k)
    assert plain_set.stats_snapshot() == gen_set.stats_snapshot()
    assert dump_tree(plain_set) == dump_tree(gen_set)
    assert plain_set._trace == gen_set._trace
    assert plain_events == gen_events
    assert plain_set._recorder.events == gen_set._recorder.events
    assert ([n.id for n in plain_set.unlinked]
            == [n.id for n in gen_set.unlinked])


def test_every_twin_is_a_plain_function_from_the_module_source():
    names = [name for name, fn in vars(ConcurrentSet).items()
             if inspect.isgeneratorfunction(fn)]
    assert "_op" in names and "_lock" in names
    for name in names:
        twin = getattr(ConcurrentSet, name + "_plain")
        assert not inspect.isgeneratorfunction(twin), name
        assert twin.__code__.co_filename == cs.__file__


def test_twin_traceback_points_into_the_generator_source():
    def boom(tkey, point, out):
        raise RuntimeError("from the lock hook")

    s = ConcurrentSet(on_lock_event=boom)
    with pytest.raises(RuntimeError) as info:
        s.insert(5)
    frames = {f.name: f for f in traceback.extract_tb(info.value.__traceback__)}
    for twin, name in (("_op_plain", "_op"),
                       ("_insert_attempt_plain", "_insert_attempt"),
                       ("_lock_plain", "_lock")):
        lines, first = inspect.getsourcelines(getattr(ConcurrentSet, name))
        f = frames[twin]
        assert f.filename == cs.__file__
        assert first < f.lineno < first + len(lines), (twin, f.lineno)


class RefusesDemotion(ConcurrentSet):
    """Mutant: a node with two children is never demoted."""

    def _delete_two_children(self, ctx, tkey, st, curr):
        if self._instr:
            yield W_DEL_DEMOTE
        return False


@pytest.mark.parametrize("instrumented", [False, True])
def test_subclass_generator_gets_its_own_twin(instrumented):
    assert (RefusesDemotion._delete_two_children_plain
            is not ConcurrentSet._delete_two_children_plain)
    s = RefusesDemotion(instrumented=instrumented)
    for k in (10, 5, 15):
        s.insert(k)
    assert s.delete(10) is False
    assert s.contains(10)
    assert s.delete(5) is True          # the other shapes are inherited


def test_closure_methods_are_refused():
    site = W_DEL_DEMOTE
    with pytest.raises(TypeError, match="enclosing variables"):
        class UsesClosure(ConcurrentSet):
            def _delete_two_children(self, ctx, tkey, st, curr):
                yield site
                return False
