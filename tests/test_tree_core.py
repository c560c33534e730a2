"""Sequential tree semantics, structural validation, and the dump
format."""

import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from cobst.concurrent_set import ConcurrentSet
from cobst.reclaim import POISON
from cobst.rwlock import CondRwLock
from cobst.tree_core import (DATA, LEFT, MAX_KEY, MIN_KEY, PLUS_INF, RIGHT,
                             ROUTING, Node, SequentialBst, traverse,
                             validate_key, validate_structure)

from tree_text import dump_tree, parse_tree


# -- key validation -----------------------------------------------------

def test_validate_key_accepts_client_keys():
    assert validate_key(0) == 0
    assert validate_key(-5) == -5
    assert validate_key(MAX_KEY) == MAX_KEY
    assert validate_key(MIN_KEY) == MIN_KEY


def test_validate_key_rejects_sentinel():
    with pytest.raises(ValueError):
        validate_key(PLUS_INF)


def test_validate_key_rejects_out_of_range():
    with pytest.raises(ValueError):
        validate_key(2 ** 63)
    with pytest.raises(ValueError):
        validate_key(MIN_KEY - 1)


def test_validate_key_rejects_non_ints():
    with pytest.raises(TypeError):
        validate_key("5")
    with pytest.raises(TypeError):
        validate_key(5.0)
    with pytest.raises(TypeError):
        validate_key(True)   # bool is an int subtype but not a key


# -- fresh tree -----------------------------------------------------------

def test_a_node_fits_pymalloc_s_80_byte_size_class():
    # pymalloc serves small objects from size classes 16 B apart, so an
    # 88-B node, one slot more, would take a 96-B block: the six slots
    # (five fields and the one lock word) and the GC header make 80 B
    assert Node.__slots__ + CondRwLock.__slots__ == (
        "val", "state", "left", "right", "deleted", "word")
    assert sys.getsizeof(Node(1)) <= 80


def test_fresh_tree_shape():
    bst = SequentialBst()
    assert bst.root.val == PLUS_INF
    assert bst.root.state == DATA
    assert bst.root.left is None and bst.root.right is None
    assert not bst.seq_contains(5)
    assert bst.snapshot_keys() == []
    assert validate_structure(bst).ok


# -- traversal ------------------------------------------------------------

def test_traverse_finds_direct_child():
    bst = SequentialBst()
    bst.seq_insert(5)
    gprev, prev, curr = traverse(bst.root, 5)
    assert gprev is None
    assert prev is bst.root
    assert curr is bst.root.left


def test_traverse_miss_on_fresh_tree():
    bst = SequentialBst()
    gprev, prev, curr = traverse(bst.root, 5)
    assert gprev is None
    assert prev is bst.root
    assert curr is None


def test_traverse_two_levels():
    bst = SequentialBst()
    bst.seq_insert(5)
    bst.seq_insert(3)
    gprev, prev, curr = traverse(bst.root, 3)
    assert gprev is bst.root
    assert prev is bst.root.left
    assert curr is bst.root.left.left
    assert curr.val == 3


def test_traverse_descends_by_order():
    bst = SequentialBst()
    for k in (50, 20, 80):
        bst.seq_insert(k)
    n50 = bst.root.left
    n20, n80 = n50.left, n50.right
    assert (n20.val, n80.val) == (20, 80)
    for v, want in ((20, (bst.root, n50, n20)),    # hit, left
                    (80, (bst.root, n50, n80)),    # hit, right
                    (10, (n50, n20, None)),        # miss below 20's left
                    (30, (n50, n20, None)),        # miss below 20's right
                    (70, (n50, n80, None)),        # miss below 80's left
                    (90, (n50, n80, None))):       # miss below 80's right
        got = traverse(bst.root, v)
        assert all(g is w for g, w in zip(got, want)), (v, got)


def test_traverse_takes_no_locks(monkeypatch):
    bst = SequentialBst()
    for k in (5, 3, 7):
        bst.seq_insert(k)
    attempts = []
    real = CondRwLock.try_lock_with_condition

    def counting(lock, mode, cond, node=None, expected=None, edge=0):
        attempts.append(lock)
        return real(lock, mode, cond, node, expected, edge)

    monkeypatch.setattr(CondRwLock, "try_lock_with_condition", counting)
    for k in (3, 5, 7, 9):
        traverse(bst.root, k)
    assert attempts == []


# -- contains ---------------------------------------------------------------

def test_contains_after_insert():
    bst = SequentialBst()
    assert bst.seq_insert(5)
    assert bst.seq_contains(5)


def test_contains_false_on_routing_node():
    bst = parse_tree("(∞ D (5 R (3 D _ _) (7 D _ _)) _)")
    assert not bst.seq_contains(5)
    assert bst.seq_contains(3)
    assert bst.seq_contains(7)


# -- insert -------------------------------------------------------------------

def test_insert_links_left_of_root():
    bst = SequentialBst()
    assert bst.seq_insert(5)
    assert bst.root.left is not None and bst.root.left.val == 5
    assert bst.root.right is None


def test_insert_duplicate_returns_false():
    bst = SequentialBst()
    assert bst.seq_insert(5)
    assert not bst.seq_insert(5)


def test_insert_promotes_routing_node_in_place():
    bst = SequentialBst()
    for k in (2, 1, 3):
        bst.seq_insert(k)
    assert bst.seq_delete(2)
    node2 = bst.root.left
    assert node2.val == 2 and node2.state == ROUTING
    assert bst.seq_insert(2)
    assert bst.root.left is node2       # same node, no new allocation
    assert node2.state == DATA


# -- delete --------------------------------------------------------------------

def test_delete_two_children_demotes():
    bst = SequentialBst()
    for k in (2, 1, 3):
        bst.seq_insert(k)
    assert bst.seq_delete(2)
    node2 = bst.root.left
    assert node2.val == 2
    assert node2.state == ROUTING       # still reachable, structural only
    assert not node2.deleted
    assert bst.snapshot_keys() == [1, 3]


def test_delete_one_child_splices():
    bst = SequentialBst()
    bst.seq_insert(5)
    bst.seq_insert(3)
    node3 = bst.root.left.left
    assert bst.seq_delete(5)
    assert bst.root.left is node3
    assert bst.snapshot_keys() == [3]


def test_delete_leaf_with_data_parent():
    bst = SequentialBst()
    bst.seq_insert(5)
    bst.seq_insert(3)
    assert bst.seq_delete(3)
    assert bst.root.left.val == 5
    assert bst.root.left.left is None


def test_delete_leaf_with_routing_parent_removes_pair():
    bst = SequentialBst()
    for k in (2, 1, 3):
        bst.seq_insert(k)
    bst.seq_delete(2)                   # 2 becomes ROUTING
    node2 = bst.root.left
    node1, node3 = node2.left, node2.right
    assert bst.seq_delete(3)
    assert bst.root.left is node1       # sibling moved up two levels
    assert bst.snapshot_keys() == [1]
    assert node2.deleted and node3.deleted and not node1.deleted


def test_delete_absent_or_routing_returns_false():
    bst = SequentialBst()
    assert not bst.seq_delete(5)
    for k in (2, 1, 3):
        bst.seq_insert(k)
    bst.seq_delete(2)
    assert not bst.seq_delete(2)        # routing, not a member


def test_delete_leaf_under_root_uses_plain_unlink():
    # the root is DATA by construction, so a leaf hanging off it never
    # triggers the routing-parent pair removal
    bst = SequentialBst()
    bst.seq_insert(5)
    assert bst.seq_delete(5)
    assert bst.root.left is None
    assert validate_structure(bst).ok


# -- oracle equivalence property ------------------------------------------------

ops_strategy = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "contains"]),
              st.integers(min_value=0, max_value=15)),
    max_size=120)


@settings(max_examples=200, deadline=None)
@given(ops_strategy)
def test_matches_set_oracle(ops):
    bst = SequentialBst()
    oracle = set()
    for op, k in ops:
        if op == "insert":
            assert bst.seq_insert(k) == (k not in oracle)
            oracle.add(k)
        elif op == "delete":
            assert bst.seq_delete(k) == (k in oracle)
            oracle.discard(k)
        else:
            assert bst.seq_contains(k) == (k in oracle)
    assert bst.snapshot_keys() == sorted(oracle)
    rep = validate_structure(bst)
    assert rep.ok, rep.problems


@settings(max_examples=100, deadline=None)
@given(ops_strategy)
def test_routing_nodes_never_outnumber_data_nodes(ops):
    bst = SequentialBst()
    for op, k in ops:
        getattr(bst, "seq_" + op)(k)
        routing = 0
        data = 0
        stack = [bst.root]
        while stack:
            n = stack.pop()
            if n is None:
                continue
            if n.state == ROUTING:
                routing += 1
            elif n.val != PLUS_INF:
                data += 1
            stack.extend((n.left, n.right))
        assert routing <= data


# -- structural validation catches corruption ------------------------------------

def test_validator_flags_routing_leaf():
    bst = parse_tree("(∞ D (5 R (3 D _ _) (7 D _ _)) _)")
    bst.root.left.left = None           # routing node down to one child
    rep = validate_structure(bst)
    assert any("routing" in p for p in rep.problems)


def test_validator_flags_value_property_breach():
    bst = parse_tree("(∞ D (5 D (9 D _ _) _) _)")   # 9 in 5's left subtree
    rep = validate_structure(bst)
    assert any("value property" in p for p in rep.problems)


def test_validator_flags_reachable_deleted_node():
    bst = SequentialBst()
    bst.seq_insert(5)
    bst.root.left.deleted = True
    rep = validate_structure(bst)
    assert any("deleted" in p for p in rep.problems)


def test_validator_flags_root_right_child():
    bst = SequentialBst()
    bst.root.right = Node(MAX_KEY)      # nothing may sort above the sentinel
    rep = validate_structure(bst)
    assert not rep.ok


def test_validator_flags_shared_node():
    bst = parse_tree("(∞ D (5 D (3 D _ _) (7 D _ _)) _)")
    n5 = bst.root.left
    n5.right = n5.left                   # 3 reachable twice
    rep = validate_structure(bst)
    assert any("twice" in p for p in rep.problems)


def test_validator_flags_reclaimed_node():
    bst = SequentialBst()
    bst.seq_insert(5)
    node = bst.root.left
    node.left = node.right = POISON     # what the reclaimer leaves
    rep = validate_structure(bst)
    assert any("reclaimed" in p for p in rep.problems)


def test_validator_flags_resurrected_node():
    bst = SequentialBst()
    bst.seq_insert(5)
    bst.seq_insert(3)
    ghost = bst.root.left.left
    bst.seq_delete(3)
    ghost.deleted = False                # simulate a buggy re-link
    bst.root.left.left = ghost
    rep = validate_structure(SimpleNamespace(root=bst.root, unlinked=[ghost]))
    assert any("reachable again" in p for p in rep.problems)


def test_validator_flags_wrong_root():
    fake = SimpleNamespace(root=Node(42), unlinked=[])
    rep = validate_structure(fake)
    assert any("sentinel" in p for p in rep.problems)


@pytest.mark.parametrize("where,field,value,msg", [
    ("root", "state", ROUTING, "root is not a DATA node"),
    ("root", "deleted", True, "root is marked deleted"),
    ("leaf", "state", "X", "<Node 5 R> has unknown state 'X'"),
])
def test_validator_flags_a_bad_state_field(where, field, value, msg):
    bst = SequentialBst()
    bst.seq_insert(5)
    setattr(bst.root if where == "root" else bst.root.left, field, value)
    rep = validate_structure(bst)
    assert any(msg in p for p in rep.problems), rep.problems


def test_validator_counts_held_lock_words_without_failing():
    bst = SequentialBst()
    bst.seq_insert(5)
    bst.seq_insert(3)
    gone = bst.root.left.left
    bst.seq_delete(3)
    bst.root.left.word = 4 + 1              # reachable: write-held, left edge held
    gone.word = 2                           # unlinked: its right edge held
    rep = validate_structure(SimpleNamespace(root=bst.root, unlinked=[gone]))
    assert rep.held_locks == 3
    assert rep.ok, rep.problems


def test_validator_counts_nodes():
    bst = parse_tree("(∞ D (5 R (3 D _ _) (7 D _ _)) _)")
    rep = validate_structure(bst)
    assert rep.ok
    assert rep.node_count == 4          # sentinel + 3
    assert rep.data_count == 3          # sentinel, 3, 7


def test_validator_walks_a_path_deeper_than_the_recursion_limit():
    s = ConcurrentSet()
    for k in range(1200):               # in order: one right-leaning path
        s.insert(k)
    rep = validate_structure(s)
    assert rep.ok, rep.problems
    assert rep.node_count == 1201


# -- dump / parse ------------------------------------------------------------------

def test_dump_fresh_tree():
    assert dump_tree(SequentialBst()) == "(∞ D _ _)"


def test_dump_example_shape():
    bst = SequentialBst()
    for k in (5, 3, 7):
        bst.seq_insert(k)
    bst.seq_delete(5)
    assert dump_tree(bst) == "(∞ D (5 R (3 D _ _) (7 D _ _)) _)"


def test_parse_accepts_ascii_inf():
    bst = parse_tree("(inf D (5 D _ _) _)")
    assert bst.root.val == PLUS_INF
    assert bst.snapshot_keys() == [5]


def test_parse_dump_round_trip():
    text = "(∞ D (5 R (3 D _ _) (7 D _ _)) _)"
    assert dump_tree(parse_tree(text)) == text


@settings(max_examples=100, deadline=None)
@given(ops_strategy)
def test_round_trip_preserves_any_reachable_tree(ops):
    bst = SequentialBst()
    for op, k in ops:
        getattr(bst, "seq_" + op)(k)
    text = dump_tree(bst)
    again = parse_tree(text)
    assert dump_tree(again) == text
    assert again.snapshot_keys() == bst.snapshot_keys()
    assert validate_structure(again).ok == validate_structure(bst).ok


@pytest.mark.parametrize("text", [
    "",                                  # empty
    "(∞ D _",                            # truncated
    "(∞ X _ _)",                         # bad state tag
    "(∞ D _ _) junk",                    # trailing input
    "(5 D _ _)",                         # root is not the sentinel
    "_",                                 # null root
    "(∞ D piggy _ _)",                   # not a key (also arity breaks)
])
def test_parse_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        parse_tree(text)
