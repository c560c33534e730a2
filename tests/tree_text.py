"""``dump_tree`` and ``parse_tree``: the parenthesized tree text format
that ``test_tree_core.py``, ``test_concurrent_set.py`` and
``test_plain_form.py`` build and compare trees with."""

from cobst.tree_core import DATA, PLUS_INF, ROUTING, Node, SequentialBst

#   tree  := node
#   node  := "_" | "(" key state node node ")"
#   state := "D" | "R"
#   key   := integer |  the infinity sign for the sentinel
#
# Example: (∞ D (5 R (3 D _ _) (7 D _ _)) _)

_INF_TOKEN = "∞"


def dump_tree(tree) -> str:
    def fmt(node) -> str:
        if node is None:
            return "_"
        key = _INF_TOKEN if node.val == PLUS_INF else str(node.val)
        tag = "D" if node.state == DATA else "R"
        return "(%s %s %s %s)" % (key, tag, fmt(node.left), fmt(node.right))

    return fmt(tree.root)


def parse_tree(text: str) -> SequentialBst:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def fail(msg):
        raise ValueError("bad tree dump at token %d: %s" % (pos, msg))

    def next_tok():
        nonlocal pos
        if pos >= len(tokens):
            fail("unexpected end of input")
        t = tokens[pos]
        pos += 1
        return t

    bst = SequentialBst()

    def parse_node():
        t = next_tok()
        if t == "_":
            return None
        if t != "(":
            fail("expected '(' or '_', got %r" % t)
        key_tok = next_tok()
        if key_tok in (_INF_TOKEN, "inf"):
            val = PLUS_INF
        else:
            try:
                val = int(key_tok)
            except ValueError:
                fail("expected a key, got %r" % key_tok)
        tag = next_tok()
        if tag not in ("D", "R"):
            fail("expected state D or R, got %r" % tag)
        node = Node(val, DATA if tag == "D" else ROUTING)
        node.left = parse_node()
        node.right = parse_node()
        if next_tok() != ")":
            fail("expected ')'")
        return node

    root = parse_node()
    if pos != len(tokens):
        fail("trailing input")
    if root is None or root.val != PLUS_INF:
        raise ValueError("tree dump must be rooted at the sentinel")
    bst.root = root
    return bst
