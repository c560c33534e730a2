"""The former ``compile_plain``'s reader, kept as the oracle of the twin
compiler's: it parses and walks the whole source file of a class's
generator methods, where ``compile_plain`` parses each method's own
lines, and hands each def to the same fold and pastes.
``reference_twins`` returns the twins instead of installing them.  It
compiles under the same ``__future__`` flags as ``cobst.plain``, whose
flags ``compile`` passes on to the twins."""

from __future__ import annotations

import ast
import copy
import linecache

from cobst.plain import _plain_defs


def reference_twins(cls) -> dict:
    """Twin name -> plain function, for every generator method that
    ``cls`` has, own or inherited."""
    defs = {}

    def whole_file_def(fn):
        code = fn.__code__
        if code.co_filename not in {f for f, _ in defs}:
            source = "".join(linecache.getlines(code.co_filename, fn.__globals__))
            for node in ast.walk(ast.parse(source, code.co_filename)):
                if isinstance(node, ast.FunctionDef):
                    # a decorated method's code starts at its first decorator
                    first = min([node.lineno]
                                + [d.lineno for d in node.decorator_list])
                    defs[code.co_filename, first] = node
        return copy.deepcopy(defs[code.co_filename, code.co_firstlineno])

    out = {}
    for twin, (node, fn) in _plain_defs(cls, whole_file_def).items():
        node.name = twin
        ns: dict = {}
        exec(compile(ast.Module([node], []), fn.__code__.co_filename, "exec"),
             fn.__globals__, ns)
        out[twin] = ns[twin]
    return out
