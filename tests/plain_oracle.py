"""The former ``compile_plain``, kept as the oracle of the twin compiler:
it parses and walks the whole source file of a class's generator methods
and deep-copies ``_op`` once per operation.  ``reference_twins`` returns
the twins instead of installing them.  It compiles under the same
``__future__`` flags as ``cobst.concurrent_set``, whose flags ``compile``
passes on to the twins."""

from __future__ import annotations

import ast
import copy
import inspect
import linecache

from cobst.concurrent_set import _PLAIN_TWINS, _FoldInstrumentation


def reference_twins(cls) -> dict:
    """Twin name -> plain function, for every generator method that
    ``cls`` itself defines."""
    gens = [(name, fn) for name, fn in vars(cls).items()
            if inspect.isgeneratorfunction(fn)]
    defs = {}
    for filename, fn in {fn.__code__.co_filename: fn for _, fn in gens}.items():
        source = "".join(linecache.getlines(filename, fn.__globals__))
        for node in ast.walk(ast.parse(source, filename)):
            if isinstance(node, ast.FunctionDef):
                # a decorated method's code starts at its first decorator
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                defs[filename, first] = node
    out = {}
    for name, fn in gens:
        code = fn.__code__
        source = defs[code.co_filename, code.co_firstlineno]
        if name == "_op":
            twins = [(op, twin, copy.deepcopy(source))
                     for op, twin in _PLAIN_TWINS.items()]
        else:
            twins = [(None, name + "_plain", source)]
        for op, twin, node in twins:
            node = _FoldInstrumentation(op).visit(node)
            node.name = twin
            ns: dict = {}
            exec(compile(ast.Module([node], []), code.co_filename, "exec"),
                 fn.__globals__, ns)
            out[twin] = ns[twin]
    return out
