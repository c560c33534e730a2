"""The plain-call form of ``ConcurrentSet``, compiled from the generator
bodies of ``cobst.concurrent_set`` on the first lookup of a public
method, which imports this module.

Each generator method ``_m`` becomes a plain function ``_m_plain``,
except ``_op``, which becomes ``contains``, ``insert`` and ``delete``,
with ``op`` read as the operation's name; a twin has no ``tkey``, and
an ``_op`` that still reads it outside the stepping form is refused.
``self._instr`` reads as False and comparisons of constants fold, so
each ``if`` keeps only the branch taken: the twins keep no checkpoint,
record or ``OpOutcome``.

``yield from self._m(...)`` of a generator method of the same module,
and a call by name of a plain function whose globals the twin's module
binds alike, such as a lock step of ``rwlock`` (not a method call, like
its ``self.unlock``), paste the callee's folded body: as a statement or
an assignment if its only ``return`` ends it, and as a tail ``return``
in any case.  Only callees with positional-or-keyword parameters and no
nested scope paste, only for calls with no ``*`` or ``**`` argument; a
callee whose ``return`` statements no form covers, such as an attempt
that ``_op`` calls, stays a call.  Constant arguments,
and names that the paste never assigns, are substituted, others bound
at the top of the paste; a call that a substitution names, a condition
passed as ``cond``, pastes as its function's one ``return`` expression.
A paste then tells what tests it can: ``is`` or ``is not`` between two
module globals, such as a lock step's ``mode is WRITE`` with ``WRITE``
passed, by the objects that they are bound to, and the truth of a
parameter bound to an item of a module's tuple of true constants, such
as an edge bit; the compiler keeps only the branch taken.  Like a paste,
a fold reads a name that the twin does not bind as the module's global.
Any other ``yield from self._m(...)`` calls ``self._m_plain``; only such
methods and those that nothing pastes get a twin.  The twins keep the
source's file name and line numbers, so a traceback through one points
into the generator bodies; a paste from another file takes its call's.
"""

from __future__ import annotations

import ast
import copy
import inspect
import linecache
import operator

from .concurrent_set import _OPS, _compiling

__all__ = ["compile_plain"]


def _self_call(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self")


def _subst(node, args, fold=None):
    """``node`` with each read of a name in ``args`` replaced by a copy of
    its value, a constant or a name, and each node so changed, and each
    ``if`` or conditional expression, by what ``fold`` gives for it, if
    anything; a subtree that reads none is shared."""
    if isinstance(node, ast.Name):
        arg = args.get(node.id)
        if arg is None or not isinstance(node.ctx, ast.Load):
            return node
        return ast.copy_location(copy.copy(arg), node)
    new = node
    for field in node._fields:
        old = getattr(node, field, None)
        if isinstance(old, list):
            value = [_subst(x, args, fold) if isinstance(x, ast.AST) else x for x in old]
            same = all(map(operator.is_, value, old))
        elif isinstance(old, ast.AST):
            value = _subst(old, args, fold)
            same = value is old
        else:
            continue
        if not same:
            new = copy.copy(node) if new is node else new
            setattr(new, field, value)
    if fold and (new is not node or isinstance(node, (ast.If, ast.IfExp))):
        return fold(new) or new
    return new


def _spread(call) -> bool:   # a ``*`` or ``**`` argument, which no paste binds
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords))


def _arguments(fn, call, method) -> dict:
    """Parameter of ``fn`` -> the expression ``call`` passes, or its default."""
    params, defaults = [p.arg for p in fn.args.args], fn.args.defaults
    args = dict(zip(params[len(params) - len(defaults):], defaults))
    args.update(zip(params, [ast.Name("self", ast.Load())] * method + call.args))
    args.update((k.arg, k.value) for k in call.keywords)
    return args


def _moved(nodes, stmt):   # copies at the place of ``stmt``
    nodes = copy.deepcopy(nodes)
    for node in ast.walk(ast.Module(nodes, [])):
        ast.copy_location(node, stmt)
    return nodes


class _FoldInstrumentation(ast.NodeTransformer):
    """Folds a method of ``where``, ``_op`` with ``op`` bound to ``op``,
    and pastes each callee for which ``pasted(name, method)`` gives its
    fold: the def, the names its body reads and assigns, its count of
    ``return`` statements, its file and whether a paste can bind its
    parameters, all positional-or-keyword, in the caller's scope, with
    no nested scope in the body; ``calls`` are left calls.  The method is
    ``fn``, by whose globals a paste folds the tests that it can tell."""

    def __init__(self, where, op, pasted, fn):
        self.where, self.op, self.pasted = where, op, pasted
        self.filename, self.module = fn.__code__.co_filename, fn.__globals__
        self.loads, self.stores, self.loops, self.pastes = [], set(), [], []
        self.reads, self.assigns, self.returns, self.calls = set(), set(), 0, set()
        self.scoped = None   # False inside the def, True once a nested scope is seen

    def visit_Lambda(self, node):   # and the other nested scopes
        self.scoped = True
        return self.generic_visit(node)

    visit_comprehension = visit_ClassDef = visit_Lambda

    def visit_FunctionDef(self, node):   # annotations read nothing in a twin
        if self.scoped is not None:
            return self.visit_Lambda(node)
        self.scoped = False
        node.returns = None
        for a in node.args.args:
            a.annotation = None
        self.generic_visit(node)
        locals_ = self.stores | {a.arg for a in node.args.args}
        for stmt, looped, names, callee in self.pastes:
            end = (stmt.end_lineno, stmt.end_col_offset)
            clash = names & locals_ & {n for n, at in self.loads if at > end or looped}
            if clash:
                raise TypeError("%s, line %d: pasting %s would change its local %s"
                                % (self.where, stmt.lineno, callee, ", ".join(sorted(clash))))
        if self.op is not None:
            node.args.args = [a for a in node.args.args if a.arg not in ("op", "tkey")]
        a = node.args
        return (node, self.reads | {n for n, _ in self.loads}, self.assigns | self.stores,
                self.returns, self.filename,
                not (self.scoped or a.posonlyargs or a.kwonlyargs or a.vararg or a.kwarg))

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.loads.append((node.id, (node.lineno, node.col_offset)))
        else:
            self.stores.add(node.id)
        if self.op is not None and node.id == "op":
            return ast.copy_location(ast.Constant(self.op), node)
        if self.op is not None and node.id == "tkey":
            raise TypeError("%s, line %d: reads tkey, which only the stepping form has"
                            % (self.where, node.lineno))
        return node

    def visit_Attribute(self, node):
        if (node.attr == "_instr" and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return ast.copy_location(ast.Constant(False), node)
        return self.generic_visit(node)

    def visit_Compare(self, node):
        return self.fold(self.generic_visit(node)) or node

    def visit_If(self, node):   # a constant test keeps one branch, unvisited
        node.test = self.visit(node.test)
        if not isinstance(node.test, ast.Constant):
            return self.generic_visit(node)
        return self.generic_visit(
            ast.Module(node.body if node.test.value else node.orelse, [])).body

    def visit_While(self, node):   # and For: a paste inside reads the whole loop
        self.loops.append(((node.lineno, node.col_offset),
                           (node.end_lineno, node.end_col_offset)))
        return self.generic_visit(node)

    visit_For = visit_While

    def visit_YieldFrom(self, node):
        self.generic_visit(node)
        if _self_call(node.value):
            self.calls.add(node.value.func.attr)
            node.value.func.attr += "_plain"
            return node.value
        return node

    def fold(self, node, true=()):
        """What the fold puts for ``node``, if anything: a call pasted as an
        expression, a true test for an ``if`` on a name in ``true``, and a
        constant for ``==`` or ``!=`` between constants, or for ``is`` or
        ``is not`` between module globals, by the objects bound to them."""
        if isinstance(node, ast.Call):
            return self.expression(node)
        if isinstance(node, (ast.If, ast.IfExp)) and getattr(node.test, "id", 0) in true:
            node = copy.copy(node)
            node.test = ast.copy_location(ast.Constant(True), node.test)
            return node
        if not isinstance(node, ast.Compare) or len(node.ops) > 1:
            return None
        a, b, op = node.left, node.comparators[0], type(node.ops[0])
        if op in (ast.Eq, ast.NotEq) and type(a) is type(b) is ast.Constant:
            same = a.value == b.value
        elif op in (ast.Is, ast.IsNot) and {getattr(a, "id", 0), getattr(b, "id", 0)
                                            } <= self.module.keys():
            same = self.module[a.id] is self.module[b.id]
        else:
            return None
        return ast.copy_location(ast.Constant(same == (op in (ast.Eq, ast.Is))), node)

    def true_items(self, node) -> bool:   # names a module's tuple of true constants
        items = self.module.get(getattr(node, "id", 0))
        return type(items) is tuple and all(items)

    def expression(self, call):   # a one-``return`` function's expression, or None
        callee = (isinstance(call.func, ast.Name) and not _spread(call)
                  and self.pasted(call.func.id, False))
        fn = callee and callee[0]
        if not fn or len(fn.body) > 1 or not isinstance(fn.body[0], ast.Return):
            return None
        args = _arguments(fn, call, False)   # each may be read twice: a name or constant
        if args.keys() != {p.arg for p in fn.args.args} or not all(
                isinstance(a, (ast.Constant, ast.Name)) for a in args.values()):
            return None
        self.reads |= callee[1] - set(args) | {a.id for a in args.values()
                                               if isinstance(a, ast.Name)}
        self.assigns |= callee[2]
        expr = _subst(fn.body[0].value, args, self.fold)
        return expr if callee[4] == self.filename else _moved([expr], call)[0]

    def visit_Expr(self, stmt):   # and Assign and Return: paste the callee
        method = isinstance(stmt.value, ast.YieldFrom)
        call = stmt.value.value if method else stmt.value
        targets = getattr(stmt, "targets", None if isinstance(stmt, ast.Return) else [])
        callee = None if not isinstance(call, ast.Call) or _spread(call) else (
            self.pasted(call.func.attr, True) if method and _self_call(call) else
            self.pasted(call.func.id, False) if not method and isinstance(call.func, ast.Name)
            else None)
        if callee is None or targets is not None and callee[3] > isinstance(
                callee[0].body[-1], ast.Return):   # no paste form covers its returns
            stmt = self.generic_visit(stmt)
            self.returns += isinstance(stmt, ast.Return)
            return stmt
        fn, read, stored, returns, filename, _ = callee
        params, args = [p.arg for p in fn.args.args], _arguments(fn, call, method)
        used = read & set(params)
        bound = {p for p in used if p in stored
                 or not isinstance(args[p], (ast.Constant, ast.Name))}
        while more := {p for p in used - bound
                       if getattr(args[p], "id", None) in stored | bound}:
            bound |= more    # a name argument must keep its value in the paste
        body = fn.body[ast.get_docstring(fn) is not None:]
        tnames = {n.id for t in targets or () for n in ast.walk(t) if isinstance(n, ast.Name)}
        self.reads |= read - set(params) | {n.id for a in args.values()
                                            for n in ast.walk(a) if isinstance(n, ast.Name)}
        assigns = set(self.assigns)
        subst = {p: args[p] for p in used - bound if getattr(args[p], "id", None) != p}
        true = {p for p in bound - stored if isinstance(args[p], ast.Subscript)
                and self.true_items(args[p].value)}
        body = [_subst(b, subst, lambda n: self.fold(n, true))
                for b in body] if subst or true else body[:]
        at, end = (stmt.lineno, stmt.col_offset), (stmt.end_lineno, stmt.end_col_offset)
        self.pastes.append((stmt, any(b <= at and end <= e for b, e in self.loops),
                            (stored | bound | self.assigns - assigns) - tnames, fn.name))
        self.assigns |= stored | bound | tnames
        if targets is None:
            self.returns += returns
            if not isinstance(body[-1], (ast.Return, ast.Raise)):
                body.append(ast.copy_location(ast.Return(None), body[-1]))
                self.returns += 1
        else:
            last = body.pop() if isinstance(body[-1], ast.Return) else stmt
            value = getattr(last, "value", None) or ast.Constant(None)
            if not targets and last is not stmt and last.value:
                body.append(ast.copy_location(ast.Expr(value), last))
            elif targets and [ast.unparse(t) for t in targets] != [ast.unparse(value)]:
                body.append(ast.copy_location(ast.Assign(targets, value), last))
        if bound:
            order = [p for p in params if p in bound]
            body.insert(0, ast.fix_missing_locations(ast.copy_location(ast.Assign(
                [ast.Tuple([ast.Name(p, ast.Store()) for p in order], ast.Store())],
                ast.Tuple([args[p] for p in order], ast.Load())), stmt)))
        return body if filename == self.filename else _moved(body, stmt)

    visit_Assign = visit_Return = visit_Expr


def _method_def(fn) -> ast.FunctionDef:
    """The def of ``fn`` from its own lines, read by ``linecache`` to the
    last line in ``co_positions()`` (by ``inspect`` on CPython 3.10) and
    padded so that every line and column number is the file's."""
    code = fn.__code__
    if hasattr(code, "co_positions"):
        first = code.co_firstlineno
        block = linecache.getlines(code.co_filename, fn.__globals__)[
            first - 1:max(filter(None, map(operator.itemgetter(1), code.co_positions())))]
    else:   # CPython 3.10
        block, first = inspect.getsourcelines(fn)
    indented = block[0][:1].isspace()
    source = ("\n" * (first - 1 - indented)
              + ("class _:\n" if indented else "") + "".join(block))
    return next(n for n in ast.walk(ast.parse(source, code.co_filename))
                if isinstance(n, ast.FunctionDef))


def _plain_defs(cls, parse=_method_def) -> dict:
    """Twin name -> (folded def, method) for each generator method that
    ``cls`` has, own or inherited, and that a twin calls or nothing
    pastes; ``parse(fn)`` gives the def of ``fn``."""
    gens: dict = {}
    for klass in reversed(cls.__mro__):
        gens.update(vars(klass))
    gens = {n: fn for n, fn in gens.items() if inspect.isgeneratorfunction(fn)}
    done: dict = {}
    pasted, called = set(), set()

    def fold(fn, op=None, name=None):
        where = "%s.%s" % (cls.__name__, name) if name else fn.__qualname__
        if fn.__code__.co_freevars:
            raise TypeError("%s uses enclosing variables %s; only plain "
                            "methods can be compiled" % (where, fn.__code__.co_freevars))

        def paste(m, method):   # a twin calls a method of another module
            f = gens.get(m) if method else fn.__globals__.get(m)
            if method and (f is None or f.__globals__ is not fn.__globals__):
                return None
            if not method and (m in fn.__code__.co_varnames or not inspect.isfunction(f)
                               or f.__name__ == "<lambda>" or inspect.isgeneratorfunction(f)
                               or f.__code__.co_freevars):
                return None
            callee = folded(m if method else f)
            if callee is None or not callee[5]:
                return None
            if method:
                pasted.add(m)
                return callee
            globs = callee[1] - callee[2] - {a.arg for a in callee[0].args.args}
            return None if any(f.__globals__.get(g, len) is not fn.__globals__.get(g, len)
                               for g in globs) else callee   # ``len``: in neither

        t = _FoldInstrumentation(where, op, paste, fn)
        out = t.visit(parse(fn))
        called.update(t.calls)
        return out

    def folded(key):   # a method's name or a function
        if key not in done:
            done[key] = None   # a callee that pastes itself calls itself
            done[key] = fold(gens[key], name=key) if isinstance(key, str) else fold(key)
        return done[key]

    twins = {op: (fold(gens["_op"], op, "_op")[0], gens["_op"]) for op in _OPS if "_op" in gens}
    folds = {name: folded(name)[0] for name in gens if name != "_op"}
    twins.update((name + "_plain", (node, gens[name])) for name, node in folds.items()
                 if name in called or name not in pasted)
    done.clear()   # ``fold`` and ``folded`` form a cycle; the defs need not wait for it
    return twins


def compile_plain(cls) -> None:
    """Install on ``cls`` the plain twins of its generator methods, own
    or inherited, as an inherited twin may have pasted a method that
    ``cls`` redefines; a public method that ``cls`` or a base defines
    itself stays.  A method that every plain caller pastes gets no twin.
    Subclasses that define a generator method are compiled when they are
    created; call this again after replacing one.  One thread compiles
    at a time.  ``TypeError`` names the method and line of a paste that
    changes a caller local read later, an ``_op`` that reads ``tkey`` in
    plain code, or a ``yield`` left after folding.
    """
    with _compiling:   # as is the first lookup of a stand-in
        twins = _plain_defs(cls)
        while twins:   # each def is dropped once compiled
            twin, (node, fn) = twins.popitem()
            own = inspect.getattr_static(cls, twin, None)
            if twin in _OPS and own is not None and not hasattr(own, "plain_twin"):
                continue
            node.name = twin
            ns: dict = {}
            exec(compile(ast.Module([node], []), fn.__code__.co_filename, "exec"),
                 fn.__globals__, ns)
            if inspect.isgeneratorfunction(ns[twin]):
                line = next(n.lineno for n in ast.walk(node)
                            if isinstance(n, (ast.Yield, ast.YieldFrom)))
                raise TypeError("%s.%s: yield left at line %d after folding"
                                % (cls.__name__, fn.__name__, line))
            ns[twin].plain_twin = True
            setattr(cls, twin, ns[twin])
    import ctypes   # only now: what it allocates is not held while compiling
    try:   # glibc keeps the heap that compiling freed resident: hand it back
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):   # another C library
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)
