"""Compile expression ASTs to Python closures, in two value domains.

**Concrete.** :func:`compile_expr` turns an :class:`~repro.expr.ast.Expr` tree into a
``fn(env) -> value`` closure observably equivalent to
:func:`repro.expr.evaluator.evaluate` under every environment:

* the same lazy connectives — AND/OR/IMPLIES short-circuit, and the
  unselected ITE branch is never computed (no spurious division-by-zero),
* the same per-node result coercion (``coerce_value`` through the node's
  ``ty``, specialized to ``bool``/``int``/``float`` for scalar types),
* the same errors with the same messages (``EvalError`` for unbound
  variables and out-of-range array indices).

The evaluator memoizes every node by identity for one call, so a sub-DAG
reached from several parents is computed once.  The plain mode drops that
memo: chart guards and actions, which the simulation kernel compiles, are
small parsed trees without sharing.  The *share-aware* mode
(``compile_expr(expr, shared)`` with a :class:`SharedDag`) keeps it in
closure form for the solver's one-step constraints, which share heavily:
each unique node is compiled once, and a node with more than one parent
reads a per-evaluation memo.  Expressions are pure, so either way only
cost changes, never a value.  Any node type this compiler does not
recognize compiles to a closure that defers the whole subtree to the
interpreter, keeping equivalence trivial.

**Symbolic.** :func:`compile_substitution` turns a tree into a
``fn(bindings) -> Expr`` closure whose result is structurally equal to
:func:`repro.expr.variables.substitute` under every binding map: each
operator node rebuilds through the same smart constructor, and returns
the original node when none of its children changed.  Subtrees without a
variable compile to the node itself.  This is how chart guards and
actions, ``Fcn`` templates and condition-point structures are
substituted by the compiled one-step encoder.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import EvalError
from repro.expr import ast, semantics
from repro.expr.ast import Binary, Const, Expr, Ite, Select, Store, Unary, Var
from repro.expr.evaluator import evaluate
from repro.expr.types import Type, coerce_value
from repro.expr import ops
from repro.expr.variables import BINARY_BUILDERS, UNARY_BUILDERS

CompiledExpr = Callable[[Mapping[str, object]], object]

_UNARY = {
    ast.NEG: operator.neg,
    ast.NOT: operator.not_,
    ast.ABS: abs,
    ast.FLOOR: math.floor,
    ast.CEIL: math.ceil,
    ast.TO_INT: int,
    ast.TO_REAL: float,
    ast.TO_BOOL: bool,
}

_BINARY = {
    ast.ADD: operator.add,
    ast.SUB: operator.sub,
    ast.MUL: operator.mul,
    ast.DIV: lambda a, b: semantics.real_div(float(a), float(b)),
    ast.IDIV: lambda a, b: semantics.c_idiv(int(a), int(b)),
    ast.MOD: lambda a, b: semantics.c_mod(int(a), int(b)),
    ast.MIN: min,
    ast.MAX: max,
    ast.LT: operator.lt,
    ast.LE: operator.le,
    ast.GT: operator.gt,
    ast.GE: operator.ge,
    ast.EQ: operator.eq,
    ast.NE: operator.ne,
    ast.XOR: lambda a, b: bool(a) != bool(b),
}


def _converter(ty: Type) -> Callable[[object], object]:
    """``coerce_value(value, ty)`` specialized to a plain callable."""
    if ty.is_bool:
        return bool
    if ty.is_int:
        return int
    if ty.is_real:
        return float
    return lambda value: coerce_value(value, ty)


def _interpreted(expr: Expr) -> CompiledExpr:
    """Fallback: defer the whole subtree to the reference evaluator."""
    return lambda env: evaluate(expr, env)


def compile_expr(
    expr: Expr, shared: Optional[SharedDag] = None
) -> CompiledExpr:
    """Compile ``expr`` into a closure equivalent to ``evaluate(expr, env)``.

    With ``shared`` the compile is share-aware (see :class:`SharedDag`).
    """
    if shared is not None:
        return shared.compile(expr)
    return _compile_node(expr, compile_expr)


class SharedDag:
    """Share-aware compile state: the evaluator's memo in closure form.

    Built over the roots a caller will compile (each listed occurrence is
    one parent reference), it counts the parent references of every
    unique node below them.  :meth:`compile` then compiles each unique
    node once, memoized by identity, so compiling is linear in the number
    of unique nodes; and a non-leaf node with more than one parent reads
    a per-evaluation memo.  An evaluation is one call of a closure wrapped
    by :meth:`entry`, which bumps the counter the memos key on.

    Laziness is the evaluator's: AND/OR/IMPLIES short-circuit and the
    unselected ITE branch is never computed, so a shared node is computed
    on first need only.  A node that raises leaves no memo entry and
    raises again on its next read, as an unmemoized ``Evaluator`` node
    does.
    """

    __slots__ = ("closures", "_parents", "_epoch")

    def __init__(self, roots: Iterable[Expr]):
        #: ``id(node) -> closure``: one per unique compiled node.
        self.closures: Dict[int, CompiledExpr] = {}
        #: ``id(node) -> parent references`` over the unique DAG.
        self._parents: Dict[int, int] = {}
        self._epoch = [0]
        parents = self._parents
        seen = set()
        stack = list(roots)
        for root in stack:
            parents[id(root)] = parents.get(id(root), 0) + 1
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            for child in node.children:
                parents[id(child)] = parents.get(id(child), 0) + 1
                stack.append(child)

    def compile(self, expr: Expr) -> CompiledExpr:
        """The closure of ``expr``, compiled on its first request."""
        key = id(expr)
        fn = self.closures.get(key)
        if fn is None:
            fn = _compile_node(expr, self.compile)
            if self._parents.get(key, 0) > 1 and not isinstance(
                expr, (Const, Var)
            ):
                fn = self.memoize(fn)
            self.closures[key] = fn
        return fn

    def memoize(self, fn: Callable) -> Callable:
        """``fn`` computed at most once per evaluation (unless it raises)."""
        epoch = self._epoch
        seen = -1
        value = None

        def memo(env):
            nonlocal seen, value
            now = epoch[0]
            if seen == now:
                return value
            result = fn(env)
            seen = now
            value = result
            return result

        return memo

    def entry(self, fn: Callable) -> Callable:
        """``fn`` as one evaluation: every call starts with fresh memos."""
        epoch = self._epoch

        def evaluation(env):
            epoch[0] += 1
            return fn(env)

        return evaluation


def _compile_node(
    expr: Expr, sub: Callable[[Expr], CompiledExpr]
) -> CompiledExpr:
    """One node's closure; ``sub`` compiles its children."""
    if isinstance(expr, Const):
        value = expr.value
        return lambda env: value
    if isinstance(expr, Var):
        name = expr.name
        conv = _converter(expr.ty)

        def var_fn(env):
            try:
                raw = env[name]
            except KeyError:
                raise EvalError(f"no value for variable {name!r}") from None
            return conv(raw)

        return var_fn
    if isinstance(expr, Unary):
        fn = _UNARY.get(expr.op)
        if fn is None:
            return _interpreted(expr)
        arg = sub(expr.arg)
        conv = _converter(expr.ty)
        return lambda env: conv(fn(arg(env)))
    if isinstance(expr, Binary):
        op = expr.op
        left = sub(expr.left)
        right = sub(expr.right)
        if op == ast.AND:
            return lambda env: bool(right(env)) if left(env) else False
        if op == ast.OR:
            return lambda env: True if left(env) else bool(right(env))
        if op == ast.IMPLIES:
            return lambda env: bool(right(env)) if left(env) else True
        fn = _BINARY.get(op)
        if fn is None:
            return _interpreted(expr)
        conv = _converter(expr.ty)
        return lambda env: conv(fn(left(env), right(env)))
    if isinstance(expr, Ite):
        cond = sub(expr.cond)
        then = sub(expr.then)
        orelse = sub(expr.orelse)
        conv = _converter(expr.ty)
        return lambda env: conv(then(env)) if cond(env) else conv(orelse(env))
    if isinstance(expr, Select):
        array_fn = sub(expr.array)
        index_fn = sub(expr.index)

        def select_fn(env):
            array = array_fn(env)
            index = int(index_fn(env))
            if not 0 <= index < len(array):
                raise EvalError(
                    f"array index {index} out of range 0..{len(array) - 1}"
                )
            return array[index]

        return select_fn
    if isinstance(expr, Store):
        array_fn = sub(expr.array)
        index_fn = sub(expr.index)
        value_fn = sub(expr.value)

        def store_fn(env):
            array = list(array_fn(env))
            index = int(index_fn(env))
            if not 0 <= index < len(array):
                raise EvalError(
                    f"array index {index} out of range 0..{len(array) - 1}"
                )
            array[index] = value_fn(env)
            return tuple(array)

        return store_fn
    return _interpreted(expr)


SubstFn = Callable[[Mapping[str, Expr]], Expr]
#: ``id(node) -> (cell, index)``: nodes whose substituted value the caller
#: computes itself and leaves in ``cell[index]`` before calling.
Operands = Dict[int, Tuple[List[Optional[Expr]], int]]


def compile_substitution(
    expr: Expr, operands: Optional[Operands] = None
) -> SubstFn:
    """Compile ``expr`` into a closure equivalent to ``substitute(expr, b)``.

    ``operands`` lets a caller reuse values it already substituted: a node
    listed there (by identity) reads its value from the given cell instead
    of being rebuilt.  The chart uses it to build a guard from its
    condition atoms.
    """
    operands = operands or {}
    return _subst_fn(expr, operands, _static_nodes(expr, operands))


def _static_nodes(expr: Expr, operands: Operands) -> set:
    """``id``s of the subtrees that contain no variable and no operand."""
    static: set = set()
    order = list(expr.walk())
    for node in reversed(order):  # children before parents
        if isinstance(node, Var) or id(node) in operands:
            continue
        if all(id(child) in static for child in node.children):
            static.add(id(node))
    return static


def _subst_fn(node: Expr, operands: Operands, static: set) -> SubstFn:
    slot = operands.get(id(node))
    if slot is not None:
        cell, index = slot
        return lambda bindings: cell[index]
    if id(node) in static:
        return lambda bindings: node
    if isinstance(node, Var):
        name = node.name
        return lambda bindings: bindings.get(name, node)
    if isinstance(node, Unary):
        arg_node = node.arg
        arg = _subst_fn(arg_node, operands, static)
        build = UNARY_BUILDERS[node.op]

        def unary_fn(bindings):
            value = arg(bindings)
            return node if value is arg_node else build(value)

        return unary_fn
    if isinstance(node, Binary):
        left_node, right_node = node.left, node.right
        left = _subst_fn(left_node, operands, static)
        right = _subst_fn(right_node, operands, static)
        build = BINARY_BUILDERS[node.op]

        def binary_fn(bindings):
            a = left(bindings)
            b = right(bindings)
            if a is left_node and b is right_node:
                return node
            return build(a, b)

        return binary_fn
    if isinstance(node, (Ite, Select, Store)):
        child_nodes = node.children
        children = tuple(
            _subst_fn(child, operands, static) for child in child_nodes
        )
        build = {Ite: ops.ite, Select: ops.select, Store: ops.store}[type(node)]

        def nary_fn(bindings):
            values = [child(bindings) for child in children]
            if all(v is c for v, c in zip(values, child_nodes)):
                return node
            return build(*values)

        return nary_fn
    return lambda bindings: node
