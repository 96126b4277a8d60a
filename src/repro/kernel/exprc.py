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

What is dropped is the evaluator's per-call memoization of shared
sub-DAGs.  Expressions are pure, so re-evaluating a shared subtree can only
change cost, never the value; chart guards and actions — the only
expressions the kernel compiles — are small parsed trees without sharing.
Any node type this compiler does not recognize compiles to a closure that
defers the whole subtree to the interpreter, keeping equivalence trivial.

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
from typing import Callable, Dict, List, Mapping, Optional, Tuple

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


def compile_expr(expr: Expr) -> CompiledExpr:
    """Compile ``expr`` into a closure equivalent to ``evaluate(expr, env)``."""
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
        arg = compile_expr(expr.arg)
        conv = _converter(expr.ty)
        return lambda env: conv(fn(arg(env)))
    if isinstance(expr, Binary):
        op = expr.op
        left = compile_expr(expr.left)
        right = compile_expr(expr.right)
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
        cond = compile_expr(expr.cond)
        then = compile_expr(expr.then)
        orelse = compile_expr(expr.orelse)
        conv = _converter(expr.ty)
        return lambda env: conv(then(env)) if cond(env) else conv(orelse(env))
    if isinstance(expr, Select):
        array_fn = compile_expr(expr.array)
        index_fn = compile_expr(expr.index)

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
        array_fn = compile_expr(expr.array)
        index_fn = compile_expr(expr.index)
        value_fn = compile_expr(expr.value)

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
