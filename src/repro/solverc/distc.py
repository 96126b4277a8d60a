"""Compiled branch-distance objectives: scalar closures and batch tapes.

Two compiled forms of :class:`~repro.expr.distance.DistanceEvaluator`,
both observably exact against the interpreter:

* :func:`compile_distance_scalar` — one closure per unique NNF node,
  with atom operands evaluated through the share-aware mode of
  :func:`repro.kernel.exprc.compile_expr` (itself pinned observably
  equivalent to ``evaluate``).  The whole constraint shares one
  :class:`~repro.kernel.exprc.SharedDag`, so a sub-DAG reached from
  several atoms is computed once per call, as ``DistanceEvaluator``'s
  per-call ``Evaluator`` memo computes it.  Same Python-float
  arithmetic, same ``try/except Exception`` failure behaviour, so the
  AVM search sees bit-identical objective values.
* :func:`compile_distance_batch` — the atoms are lowered onto a shared
  :class:`~repro.solverc.tape.TapeBuilder` and the AND/OR/atom distance
  combinators become tape instructions, so one ``evaluate`` call scores
  a whole chunk of candidate points as stacked float64 columns.  Raises
  :class:`~repro.solverc.tape.NotLowerable` when any atom cannot ride
  the tape; callers fall back to the scalar path.

The distance formulas are transcribed from ``repro.expr.distance`` and
must track it: AND sums, OR takes the first minimum, relational atoms
use the K-offset metric with ``normalize_raw`` flooring, non-finite
operands and evaluation errors map to ``FAILURE_DISTANCE``.
"""

from __future__ import annotations

from typing import Callable, List, Mapping

import numpy as np

from repro.expr import ast
from repro.expr.ast import Binary, Const, Expr
from repro.expr.distance import FAILURE_DISTANCE, K, _finite, normalize_raw
from repro.expr.types import BOOL
from repro.solverc.tape import TapeBuilder, _or

__all__ = [
    "BatchDistance",
    "compile_distance_batch",
    "compile_distance_scalar",
]


# -- scalar ----------------------------------------------------------------


def _shared_dag(roots):
    # Deferred: repro.kernel's package import reaches the simulator,
    # which imports repro.solver — importing exprc at module scope would
    # close that loop before repro.solver finishes initializing.
    from repro.kernel.exprc import SharedDag

    return SharedDag(roots)


_AND, _OR, _ATOM, _OPAQUE, _CONST = range(5)


def _kind(node: Expr) -> int:
    """How the distance function treats one NNF node."""
    if isinstance(node, Const):
        return _CONST
    if isinstance(node, Binary):
        if node.op == ast.AND:
            return _AND
        if node.op == ast.OR:
            return _OR
        if node.op in ast.REL_OPS:
            return _ATOM
    return _OPAQUE


def compile_distance_scalar(nnf: Expr) -> Callable[[Mapping], float]:
    """Compile an NNF constraint into an ``env -> distance`` closure.

    Each unique node is compiled once, at the distance level (AND/OR
    combinators, atoms) as at the value level (atom operands), and a
    node with several parents reads a per-call memo — so both compiling
    and one call are linear in the unique DAG, however much it shares.
    """
    parents, roots = _distance_dag(nnf)
    dag = _shared_dag(roots)
    return dag.entry(_distance_fn(nnf, parents, {}, dag))


def _distance_fn(node: Expr, parents, closures, dag):
    """The closure of one NNF node, compiled on its first request.

    Module-level recursion, not a nested function: a closure that
    calls itself would hold the whole compiled objective in a reference
    cycle until the cyclic collector ran.
    """
    key = id(node)
    fn = closures.get(key)
    if fn is None:
        fn = _distance_node(node, parents, closures, dag)
        if parents[key] > 1:
            fn = dag.memoize(fn)
        closures[key] = fn
    return fn


def _distance_dag(nnf: Expr):
    """Distance-level parent counts and the atoms' value roots.

    The roots list an atom's two operands (an opaque atom: the node
    itself) once per *unique* atom, since each compiles once.
    """
    parents = {id(nnf): 1}
    roots: List[Expr] = []
    seen = set()
    stack = [nnf]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        kind = _kind(node)
        if kind in (_AND, _OR):
            for child in (node.left, node.right):
                parents[id(child)] = parents.get(id(child), 0) + 1
                stack.append(child)
        elif kind == _ATOM:
            roots += (node.left, node.right)
        elif kind == _OPAQUE:
            roots.append(node)
    return parents, roots


def _distance_node(
    node: Expr, parents, closures, dag
) -> Callable[[Mapping], float]:
    kind = _kind(node)
    if kind == _CONST:
        value = 0.0 if node.value else FAILURE_DISTANCE
        return lambda env: value
    if kind in (_AND, _OR):
        left = _distance_fn(node.left, parents, closures, dag)
        right = _distance_fn(node.right, parents, closures, dag)
        if kind == _AND:
            return lambda env: left(env) + right(env)
        return lambda env: min(left(env), right(env))
    if kind == _ATOM:
        return _compile_atom_scalar(node, dag)
    return _compile_opaque_scalar(node, dag)


def _compile_atom_scalar(atom: Binary, dag) -> Callable[[Mapping], float]:
    left = dag.compile(atom.left)
    right = dag.compile(atom.right)
    # compile_expr coerces every result through the node's static type,
    # so "is a bool involved" is decidable here rather than per call.
    coerce_bool = atom.left.ty is BOOL or atom.right.ty is BOOL
    metric = _SCALAR_METRICS[atom.op]

    def distance(env: Mapping) -> float:
        try:
            a = left(env)
            b = right(env)
        except Exception:
            return FAILURE_DISTANCE
        if coerce_bool:
            a = float(bool(a))
            b = float(bool(b))
        if not (_finite(a) and _finite(b)):
            return FAILURE_DISTANCE
        return metric(a, b)

    return distance


def _compile_opaque_scalar(expr: Expr, dag) -> Callable[[Mapping], float]:
    compiled = dag.compile(expr)

    def distance(env: Mapping) -> float:
        try:
            value = compiled(env)
        except Exception:
            return FAILURE_DISTANCE
        return 0.0 if value else K

    return distance


_SCALAR_METRICS = {
    ast.LT: lambda a, b: 0.0 if a < b else normalize_raw(a - b + K),
    ast.LE: lambda a, b: 0.0 if a <= b else normalize_raw(a - b),
    ast.GT: lambda a, b: 0.0 if a > b else normalize_raw(b - a + K),
    ast.GE: lambda a, b: 0.0 if a >= b else normalize_raw(b - a),
    ast.EQ: lambda a, b: 0.0 if a == b else normalize_raw(abs(a - b)),
    ast.NE: lambda a, b: 0.0 if a != b else K,
}


# -- batch -----------------------------------------------------------------


class BatchDistance:
    """Evaluates the whole-constraint distance for a chunk of candidates."""

    __slots__ = ("_tape", "_root", "_vars")

    def __init__(self, tape, root, variables):
        self._tape = tape
        self._root = root
        self._vars = {var.name: var for var in variables}

    def evaluate(self, candidates: List[Mapping]) -> np.ndarray:
        """Distance per candidate, index-aligned with the input list."""
        count = len(candidates)
        columns = {}
        for name in self._tape.used_vars:
            if self._vars[name].ty is BOOL:
                data = (1.0 if env[name] else 0.0 for env in candidates)
            else:
                data = (float(env[name]) for env in candidates)
            columns[name] = np.fromiter(data, dtype=np.float64, count=count)
        slots, _ = self._tape.run(columns)
        result = np.asarray(slots[self._root], dtype=np.float64)
        if result.ndim == 0:
            result = np.broadcast_to(result, (count,))
        return result


def compile_distance_batch(nnf: Expr, variables) -> BatchDistance:
    """Lower an NNF constraint to a batch tape; raises NotLowerable."""
    builder = TapeBuilder(variables)
    root = _lower_distance(builder, nnf)
    return BatchDistance(builder.build(), root, variables)


def _lower_distance(builder: TapeBuilder, nnf: Expr) -> int:
    if isinstance(nnf, Const):
        value = 0.0 if nnf.value else FAILURE_DISTANCE
        return builder.new_slot(const=value)
    if isinstance(nnf, Binary):
        if nnf.op == ast.AND:
            left = _lower_distance(builder, nnf.left)
            right = _lower_distance(builder, nnf.right)
            out = builder.new_slot()

            def add(slots, errs, columns):
                slots[out] = slots[left] + slots[right]

            builder.add_instr(add)
            return out
        if nnf.op == ast.OR:
            left = _lower_distance(builder, nnf.left)
            right = _lower_distance(builder, nnf.right)
            out = builder.new_slot()

            def minimum(slots, errs, columns):
                # Distances are never NaN, so np.minimum matches min().
                slots[out] = np.minimum(slots[left], slots[right])

            builder.add_instr(minimum)
            return out
        if nnf.op in ast.REL_OPS:
            return _lower_atom(builder, nnf)
    return _lower_opaque(builder, nnf)


def _lower_atom(builder: TapeBuilder, atom: Binary) -> int:
    left = builder.slot(atom.left)
    right = builder.slot(atom.right)
    coerce_bool = atom.left.ty is BOOL or atom.right.ty is BOOL
    metric = _BATCH_METRICS[atom.op]
    out = builder.new_slot()

    def instr(slots, errs, columns):
        a = slots[left]
        b = slots[right]
        if coerce_bool:
            a = np.where(np.not_equal(a, 0.0), 1.0, 0.0)
            b = np.where(np.not_equal(b, 0.0), 1.0, 0.0)
        value = metric(a, b)
        if not coerce_bool:
            finite = np.isfinite(a) & np.isfinite(b)
            value = np.where(finite, value, FAILURE_DISTANCE)
        err = _or(errs[left], errs[right])
        if err is not None:
            # Errors dominate, exactly like the per-atom try/except.
            value = np.where(err, FAILURE_DISTANCE, value)
        slots[out] = value

    builder.add_instr(instr)
    return out


def _lower_opaque(builder: TapeBuilder, expr: Expr) -> int:
    value_slot = builder.slot(expr)
    out = builder.new_slot()

    def instr(slots, errs, columns):
        value = np.where(np.not_equal(slots[value_slot], 0.0), 0.0, K)
        err = errs[value_slot]
        if err is not None:
            value = np.where(err, FAILURE_DISTANCE, value)
        slots[out] = value

    builder.add_instr(instr)
    return out


def _floored(raw):
    return np.maximum(raw, 1e-9)


_BATCH_METRICS = {
    ast.LT: lambda a, b: np.where(a < b, 0.0, _floored((a - b) + K)),
    ast.LE: lambda a, b: np.where(a <= b, 0.0, _floored(a - b)),
    ast.GT: lambda a, b: np.where(a > b, 0.0, _floored((b - a) + K)),
    ast.GE: lambda a, b: np.where(a >= b, 0.0, _floored(b - a)),
    ast.EQ: lambda a, b: np.where(a == b, 0.0, _floored(np.abs(a - b))),
    ast.NE: lambda a, b: np.where(a != b, 0.0, K),
}
