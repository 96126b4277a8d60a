"""Slot-indexed numpy lowering of expression DAGs (the batch tape).

``TapeBuilder`` lowers :class:`~repro.expr.ast.Expr` trees into a flat
instruction list over numpy float64 columns: one slot per unique node
(id-memoised, so shared sub-DAGs are evaluated once), one instruction per
non-constant node, plus a parallel lazily-allocated *error mask* per slot
recording which candidate rows would have raised in the interpreter.

Exactness contract (load-bearing — the engine relies on it to keep
fixed-seed runs bit-identical with the kernel off):

* every value a lowered slot holds is, row by row, the exact float64 the
  scalar evaluator would produce.  Python scalar arithmetic on floats and
  IEEE float64 ndarray arithmetic agree for ``+ - * / abs neg`` and all
  comparisons; ``min``/``max`` are mirrored with ``np.where`` (not
  ``np.minimum``, whose NaN handling differs from Python's);
  ``//``/``%`` use C-truncation semantics computed in int64.
* integer-typed nodes are only lowered when a compile-time interval
  analysis (reusing the contractor's forward transfer functions) bounds
  their magnitude below 2**53, where int↔float64 conversion is exact;
  anything larger (or unbounded) raises :class:`NotLowerable` and the
  engine falls back to the interpreter for that constraint.
* the only interpreter error sources inside a lowered tree are
  ``Select`` index-out-of-range and ``floor``/``ceil``/``int`` of a
  non-finite value; both set the error mask instead of raising, and the
  distance layer maps masked rows to ``FAILURE_DISTANCE`` — exactly what
  the interpreter's per-atom ``try/except`` does.  Error masks propagate
  lazily through ``and``/``or``/``implies``/``Ite`` mirroring the
  evaluator's short-circuiting.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.expr import ast
from repro.expr.ast import Binary, Const, Expr, Ite, Select, Unary, Var
from repro.expr.types import INT
from repro.solver.box import _initial_domain
from repro.solver.contractor import _forward_binary, _forward_unary
from repro.solver.interval import Interval

__all__ = ["NotLowerable", "Tape", "TapeBuilder", "MAX_EXACT_INT"]

# Largest magnitude at which every integer has an exact float64
# representation.  INT-typed nodes whose compile-time interval exceeds
# this cannot ride the float64 tape without rounding.
MAX_EXACT_INT = 2.0**53


class NotLowerable(Exception):
    """The expression contains a construct the batch tape cannot carry."""


def _or(a, b):
    """Combine two optional error masks (None means 'no rows errored')."""
    if a is None:
        return b
    if b is None:
        return a
    return a | b


def _masked(cond, err):
    """Restrict an error mask to rows where ``cond`` holds (lazy eval)."""
    if err is None:
        return None
    return cond & err


def _nonzero(values):
    """Row-wise truthiness of a 0/1 (or numeric) column."""
    return values != 0.0


class Tape:
    """A compiled instruction list; ``run`` evaluates it over columns."""

    __slots__ = ("_instrs", "_template", "_size", "used_vars")

    def __init__(self, instrs, template, size, used_vars):
        self._instrs = instrs
        self._template = template
        self._size = size
        self.used_vars = used_vars

    def run(self, columns: Dict[str, np.ndarray]):
        """Evaluate every slot; returns (values, error-masks) lists."""
        slots = list(self._template)
        errs: List[Optional[np.ndarray]] = [None] * self._size
        with np.errstate(all="ignore"):
            for instr in self._instrs:
                instr(slots, errs, columns)
        return slots, errs


class TapeBuilder:
    """Lowers expression nodes onto a shared slot-indexed tape."""

    def __init__(self, variables):
        self._vars = {var.name: var for var in variables}
        self._instrs: List[Callable] = []
        self._template: List[object] = []
        self._ivals: List[Optional[Interval]] = []
        self._memo: Dict[int, int] = {}
        self.used_vars: List[str] = []

    # -- tape assembly ------------------------------------------------

    def new_slot(self, ival: Optional[Interval] = None, const=None) -> int:
        index = len(self._template)
        self._template.append(const)
        self._ivals.append(ival)
        return index

    def add_instr(self, instr) -> None:
        self._instrs.append(instr)

    def interval(self, slot: int) -> Optional[Interval]:
        return self._ivals[slot]

    def build(self) -> Tape:
        return Tape(
            list(self._instrs),
            list(self._template),
            len(self._template),
            tuple(self.used_vars),
        )

    # -- lowering -----------------------------------------------------

    def slot(self, expr: Expr) -> int:
        key = id(expr)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        index = self._lower(expr)
        self._memo[key] = index
        return index

    def _lower(self, expr: Expr) -> int:
        if isinstance(expr, Const):
            return self._lower_const(expr)
        if isinstance(expr, Var):
            return self._lower_var(expr)
        if isinstance(expr, Unary):
            return self._lower_unary(expr)
        if isinstance(expr, Binary):
            return self._lower_binary(expr)
        if isinstance(expr, Ite):
            return self._lower_ite(expr)
        if isinstance(expr, Select):
            return self._lower_select(expr)
        raise NotLowerable(f"cannot lower {type(expr).__name__} node")

    def _lower_const(self, expr: Const) -> int:
        value = expr.value
        if isinstance(value, tuple):
            raise NotLowerable("bare array constant outside Select")
        if expr.ty is INT and abs(int(value)) > MAX_EXACT_INT:
            raise NotLowerable("integer constant exceeds exact float range")
        as_float = float(value)
        return self.new_slot(Interval.point(as_float), const=as_float)

    def _lower_var(self, expr: Var) -> int:
        var = self._vars.get(expr.name)
        if var is None:
            raise NotLowerable(f"unbound variable {expr.name!r}")
        if expr.name not in self.used_vars:
            self.used_vars.append(expr.name)
        ival = _initial_domain(var)
        self._gate(expr, ival)
        index = self.new_slot(ival)
        name = expr.name

        def instr(slots, errs, columns):
            slots[index] = columns[name]

        self.add_instr(instr)
        return index

    def _lower_unary(self, expr: Unary) -> int:
        op = expr.op
        if op not in _UNARY_FACTORIES:
            raise NotLowerable(f"unary op {op!r}")
        arg = self.slot(expr.arg)
        ival = _forward_unary(op, self._require_interval(arg))
        self._gate(expr, ival)
        index = self.new_slot(ival)
        self.add_instr(_UNARY_FACTORIES[op](index, arg))
        return index

    def _lower_binary(self, expr: Binary) -> int:
        op = expr.op
        if op not in _BINARY_FACTORIES:
            raise NotLowerable(f"binary op {op!r}")
        left = self.slot(expr.left)
        right = self.slot(expr.right)
        left_ival = self._require_interval(left)
        right_ival = self._require_interval(right)
        ival = _forward_binary(op, left_ival, right_ival)
        if op == ast.IDIV or op == ast.MOD:
            # |a idiv b| <= |a| for every b (b == 0 yields 0) and the
            # remainder inherits the dividend's sign, so both are much
            # tighter than interval division when b straddles zero.
            ival = ival.intersect(_magnitude_bound(left_ival))
        self._gate(expr, ival)
        index = self.new_slot(ival)
        self.add_instr(_BINARY_FACTORIES[op](index, left, right))
        return index

    def _lower_ite(self, expr: Ite) -> int:
        cond = self.slot(expr.cond)
        then = self.slot(expr.then)
        orelse = self.slot(expr.orelse)
        then_ival = self._require_interval(then)
        else_ival = self._require_interval(orelse)
        ival = then_ival.hull(else_ival)
        self._gate(expr, ival)
        index = self.new_slot(ival)

        def instr(slots, errs, columns):
            taken = _nonzero(slots[cond])
            slots[index] = np.where(taken, slots[then], slots[orelse])
            branch_err = _or(
                _masked(taken, errs[then]), _masked(~taken, errs[orelse])
            )
            errs[index] = _or(errs[cond], branch_err)

        self.add_instr(instr)
        return index

    def _lower_select(self, expr: Select) -> int:
        array = expr.array
        if not isinstance(array, Const) or not isinstance(array.value, tuple):
            raise NotLowerable("Select over a non-constant array")
        values = array.value
        if not values:
            raise NotLowerable("Select over an empty array")
        elem_ty = expr.ty
        floats = []
        for value in values:
            if elem_ty is INT and abs(int(value)) > MAX_EXACT_INT:
                raise NotLowerable("array element exceeds exact float range")
            floats.append(float(value))
        table = np.array(floats, dtype=np.float64)
        length = len(floats)
        index_slot = self.slot(expr.index)
        ival = Interval(min(floats), max(floats))
        self._gate(expr, ival)
        index = self.new_slot(ival)

        def instr(slots, errs, columns):
            raw = np.asarray(slots[index_slot])
            idx = raw.astype(np.int64)
            out_of_range = (idx < 0) | (idx >= length)
            slots[index] = table[np.clip(idx, 0, length - 1)]
            err = out_of_range if out_of_range.any() else None
            errs[index] = _or(errs[index_slot], err)

        self.add_instr(instr)
        return index

    # -- the exact-int gate -------------------------------------------

    def _require_interval(self, slot: int) -> Interval:
        ival = self._ivals[slot]
        if ival is None:
            raise NotLowerable("node without a value interval")
        return ival

    def _gate(self, expr: Expr, ival: Interval) -> None:
        if expr.ty is not INT:
            return  # BOOL columns are 0/1; REAL floats are already exact
        if ival.is_empty:
            return
        if not (-MAX_EXACT_INT <= ival.lo and ival.hi <= MAX_EXACT_INT):
            raise NotLowerable(
                "integer node not provably within exact float64 range"
            )


def _magnitude_bound(ival: Interval) -> Interval:
    if ival.is_empty:
        return ival
    bound = max(abs(ival.lo), abs(ival.hi))
    return Interval(-bound, bound)


# -- instruction factories -------------------------------------------------
#
# Each factory closes over slot indices and returns an
# ``instr(slots, errs, columns)`` callable.  Values mirror
# ``repro.expr.semantics`` / the evaluator exactly (see module docstring).


def _neg(out, arg):
    def instr(slots, errs, columns):
        slots[out] = -slots[arg]
        errs[out] = errs[arg]

    return instr


def _not(out, arg):
    def instr(slots, errs, columns):
        slots[out] = np.where(_nonzero(slots[arg]), 0.0, 1.0)
        errs[out] = errs[arg]

    return instr


def _abs(out, arg):
    def instr(slots, errs, columns):
        slots[out] = np.abs(slots[arg])
        errs[out] = errs[arg]

    return instr


def _rounding(np_fn):
    # floor/ceil/trunc: the interpreter raises on inf/nan; we mask.
    def factory(out, arg):
        def instr(slots, errs, columns):
            values = slots[arg]
            slots[out] = np_fn(values)
            bad = ~np.isfinite(values)
            errs[out] = _or(errs[arg], bad if bad.any() else None)

        return instr

    return factory


def _to_real(out, arg):
    def instr(slots, errs, columns):
        slots[out] = slots[arg]
        errs[out] = errs[arg]

    return instr


def _to_bool(out, arg):
    def instr(slots, errs, columns):
        slots[out] = np.where(_nonzero(slots[arg]), 1.0, 0.0)
        errs[out] = errs[arg]

    return instr


_UNARY_FACTORIES = {
    ast.NEG: _neg,
    ast.NOT: _not,
    ast.ABS: _abs,
    ast.FLOOR: _rounding(np.floor),
    ast.CEIL: _rounding(np.ceil),
    ast.TO_INT: _rounding(np.trunc),
    ast.TO_REAL: _to_real,
    ast.TO_BOOL: _to_bool,
}


def _arith(np_op):
    def factory(out, left, right):
        def instr(slots, errs, columns):
            slots[out] = np_op(slots[left], slots[right])
            errs[out] = _or(errs[left], errs[right])

        return instr

    return factory


def _div(out, left, right):
    # Mirrors semantics.real_div: total, saturating on division by zero.
    def instr(slots, errs, columns):
        a = slots[left]
        b = slots[right]
        quotient = np.where(
            b == 0.0,
            np.where(a == 0.0, 0.0, np.where(a > 0.0, np.inf, -np.inf)),
            a / np.where(b == 0.0, 1.0, b),
        )
        slots[out] = quotient
        errs[out] = _or(errs[left], errs[right])

    return instr


def _int_pair(slots, left, right):
    a = np.asarray(slots[left]).astype(np.int64)
    b = np.asarray(slots[right]).astype(np.int64)
    zero_div = b == 0
    safe = np.where(zero_div, np.int64(1), b)
    quotient = np.abs(a) // np.abs(safe)
    quotient = np.where((a >= 0) == (safe > 0), quotient, -quotient)
    quotient = np.where(zero_div, np.int64(0), quotient)
    return a, b, zero_div, quotient


def _idiv(out, left, right):
    # Mirrors semantics.c_idiv: C truncation, b == 0 -> 0, exact in int64.
    def instr(slots, errs, columns):
        _, _, _, quotient = _int_pair(slots, left, right)
        slots[out] = quotient.astype(np.float64)
        errs[out] = _or(errs[left], errs[right])

    return instr


def _mod(out, left, right):
    # Mirrors semantics.c_mod: a - c_idiv(a, b) * b, b == 0 -> 0.
    def instr(slots, errs, columns):
        a, b, zero_div, quotient = _int_pair(slots, left, right)
        remainder = np.where(zero_div, np.int64(0), a - quotient * b)
        slots[out] = remainder.astype(np.float64)
        errs[out] = _or(errs[left], errs[right])

    return instr


def _minimum(out, left, right):
    # Python min(a, b) returns b only when b < a — np.minimum differs
    # on NaN, np.where(b < a, b, a) does not.
    def instr(slots, errs, columns):
        a = slots[left]
        b = slots[right]
        slots[out] = np.where(b < a, b, a)
        errs[out] = _or(errs[left], errs[right])

    return instr


def _maximum(out, left, right):
    def instr(slots, errs, columns):
        a = slots[left]
        b = slots[right]
        slots[out] = np.where(b > a, b, a)
        errs[out] = _or(errs[left], errs[right])

    return instr


def _relation(np_cmp):
    def factory(out, left, right):
        def instr(slots, errs, columns):
            slots[out] = np.where(
                np_cmp(slots[left], slots[right]), 1.0, 0.0
            )
            errs[out] = _or(errs[left], errs[right])

        return instr

    return factory


def _and(out, left, right):
    # Lazy: the evaluator never evaluates the right operand when the
    # left is falsy, so right-side errors only count on truthy-left rows.
    def instr(slots, errs, columns):
        a = _nonzero(slots[left])
        slots[out] = np.where(a & _nonzero(slots[right]), 1.0, 0.0)
        errs[out] = _or(errs[left], _masked(a, errs[right]))

    return instr


def _or_(out, left, right):
    def instr(slots, errs, columns):
        a = _nonzero(slots[left])
        slots[out] = np.where(a | _nonzero(slots[right]), 1.0, 0.0)
        errs[out] = _or(errs[left], _masked(~a, errs[right]))

    return instr


def _implies(out, left, right):
    def instr(slots, errs, columns):
        a = _nonzero(slots[left])
        slots[out] = np.where(~a | _nonzero(slots[right]), 1.0, 0.0)
        errs[out] = _or(errs[left], _masked(a, errs[right]))

    return instr


def _xor(out, left, right):
    def instr(slots, errs, columns):
        slots[out] = np.where(
            _nonzero(slots[left]) != _nonzero(slots[right]), 1.0, 0.0
        )
        errs[out] = _or(errs[left], errs[right])

    return instr


_BINARY_FACTORIES = {
    ast.ADD: _arith(np.add),
    ast.SUB: _arith(np.subtract),
    ast.MUL: _arith(np.multiply),
    ast.DIV: _div,
    ast.IDIV: _idiv,
    ast.MOD: _mod,
    ast.MIN: _minimum,
    ast.MAX: _maximum,
    ast.LT: _relation(np.less),
    ast.LE: _relation(np.less_equal),
    ast.GT: _relation(np.greater),
    ast.GE: _relation(np.greater_equal),
    ast.EQ: _relation(np.equal),
    ast.NE: _relation(np.not_equal),
    ast.AND: _and,
    ast.OR: _or_,
    ast.IMPLIES: _implies,
    ast.XOR: _xor,
}
