"""The solver kernel: compiled/batched forms of the symbolic hot path.

``repro.solverc`` is to :mod:`repro.solver` what :mod:`repro.kernel` is to
the concrete simulator: each (state, branch) constraint is compiled once
into flat, slot-indexed closures — a compiled HC4 contractor, a compiled
scalar branch-distance objective, and a numpy *batch tape* that evaluates
many candidate points as stacked ndarray columns — with a per-stage
fallback to the interpreter pipeline for constructs the compiler cannot
lower.  The compiled forms are observationally exact: fixed-seed solver
runs are bit-identical with the kernel on or off (see DESIGN.md,
"Solver-kernel soundness").
"""

from repro.solverc.compiler import (
    CompiledConstraint,
    ConstraintCompiler,
    solverc_counters,
)
from repro.solverc.tape import NotLowerable

__all__ = [
    "CompiledConstraint",
    "ConstraintCompiler",
    "NotLowerable",
    "solverc_counters",
]
