"""Ahead-of-time specialization of model execution.

The kernel layer compiles a :class:`~repro.model.graph.CompiledModel` into
per-block closures over pre-resolved input slots and reused buffers, in
two value domains: the concrete fast path behind
``Simulator(kernel=True)``, and the symbolic one-step encoder behind
:class:`~repro.solver.encoder.OneStepEncoding` (with state-free blocks
staged once per model).  Both are observably equivalent to the generic
interpreter in :mod:`repro.model.executor` (see DESIGN.md, "kernel
soundness"), which abstract execution and the SLDV-like unroller still
use.
"""

from repro.kernel.exprc import compile_expr, compile_substitution
from repro.kernel.plan import (
    CompiledKernel,
    SymbolicKernel,
    compile_kernel,
    symbolic_kernel,
)

__all__ = [
    "CompiledKernel",
    "SymbolicKernel",
    "compile_expr",
    "compile_kernel",
    "compile_substitution",
    "symbolic_kernel",
]
