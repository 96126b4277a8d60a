"""Per-constraint compilation bundles and solver-kernel counters.

:class:`ConstraintCompiler` turns one solver constraint (an
``OneStepEncoding`` path or obligation constraint) into a
:class:`CompiledConstraint`: an optional compiled HC4 contractor plus
lazily compiled distance artifacts (scalar closure, batch tape, split
cases).  Laziness is load-bearing: most solver calls die at the
contract stage, and each (fingerprint, target) pair is typically solved
exactly once per run, so a compiled piece must pay for itself within
the calls that need it.  The distance pieces are only built when the
sampling stages are actually reached, and the generator defers the
whole bundle to the second visit of a pair (see
``repro.cache.SolveCache.compiled_constraint``).  A first visit carries
no bundle: the engine contracts through the interpreter and, only once
contraction has passed, compiles the scalar objective alone
(:func:`scalar_objective`) for the sampling, split and AVM stages.

Compiled bundles are cached by the PR 3 state fingerprints (see
``repro.cache.SolveCache.compiled_constraint``), so re-visits of a
(state, branch) pair across engines and runs reuse the artifacts — and
the cached contraction *result*, which is a pure function of the
constraint and the initial box.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.expr.ast import Expr, Var
from repro.expr.nnf import to_nnf
from repro.metrics import SOLVERC_COUNTERS, Counter, MetricsRegistry
from repro.solver.splitter import split_cases
from repro.solverc.contractc import CompiledContractor, compile_contractor
from repro.solverc.distc import (
    BatchDistance,
    compile_distance_batch,
    compile_distance_scalar,
)
from repro.solverc.tape import NotLowerable

__all__ = [
    "CompiledCase",
    "CompiledConstraint",
    "ConstraintCompiler",
    "scalar_objective",
    "solverc_counters",
]

_UNSET = object()


def solverc_counters(registry: MetricsRegistry) -> Dict[str, Counter]:
    """The ``solverc.<key>`` counters of ``registry``, by key."""
    return {key: registry.counter(f"solverc.{key}") for key in SOLVERC_COUNTERS}


def scalar_objective(nnf: Expr, counters: Dict[str, Counter]):
    """The compiled ``env -> distance`` closure of ``nnf``, or None.

    None only when compiling raised; ``solverc.scalar_fallbacks`` counts
    it and the caller keeps the interpreter's ``DistanceEvaluator``.
    """
    try:
        return compile_distance_scalar(nnf)
    except Exception:
        counters["scalar_fallbacks"].inc()
        return None


class CompiledCase:
    """Compiled artifacts for one disjunctive split case."""

    __slots__ = (
        "case",
        "contractor",
        "contract_result",
        "_batch",
        "_counters",
        "_variables",
    )

    def __init__(
        self, case: Expr, variables: List[Var], counters: Dict[str, Counter]
    ):
        self.case = case
        self.contract_result = None
        self._batch = _UNSET
        self._counters = counters
        self._variables = variables
        try:
            self.contractor: Optional[CompiledContractor] = (
                compile_contractor(case)
            )
        except Exception:
            self.contractor = None
            counters["contract_compile_fallbacks"].inc()

    def batch(self) -> Optional[BatchDistance]:
        """The case-distance batch tape, or None when not lowerable."""
        if self._batch is _UNSET:
            try:
                self._batch = compile_distance_batch(
                    to_nnf(self.case), self._variables
                )
                self._counters["batch_lowered"].inc()
            except NotLowerable:
                self._batch = None
                self._counters["batch_fallbacks"].inc()
        return self._batch


class CompiledConstraint:
    """All compiled forms of one solver constraint, built lazily."""

    __slots__ = (
        "constraint",
        "variables",
        "contractor",
        "contract_result",
        "_nnf",
        "_objective",
        "_batch",
        "_cases",
        "_counters",
    )

    def __init__(
        self,
        constraint: Expr,
        variables: List[Var],
        contractor: Optional[CompiledContractor],
        counters: Dict[str, Counter],
    ):
        self.constraint = constraint
        self.variables = variables
        self.contractor = contractor
        #: (feasible, box-snapshot) of the whole-constraint contraction,
        #: filled in by the engine on first use.  Contraction is a pure
        #: function of (constraint, initial box), so replay is exact.
        self.contract_result = None
        self._nnf = _UNSET
        self._objective = _UNSET
        self._batch = _UNSET
        self._cases = _UNSET
        self._counters = counters

    def nnf(self) -> Expr:
        if self._nnf is _UNSET:
            self._nnf = to_nnf(self.constraint)
        return self._nnf

    def objective(self):
        """Compiled scalar ``env -> distance`` closure, or None when its
        compile raised (see :func:`scalar_objective`)."""
        if self._objective is _UNSET:
            self._objective = scalar_objective(self.nnf(), self._counters)
        return self._objective

    def batch(self) -> Optional[BatchDistance]:
        """Whole-constraint batch distance tape, or None."""
        if self._batch is _UNSET:
            try:
                self._batch = compile_distance_batch(
                    self.nnf(), self.variables
                )
                self._counters["batch_lowered"].inc()
            except NotLowerable:
                self._batch = None
                self._counters["batch_fallbacks"].inc()
        return self._batch

    def cases(self) -> List[CompiledCase]:
        """Split cases (possibly a single one), compiled on first use."""
        if self._cases is _UNSET:
            self._cases = [
                CompiledCase(case, self.variables, self._counters)
                for case in split_cases(self.nnf())
            ]
        return self._cases


class ConstraintCompiler:
    """Compiles solver constraints, counting into ``registry``.

    The compile-side ``solverc.*`` counters — and those of the lazily
    compiled pieces of every bundle it returns — land in ``registry``
    (a private one when none is given), and the compiler marks the
    ``solverc.enabled`` gauge.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.registry.gauge("solverc.enabled", mode="max").record(1.0)
        self._counters = solverc_counters(self.registry)

    def compile(
        self,
        constraint: Expr,
        variables: Iterable[Var],
        *,
        contractor: bool = True,
    ) -> CompiledConstraint:
        """Compile ``constraint`` into a :class:`CompiledConstraint`.

        ``contractor=False`` skips compiling the HC4 contractor: a
        caller that caches bundles per (fingerprint, target) replays the
        stored contraction *snapshot* from the second use on, so the
        engine's interpreted contractor runs exactly once either way and
        the compiled walk would never be exercised.
        """
        var_list = _dedupe(variables)
        compiled_contractor = None
        if contractor:
            try:
                compiled_contractor = compile_contractor(constraint)
            except Exception:
                self._counters["contract_compile_fallbacks"].inc()
        self._counters["constraints_compiled"].inc()
        return CompiledConstraint(
            constraint, var_list, compiled_contractor, self._counters
        )


def _dedupe(variables: Iterable[Var]) -> List[Var]:
    # Same first-occurrence order as the engine's own _dedupe, so the
    # compiled tape's columns line up with the engine's Box.
    seen = set()
    result: List[Var] = []
    for var in variables:
        if var.name not in seen:
            seen.add(var.name)
            result.append(var)
    return result
