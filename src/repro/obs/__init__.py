"""Observability: low-overhead tracing, phase profiling, solver-stage counts.

The generator loop is instrumented against the :class:`Tracer` protocol.
The default :data:`NULL_TRACER` makes every hook a no-op (sub-microsecond,
so tracing costs nothing when disabled); :class:`SpanTracer` records every
span for tests and debugging; :class:`PhaseProfiler` aggregates spans into
bounded per-phase totals suitable for long runs.

Traced aggregates flow into the telemetry event stream as
``repro.trace/2`` event kinds (``span``, ``phase_totals``,
``tree_growth``); counters live in the run's metrics registry (see
:mod:`repro.metrics`).  Both are rendered by :func:`render_report` (the
``repro report`` subcommand).
"""

from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    PhaseProfiler,
    Span,
    SpanTracer,
    Tracer,
)
from repro.obs.stages import (
    SOLVER_STAGES,
    canonical_stage,
    stage_recorder,
)
from repro.obs.report import render_report, trace_phase_totals

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "PhaseProfiler",
    "SOLVER_STAGES",
    "Span",
    "SpanTracer",
    "Tracer",
    "canonical_stage",
    "render_report",
    "stage_recorder",
    "trace_phase_totals",
]
