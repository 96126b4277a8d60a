"""Unified experiment metrics: a deterministic, schema-stable registry.

The registry (:class:`MetricsRegistry`) is the one counter store: the
solver engines, the constraint compiler and the simulator increment its
instruments at the call site, and every generator attaches its snapshot
to the result (``GenerationResult.metrics``), traced or not.  Snapshots
are JSON documents tagged ``repro.metrics/1``; :func:`merge_snapshots`
folds per-worker registries together commutatively so workers=1 and
workers=N aggregate identically, and :func:`delta_snapshots` supports
before/after analysis.  Instrument names are listed in
:mod:`repro.metrics.instruments`.
"""

from repro.metrics.instruments import (
    CASE_LENGTH_BOUNDS,
    FUZZ_COUNTERS,
    SOLVERC_COUNTERS,
    declare_instruments,
    record_totals,
)
from repro.metrics.registry import (
    Counter,
    Gauge,
    GAUGE_MODES,
    Histogram,
    METRICS_SCHEMA,
    MetricsRegistry,
    delta_snapshots,
    empty_snapshot,
    fold_snapshots,
    merge_snapshots,
)

__all__ = [
    "CASE_LENGTH_BOUNDS",
    "Counter",
    "FUZZ_COUNTERS",
    "GAUGE_MODES",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "SOLVERC_COUNTERS",
    "declare_instruments",
    "delta_snapshots",
    "empty_snapshot",
    "fold_snapshots",
    "merge_snapshots",
    "record_totals",
]
