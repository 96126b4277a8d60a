"""Canonical instrument names: the one counter store's namespace.

Every counter the reproduction reports lives in the run's
:class:`~repro.metrics.registry.MetricsRegistry`, under these families:

* ``stcg.*``     — the generator's own ``stats`` counters (any tool),
  mirrored once at the end of the run, plus the ``stcg.case_length``
  histogram over synthesized test cases;
* ``solver.stage.<stage>.*`` — attempts/finished/wins counters per
  canonical pipeline stage, incremented live by the solver engines (see
  :func:`repro.obs.stages.stage_recorder`), and a ``seconds`` sum-gauge
  recorded only while the run is traced;
* ``solverc.*``  — solver-kernel compiled-vs-fallback traffic,
  incremented live by the engines and the constraint compiler;
* ``kernel.*``   — sim-kernel specialization and steps, incremented live
  by the simulator;
* ``encoder.*``  — compiled one-step encoder specialization
  (specialized, fallback and staged blocks), counted by the generator's
  first encoding;
* ``cache.*``    — the solve-cache counters and state-tree dedup links
  (counters) and ``cache.unique_states`` (max-gauge), read off the cache
  and tree at the end of the run;
* ``fuzz.*``     — fuzz campaign counters (``Fuzz``/``Hybrid`` tools).

``kernel.enabled`` / ``solverc.enabled`` are 0/1 max-gauges.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.metrics.registry import MetricsRegistry
from repro.obs.stages import CACHE_COUNTERS, SOLVER_STAGES

__all__ = [
    "CASE_LENGTH_BOUNDS",
    "FUZZ_COUNTERS",
    "SOLVERC_COUNTERS",
    "STAGE_COUNTER_FIELDS",
    "STAT_COUNTERS",
    "declare_instruments",
    "record_totals",
]

#: Fixed bucket bounds of the ``stcg.case_length`` histogram (steps per
#: synthesized test case).  Declared here so every worker shares them and
#: merges stay well-defined.
CASE_LENGTH_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: Generator ``stats`` keys mirrored as ``stcg.*`` counters.
STAT_COUNTERS = (
    "solver_calls",
    "sat",
    "unsat",
    "unknown",
    "steps_executed",
    "random_sequences",
    "const_false_skips",
    "verdict_skips",
    "warmup_steps",
)

#: Generator ``stats`` keys mirrored as ``fuzz.*`` counters when a run
#: carried a fuzz campaign (``Fuzz``/``Hybrid`` tools); executions/sec is
#: wall-clock derived and deliberately not a registry instrument.
FUZZ_COUNTERS = (
    "executions",
    "retained",
    "rejected",
    "seed_entries",
    "steps",
    "tree_nodes",
)

#: Solver-kernel (``repro.solverc``) traffic counters, ``solverc.<key>``.
SOLVERC_COUNTERS = (
    "constraints_compiled",
    "contract_compile_fallbacks",
    "batch_lowered",
    "batch_fallbacks",
    "scalar_fallbacks",
    "contract_compiled",
    "contract_cached",
    "contract_interpreted",
    "candidates_batched",
    "candidates_scalar",
    "case_batched",
    "case_interpreted",
    "avm_compiled",
    "avm_interpreted",
)

#: Per-stage counters, ``solver.stage.<stage>.<field>``.
STAGE_COUNTER_FIELDS = ("attempts", "finished", "wins")

#: Size/flag gauges every snapshot carries (max-mode, zero until seen).
_SIZE_GAUGES = (
    "stcg.tree_nodes",
    "cache.unique_states",
    "kernel.enabled",
    "solverc.enabled",
    "fuzz.corpus_size",
)


def declare_instruments(
    registry: MetricsRegistry, *, timed: bool = False
) -> MetricsRegistry:
    """Declare every canonical instrument up front (schema stability).

    A run that never touches a subsystem still snapshots the same key set
    as one that does — zeros, not absences.  ``timed`` (traced runs only)
    adds the ``solver.stage.<stage>.seconds`` wall-clock gauges; untraced
    snapshots hold nothing that depends on the clock.
    """
    for key in STAT_COUNTERS:
        registry.counter(f"stcg.{key}")
    registry.histogram("stcg.case_length", CASE_LENGTH_BOUNDS)
    for stage in SOLVER_STAGES:
        for field in STAGE_COUNTER_FIELDS:
            registry.counter(f"solver.stage.{stage}.{field}")
        if timed:
            registry.gauge(f"solver.stage.{stage}.seconds", mode="sum")
    for key in CACHE_COUNTERS:
        registry.counter(f"cache.{key}")
    registry.counter("cache.dedup_links")
    for key in ("specialized_blocks", "fallback_blocks", "steps"):
        registry.counter(f"kernel.{key}")
    for key in ("specialized_blocks", "fallback_blocks", "staged_blocks"):
        registry.counter(f"encoder.{key}")
    for key in SOLVERC_COUNTERS:
        registry.counter(f"solverc.{key}")
    for key in FUZZ_COUNTERS:
        registry.counter(f"fuzz.{key}")
    for name in _SIZE_GAUGES:
        registry.gauge(name, mode="max").record(0.0)
    return registry


def record_totals(
    registry: MetricsRegistry,
    stats: Mapping[str, object],
    *,
    cache: Optional[Dict[str, int]] = None,
    tree=None,
) -> MetricsRegistry:
    """Fold a finished run's end-of-run totals into ``registry``.

    ``stats`` is the generator's ``stats`` dict (``stcg.*`` and, for fuzz
    campaigns, the ``fuzz_*`` keys); ``cache`` is
    :meth:`~repro.cache.solve.SolveCache.stats` and ``tree`` the state
    tree, for the STCG family.  Call once per run, just before the
    snapshot: these are totals, not live increments.
    """
    for key in STAT_COUNTERS:
        registry.counter(f"stcg.{key}").inc(int(stats.get(key, 0)))
    for key in FUZZ_COUNTERS:
        registry.counter(f"fuzz.{key}").inc(int(stats.get(f"fuzz_{key}", 0)))
    registry.gauge("fuzz.corpus_size", mode="max").record(
        float(stats.get("fuzz_corpus_size", 0))
    )
    if cache is not None:
        for key in CACHE_COUNTERS:
            registry.counter(f"cache.{key}").inc(int(cache.get(key, 0)))
    if tree is not None:
        registry.gauge("stcg.tree_nodes", mode="max").record(float(len(tree)))
        registry.counter("cache.dedup_links").inc(tree.dedup_links)
        registry.gauge("cache.unique_states", mode="max").record(
            float(tree.unique_states())
        )
    return registry
