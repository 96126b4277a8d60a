"""Per-stage accounting for the solver pipeline.

:class:`~repro.solver.engine.SolverEngine` finishes every call with a fine
``stage`` tag (``"corner"``, ``"split-sample"``, ``"sample-timeout"``, ...)
and per-stage wall-clock segments.  This module folds those tags onto the
five canonical pipeline stages and counts, per stage, in the run's
metrics registry (``solver.stage.<stage>.<field>``):

* ``attempts`` — calls that *entered* the stage (spent time in it),
* ``finished`` — calls whose verdict was produced by the stage,
* ``wins``     — calls the stage finished with SAT,
* ``seconds``  — total wall-clock spent in the stage (traced runs only).

``sum(finished) == calls`` and ``sum(wins) == sat`` by construction, which
the test suite pins down.
"""

from __future__ import annotations

from typing import Callable, Dict

__all__ = ["CACHE_COUNTERS", "SOLVER_STAGES", "canonical_stage",
           "stage_recorder"]

#: The canonical pipeline stages, in execution order.
SOLVER_STAGES = ("fold", "contract", "sample", "split", "avm")

#: Canonical names of the solve-cache counters, as reported by
#: :meth:`repro.cache.solve.SolveCache.stats` and mirrored into the
#: metrics registry as ``cache.<name>``.
CACHE_COUNTERS = (
    "encoding_hits",
    "encoding_misses",
    "encoding_evictions",
    "compiled_hits",
    "compiled_misses",
    "compiled_evictions",
    "verdict_hits",
    "verdict_entries",
)

_CANONICAL = {
    "fold": "fold",
    "contract": "contract",
    "corner": "sample",
    "sample": "sample",
    "sample-timeout": "sample",
    "split": "split",
    "split-corner": "split",
    "split-sample": "split",
    "avm": "avm",
}


def canonical_stage(tag: str) -> str:
    """Map a fine ``SolveStats.stage`` tag onto its pipeline stage."""
    return _CANONICAL.get(tag, tag or "unknown")


def stage_recorder(registry, *, timed: bool = False) -> Callable:
    """A ``record(stats)`` callable counting finished solves into ``registry``.

    ``record`` takes one finished
    :class:`~repro.solver.engine.SolveStats` and increments the
    ``solver.stage.<stage>.*`` counters of the stages it passed through.
    With ``timed`` (traced runs) it also adds each stage's wall-clock
    seconds to the ``solver.stage.<stage>.seconds`` sum-gauge.
    Instruments are resolved once per stage tag, not per call.
    """
    instruments: Dict[str, tuple] = {}

    def resolve(tag: str) -> tuple:
        prefix = f"solver.stage.{canonical_stage(tag)}."
        found = instruments[tag] = (
            registry.counter(prefix + "attempts"),
            registry.counter(prefix + "finished"),
            registry.counter(prefix + "wins"),
            registry.gauge(prefix + "seconds", mode="sum") if timed else None,
        )
        return found

    def record(stats) -> None:
        for tag, seconds in stats.stage_times.items():
            found = instruments.get(tag) or resolve(tag)
            found[0].inc()
            if timed:
                found[3].record(seconds)
        found = instruments.get(stats.stage) or resolve(stats.stage)
        found[1].inc()
        if stats.status.value == "sat":
            found[2].inc()

    return record
