"""The metrics registry is the one counter store, traced or not."""

import itertools

import pytest

from repro.baselines.simcotest import SimCoTestConfig, SimCoTestGenerator
from repro.baselines.sldv import SldvConfig, SldvGenerator
from repro.core.config import FuzzConfig, StcgConfig
from repro.core.stcg import StcgGenerator
from repro.exec import execute_matrix
from repro.fuzz.engine import FuzzGenerator, HybridGenerator
from repro.metrics import METRICS_SCHEMA
from repro.models.registry import BenchmarkModel
from repro.obs.stages import SOLVER_STAGES
from repro.telemetry.events import EventLog

from tests.conftest import build_counter_model

TINY = BenchmarkModel("Tiny", "counter fixture", build_counter_model, 0, 0)


def _frozen():
    return lambda: 0.0


def _ticking():
    ticks = itertools.count()
    return lambda: next(ticks) * 0.01


def _stcg_family(cls):
    def run(trace):
        config = StcgConfig(
            budget_s=5.0, seed=7, trace=trace,
            fuzz=FuzzConfig(executions=120),
        )
        return cls(build_counter_model(), config, clock=_frozen()).run()

    return run


def _sldv(trace):
    config = SldvConfig(budget_s=5.0, seed=7, max_depth=3, trace=trace)
    return SldvGenerator(build_counter_model(), config, clock=_frozen()).run()


def _simcotest(trace):
    # SimCoTest's tracer never reads the generator clock, so a ticking
    # clock ends the run after the same number of candidates either way.
    config = SimCoTestConfig(budget_s=2.0, seed=7, trace=trace)
    return SimCoTestGenerator(
        build_counter_model(), config, clock=_ticking()
    ).run()


#: One fixed-work run per tool: frozen clocks end on full coverage, the
#: unroll depth or the fuzz execution count; SimCoTest ticks.
RUNS = {
    "STCG": _stcg_family(StcgGenerator),
    "SLDV": _sldv,
    "SimCoTest": _simcotest,
    "Fuzz": _stcg_family(FuzzGenerator),
    "Hybrid": _stcg_family(HybridGenerator),
}


@pytest.mark.parametrize("tool", list(RUNS))
def test_untraced_snapshot_counters_equal_the_traced_ones(tool):
    traced = RUNS[tool](True)
    untraced = RUNS[tool](False)
    assert traced.trace_data and not untraced.trace_data
    for result in (traced, untraced):
        assert result.metrics["schema"] == METRICS_SCHEMA
    assert untraced.metrics["counters"] == traced.metrics["counters"]
    assert untraced.metrics["histograms"] == traced.metrics["histograms"]
    # Untraced snapshots hold no clock readings: every gauge is a size or
    # a flag, and only traced runs add the stage seconds.
    timed = {name for name in traced.metrics["gauges"]
             if name.endswith(".seconds")}
    assert timed == {f"solver.stage.{s}.seconds" for s in SOLVER_STAGES}
    assert set(untraced.metrics["gauges"]) == (
        set(traced.metrics["gauges"]) - timed
    )
    counters = untraced.metrics["counters"]
    assert counters["stcg.steps_executed"] == untraced.stats.get(
        "steps_executed", 0
    )
    assert counters["kernel.steps"] > 0


def test_mixed_tool_stage_counters_match_stat_totals():
    """SLDV and STCG both count their solver calls into the snapshot, so
    the manifest's folded stage counters agree with its stat totals."""
    log = EventLog()
    result = execute_matrix(
        [TINY], ("SLDV", "STCG"), budget_s=2.0, repetitions=1, seed=3,
        workers=1, events=log, trace=True,
    )
    assert not result.failures
    manifest = log.manifest()
    counters = manifest["metrics"]["counters"]
    finished = sum(
        counters[f"solver.stage.{stage}.finished"] for stage in SOLVER_STAGES
    )
    assert finished == manifest["stat_totals"]["solver_calls"] > 0
    assert counters["stcg.solver_calls"] == finished


def test_every_cell_emits_one_metrics_event_untraced():
    log = EventLog()
    execute_matrix(
        [TINY], ("STCG", "SimCoTest"), budget_s=2.0, repetitions=2, seed=3,
        workers=1, events=log,
    )
    finished = log.of_kind("cell_finished")
    metrics = log.of_kind("metrics")
    assert len(finished) == len(metrics) == 4
    assert sorted(e["cell"] for e in metrics) == sorted(
        e["cell"] for e in finished
    )
    assert log.manifest()["metrics"]["counters"]["kernel.steps"] > 0
