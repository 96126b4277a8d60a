"""Tests for the ``repro report`` renderer and CLI subcommand."""

import pytest

from repro import api, cli
from repro.metrics import MetricsRegistry
from repro.models.registry import BenchmarkModel
from repro.obs.report import render_report, trace_phase_totals

from tests.conftest import build_counter_model

TINY = BenchmarkModel("Tiny", "counter fixture", build_counter_model, 0, 0)


def _snapshot():
    """One STCG cell's metrics: stage counters and kernel traffic."""
    registry = MetricsRegistry()
    for stage, (attempts, finished, wins, seconds) in {
        "sample": (4, 3, 3, 0.15), "avm": (1, 1, 1, 0.05),
    }.items():
        registry.counter(f"solver.stage.{stage}.attempts").inc(attempts)
        registry.counter(f"solver.stage.{stage}.finished").inc(finished)
        registry.counter(f"solver.stage.{stage}.wins").inc(wins)
        registry.gauge(f"solver.stage.{stage}.seconds").record(seconds)
    registry.gauge("kernel.enabled", mode="max").record(1.0)
    registry.counter("kernel.specialized_blocks").inc(42)
    registry.counter("kernel.fallback_blocks").inc(1)
    registry.counter("kernel.steps").inc(1234)
    return registry.snapshot()


def traced_events():
    """A synthetic matrix-style stream carrying every trace event kind."""
    return [
        {"event": "log_opened", "seq": 0, "t": 0.0},
        {"event": "matrix_started", "seq": 1, "t": 0.0, "cells": 1},
        {"event": "cell_started", "seq": 2, "t": 0.0, "cell": 0,
         "model": "M", "tool": "STCG", "repetition": 0},
        {"event": "timeline_point", "seq": 3, "t": 0.1, "cell": 0,
         "decision": 0.5},
        {"event": "timeline_point", "seq": 4, "t": 0.2, "cell": 0,
         "decision": 1.0},
        {"event": "phase_totals", "seq": 5, "t": 0.3, "cell": 0,
         "model": "M", "tool": "STCG", "repetition": 0,
         "phases": {"solve": {"count": 4, "seconds": 0.2},
                    "encode": {"count": 2, "seconds": 0.1}},
         "counters": {"encoding_hits": 3}},
        {"event": "metrics", "seq": 6, "t": 0.3, "cell": 0,
         "model": "M", "tool": "STCG", "repetition": 0,
         "schema": "repro.metrics/1", "snapshot": _snapshot()},
        {"event": "tree_growth", "seq": 7, "t": 0.3, "cell": 0,
         "model": "M", "tool": "STCG", "repetition": 0,
         "points": [[0.0, 1], [0.1, 3], [0.2, 7]]},
        {"event": "span", "seq": 8, "t": 0.3, "cell": 0,
         "model": "M", "tool": "STCG", "repetition": 0,
         "name": "solve", "target": "b1", "calls": 3, "seconds": 0.18},
        {"event": "cell_finished", "seq": 9, "t": 0.3, "cell": 0,
         "model": "M", "tool": "STCG", "repetition": 0, "decision": 1.0},
        {"event": "matrix_finished", "seq": 10, "t": 0.3, "cells": 1,
         "ok": 1, "failed": 0, "wall_s": 0.3},
    ]


class TestRenderReport:
    def test_traced_stream_renders_every_section(self):
        text = render_report(traced_events())
        assert "run report" in text
        assert "cells ok: 1" in text
        assert "phase-time breakdown" in text
        assert "solve" in text and "66.7%" in text  # 0.2 of 0.3 traced
        assert "counters: encoding_hits=3" in text
        assert "solver-stage win rates" in text
        assert "avm" in text and "100.0%" in text
        assert "M/STCG rep0" in text
        assert "0.150s" in text  # traced stage seconds
        assert "simulation kernel" in text
        assert "42" in text and "1234" in text
        assert "7 nodes" in text          # tree growth final value
        assert "100.0% in 0.20s" in text  # coverage curve
        assert "b1" in text and "x3" in text  # slowest targets

    def test_untraced_stream_degrades_gracefully(self):
        events = [e for e in traced_events()
                  if e["event"] not in ("phase_totals", "tree_growth",
                                        "span")]
        text = render_report(events)
        # Every absent kind is named explicitly, never zero-filled.
        assert "no events of kind phase_totals — re-run with --trace" in text
        assert "no events of kind tree_growth" in text
        assert "no events of kind span" in text
        # Counters come with every run: stages and kernels still render.
        assert "avm" in text and "100.0%" in text
        assert "1234" in text
        # Coverage still renders from plain timeline points.
        assert "100.0% in 0.20s" in text
        # A stream without metrics names that kind too.
        bare = [e for e in events if e["event"] != "metrics"]
        assert "no events of kind metrics" in render_report(bare)

    def test_trace_missing_kinds_names_absent_kinds(self):
        from repro.obs.report import trace_missing_kinds

        assert trace_missing_kinds(traced_events()) == []
        events = [e for e in traced_events()
                  if e["event"] not in ("span", "tree_growth")]
        assert trace_missing_kinds(events) == ["span", "tree_growth"]
        assert "phase_totals" in trace_missing_kinds([])

    def test_empty_stream(self):
        text = render_report([])
        assert "events: 0" in text

    def test_failures_listed(self):
        events = traced_events()
        events.insert(-1, {
            "event": "cell_failed", "seq": 99, "t": 0.25, "cell": 1,
            "model": "M", "tool": "SLDV", "repetition": 0,
            "kind": "timeout", "message": "slow",
        })
        text = render_report(events)
        assert "[failed] M/SLDV rep0: timeout: slow" in text

    def test_top_n_limits_targets(self):
        events = traced_events()
        for i in range(5):
            events.append({
                "event": "span", "seq": 100 + i, "t": 0.3, "cell": 0,
                "name": "solve", "target": f"extra{i}", "calls": 1,
                "seconds": 0.01 * (i + 1),
            })
        text = render_report(events, top_n=2)
        # Exactly two target rows: the two slowest survive.
        assert "b1" in text and "extra4" in text
        assert "extra0" not in text

    def test_metrics_section_folds_snapshots(self):
        registry = MetricsRegistry()
        registry.counter("stcg.solver_calls").inc(4)
        registry.counter("stcg.sat").inc(0)
        events = traced_events() + [{
            "event": "metrics", "seq": 50, "t": 0.3, "cell": 0,
            "model": "M", "tool": "STCG", "repetition": 0,
            "snapshot": registry.snapshot(),
        }]
        text = render_report(events)
        assert "unified metrics (repro.metrics/1)" in text
        assert "folded over 2 cell snapshot(s)" in text
        assert "stcg.solver_calls" in text and "4" in text
        assert "1 zero counter(s) omitted" in text

    def test_stalls_listed_in_summary(self):
        events = traced_events()
        events.insert(-1, {
            "event": "cell_stalled", "seq": 98, "t": 0.25, "cell": 0,
            "model": "M", "tool": "STCG", "repetition": 0,
            "phase": "solve_scan", "quiet_s": 5.0, "threshold_s": 4.0,
            "last_tree_nodes": 9, "last_solver_calls": 3,
            "last_coverage": 0.5,
        })
        text = render_report(events)
        assert "[stalled] M/STCG rep0" in text
        assert "quiet 5.0s" in text

    def test_trace_phase_totals(self):
        totals = trace_phase_totals(traced_events())
        assert totals == {"solve": pytest.approx(0.2),
                          "encode": pytest.approx(0.1)}
        assert trace_phase_totals([]) == {}


class TestReportCli:
    def test_report_on_traced_single_run(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        api.generate(TINY, budget_s=5.0, seed=0,
                     events_out=str(path), trace=True)
        assert cli.main(["report", str(path), "--require-trace"]) == 0
        out = capsys.readouterr().out
        assert "phase-time breakdown" in out
        assert "solver-stage win rates" in out
        assert "Tiny/STCG" in out

    def test_require_trace_fails_on_untraced_stream(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        api.generate(TINY, budget_s=5.0, seed=0, events_out=str(path))
        assert cli.main(["report", str(path)]) == 0
        assert cli.main(["report", str(path), "--require-trace"]) == 1
        captured = capsys.readouterr()
        err = captured.err
        # The error names every absent repro.trace/2 kind.
        assert "missing repro.trace/2 event kind(s)" in err
        assert "phase_totals" in err and "tree_growth" in err
        assert "span" in err
        # The untraced report still carries the run's counters.
        assert "Tiny/STCG" in captured.out
        assert "no solver calls recorded" not in captured.out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert cli.main(["report", str(tmp_path / "nope.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err
