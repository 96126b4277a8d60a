"""Tests for solver-stage canonicalization and the registry stage counters."""

from dataclasses import dataclass, field
from typing import Dict

import pytest

from repro.metrics import MetricsRegistry, empty_snapshot, merge_snapshots
from repro.obs.stages import SOLVER_STAGES, canonical_stage, stage_recorder
from repro.solver.engine import Status


@dataclass
class FakeStats:
    """Just the SolveStats fields a stage recorder consumes."""

    status: Status
    stage: str
    stage_times: Dict[str, float] = field(default_factory=dict)


class TestCanonicalStage:
    @pytest.mark.parametrize("tag,expected", [
        ("fold", "fold"),
        ("contract", "contract"),
        ("corner", "sample"),
        ("sample", "sample"),
        ("sample-timeout", "sample"),
        ("split", "split"),
        ("split-corner", "split"),
        ("split-sample", "split"),
        ("avm", "avm"),
    ])
    def test_known_tags(self, tag, expected):
        assert canonical_stage(tag) == expected
        assert expected in SOLVER_STAGES

    def test_unknown_tag_passes_through(self):
        assert canonical_stage("mystery") == "mystery"

    def test_empty_tag(self):
        assert canonical_stage("") == "unknown"


def _stages(snapshot):
    """``{stage: {field: value}}`` from a snapshot's stage instruments."""
    stages = {}
    for name, value in snapshot["counters"].items():
        if name.startswith("solver.stage."):
            stage, field = name[len("solver.stage."):].rsplit(".", 1)
            stages.setdefault(stage, {})[field] = value
    for name, gauge in snapshot["gauges"].items():
        if name.startswith("solver.stage."):
            stage = name[len("solver.stage."):].rsplit(".", 1)[0]
            stages.setdefault(stage, {})["seconds"] = gauge["value"]
    return stages


def _recorded(calls, timed=False):
    registry = MetricsRegistry()
    record = stage_recorder(registry, timed=timed)
    for stats in calls:
        record(stats)
    return registry.snapshot()


class TestSolverStageMetrics:
    """The per-stage counters the engine records into the registry."""

    def test_record_splits_attempts_and_finished(self):
        snap = _stages(_recorded([
            # A SAT call that passed through contract and sample, won by AVM.
            FakeStats(Status.SAT, "avm",
                      {"contract": 0.1, "sample": 0.2, "avm": 0.7}),
            # An UNSAT verdict produced directly by the contractor.
            FakeStats(Status.UNSAT, "contract", {"contract": 0.3}),
        ], timed=True))
        assert sum(s["finished"] for s in snap.values()) == 2
        assert snap["contract"]["attempts"] == 2
        assert snap["contract"]["finished"] == 1
        assert snap["contract"]["wins"] == 0
        assert snap["contract"]["seconds"] == pytest.approx(0.4)
        assert snap["avm"] == {
            "attempts": 1, "finished": 1, "wins": 1, "seconds": 0.7,
        }

    def test_fine_tags_fold_onto_canonical_stages(self):
        snap = _stages(_recorded([
            FakeStats(Status.SAT, "split-corner",
                      {"sample": 0.1, "split": 0.2}),
        ]))
        assert snap["split"]["finished"] == 1 and snap["split"]["wins"] == 1

    def test_invariants_finished_and_wins(self):
        calls = [
            FakeStats(Status.SAT, "corner", {"sample": 0.1}),
            FakeStats(Status.SAT, "avm", {"sample": 0.1, "avm": 0.4}),
            FakeStats(Status.UNSAT, "contract", {"contract": 0.1}),
            FakeStats(Status.UNKNOWN, "avm", {"sample": 0.2, "avm": 1.0}),
        ]
        snap = _stages(_recorded(calls))
        assert sum(s["finished"] for s in snap.values()) == len(calls)
        assert sum(s["wins"] for s in snap.values()) == sum(
            1 for stats in calls if stats.status is Status.SAT
        )

    def test_as_dict_pipeline_order(self):
        """Untimed recording keeps seconds out of the snapshot; the stage
        instruments appear in a fixed (sorted) order either way."""
        snapshot = _recorded([
            FakeStats(Status.SAT, "avm",
                      {"avm": 0.1, "contract": 0.1, "sample": 0.1}),
        ])
        assert snapshot["gauges"] == {}
        names = list(snapshot["counters"])
        assert names == sorted(names)
        assert set(_stages(snapshot)) == {"contract", "sample", "avm"}
        assert set(_stages(snapshot)) <= set(SOLVER_STAGES)


class TestMergeStageDicts:
    """Per-engine stage counters merge through the registry snapshots."""

    def test_merges_in_place_and_sums(self):
        into = _recorded([FakeStats(Status.SAT, "avm", {"avm": 0.5})],
                         timed=True)
        other = _recorded([
            FakeStats(Status.UNKNOWN, "avm", {"avm": 0.25}),
            FakeStats(Status.SAT, "sample", {"sample": 1.0}),
        ], timed=True)
        merged = _stages(merge_snapshots(into, other))
        assert merged["avm"] == {"attempts": 2, "finished": 2, "wins": 1,
                                 "seconds": 0.75}
        assert merged["sample"]["attempts"] == 1

    def test_none_and_partial_stats_tolerated(self):
        partial = _recorded([FakeStats(Status.UNSAT, "fold", {})])
        assert merge_snapshots(partial, empty_snapshot()) == partial
        assert _stages(partial)["fold"] == {"attempts": 0, "finished": 1,
                                            "wins": 0}
