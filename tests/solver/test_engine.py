"""Tests for the solver engine pipeline and the AVM search."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.expr import ops as x
from repro.expr.ast import Var
from repro.expr.evaluator import evaluate
from repro.expr.types import BOOL, INT, REAL
from repro.solver.avm import AvmSearch
from repro.solver.box import Box
from repro.solver.engine import SolverConfig, SolverEngine, Status

I = Var("i", INT, -100, 100)
J = Var("j", INT, -100, 100)
R = Var("r", REAL, -50.0, 50.0)
B = Var("b", BOOL)

ALL_VARS = [I, J, R, B]


@pytest.fixture
def engine():
    return SolverEngine(SolverConfig(seed=99))


class TestEngineStatuses:
    def test_constant_true(self, engine):
        result = engine.solve(x.lift(True), ALL_VARS)
        assert result.status is Status.SAT
        assert set(result.model) == {"i", "j", "r", "b"}

    def test_constant_false(self, engine):
        result = engine.solve(x.lift(False), ALL_VARS)
        assert result.status is Status.UNSAT

    def test_contraction_unsat(self, engine):
        constraint = x.land(x.gt(I, 50), x.lt(I, -50))
        result = engine.solve(constraint, ALL_VARS)
        assert result.status is Status.UNSAT
        assert result.stats.stage == "contract"

    def test_non_boolean_rejected(self, engine):
        from repro.errors import SolverError

        with pytest.raises(SolverError):
            engine.solve(I, ALL_VARS)


class TestEngineSolves:
    @pytest.mark.parametrize(
        "constraint",
        [
            x.gt(I, 95),
            x.eq(I, -73),
            x.eq(x.add(x.mul(I, 3), 7), 52),
            x.land(x.gt(I, 10), x.lt(J, -10)),
            x.lor(x.eq(I, 88), x.eq(J, -88)),
            x.land(B, x.ge(R, 49.0)),
            x.eq(x.absolute(I), 64),
            x.eq(x.mod(I, 10), 7),
            x.land(x.eq(I, J), x.gt(I, 42)),
            x.eq(x.minimum(I, J), 33),
            x.ite(B, x.eq(I, 5), x.eq(I, -5)),
        ],
    )
    def test_sat_model_verifies(self, engine, constraint):
        result = engine.solve(constraint, ALL_VARS)
        assert result.status is Status.SAT
        assert evaluate(constraint, result.model) is True

    def test_model_respects_declared_types(self, engine):
        result = engine.solve(x.gt(I, 0), ALL_VARS)
        assert isinstance(result.model["i"], int)
        assert isinstance(result.model["r"], float)
        assert isinstance(result.model["b"], bool)

    def test_model_within_domains(self, engine):
        result = engine.solve(x.gt(I, 0), ALL_VARS)
        assert -100 <= result.model["i"] <= 100
        assert -50.0 <= result.model["r"] <= 50.0

    def test_unconstrained_variables_resampled(self):
        """Don't-care inputs should vary across calls (library diversity)."""
        engine = SolverEngine(SolverConfig(seed=5))
        values = set()
        for _ in range(12):
            result = engine.solve(x.gt(I, 0), ALL_VARS)
            values.add(result.model["j"])
        assert len(values) > 3


class TestBudgets:
    def test_unknown_on_hopeless_needle(self):
        # i*i == -1 has no solution but the contractor cannot prove it;
        # the budget forces UNKNOWN rather than hanging.
        engine = SolverEngine(
            SolverConfig(max_samples=8, avm_evaluations=50, time_budget_s=0.2)
        )
        constraint = x.eq(x.mul(I, I), -1)
        result = engine.solve(constraint, [I])
        assert result.status in (Status.UNKNOWN, Status.UNSAT)

    def test_stats_populated(self, engine):
        result = engine.solve(x.eq(I, 5), ALL_VARS)
        assert result.stats.elapsed_s >= 0.0
        assert result.stats.stage != ""


class TestStageMetrics:
    """The engine-lifetime stage accounting behind ``repro report``."""

    CONSTRAINTS = [
        x.lift(True),                           # folds to a constant
        x.land(x.gt(I, 50), x.lt(I, -50)),      # contractor proves UNSAT
        x.gt(I, 95),                            # easy sample
        x.eq(x.add(x.mul(I, 3), 7), 52),        # needle: AVM territory
        x.lor(x.eq(I, 88), x.eq(J, -88)),       # disjunctive: split path
        x.eq(R, 13.25),
    ]

    def test_stage_times_cover_the_call(self):
        engine = SolverEngine(SolverConfig(seed=99))
        result = engine.solve(x.eq(I, -73), ALL_VARS)
        assert result.stats.stage_times
        total = sum(result.stats.stage_times.values())
        assert 0.0 <= total <= result.stats.elapsed_s + 0.05

    def test_fixed_seed_counters_sum_to_calls(self):
        engine = SolverEngine(SolverConfig(seed=99))
        results = [engine.solve(c, ALL_VARS) for c in self.CONSTRAINTS]
        snap = _stages(engine)
        # Every call finishes in exactly one canonical stage...
        assert sum(s["finished"] for s in snap.values()) == len(results)
        # ...and every SAT verdict is exactly one stage's win.
        sat = sum(1 for r in results if r.status is Status.SAT)
        assert sum(s["wins"] for s in snap.values()) == sat

    def test_winning_stage_matches_result_stage(self):
        from repro.obs.stages import canonical_stage

        for constraint in self.CONSTRAINTS:
            engine = SolverEngine(SolverConfig(seed=99))
            result = engine.solve(constraint, ALL_VARS)
            snap = _stages(engine)
            terminal = canonical_stage(result.stats.stage)
            assert snap[terminal]["finished"] == 1
            expected_wins = 1 if result.status is Status.SAT else 0
            assert snap[terminal]["wins"] == expected_wins

    def test_attempts_count_stages_entered(self):
        engine = SolverEngine(SolverConfig(seed=99))
        result = engine.solve(x.eq(x.add(x.mul(I, 3), 7), 52), ALL_VARS)
        snap = _stages(engine)
        # Each stage the call spent time in is one attempt.
        entered = set(result.stats.stage_times)
        assert {stage for stage, s in snap.items() if s["attempts"]} == entered
        assert all(snap[stage]["attempts"] == 1 for stage in entered)

    def test_shared_registry_and_timed_seconds(self):
        from repro.metrics import MetricsRegistry

        registry = MetricsRegistry()
        plain = SolverEngine(SolverConfig(seed=99), registry)
        timed = SolverEngine(SolverConfig(seed=99), registry, timed=True)
        plain.solve(x.gt(I, 95), ALL_VARS)
        result = timed.solve(x.gt(I, 95), ALL_VARS)
        snap = registry.snapshot()
        assert plain.registry is timed.registry is registry
        stage = result.stats.stage_times
        assert sum(
            snap["counters"][f"solver.stage.{s}.finished"] for s in stage
        ) == 2
        # Only the timed engine adds wall-clock seconds.
        for name in stage:
            gauge = snap["gauges"][f"solver.stage.{name}.seconds"]
            assert gauge["value"] == pytest.approx(stage[name], abs=1e-8)


def _stages(engine):
    """``{stage: {attempts, finished, wins}}`` from the engine's registry."""
    stages = {}
    for name, value in engine.registry.snapshot()["counters"].items():
        if name.startswith("solver.stage."):
            stage, field = name[len("solver.stage."):].rsplit(".", 1)
            stages.setdefault(stage, {})[field] = value
    return stages


class TestAvmDirect:
    def test_solves_equality_needle(self):
        box = Box([I, J])
        constraint = x.eq(x.add(I, J), 123)
        from repro.expr.distance import DistanceEvaluator
        from repro.expr.nnf import to_nnf

        dist = DistanceEvaluator(to_nnf(constraint))
        search = AvmSearch(dist.distance, box, random.Random(3), 3000)
        result = search.run({"i": 0, "j": 0})
        assert result.satisfied
        assert result.env["i"] + result.env["j"] == 123

    def test_boolean_flip(self):
        box = Box([B, I])
        constraint = x.land(B, x.eq(I, 0))
        from repro.expr.distance import DistanceEvaluator
        from repro.expr.nnf import to_nnf

        dist = DistanceEvaluator(to_nnf(constraint))
        search = AvmSearch(dist.distance, box, random.Random(3), 1000)
        result = search.run({"b": False, "i": 0})
        assert result.satisfied

    def test_budget_respected(self):
        box = Box([I])
        constraint = x.eq(x.mul(I, I), -1)  # unsatisfiable
        from repro.expr.distance import DistanceEvaluator
        from repro.expr.nnf import to_nnf

        dist = DistanceEvaluator(to_nnf(constraint))
        search = AvmSearch(dist.distance, box, random.Random(3), 100)
        result = search.run()
        assert not result.satisfied
        assert result.evaluations <= 120  # small overshoot allowed


# -- property: the engine never returns a wrong SAT --------------------------

_coef = st.integers(-5, 5)


@st.composite
def random_constraints(draw):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        a, b, c = draw(_coef), draw(_coef), draw(st.integers(-50, 50))
        lhs = x.add(x.mul(I, a), x.mul(J, b))
        op = draw(st.sampled_from([x.le, x.ge, x.eq, x.ne]))
        terms.append(op(lhs, c))
    combine = draw(st.sampled_from([x.conjoin, x.disjoin]))
    return combine(terms)


class TestEngineProperties:
    @given(constraint=random_constraints())
    @settings(max_examples=60, deadline=None)
    def test_sat_models_always_verify(self, constraint):
        engine = SolverEngine(SolverConfig(seed=1, time_budget_s=0.3))
        result = engine.solve(constraint, [I, J])
        if result.status is Status.SAT:
            assert evaluate(constraint, result.model) is True

    @given(constraint=random_constraints(), i=st.integers(-100, 100),
           j=st.integers(-100, 100))
    @settings(max_examples=60, deadline=None)
    def test_unsat_never_contradicted(self, constraint, i, j):
        engine = SolverEngine(SolverConfig(seed=1, time_budget_s=0.3))
        result = engine.solve(constraint, [I, J])
        if result.status is Status.UNSAT:
            assert evaluate(constraint, {"i": i, "j": j}) is False
