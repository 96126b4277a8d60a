"""Compiled one-step encoder vs the reference symbolic interpreter.

``OneStepEncoding`` runs the model's compiled symbolic kernel.  The
reference is the generic interpreter, ``execute_step`` under a
``symbolic_context``.  From every state of a seeded kernel walk, both must
produce structurally equal outputs, next state, outcome conditions,
condition atoms with their contexts, path constraints and obligation
constraints.  Equality is checked twice: with ``Expr.__eq__`` and on the
exact codec payload, which also sees variable bounds and constant types.
The reference passes some raw Python values through where the compiled
encoder holds their ``Const``; both sides are lifted before comparing.
"""

import random

import pytest

from repro.coverage.collector import CoverageCollector
from repro.expr import ops as x
from repro.expr.ast import FALSE, TRUE
from repro.expr.variables import substitute
from repro.metrics import MetricsRegistry
from repro.model.context import symbolic_context
from repro.model.executor import execute_step
from repro.model.inputs import random_input
from repro.model.simulator import Simulator
from repro.models.registry import BENCHMARKS, SIMPLE_CPUTASK
from repro.solver.encoder import OneStepEncoding
from repro.store.codec import encode_expr

from tests.conftest import build_counter_model, build_queue_model

STEPS = 160
SEED = 42
#: Every n-th state of the walk is encoded (the walk itself is the
#: 160-step sequence of ``test_equivalence.py``).
STRIDE = 2

MODELS = [(m.name, m.build) for m in list(BENCHMARKS) + [SIMPLE_CPUTASK]] + [
    ("Counter", build_counter_model),
    ("Queue", build_queue_model),
]


def _walk_states(compiled):
    rng = random.Random(SEED)
    simulator = Simulator(compiled)
    states = [simulator.get_state()]
    for _ in range(STEPS):
        simulator.step(random_input(compiled.inports, rng))
        states.append(simulator.get_state())
    return states[::STRIDE]


def _same(a, b) -> bool:
    a, b = x.lift(a), x.lift(b)
    return a == b and encode_expr(a) == encode_expr(b)


def _assert_map_equal(reference, compiled, what):
    assert set(reference) == set(compiled), what
    for key, value in reference.items():
        assert _same(value, compiled[key]), (what, key)


def _reference_path(conditions, branch):
    constraint = conditions[branch.decision.decision_id][branch.outcome]
    for ancestor in branch.ancestors():
        constraint = x.land(
            constraint, conditions[ancestor.decision.decision_id][ancestor.outcome]
        )
    return constraint


def _reference_obligation(atoms_by_point, registry, obligation):
    """The obligation constraint as built before the encoder was compiled:
    the derivative always, through two ``substitute`` walks."""
    recorded = atoms_by_point.get(obligation.point_id)
    if recorded is None:
        return x.FALSE
    atoms, context = recorded
    atom = atoms[obligation.atom]
    polarity = atom if obligation.polarity else x.lnot(atom)
    constraint = x.land(context, polarity)
    if obligation.determining:
        point = registry.condition_point(obligation.point_id)
        bind_true, bind_false = {}, {}
        for position, other in enumerate(atoms):
            name = f"c{position}"
            same = position == obligation.atom
            bind_true[name] = TRUE if same else other
            bind_false[name] = FALSE if same else other
        constraint = x.land(
            constraint,
            x.lxor(
                substitute(point.structure, bind_true),
                substitute(point.structure, bind_false),
            ),
        )
    return constraint


@pytest.mark.parametrize("name,build", MODELS, ids=[n for n, _ in MODELS])
def test_compiled_encoder_matches_reference(name, build):
    compiled = build()
    registry = compiled.registry
    obligations = CoverageCollector(registry).all_condition_obligations()
    for state in _walk_states(compiled):
        encoding = OneStepEncoding(compiled, state)
        inputs = {var.name: var for var in compiled.input_variables()}
        ctx = symbolic_context(inputs, state.values)
        outputs = execute_step(compiled, ctx)
        next_state = state.values
        next_state.update(ctx.next_state)

        _assert_map_equal(outputs, encoding.outputs, "outputs")
        _assert_map_equal(
            next_state, encoding.next_state_expressions(), "next state"
        )
        assert set(ctx.outcome_conditions) == set(encoding._outcome_conditions)
        for decision_id, conditions in ctx.outcome_conditions.items():
            mine = encoding._outcome_conditions[decision_id]
            assert len(mine) == len(conditions)
            assert all(_same(a, b) for a, b in zip(conditions, mine))
        assert set(ctx.condition_atoms) == set(encoding._condition_atoms)
        for point_id, (atoms, context) in ctx.condition_atoms.items():
            mine_atoms, mine_context = encoding._condition_atoms[point_id]
            assert _same(context, mine_context), point_id
            assert len(mine_atoms) == len(atoms)
            assert all(_same(a, b) for a, b in zip(atoms, mine_atoms))
        for branch in registry.branches:
            assert _same(
                _reference_path(ctx.outcome_conditions, branch),
                encoding.path_constraint(branch),
            ), branch.label
        for obligation in obligations:
            assert _same(
                _reference_obligation(ctx.condition_atoms, registry, obligation),
                encoding.obligation_constraint(obligation),
            ), obligation


@pytest.mark.parametrize("model", BENCHMARKS, ids=lambda m: m.name)
def test_registry_models_fully_specialize_symbolically(model):
    """Every block class of a registry model has a symbolic factory, so
    no item runs the generic ``compute``/``update`` fallback."""
    compiled = model.build()
    OneStepEncoding(compiled, Simulator(compiled).get_state())
    registry = MetricsRegistry()
    compiled.symbolic_kernel.count_into(registry)
    counters = registry.snapshot()["counters"]
    assert counters["encoder.fallback_blocks"] == 0, (
        sorted(compiled.symbolic_kernel.fallback_classes)
    )
    assert counters["encoder.specialized_blocks"] == len(compiled.plan)
    assert 0 < counters["encoder.staged_blocks"] < len(compiled.plan)


def test_kernel_compiles_lazily_once_per_model():
    compiled = build_counter_model()
    assert compiled.symbolic_kernel is None
    state = Simulator(compiled).get_state()
    OneStepEncoding(compiled, state)
    kernel = compiled.symbolic_kernel
    assert kernel is not None
    OneStepEncoding(compiled, state)
    assert compiled.symbolic_kernel is kernel


def test_encodings_share_staged_recordings():
    """Staged outcome conditions are one object across encodings."""
    compiled = build_queue_model()
    simulator = Simulator(compiled)
    first = OneStepEncoding(compiled, simulator.get_state())
    simulator.step({"op": 1, "key": 5})
    second = OneStepEncoding(compiled, simulator.get_state())
    staged = compiled.symbolic_kernel.staged_outcomes
    assert staged, "the queue's opcode switch-case is state-free"
    for decision_id, conditions in staged.items():
        assert first._outcome_conditions[decision_id] is conditions
        assert second._outcome_conditions[decision_id] is conditions


def test_generator_construction_does_not_compile():
    """Construction is timed as set-up and a fuzz campaign never encodes,
    so the kernel compiles on the first encoding, not before."""
    from repro.core.config import StcgConfig
    from repro.core.stcg import StcgGenerator

    compiled = build_queue_model()
    generator = StcgGenerator(compiled, StcgConfig(budget_s=5.0, seed=0))
    assert compiled.symbolic_kernel is None
    result = generator.run()
    assert compiled.symbolic_kernel is not None
    counters = result.metrics["counters"]
    assert counters["encoder.specialized_blocks"] == len(compiled.plan)
    assert counters["encoder.fallback_blocks"] == 0
    assert counters["encoder.staged_blocks"] == compiled.symbolic_kernel.n_staged
