"""Soundness of the compiled encoder's binding-time staging.

An item is *staged* (evaluated once per model, its results shared by every
encoding) only when nothing it computes can depend on the state.  Each
model below pairs a state-free item with one that must *not* be staged,
because it reads state through a delay, a data store, a chart, an
enabling decision, or because a gated data-store write falls back to the
step-start value.  The tests pin the set of unstaged blocks exactly, so a
classifier that over-approximates fails them, and compare every encoding
with the reference interpreter over states that differ.
"""

import random

import pytest

from repro.expr import ops as x
from repro.expr.types import REAL
from repro.model import ModelBuilder
from repro.model.context import symbolic_context
from repro.model.executor import execute_step
from repro.model.inputs import random_input
from repro.model.simulator import Simulator
from repro.solver.encoder import OneStepEncoding
from repro.stateflow.spec import ChartSpec


def _delay_model():
    b = ModelBuilder("StageDelay")
    u = b.inport("u", REAL, -10.0, 10.0)
    delayed = b.unit_delay(u, 0.0, name="delay")
    b.outport("y", b.gain(delayed, 2.0, name="g_state"))
    b.outport("z", b.gain(u, 3.0, name="g_free"))
    return b.compile(), {"delay", "g_state"}


def _store_model():
    b = ModelBuilder("StageStore")
    u = b.inport("u", REAL, -10.0, 10.0)
    b.data_store("s", REAL, 0.0)
    read = b.store_read("s", name="read")
    b.outport("y", b.gain(read, 2.0, name="g_store"))
    # The write's input is state-free, but an inactive write keeps the
    # step-start value, so the written value depends on the state.
    b.store_write("s", b.gain(u, 0.5, name="g_free"), name="write")
    return b.compile(), {"read", "g_store", "write"}


def _chart_model():
    chart = ChartSpec("toggle")
    chart.input("u", REAL, -10.0, 10.0)
    chart.output("mode", REAL, 0.0)
    low = chart.state("Low", entry=["mode = 0.0"])
    high = chart.state("High", entry=["mode = 1.0"])
    chart.initial(low)
    chart.transition(low, high, guard="u > 1.0", priority=1)
    chart.transition(high, low, guard="u < -1.0", priority=1)
    b = ModelBuilder("StageChart")
    u = b.inport("u", REAL, -10.0, 10.0)
    modes = b.add_chart(chart, {"u": u}, name="chart")
    b.outport("y", b.add(modes["mode"], u, name="sum_state"))
    b.outport("z", b.bias(u, 1.0, name="b_free"))
    return b.compile(), {"chart", "sum_state"}


def _enable_model():
    b = ModelBuilder("StageEnable")
    u = b.inport("u", REAL, -10.0, 10.0)
    delayed = b.unit_delay(u, 0.0, name="delay")
    state_if = b.if_block([b.compare(delayed, ">", 0.0, name="c_state")],
                          name="if_state")
    with state_if.case(0):
        gated = b.gain(u, 5.0, name="g_gated")
        held = b.sub_output(gated, 0.0, name="held_state")
    free_if = b.if_block([b.compare(u, ">", 0.0, name="c_free")],
                         name="if_free")
    with free_if.case(0):
        free = b.gain(u, 7.0, name="g_enabled_free")
    b.outport("y", held)
    b.outport("z", free)
    return b.compile(), {
        "delay", "c_state", "if_state", "g_gated", "held_state",
    }


BUILDERS = [_delay_model, _store_model, _chart_model, _enable_model]


def _short_name(path: str) -> str:
    return path.rsplit("/", 1)[-1]


@pytest.mark.parametrize("build", BUILDERS, ids=lambda f: f.__name__[1:])
def test_unstaged_set_is_exact(build):
    compiled, expected_unstaged = build()
    OneStepEncoding(compiled, Simulator(compiled).get_state())
    kernel = compiled.symbolic_kernel
    unstaged = {
        _short_name(item.block.path)
        for item in compiled.plan
        if not kernel.staged[item.index]
    }
    assert unstaged == expected_unstaged
    assert kernel.n_staged == len(compiled.plan) - len(expected_unstaged)


@pytest.mark.parametrize("build", BUILDERS, ids=lambda f: f.__name__[1:])
def test_staged_encodings_equal_reference_across_states(build):
    compiled, _ = build()
    simulator = Simulator(compiled)
    rng = random.Random(7)
    seen = set()
    for _ in range(24):
        state = simulator.get_state()
        seen.add(state.fingerprint())
        encoding = OneStepEncoding(compiled, state)
        inputs = {var.name: var for var in compiled.input_variables()}
        ctx = symbolic_context(inputs, state.values)
        outputs = execute_step(compiled, ctx)
        _assert_lifted_equal(outputs, encoding.outputs)
        assert ctx.outcome_conditions == encoding._outcome_conditions
        assert ctx.condition_atoms == encoding._condition_atoms
        next_state = state.values
        next_state.update(ctx.next_state)
        _assert_lifted_equal(next_state, encoding.next_state_expressions())
        simulator.step(random_input(compiled.inports, rng))
    assert len(seen) > 1, "the walk must visit distinct states"


def _assert_lifted_equal(reference, compiled):
    assert set(reference) == set(compiled)
    for key, value in reference.items():
        assert x.lift(value) == x.lift(compiled[key]), key
