"""Bench: one-step encodings per second, compiled encoder vs reference.

Building a ``OneStepEncoding`` (STCG's symbolic execution of one iteration
with the state substituted as constants) is the largest layer of a STCG
cell on the encoder-heavy models.  ``OneStepEncoding`` runs the model's
compiled symbolic kernel (``repro.kernel.plan.SymbolicKernel``: per-block
closures over pre-resolved slots, state-free items staged once per
model).  The reference is the generic interpreter, ``execute_step`` under
a ``symbolic_context``.  Both build the encodings of one fixed, seeded set
of states, in the same process, so the gate is a same-run ratio and does
not depend on the machine.

Asserted:

* both paths produce structurally equal encodings of every state;
* compiled/reference encodings per second is at least ``MIN_SPEEDUP`` on
  AFC and CPUTask, the encoder-heavy models of the end-to-end benchmark.

LANSwitch, the largest encoder case but outside the end-to-end benchmark,
is measured and recorded without a gate.
"""

import random
import statistics
import time

import pytest

from repro.expr import ops as x
from repro.model.context import symbolic_context
from repro.model.executor import execute_step
from repro.model.inputs import random_input
from repro.model.simulator import Simulator
from repro.models.registry import get_benchmark
from repro.solver.encoder import OneStepEncoding

SEED = 42
#: Walk length; every state of the walk is encoded.
STEPS = 60
ROUNDS = 5
#: Required compiled/reference encodings-per-second ratio.
MIN_SPEEDUP = 1.5

GATED = ["AFC", "CPUTask"]
RECORDED = ["LANSwitch"]


def _states(compiled):
    rng = random.Random(SEED)
    simulator = Simulator(compiled)
    states = [simulator.get_state()]
    for _ in range(STEPS):
        simulator.step(random_input(compiled.inports, rng))
        states.append(simulator.get_state())
    return states


def _reference(compiled, state):
    inputs = {var.name: var for var in compiled.input_variables()}
    ctx = symbolic_context(inputs, state.values)
    execute_step(compiled, ctx)
    return ctx


def _assert_same(compiled, states):
    for state in states:
        encoding = OneStepEncoding(compiled, state)
        ctx = _reference(compiled, state)
        assert ctx.outcome_conditions == encoding._outcome_conditions
        assert ctx.condition_atoms == encoding._condition_atoms
        next_state = state.values
        next_state.update(ctx.next_state)
        compiled_next = encoding.next_state_expressions()
        assert set(next_state) == set(compiled_next)
        for path, value in next_state.items():
            assert x.lift(value) == x.lift(compiled_next[path]), path


def _rate(build, states):
    started = time.perf_counter()
    for state in states:
        build(state)
    return len(states) / (time.perf_counter() - started)


def _measure(model_name):
    compiled = get_benchmark(model_name).build()
    states = _states(compiled)
    _assert_same(compiled, states)  # also compiles the kernel, untimed
    compiled_rates, reference_rates = [], []
    for _ in range(ROUNDS):
        compiled_rates.append(
            _rate(lambda state: OneStepEncoding(compiled, state), states)
        )
        reference_rates.append(
            _rate(lambda state: _reference(compiled, state), states)
        )
    compiled_rate = statistics.mean(compiled_rates)
    reference_rate = statistics.mean(reference_rates)
    return len(states), compiled_rate, reference_rate


def _report(model_name, n_states, compiled_rate, reference_rate, gate):
    return (
        f"{model_name}: {n_states} walk states (seed {SEED}), mean of "
        f"{ROUNDS} alternating rounds\n"
        f"  reference: {reference_rate:,.0f} encodings/s\n"
        f"  compiled:  {compiled_rate:,.0f} encodings/s\n"
        f"  speedup:   {compiled_rate / reference_rate:.2f}x ({gate})\n"
    )


@pytest.mark.parametrize("model_name", GATED)
def test_encoder_throughput(model_name, artifact):
    """Compiled >= MIN_SPEEDUP x reference encodings/s, same encodings."""
    n_states, compiled_rate, reference_rate = _measure(model_name)
    speedup = compiled_rate / reference_rate
    artifact(
        f"encoder_throughput_{model_name}.txt",
        _report(model_name, n_states, compiled_rate, reference_rate,
                f"required: {MIN_SPEEDUP:.1f}x"),
    )
    assert speedup >= MIN_SPEEDUP, (
        f"{model_name} compiled encoder speedup {speedup:.2f}x below "
        f"{MIN_SPEEDUP:.1f}x (compiled {compiled_rate:,.0f}/s, "
        f"reference {reference_rate:,.0f}/s)"
    )


@pytest.mark.parametrize("model_name", RECORDED)
def test_encoder_throughput_recorded(model_name, artifact):
    """Same measurement, recorded only (no gate)."""
    n_states, compiled_rate, reference_rate = _measure(model_name)
    artifact(
        f"encoder_throughput_{model_name}.txt",
        _report(model_name, n_states, compiled_rate, reference_rate,
                "recorded, not gated"),
    )
