"""Bench: symbolic solve throughput, compiled solver kernel vs interpreter.

Solving is the other half of STCG's hot path: Algorithm 1 fires one
one-step constraint per (state, branch) pair per pass, and each solve
funnels through contraction, candidate sampling and AVM descent.  The
``repro.solverc`` compiler specializes that pipeline per constraint
(compiled contractors, scalar distance closures, numpy batch tapes);
this bench measures solves/second on a dataflow-heavy cell (CPUTask) and
a chart-heavy cell (UTPC), kernel on vs off, in two configurations:

* **First visit** — what generation runs almost all the time.  The
  compiled bundle for a (fingerprint, target) pair is only built on its
  second visit, and a single run rarely revisits a pair: the
  ``stcg-to-full`` and ``solver-bound`` workloads build no bundle at all.
  A first visit contracts through the interpreter and, once contraction
  has passed, scores candidates and runs AVM on a compiled scalar
  objective (``SolverEngine(kernel=True)`` with no bundle).
* **Warm** — the bundle steady state that warm-start reruns and revisits
  reach: bundles compiled and their contraction snapshots recorded.  The
  sampling stage dominates at the paper's Table III scale, so the bench
  widens ``max_samples`` to let the batch tapes work — the same workload
  the >=2x acceptance cells were measured on.

Guarantees asserted:

* the warm kernel sustains at least ``MIN_SPEEDUP`` x the interpreter's
  solves/second on both cells, and the first-visit kernel at least
  ``MIN_FIRST_VISIT_SPEEDUP`` x on UTPC (CPUTask's first-visit ratio is
  recorded, not gated);
* every solve returns the identical (status, model, stage, RNG
  consumption) tuple on all paths (speed means nothing if the verdicts
  or the downstream random draws move).

The ``test_solves_{kernel,interp}_*`` pairs additionally record both
timings with pytest-benchmark so CI can gate on regressions against the
committed ``BENCH_baseline.json``.
"""

import random
import statistics
import time

import pytest

from repro.coverage.collector import CoverageCollector
from repro.model.inputs import random_input
from repro.model.simulator import Simulator
from repro.models.registry import get_benchmark
from repro.solver.encoder import OneStepEncoding
from repro.solver.engine import SolverConfig, SolverEngine
from repro.solverc import ConstraintCompiler

SEED = 11
#: Required kernel/interpreter solves-per-second ratio (the issue's
#: acceptance threshold is 1.5x; measured margin on an idle machine is
#: >2x on both cells).
MIN_SPEEDUP = 1.5
#: Required first-visit/interpreter ratio on the gated cells.
MIN_FIRST_VISIT_SPEEDUP = 1.5
#: Cells whose first-visit ratio is gated (the others are recorded).
FIRST_VISIT_GATED = ("UTPC",)

MODELS = ["CPUTask", "UTPC"]

#: Table-III-scale per-solve budgets: a wide sampling stage (where the
#: batch tapes engage) and enough AVM evaluations for the hard targets.
CONFIG = SolverConfig(max_samples=256, avm_evaluations=700, time_budget_s=60.0)


def _problems(model_name, steps=30, states=8):
    """(constraint, variables) pairs from real one-step encodings along a
    random concrete trajectory — the same workload generation produces."""
    compiled = get_benchmark(model_name).build()
    sim = Simulator(compiled, CoverageCollector(compiled.registry))
    rng = random.Random(SEED)
    visited = [sim.get_state()]
    for _ in range(steps):
        sim.step(random_input(compiled.inports, rng))
        visited.append(sim.get_state())
    problems = []
    branches = list(compiled.registry.branches)
    for state in visited[:: max(1, len(visited) // states)]:
        encoding = OneStepEncoding(compiled, state)
        for branch in branches:
            problems.append(
                (encoding.path_constraint(branch), encoding.variables)
            )
    return problems


def _result_key(result):
    return (
        result.status,
        result.model,
        result.stats.stage,
        result.stats.samples,
        result.stats.avm_evaluations,
    )


def _interp_pass(problems):
    engine = SolverEngine(CONFIG)
    rng = random.Random(99)
    return [_result_key(engine.solve(c, v, rng)) for c, v in problems]


def _kernel_pass(problems, compiled_list):
    engine = SolverEngine(CONFIG)
    rng = random.Random(99)
    return [
        _result_key(engine.solve(c, v, rng, compiled=comp))
        for (c, v), comp in zip(problems, compiled_list)
    ]


def _first_visit_pass(problems):
    engine = SolverEngine(CONFIG, kernel=True)
    rng = random.Random(99)
    return [_result_key(engine.solve(c, v, rng)) for c, v in problems]


def _paired_rates(kernel_run, problems, passes=3):
    """Solves/s of ``kernel_run()`` and of the interpreter, each the mean
    over ``passes`` alternating passes (so machine load hits both)."""
    kernel_times, interp_times = [], []
    for _ in range(passes):
        started = time.perf_counter()
        kernel_run()
        kernel_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        _interp_pass(problems)
        interp_times.append(time.perf_counter() - started)
    n = len(problems)
    return n / statistics.mean(kernel_times), n / statistics.mean(interp_times)


def _compile_warm(problems):
    """Compile every bundle and run one warm-up pass so the contraction
    snapshots are recorded — the cached steady state generation reaches."""
    compiler = ConstraintCompiler()
    compiled_list = [compiler.compile(c, v) for c, v in problems]
    _kernel_pass(problems, compiled_list)
    return compiled_list


@pytest.mark.parametrize("model_name", MODELS)
def test_solver_kernel_throughput(model_name, artifact):
    """Warm kernel >= MIN_SPEEDUP x interpreter solves/s, bit-identical."""
    problems = _problems(model_name)
    compiled_list = _compile_warm(problems)

    # Transparency first: identical verdicts, models and RNG consumption.
    base = _interp_pass(problems)
    assert _kernel_pass(problems, compiled_list) == base

    kernel_rate, interp_rate = _paired_rates(
        lambda: _kernel_pass(problems, compiled_list), problems
    )
    n = len(problems)
    speedup = kernel_rate / interp_rate
    artifact(
        f"solver_throughput_{model_name}.txt",
        f"{model_name}: {n} one-step solves (seed {SEED}, "
        f"max_samples={CONFIG.max_samples}), mean of 3 warm passes\n"
        f"  interpreter: {interp_rate:,.0f} solves/s\n"
        f"  kernel:      {kernel_rate:,.0f} solves/s\n"
        f"  speedup:     {speedup:.2f}x (required: {MIN_SPEEDUP:.1f}x)\n",
    )
    assert speedup >= MIN_SPEEDUP, (
        f"{model_name} solver-kernel speedup {speedup:.2f}x below the "
        f"{MIN_SPEEDUP:.1f}x acceptance threshold "
        f"(kernel {kernel_rate:,.0f} solves/s, "
        f"interpreter {interp_rate:,.0f} solves/s)"
    )


@pytest.mark.parametrize("model_name", MODELS)
def test_solver_first_visit_throughput(model_name, artifact):
    """Bundle-free kernel solves vs the interpreter, bit-identical."""
    problems = _problems(model_name)
    assert _first_visit_pass(problems) == _interp_pass(problems)

    first_rate, interp_rate = _paired_rates(
        lambda: _first_visit_pass(problems), problems
    )
    n = len(problems)
    speedup = first_rate / interp_rate
    gated = model_name in FIRST_VISIT_GATED
    required = (
        f"required: {MIN_FIRST_VISIT_SPEEDUP:.1f}x" if gated else "ungated"
    )
    artifact(
        f"solver_first_visit_{model_name}.txt",
        f"{model_name}: {n} one-step solves (seed {SEED}, "
        f"max_samples={CONFIG.max_samples}), mean of 3 first-visit passes "
        f"(no bundle)\n"
        f"  interpreter: {interp_rate:,.0f} solves/s\n"
        f"  first visit: {first_rate:,.0f} solves/s\n"
        f"  speedup:     {speedup:.2f}x ({required})\n",
    )
    if gated:
        assert speedup >= MIN_FIRST_VISIT_SPEEDUP, (
            f"{model_name} first-visit speedup {speedup:.2f}x below "
            f"{MIN_FIRST_VISIT_SPEEDUP:.1f}x (first visit "
            f"{first_rate:,.0f} solves/s, interpreter "
            f"{interp_rate:,.0f} solves/s)"
        )


@pytest.mark.parametrize("model_name", MODELS)
def test_solves_kernel(model_name, benchmark):
    """Warm compiled-kernel solve pass (the cached steady state)."""
    problems = _problems(model_name)
    compiled_list = _compile_warm(problems)
    results = benchmark.pedantic(
        lambda: _kernel_pass(problems, compiled_list),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert len(results) == len(problems)


@pytest.mark.parametrize("model_name", MODELS)
def test_solves_interp(model_name, benchmark):
    """Pure interpreter solve pass (the reference semantics)."""
    problems = _problems(model_name)
    results = benchmark.pedantic(
        lambda: _interp_pass(problems),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert len(results) == len(problems)
