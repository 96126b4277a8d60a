"""``kernels.solver`` is the switch between the solver kernel and the
reference interpreter.

Off, generation must compile and count nothing in ``solverc.*``: that is
what makes the kernel-off engine the oracle the equivalence suites and
the throughput bench compare against.  On, a cold run — whose (state,
target) pairs are first visits, so no bundle is ever built — must still
run its AVM descents on the compiled objective.
"""

import pytest

from repro.core import StcgConfig, StcgGenerator
from repro.core.config import KernelConfig
from repro.metrics import SOLVERC_COUNTERS
from repro.models.registry import get_benchmark
from repro.solver.engine import SolverConfig

from tests.solverc.test_equivalence import FakeClock


def _cold_run(name, solver_kernel):
    config = StcgConfig(
        budget_s=0.6,
        seed=7,
        failure_backoff_after=10**9,
        solver=SolverConfig(
            max_samples=32, avm_evaluations=300, time_budget_s=600.0
        ),
        kernels=KernelConfig(solver=solver_kernel),
    )
    generator = StcgGenerator(
        get_benchmark(name).build(), config, clock=FakeClock()
    )
    return generator.run()


def _solverc(result):
    counters = result.metrics["counters"]
    return {key: counters[f"solverc.{key}"] for key in SOLVERC_COUNTERS}


@pytest.mark.parametrize("name", ["UTPC", "CPUTask"])
def test_kernel_off_counts_nothing(name):
    result = _cold_run(name, False)
    assert result.stats["solver_calls"] > 0
    assert _solverc(result) == {key: 0 for key in SOLVERC_COUNTERS}


@pytest.mark.parametrize("name", ["UTPC", "CPUTask"])
def test_kernel_on_compiles_first_visit_objectives(name):
    result = _cold_run(name, True)
    counts = _solverc(result)
    # First visits only: no bundle was built ...
    assert counts["constraints_compiled"] == 0
    # ... yet every AVM descent ran the compiled objective.
    assert counts["avm_interpreted"] == 0
    assert counts["scalar_fallbacks"] == 0
    assert counts["avm_compiled"] > 0
