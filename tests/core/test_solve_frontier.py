"""Algorithm 1's incremental frontier equals the full rescan it replaces.

:meth:`StcgGenerator._state_aware_solve` resumes each target from the
position of its first solve node not known to be solved instead of
rescanning the state tree from node 0.  The oracle below is the full
rescan, kept here (and only here) as the reference: on every registry
model, under a deterministic counting clock, both scans must attempt the
same (node, target) pairs in the same order, read the clock the same
number of times, and leave identical suites, stats, counters and
provenance.
"""

import pytest

from repro.core.config import CacheConfig, StcgConfig
from repro.core.stcg import StcgGenerator
from repro.core.state_tree import StateTree
from repro.fuzz.engine import HybridGenerator
from repro.models.registry import benchmark_names, get_benchmark
from repro.solver.engine import SolverConfig
from tests.conftest import build_counter_model


def full_rescan_solve(self):
    """The full-rescan Algorithm 1: every scan walks from node 0."""
    for branch in self._branches:
        if self.collector.is_branch_covered(branch):
            continue
        if branch.branch_id in self.proven_dead:
            continue
        for node in self.tree.solve_nodes():
            if node.is_solved(branch.branch_id):
                continue
            if self._out_of_time():
                return None
            target = self._solve_pair(node, branch)
            if target is not None:
                return target
    for obligation in self.collector.unsatisfied_condition_obligations():
        for node in self.tree.solve_nodes():
            if obligation in node.solved_obligations:
                continue
            if self._out_of_time():
                return None
            target = self._solve_obligation(node, obligation)
            if target is not None:
                return target
    return None


class CountingClock:
    """Deterministic clock: every read advances one fixed tick."""

    def __init__(self, step=0.001):
        self.step = step
        self.now = 0.0
        self.reads = 0

    def __call__(self):
        self.reads += 1
        self.now += self.step
        return self.now


def _config(**overrides):
    # The solver's per-call wall cutoff and the lite backoff engine (which
    # clamps its own wall budget) are the remaining real-time sources;
    # both are kept out of the way so only the counting clock decides.
    options = dict(
        budget_s=0.6,
        seed=11,
        solver=SolverConfig(
            max_samples=48, avm_evaluations=700, time_budget_s=60.0
        ),
        failure_backoff_after=10**9,
    )
    options.update(overrides)
    return StcgConfig(**options)


def _instrument(generator, oracle):
    """Record attempted pairs; swap in the oracle scan if asked."""
    attempts = []
    solve_pair = generator._solve_pair
    solve_obligation = generator._solve_obligation

    def record_pair(node, branch):
        attempts.append((node.node_id, ("branch", branch.branch_id)))
        return solve_pair(node, branch)

    def record_obligation(node, obligation):
        attempts.append((node.node_id, ("obligation", obligation)))
        return solve_obligation(node, obligation)

    generator._solve_pair = record_pair
    generator._solve_obligation = record_obligation
    if oracle:
        generator._state_aware_solve = full_rescan_solve.__get__(generator)
    return attempts


def _run(build, config, *, oracle, hybrid=False):
    clock = CountingClock()
    if hybrid:
        runner = HybridGenerator(build(), config, clock=clock)
        generator = runner._host
    else:
        runner = generator = StcgGenerator(build(), config, clock=clock)
    attempts = _instrument(generator, oracle)
    result = runner.run()
    return {
        "attempts": attempts,
        "clock_reads": clock.reads,
        "suite": [
            (case.inputs, case.origin, case.new_branch_ids)
            for case in result.suite
        ],
        "stats": result.stats,
        "counters": result.metrics["counters"],
        "provenance": result.provenance,
    }


def _assert_equivalent(build, config, hybrid=False):
    frontier = _run(build, config, oracle=False, hybrid=hybrid)
    rescan = _run(build, config, oracle=True, hybrid=hybrid)
    assert frontier["attempts"], "the pin needs at least one attempt"
    for key in rescan:
        assert frontier[key] == rescan[key], key
    return frontier


@pytest.mark.parametrize("name", benchmark_names())
def test_frontier_matches_full_rescan(name):
    _assert_equivalent(get_benchmark(name).build, _config())


@pytest.mark.parametrize("name", ["CPUTask", "AFC", "UTPC"])
def test_frontier_matches_full_rescan_without_dedup(name):
    _assert_equivalent(
        get_benchmark(name).build,
        _config(caches=CacheConfig(tree_dedup=False)),
    )


def test_frontier_matches_full_rescan_under_hybrid():
    """Hybrid grafts fuzz states into the host tree between solver
    passes; they arrive through ``add_child`` like any other node."""
    from repro.core.config import FuzzConfig

    frontier = _assert_equivalent(
        get_benchmark("UTPC").build,
        _config(budget_s=1.2, fuzz=FuzzConfig(executions=120)),
        hybrid=True,
    )
    assert frontier["stats"]["fuzz_tree_nodes"] > 0


def test_frontier_never_skips_an_unsolved_node():
    """Solved sets filled out of order (later nodes solved, earlier ones
    not) must not carry the frontier past an unsolved node, and a scan
    the clock cuts short must resume on the node it did not attempt."""
    from repro.model.state import ModelState

    def run(oracle):
        generator = StcgGenerator(build_counter_model(), _config())
        root = generator.tree.root.state
        (name,) = root.values
        tree = StateTree(root)
        for value in (3, 5, 7, 9):
            tree.add_child(tree.root, ModelState({name: value}), {})
        generator.tree = tree
        branch_id = generator._branches[0].branch_id
        tree.node(2).set_solved(branch_id)
        tree.node(3).set_solved(branch_id)
        attempts = []

        def refute_pair(node, branch):
            attempts.append((node.node_id, branch.branch_id))
            node.set_solved(branch.branch_id)

        def refute_obligation(node, obligation):
            attempts.append((node.node_id, obligation))
            node.solved_obligations.add(obligation)

        generator._solve_pair = refute_pair
        generator._solve_obligation = refute_obligation
        if oracle:
            generator._state_aware_solve = full_rescan_solve.__get__(
                generator
            )
        # The first scan runs out of time right after its first attempt.
        reads = iter([False, True])
        generator._out_of_time = lambda: next(reads, False)
        assert generator._state_aware_solve() is None
        # A node behind the parked frontier is solved out of order.
        tree.node(4).set_solved(branch_id)
        assert generator._state_aware_solve() is None
        return attempts, branch_id

    (frontier, branch_id), (rescan, _) = run(False), run(True)
    assert [n for n, target in rescan if target == branch_id] == [0, 1]
    assert len(rescan) > 2
    assert frontier == rescan
