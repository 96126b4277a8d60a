"""Tests of the benchmark's own machinery (not of the program).

Run with ``python -m pytest perfbench`` from the repository root.
"""

import importlib
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import selftime
from checks import replay_mismatch, suite_digest
from repro.core.config import StcgConfig
from repro.core.stcg import StcgGenerator
from repro.core.testcase import TestSuite
from repro.models.registry import get_benchmark


class FakeClock:
    """A clock that only moves when the test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


# -- self-time arithmetic -------------------------------------------------


def test_nested_calls_charge_each_layer_its_exclusive_time():
    clock = FakeClock()
    timer = selftime.SelfTimer(clock)

    def leaf():
        clock.work(2.0)

    leaf = timer.timed("leaf", leaf)

    def middle():
        clock.work(1.0)
        leaf()
        clock.work(0.5)
        leaf()

    middle = timer.timed("middle", middle)

    def root():
        clock.work(3.0)
        middle()
        clock.work(0.25)

    root = timer.timed("root", root)
    root()
    assert timer.self_s == {"leaf": 4.0, "middle": 1.5, "root": 3.25}
    assert timer.calls == {"leaf": 2, "middle": 1, "root": 1}
    assert sum(timer.self_s.values()) == clock.now


def test_reentrant_calls_are_charged_once():
    clock = FakeClock()
    timer = selftime.SelfTimer(clock)

    def other():
        clock.work(10.0)
        recurse(2)

    def recurse(depth):
        clock.work(1.0)
        if depth < 3:
            recurse(depth + 1)
        clock.work(1.0)

    recurse = timer.timed("a", recurse)
    other = timer.timed("b", other)

    def root():
        recurse(2)  # a: 2 frames, 4 s
        other()  # b: 10 s around a again: 2 frames, 4 s

    timer.timed("a", root)()
    assert timer.self_s == {"a": 8.0, "b": 10.0}
    assert timer.calls == {"a": 5, "b": 1}
    assert sum(timer.self_s.values()) == clock.now


def test_a_raising_call_still_closes_its_frame():
    clock = FakeClock()
    timer = selftime.SelfTimer(clock)

    def boom():
        clock.work(1.0)
        raise ValueError("inside")

    boom = timer.timed("inner", boom)

    def root():
        clock.work(2.0)
        with pytest.raises(ValueError):
            boom()
        clock.work(3.0)

    timer.timed("outer", root)()
    assert timer.self_s == {"inner": 1.0, "outer": 5.0}


# -- the wrappers ---------------------------------------------------------


def _originals():
    found = {}
    for _layer, module_name, owner_name, attribute in selftime.ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        found[(module_name, owner_name, attribute)] = vars(owner)[attribute]
    return found


def test_every_entry_point_exists():
    installation = selftime.install(selftime.SelfTimer())
    installation.uninstall()
    assert installation.missing == []


def test_wrappers_leave_repro_classes_unpatched_afterwards():
    before = _originals()
    installation = selftime.install(selftime.SelfTimer())
    try:
        during = _originals()
        assert all(during[key] is not before[key] for key in before)
    finally:
        installation.uninstall()
    after = _originals()
    assert all(after[key] is before[key] for key in before)


def test_traced_cell_layers_add_up_to_its_wall():
    gen = StcgGenerator(
        get_benchmark("CPUTask").build(), StcgConfig(budget_s=30.0, seed=0)
    )
    timer = selftime.SelfTimer()
    installation = selftime.install(timer)
    try:
        start = time.perf_counter()
        gen.run()
        wall = time.perf_counter() - start
    finally:
        installation.uninstall()
    accounted = sum(timer.self_s.values())
    assert abs(accounted - wall) <= 0.01 * wall
    for layer in ("core", "encoder", "solver", "sim", "state.fingerprint"):
        assert timer.self_s[layer] > 0.0, layer
    assert timer.counts["encoder.builds"] > 0
    assert timer.counts["sim.steps"] > 0


def _traced_cputask(timer):
    import run
    import workloads

    workload = workloads.WORKLOADS["stcg-to-full"]
    cells = [workloads.Cell("CPUTask", workloads.PINNED_SEED)]
    return run._traced_pass(workloads, workload, cells, None, timer)


def test_traced_cache_counters_are_the_programs_own():
    import run

    gen = StcgGenerator(
        get_benchmark("CPUTask").build(), StcgConfig(budget_s=30.0, seed=0)
    )
    timer = selftime.SelfTimer()
    run._around_run(timer)(gen)
    stats = gen.cache.stats()
    assert stats["encoding_hits"] > 0
    for name in ("encoding_hits", "encoding_misses", "compiled_hits",
                 "compiled_misses", "verdict_hits"):
        assert timer.counts[f"cache.{name}"] == stats[name], name


def test_a_missing_entry_point_makes_the_traced_run_not_correct(
    monkeypatch,
):
    import run
    import workloads

    monkeypatch.setattr(selftime, "ENTRY_POINTS", selftime.ENTRY_POINTS + (
        ("encoder", "repro.solver.encoder", "OneStepEncoding", "renamed"),
    ))
    timer = selftime.SelfTimer()
    traced = _traced_cputask(timer)
    assert timer.counts["trace.missing_entry_points"] == 1
    _metrics, correct = run._layer_metrics(
        workloads, [traced], [(0.0, 0.0)], traced, timer, None
    )
    assert not correct


# -- the output check -----------------------------------------------------


@pytest.fixture(scope="module")
def cputask_result():
    build = get_benchmark("CPUTask").build
    return StcgGenerator(build(), StcgConfig(budget_s=30.0, seed=0)).run()


def _doctored(result, cases):
    suite = TestSuite(result.suite.model_name, result.suite.input_names, cases)
    return type(result)(
        tool=result.tool,
        model_name=result.model_name,
        summary=result.summary,
        suite=suite,
    )


def test_replay_accepts_the_generated_suite(cputask_result):
    compiled = get_benchmark("CPUTask").build()
    assert replay_mismatch(cputask_result, compiled, True) == ""


def test_replay_rejects_a_suite_missing_a_case(cputask_result):
    # The last case was kept because it covered something no earlier
    # case did, so the suite without it cannot reach the reported coverage.
    doctored = _doctored(cputask_result, list(cputask_result.suite)[:-1])
    compiled = get_benchmark("CPUTask").build()
    assert "replay coverage" in replay_mismatch(doctored, compiled, True)
    assert suite_digest(doctored) != suite_digest(cputask_result)


def test_replay_rejects_an_incomplete_suite_claimed_complete(cputask_result):
    compiled = get_benchmark("CPUTask").build()
    first = _doctored(cputask_result, list(cputask_result.suite)[:1])
    first.summary = first.suite.replay(compiled).summary()
    assert replay_mismatch(first, compiled, False) == ""
    assert "uncovered" in replay_mismatch(first, compiled, True)


# -- the command ----------------------------------------------------------


def test_run_fails_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "stcg-to-full",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
