"""Generator-level transparency of the simulation kernel.

``kernels.sim`` may only change how fast concrete steps run — never what
any tool produces.  Fixed-seed STCG runs must be bit-identical with the
kernel on or off, the baselines must be equally unaffected, and symbolic
execution (the SLDV unroller, STCG's encodings) never touches the kernel.
"""

import pytest

from repro.baselines.simcotest import SimCoTestConfig, SimCoTestGenerator
from repro.baselines.sldv import SldvConfig, SldvGenerator
from repro.core import StcgConfig, StcgGenerator
from repro.core.config import KernelConfig

from tests.conftest import build_counter_model, build_queue_model
from tests.core.test_stcg_cache import assert_identical


@pytest.mark.parametrize("build", [build_counter_model, build_queue_model])
def test_stcg_bit_identical_kernel_on_vs_off(build):
    on = StcgGenerator(
        build(),
        StcgConfig(budget_s=10.0, seed=7, kernels=KernelConfig(sim=True)),
    ).run()
    off = StcgGenerator(
        build(),
        StcgConfig(budget_s=10.0, seed=7, kernels=KernelConfig(sim=False)),
    ).run()
    assert_identical(on, off)


def test_simcotest_replay_identical_kernel_on_vs_off(monkeypatch):
    import repro.baselines.simcotest as module

    def run(force_interpreter):
        if force_interpreter:
            original = module.Simulator
            monkeypatch.setattr(
                module,
                "Simulator",
                lambda *args, **kwargs: original(
                    *args, **{**kwargs, "kernel": False}
                ),
            )
        result = SimCoTestGenerator(
            build_counter_model(), SimCoTestConfig(budget_s=5.0, seed=3)
        ).run()
        monkeypatch.undo()
        return result

    assert_identical(run(False), run(True))


def test_sldv_symbolic_path_untouched_by_kernel(monkeypatch):
    """SLDV's unroller is symbolic (interpreter-only by construction); the
    kernel only accelerates counterexample replay, so results must be
    identical either way."""
    import repro.baselines.sldv as module

    def run(force_interpreter):
        if force_interpreter:
            original = module.Simulator
            monkeypatch.setattr(
                module,
                "Simulator",
                lambda *args, **kwargs: original(
                    *args, **{**kwargs, "kernel": False}
                ),
            )
        result = SldvGenerator(
            build_counter_model(), SldvConfig(budget_s=5.0, seed=3, max_depth=3)
        ).run()
        monkeypatch.undo()
        return result

    assert_identical(run(False), run(True))


class TestKernelTraceData:
    def test_traced_run_reports_kernel_stats(self):
        result = StcgGenerator(
            build_counter_model(),
            StcgConfig(budget_s=5.0, seed=1, trace=True),
        ).run()
        counters = result.metrics["counters"]
        assert result.metrics["gauges"]["kernel.enabled"]["value"] == 1.0
        assert counters["kernel.specialized_blocks"] > 0
        assert counters["kernel.fallback_blocks"] == 0
        assert counters["kernel.steps"] == result.stats["steps_executed"]

    def test_kernel_off_is_reported_as_disabled(self):
        result = StcgGenerator(
            build_counter_model(),
            StcgConfig(budget_s=5.0, seed=1, trace=True,
                       kernels=KernelConfig(sim=False)),
        ).run()
        assert result.metrics["gauges"]["kernel.enabled"]["value"] == 0.0
        assert result.metrics["counters"]["kernel.steps"] == 0

    def test_untraced_run_has_no_trace_data(self):
        result = StcgGenerator(
            build_counter_model(), StcgConfig(budget_s=5.0, seed=1)
        ).run()
        assert result.trace_data == {}
        # The counters come with every run, traced or not.
        assert result.metrics["counters"]["kernel.steps"] > 0
