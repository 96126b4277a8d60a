"""The benchmark's workloads: fixed-work generation cells, run in passes.

A *cell* is one generator run on one model.  A *pass* runs every cell of
a workload once, in an order drawn from the benchmark seed.  Each cell's
work is fixed by something other than wall time:

* ``stcg-to-full`` and ``warm-rerun`` stop on full decision and condition
  coverage (``stop_on_full_coverage``), under a wall guard;
* ``solver-bound`` stops on a count of generator clock reads (a tick
  clock passed through ``StcgGenerator(clock=...)``), with the solver's
  per-call wall cutoff and failure backoff moved out of the way;
* ``fuzz-campaign`` stops on ``FuzzConfig.executions``.

Every cell runs at one pinned generator seed; the benchmark seed only
orders the cells in a pass.  The amount of work behind a fixed-work cell
still depends strongly on the generator seed: reaching full coverage on
LANSwitch took 0.9 s at one seed and 12.4 s at another, UTPC's 3000 ticks
took 3.0-4.9 s over seeds 0-4, and the fuzz workload's mean MCDC coverage
had a quartile spread of 18 % of its median over seeds 0-4.  Varying the
generator seed would make the benchmark measure that, not the program.

Passes are kept to a few seconds so that one run holds several of them.
NICProtocol and LANSwitch are left out of the to-full cells for that
reason: LANSwitch alone takes about 10 s to reach full coverage.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import FuzzConfig, StcgConfig, StoreConfig
from repro.core.stcg import StcgGenerator
from repro.fuzz.engine import FuzzGenerator
from repro.models.registry import get_benchmark
from repro.solver.engine import SolverConfig

from checks import replay_mismatch, suite_digest

#: A cell still running after this many seconds is stopped and fails.
WALL_GUARD_S = 30.0
#: Generator clock reads per ``solver-bound`` cell.
SOLVER_TICKS = 250
#: Candidate executions per ``fuzz-campaign`` cell.
FUZZ_EXECUTIONS = 200
#: Generator seed of every cell (see the module docstring).
PINNED_SEED = 0
#: Setup-only samples (model build + generator construction) taken before
#: the first pass and after every pass, so ``setup_s`` is a median of many.
SETUP_REPS = 4
#: ``warm-rerun`` passes that read one store before a cold pass writes the
#: next.  A cold pass costs about two warm passes, so this keeps most of a
#: run's time on warm passes while ``setup_s`` still has several cold ones.
WARM_PASSES_PER_STORE = 3

TO_FULL_MODELS = ("CPUTask", "AFC")


class TickClock:
    """A generator clock that advances one tick per read.

    It also watches real time: past ``guard_s`` seconds every read
    returns infinity, which ends the run, and ``guard_hit`` is set.
    """

    def __init__(self, guard_s: float = WALL_GUARD_S):
        self.ticks = 0
        self.guard_hit = False
        self._deadline = time.monotonic() + guard_s

    def __call__(self) -> float:
        self.ticks += 1
        if time.monotonic() > self._deadline:
            self.guard_hit = True
            return float("inf")
        return float(self.ticks)


def _to_full_config(seed: int, store: Optional[str]) -> StcgConfig:
    return StcgConfig(
        budget_s=WALL_GUARD_S,
        seed=seed,
        store=None if store is None else StoreConfig(path=store),
    )


def _solver_bound_config(seed: int, store: Optional[str]) -> StcgConfig:
    return StcgConfig(
        budget_s=float(SOLVER_TICKS),
        seed=seed,
        solver=SolverConfig(
            max_samples=48, avm_evaluations=700, time_budget_s=1e9
        ),
        failure_backoff_after=10**9,
    )


def _fuzz_config(seed: int, store: Optional[str]) -> StcgConfig:
    return StcgConfig(
        budget_s=WALL_GUARD_S,
        seed=seed,
        stop_on_full_coverage=False,
        fuzz=FuzzConfig(executions=FUZZ_EXECUTIONS),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    models: Tuple[str, ...]
    tool: str  # "STCG" or "Fuzz"
    config: Callable[[int, Optional[str]], StcgConfig]
    #: Cells must end with every branch and obligation covered.
    to_full: bool = False
    #: Cells stop on a tick clock instead of the wall clock.
    ticks: bool = False
    #: Cells read a store that setup primed with one cold pass.
    warm: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("stcg-to-full", TO_FULL_MODELS, "STCG", _to_full_config,
                 to_full=True),
        Workload("solver-bound", ("UTPC",), "STCG", _solver_bound_config,
                 ticks=True),
        Workload("fuzz-campaign", ("TCP", "CPUTask"), "Fuzz", _fuzz_config),
        Workload("warm-rerun", TO_FULL_MODELS, "STCG", _to_full_config,
                 to_full=True, warm=True),
    )
}

#: Every model any workload runs, for the per-cell metric rows.
ALL_MODELS = tuple(
    dict.fromkeys(model for w in WORKLOADS.values() for model in w.models)
)


@dataclass(frozen=True)
class Cell:
    model: str
    seed: int


@dataclass
class CellRun:
    cell: Cell
    build_s: float
    init_s: float
    wall_s: float = 0.0
    result: object = None
    digest: str = ""
    #: Why the cell failed ('' when it ran to its fixed work).
    error: str = ""


def cells_for(workload: Workload, seed: int) -> List[Cell]:
    cells = [Cell(model, PINNED_SEED) for model in workload.models]
    random.Random(seed).shuffle(cells)
    return cells


def _construct(workload: Workload, cell: Cell, store: Optional[str]):
    """Build the model and the generator.

    Returns ``(gen, clock, (build_s, init_s))``; ``clock`` is the
    :class:`TickClock` of a tick-bound cell, else ``None``.
    """
    t0 = time.perf_counter()
    model = get_benchmark(cell.model).build()
    t1 = time.perf_counter()
    config = workload.config(cell.seed, store)
    clock = None
    if workload.tool == "Fuzz":
        gen = FuzzGenerator(model, config)
    elif workload.ticks:
        clock = TickClock()
        gen = StcgGenerator(model, config, clock=clock)
    else:
        gen = StcgGenerator(model, config)
    t2 = time.perf_counter()
    return gen, clock, (t1 - t0, t2 - t1)


def setup_sample(workload: Workload, cells: List[Cell]) -> Tuple[float, float]:
    """One set-up of every cell without running it: (build_s, init_s)."""
    build = init = 0.0
    for cell in cells:
        _gen, _clock, (b, i) = _construct(workload, cell, None)
        build += b
        init += i
    return build, init


def run_cell(
    workload: Workload,
    cell: Cell,
    store: Optional[str] = None,
    around_run: Optional[Callable] = None,
) -> CellRun:
    """Set up and run one cell; ``around_run(gen)`` may wrap ``gen.run()``."""
    gen, clock, (build_s, init_s) = _construct(workload, cell, store)
    run = CellRun(cell, build_s, init_s)
    start = time.perf_counter()
    try:
        result = gen.run() if around_run is None else around_run(gen)
    except Exception as error:  # a failing cell is counted, not fatal
        run.wall_s = time.perf_counter() - start
        run.error = f"{type(error).__name__}: {error}"
        return run
    run.wall_s = time.perf_counter() - start
    run.result = result
    run.digest = suite_digest(result)
    if clock is not None and clock.guard_hit:
        run.error = "wall guard hit"
    elif workload.tool == "Fuzz":
        executions = result.stats.get("fuzz_executions")
        if executions != FUZZ_EXECUTIONS:
            run.error = f"ran {executions} of {FUZZ_EXECUTIONS} executions"
    elif run.wall_s >= WALL_GUARD_S:
        run.error = "wall guard hit"
    return run


def run_pass(
    workload: Workload,
    cells: List[Cell],
    store: Optional[str] = None,
    around_run: Optional[Callable] = None,
    between: Optional[Callable[[], float]] = None,
):
    """Run every cell once.

    With ``between``, it is also called before the first cell and after
    every cell, and ``(runs, its results)`` is returned instead of ``runs``.
    """
    gc.collect()
    if between is None:
        return [run_cell(workload, cell, store, around_run) for cell in cells]
    readings = [between()]
    runs = []
    for cell in cells:
        runs.append(run_cell(workload, cell, store, around_run))
        readings.append(between())
    return runs, readings


def check_outputs(workload: Workload, runs: List[CellRun]) -> None:
    """Replay every distinct suite once; mark every run of a bad one failed."""
    verdicts: Dict[Tuple[Cell, str], str] = {}
    for run in runs:
        if run.error or run.result is None:
            continue
        key = (run.cell, run.digest)
        if key not in verdicts:
            try:
                verdicts[key] = replay_mismatch(
                    run.result,
                    get_benchmark(run.cell.model).build(),
                    require_complete=workload.to_full,
                )
            except Exception as error:
                verdicts[key] = f"replay raised {type(error).__name__}: {error}"
        run.error = verdicts[key]


def divergent_cells(runs: List[CellRun]) -> List[Cell]:
    """Cells whose runs at the same seed produced more than one suite."""
    digests: Dict[Cell, set] = {}
    for run in runs:
        if run.result is not None:
            digests.setdefault(run.cell, set()).add(run.digest)
    return [cell for cell, seen in digests.items() if len(seen) > 1]
