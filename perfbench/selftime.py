"""Exclusive per-layer self time, measured from outside the program.

The traced run wraps the public entry points of each ``repro`` layer
(:data:`ENTRY_POINTS`) in timing frames kept on one stack.  When a frame
closes, its layer is charged the frame's duration minus the time its
child frames covered, and the parent frame learns how much of its own
interval the child used.  Every nanosecond inside the outermost frame is
therefore charged to exactly one layer, so the layers' self times add up
to the outermost call's wall time.  Re-entrant calls (a layer calling
itself, directly or through another layer) need no special case: each
call is its own frame.

Nothing in ``repro`` is modified on disk.  :func:`install` swaps class
attributes for wrappers and :func:`uninstall` puts the originals back;
the untraced runs never see a wrapper.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Every layer the traced run reports, in report order, with the name of
#: its self-time metric.  ``core`` is the generator's own ``run`` (the STCG
#: loop or the fuzz campaign loop): whatever no other layer claims.
LAYERS = {
    "core": "core.other_s",
    "encoder": "encoder.self_s",
    "cache": "cache.self_s",
    "solver": "solver.self_s",
    "solverc.compile": "solverc.compile_self_s",
    "sim": "sim.self_s",
    "state.fingerprint": "state.fingerprint_self_s",
    "tree": "tree.self_s",
    "coverage": "coverage.self_s",
    "store.load": "store.load_s",
    "store.save": "store.save_s",
    "fuzz.mutate": "fuzz.mutate_self_s",
    "fuzz.corpus": "fuzz.corpus_self_s",
    "provenance": "provenance.self_s",
}

#: (layer, module, owner, attribute): the entry points the traced run
#: wraps.  ``owner`` is a class name, or ``None`` for a module-level
#: function (patched in the module that looks the name up).  Coverage
#: *recording* happens inside simulation steps and is charged to ``sim``;
#: ``coverage`` is the collector's query API.  Callbacks the generators
#: pass into ``Simulator.run_sequence`` run inside the ``sim`` frame, so
#: their own bodies are charged to ``sim`` too, while the layer calls they
#: make (tree growth, provenance) are charged to their layers.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("core", "repro.core.stcg", "StcgGenerator", "run"),
    ("core", "repro.fuzz.engine", "FuzzGenerator", "run"),
    ("encoder", "repro.solver.encoder", "OneStepEncoding", "__init__"),
    ("encoder", "repro.solver.encoder", "OneStepEncoding", "path_constraint"),
    ("encoder", "repro.solver.encoder", "OneStepEncoding",
     "obligation_constraint"),
    ("cache", "repro.cache.solve", "SolveCache", "encoding"),
    ("cache", "repro.cache.solve", "SolveCache", "compiled_constraint"),
    ("cache", "repro.cache.solve", "SolveCache", "dead_verdict"),
    ("cache", "repro.cache.solve", "SolveCache", "mark_dead"),
    ("solver", "repro.solver.engine", "SolverEngine", "solve"),
    ("solverc.compile", "repro.solverc.compiler", "ConstraintCompiler",
     "compile"),
    ("sim", "repro.model.simulator", "Simulator", "run_sequence"),
    ("sim", "repro.model.simulator", "Simulator", "step"),
    ("sim", "repro.model.simulator", "Simulator", "reset"),
    ("sim", "repro.model.simulator", "Simulator", "get_state"),
    ("sim", "repro.model.simulator", "Simulator", "set_state"),
    ("state.fingerprint", "repro.model.state", "ModelState", "fingerprint"),
    ("tree", "repro.core.state_tree", "StateTree", "add_child"),
    ("tree", "repro.core.state_tree", "StateTree", "solve_nodes"),
    ("tree", "repro.core.state_tree", "StateTree", "random_node"),
    ("tree", "repro.core.state_tree", "StateTree", "unique_states"),
    ("coverage", "repro.coverage.collector", "CoverageCollector",
     "is_branch_covered"),
    ("coverage", "repro.coverage.collector", "CoverageCollector",
     "uncovered_branches"),
    ("coverage", "repro.coverage.collector", "CoverageCollector",
     "all_condition_obligations"),
    ("coverage", "repro.coverage.collector", "CoverageCollector",
     "is_obligation_satisfied"),
    ("coverage", "repro.coverage.collector", "CoverageCollector",
     "unsatisfied_condition_obligations"),
    ("coverage", "repro.coverage.collector", "CoverageCollector",
     "decision_coverage"),
    ("coverage", "repro.coverage.collector", "CoverageCollector",
     "condition_coverage"),
    ("coverage", "repro.coverage.collector", "CoverageCollector",
     "mcdc_coverage"),
    ("coverage", "repro.coverage.collector", "CoverageCollector", "summary"),
    ("store.load", "repro.store.store", "WarmStore", "load"),
    ("store.load", "repro.cache.solve", "SolveCache", "restore_folds"),
    ("store.save", "repro.store.store", "WarmStore", "save"),
    ("store.save", "repro.cache.solve", "SolveCache", "export_folds"),
    ("store.save", "repro.core.state_tree", "StateTree", "to_payload"),
    ("fuzz.mutate", "repro.fuzz.mutators", "SequenceMutator", "mutate"),
    ("fuzz.mutate", "repro.fuzz.engine", None, "random_sequence"),
    ("fuzz.mutate", "repro.fuzz.engine", None,
     "piecewise_constant_sequence"),
    ("fuzz.corpus", "repro.fuzz.corpus", "Corpus", "add_seed"),
    ("fuzz.corpus", "repro.fuzz.corpus", "Corpus", "consider"),
    ("fuzz.corpus", "repro.fuzz.corpus", "Corpus", "pick"),
    ("provenance", "repro.provenance.ledger", "ProvenanceLedger",
     "branch_objective"),
    ("provenance", "repro.provenance.ledger", "ProvenanceLedger",
     "obligation_objective"),
    ("provenance", "repro.provenance.ledger", "ProvenanceLedger",
     "begin_case"),
    ("provenance", "repro.provenance.ledger", "ProvenanceLedger",
     "cover_branch"),
    ("provenance", "repro.provenance.ledger", "ProvenanceLedger",
     "cover_obligation"),
    ("provenance", "repro.provenance.ledger", "ProvenanceLedger", "end_case"),
    ("provenance", "repro.provenance.ledger", "ProvenanceLedger", "attempt"),
    ("provenance", "repro.provenance.ledger", "ProvenanceLedger", "skip"),
    ("provenance", "repro.provenance.ledger", "ProvenanceLedger", "snapshot"),
)


class SelfTimer:
    """Exclusive time and call counts per layer over nested frames."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        #: One ``[child_seconds]`` cell per open frame, innermost last.
        self._stack: List[List[float]] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: Free-form counters the observers below add to.
        self.counts: Dict[str, float] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def snapshot(self) -> Dict[str, float]:
        """Current self-time totals (copy), for per-cell deltas."""
        return dict(self.self_s)

    def timed(
        self,
        layer: str,
        fn: Callable,
        observe: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped in a frame charged to ``layer``.

        ``observe(args, result)`` runs inside the frame after a normal
        return, so the cost of observing lands on the observed layer.
        """
        clock = self._clock
        stack = self._stack
        totals = self.self_s
        calls = self.calls
        totals.setdefault(layer, 0.0)
        calls.setdefault(layer, 0)

        @functools.wraps(fn)
        def frame(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                totals[layer] += elapsed - cell[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed

        return frame


# -- observers: counts read where the work happens -----------------------
#
# Each takes (timer, args of the wrapped call, its result).


def _observe_solve(timer: SelfTimer, args, result) -> None:
    status = getattr(result.status, "value", str(result.status))
    timer.count(f"solver.{status}")
    for stage, seconds in result.stats.stage_times.items():
        timer.count(f"solver.stage.{stage}_s", seconds)


def _observe_load(timer: SelfTimer, args, result) -> None:
    _payload, status = result
    timer.count("store.reads")
    if status == "hit":
        timer.count("store.hits")
        timer.count("store.bytes", _size(args[0].path))


def _observe_save(timer: SelfTimer, args, result) -> None:
    if result:
        timer.count("store.writes")
        timer.count("store.bytes", _size(args[0].path))


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


_OBSERVERS = {
    ("OneStepEncoding", "__init__"):
        lambda timer, args, result: timer.count("encoder.builds"),
    ("SolverEngine", "solve"): _observe_solve,
    ("Simulator", "run_sequence"):
        lambda timer, args, result: timer.count("sim.steps", result.steps),
    ("Simulator", "step"):
        lambda timer, args, result: timer.count("sim.steps"),
    ("WarmStore", "load"): _observe_load,
    ("WarmStore", "save"): _observe_save,
}


class Installation:
    """The wrappers in place; :meth:`uninstall` restores every original."""

    def __init__(self) -> None:
        #: (owner object, attribute, original).
        self.patches: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def uninstall(self) -> None:
        while self.patches:
            owner, attribute, original = self.patches.pop()
            setattr(owner, attribute, original)


def install(timer: SelfTimer) -> Installation:
    """Wrap every entry point in :data:`ENTRY_POINTS` with ``timer``.

    An entry point the program no longer has is skipped, named on stderr
    and listed in ``missing``; its time would be charged to the calling
    layer, so a traced run with a missing entry point is not correct.
    """
    done = Installation()
    try:
        for layer, module_name, owner_name, attribute in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = (
                module if owner_name is None
                else getattr(module, owner_name, None)
            )
            original = (
                vars(owner).get(attribute) if owner is not None else None
            )
            if not callable(original):
                where = f"{module_name}.{owner_name or ''}.{attribute}"
                done.missing.append(where)
                continue
            observe = _OBSERVERS.get((owner_name, attribute))
            if observe is not None:
                observe = functools.partial(observe, timer)
            wrapped = timer.timed(layer, original, observe)
            done.patches.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)
    except BaseException:
        done.uninstall()
        raise
    for where in done.missing:
        print(f"perfbench: entry point {where} not found; not traced",
              file=sys.stderr)
    return done
