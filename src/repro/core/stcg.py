"""The STCG generator: Algorithms 1 and 2 plus the outer iteration loop.

The structure follows the paper's Figure 2 exactly:

* **state-aware solving** (:meth:`StcgGenerator._state_aware_solve`,
  Algorithm 1) walks branches sorted by depth and the state tree, solves
  one model iteration with the node's state substituted as constants, and
  returns the first (state, branch, input) it can satisfy;
* **dynamic execution** (:meth:`StcgGenerator._dynamic_execute`,
  Algorithm 2) replays the solved input from the target state — or, when
  nothing was solvable, a random sequence of previously solved inputs from
  a random node — growing the state tree and synthesizing a test case
  whenever new coverage appears.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cache.solve import CACHEABLE_UNSAT_STAGES, SolveCache
from repro.coverage.collector import CoverageCollector
from repro.coverage.registry import Branch
from repro.core.config import StcgConfig
from repro.core.input_library import InputLibrary
from repro.core.result import (
    GenerationResult,
    ORIGIN_RANDOM,
    ORIGIN_SOLVER,
    TimelineEvent,
)
from repro.core.state_tree import StateTree, StateTreeNode
from repro.core.testcase import TestCase, TestSuite
from repro.expr.ast import Const
from repro.metrics import (
    CASE_LENGTH_BOUNDS,
    MetricsRegistry,
    declare_instruments,
    record_totals,
)
from repro.model.graph import CompiledModel
from repro.model.inputs import random_input
from repro.model.simulator import Simulator
from repro.obs.probe import PROBE
from repro.obs.tracer import (
    NULL_TRACER,
    PhaseProfiler,
    Tracer,
    trace_aggregates,
)
from repro.provenance import NULL_LEDGER, ProvenanceLedger
from repro.solver.encoder import OneStepEncoding
from repro.solver.engine import SolverConfig, SolverEngine, Status
from repro.solverc.compiler import ConstraintCompiler


@dataclass
class TraceEntry:
    """One recorded event of the generation process (Table I rows)."""

    kind: str  # solve_ok | solve_fail | random | exec
    branch_label: Optional[str] = None
    node_id: Optional[int] = None
    new_node_ids: Tuple[int, ...] = ()
    achieved_branches: Tuple[int, ...] = ()


@dataclass
class SolveTarget:
    """Algorithm 1's output triple.

    ``branch`` is ``None`` when the target is a condition/MCDC obligation
    rather than a model branch.
    """

    node: StateTreeNode
    branch: Optional[Branch]
    input_data: Dict[str, object]


class StcgGenerator:
    """State-aware test case generation for one compiled model."""

    def __init__(
        self,
        compiled: CompiledModel,
        config: Optional[StcgConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        tracer: Optional[Tracer] = None,
        cache: Optional[SolveCache] = None,
    ):
        self.compiled = compiled
        self.config = config or StcgConfig()
        self._clock = clock
        #: Fingerprint-keyed encoding/verdict caches.  Private per
        #: generator by default; pass a shared instance to reuse learned
        #: encodings and dead verdicts across runs of the same model.
        if cache is not None:
            self.cache = cache
        else:
            self.cache = SolveCache(
                compiled.name,
                encoding_capacity=self.config.caches.encoding_size,
                compiled_capacity=self.config.caches.compiled_size,
                verdicts=self.config.caches.verdicts,
            )
        #: Observability hook.  An explicit ``tracer`` wins; otherwise
        #: ``config.trace`` turns on an aggregating profiler; the default
        #: no-op tracer keeps every hook below the noise floor.
        if tracer is not None:
            self.tracer = tracer
        elif self.config.trace:
            self.tracer = PhaseProfiler(clock=time.monotonic)
        else:
            self.tracer = NULL_TRACER
        #: The run's metrics registry (``repro.metrics/1``), the one
        #: counter store: the engines, the compiler and the simulator
        #: count into it live, the run's totals fold in at the end, and
        #: the snapshot rides on the result whether or not it is traced.
        #: Stage wall-clock gauges are recorded only while tracing.
        timed = self.tracer.enabled
        self.metrics = declare_instruments(MetricsRegistry(), timed=timed)
        self._case_hist = self.metrics.histogram(
            "stcg.case_length", CASE_LENGTH_BOUNDS
        )
        self._rng = random.Random(self.config.seed)
        kernel = self.config.kernels.solver
        self._engine = SolverEngine(
            self.config.solver, self.metrics, timed=timed, kernel=kernel
        )
        lite = SolverConfig(
            max_samples=12,
            avm_evaluations=80,
            time_budget_s=min(0.03, self.config.solver.time_budget_s),
            seed=self.config.seed,
        )
        self._lite_engine = SolverEngine(
            lite, self.metrics, timed=timed, kernel=kernel
        )
        #: Solver-kernel compiler (:mod:`repro.solverc`), or None when
        #: ``config.kernels.solver`` is off.  Compiled bundles are cached
        #: in :attr:`cache` keyed by (state fingerprint, target), and the
        #: engine falls back to the interpreter per stage for anything
        #: the compiler could not lower — results are bit-identical
        #: either way.
        self._compiler: Optional[ConstraintCompiler] = (
            ConstraintCompiler(self.metrics)
            if self.config.kernels.solver else None
        )
        #: Failed solver attempts per target (branch id / obligation).
        self._failures: Dict[object, int] = {}
        #: Algorithm 1's scan position per target key: the index of the
        #: target's first solve node not known to be solved (see
        #: :meth:`_unsolved_nodes`).
        self._frontier: Dict[object, int] = {}
        self.collector = CoverageCollector(compiled.registry)
        #: Objective-level coverage provenance (``repro.provenance/1``).
        #: Pure observation — never feeds back into the algorithm.
        self.ledger = (
            ProvenanceLedger(compiled.registry, "STCG")
            if self.config.provenance else NULL_LEDGER
        )
        self.simulator = Simulator(
            compiled,
            self.collector,
            tracer=self.tracer,
            kernel=self.config.kernels.sim,
            registry=self.metrics,
        )
        self.tree = StateTree(
            self.simulator.get_state(), dedup=self.config.caches.tree_dedup
        )
        self.library = InputLibrary()
        self.suite = TestSuite(
            compiled.name, [spec.name for spec in compiled.inports]
        )
        self.timeline: List[TimelineEvent] = []
        self.stats: Dict[str, int] = {
            "solver_calls": 0,
            "sat": 0,
            "unsat": 0,
            "unknown": 0,
            "const_false_skips": 0,
            "verdict_skips": 0,
            "random_sequences": 0,
            "steps_executed": 0,
            "warmup_steps": 0,
        }
        self._start = 0.0
        self._branches = compiled.registry.branches_by_depth()
        #: Branch ids proven unreachable by abstract interpretation.
        self.proven_dead: set = set()
        if self.config.prove_dead_branches:
            from repro.analysis import find_dead_branches

            self.proven_dead = {
                b.branch_id for b in find_dead_branches(compiled)
            }
        self.stats["proven_dead"] = len(self.proven_dead)
        #: Persistent cross-run warm-start store (:mod:`repro.store`),
        #: or None when ``config.store`` is unset.  Scoped per cell
        #: (tool + seed) so matrix workers never share a file; the fuzz
        #: generators re-scope it before first use.
        self.store = None
        if self.config.store is not None:
            from repro.store import WarmStore

            self.store = WarmStore(
                self.config.store,
                compiled,
                self.config,
                scope=f"STCG|seed={self.config.seed}",
            )
            self.stats.update(
                store_reads=0,
                store_hits=0,
                store_misses=0,
                store_rejected=0,
                store_writes=0,
                restored_verdicts=0,
                restored_markers=0,
                restored_snapshots=0,
                restored_encodings=0,
                corpus_seeds=0,
            )
        #: Derived-state sizes right after a successful warm-start
        #: restore — the skip-save fingerprint (see :meth:`_store_save`).
        self._store_snapshot: Optional[tuple] = None
        #: Whether this run's ``encoder.*`` counts are in the registry.
        self._encoder_counted = False
        #: Process trace (populated when config.record_trace is on).
        self.trace: List[TraceEntry] = []

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------

    def run(self) -> GenerationResult:
        """Generate test cases until the budget expires or coverage is full."""
        self._store_load()
        self._start = self._clock()
        tracer = self.tracer
        probe = PROBE
        if probe.enabled:
            # Publish progress for heartbeats: plain attribute writes that
            # never feed back into the algorithm (see repro.obs.probe).
            probe.note(coverage_fn=self.collector.decision_coverage)
        if self.config.random_warmup_s > 0:
            if probe.enabled:
                probe.note(phase="warmup")
            with tracer.span("warmup"):
                self._random_warmup()
        while not self._done():
            if probe.enabled:
                probe.note(
                    phase="solve_scan",
                    tree_nodes=len(self.tree),
                    solver_calls=self.stats["solver_calls"],
                )
            with tracer.span("solve_scan"):
                target = self._state_aware_solve()
            if self._out_of_time():
                break
            if probe.enabled:
                probe.note(
                    phase="execute",
                    solver_calls=self.stats["solver_calls"],
                )
            with tracer.span("execute"):
                self._dynamic_execute(target)
            if target is None:
                # Nothing was solvable anywhere: bias toward exploration for
                # a few rounds before paying for another full solve scan.
                for _ in range(self.config.random_batch - 1):
                    if self._done():
                        break
                    with tracer.span("execute"):
                        self._dynamic_execute(None)
            if tracer.enabled:
                tracer.sample("tree_nodes", self._elapsed(), len(self.tree))
        self._store_save()
        return GenerationResult(
            tool="STCG",
            model_name=self.compiled.name,
            summary=self.collector.summary(),
            suite=self.suite,
            timeline=list(self.timeline),
            stats={**self.stats, "tree_nodes": len(self.tree)},
            trace_data=trace_aggregates(self.tracer),
            metrics=self._metrics_snapshot(),
            provenance=self.ledger.snapshot(),
        )

    def _metrics_snapshot(self) -> Dict[str, object]:
        """Fold the run's totals into the registry and snapshot it (once)."""
        record_totals(
            self.metrics, self.stats, cache=self.cache.stats(), tree=self.tree
        )
        return self.metrics.snapshot()

    # ------------------------------------------------------------------
    # Algorithm 1: state-aware solving
    # ------------------------------------------------------------------

    def _state_aware_solve(self) -> Optional[SolveTarget]:
        for branch in self._branches:
            if self.collector.is_branch_covered(branch):
                continue
            branch_id = branch.branch_id
            if branch_id in self.proven_dead:
                continue
            for node in self._unsolved_nodes(
                ("branch", branch_id),
                lambda node: branch_id in node.solved_branches,
            ):
                if self._out_of_time():
                    return None
                target = self._solve_pair(node, branch)
                if target is not None:
                    return target
        # Branch obligations exhausted for now; work on condition / MCDC
        # obligations ("all the coverage requirements" of the paper).
        for obligation in self.collector.unsatisfied_condition_obligations():
            for node in self._unsolved_nodes(
                ("obligation", obligation),
                lambda node: obligation in node.solved_obligations,
            ):
                if self._out_of_time():
                    return None
                target = self._solve_obligation(node, obligation)
                if target is not None:
                    return target
        return None

    def _unsolved_nodes(self, target_key, is_solved):
        """The solve nodes not yet solved for ``target_key``, in order.

        Resumes from the target's frontier: the position of its first
        node not known to be solved.  Solve nodes are append-only and
        solved sets only grow, so every node before the frontier is still
        solved and a rescan from node 0 would skip exactly those nodes.
        The frontier parks on each node it yields, so a caller that stops
        before attempting it (out of time) finds it again next scan; an
        attempt marks the node solved, and the walk then moves past it.
        """
        frontier = self._frontier
        position = frontier.get(target_key, 0)
        for node in self.tree.solve_nodes(position):
            if not is_solved(node):
                frontier[target_key] = position
                yield node
            position += 1
        frontier[target_key] = position

    def _solve_pair(
        self, node: StateTreeNode, branch: Branch
    ) -> Optional[SolveTarget]:
        """One solver attempt for (state, branch); marks the pair attempted."""
        target_key = ("branch", branch.branch_id)
        ledger = self.ledger
        objective = ledger.branch_objective(branch) if ledger.enabled else None
        node.set_solved(branch.branch_id)
        if self._skip_dead(node, target_key, branch.label, objective):
            return None
        encoding = self._encoding(node)
        constraint = encoding.path_constraint(branch)
        fingerprint = node.state.fingerprint()
        if (
            self.config.skip_constant_false
            and isinstance(constraint, Const)
            and constraint.value is False
        ):
            # The branch is unreachable from this state regardless of input
            # (e.g. a transition whose source state is inactive).  The skip
            # never counted toward failure backoff, so a cached replay of
            # it must not either.
            self.stats["const_false_skips"] += 1
            self.cache.mark_dead(fingerprint, target_key, counts_failure=False)
            if ledger.enabled:
                ledger.skip(objective, "const_false")
            if self.config.record_trace:
                self.trace.append(
                    TraceEntry("solve_fail", branch.label, node.node_id)
                )
            return None
        self.stats["solver_calls"] += 1
        engine = self._engine_for(target_key)
        compiled = self._compiled_for(
            fingerprint, target_key, constraint, encoding
        )
        with self.tracer.span("solve", target=branch.label):
            result = engine.solve(
                constraint, encoding.variables, self._rng, compiled=compiled
            )
        self.stats[result.status.value] += 1
        if ledger.enabled:
            ledger.attempt(
                objective,
                node.node_id,
                result.status.value,
                result.stats.stage,
                "lite" if engine is self._lite_engine else "full",
                result.stats.compiled,
            )
        self._note_outcome(target_key, result.status is Status.SAT)
        if result.status is not Status.SAT:
            if (
                result.status is Status.UNSAT
                and result.stats.stage in CACHEABLE_UNSAT_STAGES
            ):
                self.cache.mark_dead(
                    fingerprint, target_key, counts_failure=True
                )
            if self.config.record_trace:
                self.trace.append(
                    TraceEntry("solve_fail", branch.label, node.node_id)
                )
            return None
        assert result.model is not None
        self.library.add(result.model)
        if self.config.record_trace:
            self.trace.append(TraceEntry("solve_ok", branch.label, node.node_id))
        return SolveTarget(node, branch, result.model)

    def _solve_obligation(self, node: StateTreeNode, obligation) -> Optional[SolveTarget]:
        """One solver attempt for (state, condition obligation)."""
        target_key = ("obligation", obligation)
        ledger = self.ledger
        objective = (
            ledger.obligation_objective(obligation) if ledger.enabled else None
        )
        node.solved_obligations.add(obligation)
        if self._skip_dead(node, target_key, None, objective):
            return None
        encoding = self._encoding(node)
        constraint = encoding.obligation_constraint(obligation)
        fingerprint = node.state.fingerprint()
        if (
            self.config.skip_constant_false
            and isinstance(constraint, Const)
            and constraint.value is False
        ):
            self.stats["const_false_skips"] += 1
            self.cache.mark_dead(fingerprint, target_key, counts_failure=False)
            if ledger.enabled:
                ledger.skip(objective, "const_false")
            return None
        self.stats["solver_calls"] += 1
        engine = self._engine_for(target_key)
        compiled = self._compiled_for(
            fingerprint, target_key, constraint, encoding
        )
        with self.tracer.span("solve", target=repr(obligation)):
            result = engine.solve(
                constraint, encoding.variables, self._rng, compiled=compiled
            )
        self.stats[result.status.value] += 1
        if ledger.enabled:
            ledger.attempt(
                objective,
                node.node_id,
                result.status.value,
                result.stats.stage,
                "lite" if engine is self._lite_engine else "full",
                result.stats.compiled,
            )
        self._note_outcome(target_key, result.status is Status.SAT)
        if result.status is not Status.SAT:
            if (
                result.status is Status.UNSAT
                and result.stats.stage in CACHEABLE_UNSAT_STAGES
            ):
                self.cache.mark_dead(
                    fingerprint, target_key, counts_failure=True
                )
            return None
        assert result.model is not None
        self.library.add(result.model)
        return SolveTarget(node, None, result.model)

    def _skip_dead(
        self,
        node: StateTreeNode,
        target_key,
        branch_label: Optional[str],
        objective: Optional[str] = None,
    ) -> bool:
        """Skip a (state, target) pair the cache knows is dead.

        The skip replicates everything the refuted attempt would have done
        to generator state: failure backoff advances iff the original
        refutation counted as a solver failure, and the process trace gets
        the same ``solve_fail`` row.  No RNG is consumed either way (the
        cached stages are draw-free), so a warm run stays bit-identical.
        """
        counts_failure = self.cache.dead_verdict(
            node.state.fingerprint(), target_key
        )
        if counts_failure is None:
            return False
        self.stats["verdict_skips"] += 1
        if objective is not None and self.ledger.enabled:
            self.ledger.skip(objective, "verdict")
        if counts_failure:
            self._note_outcome(target_key, False)
        if self.config.record_trace:
            self.trace.append(
                TraceEntry("solve_fail", branch_label, node.node_id)
            )
        return True

    def _compiled_for(self, fingerprint, target_key, constraint, encoding):
        """The cached solver-kernel bundle for this solve, or None.

        The one-step constraint is a pure function of (model, state
        fingerprint, target), so the compiled artifacts — and the
        contraction result they memoize — replay exactly on a repeat
        visit of the same (state, target) cell.  First visits return
        None: most pairs are solved exactly once, so they get no bundle,
        and the kernel engine compiles just the scalar objective of a
        solve that passes contraction.  ``contractor=False`` because the
        bundle's contraction *snapshot* — recorded on the interpreted
        first use — already covers every later visit.
        """
        if self._compiler is None:
            return None
        return self.cache.compiled_constraint(
            fingerprint,
            target_key,
            lambda: self._compiler.compile(
                constraint, encoding.variables, contractor=False
            ),
        )

    def _engine_for(self, target_key) -> SolverEngine:
        """Full-budget engine until a target has failed often; lite after."""
        failures = self._failures.get(target_key, 0)
        if failures >= self.config.failure_backoff_after:
            return self._lite_engine
        return self._engine

    def _note_outcome(self, target_key, sat: bool) -> None:
        if sat:
            self._failures.pop(target_key, None)
        else:
            self._failures[target_key] = self._failures.get(target_key, 0) + 1

    def _encoding(self, node: StateTreeNode) -> OneStepEncoding:
        with self.tracer.span("encode"):
            return self.cache.encoding(
                node.state.fingerprint(), lambda: self._encode(node.state)
            )

    def _encode(self, state) -> OneStepEncoding:
        """Build one encoding.  The run's first build adds the encoder
        kernel's compile-time ``encoder.*`` counts to the registry, as
        constructing the simulator does for ``kernel.*``."""
        encoding = OneStepEncoding(self.compiled, state)
        if not self._encoder_counted:
            self._encoder_counted = True
            self.compiled.symbolic_kernel.count_into(self.metrics)
        return encoding

    # ------------------------------------------------------------------
    # Algorithm 2: dynamic execution
    # ------------------------------------------------------------------

    def _dynamic_execute(self, target: Optional[SolveTarget]) -> Optional[TestCase]:
        if target is not None:
            start = target.node
            sequence = [target.input_data]
            origin = ORIGIN_SOLVER
        else:
            start = self.tree.random_node(self._rng)
            sequence = self._random_sequence()
            origin = ORIGIN_RANDOM
            self.stats["random_sequences"] += 1
        case, created_ids = self._execute_sequence(start, sequence, origin)
        if self.config.record_trace:
            self.trace.append(
                TraceEntry(
                    "random" if target is None else "exec",
                    target.branch.label
                    if target is not None and target.branch
                    else None,
                    (target.node.node_id if target is not None else None),
                    created_ids,
                    tuple(case.new_branch_ids) if case is not None else (),
                )
            )
        return case

    def _execute_sequence(
        self,
        start: StateTreeNode,
        sequence: List[Dict[str, object]],
        origin: str,
    ) -> Tuple[Optional[TestCase], Tuple[int, ...]]:
        """Algorithm 2's execution loop from a tree node.

        Children are appended to the state tree while it is below its size
        cap; past the cap the walk keeps executing (coverage still counts)
        without recording new nodes.  Returns the synthesized test case (or
        ``None`` when no new coverage appeared) plus the ids of the tree
        nodes the walk created.
        """
        self.simulator.set_state(start.get_state())
        current = [start]
        created_ids: List[int] = []
        ledger = self.ledger
        ledger.begin_case(origin)

        def on_step(index: int, new_branch_ids: Tuple[int, ...], _found: bool):
            self.stats["steps_executed"] += 1
            if ledger.enabled:
                for branch_id in new_branch_ids:
                    ledger.cover_branch(branch_id, index + 1)
            if len(self.tree) < self.config.max_tree_nodes:
                child = self.tree.add_child(
                    current[0], self.simulator.get_state(), sequence[index]
                )
                child.covered_branches = set(new_branch_ids)
                created_ids.append(child.node_id)
                current[0] = child

        on_obligations = None
        if ledger.enabled:
            def on_obligations(index: int, new_obligations: List[object]):
                for obligation in new_obligations:
                    ledger.cover_obligation(obligation, index + 1)

        outcome = self.simulator.run_sequence(
            sequence, on_step=on_step, on_obligations=on_obligations
        )
        if outcome.last_covering_step == 0:
            ledger.end_case(None)
            return None, tuple(created_ids)
        executed = [
            dict(step_input)
            for step_input in sequence[: outcome.last_covering_step]
        ]
        case = TestCase(
            inputs=start.path_inputs() + executed,
            origin=origin,
            new_branch_ids=list(outcome.new_branch_ids),
            timestamp=self._elapsed(),
        )
        self.suite.add(case)
        ledger.end_case(len(self.suite) - 1)
        self._case_hist.observe(float(len(executed)))
        self.timeline.append(
            TimelineEvent(
                t=case.timestamp,
                decision_coverage=self.collector.decision_coverage(),
                origin=origin,
                new_branches=len(outcome.new_branch_ids),
            )
        )
        return case, tuple(created_ids)

    def _random_sequence(self) -> List[Dict[str, object]]:
        length = self.config.random_sequence_length
        mix = 1.0 if self.config.fresh_random_inputs else self.config.fresh_input_mix
        sequence: List[Dict[str, object]] = []
        for _ in range(length):
            if self.library.is_empty or self._rng.random() < mix:
                sequence.append(random_input(self.compiled.inports, self._rng))
            else:
                sequence.append(self.library.random_input(self._rng))
        return sequence

    # ------------------------------------------------------------------
    # hybrid warm-up (Discussion-section variant)
    # ------------------------------------------------------------------

    def _random_warmup(self) -> None:
        """Pure random exploration before any solving (hybrid mode)."""
        deadline = self._start + min(
            self.config.random_warmup_s, self.config.budget_s
        )
        while self._clock() < deadline and not self._fully_covered():
            start = self.tree.random_node(self._rng)
            sequence = [
                random_input(self.compiled.inports, self._rng)
                for _ in range(self.config.random_sequence_length)
            ]
            before = self.stats["steps_executed"]
            self._execute_sequence(start, sequence, ORIGIN_RANDOM)
            self.stats["warmup_steps"] += self.stats["steps_executed"] - before

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    # -- warm-start store ----------------------------------------------

    def _store_load(self) -> Optional[Dict[str, object]]:
        """Warm-start from the store; returns the raw payload (or None).

        Runs before the budget clock starts.  Only the solve-cache folds
        are restored into the live run — they are observationally
        transparent, so the warm run stays bit-identical to a cold one.
        The full payload is returned for consumers with their own reuse
        story (the fuzz generators seed their corpus from it).  Any
        problem — missing file, digest mismatch, malformed folds —
        degrades to a cold start and counts ``store_rejected``; a store
        must never take a run down.
        """
        if self.store is None or not self.config.store.read:
            return None
        self.stats["store_reads"] += 1
        payload, status = self.store.load()
        if status != "hit":
            self.stats[
                "store_misses" if status == "miss" else "store_rejected"
            ] += 1
            return None
        folds = payload.get("cache")
        if folds is not None:
            try:
                counts = self.cache.restore_folds(folds, self.compiled)
            except Exception:
                # restore_folds stages all decodes before applying, so
                # the cache is untouched here — the run is simply cold.
                self.stats["store_rejected"] += 1
                return None
            self.stats["restored_verdicts"] += counts["verdicts"]
            self.stats["restored_markers"] += counts["markers"]
            self.stats["restored_snapshots"] += counts["snapshots"]
            self.stats["restored_encodings"] += counts["encodings"]
        self.stats["store_hits"] += 1
        tree_payload = payload.get("tree")
        self._store_snapshot = (
            self.cache.verdict_entries,
            len(self.cache.encodings),
            len(self.cache.compiled),
            len(tree_payload["nodes"])
            if isinstance(tree_payload, dict)
            and isinstance(tree_payload.get("nodes"), list)
            else -1,
        )
        return payload

    def _store_save(self, extra: Optional[Dict[str, object]] = None) -> None:
        """Persist this run's derived state; best-effort, never raises.

        A warm run that learned nothing — same verdict/encoding/compiled
        counts and tree size as right after the restore, which a
        bit-identical equal-budget rerun always hits — skips the write:
        the stored document is already the fixed point, and skipping
        keeps the warm path's end-to-end cost at load + solve.  Runs
        with ``extra`` payloads (the fuzz corpus) always write.
        """
        if self.store is None or not self.config.store.write:
            return
        if extra is None and self._store_snapshot == (
            self.cache.verdict_entries,
            len(self.cache.encodings),
            len(self.cache.compiled),
            len(self.tree),
        ):
            return
        try:
            payload: Dict[str, object] = {
                "tree": self.tree.to_payload(),
                "cache": self.cache.export_folds(),
            }
            if extra:
                payload.update(extra)
            if self.store.save(payload):
                self.stats["store_writes"] += 1
        except Exception:
            pass

    def _elapsed(self) -> float:
        return self._clock() - self._start

    def _out_of_time(self) -> bool:
        return self._elapsed() >= self.config.budget_s

    def _fully_covered(self) -> bool:
        remaining = [
            b for b in self.collector.uncovered_branches()
            if b.branch_id not in self.proven_dead
        ]
        return not remaining and not (
            self.collector.unsatisfied_condition_obligations()
        )

    def _done(self) -> bool:
        if self._out_of_time():
            return True
        return self.config.stop_on_full_coverage and self._fully_covered()


def generate(compiled: CompiledModel, config: Optional[StcgConfig] = None):
    """Convenience wrapper: run STCG on a compiled model."""
    return StcgGenerator(compiled, config).run()
