"""The solving pipeline: fold → contract → sample → AVM.

:class:`SolverEngine` is the "constraint solver" STCG calls in Algorithm 1
line 10.  It is budgeted: a call that exhausts its budget returns
``UNKNOWN``, which the caller treats exactly like the paper treats a solver
timeout (try another state / branch).
"""

from __future__ import annotations

import enum
import random
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.errors import SolverError
from repro.expr.ast import Const, Expr, Var
from repro.expr.distance import DistanceEvaluator
from repro.expr.evaluator import evaluate
from repro.expr.nnf import to_nnf
from repro.expr.types import BOOL, INT
from repro.metrics import MetricsRegistry
from repro.obs.stages import canonical_stage, stage_recorder
from repro.solver.avm import AvmSearch
from repro.solver.box import Box
from repro.solver.contractor import Contractor
from repro.solver.sampler import corner_points, sample_point
from repro.solver.splitter import split_cases
from repro.solverc.compiler import (
    CompiledConstraint,
    scalar_objective,
    solverc_counters,
)


class Status(enum.Enum):
    """Outcome of a solver call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolverConfig:
    """Budgets and knobs for a :class:`SolverEngine`.

    ``max_samples`` random points are tried after contraction before the AVM
    stage spends up to ``avm_evaluations`` objective evaluations.
    ``time_budget_s`` bounds one ``solve`` call end to end.
    """

    max_samples: int = 64
    avm_evaluations: int = 1500
    time_budget_s: float = 0.5
    seed: int = 0


@dataclass
class SolveStats:
    """Bookkeeping for one solver call.

    ``stage`` is the fine tag of the stage that produced the verdict;
    ``stage_times`` holds wall-clock seconds per *canonical* stage the call
    passed through (see :mod:`repro.obs.stages`).  ``compiled`` is whether
    a compiled distance objective (scalar closure or batch tape) scored
    the call's candidates — false for a call that ended at contraction.
    """

    status: Status = Status.UNKNOWN
    stage: str = ""
    compiled: bool = False
    samples: int = 0
    avm_evaluations: int = 0
    elapsed_s: float = 0.0
    stage_times: Dict[str, float] = field(default_factory=dict)


@dataclass
class SolveResult:
    """A solver verdict plus (for SAT) a complete input assignment."""

    status: Status
    model: Optional[Dict[str, object]] = None
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def is_sat(self) -> bool:
        return self.status is Status.SAT


class SolverEngine:
    """Budgeted constraint solver over the expression IR.

    Every finished call counts into ``registry`` (a private one when none
    is given): the ``solver.stage.*`` counters, plus compiled-vs-fallback
    ``solverc.*`` traffic: a bundle's stages when callers pass
    ``compiled=`` bundles, and every AVM descent of a ``kernel`` engine.
    ``timed`` also records per-stage wall-clock seconds (traced runs).

    ``kernel`` (the generator's ``kernels.solver``) makes a call without
    a bundle compile its scalar distance objective once contraction has
    passed.  Off, such a call is the pure interpreter: it compiles and
    counts nothing, which is what makes it the reference.
    """

    def __init__(
        self,
        config: Optional[SolverConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        *,
        timed: bool = False,
        kernel: bool = False,
    ):
        self.config = config or SolverConfig()
        self._rng = random.Random(self.config.seed)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._record = stage_recorder(self.registry, timed=timed)
        self._solverc = solverc_counters(self.registry)
        self._kernel = kernel

    def solve(
        self,
        constraint: Expr,
        variables: Iterable[Var],
        rng: Optional[random.Random] = None,
        compiled: Optional[CompiledConstraint] = None,
    ) -> SolveResult:
        """Find values for ``variables`` satisfying ``constraint``.

        ``variables`` must cover every free variable of the constraint; extra
        variables are given arbitrary in-domain values so the returned model
        is always a *complete* input assignment.

        ``compiled`` (a :class:`~repro.solverc.CompiledConstraint` for this
        exact constraint) lets the stages run their kernel forms — compiled
        contraction, batched candidate scoring, compiled AVM objective —
        with per-stage fallback to the interpreter.  Without one, a
        ``kernel`` engine contracts through the interpreter and compiles
        only the scalar objective, and only once contraction has passed.
        Results are bit-identical either way; only speed changes.
        """
        if not constraint.ty.is_bool:
            raise SolverError(f"constraint must be boolean, got {constraint.ty!r}")
        rng = rng or self._rng
        started = time.monotonic()
        stats = SolveStats()
        var_list = _dedupe(variables)

        def out_of_time() -> bool:
            return time.monotonic() - started > self.config.time_budget_s

        last_mark = started

        def mark(stage: str) -> None:
            """Attribute the time since the previous mark to ``stage``."""
            nonlocal last_mark
            now = time.monotonic()
            stats.stage_times[stage] = (
                stats.stage_times.get(stage, 0.0) + (now - last_mark)
            )
            last_mark = now

        def finish(status: Status, model=None, stage: str = "") -> SolveResult:
            mark(canonical_stage(stage))
            stats.status = status
            stats.stage = stage
            stats.elapsed_s = time.monotonic() - started
            self._record(stats)
            return SolveResult(status, model, stats)

        # Stage 0: constant constraint.
        if isinstance(constraint, Const):
            if constraint.value:
                box = Box(var_list)
                return finish(
                    Status.SAT, self._certify(constraint, {}, box), "fold"
                )
            return finish(Status.UNSAT, stage="fold")

        # Stage 1: interval contraction.
        box = Box(var_list)
        feasible = self._contract(constraint, box, compiled)
        if not feasible:
            return finish(Status.UNSAT, stage="contract")
        mark("contract")

        scalar = None
        batch = None
        if compiled is not None:
            nnf = compiled.nnf()
            scalar = compiled.objective()
            batch = compiled.batch()
        else:
            nnf = to_nnf(constraint)
            if self._kernel:
                scalar = scalar_objective(nnf, self._solverc)
        stats.compiled = scalar is not None or batch is not None
        if scalar is not None:
            objective = scalar
        else:
            objective = DistanceEvaluator(nnf).distance

        # Stage 2: deterministic corners then random samples inside the box.
        best_env: Optional[Dict[str, object]] = None
        best_dist = float("inf")
        corners = corner_points(box)
        if batch is not None:
            best_env, best_dist, hit = _batch_scan(
                batch, corners, best_env, best_dist
            )
            self._solverc["candidates_batched"].inc(len(corners))
            if hit is not None:
                stats.samples += hit + 1
                return finish(
                    Status.SAT,
                    self._certify(constraint, corners[hit], box),
                    "corner",
                )
            stats.samples += len(corners)
        else:
            if compiled is not None:
                self._solverc["candidates_scalar"].inc(len(corners))
            for candidate in corners:
                stats.samples += 1
                d = objective(candidate)
                if d < best_dist:
                    best_env, best_dist = candidate, d
                if d == 0.0:
                    return finish(
                        Status.SAT,
                        self._certify(constraint, candidate, box),
                        "corner",
                    )
        if batch is not None:
            # One chunk per stage: draw every candidate (identical RNG
            # stream), score them in one tape pass, and on a hit rewind
            # the RNG and re-draw exactly as many points as the scalar
            # loop would have consumed before returning.
            chunk_size = self.config.max_samples
            if chunk_size > 0:
                if out_of_time():
                    return finish(Status.UNKNOWN, stage="sample-timeout")
                state = rng.getstate()
                chunk = [
                    sample_point(box, rng) for _ in range(chunk_size)
                ]
                best_env, best_dist, hit = _batch_scan(
                    batch, chunk, best_env, best_dist
                )
                self._solverc["candidates_batched"].inc(chunk_size)
                if hit is not None:
                    rng.setstate(state)
                    for _ in range(hit + 1):
                        sample_point(box, rng)
                    stats.samples += hit + 1
                    return finish(
                        Status.SAT,
                        self._certify(constraint, chunk[hit], box),
                        "sample",
                    )
                stats.samples += chunk_size
        else:
            if compiled is not None:
                self._solverc["candidates_scalar"].inc(
                    self.config.max_samples
                )
            for _ in range(self.config.max_samples):
                if out_of_time():
                    return finish(Status.UNKNOWN, stage="sample-timeout")
                candidate = sample_point(box, rng)
                stats.samples += 1
                d = objective(candidate)
                if d < best_dist:
                    best_env, best_dist = candidate, d
                if d == 0.0:
                    return finish(
                        Status.SAT,
                        self._certify(constraint, candidate, box),
                        "sample",
                    )

        # Stage 3: disjunction splitting — contract and sample each OR case
        # separately.  Any satisfied case is SAT; all cases proven
        # inconsistent is UNSAT.
        mark("sample")
        if compiled is not None:
            compiled_cases = compiled.cases()
            cases = [entry.case for entry in compiled_cases]
        else:
            compiled_cases = None
            cases = split_cases(nnf)
        if len(cases) > 1:
            all_unsat = True
            per_case = max(4, self.config.max_samples // len(cases))
            for case_index, case in enumerate(cases):
                if out_of_time():
                    all_unsat = False
                    break
                case_box = Box(var_list)
                entry = (
                    compiled_cases[case_index]
                    if compiled_cases is not None
                    else None
                )
                if not self._contract(case, case_box, entry):
                    continue
                all_unsat = False
                case_batch = entry.batch() if entry is not None else None
                if case_batch is not None:
                    self._solverc["case_batched"].inc()
                    case_corners = corner_points(case_box)
                    if case_corners:
                        dists = case_batch.evaluate(case_corners)
                        self._solverc["candidates_batched"].inc(
                            len(case_corners)
                        )
                        hit = _first_zero(dists)
                        if hit is not None:
                            stats.samples += hit + 1
                            return finish(
                                Status.SAT,
                                self._certify(
                                    constraint, case_corners[hit], box
                                ),
                                "split-corner",
                            )
                        stats.samples += len(case_corners)
                    state = rng.getstate()
                    chunk = [
                        sample_point(case_box, rng)
                        for _ in range(per_case)
                    ]
                    dists = case_batch.evaluate(chunk)
                    self._solverc["candidates_batched"].inc(per_case)
                    hit = _first_zero(dists)
                    if hit is not None:
                        rng.setstate(state)
                        for _ in range(hit + 1):
                            sample_point(case_box, rng)
                        stats.samples += hit + 1
                        return finish(
                            Status.SAT,
                            self._certify(constraint, chunk[hit], box),
                            "split-sample",
                        )
                    stats.samples += per_case
                    if batch is not None:
                        best_env, best_dist = _batch_best(
                            batch, chunk, best_env, best_dist
                        )
                        self._solverc["candidates_batched"].inc(per_case)
                    else:
                        for candidate in chunk:
                            whole = objective(candidate)
                            if whole < best_dist:
                                best_env, best_dist = candidate, whole
                else:
                    if entry is not None:
                        self._solverc["case_interpreted"].inc()
                    case_distance = DistanceEvaluator(to_nnf(case))
                    for candidate in corner_points(case_box):
                        stats.samples += 1
                        if case_distance.distance(candidate) == 0.0:
                            return finish(
                                Status.SAT,
                                self._certify(constraint, candidate, box),
                                "split-corner",
                            )
                    for _ in range(per_case):
                        candidate = sample_point(case_box, rng)
                        stats.samples += 1
                        d = case_distance.distance(candidate)
                        if d == 0.0:
                            return finish(
                                Status.SAT,
                                self._certify(constraint, candidate, box),
                                "split-sample",
                            )
                        whole = objective(candidate)
                        if whole < best_dist:
                            best_env, best_dist = candidate, whole
            if all_unsat:
                return finish(Status.UNSAT, stage="split")
            mark("split")

        # Stage 4: AVM from the best point seen so far.
        if compiled is not None or self._kernel:
            self._solverc[
                "avm_compiled" if scalar is not None else "avm_interpreted"
            ].inc()
        search = AvmSearch(
            objective,
            box,
            rng,
            max_evaluations=self.config.avm_evaluations,
            deadline=out_of_time,
        )
        result = search.run(best_env)
        stats.avm_evaluations = result.evaluations
        if result.satisfied:
            return finish(Status.SAT, self._certify(constraint, result.env, box), "avm")
        return finish(Status.UNKNOWN, stage="avm")

    def _contract(self, constraint: Expr, box: Box, compiled) -> bool:
        """Contract ``box``, preferring the compiled contractor.

        ``compiled`` is a :class:`CompiledConstraint` or
        :class:`~repro.solverc.compiler.CompiledCase` (both carry a
        ``contractor`` and a ``contract_result`` cache) or None for the
        pure interpreter path.  Contraction is a pure function of the
        constraint and the freshly built box, so a cached (feasible,
        snapshot) pair replays the exact narrowing.
        """
        if compiled is None:
            return Contractor(constraint).contract(box)
        cached = compiled.contract_result
        if cached is not None:
            feasible, snapshot = cached
            box.restore(snapshot)
            self._solverc["contract_cached"].inc()
            return feasible
        if compiled.contractor is not None:
            feasible = compiled.contractor.contract(box)
            self._solverc["contract_compiled"].inc()
        else:
            feasible = Contractor(constraint).contract(box)
            self._solverc["contract_interpreted"].inc()
        compiled.contract_result = (feasible, box.snapshot())
        return feasible

    # ------------------------------------------------------------------

    def _certify(
        self, constraint: Expr, env: Dict[str, object], box: Box
    ) -> Dict[str, object]:
        """Re-check a candidate and normalize it into a complete model.

        Variables the constraint does not mention are *resampled* randomly:
        a caller storing solver models in an input library (STCG's Figure 2)
        then gets diverse values on the don't-care inputs instead of the
        corner points the search happened to start from.
        """
        from repro.expr.variables import free_variables

        constrained = set(free_variables(constraint))
        filler = sample_point(box, self._rng)
        model: Dict[str, object] = {}
        for name, _ in box:
            source = env if name in constrained and name in env else filler
            var = box.var(name)
            value = source[name]
            if var.ty is BOOL:
                model[name] = bool(value)
            elif var.ty is INT:
                model[name] = int(value)
            else:
                model[name] = float(value)
        if evaluate(constraint, model) is not True:
            raise SolverError(
                "internal error: zero-distance candidate failed verification"
            )
        return model


def _first_zero(dists: np.ndarray) -> Optional[int]:
    """Index of the first exactly-satisfied candidate, or None."""
    zeros = np.flatnonzero(dists == 0.0)
    if zeros.size:
        return int(zeros[0])
    return None


def _batch_best(batch, candidates, best_env, best_dist):
    """Advance the best tracker over a chunk — zero is not a verdict here.

    The split stage scores candidates against the *whole* constraint
    purely to seed the AVM start point; a zero whole-distance does not
    end the stage (only a zero *case* distance does), so unlike
    ``_batch_scan`` a zero must simply win the best tracker.
    """
    if not candidates:
        return best_env, best_dist
    dists = batch.evaluate(candidates)
    low = int(np.argmin(dists))
    d = float(dists[low])
    if d < best_dist:
        return candidates[low], d
    return best_env, best_dist


def _batch_scan(batch, candidates, best_env, best_dist):
    """Score a candidate chunk; returns (best_env, best_dist, hit_index).

    Mirrors the scalar loop exactly: a zero distance wins immediately
    (first index, like the sequential scan), otherwise the best tracker
    advances to the chunk's first minimum iff it strictly beats the
    incumbent — which is what candidate-by-candidate ``d < best_dist``
    updates converge to.
    """
    if not candidates:
        return best_env, best_dist, None
    dists = batch.evaluate(candidates)
    hit = _first_zero(dists)
    if hit is not None:
        return best_env, best_dist, hit
    low = int(np.argmin(dists))
    d = float(dists[low])
    if d < best_dist:
        return candidates[low], d, None
    return best_env, best_dist, None


def _dedupe(variables: Iterable[Var]) -> List[Var]:
    seen = set()
    result: List[Var] = []
    for var in variables:
        if var.name not in seen:
            seen.add(var.name)
            result.append(var)
    return result
