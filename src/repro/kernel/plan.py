"""Ahead-of-time compilation of a plan into a step kernel, in two domains.

One compiler (:func:`_compile_items`) lowers a
:class:`~repro.model.graph.CompiledModel`'s plan once, with the factory
table and activation of a value domain:

* **concrete** — :func:`compile_kernel` / :class:`CompiledKernel`, the
  fast path behind ``Simulator(kernel=True)``;
* **symbolic** — :func:`symbolic_kernel` / :class:`SymbolicKernel`, the
  one-step encoder behind every
  :class:`~repro.solver.encoder.OneStepEncoding`, which additionally
  stages the plan's state-free items once per model.

Either way the result is a flat tuple of per-item closures over

* **pre-resolved slots** — every input reads directly from the producing
  item's output buffer (``compiled.input_slots``), so the hot loop touches
  no ``id()``-keyed dicts and no ``PlanItem`` objects,
* **reused buffers** — output lists and the activation table are allocated
  once per kernel and overwritten in place every step.

Buffer reuse is only sound because stale reads are impossible by
construction: an input slot whose source runs *at or after* the consumer
(``src_index >= item.index``) is exactly the case where the interpreter's
``_gather_inputs`` finds ``None`` and raises — with a reused buffer it
would silently read the previous step's value instead.  Those items are
detected at compile time and compiled to a closure raising the identical
``SimulationError``; every remaining slot provably holds the current step's
value when read.  The activation table is likewise safe: items without an
enable never write their entry (it stays ``True``, as the interpreter would
set it), and enabled items overwrite theirs before any child reads it.

Any block class without a factory in the domain's table runs through the
generic ``compute``/``update`` interpreter inside the same slot/buffer
machinery (:func:`~repro.kernel.blocks.fallback_step`, which works in
either domain), preserving its exact semantics (including the
declared-arity check).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.errors import ExecutorError, SimulationError
from repro.expr import ops as x
from repro.kernel.blocks import KERNEL_FACTORIES, PRELOADED, fallback_step
from repro.kernel.exprc import SubstFn, compile_substitution
from repro.kernel.symbolic import STATE_ACCESS, SYMBOLIC_FACTORIES
from repro.model.context import StepContext, symbolic_context
from repro.model.graph import CompiledModel, PlanItem


def _make_active(actives: List[bool], item: PlanItem):
    """The concrete ``_item_active`` specialized for one enabled item.

    Returns ``None`` for always-active items.  The returned callable also
    maintains the shared activation table so nested enables observe their
    parent's activation, exactly like the interpreter's ``actives`` list.
    """
    if item.enable is None:
        return None
    index = item.index
    decision = getattr(item.enable.block, "decision", None)
    if decision is None:
        path = item.enable.block.path

        def broken(ctx):
            raise SimulationError(f"enable source {path!r} has no decision")

        return broken
    assert item.enable_index is not None
    parent = item.enable_index
    decision_id = decision.decision_id
    outcome = item.enable.outcome

    def active(ctx):
        value = bool(
            actives[parent] and ctx.taken_outcomes.get(decision_id) == outcome
        )
        actives[index] = value
        return value

    return active


def _make_symbolic_active(actives: List[object], item: PlanItem):
    """The symbolic ``_item_active`` specialized for one enabled item.

    The activation is the parent's activation conjoined with the enabling
    outcome's recorded condition, built through the same smart
    constructor as the interpreter's ``ctx.vo.land``.
    """
    if item.enable is None:
        return None
    index = item.index
    decision = getattr(item.enable.block, "decision", None)
    if decision is None:
        path = item.enable.block.path

        def broken(ctx):
            raise SimulationError(f"enable source {path!r} has no decision")

        return broken
    assert item.enable_index is not None
    parent = item.enable_index
    decision_id = decision.decision_id
    outcome = item.enable.outcome
    land = x.land

    def active(ctx):
        conditions = ctx.outcome_conditions.get(decision_id)
        if conditions is None:
            raise SimulationError(
                f"decision {decision.path!r} recorded no outcome conditions"
            )
        value = land(actives[parent], conditions[outcome])
        actives[index] = value
        return value

    return active


def _forward_raiser(item: PlanItem, slots) -> Callable:
    """A closure for an item with a not-yet-run input source.

    The interpreter raises on the first (in port order) input whose source
    has not produced outputs this step; with reused buffers that slot would
    silently hold the previous step's value, so the whole item compiles to
    the identical per-step error instead.
    """
    for position, (src_index, _port) in enumerate(slots):
        if src_index >= item.index:
            signal = item.input_signals[position]
            message = (
                f"{item.block.path!r} reads {signal.block.path!r} before it "
                "ran (nondirect port feeding a direct one?)"
            )

            def step(ctx):
                raise SimulationError(message)

            return step
    raise AssertionError("no forward slot found")  # pragma: no cover


def _compile_items(compiled: CompiledModel, factories, make_active, out_lists,
                   actives, fallbacks: set) -> List[Tuple[PlanItem, Callable, bool]]:
    """Lower every plan item in one value domain.

    ``factories`` maps block classes to the domain's factories and
    ``make_active`` builds the domain's activation closure.  Returns
    ``(item, step, specialized)`` per plan item; ``step`` is ``None`` for
    an item a factory preloaded at compile time.  Fallback classes are
    added to ``fallbacks``.
    """
    lowered = []
    for item in compiled.plan:
        slots = compiled.input_slots[item.index]
        if any(src_index >= item.index for src_index, _ in slots):
            lowered.append((item, _forward_raiser(item, slots), True))
            continue
        srcs = tuple((out_lists[src], port) for src, port in slots)
        out = out_lists[item.index]
        active = make_active(actives, item)
        factory = factories.get(type(item.block))
        step = None
        if factory is not None:
            step = factory(item, item.block, srcs, out, active, compiled)
        if step is PRELOADED:
            lowered.append((item, None, True))
        elif step is None:
            lowered.append((item, fallback_step(item, srcs, out, active), False))
            fallbacks.add(type(item.block).__name__)
        else:
            lowered.append((item, step, True))
    return lowered


class CompiledKernel:
    """The concrete fast path of one compiled model (one per simulator)."""

    def __init__(self, compiled: CompiledModel):
        self.compiled = compiled
        plan = compiled.plan
        out_lists: List[List[object]] = [
            [None] * item.block.n_out for item in plan
        ]
        self.out_lists = out_lists
        #: Shared activation table; entries of never-enabled items stay True.
        self.actives: List[bool] = [True] * len(plan)
        self.fallback_classes: set = set()
        lowered = _compile_items(
            compiled, KERNEL_FACTORIES, _make_active, out_lists, self.actives,
            self.fallback_classes,
        )
        self.n_specialized = sum(1 for _, _, spec in lowered if spec)
        self.n_fallback = len(lowered) - self.n_specialized
        self.steps: Tuple[Callable, ...] = tuple(
            step for _, step, _ in lowered if step is not None
        )
        self._outs = tuple(
            (name, out_lists[index], port)
            for name, index, port in compiled.outport_slots
        )

    def run_step(self, ctx: StepContext) -> None:
        """Execute one concrete step; coverage/state land on ``ctx``."""
        for step in self.steps:
            step(ctx)
        ctx.active = True

    def read_outputs(self) -> Dict[str, object]:
        """The outport values of the step most recently run."""
        return {name: values[port] for name, values, port in self._outs}

    def stats(self) -> Dict[str, object]:
        """Compile-time specialization counts (for trace/report output)."""
        return {
            "specialized_blocks": self.n_specialized,
            "fallback_blocks": self.n_fallback,
            "fallback_classes": sorted(self.fallback_classes),
        }


class SymbolicKernel:
    """The compiled one-step encoder of one model (cached on the model).

    Lowers the plan in the symbolic domain, then *stages* it: an item is
    state-free when its block declares no state, is not a data-store or
    chart block (:data:`~repro.kernel.symbolic.STATE_ACCESS`), and every
    input source and its enable source are state-free.  Such an item
    computes the same values from every state snapshot, so it runs once,
    here, and every encoding shares its outputs, activation and recorded
    outcome conditions / condition atoms as read-only objects.  An item
    whose staging run raises stays per-encoding, so it raises exactly
    where the interpreter would.  The state reads of the staging run see
    an empty state environment, so a block that touches state without
    declaring it cannot be staged either.

    Output buffers and the activation table are shared by every encoding
    built from this kernel, as in the concrete kernel: each encoding
    overwrites every non-staged entry before reading it.
    """

    def __init__(self, compiled: CompiledModel):
        plan = compiled.plan
        self.variables = tuple(compiled.input_variables())
        inputs = {var.name: var for var in self.variables}
        self.inputs = inputs
        out_lists: List[List[object]] = [
            [None] * item.block.n_out for item in plan
        ]
        actives: List[object] = [True] * len(plan)
        self.fallback_classes: set = set()
        lowered = _compile_items(
            compiled, SYMBOLIC_FACTORIES, _make_symbolic_active, out_lists,
            actives, self.fallback_classes,
        )
        self.n_specialized = sum(1 for _, _, spec in lowered if spec)
        self.n_fallback = len(lowered) - self.n_specialized
        staged = [False] * len(plan)
        ctx = symbolic_context(inputs, {})
        steps: List[Callable] = []
        for item, step, _ in lowered:
            if _stageable(item, staged, compiled.input_slots[item.index]):
                if step is None or _run_staged(step, ctx):
                    staged[item.index] = True
                    continue
            if step is not None:
                steps.append(step)
        #: Per plan index: whether the item was staged.
        self.staged: Tuple[bool, ...] = tuple(staged)
        self.n_staged = sum(staged)
        self.steps: Tuple[Callable, ...] = tuple(steps)
        #: Recordings of the staged items, shared by every encoding.
        self.staged_outcomes = ctx.outcome_conditions
        self.staged_atoms = ctx.condition_atoms
        self._outs = tuple(
            (name, out_lists[index], port)
            for name, index, port in compiled.outport_slots
        )
        self._structures: Dict[int, SubstFn] = {}

    def encode(self, state_env: Dict[str, object]) -> StepContext:
        """Run one symbolic step from ``state_env`` (read, never written).

        Returns the step's context: next-state values in ``next_state``,
        recordings in ``outcome_conditions`` / ``condition_atoms``.
        """
        ctx = symbolic_context(self.inputs, state_env)
        ctx.outcome_conditions = dict(self.staged_outcomes)
        ctx.condition_atoms = dict(self.staged_atoms)
        for step in self.steps:
            step(ctx)
        ctx.active = True
        return ctx

    def read_outputs(self) -> Dict[str, object]:
        """The outport values of the encoding most recently built."""
        return {name: values[port] for name, values, port in self._outs}

    def structure(self, point) -> SubstFn:
        """A condition point's structure, compiled for substitution."""
        fn = self._structures.get(point.point_id)
        if fn is None:
            fn = compile_substitution(point.structure)
            self._structures[point.point_id] = fn
        return fn

    def count_into(self, registry) -> None:
        """Add this kernel's compile-time counts to ``encoder.*``."""
        registry.counter("encoder.specialized_blocks").inc(self.n_specialized)
        registry.counter("encoder.fallback_blocks").inc(self.n_fallback)
        registry.counter("encoder.staged_blocks").inc(self.n_staged)


def _stageable(item: PlanItem, staged: List[bool], slots) -> bool:
    """State-free: stateless block, every source and enable source staged."""
    block = item.block
    if block.state_spec() or isinstance(block, STATE_ACCESS):
        return False
    if item.enable_index is not None and not staged[item.enable_index]:
        return False
    return all(
        src_index < item.index and staged[src_index] for src_index, _ in slots
    )


def _run_staged(step: Callable, ctx: StepContext) -> bool:
    """Run one staged step; if the step raises, undo its recordings and
    say so.  A cell timeout is not the step's error and propagates."""
    n_outcomes = len(ctx.outcome_conditions)
    n_atoms = len(ctx.condition_atoms)
    try:
        step(ctx)
    except ExecutorError:
        raise
    except Exception:
        for recorded, count in (
            (ctx.outcome_conditions, n_outcomes),
            (ctx.condition_atoms, n_atoms),
        ):
            for key in list(recorded)[count:]:
                del recorded[key]
        return False
    return True


def symbolic_kernel(compiled: CompiledModel) -> SymbolicKernel:
    """The model's compiled one-step encoder, compiled on first use."""
    kernel = compiled.symbolic_kernel
    if kernel is None:
        kernel = compiled.symbolic_kernel = SymbolicKernel(compiled)
    return kernel


def compile_kernel(compiled: CompiledModel) -> CompiledKernel:
    """Compile the concrete fast path for ``compiled``."""
    return CompiledKernel(compiled)
