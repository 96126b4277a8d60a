"""Per-block specialized kernels for the symbolic domain.

The one-step encoder's counterpart of :mod:`repro.kernel.blocks`: each
factory in :data:`SYMBOLIC_FACTORIES` has the concrete factories'
signature and returns a closure ``step(ctx)`` that reproduces what
``Block.compute`` + ``Block.update`` build under the interpreter's
SYMBOLIC value table, up to structural equality of every value: the same
smart constructors in the same order, so the same folds.

* Block parameters are lifted to ``Const`` once, by the factory; a state
  value is lifted once per encoding, where it enters a slot.  Every slot
  therefore holds an ``Expr`` (the reference interpreter passes some raw
  Python values through, which equal their lifted form).
* Activation gating mirrors ``StepContext.write_state_path``; outcome
  conditions and condition atoms go straight into the context's
  recording dicts.
* A factory that returns ``None`` (unregistered coverage, a state path
  missing from the layout, a non-scalar cast) leaves the item to the
  generic ``compute``/``update`` fallback, which the plan compiler counts.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict

from repro.expr import ops as x
from repro.expr.types import BOOL, INT, REAL
from repro.kernel.blocks import PRELOADED, _k_inport, _state_path, fallback_step
from repro.kernel.exprc import compile_substitution
from repro.model.blocks.datastore import DataStoreRead, DataStoreWrite
from repro.model.blocks.discrete import (
    DiscreteIntegrator,
    Memory,
    RateLimiter,
    UnitDelay,
)
from repro.model.blocks.logic import CompareToConstant, Logic, RelationalOperator
from repro.model.blocks.lookup import Lookup1D
from repro.model.blocks.math_ops import (
    Abs,
    Bias,
    Fcn,
    Gain,
    MinMax,
    Product,
    Quantizer,
    Saturation,
    Sum,
    TypeCast,
)
from repro.model.blocks.routing import (
    ArrayUpdate,
    IfBlock,
    MultiportSwitch,
    Mux,
    Selector,
    SubsystemOutput,
    Switch,
    SwitchCase,
)
from repro.model.blocks.sources import Constant, Counter, Inport
from repro.stateflow.chart import ChartBlock

#: Blocks the encoder never stages even when stateless by ``state_spec``:
#: they read or write state (data stores, chart variables) directly.
STATE_ACCESS = (DataStoreRead, DataStoreWrite, ChartBlock)


def _gated_write(ctx, path: str, value, act) -> None:
    """``ctx.write_state_path`` in symbolic mode, path already checked."""
    next_state = ctx.next_state
    if act is True:
        next_state[path] = value
    else:
        current = next_state.get(path, ctx.state_env[path])
        next_state[path] = x.ite(act, value, current)


def _s_pure(build: Callable) -> Callable:
    """Factory for a stateless one-output block.

    ``build(block)`` returns ``fn(*inputs) -> output`` with the block's
    parameters already lifted, or ``None`` to fall back.
    """

    def factory(item, block, srcs, out, active, compiled):
        fn = build(block)
        if fn is None:
            return None

        def step(ctx):
            out[0] = fn(*[lst[port] for lst, port in srcs])

        return step

    return factory


def _s_state(key: str, build: Callable) -> Callable:
    """Factory for a block with one state element ``key``.

    ``build(block)`` returns ``fn(state, *inputs) -> (output, next)``; the
    write of ``next`` is gated by the item's activation.
    """

    def factory(item, block, srcs, out, active, compiled):
        path = _state_path(block, key, compiled)
        if path is None:
            return None
        fn = build(block)
        always = active is None

        def step(ctx):
            act = True if always else active(ctx)
            out[0], value = fn(
                x.lift(ctx.state_env[path]), *[lst[port] for lst, port in srcs]
            )
            _gated_write(ctx, path, value, act)

        return step

    return factory


def _fold(ops: tuple, negate_first: bool = False) -> Callable:
    """``fn(first, *rest)`` folding the inputs left to right with ``ops``."""

    def fn(first, *rest):
        total = x.neg(first) if negate_first else first
        for op, value in zip(ops, rest):
            total = op(total, value)
        return total

    return fn


_ADD_SUB = {"+": x.add, "-": x.sub}
_MUL_DIV = {"*": x.mul, "/": x.div}


def _sum(block: Sum):
    signs = block.signs
    return _fold(tuple(_ADD_SUB[sign] for sign in signs[1:]), signs[0] == "-")


def _product(block: Product):
    return _fold(tuple(_MUL_DIV[op] for op in block.ops[1:]))


def _minmax(block: MinMax):
    combine = x.minimum if block.mode == "min" else x.maximum
    return _fold((combine,) * (block.n_in - 1))


def _bias(block: Bias):
    bias = x.lift(block.bias)
    return lambda u: x.add(u, bias)


def _saturation(block: Saturation):
    lo, hi = x.lift(block.lo), x.lift(block.hi)
    return lambda u: x.saturate(u, lo, hi)


def _compare_to_constant(block: CompareToConstant):
    test, constant = getattr(x, block.op), x.lift(block.constant)
    return lambda u: test(u, constant)


def _clamped_index(block) -> Callable:
    zero, top = x.lift(0), x.lift(block.length - 1)
    return lambda index: x.saturate(x.to_int(index), zero, top)


def _selector(block: Selector):
    clamp = _clamped_index(block)
    return lambda array, index: x.select(array, clamp(index))


def _array_update(block: ArrayUpdate):
    clamp = _clamped_index(block)
    return lambda array, index, value: x.store(array, clamp(index), value)


def _lookup(block: Lookup1D):
    """``Lookup1D.compute``'s ITE chain, built back to front."""
    bps, values = block.breakpoints, block.values
    segments = tuple(
        (
            x.lift(values[i]),
            x.lift((values[i + 1] - values[i]) / (bps[i + 1] - bps[i])),
            x.lift(bps[i]),
            x.lift(bps[i + 1]),
        )
        for i in range(len(bps) - 2, -1, -1)
    )
    last, first = x.to_real(values[-1]), x.to_real(values[0])
    first_bp = x.lift(bps[0])

    def fn(value):
        u = x.to_real(value)
        result = last
        for v1, slope, b1, b2 in segments:
            segment = x.add(v1, x.mul(slope, x.sub(u, b1)))
            result = x.ite(x.le(u, b2), segment, result)
        return x.ite(x.le(u, first_bp), first, result)

    return fn


def _mux(block: Mux):
    """``Mux.compute``: a constant tuple, else a store chain over zeros."""
    base = x.lift(tuple([0] * block.n_in))
    indices = tuple(x.lift(index) for index in range(block.n_in))

    def fn(*values):
        lifted = [x.lift(value) for value in values]
        if all(e.is_const for e in lifted):
            return x.lift(tuple(e.const_value() for e in lifted))
        packed = base
        for index, element in zip(indices, lifted):
            packed = x.store(packed, index, element)
        return packed

    return fn


def _fcn(block: Fcn):
    template = compile_substitution(block.template)
    args = block.args
    return lambda *values: template(dict(zip(args, values)))


def _quantizer(block: Quantizer):
    interval = x.lift(block.interval)
    half = x.lift(0.5)
    return lambda u: x.mul(
        x.to_real(x.floor(x.add(x.div(u, interval), half))), interval
    )


def _counter(block: Counter):
    step, period = x.lift(block.step), x.lift(block.period)
    return lambda count: (count, x.mod(x.add(count, step), period))


def _integrator(block: DiscreteIntegrator):
    gain, lo, hi = x.lift(block.gain), x.lift(block.lo), x.lift(block.hi)
    return lambda acc, u: (
        acc, x.saturate(x.add(acc, x.mul(gain, x.to_real(u))), lo, hi)
    )


def _rate_limiter(block: RateLimiter):
    up, neg_down = x.lift(block.up), x.lift(-block.down)

    def fn(prev, u):
        value = x.add(prev, x.saturate(x.sub(x.to_real(u), prev), neg_down, up))
        return value, value

    return fn


def _s_constant(item, block: Constant, srcs, out, active, compiled):
    out[0] = x.lift(block.value)
    return PRELOADED


def _s_sub_output(item, block: SubsystemOutput, srcs, out, active, compiled):
    path = _state_path(block, "held", compiled)
    if path is None:
        return None
    (lst, port), = srcs
    always = active is None

    def step(ctx):
        act = True if always else active(ctx)
        value = lst[port]
        if act is True:
            out[0] = value
        else:
            out[0] = x.ite(act, value, x.lift(ctx.state_env[path]))
        _gated_write(ctx, path, value, act)

    return step


def _s_store_read(item, block: DataStoreRead, srcs, out, active, compiled):
    path = f"$store.{block.store}"
    if path not in compiled.state_elements:
        return None
    if block.read_current:

        def step(ctx):
            next_state = ctx.next_state
            if path in next_state:
                out[0] = x.lift(next_state[path])
            else:
                out[0] = x.lift(ctx.state_env[path])

        return step

    def step(ctx):
        out[0] = x.lift(ctx.state_env[path])

    return step


def _s_store_write(item, block: DataStoreWrite, srcs, out, active, compiled):
    path = f"$store.{block.store}"
    if path not in compiled.state_elements:
        return None
    (lst, port), = srcs
    always = active is None

    def step(ctx):
        _gated_write(ctx, path, lst[port], True if always else active(ctx))

    return step


def _s_switch(item, block: Switch, srcs, out, active, compiled):
    decision = block.decision
    if decision is None:
        return None
    decision_id = decision.decision_id
    (t_lst, t_port), (c_lst, c_port), (f_lst, f_port) = srcs
    threshold = x.lift(block.threshold)
    zero = x.lift(0)
    test = {
        "gt": lambda control: x.gt(control, threshold),
        "ge": lambda control: x.ge(control, threshold),
        "ne0": lambda control: x.ne(control, zero),
    }.get(block.criterion, x.to_bool)
    lnot, ite = x.lnot, x.ite

    def step(ctx):
        condition = test(c_lst[c_port])
        ctx.outcome_conditions[decision_id] = [condition, lnot(condition)]
        out[0] = ite(condition, t_lst[t_port], f_lst[f_port])

    return step


def _s_multiport(item, block: MultiportSwitch, srcs, out, active, compiled):
    decision = block.decision
    if decision is None:
        return None
    decision_id = decision.decision_id
    (c_lst, c_port) = srcs[0]
    labels = tuple(x.lift(label) for label in block.labels)
    has_default = block.has_default
    data = srcs[1:]
    routed = tuple(reversed(data[: len(labels)]))
    (d_lst, d_port) = data[-1]
    eq, lnot, land, ite = x.eq, x.lnot, x.land, x.ite

    def step(ctx):
        control = x.to_int(c_lst[c_port])
        matches = [eq(control, label) for label in labels]
        conditions = list(matches)
        if has_default:
            none_match = lnot(matches[0])
            for match in matches[1:]:
                none_match = land(none_match, lnot(match))
            conditions.append(none_match)
        ctx.outcome_conditions[decision_id] = conditions
        result = d_lst[d_port]
        for match, (lst, port) in zip(reversed(matches), routed):
            result = ite(match, lst[port], result)
        out[0] = result

    return step


def _chained_outcomes(conditions, has_else: bool) -> list:
    """Outcome conditions of an if/elseif chain (first true clause wins)."""
    outcomes = []
    none_before = None
    for condition in conditions:
        outcomes.append(
            condition if none_before is None
            else x.land(none_before, condition)
        )
        negated = x.lnot(condition)
        none_before = (
            negated if none_before is None else x.land(none_before, negated)
        )
    if has_else:
        outcomes.append(none_before)
    return outcomes


def _s_if(item, block: IfBlock, srcs, out, active, compiled):
    decision = block.decision
    if decision is None:
        return None
    decision_id = decision.decision_id
    has_else = block.has_else
    to_bool = x.to_bool

    def step(ctx):
        conditions = [to_bool(lst[port]) for lst, port in srcs]
        ctx.outcome_conditions[decision_id] = _chained_outcomes(
            conditions, has_else
        )

    return step


def _s_switch_case(item, block: SwitchCase, srcs, out, active, compiled):
    decision = block.decision
    if decision is None:
        return None
    decision_id = decision.decision_id
    (c_lst, c_port), = srcs
    groups = tuple(tuple(x.lift(label) for label in group) for group in block.cases)
    has_default = block.has_default
    eq, lor = x.eq, x.lor

    def step(ctx):
        control = x.to_int(c_lst[c_port])
        matches = []
        for group in groups:
            match = eq(control, group[0])
            for label in group[1:]:
                match = lor(match, eq(control, label))
            matches.append(match)
        ctx.outcome_conditions[decision_id] = _chained_outcomes(
            matches, has_default
        )

    return step


_LOGIC_COMBINE = {
    "and": x.land, "nand": x.land, "or": x.lor, "nor": x.lor, "xor": x.lxor,
}


def _s_logic(item, block: Logic, srcs, out, active, compiled):
    point = block.condition_point
    if point is None:
        return None
    point_id = point.point_id
    combine = _LOGIC_COMBINE.get(block.op)  # None for "not": one operand
    negate = block.op in ("not", "nand", "nor")
    always = active is None
    to_bool = x.to_bool

    def step(ctx):
        act = True if always else active(ctx)
        operands = [to_bool(lst[port]) for lst, port in srcs]
        context = x.TRUE if act is True else act
        ctx.condition_atoms[point_id] = (list(operands), context)
        result = operands[0]
        for operand in operands[1:]:
            result = combine(result, operand)
        out[0] = x.lnot(result) if negate else result

    return step


def _s_chart(item, block: ChartBlock, srcs, out, active, compiled):
    """The chart's one-leaf symbolic step, every expression compiled once.

    Mirrors ``ChartBlock._step_symbolic`` for a constant location (the
    only kind a one-step encoding has): the active leaf's guards are built
    from its condition atoms, "taken" / "evaluated but not taken" folds
    exactly as the reference merges them, and the merged frame is formed
    only for the chart's locals, outputs and location — the inputs it also
    merges are never observed.  Any other location value delegates the
    whole step to the reference.
    """
    spec = block.spec
    prefix = block.path
    loc_path = f"{prefix}.loc"
    rw_names = tuple(spec.local_names + spec.output_names)
    rw_paths = tuple((name, f"{prefix}.{name}") for name in rw_names)
    state_elements = compiled.state_elements
    if loc_path not in state_elements or any(
        path not in state_elements for _, path in rw_paths
    ):
        return None
    decision_ids = []
    for transition in spec.transitions:
        decision = block._decisions.get(transition.index)
        if decision is None:
            return None
        decision_ids.append((transition.index, decision.decision_id))
    decision_ids = tuple(decision_ids)
    in_bindings = tuple(zip(spec.input_names, srcs))
    out_names = tuple(spec.output_names)
    reference = fallback_step(item, srcs, out, active)

    def assignments(items):
        return tuple(
            (assign.target, compile_substitution(assign.expr))
            for assign in items
        )

    # Per leaf location: its candidates in priority order — (transition
    # index, condition point id, atom closures, atom cell, guard closure,
    # action + entry-chain assignments, entered location) — then the
    # leaf's during assignments and its own location.
    programs = []
    for leaf in spec.leaves:
        candidates = []
        for transition in spec.candidates_for(leaf):
            instrumented = block._points.get(transition.index)
            if instrumented is None:
                point_id = None
                atom_fns: tuple = ()
                cell: list = []
                guard = compile_substitution(transition.guard)
            else:
                point, atoms = instrumented
                point_id = point.point_id
                atom_fns = tuple(compile_substitution(atom) for atom in atoms)
                cell = [None] * len(atoms)
                operands = {id(atom): (cell, i) for i, atom in enumerate(atoms)}
                guard = compile_substitution(transition.guard, operands)
            writes = assignments(transition.actions) + assignments(
                assign
                for state in spec.entry_chain(transition.target)
                for assign in state.entry
            )
            entered = x.lift(spec.enter_target(transition.target).location)
            candidates.append(
                (transition.index, point_id, atom_fns, cell, guard, writes,
                 entered)
            )
        programs.append(
            (tuple(candidates), assignments(leaf.during), x.lift(leaf.location))
        )
    n_leaves = len(programs)
    always = active is None
    lift, land, lnot, ite, TRUE, FALSE = (
        x.lift, x.land, x.lnot, x.ite, x.TRUE, x.FALSE
    )

    def step(ctx):
        env = ctx.state_env
        loc = env[loc_path]
        if type(loc) is not int or not 0 <= loc < n_leaves:
            reference(ctx)
            return
        act = True if always else active(ctx)
        frame = {name: lift(lst[port]) for name, (lst, port) in in_bindings}
        for name, path in rw_paths:
            frame[name] = lift(env[path])
        candidates, during, leaf_loc = programs[loc]
        # The leaf's guards, evaluation contexts and take conditions.
        takes = []
        outcomes = {}
        atoms_seen = ctx.condition_atoms
        none_before = TRUE
        for index, point_id, atom_fns, cell, guard, _, _ in candidates:
            if point_id is not None:
                for position, fn in enumerate(atom_fns):
                    cell[position] = fn(frame)
            condition = guard(frame)
            context = none_before
            take = land(none_before, condition)
            none_before = land(none_before, lnot(condition))
            takes.append(take)
            outcomes[index] = (take, land(context, lnot(take)))
            if point_id is not None:
                atoms_seen[point_id] = (list(cell), context)
        recorded = ctx.outcome_conditions
        for index, decision_id in decision_ids:
            pair = outcomes.get(index)
            recorded[decision_id] = [FALSE, FALSE] if pair is None else list(pair)
        # The merged frame: during first, transitions merged in reverse.
        merged = dict(frame)
        for target, fn in during:
            merged[target] = fn(merged)
        merged_loc = leaf_loc
        for candidate, take in zip(reversed(candidates), reversed(takes)):
            branch = dict(frame)
            for target, fn in candidate[5]:
                branch[target] = fn(branch)
            for name in rw_names:
                merged[name] = ite(take, branch[name], merged[name])
            merged_loc = ite(take, candidate[6], merged_loc)
        for position, name in enumerate(out_names):
            out[position] = merged[name]
        _gated_write(ctx, loc_path, merged_loc, act)
        for name, path in rw_paths:
            _gated_write(ctx, path, merged[name], act)

    return step


_CASTS = {BOOL: x.to_bool, INT: x.to_int, REAL: x.to_real}

SYMBOLIC_FACTORIES: Dict[type, Callable] = {
    Gain: _s_pure(lambda block: partial(x.mul, x.lift(block.gain))),
    Bias: _s_pure(_bias),
    Sum: _s_pure(_sum),
    Product: _s_pure(_product),
    Abs: _s_pure(lambda block: x.absolute),
    MinMax: _s_pure(_minmax),
    Saturation: _s_pure(_saturation),
    # A non-scalar target falls back: the reference raises per step.
    TypeCast: _s_pure(lambda block: _CASTS.get(block.target)),
    Quantizer: _s_pure(_quantizer),
    Fcn: _s_pure(_fcn),
    Lookup1D: _s_pure(_lookup),
    RelationalOperator: _s_pure(lambda block: getattr(x, block.op)),
    CompareToConstant: _s_pure(_compare_to_constant),
    Selector: _s_pure(_selector),
    ArrayUpdate: _s_pure(_array_update),
    Mux: _s_pure(_mux),
    Inport: _k_inport,
    Constant: _s_constant,
    Counter: _s_state("count", _counter),
    UnitDelay: _s_state("x", lambda block: lambda state, u: (state, u)),
    Memory: _s_state("x", lambda block: lambda state, u: (state, u)),
    DiscreteIntegrator: _s_state("acc", _integrator),
    RateLimiter: _s_state("prev", _rate_limiter),
    SubsystemOutput: _s_sub_output,
    DataStoreRead: _s_store_read,
    DataStoreWrite: _s_store_write,
    Switch: _s_switch,
    MultiportSwitch: _s_multiport,
    IfBlock: _s_if,
    SwitchCase: _s_switch_case,
    Logic: _s_logic,
    ChartBlock: _s_chart,
}
