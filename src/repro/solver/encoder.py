"""Symbolic encodings of model steps.

Two encoders build symbolic executions of the model:

* :class:`OneStepEncoding` — STCG's state-aware encoding: inputs are
  symbolic variables, the state snapshot enters as *constants*.  Branch
  conditions therefore collapse wherever they depend on state (a transition
  whose source state is inactive folds to ``false`` immediately), which is
  the paper's central argument for solving one iteration at a time.  It
  runs the model's compiled symbolic kernel (:mod:`repro.kernel.plan`).
* :class:`UnrolledEncoding` — the SLDV-like bounded encoding: ``k`` steps
  are chained symbolically from the initial state, with per-step input
  variables and state expressions threaded between steps.  Constraint size
  grows with depth and with state complexity (arrays, chart locations),
  reproducing why whole-model constraint solving struggles on state-heavy
  models.  It runs the generic interpreter,
  :func:`~repro.model.executor.execute_step`, with symbolic state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SolverError
from repro.coverage.registry import Branch
from repro.expr import ops as x
from repro.expr.ast import Expr, FALSE, TRUE, Var
from repro.kernel.plan import symbolic_kernel
from repro.model.context import symbolic_context
from repro.model.executor import execute_step
from repro.model.graph import CompiledModel
from repro.model.state import ModelState


class OneStepEncoding:
    """Symbolic execution of one iteration from a concrete state.

    Built by the model's compiled symbolic kernel
    (:class:`~repro.kernel.plan.SymbolicKernel`, compiled on the first
    encoding of a model and cached on it).  Its outputs, next state,
    outcome conditions and condition atoms are structurally equal to
    those of the reference interpreter, ``execute_step`` under a
    ``symbolic_context``; the parts that do not depend on the state are
    shared, read-only, by every encoding of the model.
    """

    def __init__(self, compiled: CompiledModel, state: ModelState):
        self.compiled = compiled
        self.state = state
        kernel = symbolic_kernel(compiled)
        self.variables: List[Var] = list(kernel.variables)
        # ``ModelState.values`` already hands out a fresh dict; encoding
        # only reads it (writes land in ``ctx.next_state``), so one copy
        # serves both as the state environment and as the base of the
        # next-state map.  The snapshot itself is never aliased or mutated.
        env: Dict[str, object] = state.values
        ctx = kernel.encode(env)
        self.outputs = kernel.read_outputs()
        self._outcome_conditions = ctx.outcome_conditions
        self._condition_atoms = ctx.condition_atoms
        self._next_state = env
        self._next_state.update(ctx.next_state)
        #: ``((point_id, atom), derivative)`` of the last MCDC obligation.
        #: The generator asks for both polarities of an atom back to back,
        #: so one entry shares every derivative a full memo would, without
        #: keeping them alive in cached encodings (which measurably moved
        #: garbage-collection work into later allocations).
        self._last_derivative: Tuple[Optional[tuple], Optional[Expr]] = (
            None,
            None,
        )

    def branch_condition(self, branch: Branch) -> Expr:
        """The branch's local condition C under this state."""
        conditions = self._outcome_conditions.get(branch.decision.decision_id)
        if conditions is None:
            raise SolverError(
                f"decision {branch.decision.path!r} recorded no conditions"
            )
        return conditions[branch.outcome]

    def path_constraint(self, branch: Branch) -> Expr:
        """Branch condition conjoined with all ancestor branch conditions
        (Definition 1: solving a branch means satisfying its whole chain)."""
        constraint = self.branch_condition(branch)
        for ancestor in branch.ancestors():
            constraint = x.land(constraint, self.branch_condition(ancestor))
        return constraint

    def next_state_expressions(self) -> Dict[str, object]:
        """Symbolic next state (constants where untouched)."""
        return dict(self._next_state)

    def obligation_constraint(self, obligation) -> Expr:
        """Constraint whose solution satisfies a condition obligation.

        For a *value* obligation this is: the point is evaluated and the
        atom takes the requested polarity.  For an *mcdc* obligation it is
        additionally required that the atom *determines* the decision
        outcome — the boolean derivative of the point's structure, with the
        other atoms substituted symbolically, must be true.
        """
        recorded = self._condition_atoms.get(obligation.point_id)
        if recorded is None:
            # The point is unreachable from this state (e.g. a transition
            # guard whose source state is inactive).
            return x.FALSE
        atoms, context = recorded
        atom = atoms[obligation.atom]
        polarity = atom if obligation.polarity else x.lnot(atom)
        constraint = x.land(context, polarity)
        if not obligation.determining or (
            constraint.is_const and not constraint.const_value()
        ):
            return constraint
        key = (obligation.point_id, obligation.atom)
        last_key, derivative = self._last_derivative
        if last_key != key:
            derivative = self._derivative(
                symbolic_kernel(self.compiled).structure(
                    self.compiled.registry.condition_point(obligation.point_id)
                ),
                atoms,
                obligation.atom,
            )
            self._last_derivative = (key, derivative)
        return x.land(constraint, derivative)

    @staticmethod
    def _derivative(structure, atoms: List[Expr], index: int) -> Expr:
        """Boolean derivative of the compiled point ``structure`` w.r.t.
        one atom: the structure with that atom true, xor with it false."""
        bindings = {f"c{position}": atom for position, atom in enumerate(atoms)}
        name = f"c{index}"
        bindings[name] = TRUE
        with_true = structure(bindings)
        bindings[name] = FALSE
        return x.lxor(with_true, structure(bindings))


class UnrolledEncoding:
    """Bounded multi-step symbolic unrolling from the initial state."""

    def __init__(
        self,
        compiled: CompiledModel,
        depth: int,
        initial_state: Optional[ModelState] = None,
    ):
        if depth < 1:
            raise SolverError("unroll depth must be >= 1")
        self.compiled = compiled
        self.depth = depth
        self.variables: List[Var] = []
        self._step_conditions: List[Dict[int, List[Expr]]] = []
        state_env: Dict[str, object] = (
            initial_state.values
            if initial_state is not None
            else compiled.initial_state()
        )
        for step in range(depth):
            step_vars = compiled.input_variables(suffix=f"@{step}")
            self.variables.extend(step_vars)
            inputs = {
                spec.name: var
                for spec, var in zip(compiled.inports, step_vars)
            }
            ctx = symbolic_context(inputs, state_env, time_index=step)
            execute_step(compiled, ctx)
            self._step_conditions.append(ctx.outcome_conditions)
            state_env = dict(state_env)
            state_env.update(ctx.next_state)
        self._final_state = state_env

    def branch_condition(self, branch: Branch, step: int) -> Expr:
        conditions = self._step_conditions[step].get(branch.decision.decision_id)
        if conditions is None:
            raise SolverError(
                f"decision {branch.decision.path!r} recorded no conditions"
            )
        return conditions[branch.outcome]

    def path_constraint(self, branch: Branch, step: int) -> Expr:
        constraint = self.branch_condition(branch, step)
        for ancestor in branch.ancestors():
            constraint = x.land(constraint, self.branch_condition(ancestor, step))
        return constraint

    def reach_constraint(self, branch: Branch) -> Expr:
        """Branch reachable at *any* unrolled step (disjunction over steps)."""
        return x.disjoin(
            self.path_constraint(branch, step) for step in range(self.depth)
        )

    def decode_sequence(self, model: Dict[str, object]) -> List[Dict[str, object]]:
        """Split a solver model over step-suffixed variables into a test
        input sequence."""
        sequence: List[Dict[str, object]] = []
        for step in range(self.depth):
            step_inputs: Dict[str, object] = {}
            for spec in self.compiled.inports:
                step_inputs[spec.name] = model[f"{spec.name}@{step}"]
            sequence.append(step_inputs)
        return sequence
