"""Exactness of the compiled distance artifacts against the interpreter.

The solver kernel's contract is bit-exactness: the scalar closures and
the batch tapes must produce, element for element, the same float64 the
:class:`~repro.expr.distance.DistanceEvaluator` produces — including the
failure-distance behaviour on evaluation errors.  Hypothesis drives the
comparison over randomized constraints and randomized candidate boxes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.expr import ops as x
from repro.expr.ast import Var
from repro.expr.distance import DistanceEvaluator
from repro.expr.nnf import to_nnf
from repro.expr.types import BOOL, INT, REAL
from repro.solverc.compiler import ConstraintCompiler
from repro.solverc.distc import (
    compile_distance_batch,
    compile_distance_scalar,
    worth_compiling_scalar,
)
from repro.solverc.tape import NotLowerable

I = Var("i", INT, -100, 100)
J = Var("j", INT, -100, 100)
R = Var("r", REAL, -50.0, 50.0)
B = Var("b", BOOL)

VARIABLES = [I, J, R, B]


# -- constraint strategy ---------------------------------------------------

_ATOM_BUILDERS = (x.lt, x.le, x.gt, x.ge, x.eq, x.ne)

_operands = st.sampled_from(
    [I, J, R, x.add(I, J), x.mul(I, 3), x.sub(R, 7.5), x.absolute(I),
     x.minimum(I, J), x.mod(I, 10)]
)


@st.composite
def atoms(draw):
    build = draw(st.sampled_from(_ATOM_BUILDERS))
    left = draw(_operands)
    right = draw(
        st.one_of(
            _operands,
            st.integers(min_value=-120, max_value=120),
        )
    )
    return build(left, right)


@st.composite
def constraints(draw):
    first = draw(atoms())
    rest = draw(st.lists(atoms(), max_size=3))
    expr = first
    for other, combine in zip(
        rest, draw(st.lists(st.sampled_from([x.land, x.lor]),
                            min_size=len(rest), max_size=len(rest)))
    ):
        expr = combine(expr, other)
    if draw(st.booleans()):
        expr = x.land(expr, B)
    return expr


@st.composite
def environments(draw):
    return {
        "i": draw(st.integers(min_value=-100, max_value=100)),
        "j": draw(st.integers(min_value=-100, max_value=100)),
        "r": draw(st.floats(min_value=-50.0, max_value=50.0,
                            allow_nan=False)),
        "b": draw(st.booleans()),
    }


# -- element-wise equivalence ----------------------------------------------


class TestScalarExactness:
    @given(constraint=constraints(), env=environments())
    @settings(max_examples=150, deadline=None)
    def test_scalar_closure_matches_interpreter(self, constraint, env):
        nnf = to_nnf(constraint)
        compiled = compile_distance_scalar(nnf)
        assert compiled(env) == DistanceEvaluator(nnf).distance(env)


class TestBatchExactness:
    @given(
        constraint=constraints(),
        envs=st.lists(environments(), min_size=1, max_size=16),
    )
    @settings(max_examples=150, deadline=None)
    def test_batch_tape_matches_scalar_elementwise(self, constraint, envs):
        """Batched distances over a randomized box of candidates equal the
        per-candidate interpreter distances bit for bit."""
        nnf = to_nnf(constraint)
        batch = compile_distance_batch(nnf, VARIABLES)
        expected = [DistanceEvaluator(nnf).distance(env) for env in envs]
        got = batch.evaluate(envs)
        assert got.shape == (len(envs),)
        assert list(got) == expected


class TestFallbacks:
    def test_unbounded_int_is_not_lowerable(self):
        unbounded = Var("n", INT)  # no domain: exact-float gate must refuse
        constraint = x.gt(x.mul(unbounded, unbounded), 10)
        with pytest.raises(NotLowerable):
            compile_distance_batch(to_nnf(constraint), [unbounded])

    def test_compiled_constraint_falls_back_to_scalar(self):
        """A non-lowerable constraint leaves batch() None (the engine then
        scores candidates through the scalar path) and counts the fallback."""
        unbounded = Var("n", INT)
        constraint = x.gt(x.mul(unbounded, unbounded), 10)
        compiler = ConstraintCompiler()
        bundle = compiler.compile(constraint, [unbounded])
        assert bundle.batch() is None
        assert bundle.batch() is None  # memoized, counted once
        assert _count(compiler, "batch_fallbacks") == 1
        # The scalar objective still works and matches the interpreter.
        objective = bundle.objective()
        assert objective is not None
        env = {"n": 2}
        assert objective(env) == DistanceEvaluator(
            to_nnf(constraint)
        ).distance(env)

    def test_shared_dag_refuses_scalar_compilation(self):
        """A heavily shared DAG re-expands in closures; the gate must keep
        the memoizing interpreter instead."""
        expr = x.add(I, J)
        for _ in range(12):
            expr = x.add(expr, expr)  # 2^12 occurrences, 14 unique nodes
        constraint = x.gt(expr, 0)
        assert not worth_compiling_scalar(to_nnf(constraint))
        compiler = ConstraintCompiler()
        bundle = compiler.compile(constraint, [I, J])
        assert bundle.objective() is None
        assert _count(compiler, "scalar_fallbacks") == 1

    def test_small_constraint_is_worth_compiling(self):
        assert worth_compiling_scalar(to_nnf(x.land(x.gt(I, 0), x.lt(J, 5))))


def _count(compiler, key):
    """One ``solverc.*`` counter of the compiler's registry."""
    return compiler.registry.snapshot()["counters"][f"solverc.{key}"]
