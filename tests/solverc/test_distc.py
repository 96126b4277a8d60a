"""Exactness of the compiled distance artifacts against the interpreter.

The solver kernel's contract is bit-exactness: the scalar closures and
the batch tapes must produce, element for element, the same float64 the
:class:`~repro.expr.distance.DistanceEvaluator` produces — including the
failure-distance behaviour on evaluation errors.  Hypothesis drives the
comparison over randomized constraints and randomized candidate boxes;
a differential pass checks the real one-step constraints of every
registry model, and crafted cases pin the share-aware closures' memo:
shared sub-DAGs computed once per call, raising nodes never memoized,
unselected ITE branches never computed, compile linear in unique nodes.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.coverage.collector import CoverageCollector
from repro.errors import EvalError
from repro.expr import ops as x
from repro.expr.ast import Var
from repro.expr.distance import FAILURE_DISTANCE, DistanceEvaluator
from repro.expr.nnf import to_nnf
from repro.expr.types import ArrayType, BOOL, INT, REAL
from repro.kernel.exprc import SharedDag, compile_expr
from repro.model.inputs import random_input
from repro.model.simulator import Simulator
from repro.models.registry import BENCHMARKS
from repro.solver.box import Box
from repro.solver.contractor import Contractor
from repro.solver.encoder import OneStepEncoding
from repro.solver.sampler import corner_points, sample_point
from repro.solverc.compiler import ConstraintCompiler
from repro.solverc.distc import compile_distance_batch, compile_distance_scalar
from repro.solverc.tape import NotLowerable

I = Var("i", INT, -100, 100)
J = Var("j", INT, -100, 100)
R = Var("r", REAL, -50.0, 50.0)
B = Var("b", BOOL)
A = Var("a", ArrayType(INT, 3))

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
        """The name predates share-aware closures: a heavily shared DAG
        used to keep the interpreter.  Now it compiles — one closure per
        unique node, so compiling is linear however much it shares — and
        matches the interpreter exactly."""
        expr = x.add(I, J)
        for _ in range(12):
            expr = x.add(expr, expr)  # 2^12 occurrences, 15 unique nodes
        constraint = x.gt(expr, 0)
        compiler = ConstraintCompiler()
        bundle = compiler.compile(constraint, [I, J])
        objective = bundle.objective()
        assert objective is not None
        assert _count(compiler, "scalar_fallbacks") == 0
        nnf = to_nnf(constraint)
        for env in ({"i": 1, "j": 2}, {"i": -3, "j": 1}, {"i": 0, "j": 0}):
            _assert_exact(objective(env), DistanceEvaluator(nnf).distance(env))
        # Linear: 60 doublings (2^60 occurrences) compile to 63 closures.
        deep = x.add(I, J)
        for _ in range(60):
            deep = x.add(deep, deep)
        dag = SharedDag([deep])
        compile_expr(deep, dag)
        assert len(dag.closures) == len(_unique(deep)) == 63
        env = {"i": 2, "j": -1}
        deep_nnf = to_nnf(x.gt(deep, 5))
        _assert_exact(
            compile_distance_scalar(deep_nnf)(env),
            DistanceEvaluator(deep_nnf).distance(env),
        )


class CountingEnv(dict):
    """An environment that counts reads per variable."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reads = {}

    def __getitem__(self, name):
        self.reads[name] = self.reads.get(name, 0) + 1
        return super().__getitem__(name)


class TestSharedClosures:
    """The share-aware closures keep the evaluator's per-call memo."""

    def test_shared_subtree_computed_once_per_call(self):
        shared = x.mul(x.add(I, J), 3)
        constraint = x.land(x.gt(shared, 4), x.lt(x.sub(shared, I), 50))
        nnf = to_nnf(constraint)
        objective = compile_distance_scalar(nnf)
        for i, j in ((1, 2), (7, -3)):
            env = CountingEnv(i=i, j=j)
            got = objective(env)
            _assert_exact(got, DistanceEvaluator(nnf).distance({"i": i, "j": j}))
            # ``j`` is read only through the shared ``i + j``: once per
            # call, in every call (the memo starts fresh).
            assert env.reads["j"] == 1

    def test_doubling_dag_reads_each_variable_once(self):
        expr = x.add(I, J)
        for _ in range(12):
            expr = x.add(expr, expr)
        nnf = to_nnf(x.gt(expr, 0))
        env = CountingEnv(i=1, j=2)
        _assert_exact(
            compile_distance_scalar(nnf)(env),
            DistanceEvaluator(nnf).distance({"i": 1, "j": 2}),
        )
        assert env.reads == {"i": 1, "j": 1}

    def test_raising_shared_select_is_not_memoized(self):
        """An out-of-range ``Select`` reached from two atoms fails both
        atoms in the same call, and the next call recomputes it."""
        shared = x.select(A, I)
        nnf = to_nnf(x.land(x.gt(shared, 0), x.lt(shared, J)))
        objective = compile_distance_scalar(nnf)
        bad = {"a": (1, 2, 3), "i": 7, "j": 5}
        compiled = compile_expr(shared, SharedDag([shared, shared]))
        with pytest.raises(EvalError):
            compiled(bad)
        _assert_exact(objective(bad), 2 * FAILURE_DISTANCE)
        _assert_exact(objective(bad), DistanceEvaluator(nnf).distance(bad))
        good = {"a": (1, 2, 3), "i": 2, "j": 5}
        _assert_exact(objective(good), DistanceEvaluator(nnf).distance(good))
        _assert_exact(objective(good), 0.0)
        _assert_exact(objective(bad), 2 * FAILURE_DISTANCE)

    def test_division_in_unselected_ite_branch(self):
        """``int(1 / r)`` raises at ``r == 0`` (int of inf) but sits in an
        ITE branch that ``b`` deselects; shared by two atoms."""
        risky = x.to_int(x.div(x.lift(1.0), R))
        shared = x.ite(B, x.add(I, 1), risky)
        nnf = to_nnf(x.land(x.gt(shared, 0), x.lt(shared, J)))
        objective = compile_distance_scalar(nnf)
        for env in (
            {"b": True, "i": 3, "j": 10, "r": 0.0},   # branch deselected
            {"b": False, "i": 3, "j": 10, "r": 0.0},  # raises: both atoms fail
            {"b": False, "i": 3, "j": 10, "r": 0.25},
            {"b": True, "i": -4, "j": -9, "r": 0.0},
        ):
            _assert_exact(objective(env), DistanceEvaluator(nnf).distance(env))
        _assert_exact(
            objective({"b": False, "i": 3, "j": 10, "r": 0.0}),
            2 * FAILURE_DISTANCE,
        )

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, -0.0, 1e308]
    )
    def test_non_finite_operands(self, value):
        shared = x.add(R, 1.0)
        constraint = x.lor(
            x.land(x.gt(shared, 0.5), x.ne(shared, R)),
            x.land(x.eq(x.mul(shared, 2.0), R), x.le(R, shared)),
        )
        nnf = to_nnf(constraint)
        env = {"r": value}
        _assert_exact(
            compile_distance_scalar(nnf)(env),
            DistanceEvaluator(nnf).distance(env),
        )


# -- differential pass over the registry models ----------------------------


def _walk_constraints(bench, steps=6, states=3, seed=5):
    """Every path and obligation constraint of the states a short
    fixed-seed concrete walk visits."""
    compiled = bench.build()
    collector = CoverageCollector(compiled.registry)
    sim = Simulator(compiled, collector)
    rng = random.Random(seed)
    visited = [sim.get_state()]
    for _ in range(steps):
        sim.step(random_input(compiled.inports, rng))
        visited.append(sim.get_state())
    problems = []
    for state in visited[:: max(1, len(visited) // states)]:
        encoding = OneStepEncoding(compiled, state)
        for branch in compiled.registry.branches:
            problems.append(
                (encoding.path_constraint(branch), encoding.variables)
            )
        for obligation in collector.all_condition_obligations():
            problems.append(
                (encoding.obligation_constraint(obligation),
                 encoding.variables)
            )
    return problems


def _in_box_points(constraint, variables, rng, count=6):
    """Corners and random points of the domain box and, when contraction
    leaves it feasible, of the contracted box."""
    box = Box(_dedupe(variables))
    points = corner_points(box) + [sample_point(box, rng) for _ in range(count)]
    if Contractor(constraint).contract(box):
        points += corner_points(box)
        points += [sample_point(box, rng) for _ in range(count)]
    return points


@pytest.mark.parametrize("name", [bench.name for bench in BENCHMARKS])
def test_registry_constraints_match_interpreter(name):
    bench = next(b for b in BENCHMARKS if b.name == name)
    compiler = ConstraintCompiler()
    rng = random.Random(3)
    checked = 0
    for constraint, variables in _walk_constraints(bench):
        bundle = compiler.compile(constraint, variables, contractor=False)
        objective = bundle.objective()
        assert objective is not None
        reference = DistanceEvaluator(bundle.nnf())
        for env in _in_box_points(constraint, variables, rng):
            _assert_exact(objective(env), reference.distance(env))
            checked += 1
    assert checked > 0
    assert _count(compiler, "scalar_fallbacks") == 0


def _assert_exact(got, expected):
    """Same float, bit for bit (``repr`` tells ``-0.0`` from ``0.0``)."""
    assert type(got) is type(expected) is float
    assert repr(got) == repr(expected)


def _unique(expr):
    """``id``s of the unique nodes of a DAG (``walk`` would expand it)."""
    seen = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children)
    return seen


def _dedupe(variables):
    seen = {}
    for var in variables:
        seen.setdefault(var.name, var)
    return list(seen.values())


def _count(compiler, key):
    """One ``solverc.*`` counter of the compiler's registry."""
    return compiler.registry.snapshot()["counters"][f"solverc.{key}"]
