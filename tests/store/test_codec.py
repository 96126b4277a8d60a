"""Exactness of the warm-start store codecs (repro.store.codec)."""

import math

import pytest

from repro.coverage.collector import ConditionObligation
from repro.expr.ast import Binary, Const, Ite, Select, Store, Unary, Var
from repro.expr.types import ArrayType, BOOL, INT, REAL
from repro.model.state import ModelState
from repro.solver.encoder import OneStepEncoding
from repro.store.codec import (
    CodecError,
    ExprTable,
    decode_encoding,
    decode_expr,
    decode_expr_table,
    decode_target_key,
    decode_type,
    decode_value,
    encode_encoding,
    encode_expr,
    encode_target_key,
    encode_type,
    encode_value,
)
from tests.conftest import build_counter_model, build_queue_model


class TestTypeCodec:
    @pytest.mark.parametrize(
        "ty", [BOOL, INT, REAL, ArrayType(INT, 3), ArrayType(BOOL, 7)]
    )
    def test_round_trip(self, ty):
        assert decode_type(encode_type(ty)) == ty

    def test_unknown_scalar_rejected(self):
        with pytest.raises(CodecError):
            decode_type("complex")

    def test_malformed_payload_rejected(self):
        with pytest.raises(CodecError):
            decode_type(["array", "int"])


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            3.5,
            -0.0,
            math.inf,
            "s",
            (1, 2, 3),
            ((True, 0.5), (), "x"),
        ],
    )
    def test_round_trip(self, value):
        decoded = decode_value(encode_value(value))
        assert decoded == value
        # bool vs int must survive: the generator folds on `is False`.
        assert type(decoded) is type(value)

    def test_tuples_stay_tuples(self):
        decoded = decode_value(encode_value((1, (2, 3))))
        assert isinstance(decoded, tuple)
        assert isinstance(decoded[1], tuple)

    def test_unencodable_value_rejected(self):
        with pytest.raises(CodecError):
            encode_value(object())

    def test_malformed_dict_rejected(self):
        with pytest.raises(CodecError):
            decode_value({"not_t": []})


def _sample_exprs():
    x = Var("x", INT, 0, 10)
    arr = Var("a", ArrayType(INT, 3), None, None)
    return [
        Const(True, BOOL),
        Const(2.5, REAL),
        Var("b", BOOL, None, None),
        Unary("not", Var("b", BOOL, None, None), BOOL),
        Binary("add", x, Const(1, INT), INT),
        Ite(Var("b", BOOL, None, None), x, Const(0, INT), INT),
        Select(arr, Const(1, INT), INT),
        Store(arr, Const(1, INT), x, ArrayType(INT, 3)),
    ]


class TestExprCodec:
    @pytest.mark.parametrize("expr", _sample_exprs())
    def test_round_trip(self, expr):
        assert decode_expr(encode_expr(expr)) == expr

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError):
            decode_expr(["zzz", 1])

    def test_malformed_node_rejected(self):
        with pytest.raises(CodecError):
            decode_expr(["b", "add"])  # missing operands


class TestExprTable:
    def test_round_trip_preserves_structure(self):
        table = ExprTable()
        indices = [table.add(expr) for expr in _sample_exprs()]
        decoded = decode_expr_table(table.nodes)
        for expr, index in zip(_sample_exprs(), indices):
            assert decoded[index] == expr

    def test_shared_subtree_interned_once(self):
        x = Var("x", INT, 0, 10)
        left = Binary("add", x, Const(1, INT), INT)
        right = Binary("sub", x, Const(1, INT), INT)
        table = ExprTable()
        table.add(left)
        before = len(table.nodes)
        table.add(right)
        # `x` is shared by identity and the two equal `Const(1)`s by
        # content, so only the new `sub` node lands.
        assert len(table.nodes) == before + 1
        decoded = decode_expr_table(table.nodes)
        assert decoded[-1] == right
        assert table.nodes.count(["v", "x", "int", 0, 10]) == 1
        assert table.nodes.count(["c", 1, "int"]) == 1

    def test_decoded_references_are_shared_objects(self):
        x = Var("x", INT, 0, 10)
        table = ExprTable()
        table.add(Binary("add", x, x, INT))
        decoded = decode_expr_table(table.nodes)
        top = decoded[-1]
        assert top.left is top.right

    def test_out_of_range_reference_rejected(self):
        with pytest.raises(CodecError):
            decode_expr_table([["u", "not", 5, "bool"]])

    def test_forward_reference_rejected(self):
        # children-before-parents is part of the format
        with pytest.raises(CodecError):
            decode_expr_table([["u", "not", 1, "bool"], ["c", True, "bool"]])

    def test_non_list_table_rejected(self):
        with pytest.raises(CodecError):
            decode_expr_table({"0": ["c", True, "bool"]})


class TestTargetKeyCodec:
    def test_branch_round_trip(self):
        assert decode_target_key(encode_target_key(("branch", 9))) == (
            "branch", 9,
        )

    def test_obligation_round_trip(self):
        obligation = ConditionObligation(3, 1, True, False)
        kind, decoded = decode_target_key(
            encode_target_key(("obligation", obligation))
        )
        assert kind == "obligation"
        assert decoded == obligation

    def test_malformed_key_rejected(self):
        with pytest.raises(CodecError):
            decode_target_key(["o", 1])


class TestEncodingCodec:
    @pytest.mark.parametrize(
        "build", [build_counter_model, build_queue_model]
    )
    def test_round_trip_matches_cold_build(self, build):
        compiled = build()
        encoding = OneStepEncoding(
            compiled, ModelState(compiled.initial_state())
        )
        table = ExprTable()
        payload = encode_encoding(encoding, table)
        exprs = decode_expr_table(table.nodes)
        decoded = decode_encoding(payload, compiled, exprs)
        assert decoded.state.values == encoding.state.values
        assert decoded._outcome_conditions == encoding._outcome_conditions
        assert decoded._condition_atoms == encoding._condition_atoms
        assert decoded.variables == encoding.variables

    def test_malformed_payload_rejected(self):
        compiled = build_counter_model()
        with pytest.raises(CodecError):
            decode_encoding(["not", "a", "dict"], compiled, [])
        with pytest.raises(CodecError):
            decode_encoding({"state": {}}, compiled, [])  # missing folds

    def test_out_of_range_node_reference_rejected(self):
        compiled = build_counter_model()
        encoding = OneStepEncoding(
            compiled, ModelState(compiled.initial_state())
        )
        table = ExprTable()
        payload = encode_encoding(encoding, table)
        with pytest.raises(CodecError):
            decode_encoding(payload, compiled, [])  # empty table


class TestSharedEncodingTable:
    """Encodings from the compiled encoder share their state-free parts
    (staged sub-DAGs) as objects, so one table holding several of them
    interns those nodes once.  The layout is smaller; the content is not
    allowed to change."""

    @staticmethod
    def _walk_encodings(compiled, steps=12):
        import random

        from repro.model.inputs import random_input
        from repro.model.simulator import Simulator

        rng = random.Random(3)
        simulator = Simulator(compiled)
        encodings = []
        for _ in range(steps):
            encodings.append(OneStepEncoding(compiled, simulator.get_state()))
            simulator.step(random_input(compiled.inports, rng))
        return encodings

    @pytest.mark.parametrize("name", ["AFC", "CPUTask", "Queue"])
    def test_round_trip_through_one_table(self, name):
        from repro.coverage.collector import CoverageCollector
        from repro.models.registry import get_benchmark

        compiled = (
            build_queue_model() if name == "Queue"
            else get_benchmark(name).build()
        )
        encodings = self._walk_encodings(compiled)
        table = ExprTable()
        payloads = [encode_encoding(e, table) for e in encodings]
        exprs = decode_expr_table(table.nodes)
        obligations = CoverageCollector(
            compiled.registry
        ).all_condition_obligations()
        for encoding, payload in zip(encodings, payloads):
            decoded = decode_encoding(payload, compiled, exprs)
            assert decoded._outcome_conditions == encoding._outcome_conditions
            assert decoded._condition_atoms == encoding._condition_atoms
            for decision_id, conditions in encoding._outcome_conditions.items():
                assert [encode_expr(c) for c in conditions] == [
                    encode_expr(c)
                    for c in decoded._outcome_conditions[decision_id]
                ]
            for branch in compiled.registry.branches:
                assert decoded.path_constraint(
                    branch
                ) == encoding.path_constraint(branch)
            for obligation in obligations:
                assert decoded.obligation_constraint(
                    obligation
                ) == encoding.obligation_constraint(obligation)

    def test_staged_nodes_are_interned_once(self):
        compiled = build_queue_model()
        encodings = self._walk_encodings(compiled)
        shared = ExprTable()
        for encoding in encodings:
            encode_encoding(encoding, shared)
        separate = 0
        for encoding in encodings:
            table = ExprTable()
            encode_encoding(encoding, table)
            separate += len(table.nodes)
        assert compiled.symbolic_kernel.staged_outcomes
        assert len(shared.nodes) < separate


class TestConstInterning:
    """Equal constants share one table node; constants that compare equal
    in Python but encode or behave differently stay apart."""

    PAIRS = [
        (Const(True, BOOL), Const(1, INT)),
        (Const(1, INT), Const(1.0, REAL)),
        (Const(True, BOOL), Const(1.0, REAL)),
        (Const(0.0, REAL), Const(-0.0, REAL)),
        (Const(math.nan, REAL), Const(math.inf, REAL)),
        (Const(math.inf, REAL), Const(-math.inf, REAL)),
        (Const((1, 2), ArrayType(INT, 2)), Const((1.0, 2.0), ArrayType(REAL, 2))),
    ]

    @staticmethod
    def _same(decoded, original):
        """Structural equality that also tells -0.0 and NaN apart."""
        return encode_expr(decoded) == encode_expr(original) and repr(
            decoded.value
        ) == repr(original.value)

    @pytest.mark.parametrize("left,right", PAIRS)
    def test_distinct_values_keep_distinct_nodes(self, left, right):
        table = ExprTable()
        # Fresh equal copies must land on the same two nodes.
        indices = [
            table.add(expr)
            for expr in (left, right, Const(left.value, left.ty),
                         Const(right.value, right.ty))
        ]
        assert len(table.nodes) == 2
        assert indices == [0, 1, 0, 1]
        decoded = decode_expr_table(table.nodes)
        assert self._same(decoded[0], left)
        assert self._same(decoded[1], right)
        assert type(decoded[0].value) is type(left.value)
        assert type(decoded[1].value) is type(right.value)

    def test_cputask_encodings_round_trip_with_a_smaller_table(self):
        from repro.coverage.collector import CoverageCollector
        from repro.models.registry import get_benchmark

        compiled = get_benchmark("CPUTask").build()
        encodings = TestSharedEncodingTable._walk_encodings(compiled)
        table = ExprTable()
        payloads = [encode_encoding(e, table) for e in encodings]
        by_identity = ExprTable()
        by_identity._consts = _NeverInterned()
        for encoding in encodings:
            encode_encoding(encoding, by_identity)
        assert len(table.nodes) < len(by_identity.nodes)
        exprs = decode_expr_table(table.nodes)
        obligations = CoverageCollector(
            compiled.registry
        ).all_condition_obligations()
        for encoding, payload in zip(encodings, payloads):
            decoded = decode_encoding(payload, compiled, exprs)
            for branch in compiled.registry.branches:
                assert encode_expr(decoded.path_constraint(branch)) == (
                    encode_expr(encoding.path_constraint(branch))
                )
            for obligation in obligations:
                assert encode_expr(
                    decoded.obligation_constraint(obligation)
                ) == encode_expr(encoding.obligation_constraint(obligation))


class _NeverInterned(dict):
    """A constant memo that forgets every entry: the identity-only table
    of earlier layouts, as a size baseline."""

    def __setitem__(self, key, value):
        pass


#: ``model_digest`` of every registry model.  The store layout may change
#: (a schema bump retires old documents); these digests may not, since
#: they are computed from the model and its one-step encoding alone.
MODEL_DIGESTS = {
    "CPUTask": "bd25fe597787256c976bb80e51b828521c26ca964cb93ffc61153e5f322524d3",
    "AFC": "490c7ea5800079d2dbe53c0bc6c5468a89f4c256f7c8862092509b3028146c73",
    "TWC": "932260bc26635f88150cb7afaeb50b87cfa75c05e82c8a18a1b1bb57a6ae263f",
    "NICProtocol": "db83fedb2a479438d46fa21ca82ba5218bfb8bd28866e11b04153c056badfd9f",
    "UTPC": "404b3cb1861c80bfd99d36552c977816109a101efbccd139d28d99cd9c6ed643",
    "LANSwitch": "ba01c1f3bfa94447fab8da8e283d3224f203f0b7df2741a5e015d78fa1e86bd7",
    "LEDLC": "087a783360c752bc9f15e9e5e0de8a5dd28e6034955c7f0fc1546583d7ba7de7",
    "TCP": "2063c9170030591a2ea83e365b9037c96e162311b63249c956d71732f3b036ad",
}


@pytest.mark.parametrize("name", sorted(MODEL_DIGESTS))
def test_model_digest_is_pinned(name):
    from repro.models.registry import get_benchmark
    from repro.store import model_digest

    assert model_digest(get_benchmark(name).build()) == MODEL_DIGESTS[name]
