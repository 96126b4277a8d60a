"""Store integrity: every corruption mode degrades to a cold start.

The warm-start store must never take a generation run down.  These
tests feed the loader truncated files, garbage, schema bumps, and
digest mismatches, and assert the run (a) completes with cold-run
results and (b) counts ``store_rejected`` so the degradation is
observable.
"""

import json
import os

import pytest

from repro.cache import SolveCache
from repro.core.config import StcgConfig, StoreConfig
from repro.core.stcg import StcgGenerator
from repro.store import STORE_SCHEMA, WarmStore, config_digest, model_digest
from tests.conftest import build_counter_model
from repro.expr.types import INT
from repro.model import ModelBuilder


def _config(tmp_path, **kwargs):
    return StcgConfig(
        budget_s=1.0,
        seed=3,
        store=StoreConfig(path=str(tmp_path)),
        **kwargs,
    )


def _run(tmp_path, build=build_counter_model, **kwargs):
    gen = StcgGenerator(build(), _config(tmp_path, **kwargs))
    result = gen.run()
    return gen, result


def _store_files(tmp_path):
    return sorted(
        p for p in os.listdir(tmp_path) if p.endswith(".json")
    )


class TestLifecycle:
    def test_cold_miss_then_write(self, tmp_path):
        gen, _ = _run(tmp_path)
        assert gen.stats["store_misses"] == 1
        assert gen.stats["store_hits"] == 0
        assert gen.stats["store_writes"] == 1
        assert len(_store_files(tmp_path)) == 1

    def test_second_run_hits_and_is_identical(self, tmp_path):
        _, cold = _run(tmp_path)
        gen, warm = _run(tmp_path)
        assert gen.stats["store_hits"] == 1
        assert gen.stats["restored_verdicts"] > 0
        assert [c.inputs for c in warm.suite] == [
            c.inputs for c in cold.suite
        ]

    def test_unchanged_warm_rerun_skips_the_write(self, tmp_path):
        _run(tmp_path)
        gen, _ = _run(tmp_path)
        # Nothing was learned beyond the restored folds, so saving
        # again would only rewrite the same document.
        assert gen.stats["store_hits"] == 1
        assert gen.stats["store_writes"] == 0

    def test_read_flag_off_never_touches_the_store(self, tmp_path):
        _run(tmp_path)
        config = StcgConfig(
            budget_s=1.0, seed=3,
            store=StoreConfig(path=str(tmp_path), read=False),
        )
        gen = StcgGenerator(build_counter_model(), config)
        gen.run()
        assert gen.stats["store_reads"] == 0
        assert gen.stats["store_hits"] == 0

    def test_write_flag_off_never_writes(self, tmp_path):
        config = StcgConfig(
            budget_s=1.0, seed=3,
            store=StoreConfig(path=str(tmp_path), write=False),
        )
        gen = StcgGenerator(build_counter_model(), config)
        gen.run()
        assert gen.stats["store_writes"] == 0
        assert _store_files(tmp_path) == []

    def test_seed_scopes_to_distinct_documents(self, tmp_path):
        _run(tmp_path)
        gen = StcgGenerator(
            build_counter_model(),
            StcgConfig(budget_s=1.0, seed=4,
                       store=StoreConfig(path=str(tmp_path))),
        )
        gen.run()
        assert gen.stats["store_misses"] == 1  # other seed's doc ignored
        assert len(_store_files(tmp_path)) == 2


def _corrupt(tmp_path, mutate):
    """Apply ``mutate(document) -> text`` to the single stored file."""
    (name,) = _store_files(tmp_path)
    path = os.path.join(str(tmp_path), name)
    with open(path) as handle:
        document = json.load(handle)
    with open(path, "w") as handle:
        handle.write(mutate(document))


def _expect_cold_fallback(tmp_path, cold_suite):
    gen, result = _run(tmp_path)
    assert gen.stats["store_hits"] == 0
    assert gen.stats["store_rejected"] == 1
    assert gen.stats["restored_verdicts"] == 0
    # Degraded run is exactly the cold run.
    assert [c.inputs for c in result.suite] == cold_suite
    return gen


class TestCorruption:
    def test_truncated_file_degrades_to_cold(self, tmp_path):
        _, cold = _run(tmp_path)
        cold_suite = [c.inputs for c in cold.suite]
        _corrupt(tmp_path, lambda doc: json.dumps(doc)[: 200])
        _expect_cold_fallback(tmp_path, cold_suite)

    def test_garbage_file_degrades_to_cold(self, tmp_path):
        _, cold = _run(tmp_path)
        cold_suite = [c.inputs for c in cold.suite]
        _corrupt(tmp_path, lambda doc: "\x00not json at all")
        _expect_cold_fallback(tmp_path, cold_suite)

    def test_schema_bump_retires_the_document(self, tmp_path):
        _, cold = _run(tmp_path)
        cold_suite = [c.inputs for c in cold.suite]

        def bump(doc):
            doc["schema"] = "repro.store/0"
            return json.dumps(doc)

        _corrupt(tmp_path, bump)
        _expect_cold_fallback(tmp_path, cold_suite)

    def test_model_digest_mismatch_rejected(self, tmp_path):
        _, cold = _run(tmp_path)
        cold_suite = [c.inputs for c in cold.suite]

        def tamper(doc):
            doc["model_digest"] = "0" * 64
            return json.dumps(doc)

        _corrupt(tmp_path, tamper)
        _expect_cold_fallback(tmp_path, cold_suite)

    def test_config_digest_mismatch_rejected(self, tmp_path):
        _, cold = _run(tmp_path)
        cold_suite = [c.inputs for c in cold.suite]

        def tamper(doc):
            doc["config_digest"] = "f" * 64
            return json.dumps(doc)

        _corrupt(tmp_path, tamper)
        _expect_cold_fallback(tmp_path, cold_suite)

    def test_malformed_folds_degrade_to_cold(self, tmp_path):
        """Valid envelope, garbage payload: decode-then-apply protects
        the cache, so the run is still exactly cold."""
        _, cold = _run(tmp_path)
        cold_suite = [c.inputs for c in cold.suite]

        def scramble(doc):
            doc["payload"]["cache"]["verdicts"] = [[999999, ["b", 1], True]]
            return json.dumps(doc)

        _corrupt(tmp_path, scramble)
        _expect_cold_fallback(tmp_path, cold_suite)

    def test_malformed_encoding_table_degrades_to_cold(self, tmp_path):
        _, cold = _run(tmp_path)
        cold_suite = [c.inputs for c in cold.suite]

        def scramble(doc):
            doc["payload"]["cache"]["encodings"]["table"] = {"bad": 1}
            return json.dumps(doc)

        _corrupt(tmp_path, scramble)
        _expect_cold_fallback(tmp_path, cold_suite)

    def test_payload_not_a_dict_rejected(self, tmp_path):
        _, cold = _run(tmp_path)
        cold_suite = [c.inputs for c in cold.suite]

        def scramble(doc):
            doc["payload"] = [1, 2, 3]
            return json.dumps(doc)

        _corrupt(tmp_path, scramble)
        _expect_cold_fallback(tmp_path, cold_suite)


class TestTargetTableLayout:
    """``repro.store/2`` folds refer to the ``fps`` and ``targets`` tables
    by index; every way an index, a row or a table can be wrong must
    degrade to an exactly-cold run."""

    @staticmethod
    def _cold(tmp_path):
        _, cold = _run(tmp_path)
        (name,) = _store_files(tmp_path)
        with open(os.path.join(str(tmp_path), name)) as handle:
            folds = json.load(handle)["payload"]["cache"]
        assert folds["verdicts"] and folds["targets"]
        return [c.inputs for c in cold.suite]

    @staticmethod
    def _tamper_folds(tmp_path, edit):
        def mutate(doc):
            edit(doc["payload"]["cache"])
            return json.dumps(doc)

        _corrupt(tmp_path, mutate)

    def test_layout_is_flat_int_rows_over_tables(self, tmp_path):
        _run(tmp_path)
        (name,) = _store_files(tmp_path)
        with open(os.path.join(str(tmp_path), name)) as handle:
            document = json.load(handle)
        assert document["schema"] == STORE_SCHEMA == "repro.store/2"
        folds = document["payload"]["cache"]
        assert len(folds["verdicts"]) % 3 == 0
        assert all(type(x) is int for x in folds["verdicts"])
        assert len(folds["markers"]) % 2 == 0
        keys = [json.dumps(key) for key in folds["targets"]]
        assert len(set(keys)) == len(keys)  # each target stored once

    def test_verdict_length_not_a_multiple_of_three(self, tmp_path):
        cold = self._cold(tmp_path)
        self._tamper_folds(
            tmp_path, lambda f: f.update(verdicts=f["verdicts"][:-1])
        )
        _expect_cold_fallback(tmp_path, cold)

    def test_target_index_out_of_range(self, tmp_path):
        cold = self._cold(tmp_path)

        def edit(folds):
            folds["verdicts"][1] = len(folds["targets"])

        self._tamper_folds(tmp_path, edit)
        _expect_cold_fallback(tmp_path, cold)

    def test_negative_target_index(self, tmp_path):
        cold = self._cold(tmp_path)

        def edit(folds):
            folds["verdicts"][-2] = -1

        self._tamper_folds(tmp_path, edit)
        _expect_cold_fallback(tmp_path, cold)

    def test_fingerprint_index_out_of_range(self, tmp_path):
        cold = self._cold(tmp_path)

        def edit(folds):
            folds["verdicts"][-3] = len(folds["fps"])

        self._tamper_folds(tmp_path, edit)
        _expect_cold_fallback(tmp_path, cold)

    @pytest.mark.parametrize("element", [True, 1.0, "0", None, [0]])
    def test_non_int_row_element(self, tmp_path, element):
        cold = self._cold(tmp_path)

        def edit(folds):
            folds["verdicts"][2] = element

        self._tamper_folds(tmp_path, edit)
        _expect_cold_fallback(tmp_path, cold)

    def test_verdict_flag_out_of_range(self, tmp_path):
        cold = self._cold(tmp_path)

        def edit(folds):
            folds["verdicts"][2] = 2

        self._tamper_folds(tmp_path, edit)
        _expect_cold_fallback(tmp_path, cold)

    @pytest.mark.parametrize(
        "entry", [["o", 1], ["b", "1"], ["o", 0, 0, 1, 0], "b", ["x", 1], []]
    )
    def test_malformed_targets_entry(self, tmp_path, entry):
        cold = self._cold(tmp_path)

        def edit(folds):
            folds["targets"][0] = entry

        self._tamper_folds(tmp_path, edit)
        _expect_cold_fallback(tmp_path, cold)

    def test_non_list_targets(self, tmp_path):
        cold = self._cold(tmp_path)

        def edit(folds):
            folds["targets"] = {
                str(i): key for i, key in enumerate(folds["targets"])
            }

        self._tamper_folds(tmp_path, edit)
        _expect_cold_fallback(tmp_path, cold)

    def test_marker_index_out_of_range(self, tmp_path):
        cold = self._cold(tmp_path)

        def edit(folds):
            folds["markers"] = [0, len(folds["targets"])]

        self._tamper_folds(tmp_path, edit)
        _expect_cold_fallback(tmp_path, cold)

    def test_round_trip_keeps_every_order(self):
        """``_dead`` in insertion order, markers in LRU order and the
        snapshots all come back exactly, through JSON."""
        from repro.coverage.collector import ConditionObligation
        from repro.solver.interval import Interval

        ob = ConditionObligation(2, 1, False, True)
        donor = SolveCache("M", compiled_capacity=8)
        dead = [
            (("fp2", ("obligation", ob)), True),
            (("fp0", ("branch", 4)), False),
            (("fp1", ("obligation", ob)), False),
            (("fp0", ("branch", 1)), True),
            (("fp2", ("branch", 4)), True),
        ]
        for (fingerprint, key), counts_failure in dead:
            donor.mark_dead(fingerprint, key, counts_failure=counts_failure)
        markers = [("fp1", ("branch", 7)), ("fp0", ("obligation", ob)),
                   ("fp3", ("branch", 4))]
        for fingerprint, key in markers:
            donor.compiled_constraint(fingerprint, key, lambda: None)
        # Touch the first marker again: it becomes most recently used.
        donor.compiled.get(markers[0])
        snapshots = {
            ("fp3", ("obligation", ob)): (False, {"u": Interval(-1.5, 2.0)}),
            ("fp0", ("branch", 1)): (True, {"x": Interval(0.0, 4.0)}),
        }
        donor._restored_contraction.update(snapshots)
        folds = json.loads(json.dumps(donor.export_folds()))
        assert len(folds["targets"]) == 4

        restored = SolveCache("M", compiled_capacity=8)
        counts = restored.restore_folds(folds, build_counter_model())
        assert counts == {
            "verdicts": 5, "markers": 3, "snapshots": 2, "encodings": 0,
        }
        assert list(restored._dead.items()) == dead
        assert [k for k, _ in restored.compiled.items()] == (
            markers[1:] + markers[:1]
        )
        assert {
            key: (feasible, {n: (i.lo, i.hi) for n, i in box.items()})
            for key, (feasible, box) in restored._restored_contraction.items()
        } == {
            ("fp3", ("obligation", ob)): (False, {"u": (-1.5, 2.0)}),
            ("fp0", ("branch", 1)): (True, {"x": (0.0, 4.0)}),
        }
        # One object per target, shared by every row that names it.
        obligation_keys = [
            key for (_, key) in restored._dead if key[0] == "obligation"
        ]
        assert obligation_keys[0][1] is obligation_keys[1][1]


def _threshold_model(threshold):
    """build_counter_model with a configurable guard constant."""
    b = ModelBuilder("Counter")
    from repro.expr.types import BOOL

    tick = b.inport("tick", BOOL)
    amount = b.inport("amount", INT, 0, 10)
    b.data_store("count", INT, 0)
    count = b.store_read("count")
    new_count = b.switch(tick, b.add(count, amount), count, name="tick_gate")
    b.store_write("count", new_count)
    high = b.compare(new_count, ">", threshold, name="is_high")
    level = b.switch(high, b.const(2), b.const(1), name="level")
    b.outport("level", level)
    b.outport("count", new_count)
    return b.compile()


class TestDigests:
    def test_model_edit_changes_the_digest(self):
        """Same structure, different guard constant — the one-step
        semantics fold must catch it."""
        assert model_digest(_threshold_model(15)) != model_digest(
            _threshold_model(16)
        )

    def test_identical_builds_share_a_digest(self):
        assert model_digest(_threshold_model(15)) == model_digest(
            _threshold_model(15)
        )

    def test_model_edit_invalidates_stored_state(self, tmp_path):
        """Warm-start against an edited model is a miss or a rejection,
        never a hit — the old folds must not leak into the new model."""
        config = StcgConfig(
            budget_s=1.0, seed=3, store=StoreConfig(path=str(tmp_path))
        )
        StcgGenerator(_threshold_model(15), config).run()
        gen = StcgGenerator(_threshold_model(16), config)
        gen.run()
        assert gen.stats["store_hits"] == 0
        assert gen.stats["restored_verdicts"] == 0

    def test_config_edit_changes_the_digest(self):
        from repro.core.config import CacheConfig

        base = StcgConfig(budget_s=1.0, seed=0)
        ablated = StcgConfig(
            budget_s=1.0, seed=0, caches=CacheConfig(verdicts=False)
        )
        assert config_digest(base) != config_digest(ablated)

    def test_budget_and_seed_do_not_change_the_digest(self):
        a = StcgConfig(budget_s=1.0, seed=0)
        b = StcgConfig(budget_s=99.0, seed=123)
        assert config_digest(a) == config_digest(b)


class TestWarmStoreUnit:
    def test_missing_file_is_a_miss(self, tmp_path):
        store = WarmStore(
            StoreConfig(path=str(tmp_path)),
            build_counter_model(),
            StcgConfig(budget_s=1.0),
            scope="unit",
        )
        payload, status = store.load()
        assert payload is None and status == "miss"

    def test_save_then_load_round_trips(self, tmp_path):
        store = WarmStore(
            StoreConfig(path=str(tmp_path)),
            build_counter_model(),
            StcgConfig(budget_s=1.0),
            scope="unit",
        )
        assert store.save({"k": [1, 2, {"v": True}]})
        payload, status = store.load()
        assert status == "hit"
        assert payload == {"k": [1, 2, {"v": True}]}

    def test_save_into_unwritable_directory_returns_false(self, tmp_path):
        blocked = os.path.join(str(tmp_path), "file-not-dir")
        with open(blocked, "w") as handle:
            handle.write("x")
        store = WarmStore(
            StoreConfig(path=os.path.join(blocked, "nested")),
            build_counter_model(),
            StcgConfig(budget_s=1.0),
            scope="unit",
        )
        assert store.save({"k": 1}) is False

    def test_no_tmp_litter_after_save(self, tmp_path):
        store = WarmStore(
            StoreConfig(path=str(tmp_path)),
            build_counter_model(),
            StcgConfig(budget_s=1.0),
            scope="unit",
        )
        store.save({"k": 1})
        assert all(".tmp." not in name for name in os.listdir(tmp_path))

    def test_scope_discriminates_keys(self, tmp_path):
        compiled = build_counter_model()
        config = StcgConfig(budget_s=1.0)
        store_config = StoreConfig(path=str(tmp_path))
        a = WarmStore(store_config, compiled, config, scope="STCG|seed=0")
        b = WarmStore(store_config, compiled, config, scope="Fuzz|seed=0")
        assert a.key != b.key
        assert a.path != b.path

    def test_schema_constant_is_versioned(self):
        assert STORE_SCHEMA.startswith("repro.store/")


class TestLRUOrderAfterRestore:
    def test_markers_restore_in_eviction_order(self):
        """A restore must reproduce the donor's LRU order: the entry the
        donor would evict next is the entry the restored cache evicts
        next."""
        donor = SolveCache("M", compiled_capacity=8)
        order = [("fp%d" % i, ("branch", i)) for i in range(4)]
        for fingerprint, key in order:
            donor.compiled_constraint(fingerprint, key, lambda: None)
        folds = donor.export_folds()

        restored = SolveCache("M", compiled_capacity=4)
        restored.restore_folds(folds, build_counter_model())
        assert [k for k, _ in restored.compiled.items()] == [
            (fp, key) for fp, key in order
        ]
        # One insert over capacity evicts the donor's oldest entry.
        restored.compiled.put(("fresh", ("branch", 99)), None)
        remaining = [k for k, _ in restored.compiled.items()]
        assert (order[0][0], order[0][1]) not in remaining
        assert (order[1][0], order[1][1]) in remaining

    def test_encodings_restore_in_eviction_order(self):
        compiled = build_counter_model()
        from repro.model.state import ModelState
        from repro.solver.encoder import OneStepEncoding

        donor = SolveCache("M", encoding_capacity=8)
        state = ModelState(compiled.initial_state())
        fingerprints = []
        for index in range(3):
            fingerprint = f"enc{index}"
            fingerprints.append(fingerprint)
            donor.encoding(
                fingerprint,
                lambda state=state: OneStepEncoding(compiled, state),
            )
        folds = donor.export_folds()
        restored = SolveCache("M", encoding_capacity=3)
        restored.restore_folds(folds, compiled)
        assert [k for k, _ in restored.encodings.items()] == fingerprints
        restored.encodings.put("fresh", None)
        assert fingerprints[0] not in restored.encodings
        assert fingerprints[1] in restored.encodings


class TestSnapshotFold:
    """CPUTask-style runs retire most solve keys after one visit, so
    contraction snapshots rarely appear organically — exercise the fold
    synthetically."""

    def _snapshot_folds(self):
        from repro.solver.interval import Interval

        donor = SolveCache("M")
        donor._restored_contraction[("fp0", ("branch", 1))] = (
            True,
            {"x": Interval(0.0, 4.0), "y": Interval(-1.0, 1.0)},
        )
        return donor.export_folds()

    def test_snapshots_round_trip(self):
        folds = self._snapshot_folds()
        assert len(folds["snapshots"]) == 1
        restored = SolveCache("M")
        counts = restored.restore_folds(folds, build_counter_model())
        assert counts["snapshots"] == 1
        (feasible, snapshot) = restored._restored_contraction[
            ("fp0", ("branch", 1))
        ]
        assert feasible is True
        assert snapshot["x"].lo == 0.0 and snapshot["x"].hi == 4.0

    def test_unconsumed_snapshots_carry_forward(self):
        """export → restore → export again must not drop a snapshot the
        intermediate run never consumed."""
        folds = self._snapshot_folds()
        middle = SolveCache("M")
        middle.restore_folds(folds, build_counter_model())
        again = middle.export_folds()
        assert len(again["snapshots"]) == 1

    def test_verdicts_not_restored_when_disabled(self):
        donor = SolveCache("M")
        donor.mark_dead("fp", ("branch", 1), counts_failure=True)
        folds = donor.export_folds()
        restored = SolveCache("M", verdicts=False)
        counts = restored.restore_folds(folds, build_counter_model())
        assert counts["verdicts"] == 0
        assert restored.dead_verdict("fp", ("branch", 1)) is None
