"""Tests for the per-model SolveCache bundle."""

from repro.cache import CACHEABLE_UNSAT_STAGES, SolveCache


class TestEncodingCache:
    def test_factory_called_once_per_fingerprint(self):
        cache = SolveCache("M")
        built = []

        def factory():
            built.append(1)
            return object()

        first = cache.encoding("fp1", factory)
        second = cache.encoding("fp1", factory)
        assert first is second
        assert len(built) == 1
        assert cache.encoding("fp2", factory) is not first
        assert len(built) == 2

    def test_zero_capacity_always_rebuilds(self):
        cache = SolveCache("M", encoding_capacity=0)
        built = []

        def factory():
            built.append(1)
            return object()

        cache.encoding("fp1", factory)
        cache.encoding("fp1", factory)
        assert len(built) == 2
        assert cache.stats()["encoding_hits"] == 0

    def test_bounded_capacity_evicts(self):
        cache = SolveCache("M", encoding_capacity=2)
        for index in range(4):
            cache.encoding(f"fp{index}", object)
        stats = cache.stats()
        assert stats["encoding_evictions"] == 2
        assert stats["encoding_misses"] == 4


class TestVerdictCache:
    def test_unknown_pair_is_none(self):
        cache = SolveCache("M")
        assert cache.dead_verdict("fp", ("branch", 3)) is None
        assert cache.stats()["verdict_hits"] == 0

    def test_mark_and_hit_carries_failure_flag(self):
        cache = SolveCache("M")
        cache.mark_dead("fp", ("branch", 3), counts_failure=True)
        cache.mark_dead("fp", ("branch", 4), counts_failure=False)
        assert cache.dead_verdict("fp", ("branch", 3)) is True
        assert cache.dead_verdict("fp", ("branch", 4)) is False
        assert cache.stats()["verdict_hits"] == 2
        assert cache.verdict_entries == 2

    def test_pairs_are_independent(self):
        cache = SolveCache("M")
        cache.mark_dead("fp", ("branch", 3), counts_failure=True)
        assert cache.dead_verdict("fp", ("branch", 4)) is None
        assert cache.dead_verdict("other", ("branch", 3)) is None

    def test_disabled_verdicts_record_nothing(self):
        cache = SolveCache("M", verdicts=False)
        cache.mark_dead("fp", ("branch", 3), counts_failure=True)
        assert cache.dead_verdict("fp", ("branch", 3)) is None
        assert cache.verdict_entries == 0

    def test_cacheable_stages_are_the_draw_free_ones(self):
        # The soundness argument (DESIGN.md) only covers stages that run
        # before any randomized sampling; "split" must never appear here.
        assert CACHEABLE_UNSAT_STAGES == ("fold", "contract")


class TestStatsAndClear:
    def test_stats_key_set(self):
        cache = SolveCache("M")
        assert sorted(cache.stats()) == [
            "compiled_evictions",
            "compiled_hits",
            "compiled_misses",
            "encoding_evictions",
            "encoding_hits",
            "encoding_misses",
            "verdict_entries",
            "verdict_hits",
        ]

    def test_clear_drops_entries(self):
        cache = SolveCache("M")
        cache.encoding("fp", object)
        cache.mark_dead("fp", ("branch", 1), counts_failure=True)
        cache.clear()
        assert cache.verdict_entries == 0
        built = []
        cache.encoding("fp", lambda: built.append(1))
        assert built == [1]


class TestClearDropsRestoredState:
    """A cleared cache must not carry restored contraction snapshots
    into its next export or into bundles it compiles later."""

    @staticmethod
    def _restored_cache():
        from repro.solver.interval import Interval
        from tests.conftest import build_counter_model

        donor = SolveCache("M")
        donor._restored_contraction[("fp0", ("branch", 1))] = (
            True,
            {"x": Interval(0.0, 4.0)},
        )
        donor.mark_dead("fp0", ("branch", 2), counts_failure=True)
        donor.compiled_constraint("fp0", ("branch", 3), lambda: None)
        cache = SolveCache("M")
        counts = cache.restore_folds(donor.export_folds(), build_counter_model())
        assert counts["snapshots"] == counts["verdicts"] == 1
        assert counts["markers"] == 1
        return cache

    def test_export_after_clear_holds_nothing(self):
        cache = self._restored_cache()
        cache.clear()
        folds = cache.export_folds()
        assert folds["snapshots"] == []
        assert folds["verdicts"] == []
        assert folds["markers"] == []

    def test_bundle_compiled_after_clear_has_no_restored_contraction(self):
        class Bundle:
            contract_result = None

        cache = self._restored_cache()
        cache.clear()
        key = ("fp0", ("branch", 1))
        assert cache.compiled_constraint(*key, Bundle) is None
        bundle = cache.compiled_constraint(*key, Bundle)
        assert isinstance(bundle, Bundle)
        assert bundle.contract_result is None
