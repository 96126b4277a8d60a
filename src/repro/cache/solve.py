"""Fingerprint-keyed caches for the STCG solve hot path.

One :class:`SolveCache` serves one model (its ``model_key``) and bundles
the two memoizations Algorithm 1 profits from:

* the **encoding cache** — a bounded LRU from state fingerprint to
  :class:`~repro.solver.encoder.OneStepEncoding`.  Building an encoding is
  a full symbolic execution of the model; revisiting a tree node whose
  state was already encoded is a dictionary lookup instead.
* the **verdict cache** — (state fingerprint, solve target) pairs the
  solver *refuted deterministically*.  A later attempt on the same pair
  (typically a fresh generator re-solving the same cell, or a new tree
  node that reaches an already-known state) skips the solver call
  entirely.
* the **compiled-constraint cache** — a bounded LRU from (state
  fingerprint, solve target) to the solver kernel's
  :class:`~repro.solverc.compiler.CompiledConstraint` bundle.  The
  one-step constraint is a pure function of that key, so the compiled
  contractor, distance closures, batch tapes — and the cached
  contraction *result* the bundle carries — replay exactly.

Cache-key soundness (see DESIGN.md for the full argument): a one-step
constraint is a pure function of (model, state value, target), so the
fingerprint fully determines it.  An UNSAT verdict is a *proof* — it holds
for every input, independent of search randomness — so it may be cached
per (fingerprint, target) forever.  UNKNOWN is a *budget artifact* (the
search ran out of samples or time) and must stay retryable; it is never
cached.  SAT is not cached either: the generator wants fresh, diverse
models, and a SAT branch leaves the uncovered set immediately anyway.

Only verdicts from the randomness-free pipeline stages
(:data:`CACHEABLE_UNSAT_STAGES`) are recorded: a ``fold``/``contract``
refutation consumes zero RNG draws, so skipping its replay leaves the
generator's random stream — and therefore every downstream decision —
bit-identical.  A ``split``-stage UNSAT is only reached *after* the
randomized sampling stage has consumed draws; caching it would make a warm
run diverge from a cold one, so it is deliberately left out.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cache.lru import LRUCache

__all__ = [
    "CACHEABLE_UNSAT_STAGES",
    "DEFAULT_COMPILED_CAPACITY",
    "DEFAULT_ENCODING_CAPACITY",
    "SolveCache",
]

#: Solver stages whose UNSAT verdicts are deterministic *and* consume no
#: RNG draws — the two properties that make them safe to cache without
#: perturbing a fixed-seed run (``canonical_stage`` tags).
CACHEABLE_UNSAT_STAGES = ("fold", "contract")

#: Default bound of the encoding LRU (``CacheConfig.encoding_size``).
DEFAULT_ENCODING_CAPACITY = 512

#: Default bound of the compiled-constraint LRU
#: (``CacheConfig.compiled_size``).
DEFAULT_COMPILED_CAPACITY = 256

#: Marker for a (fingerprint, target) key seen exactly once — see
#: :meth:`SolveCache.compiled_constraint`.
_FIRST_VISIT = object()


class SolveCache:
    """Encoding + verdict caches for one model, keyed by state fingerprint.

    Instances are cheap and by default private to one generator; passing
    the same instance to several generators of the *same compiled model*
    (repeated repetitions of a matrix cell, a re-run of an experiment)
    shares the learned encodings and dead verdicts across runs.  The cache
    is observationally transparent: with it warm or cold, a fixed-seed
    generation run produces bit-identical suites and coverage.
    """

    __slots__ = (
        "model_key",
        "encodings",
        "compiled",
        "verdicts_enabled",
        "verdict_hits",
        "_dead",
        "_restored_contraction",
    )

    def __init__(
        self,
        model_key: str,
        *,
        encoding_capacity: int = DEFAULT_ENCODING_CAPACITY,
        compiled_capacity: int = DEFAULT_COMPILED_CAPACITY,
        verdicts: bool = True,
    ):
        self.model_key = str(model_key)
        self.encodings = LRUCache(encoding_capacity)
        self.compiled = LRUCache(compiled_capacity)
        self.verdicts_enabled = bool(verdicts)
        self.verdict_hits = 0
        #: (fingerprint, target key) -> whether the refutation counted as
        #: a solver failure when first seen (a skip must replicate the
        #: failure-backoff bookkeeping exactly to stay transparent).
        self._dead: Dict[Tuple[str, object], bool] = {}
        #: Contraction results restored from the warm-start store, keyed
        #: like ``compiled`` and attached to a bundle the moment the
        #: factory builds it (see :meth:`compiled_constraint`).
        self._restored_contraction: Dict[tuple, tuple] = {}

    # -- encodings -----------------------------------------------------

    def encoding(self, fingerprint: str, factory):
        """The cached one-step encoding for ``fingerprint``, else build it.

        ``factory`` is a zero-argument callable; a rebuild after eviction
        is deterministic, so a bounded cache never changes results — only
        how often the symbolic executor runs.
        """
        encoding = self.encodings.get(fingerprint)
        if encoding is None:
            encoding = factory()
            self.encodings.put(fingerprint, encoding)
        return encoding

    # -- compiled constraints ------------------------------------------

    def compiled_constraint(self, fingerprint: str, target_key, factory):
        """The cached solver-kernel bundle for (fingerprint, target).

        Compilation is deferred to the *second* visit of a key: most
        (state, target) pairs are solved exactly once per run (the
        verdict cache retires dead pairs, SAT retires the target), so a
        first visit only leaves a marker and returns ``None``.  The
        caller then solves without a bundle: no contraction snapshot and
        no batch tape, and a kernel engine compiles only the scalar
        objective, only for a solve that passes contraction (about 98 %
        of first visits end there on the to-full workloads).
        A revisit calls ``factory`` to build the
        :class:`~repro.solverc.compiler.CompiledConstraint` and every
        visit after that reuses it, contraction snapshots included.

        The constraint is a pure function of the key, so a rebuild after
        eviction is deterministic — the bound changes how often the
        compiler runs, never what the solver returns.
        """
        key = (fingerprint, target_key)
        entry = self.compiled.get(key)
        if entry is None:
            self.compiled.put(key, _FIRST_VISIT)
            return None
        if entry is _FIRST_VISIT:
            entry = factory()
            if self._restored_contraction:
                # A warm-started bundle replays the previous run's
                # contraction result — a pure function of the constraint
                # and the initial box, so attaching it is equivalent to
                # the bundle having computed it on this visit.
                cached = self._restored_contraction.pop(key, None)
                if cached is not None and entry.contract_result is None:
                    entry.contract_result = cached
            self.compiled.put(key, entry)
        return entry

    # -- verdicts ------------------------------------------------------

    def dead_verdict(self, fingerprint: str, target_key) -> Optional[bool]:
        """``None`` if the pair is not known dead; else whether the
        original refutation counted toward failure backoff."""
        counts_failure = self._dead.get((fingerprint, target_key))
        if counts_failure is not None:
            self.verdict_hits += 1
        return counts_failure

    def mark_dead(
        self, fingerprint: str, target_key, *, counts_failure: bool
    ) -> None:
        """Record a deterministic refutation of (state, target)."""
        if self.verdicts_enabled:
            self._dead[(fingerprint, target_key)] = counts_failure

    @property
    def verdict_entries(self) -> int:
        return len(self._dead)

    # -- warm-start store folds ----------------------------------------

    def export_folds(self) -> Dict[str, object]:
        """The cache's persistable derived state (see :mod:`repro.store`).

        Four folds: dead verdicts, compiled-LRU keys (persisted as
        first-visit *markers* — a warm run recompiles the bundle, which
        is pinned bit-identical to interpreting), the contraction
        snapshots those bundles carried, and the one-step encodings.
        Fingerprints and solve targets are stored once each, in the
        ``fps`` and ``targets`` tables, and every fold refers to them by
        index: a verdict is three ints ``fp, target, counts_failure`` in
        one flat list, a marker two.  LRU folds are emitted in eviction
        order so a restore reproduces the original eviction behaviour
        exactly.  Export reads the LRUs through
        :meth:`~repro.cache.lru.LRUCache.items` — no counter or recency
        traffic, so exporting is pure observation.
        """
        from repro.store.codec import (
            ExprTable,
            encode_encoding,
            encode_target_key,
        )

        fps: list = []
        fp_index: Dict[str, int] = {}
        targets: list = []
        target_index: Dict[object, int] = {}

        def fp(fingerprint: str) -> int:
            index = fp_index.get(fingerprint)
            if index is None:
                index = fp_index[fingerprint] = len(fps)
                fps.append(fingerprint)
            return index

        def target(target_key) -> int:
            index = target_index.get(target_key)
            if index is None:
                index = target_index[target_key] = len(targets)
                targets.append(encode_target_key(target_key))
            return index

        def snapshot_row(key, contract_result) -> list:
            feasible, snapshot = contract_result
            box = {name: [iv.lo, iv.hi] for name, iv in snapshot.items()}
            return [fp(key[0]), target(key[1]), bool(feasible), box]

        verdicts: list = []
        for (fingerprint, target_key), counts_failure in self._dead.items():
            verdicts += (fp(fingerprint), target(target_key), int(counts_failure))
        markers: list = []
        snapshots = []
        for key, entry in self.compiled.items():
            markers += (fp(key[0]), target(key[1]))
            contract_result = getattr(entry, "contract_result", None)
            if contract_result is not None:
                snapshots.append(snapshot_row(key, contract_result))
        # Pending restored snapshots that were never consumed this run
        # are still valid — carry them forward instead of dropping them.
        for key, contract_result in self._restored_contraction.items():
            snapshots.append(snapshot_row(key, contract_result))
        table = ExprTable()
        items = [
            [fp(fingerprint), encode_encoding(encoding, table)]
            for fingerprint, encoding in self.encodings.items()
        ]
        return {
            "fps": fps,
            "targets": targets,
            "verdicts": verdicts,
            "markers": markers,
            "snapshots": snapshots,
            "encodings": {"table": table.nodes, "items": items},
        }

    def restore_folds(self, payload, compiled_model) -> Dict[str, int]:
        """Load :meth:`export_folds` output; returns per-fold counts.

        Decode-then-apply: every artifact is decoded into staging lists
        first — row widths, every table index and every element type are
        checked — so a malformed payload raises *before* the cache
        mutates and the caller can fall back to a fully cold start.  Each
        target is decoded once and its object shared by all its rows.
        """
        from repro.solver.interval import Interval
        from repro.store.codec import (
            CodecError,
            decode_encoding,
            decode_expr_table,
            decode_target_key,
        )

        fps = payload.get("fps", [])
        if not isinstance(fps, list) or not all(
            type(fingerprint) is str for fingerprint in fps
        ):
            raise CodecError("malformed fps table")
        raw_targets = payload.get("targets", [])
        if not isinstance(raw_targets, list):
            raise CodecError(f"malformed targets table {type(raw_targets).__name__}")
        targets = [decode_target_key(key) for key in raw_targets]

        def columns(name: str, width: int) -> list:
            """A flat int fold split into its ``width`` columns, with the
            fingerprint and target columns resolved."""
            flat = payload.get(name, [])
            if not isinstance(flat, list) or len(flat) % width:
                raise CodecError(f"malformed {name} fold")
            if not set(map(type, flat)) <= {int}:
                raise CodecError(f"non-int element in the {name} fold")
            cols = [flat[offset::width] for offset in range(width)]
            for col, table in zip(cols, (fps, targets)):
                if col and (min(col) < 0 or max(col) >= len(table)):
                    raise CodecError(f"{name} index out of range")
            cols[0] = [fps[index] for index in cols[0]]
            cols[1] = [targets[index] for index in cols[1]]
            return cols

        def resolve(index, table, what):
            if type(index) is not int or not 0 <= index < len(table):
                raise CodecError(f"{what} index {index!r} out of range")
            return table[index]

        verdict_fps, verdict_targets, flags = columns("verdicts", 3)
        if not set(flags) <= {0, 1}:
            raise CodecError("verdict flags must be 0 or 1")
        staged_verdicts = list(zip(zip(verdict_fps, verdict_targets), map(bool, flags)))
        staged_markers = list(zip(*columns("markers", 2)))
        raw_snapshots = payload.get("snapshots", [])
        if not isinstance(raw_snapshots, list):
            raise CodecError("malformed snapshots fold")
        staged_snapshots = []
        for row in raw_snapshots:
            if not isinstance(row, list) or len(row) != 4:
                raise CodecError(f"malformed snapshot row {row!r}")
            index, key, feasible, box = row
            if type(feasible) is not bool or not isinstance(box, dict):
                raise CodecError(f"malformed snapshot row {row!r}")
            snapshot = {
                str(name): Interval(float(lo), float(hi))
                for name, (lo, hi) in box.items()
            }
            key = (
                resolve(index, fps, "fingerprint"),
                resolve(key, targets, "target"),
            )
            staged_snapshots.append((key, (feasible, snapshot)))
        raw_encodings = payload.get("encodings", {})
        if not isinstance(raw_encodings, dict):
            raise CodecError(
                f"malformed encodings fold {type(raw_encodings).__name__}"
            )
        exprs = decode_expr_table(raw_encodings.get("table", []))
        staged_encodings = [
            (
                resolve(index, fps, "fingerprint"),
                decode_encoding(encoded, compiled_model, exprs),
            )
            for index, encoded in raw_encodings.get("items", [])
        ]
        if self.verdicts_enabled:
            self._dead.update(staged_verdicts)
        for key in staged_markers:
            self.compiled.put(key, _FIRST_VISIT)
        self._restored_contraction.update(staged_snapshots)
        for fingerprint, encoding in staged_encodings:
            self.encodings.put(fingerprint, encoding)
        return {
            "verdicts": len(staged_verdicts) if self.verdicts_enabled else 0,
            "markers": len(staged_markers),
            "snapshots": len(staged_snapshots),
            "encodings": len(staged_encodings),
        }

    # -- telemetry -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Counters in the canonical ``CACHE_COUNTERS`` naming."""
        return {
            "encoding_hits": self.encodings.hits,
            "encoding_misses": self.encodings.misses,
            "encoding_evictions": self.encodings.evictions,
            "compiled_hits": self.compiled.hits,
            "compiled_misses": self.compiled.misses,
            "compiled_evictions": self.compiled.evictions,
            "verdict_hits": self.verdict_hits,
            "verdict_entries": len(self._dead),
        }

    def clear(self) -> None:
        self.encodings.clear()
        self.compiled.clear()
        self._dead.clear()
        self._restored_contraction.clear()

    def __repr__(self) -> str:
        return (
            f"SolveCache({self.model_key!r}, encodings={self.encodings!r}, "
            f"dead={len(self._dead)})"
        )
