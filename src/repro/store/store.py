"""The content-addressed on-disk warm-start store.

One :class:`WarmStore` binds one (compiled model, generator config) pair
to one JSON document on disk.  The document is addressed by a SHA-256
key over

* the **model digest** — the model's structural surface (inports with
  types and bounds, state table with initial values, every registry
  decision/branch/condition point) *plus* the symbolic one-step
  semantics from the initial state, so an edit to a guard constant or a
  threshold invalidates the key even when the structure is unchanged;
* the **config-relevant digest** — exactly the :class:`StcgConfig`
  fields that change what derived state means (kernel switches, cache
  bounds/switches, ``skip_constant_false``, ``prove_dead_branches``).
  Budgets and seeds are deliberately excluded: a cached UNSAT verdict is
  a proof, valid under any budget, and the store key must let a rerun of
  the same cell (same seed, per-cell scope) find yesterday's folds;
* the **store schema version** — bumping :data:`STORE_SCHEMA` retires
  every existing document at once;
* a **scope** string — the per-cell discriminator (tool + seed), so
  matrix workers writing concurrently never contend on one file.

Writes go through a tmp file + ``os.replace`` so readers only ever see
a complete document.  Loads re-derive both digests from the *live*
model/config and reject on any mismatch, wrong schema, or parse error —
the caller then simply runs cold (``store_rejected``); a store problem
must never take a generation run down.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional, Tuple

from repro.store.codec import encode_expr, encode_type, encode_value

__all__ = ["STORE_SCHEMA", "WarmStore", "config_digest", "model_digest"]

#: Schema tag of the store document; bump to invalidate all stored state.
STORE_SCHEMA = "repro.store/2"


def _sha(blob: str) -> str:
    return hashlib.sha256(blob.encode()).hexdigest()


def model_digest(compiled) -> str:
    """Digest of everything solve/tree artifacts depend on in the model.

    Structure alone is not enough: two models can share every inport,
    state element and registry entry while differing in a block constant
    that changes the one-step constraints.  The digest therefore also
    folds in the symbolic encoding of one step from the initial state
    (outcome conditions and condition atoms), which is where any
    semantic edit to the step function surfaces.
    """
    from repro.model.state import ModelState
    from repro.solver.encoder import OneStepEncoding

    registry = compiled.registry
    encoding = OneStepEncoding(compiled, ModelState(compiled.initial_state()))
    description = {
        "name": compiled.name,
        "n_blocks": compiled.n_blocks,
        "inports": [
            [spec.name, encode_type(spec.ty), spec.lo, spec.hi]
            for spec in compiled.inports
        ],
        "state": sorted(
            [path, encode_type(element.ty), encode_value(element.init),
             element.category]
            for path, element in compiled.state_elements.items()
        ),
        "decisions": [
            [d.decision_id, d.path, d.kind.value, d.n_outcomes]
            for d in registry.decisions
        ],
        "branches": [branch.label for branch in registry.branches],
        "points": [
            [p.point_id, p.path, p.n_atoms, encode_expr(p.structure)]
            for p in registry.condition_points
        ],
        "step": {
            "outcomes": {
                str(decision_id): [encode_expr(cond) for cond in conditions]
                for decision_id, conditions in sorted(
                    encoding._outcome_conditions.items()
                )
            },
            "atoms": {
                str(point_id): [
                    [encode_expr(atom) for atom in atoms],
                    encode_expr(context),
                ]
                for point_id, (atoms, context) in sorted(
                    encoding._condition_atoms.items()
                )
            },
        },
    }
    return _sha(json.dumps(description, sort_keys=True))


def config_digest(config) -> str:
    """Digest of the config fields that change what cached folds *mean*.

    ``skip_constant_false`` is included because it decides whether a
    const-false refutation (``counts_failure=False``) is ever recorded —
    replaying one into a run that would have solved the pair instead
    would desynchronize the failure-backoff bookkeeping.  Budgets, seeds
    and observation flags (trace/provenance) are excluded: none
    of them changes the validity of a verdict, a snapshot, or an
    encoding.
    """
    description = {
        "kernels": [bool(config.kernels.sim), bool(config.kernels.solver)],
        "caches": [
            int(config.caches.encoding_size),
            int(config.caches.compiled_size),
            bool(config.caches.verdicts),
            bool(config.caches.tree_dedup),
        ],
        "skip_constant_false": bool(config.skip_constant_false),
        "prove_dead_branches": bool(config.prove_dead_branches),
    }
    return _sha(json.dumps(description, sort_keys=True))


class WarmStore:
    """One model/config-keyed warm-start document in a store directory."""

    def __init__(self, store_config, compiled, stcg_config, scope: str = ""):
        self.directory = store_config.path
        self.model_name = compiled.name
        self.model_digest = model_digest(compiled)
        self.config_digest = config_digest(stcg_config)
        #: Per-cell discriminator (tool + seed); mutable so the fuzz
        #: generators can re-scope the host's store before first use.
        self.scope = scope

    # -- addressing ----------------------------------------------------

    @property
    def key(self) -> str:
        return _sha(
            f"{self.model_digest}|{self.config_digest}|"
            f"{STORE_SCHEMA}|{self.scope}"
        )[:16]

    @property
    def path(self) -> str:
        return os.path.join(
            self.directory, f"{self.model_name}-{self.key}.json"
        )

    # -- IO ------------------------------------------------------------

    def load(self) -> Tuple[Optional[Dict[str, object]], str]:
        """Read and validate the document: ``(payload, status)``.

        ``status`` is ``"hit"`` (payload valid), ``"miss"`` (no file), or
        ``"rejected"`` (unreadable, wrong schema, or digest mismatch).
        Never raises.
        """
        try:
            with open(self.path, "r") as handle:
                document = json.load(handle)
        except FileNotFoundError:
            return None, "miss"
        except Exception:
            return None, "rejected"
        try:
            if document.get("schema") != STORE_SCHEMA:
                return None, "rejected"
            if document.get("model_digest") != self.model_digest:
                return None, "rejected"
            if document.get("config_digest") != self.config_digest:
                return None, "rejected"
            payload = document["payload"]
            if not isinstance(payload, dict):
                return None, "rejected"
        except Exception:
            return None, "rejected"
        return payload, "hit"

    def save(self, payload: Dict[str, object]) -> bool:
        """Atomically write the document; False (never raise) on failure."""
        document = {
            "schema": STORE_SCHEMA,
            "model": self.model_name,
            "model_digest": self.model_digest,
            "config_digest": self.config_digest,
            "scope": self.scope,
            "payload": payload,
        }
        tmp_path = f"{self.path}.tmp.{os.getpid()}"
        try:
            os.makedirs(self.directory, exist_ok=True)
            # dumps-then-write: one buffer, one syscall-ish write — the
            # streaming json.dump is several times slower on big folds.
            blob = json.dumps(document)
            with open(tmp_path, "w") as handle:
                handle.write(blob)
            os.replace(tmp_path, self.path)
        except Exception:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            return False
        return True

    def __repr__(self) -> str:
        return f"WarmStore({self.path!r})"
