"""Run-regression analysis: ``repro diff`` over two runs.

Compares a *baseline* run against a *candidate* run — each given either
as a ``*.manifest.json`` document or as a raw JSONL event stream (which
is summarized on the fly via :func:`~repro.telemetry.events.build_manifest`,
so the two input kinds are interchangeable) — and reports:

* coverage deltas per (model, tool) and the failed-cell count,
* phase-time deltas (traced runs),
* cache hit-rate and kernel/solverc fallback-rate deltas,
* every changed counter of the unified ``repro.metrics/1`` registry,
* *which* objectives regressed — covered in the baseline but uncovered
  in the candidate — when both runs carry ``repro.provenance/1``
  sections, so a coverage drop names the lost objectives instead of
  just the percentage.

With ``--fail-on-regression`` the diff becomes a CI gate:
:func:`find_regressions` applies :class:`Thresholds` and the CLI exits
non-zero when any rule trips.  Coverage drops and new failures are always
regressions; rate and phase-time rules carry slack thresholds because
they are load-sensitive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.telemetry.events import (
    MANIFEST_SCHEMA,
    build_manifest,
    read_events,
)

__all__ = [
    "RunDiff",
    "Thresholds",
    "diff_runs",
    "find_regressions",
    "load_run",
    "render_diff",
]

#: Coverage metrics compared per (model, tool) aggregate.
_COVERAGE_METRICS = ("decision", "condition", "mcdc")


def load_run(path: str) -> Dict[str, object]:
    """Load one run as a manifest document.

    ``*.jsonl`` paths are treated as event streams and summarized;
    anything else must be a ``repro.run-manifest/1`` JSON document.
    """
    if path.endswith(".jsonl"):
        return build_manifest(read_events(path))
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError as err:
        raise ReproError(f"cannot read {path!r}: {err}") from err
    except json.JSONDecodeError as err:
        raise ReproError(f"{path}: not valid JSON: {err}") from err
    if not isinstance(document, dict):
        raise ReproError(f"{path}: expected a manifest object")
    schema = document.get("schema")
    if schema != MANIFEST_SCHEMA:
        raise ReproError(
            f"{path}: schema {schema!r} is not {MANIFEST_SCHEMA!r} "
            "(pass a *.manifest.json or a *.jsonl event stream)"
        )
    return document


def _rate(numerator: float, denominator: float) -> Optional[float]:
    """A ratio, or None when the denominator never ticked."""
    return (numerator / denominator) if denominator else None


def _counters(manifest: Dict[str, object]) -> Dict[str, int]:
    metrics = manifest.get("metrics") or {}
    return dict(metrics.get("counters") or {})


def cache_hit_rate(manifest: Dict[str, object]) -> Optional[float]:
    """Solve-cache hit rate: hits over (hits + misses), both LRUs."""
    counters = _counters(manifest)
    hits = int(counters.get("cache.encoding_hits", 0)) + int(
        counters.get("cache.compiled_hits", 0)
    )
    misses = int(counters.get("cache.encoding_misses", 0)) + int(
        counters.get("cache.compiled_misses", 0)
    )
    return _rate(hits, hits + misses)


def kernel_fallback_rate(manifest: Dict[str, object]) -> Optional[float]:
    """Sim-kernel fallback blocks over all specialized+fallback blocks."""
    counters = _counters(manifest)
    fallback = int(counters.get("kernel.fallback_blocks", 0))
    specialized = int(counters.get("kernel.specialized_blocks", 0))
    return _rate(fallback, fallback + specialized)


def solverc_fallback_rate(manifest: Dict[str, object]) -> Optional[float]:
    """Share of compiled-bundle candidates the batch tape did not score.

    ``candidates_scalar`` counts only candidates of solves that carried a
    bundle, scored one at a time because its batch tape did not lower.
    First visits carry no bundle and are not in either count.
    """
    counters = _counters(manifest)
    scalar = int(counters.get("solverc.candidates_scalar", 0))
    batched = int(counters.get("solverc.candidates_batched", 0))
    return _rate(scalar, scalar + batched)


@dataclass(frozen=True)
class Thresholds:
    """Slack applied by ``--fail-on-regression`` (all non-negative).

    Coverage and failure rules have no slack by default: any drop or any
    new failure is a regression.  Rate and phase rules tolerate noise —
    a cache hit-rate may dip a few points run to run, and phase times
    breathe with machine load, so phases additionally need an absolute
    floor (``min_phase_s``) before a relative slowdown counts.
    """

    coverage_drop: float = 0.0
    cache_hit_drop: float = 0.05
    fallback_increase: float = 0.05
    phase_slowdown: float = 0.5
    min_phase_s: float = 0.25


@dataclass
class RunDiff:
    """Everything ``repro diff`` compares between two runs."""

    #: (model, tool, metric) -> (baseline, candidate) coverage fractions.
    coverage: Dict[Tuple[str, str, str], Tuple[float, float]]
    #: Failed-cell counts (baseline, candidate).
    failed: Tuple[int, int]
    #: phase -> (baseline, candidate) seconds.
    phases: Dict[str, Tuple[float, float]]
    #: rate name -> (baseline, candidate); None where a side never ticked.
    rates: Dict[str, Tuple[Optional[float], Optional[float]]]
    #: registry counter -> (baseline, candidate), changed counters only.
    counters: Dict[str, Tuple[int, int]]
    #: (model, tool) -> objective ids covered in the baseline but
    #: uncovered in the candidate (provenance-bearing runs only).
    objectives: Dict[Tuple[str, str], List[str]] = field(default_factory=dict)


def diff_runs(
    baseline: Dict[str, object], candidate: Dict[str, object]
) -> RunDiff:
    """Structured comparison of two manifests (see :class:`RunDiff`)."""
    coverage: Dict[Tuple[str, str, str], Tuple[float, float]] = {}
    old_cov = baseline.get("coverage") or {}
    new_cov = candidate.get("coverage") or {}
    for model in sorted(set(old_cov) | set(new_cov)):
        old_tools = old_cov.get(model) or {}
        new_tools = new_cov.get(model) or {}
        for tool in sorted(set(old_tools) | set(new_tools)):
            for metric in _COVERAGE_METRICS:
                coverage[(model, tool, metric)] = (
                    float((old_tools.get(tool) or {}).get(metric, 0.0)),
                    float((new_tools.get(tool) or {}).get(metric, 0.0)),
                )
    old_phases = baseline.get("phase_seconds") or {}
    new_phases = candidate.get("phase_seconds") or {}
    phases = {
        phase: (
            float(old_phases.get(phase, 0.0)),
            float(new_phases.get(phase, 0.0)),
        )
        for phase in sorted(set(old_phases) | set(new_phases))
    }
    rates = {
        "cache_hit": (cache_hit_rate(baseline), cache_hit_rate(candidate)),
        "kernel_fallback": (
            kernel_fallback_rate(baseline),
            kernel_fallback_rate(candidate),
        ),
        "solverc_fallback": (
            solverc_fallback_rate(baseline),
            solverc_fallback_rate(candidate),
        ),
    }
    old_counters = _counters(baseline)
    new_counters = _counters(candidate)
    counters = {
        name: (int(old_counters.get(name, 0)), int(new_counters.get(name, 0)))
        for name in sorted(set(old_counters) | set(new_counters))
        if int(old_counters.get(name, 0)) != int(new_counters.get(name, 0))
    }
    return RunDiff(
        coverage=coverage,
        failed=(int(baseline.get("failed", 0)), int(candidate.get("failed", 0))),
        phases=phases,
        rates=rates,
        counters=counters,
        objectives=_regressed_objectives(baseline, candidate),
    )


def _regressed_objectives(
    baseline: Dict[str, object], candidate: Dict[str, object]
) -> Dict[Tuple[str, str], List[str]]:
    """Objectives covered in the baseline but not in the candidate.

    Only cells carrying a provenance section on *both* sides contribute —
    an absent section (provenance off, or a pre-provenance manifest) is
    indistinguishable from "nothing covered" and must not read as a
    regression of every objective.

    A *present* section is a different matter: once the candidate carries
    a provenance snapshot for the (model, tool), every baseline-covered
    objective that is not covered there is lost — explicitly marked
    ``uncovered``, missing from the candidate's objective map, or an
    empty map (zero covered objectives) all count.  The earlier
    intersection semantics treated an empty ``objectives`` map like an
    absent section and silently hid a lost-everything regression.
    """
    regressed: Dict[Tuple[str, str], List[str]] = {}
    old_prov = baseline.get("provenance") or {}
    new_prov = candidate.get("provenance") or {}
    for model in sorted(set(old_prov) & set(new_prov)):
        old_tools = old_prov.get(model) or {}
        new_tools = new_prov.get(model) or {}
        for tool in sorted(set(old_tools) & set(new_tools)):
            old_objectives = (old_tools[tool] or {}).get("objectives") or {}
            new_objectives = (new_tools[tool] or {}).get("objectives") or {}
            lost = [
                objective_id
                for objective_id, entry in old_objectives.items()
                if entry.get("status") == "covered"
                and (new_objectives.get(objective_id) or {}).get("status")
                != "covered"
            ]
            if lost:
                regressed[(model, tool)] = lost
    return regressed


def find_regressions(
    diff: RunDiff, thresholds: Thresholds = Thresholds()
) -> List[str]:
    """The regression rules; one human-readable line per rule that trips."""
    problems: List[str] = []
    for (model, tool, metric), (old, new) in sorted(diff.coverage.items()):
        if old - new > thresholds.coverage_drop + 1e-9:
            problems.append(
                f"coverage: {model}/{tool} {metric} dropped "
                f"{old:.1%} -> {new:.1%}"
            )
    for (model, tool), lost in sorted(diff.objectives.items()):
        shown = ", ".join(lost[:5])
        more = f" (+{len(lost) - 5} more)" if len(lost) > 5 else ""
        problems.append(
            f"objectives: {model}/{tool} lost {len(lost)} "
            f"objective(s): {shown}{more}"
        )
    old_failed, new_failed = diff.failed
    if new_failed > old_failed:
        problems.append(
            f"failures: {old_failed} -> {new_failed} failed cell(s)"
        )
    old_rate, new_rate = diff.rates["cache_hit"]
    if old_rate is not None and new_rate is not None:
        if old_rate - new_rate > thresholds.cache_hit_drop + 1e-9:
            problems.append(
                f"cache hit-rate dropped {old_rate:.1%} -> {new_rate:.1%} "
                f"(slack {thresholds.cache_hit_drop:.1%})"
            )
    for name in ("kernel_fallback", "solverc_fallback"):
        old_rate, new_rate = diff.rates[name]
        if old_rate is None or new_rate is None:
            continue
        if new_rate - old_rate > thresholds.fallback_increase + 1e-9:
            problems.append(
                f"{name.replace('_', ' ')} rate rose "
                f"{old_rate:.1%} -> {new_rate:.1%} "
                f"(slack {thresholds.fallback_increase:.1%})"
            )
    for phase, (old, new) in sorted(diff.phases.items()):
        if new - old <= thresholds.min_phase_s:
            continue
        if new > old * (1.0 + thresholds.phase_slowdown):
            problems.append(
                f"phase {phase!r} slowed {old:.3f}s -> {new:.3f}s "
                f"(> {thresholds.phase_slowdown:.0%} over baseline)"
            )
    return problems


def _fmt_rate(value: Optional[float]) -> str:
    return "--" if value is None else f"{value:6.1%}"


def render_diff(diff: RunDiff, problems: Optional[List[str]] = None) -> str:
    """The ``repro diff`` report text."""
    lines: List[str] = ["== coverage =="]
    changed = False
    for (model, tool, metric), (old, new) in sorted(diff.coverage.items()):
        delta = new - old
        if abs(delta) <= 1e-9:
            continue
        changed = True
        lines.append(
            f"  {model:12s} {tool:10s} {metric:9s} "
            f"{old:6.1%} -> {new:6.1%}  ({delta:+.1%})"
        )
    if not changed:
        lines.append("  (no coverage changes)")
    if diff.objectives:
        lines.append("")
        lines.append("== regressed objectives ==")
        for (model, tool), lost in sorted(diff.objectives.items()):
            lines.append(f"  {model}/{tool}: {len(lost)} lost")
            for objective_id in lost[:10]:
                lines.append(f"    - {objective_id}")
            if len(lost) > 10:
                lines.append(f"    ... and {len(lost) - 10} more")
    old_failed, new_failed = diff.failed
    lines.append(
        f"  failed cells: {old_failed} -> {new_failed} "
        f"({new_failed - old_failed:+d})"
    )
    lines.append("")
    lines.append("== rates ==")
    for name, (old, new) in diff.rates.items():
        label = name.replace("_", " ")
        lines.append(
            f"  {label:18s} {_fmt_rate(old)} -> {_fmt_rate(new)}"
        )
    lines.append("")
    lines.append("== phase seconds ==")
    if diff.phases:
        for phase, (old, new) in sorted(
            diff.phases.items(), key=lambda kv: -max(kv[1])
        ):
            lines.append(
                f"  {phase:14s} {old:9.3f}s -> {new:9.3f}s "
                f"({new - old:+.3f}s)"
            )
    else:
        lines.append("  (neither run carries phase totals — traced runs only)")
    lines.append("")
    lines.append("== changed metric counters ==")
    if diff.counters:
        for name, (old, new) in diff.counters.items():
            lines.append(f"  {name:32s} {old:>10d} -> {new:<10d}")
    else:
        lines.append("  (no registry counter changed)")
    lines.append("")
    if problems:
        lines.append("== regressions ==")
        for problem in problems:
            lines.append(f"  [regression] {problem}")
    else:
        lines.append("no regressions detected")
    return "\n".join(lines)
