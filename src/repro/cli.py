"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the benchmark models and their sizes,
* ``info MODEL`` — a model's ports, state elements and decisions,
* ``generate MODEL`` — run a tool, print coverage, optionally export the
  suite, a coverage report and a minimized suite,
* ``fuzz MODEL`` — coverage-guided mutational fuzzing (``--hybrid`` runs
  the STCG → targeted-fuzz → STCG pipeline; ``--corpus-out`` exports the
  retained corpus),
* ``compare MODEL`` — SLDV vs SimCoTest vs STCG with the Figure-4 plot,
* ``table1 | table2 | table3 | fig3 | fig4`` — the paper's artefacts,
* ``report FILE.jsonl`` — analyze a telemetry stream: phase times,
  solver-stage win rates, tree growth, coverage-vs-time, slow targets,
* ``tail FILE.jsonl`` — live status board for a matrix run (per-cell
  status, progress, stall flags; ``--follow`` polls until it finishes),
* ``diff OLD NEW`` — run-regression analysis between two manifests or
  event logs (``--fail-on-regression`` gates CI; names regressed
  objectives when both runs carry provenance),
* ``explain FILE`` — objective-level coverage provenance: who covered
  each objective, and the solver-audit chain for each uncovered one,
* ``dashboard FILE`` — render a run into a self-contained static HTML
  dashboard (no external assets; opens offline),
* ``ablation KIND MODEL`` — the Discussion-section ablations.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import api
from repro.coverage.report import full_report
from repro.core.minimize import minimize_suite
from repro.harness import figure3, figure4, figure4_model, table1, table2, table3
from repro.harness.ablation import (
    dead_logic_waste,
    hybrid_warmup,
    library_vs_fresh,
    render,
)
from repro.errors import ReproError
from repro.models import BENCHMARKS, get_benchmark


def _add_exec_flags(parser: argparse.ArgumentParser) -> None:
    """Executor knobs shared by generate / compare / table3 / fig4."""
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the run matrix (default 1 = serial)",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock timeout per run; a timed-out cell is recorded "
             "as a failure instead of aborting",
    )
    parser.add_argument(
        "--events-out", default=None, metavar="FILE.jsonl",
        help="stream structured run telemetry (JSONL) here; a "
             "*.manifest.json summary is written next to it",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="deep generator tracing: phase spans, solver-stage seconds "
             "and tree growth as repro.trace/2 events (analyze with "
             "'repro report'); counters come with every run",
    )
    parser.add_argument(
        "--no-provenance", action="store_true",
        help="turn off the objective-level coverage provenance ledger "
             "(repro.provenance/1; on by default, observation only — "
             "analyze with 'repro explain' / 'repro dashboard')",
    )
    parser.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="matrix runs only: stream per-worker liveness beats to "
             "JSONL sidecars every SECONDS and arm the stall watchdog "
             "(watch with 'repro tail')",
    )
    parser.add_argument(
        "--stall-fraction", type=float, default=0.5, metavar="FRACTION",
        help="fraction of the cell timeout a running cell may stay "
             "quiet before a cell_stalled event (default 0.5)",
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="STCG reproduction: state-aware test generation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmark models")

    info = sub.add_parser("info", help="describe one model")
    info.add_argument("model")

    gen = sub.add_parser("generate", help="generate tests for one model")
    gen.add_argument("model")
    gen.add_argument("--tool", default="STCG",
                     choices=["STCG", "SLDV", "SimCoTest", "Fuzz", "Hybrid"])
    gen.add_argument("--budget", type=float, default=20.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="write the suite text export here")
    gen.add_argument("--report", action="store_true",
                     help="print the full coverage report")
    gen.add_argument("--minimize", action="store_true",
                     help="greedy set-cover suite reduction")
    gen.add_argument(
        "--encoding-cache-size", type=int, default=None, metavar="N",
        help="STCG only: entries in the one-step-encoding LRU "
             "(0 disables it; default 512)",
    )
    gen.add_argument(
        "--no-verdict-cache", action="store_true",
        help="STCG only: disable the cached-UNSAT verdict skip",
    )
    gen.add_argument(
        "--no-sim-kernel", action="store_true",
        help="STCG only: force the generic step interpreter instead of "
             "the compiled plan kernel (reference semantics)",
    )
    gen.add_argument(
        "--no-solver-kernel", action="store_true",
        help="STCG only: force the reference solver pipeline instead of "
             "the compiled/batched solver kernel (repro.solverc)",
    )
    gen.add_argument(
        "--store", default="", metavar="DIR",
        help="STCG-family only: persistent warm-start store directory "
             "(repro.store/2); verdicts, compiled-bundle markers, "
             "contraction snapshots and encodings persist across runs",
    )
    _add_exec_flags(gen)

    fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided mutational fuzzing on one model "
             "(--hybrid for the STCG → targeted-fuzz → STCG pipeline)",
    )
    fuzz.add_argument("model")
    fuzz.add_argument(
        "--hybrid", action="store_true",
        help="run the hybrid pipeline: a pure-STCG pass, then fuzz the "
             "objectives it left uncovered, then a second solver pass "
             "over the fuzz-fed state tree",
    )
    fuzz.add_argument("--budget", type=float, default=10.0)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--executions", type=int, default=None, metavar="N",
        help="count-based campaign budget (default 512); the wall-clock "
             "--budget only bounds it from above",
    )
    fuzz.add_argument(
        "--corpus-out", default=None, metavar="FILE.json",
        help="write the retained corpus (repro.fuzz.corpus/1 JSON) here",
    )
    fuzz.add_argument(
        "--corpus-in", default=None, metavar="FILE.json",
        help="seed the campaign from a previously exported corpus "
             "(repro.fuzz.corpus/1 JSON, e.g. a --corpus-out file)",
    )
    fuzz.add_argument(
        "--store", default="", metavar="DIR",
        help="persistent warm-start store directory (repro.store/2); "
             "solver state and the retained corpus persist across runs",
    )
    fuzz.add_argument("--out", help="write the suite text export here")
    _add_exec_flags(fuzz)

    cmp_ = sub.add_parser("compare", help="three-tool comparison on a model")
    cmp_.add_argument("model")
    cmp_.add_argument("--budget", type=float, default=15.0)
    cmp_.add_argument("--seed", type=int, default=0)
    _add_exec_flags(cmp_)

    for name, help_text in [
        ("table1", "Table I: state-tree construction log"),
        ("fig3", "Figure 3: branch structure + state tree"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--budget", type=float, default=10.0)
        cmd.add_argument("--seed", type=int, default=0)

    sub.add_parser("table2", help="Table II: model inventory")

    t3 = sub.add_parser("table3", help="Table III: coverage comparison")
    t3.add_argument("--budget", type=float, default=10.0)
    t3.add_argument("--reps", type=int, default=2)
    t3.add_argument("--seed", type=int, default=0)
    t3.add_argument("--models", nargs="*", default=None)
    t3.add_argument(
        "--tools", nargs="*", default=None, metavar="TOOL",
        choices=list(api.ALL_TOOLS),
        help="tool columns to run (default: the paper's SLDV SimCoTest "
             "STCG; add Fuzz and/or Hybrid for the fuzzing columns)",
    )
    t3.add_argument(
        "--store", default="", metavar="DIR",
        help="persistent warm-start store directory (repro.store/2) for "
             "every STCG-family cell; keys are scoped per cell, so "
             "parallel workers never contend",
    )
    _add_exec_flags(t3)

    f4 = sub.add_parser("fig4", help="Figure 4: coverage vs time plots")
    f4.add_argument("--budget", type=float, default=10.0)
    f4.add_argument("--seed", type=int, default=0)
    f4.add_argument("--models", nargs="*", default=["CPUTask", "TCP"])
    _add_exec_flags(f4)

    rep = sub.add_parser(
        "report", help="analyze a telemetry JSONL stream (phase times, "
                       "solver stages, coverage curves)"
    )
    rep.add_argument("events", metavar="FILE.jsonl")
    rep.add_argument("--top", type=int, default=10,
                     help="slowest solver targets to list (default 10)")
    rep.add_argument(
        "--require-trace", action="store_true",
        help="exit non-zero unless the stream carries repro.trace/2 "
             "events; the error names every missing kind (for CI gates)",
    )

    tail = sub.add_parser(
        "tail", help="live status board for a running (or finished) "
                     "matrix: per-cell status, progress, stall flags"
    )
    tail.add_argument("events", metavar="FILE.jsonl")
    tail.add_argument(
        "--heartbeat-dir", default=None, metavar="DIR",
        help="heartbeat sidecar directory (default: FILE.jsonl.hb)",
    )
    tail.add_argument(
        "--follow", action="store_true",
        help="re-render until the matrix finishes",
    )
    tail.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="polling interval with --follow (default 2.0)",
    )

    diff = sub.add_parser(
        "diff", help="compare two runs (manifests or event logs): "
                     "coverage, phase-time, cache/kernel rate deltas"
    )
    diff.add_argument("baseline", metavar="OLD.manifest.json|OLD.jsonl")
    diff.add_argument("candidate", metavar="NEW.manifest.json|NEW.jsonl")
    diff.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit non-zero when a regression rule trips (for CI gates)",
    )
    diff.add_argument(
        "--coverage-drop", type=float, default=0.0, metavar="FRACTION",
        help="tolerated coverage drop before it counts as a regression "
             "(default 0 = any drop fails)",
    )
    diff.add_argument(
        "--cache-hit-drop", type=float, default=0.05, metavar="FRACTION",
        help="tolerated cache hit-rate drop (default 0.05)",
    )
    diff.add_argument(
        "--fallback-increase", type=float, default=0.05, metavar="FRACTION",
        help="tolerated kernel/solverc fallback-rate increase "
             "(default 0.05)",
    )
    diff.add_argument(
        "--phase-slowdown", type=float, default=0.5, metavar="FRACTION",
        help="tolerated relative phase-time growth (default 0.5 = +50%%)",
    )

    explain = sub.add_parser(
        "explain", help="objective-level coverage provenance: cover "
                        "attribution and uncovered-objective audit chains"
    )
    explain.add_argument("source", metavar="FILE.manifest.json|FILE.jsonl")
    explain.add_argument(
        "--objective", default=None, metavar="ID",
        help="narrow to one objective id, e.g. 'D:SwitchCase1:case_1' "
             "or 'M:Relop1:c0=T'",
    )
    explain.add_argument(
        "--uncovered", action="store_true",
        help="list only uncovered objectives with their audit chains",
    )

    dash = sub.add_parser(
        "dashboard", help="render a run into a self-contained static "
                          "HTML dashboard (no external assets)"
    )
    dash.add_argument("source", metavar="FILE.manifest.json|FILE.jsonl")
    dash.add_argument(
        "--out", default="dashboard.html", metavar="FILE.html",
        help="output path (default dashboard.html)",
    )
    dash.add_argument(
        "--title", default="repro run dashboard",
        help="page title (default 'repro run dashboard')",
    )

    prove = sub.add_parser(
        "prove", help="prove dead branches by abstract interpretation"
    )
    prove.add_argument("model")

    abl = sub.add_parser("ablation", help="Discussion-section ablations")
    abl.add_argument(
        "kind", choices=["dead-logic", "hybrid", "library", "proofs"]
    )
    abl.add_argument("model")
    abl.add_argument("--budget", type=float, default=10.0)
    abl.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_list() -> None:
    print(f"{'model':12s} {'#branch':>8s} {'#block':>7s}  functionality")
    for model in BENCHMARKS:
        compiled = model.build()
        print(
            f"{model.name:12s} {compiled.registry.n_branches:>8d} "
            f"{compiled.n_blocks:>7d}  {model.functionality}"
        )


def _cmd_info(name: str) -> None:
    model = get_benchmark(name)
    compiled = model.build()
    print(f"{model.name}: {model.functionality}")
    print(f"  blocks: {compiled.n_blocks}")
    print(f"  branches: {compiled.registry.n_branches} "
          f"(paper reported {model.paper_branches})")
    print(f"  condition atoms: {compiled.registry.n_condition_atoms}")
    if model.dead_branches:
        print(f"  documented dead branches: {model.dead_branches}")
    print("  inputs:")
    for spec in compiled.inports:
        bounds = f" in [{spec.lo}, {spec.hi}]" if spec.lo is not None else ""
        print(f"    {spec.name}: {spec.ty!r}{bounds}")
    print(f"  state elements: {len(compiled.state_elements)}")
    for path, element in sorted(compiled.state_elements.items()):
        print(f"    {path} ({element.category}, init={element.init})")


def _cmd_generate(args) -> None:
    model = get_benchmark(args.model)
    cache_kwargs = {}
    if args.encoding_cache_size is not None:
        cache_kwargs["encoding_size"] = args.encoding_cache_size
    if args.no_verdict_cache:
        cache_kwargs["verdicts"] = False
    kernel_kwargs = {}
    if args.no_sim_kernel:
        kernel_kwargs["sim"] = False
    if args.no_solver_kernel:
        kernel_kwargs["solver"] = False
    stcg_overrides = {}
    if cache_kwargs:
        stcg_overrides["caches"] = api.CacheConfig(**cache_kwargs)
    if kernel_kwargs:
        stcg_overrides["kernels"] = api.KernelConfig(**kernel_kwargs)
    if stcg_overrides and args.tool not in ("STCG", "Fuzz", "Hybrid"):
        raise ReproError(
            "cache and kernel flags apply to STCG-family tools only"
        )
    if args.heartbeat is not None:
        raise ReproError(
            "--heartbeat applies to matrix commands "
            "(compare / table3 / fig4) only"
        )
    config = (
        api.StcgConfig(
            budget_s=args.budget, seed=args.seed, trace=args.trace,
            provenance=not args.no_provenance,
            **stcg_overrides,
        )
        if stcg_overrides else None
    )
    result = api.generate(
        model,
        tool=args.tool,
        budget_s=args.budget,
        seed=args.seed,
        config=config,
        cell_timeout=args.cell_timeout,
        events_out=args.events_out,
        trace=args.trace,
        provenance=not args.no_provenance,
        store_dir=args.store,
    )
    print(
        f"{args.tool} on {model.name}: decision={result.decision:.1%} "
        f"condition={result.condition:.1%} mcdc={result.mcdc:.1%} "
        f"cases={len(result.suite)}"
    )
    _print_store_line(result.stats)
    if args.minimize:
        compiled = model.build()
        reduced = minimize_suite(compiled, result.suite)
        print(
            f"minimized: {reduced.kept_cases}/{reduced.original_cases} cases "
            f"({reduced.reduction:.0%} reduction, "
            f"{reduced.goals_total} goals preserved)"
        )
        suite = reduced.suite
    else:
        suite = result.suite
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(suite.to_text())
        print(f"suite written to {args.out}")
    if args.report:
        compiled = model.build()
        collector = suite.replay(compiled)
        print()
        print(full_report(collector))


def _print_store_line(stats) -> None:
    if "store_reads" not in stats:
        return
    restored = (
        int(stats.get("restored_verdicts", 0))
        + int(stats.get("restored_markers", 0))
        + int(stats.get("restored_snapshots", 0))
        + int(stats.get("restored_encodings", 0))
    )
    print(
        f"store: hits={stats.get('store_hits', 0)} "
        f"misses={stats.get('store_misses', 0)} "
        f"rejected={stats.get('store_rejected', 0)} "
        f"writes={stats.get('store_writes', 0)} "
        f"restored={restored} corpus_seeds={stats.get('corpus_seeds', 0)}"
    )


def _print_failures(experiment) -> None:
    for failure in experiment.failures:
        print(
            f"  [failed] {failure.label}: {failure.kind}: {failure.message}",
            file=sys.stderr,
        )


def _cmd_compare(args) -> None:
    model = get_benchmark(args.model)
    experiment = api.run_experiment(
        models=[model],
        budget_s=args.budget,
        repetitions=1,
        seed=args.seed,
        workers=args.workers,
        cell_timeout=args.cell_timeout,
        events_out=args.events_out,
        trace=args.trace,
        provenance=not args.no_provenance,
        heartbeat_s=args.heartbeat,
        stall_fraction=args.stall_fraction,
    )
    _print_failures(experiment)
    results = {}
    for tool in ("SLDV", "SimCoTest", "STCG"):
        outcome = experiment.outcomes[model.name][tool]
        if not outcome.ok:
            continue
        result = outcome.representative
        results[tool] = result
        print(
            f"{tool:10s} decision={result.decision:5.1%} "
            f"condition={result.condition:5.1%} mcdc={result.mcdc:5.1%} "
            f"cases={len(result.suite):3d}"
        )
    print()
    print(figure4_model(results, args.budget))


def _cmd_fuzz(args) -> None:
    model = get_benchmark(args.model)
    if args.heartbeat is not None:
        raise ReproError(
            "--heartbeat applies to matrix commands "
            "(compare / table3 / fig4) only"
        )
    fuzz_kwargs = {}
    if args.executions is not None:
        fuzz_kwargs["executions"] = args.executions
    if args.corpus_out:
        fuzz_kwargs["corpus_out"] = args.corpus_out
    if args.corpus_in:
        fuzz_kwargs["corpus_in"] = args.corpus_in
    tool = "Hybrid" if args.hybrid else "Fuzz"
    config = api.StcgConfig(
        budget_s=args.budget,
        seed=args.seed,
        trace=args.trace,
        provenance=not args.no_provenance,
        fuzz=api.FuzzConfig(**fuzz_kwargs),
    )
    result = api.generate(
        model,
        tool=tool,
        budget_s=args.budget,
        seed=args.seed,
        config=config,
        cell_timeout=args.cell_timeout,
        events_out=args.events_out,
        trace=args.trace,
        provenance=not args.no_provenance,
        store_dir=args.store,
    )
    stats = result.stats
    wall = float(stats.get("fuzz_wall_s") or 0.0)
    executions = int(stats.get("fuzz_executions", 0))
    rate = executions / wall if wall > 0 else 0.0
    print(
        f"{tool} on {model.name}: decision={result.decision:.1%} "
        f"condition={result.condition:.1%} mcdc={result.mcdc:.1%} "
        f"cases={len(result.suite)}"
    )
    print(
        f"fuzz: {executions} executions ({rate:.0f}/s), "
        f"corpus={stats.get('fuzz_corpus_size', 0)} "
        f"(retained {stats.get('fuzz_retained', 0)}, "
        f"seeds {stats.get('fuzz_seed_entries', 0)})"
    )
    _print_store_line(stats)
    if args.hybrid:
        print(
            f"hybrid: {stats.get('fuzz_targets', 0)} fuzz targets, "
            f"{stats.get('fuzz_targets_covered', 0)} covered by fuzzing, "
            f"{stats.get('fuzz_tree_nodes', 0)} states fed back"
        )
    if args.corpus_out:
        print(f"corpus written to {args.corpus_out}")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(result.suite.to_text())
        print(f"suite written to {args.out}")


def _cmd_table3(args) -> None:
    experiment = api.run_experiment(
        models=args.models,
        tools=args.tools if args.tools else api.TOOLS,
        budget_s=args.budget,
        repetitions=args.reps,
        seed=args.seed,
        workers=args.workers,
        cell_timeout=args.cell_timeout,
        events_out=args.events_out,
        trace=args.trace,
        provenance=not args.no_provenance,
        heartbeat_s=args.heartbeat,
        stall_fraction=args.stall_fraction,
        store_dir=args.store,
        progress=lambda m: print(f"  {m}"),
    )
    _print_failures(experiment)
    print()
    print(table3(experiment.outcomes))


def _cmd_fig4(args) -> None:
    experiment = api.run_experiment(
        models=args.models,
        budget_s=args.budget,
        repetitions=1,
        seed=args.seed,
        workers=args.workers,
        cell_timeout=args.cell_timeout,
        events_out=args.events_out,
        trace=args.trace,
        provenance=not args.no_provenance,
        heartbeat_s=args.heartbeat,
        stall_fraction=args.stall_fraction,
    )
    _print_failures(experiment)
    all_results = {
        name: {
            tool: outcome.representative
            for tool, outcome in per_tool.items()
            if outcome.ok
        }
        for name, per_tool in experiment.outcomes.items()
    }
    print(figure4(all_results, args.budget))


def _cmd_report(args) -> None:
    from repro.obs.report import render_report, trace_missing_kinds
    from repro.telemetry import read_events

    try:
        events = read_events(args.events)
    except OSError as err:
        raise ReproError(f"cannot read {args.events!r}: {err}") from err
    print(render_report(events, top_n=args.top))
    if args.require_trace:
        missing = trace_missing_kinds(events)
        # phase_totals is emitted by every traced cell; its absence means
        # the run was not traced at all.  The error still names every
        # absent kind so partial streams are diagnosable.
        if "phase_totals" in missing:
            raise ReproError(
                f"{args.events}: stream is missing repro.trace/2 event "
                f"kind(s): {', '.join(missing)} "
                "(was the run started with --trace?)"
            )


def _cmd_tail(args) -> None:
    import time as _time

    from repro.exec import heartbeat_dir_for, read_heartbeats
    from repro.telemetry import read_events, render_tail

    hb_dir = args.heartbeat_dir or heartbeat_dir_for(args.events)

    def render_once():
        try:
            events = read_events(args.events)
        except OSError as err:
            raise ReproError(f"cannot read {args.events!r}: {err}") from err
        print(render_tail(events, read_heartbeats(hb_dir)))
        return any(e.get("event") == "matrix_finished" for e in events)

    finished = render_once()
    while args.follow and not finished:
        _time.sleep(args.interval)
        print()
        finished = render_once()


def _cmd_diff(args) -> int:
    from repro.telemetry import (
        Thresholds,
        diff_runs,
        find_regressions,
        load_run,
        render_diff,
    )

    diff = diff_runs(load_run(args.baseline), load_run(args.candidate))
    problems = find_regressions(
        diff,
        Thresholds(
            coverage_drop=args.coverage_drop,
            cache_hit_drop=args.cache_hit_drop,
            fallback_increase=args.fallback_increase,
            phase_slowdown=args.phase_slowdown,
        ),
    )
    print(render_diff(diff, problems))
    if problems and args.fail_on_regression:
        print(
            f"error: {len(problems)} regression(s) against {args.baseline}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_explain(args) -> None:
    from repro.telemetry import load_provenance, render_explain

    provenance = load_provenance(args.source)
    print(
        render_explain(
            provenance, objective=args.objective, uncovered=args.uncovered
        )
    )


def _cmd_dashboard(args) -> None:
    from repro.telemetry import load_run, render_dashboard

    manifest = load_run(args.source)
    page = render_dashboard(manifest, title=args.title)
    with open(args.out, "w") as handle:
        handle.write(page)
    print(f"dashboard written to {args.out}")


def _cmd_prove(name: str) -> None:
    from repro.analysis import find_dead_branches, state_envelope

    model = get_benchmark(name)
    compiled = model.build()
    envelope = state_envelope(compiled)
    dead = find_dead_branches(compiled, envelope)
    print(f"{model.name}: {len(dead)} branch(es) proven unreachable")
    for branch in dead:
        print(f"  - {branch.label}")
    if model.dead_branches:
        print(f"(model documents {model.dead_branches} dead branches)")


def _cmd_ablation(args) -> None:
    model = get_benchmark(args.model)
    from repro.harness.ablation import dead_branch_proving

    runner = {
        "dead-logic": dead_logic_waste,
        "hybrid": hybrid_warmup,
        "library": library_vs_fresh,
        "proofs": dead_branch_proving,
    }[args.kind]
    runs = runner(model, budget_s=args.budget, seed=args.seed)
    print(render(runs))


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _dispatch(_parser().parse_args(argv))
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "list":
        _cmd_list()
    elif args.command == "info":
        _cmd_info(args.model)
    elif args.command == "generate":
        _cmd_generate(args)
    elif args.command == "fuzz":
        _cmd_fuzz(args)
    elif args.command == "compare":
        _cmd_compare(args)
    elif args.command == "table1":
        print(table1(budget_s=args.budget, seed=args.seed))
    elif args.command == "table2":
        print(table2(BENCHMARKS))
    elif args.command == "table3":
        _cmd_table3(args)
    elif args.command == "fig3":
        print(figure3(budget_s=args.budget, seed=args.seed))
    elif args.command == "fig4":
        _cmd_fig4(args)
    elif args.command == "report":
        _cmd_report(args)
    elif args.command == "tail":
        _cmd_tail(args)
    elif args.command == "diff":
        return _cmd_diff(args)
    elif args.command == "explain":
        _cmd_explain(args)
    elif args.command == "dashboard":
        _cmd_dashboard(args)
    elif args.command == "prove":
        _cmd_prove(args.model)
    elif args.command == "ablation":
        _cmd_ablation(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
