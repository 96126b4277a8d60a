"""Fixed-work end-to-end benchmark of the STCG reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stcg-to-full --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

``--trace 0`` reports the end-to-end metrics of untraced passes; their
wall time is reported relative to a reference workload timed between the
passes (see ``reference.py``).
``--trace 1`` runs the same untraced passes, then one traced pass whose
per-layer exclusive self times (see ``selftime.py``) must add up to the
traced cell walls within 1 %.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from selftime import LAYERS, SelfTimer, install

# One thread for numpy's native code, set before anything imports it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("stcg-to-full", "solver-bound", "fuzz-campaign", "warm-rerun")
#: Passes per run at least, so ``wall_s`` is a median of several passes
#: and every run can compare suites per cell (in a traced run the traced
#: pass is the last of these).
MIN_PASSES = 5
#: Largest |sum of layer self times - traced cell wall| / wall.
ACCOUNTING_TOLERANCE = 0.01


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _pass_wall(runs):
    return sum(run.wall_s for run in runs)


def _coverage(passes, attribute):
    """Median over passes of the mean coverage (%) over the pass's cells."""
    means = []
    for runs in passes:
        values = [
            100.0 * getattr(run.result, attribute)
            for run in runs if run.result is not None
        ]
        if values:
            means.append(sum(values) / len(values))
    return _median(means)


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload_name, seed, seconds, trace, workdir):
    import workloads as wl
    from reference import reference_s

    workload = wl.WORKLOADS[workload_name]
    cells = wl.cells_for(workload, seed)
    setups = []
    # Cold passes, each writing a fresh store for the warm passes after it.
    primings = []

    def sample_setup():
        setups.extend(
            wl.setup_sample(workload, cells) for _ in range(wl.SETUP_REPS)
        )

    def prime(timer=None):
        store = str(workdir / f"store-{len(primings)}")
        primings.append(
            wl.run_pass(workload, cells, store) if timer is None
            else _traced_pass(wl, workload, cells, store, timer)
        )
        return store

    # Set-up is sampled before the first pass and after every pass, so
    # its samples spread over the run like the passes do.
    sample_setup()
    store = None
    passes = []
    relative = []
    references = []
    untraced_passes = MIN_PASSES - 1 if trace else MIN_PASSES
    start = time.perf_counter()
    while (len(passes) < untraced_passes
           or time.perf_counter() - start < seconds):
        if workload.warm and len(passes) % wl.WARM_PASSES_PER_STORE == 0:
            store = prime()
        runs, refs = wl.run_pass(workload, cells, store, between=reference_s)
        passes.append(runs)
        references.extend(refs)
        # Each cell sits between two readings of the machine's speed.
        relative.append(sum(
            run.wall_s / (0.5 * (refs[i] + refs[i + 1]))
            for i, run in enumerate(runs)
        ))
        sample_setup()
    peak_rss = _peak_rss_mb()

    traced = []
    timer = None
    priming_timer = None
    if trace:
        # The traced warm pass reads a store its own traced priming wrote,
        # which gives store.save_s.
        if workload.warm:
            priming_timer = SelfTimer()
            store = prime(priming_timer)
        timer = SelfTimer()
        traced = _traced_pass(wl, workload, cells, store, timer)

    priming = [run for runs in primings for run in runs]
    every_run = priming + [run for runs in passes for run in runs] + traced
    wl.check_outputs(workload, every_run)
    failed = [run for run in every_run if run.error]
    for run in failed:
        print(f"perfbench: {workload_name} {run.cell.model} seed "
              f"{run.cell.seed} failed: {run.error}", file=sys.stderr)
    divergent = wl.divergent_cells(every_run)
    for cell in divergent:
        print(f"perfbench: {workload_name} {cell.model} seed {cell.seed}: "
              f"suites differ between runs", file=sys.stderr)

    for runs in passes:
        setups.append((sum(r.build_s for r in runs), sum(r.init_s for r in runs)))
    setup_s = _median([b + i for b, i in setups])
    if primings:
        setup_s += _median([_pass_wall(runs) for runs in primings])
    wall_rel = _median(relative)
    print(f"perfbench: {workload_name}: {len(passes)} passes, median pass "
          f"wall {_median([_pass_wall(runs) for runs in passes]):.4f} s, "
          f"median reference {_median(references):.4f} s", file=sys.stderr)
    correct = not failed
    if not trace:
        metrics = {
            "wall_rel": _metric(wall_rel, "ratio"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(peak_rss, "MB"),
            "decision_pct": _metric(_coverage(passes, "decision"), "%"),
            "condition_pct": _metric(_coverage(passes, "condition"), "%"),
            "mcdc_pct": _metric(_coverage(passes, "mcdc"), "%"),
        }
    else:
        metrics, accounted = _layer_metrics(
            wl, passes, setups, traced, timer, priming_timer
        )
        metrics["ref_s"] = _metric(_median(references), "s")
        metrics["failed_ratio"] = _metric(
            _ratio(len(failed), len(every_run)), "ratio"
        )
        metrics["determinism.divergent_cells"] = _metric(
            len(divergent), "count"
        )
        correct = correct and accounted
    return {
        "correct": correct,
        "attempted": len(every_run),
        "failed": len(failed),
        "metrics": metrics,
    }


def _traced_pass(wl, workload, cells, store, timer):
    """One pass with the layer wrappers installed around each cell's run."""
    return wl.run_pass(workload, cells, store, _around_run(timer))


def _around_run(timer):
    """``around_run(gen)`` for a traced pass: ``gen.run()`` with the
    wrappers installed, checked and counted into ``timer``."""

    def around_run(gen):
        installation = install(timer)
        try:
            before = timer.snapshot()
            start = time.perf_counter()
            result = gen.run()
            wall = time.perf_counter() - start
            after = timer.snapshot()
        finally:
            installation.uninstall()
        accounted = sum(after[k] - before.get(k, 0.0) for k in after)
        timer.count("trace.cell_wall_s", wall)
        timer.count("trace.accounted_s", accounted)
        timer.count("trace.missing_entry_points", len(installation.missing))
        if abs(accounted - wall) > ACCOUNTING_TOLERANCE * wall:
            timer.count("trace.unaccounted_cells")
        # The program's own cache counters (the fuzz engine has no cache).
        cache = getattr(gen, "cache", None)
        if cache is not None:
            for name, value in cache.stats().items():
                timer.count(f"cache.{name}", value)
        return result

    return around_run


def _layer_metrics(wl, passes, setups, traced, timer, priming_timer):
    self_s = timer.self_s
    calls = timer.calls
    counts = timer.counts
    metrics = {
        name: _metric(self_s.get(layer, 0.0), "s")
        for layer, name in LAYERS.items()
    }
    if priming_timer is not None:
        # The warm passes skip their save; the save they rely on is the
        # priming pass's, which belongs to set-up.
        metrics["store.save_s"] = _metric(
            priming_timer.self_s.get("store.save", 0.0), "s"
        )

    def count(name, key=None, source=counts):
        metrics[name] = _metric(source.get(key or name, 0), "count")

    def hit_ratio(cache):
        hits = counts.get(f"cache.{cache}_hits", 0)
        misses = counts.get(f"cache.{cache}_misses", 0)
        metrics[f"cache.{cache}_hit_ratio"] = _metric(
            _ratio(hits, hits + misses), "ratio"
        )

    count("encoder.builds")
    hit_ratio("encoding")
    solver_calls = calls.get("solver", 0)
    count("solver.calls", "solver", calls)
    metrics["solver.sat_ratio"] = _metric(
        _ratio(counts.get("solver.sat", 0), solver_calls), "ratio"
    )
    count("solver.unknown")
    for stage in ("fold", "contract", "sample", "split", "avm"):
        key = f"solver.stage.{stage}_s"
        metrics[key] = _metric(counts.get(key, 0.0), "s")
    count("solverc.compiles", "solverc.compile", calls)
    hit_ratio("compiled")
    count("cache.verdict_hits")
    count("sim.steps")
    metrics["sim.steps_per_s"] = _metric(
        _ratio(counts.get("sim.steps", 0), self_s.get("sim", 0.0)), "1/s"
    )
    count("state.fingerprints", "state.fingerprint", calls)
    metrics["tree.nodes"] = _metric(sum(
        run.result.stats.get("tree_nodes", 0)
        for run in traced if run.result is not None
    ), "count")
    count("coverage.queries", "coverage", calls)
    metrics["store.bytes"] = _metric(counts.get("store.bytes", 0), "B")
    metrics["store.hit_ratio"] = _metric(_ratio(
        counts.get("store.hits", 0), counts.get("store.reads", 0)
    ), "ratio")
    fuzz = [run.result.stats for run in traced if run.result is not None]
    metrics["fuzz.retained_ratio"] = _metric(_ratio(
        sum(stats.get("fuzz_retained", 0) for stats in fuzz),
        sum(stats.get("fuzz_executions", 0) for stats in fuzz),
    ), "ratio")
    metrics["setup.build_s"] = _metric(_median([b for b, _ in setups]), "s")
    metrics["setup.init_s"] = _metric(_median([i for _, i in setups]), "s")
    for model in wl.ALL_MODELS:
        walls = [
            run.wall_s for runs in passes for run in runs
            if run.cell.model == model
        ]
        metrics[f"cell.{model}.wall_s"] = _metric(_median(walls), "s")
    untraced_wall = _median([_pass_wall(runs) for runs in passes])
    metrics["wall_s"] = _metric(untraced_wall, "s")
    metrics["trace.overhead_s"] = _metric(
        _pass_wall(traced) - untraced_wall, "s"
    )
    cell_wall = counts.get("trace.cell_wall_s", 0.0)
    metrics["trace.accounted_ratio"] = _metric(
        _ratio(counts.get("trace.accounted_s", 0.0), cell_wall), "ratio"
    )
    timers = [timer] + ([priming_timer] if priming_timer is not None else [])
    unaccounted = sum(t.counts.get("trace.unaccounted_cells", 0)
                      for t in timers)
    missing = sum(t.counts.get("trace.missing_entry_points", 0)
                  for t in timers)
    accounted = not unaccounted and not missing and cell_wall > 0
    if unaccounted or cell_wall <= 0:
        print("perfbench: layer self times do not add up to the traced "
              "cell walls within 1 %", file=sys.stderr)
    if missing:
        print("perfbench: entry points missing, so some layer's time went "
              "to its caller", file=sys.stderr)
    return metrics, accounted


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {done.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
            print(f"{name:14} {metric:30} {entry['value']:>14.6g} "
                  f"{entry['unit']}")
        print(f"{name:14} {'failed/attempted':30} "
              f"{result['failed']:>7}/{result['attempted']}")
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(
            args.workload, args.seed, args.seconds, args.trace, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
