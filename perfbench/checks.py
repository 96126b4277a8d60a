"""Output checks: suite digests and replay through the reference interpreter."""

from __future__ import annotations

import hashlib

from repro.coverage.collector import CoverageCollector
from repro.model.simulator import Simulator


def suite_digest(result) -> str:
    """Digest of a cell's suite: every case's inputs, origin and new branches.

    Timestamps are left out (they are wall-clock readings), so two runs
    that generated the same suite get the same digest.
    """
    h = hashlib.sha256()
    for case in result.suite:
        h.update(case.origin.encode())
        h.update(repr(sorted(case.new_branch_ids)).encode())
        for step in case.inputs:
            h.update(repr(sorted(step.items())).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def replay_mismatch(result, compiled, require_complete: bool) -> str:
    """Why ``result``'s suite, replayed, disagrees with it ('' if it does not).

    Every case is replayed from the initial state of ``compiled`` (a
    freshly built model) with the sim kernel off.  The replay must
    reproduce the reported decision, condition and MCDC coverage exactly;
    with ``require_complete`` it must also cover every branch and
    condition obligation.
    """
    collector = CoverageCollector(compiled.registry)
    simulator = Simulator(compiled, collector, kernel=False)
    for case in result.suite:
        simulator.reset()
        simulator.run_sequence(case.inputs)
    got = (
        collector.decision_coverage(),
        collector.condition_coverage(),
        collector.mcdc_coverage(),
    )
    reported = (result.decision, result.condition, result.mcdc)
    if got != reported:
        return "replay coverage {}/{}/{} != reported {}/{}/{}".format(
            *got, *reported
        )
    if require_complete and (
        collector.uncovered_branches()
        or collector.unsatisfied_condition_obligations()
    ):
        return "suite leaves branches or condition obligations uncovered"
    return ""
