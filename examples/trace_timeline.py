#!/usr/bin/env python3
"""Scenario: inspect how an ASM run converges, round by round.

Runs ASM with an enabled :class:`~repro.obs.telemetry.Telemetry`
bundle, reads the engine's event records through
:class:`~repro.analysis.trace.Timeline`, and prints the proposal-round
timeline: proposals/accepts/rejects, the accepted-proposal graph G₀'s
size, the matching size, and the good/bad men counts after every round
— the mechanics of Lemmas 1, 2 and 6 made visible.

Run:  python examples/trace_timeline.py [n] [eps]
"""

from __future__ import annotations

import sys

from repro import Telemetry, asm, gnp_incomplete, instability
from repro.analysis.tables import format_table
from repro.analysis.trace import Timeline


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    eps = float(sys.argv[2]) if len(sys.argv) > 2 else 0.25

    prefs = gnp_incomplete(n, 0.3, seed=1)
    telemetry = Telemetry.create()
    run = asm(prefs, eps, telemetry=telemetry)
    trace = Timeline(telemetry.metrics.events)

    print(trace.timeline_table(max_rows=25))

    summary = trace.convergence_summary()
    print()
    print(
        format_table(
            [summary], title="convergence summary"
        )
    )
    print()
    print(f"instability     : {instability(prefs, run.matching):.4f} "
          f"(bound {eps})")
    print(f"good men        : {len(run.good_men)}/{n}")
    print(f"quantile matches: {run.quantile_match_calls_executed} executed "
          f"of {run.quantile_match_calls_scheduled} scheduled")
    print(
        "\nReading the timeline: matching_size and good_men only ever "
        "grow\n(Lemma 1 monotonicity); each burst of rejects is a woman "
        "trading up\nand clearing her weakly-worse quantiles."
    )


if __name__ == "__main__":
    main()
