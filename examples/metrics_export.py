#!/usr/bin/env python3
"""Scenario: compare algorithms through their exported telemetry.

Runs the paper's deterministic ASM and the Gale–Shapley baseline on
the same workload, exports each run's metrics with
:func:`repro.io.save_metrics` (manifest included), then loads the
files back and prints a side-by-side comparison of rounds, messages,
event records and wall time — everything read from the exported JSON,
exactly as a downstream analysis script would consume it.

The same file, event records included, can be produced from the
command line:

    repro run --algorithm asm --metrics-out m.json

Run:  python examples/metrics_export.py [n] [eps]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import (
    RunManifest,
    Telemetry,
    complete_uniform,
    gale_shapley,
    instability,
)
from repro.analysis.tables import format_table
from repro.core.asm import asm
from repro.io import load_metrics, save_metrics


def run_asm(prefs, eps: float, path: Path) -> None:
    """Run ASM with full telemetry and export the metrics file."""
    manifest = RunManifest.capture(
        algorithm="asm", workload="complete", n=prefs.n_men,
        params={"eps": eps},
    )
    telemetry = Telemetry.create(manifest)
    with telemetry.metrics.timer("run.wall_seconds"):
        result = asm(prefs, eps, telemetry=telemetry)
    telemetry.metrics.set_gauge(
        "run.instability", instability(prefs, result.matching)
    )
    manifest.finish()
    save_metrics(telemetry.metrics, path, manifest)


def run_gs(prefs, path: Path) -> None:
    """Run Gale–Shapley, hand-feeding the same metric vocabulary."""
    manifest = RunManifest.capture(
        algorithm="gale-shapley", workload="complete", n=prefs.n_men,
    )
    telemetry = Telemetry.create(manifest)
    with telemetry.metrics.timer("run.wall_seconds"):
        result = gale_shapley(prefs)
    telemetry.metrics.inc("gs.proposals", result.proposals)
    telemetry.metrics.inc("gs.rounds", result.rounds)
    telemetry.metrics.set_gauge(
        "run.instability", instability(prefs, result.matching)
    )
    manifest.finish()
    save_metrics(telemetry.metrics, path, manifest)


def summarize(path: Path) -> dict:
    """Reduce one exported metrics file to a comparison row."""
    doc = load_metrics(path)
    manifest, metrics = doc["manifest"], doc["metrics"]
    counters = metrics["counters"]
    if manifest["algorithm"] == "asm":
        rounds = counters["asm.proposal_rounds"]
        messages = (
            counters["asm.messages.proposes"]
            + counters["asm.messages.accepts"]
            + counters["asm.messages.rejects"]
        )
    else:
        rounds = counters["gs.rounds"]
        messages = counters["gs.proposals"]
    wall = metrics["histograms"]["run.wall_seconds"]["sum"]
    return {
        "algorithm": manifest["algorithm"],
        "rounds": rounds,
        "messages": messages,
        "events": len(metrics["events"]),
        "wall_ms": round(1000 * wall, 2),
        "instability": round(metrics["gauges"]["run.instability"], 4),
    }


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    eps = float(sys.argv[2]) if len(sys.argv) > 2 else 0.3
    prefs = complete_uniform(n, seed=0)

    print(f"Running ASM (eps={eps}) and Gale-Shapley on n={n} ...")
    with tempfile.TemporaryDirectory() as tmp:
        asm_path = Path(tmp) / "asm_metrics.json"
        gs_path = Path(tmp) / "gs_metrics.json"
        run_asm(prefs, eps, asm_path)
        run_gs(prefs, gs_path)

        rows = [summarize(asm_path), summarize(gs_path)]
        doc = load_metrics(asm_path)
        phases = doc["metrics"]["histograms"]

    print()
    print(format_table(rows, title="side-by-side from exported metrics"))
    print()
    print("ASM engine phase timings (seconds, from the same export):")
    for name in sorted(phases):
        if not name.startswith("asm.phase."):
            continue
        h = phases[name]
        print(
            f"  {name:28s} count={h['count']:4d}  "
            f"p50={h['p50']:.6f}  p95={h['p95']:.6f}  max={h['max']:.6f}"
        )
    print()
    print("Each file embeds its RunManifest (algorithm, params, seed,")
    print("timestamps, python version) so results stay attributable.")


if __name__ == "__main__":
    main()
