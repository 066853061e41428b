"""Parallel-vs-serial bit-identity: the determinism contract, end to end.

``docs/parallel.md`` promises that ``--workers N`` never changes any
result: experiment rows, verdicts, JSON documents, and merged
deterministic telemetry are byte-identical to the serial run.
This suite is that promise under test, over a pinned experiment subset
(kept small — every experiment's serial arithmetic is separately
pinned by ``test_experiments.py``, and the CI ``parallel-smoke`` job
diffs a full ``repro-asm report --json`` at both worker counts).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments import run_experiment
from repro.cli import main
from repro.obs.telemetry import Telemetry
from repro.parallel import TrialPool

# Pinned subset spanning the different grid shapes: plain (workload, n,
# eps) grids, the plan+trials interleaving of e3, the per-n extra
# trial of e11, and the oracle-name grid of a2.
PINNED = {
    "e1": dict(n_values=(12, 16), eps_values=(0.3, 0.6), trials=2),
    "e3": dict(n_values=(12, 16), trials=3),
    "e10": dict(n_values=(24,), trials=4),
    "e11": dict(n_values=(16, 32), trials=2),
    "a2": dict(n=16, trials=2),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_experiment_rows_identical_across_worker_counts(name):
    kwargs = PINNED[name]
    serial = run_experiment(name, pool=TrialPool(workers=1), **kwargs)
    for workers in (2, 3):
        parallel = run_experiment(
            name, pool=TrialPool(workers=workers, chunk_size=2), **kwargs
        )
        assert parallel.to_dict() == serial.to_dict()
        # Byte-identical, not merely equal: the serialized documents
        # (what the CI job diffs) must match exactly.
        assert json.dumps(parallel.to_dict(), sort_keys=True) == json.dumps(
            serial.to_dict(), sort_keys=True
        )


def test_default_pool_argument_matches_explicit_serial_pool():
    kwargs = PINNED["e1"]
    assert (
        run_experiment("e1", **kwargs).to_dict()
        == run_experiment("e1", pool=TrialPool(workers=1), **kwargs).to_dict()
    )


def test_merged_metrics_identical_across_worker_counts():
    """Deterministic counters and event shapes merge to the same
    telemetry no matter how many processes executed the trials."""

    def run(workers):
        telemetry = Telemetry.create()
        pool = TrialPool(workers=workers, chunk_size=2, telemetry=telemetry)
        run_experiment("e1", pool=pool, **PINNED["e1"])
        counters = dict(telemetry.metrics.counters)
        # Wall-time histograms legitimately differ; everything else may not.
        events = [
            (r["kind"], r["start"], r["trials"])
            for r in telemetry.metrics.events
        ]
        return counters, events

    serial_counters, serial_events = run(1)
    parallel_counters, parallel_events = run(2)
    assert serial_counters == parallel_counters
    assert serial_events == parallel_events
    # 2 workloads x 2 n x 2 eps x 2 trials
    assert serial_counters["parallel.trials_completed"] == 16


def test_cli_report_json_identical_across_worker_counts(capsys):
    args = ["report", "--quick", "--json", "--only", "e8,a3"]
    assert main(args) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--workers", "2"]) == 0
    assert capsys.readouterr().out == serial
    # And it is real JSON with the pinned subset inside.
    ids = [d["experiment_id"] for d in json.loads(serial)["experiments"]]
    assert ids == ["E8", "A3"]
