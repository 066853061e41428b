"""Worker-identity of the trace layer: sharded traced trials must be
byte-identical for any ``--workers`` count, and the CLI's
``--metrics-out`` artifact must carry the committed golden causal trace
(the CI trace-smoke job replays exactly these checks)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.io import load_metrics
from repro.parallel import TrialPool, TrialSpec
from repro.parallel.spec import derive_seed
from repro.trace.harness import (
    TRACE_TRIAL_RUNNER,
    merge_trace_trials,
    run_trace_trial,
)

GOLDEN = Path(__file__).parent / "golden" / "causal_trace.json"


def _specs(trials=3, protocol="asm"):
    return [
        TrialSpec.make(
            TRACE_TRIAL_RUNNER,
            algorithm="congest-asm",
            workload="complete",
            n=4,
            eps=0.5,
            seed=derive_seed(0, "trace", index),
            trial=index,
            protocol=protocol,
            k=2,
            inner=2,
            outer=2,
            mm_iterations=4,
            drop_rate=0.25,
            duplicate_rate=0.0,
            delay_rate=0.0,
            max_delay=2,
            crash_nodes=0,
            crash_round=3,
            restart_after=None,
            fault_seed=7,
        )
        for index in range(trials)
    ]


def _merged(workers):
    results = TrialPool(workers=workers).run(_specs())
    return merge_trace_trials(results)


class TestRunner:
    def test_runner_returns_json_safe_record(self):
        record = run_trace_trial(_specs(trials=1)[0])
        json.dumps(record)
        assert record["outcome"] == "converged"
        assert record["trace"]
        assert record["profile_summary"]

    def test_unknown_protocol_raises(self):
        spec = TrialSpec.make(
            TRACE_TRIAL_RUNNER, n=4, eps=0.5, seed=0, protocol="nope"
        )
        with pytest.raises(ValueError):
            run_trace_trial(spec)

    def test_gs_protocol_supported(self):
        spec = TrialSpec.make(
            TRACE_TRIAL_RUNNER,
            workload="complete",
            n=4,
            seed=3,
            protocol="gs",
        )
        record = run_trace_trial(spec)
        assert len(record["matching"]) == 4
        assert record["trace"]


class TestWorkerIdentity:
    def test_workers_1_2_3_bit_identical(self):
        serial = _merged(workers=1)
        for workers in (2, 3):
            sharded = _merged(workers=workers)
            assert json.dumps(sharded["trace"]) == json.dumps(
                serial["trace"]
            )
            assert json.dumps(sharded["profile_summary"]) == json.dumps(
                serial["profile_summary"]
            )
            assert sharded["trials"] == serial["trials"]

    def test_merge_tags_trial_index(self):
        merged = _merged(workers=1)
        trials = {r["trial"] for r in merged["trace"]}
        assert trials == {0, 1, 2}

    def test_merge_skips_missing_results(self):
        results = TrialPool(workers=1).run(_specs(trials=2))
        merged = merge_trace_trials([results[0], None])
        assert [t["trial"] for t in merged["trials"]] == [0]


# The exact CLI invocation the CI trace-smoke job replays; the golden
# file pins the trace records (regenerate its "trace" list from the
# "trace" section of the command's --metrics-out artifact).
GOLDEN_ARGS = [
    "trace",
    "--n", "4",
    "--eps", "0.5",
    "--k", "2",
    "--inner", "2",
    "--outer", "2",
    "--mm-iterations", "4",
    "--drop-rate", "0.25",
    "--fault-seed", "7",
    "--seed", "0",
    "--trials", "2",
]


def _artifact(tmp_path, workers):
    out = tmp_path / f"m{workers}.json"
    code = main(GOLDEN_ARGS + ["--workers", str(workers), "--metrics-out",
                               str(out)])
    assert code == 0
    return load_metrics(out)


def _wall_free(artifact):
    """The artifact's counters and timer call counts (no wall time)."""
    metrics = artifact["metrics"]
    return {
        "calls": {
            name: hist["count"] for name, hist in metrics["histograms"].items()
        },
        "counters": metrics["counters"],
    }


class TestGoldenCausalTrace:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_cli_reproduces_committed_trace(self, tmp_path, workers):
        artifact = _artifact(tmp_path, workers)
        golden = json.loads(GOLDEN.read_text())
        assert json.dumps(artifact["trace"]) == json.dumps(golden["trace"])
        assert _wall_free(artifact) == _wall_free(_artifact(tmp_path, 1))

    def test_golden_is_well_formed(self):
        golden = json.loads(GOLDEN.read_text())
        assert golden["metadata"]["fault_seed"] == 7
        assert golden["metadata"]["trials"] == 2
        records = golden["trace"]
        messages = [r for r in records if r.get("type") == "message"]
        assert messages, "golden trace should contain messages"
        dropped = [m for m in messages if m.get("fate") == "dropped"]
        assert dropped, "golden trace should contain dropped messages"
        ids = {m["id"] for m in messages}
        for message in messages:
            assert message["parent"] == "" or message["parent"] in ids


class TestCLISurface:
    def test_json_summary_is_worker_independent(self, capsys):
        outputs = []
        for workers in ("1", "2"):
            code = main(GOLDEN_ARGS + ["--workers", workers, "--json"])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["dropped_messages"] > 0

    def test_explain_requires_single_trial(self, capsys):
        code = main(GOLDEN_ARGS + ["--explain", "0", "0"])
        assert code == 2

    def test_explain_prints_verdict(self, capsys):
        args = [a for a in GOLDEN_ARGS]
        args[args.index("--trials") + 1] = "1"
        code = main(args + ["--explain", "0", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pair"] == [0, 0]
        assert "verdict" in payload

    def test_metrics_out_spans_are_chrome_shaped(self, tmp_path):
        events = _artifact(tmp_path, 2)["traceEvents"]
        assert events
        assert all(e["ph"] == "X" for e in events)
        assert {e["tid"] for e in events} == {0, 1}  # one lane per trial


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
