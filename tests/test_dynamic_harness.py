"""Tests for sharded dynamic churn trials and the ``dynamic`` CLI.

The workers-equivalence property from the issue: a sharded
``repro-asm dynamic --workers N`` run must produce byte-identical
output to the serial run, because nothing in a trial result depends on
wall time or worker identity.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.cli import build_parser, main
from repro.dynamic import (
    DYNAMIC_TRIAL_RUNNER,
    merge_dynamic_trials,
    run_dynamic_trial,
)
from repro.errors import InvalidParameterError
from repro.parallel import TrialPool, TrialSpec, derive_seed
from repro.workloads import ChurnConfig, churn_stream
from repro.workloads.generators import complete_uniform


def _spec(trial=0, **params):
    params.setdefault("churn_steps", 12)
    params.setdefault("churn_seed", derive_seed(0, "churn", trial))
    return TrialSpec.make(
        DYNAMIC_TRIAL_RUNNER,
        algorithm="dynamic",
        workload="complete",
        n=16,
        eps=0.5,
        seed=0,
        trial=trial,
        **params,
    )


class TestChurnConfig:
    def test_negative_steps_rejected(self):
        with pytest.raises(InvalidParameterError):
            ChurnConfig(steps=-1)

    def test_zero_weights_rejected(self):
        with pytest.raises(InvalidParameterError):
            ChurnConfig(steps=5, arrival_weight=0, departure_weight=0,
                        edge_weight=0, swap_weight=0)

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidParameterError):
            ChurnConfig(steps=5, edge_weight=-1)

    def test_bad_arrival_degree_rejected(self):
        with pytest.raises(InvalidParameterError):
            ChurnConfig(steps=5, arrival_degree=0)

    def test_stream_is_pickle_safe(self):
        deltas = churn_stream(
            complete_uniform(6, seed=1), ChurnConfig(steps=15), 4
        )
        assert pickle.loads(pickle.dumps(deltas)) == deltas


class TestRunDynamicTrial:
    def test_result_is_json_safe_and_deterministic(self):
        first = run_dynamic_trial(_spec())
        second = run_dynamic_trial(_spec())
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        assert first["deltas"] == 12
        assert first["eps_ok"] is True
        # no wall-clock fields may leak into the document
        assert not any("seconds" in k or "time" in k for k in first)

    def test_slo_eps_overrides_eps(self):
        result = run_dynamic_trial(_spec(slo_eps=0.05))
        assert result["worst_eps"] <= 0.05 + 1e-12


class TestMerge:
    def test_merge_orders_and_aggregates(self):
        results = [run_dynamic_trial(_spec(trial=i)) for i in range(3)]
        merged = merge_dynamic_trials(results)
        assert [t["trial"] for t in merged["trials"]] == [0, 1, 2]
        assert merged["deltas"] == sum(r["deltas"] for r in results)
        assert merged["worst_eps"] == max(r["worst_eps"] for r in results)
        assert merged["eps_ok"] is True

    def test_merge_skips_missing_shards(self):
        merged = merge_dynamic_trials([None, run_dynamic_trial(_spec())])
        assert len(merged["trials"]) == 1
        assert merged["trials"][0]["trial"] == 1

    def test_merge_empty(self):
        merged = merge_dynamic_trials([])
        assert merged["deltas"] == 0
        assert merged["worst_eps"] == 0.0
        assert merged["eps_ok"] is True


class TestTrialMetrics:
    """With ``metrics`` a trial ships its engine's registry."""

    def test_off_by_default(self):
        assert "metrics" not in run_dynamic_trial(_spec())

    def test_records_merge_in_spec_order(self):
        # No repair and a tight SLO: each trial falls back once.
        knobs = dict(slo_eps=0.01, repair_radius=0)
        results = [
            run_dynamic_trial(_spec(trial=i, metrics=True, **knobs))
            for i in range(2)
        ]
        plain = merge_dynamic_trials(
            [run_dynamic_trial(_spec(trial=i, **knobs)) for i in range(2)]
        )
        merged = merge_dynamic_trials(results)
        assert merged["fallbacks"] == 2
        state = merged.pop("metrics")
        assert merged == plain  # the trial document is unchanged
        events = state["events"]
        assert [e["seq"] for e in events] == list(range(len(events)))
        deltas = [e for e in events if e["kind"] == "dynamic_delta"]
        assert [e["delta"] for e in deltas] == list(range(1, 13)) * 2
        kinds = {e["kind"] for e in events}
        assert {"dynamic_fallback", "slo_sample", "slo_violation"} <= kinds
        assert len(state["events"]) == sum(
            len(r["metrics"]["events"]) for r in results
        )

    def test_cli_metrics_out_holds_engine_records(self, tmp_path, capsys):
        from repro.io import load_metrics

        out = tmp_path / "m.json"
        argv = ["dynamic", "--workload", "gnp", "--n", "30",
                "--churn-steps", "10", "--trials", "2", "--json"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--workers", "2", "--metrics-out", str(out)]) == 0
        assert capsys.readouterr().out == plain
        events = load_metrics(out)["metrics"]["events"]
        kinds = [e["kind"] for e in events]
        assert kinds.count("dynamic_delta") == 20
        assert kinds.count("slo_sample") == 20
        assert kinds.count("trial_chunk") == 2


class TestWorkersEquivalence:
    def test_sharded_run_matches_serial(self):
        specs = [_spec(trial=i) for i in range(4)]
        serial = merge_dynamic_trials(TrialPool(workers=1).run(specs))
        sharded = merge_dynamic_trials(TrialPool(workers=3).run(specs))
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            sharded, sort_keys=True
        )


class TestDynamicCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["dynamic"])
        assert args.workload == "complete"
        assert args.repair_radius == 2
        assert args.slo_eps is None
        assert args.func.__name__ == "_cmd_dynamic"

    def test_table_mode(self, capsys):
        assert main(["dynamic", "--n", "12", "--churn-steps", "8"]) == 0
        out = capsys.readouterr().out
        assert "dynamic engine" in out
        assert "fallbacks" in out

    def test_json_mode_workers_identical(self, capsys):
        argv = ["dynamic", "--n", "16", "--churn-steps", "10",
                "--trials", "3", "--json"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        sharded = capsys.readouterr().out
        assert serial == sharded
        doc = json.loads(serial)
        assert doc["eps_ok"] is True
        assert len(doc["trials"]) == 3
