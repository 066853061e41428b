"""Tests for the command-line interface."""

from __future__ import annotations

import re

import pytest

from repro.cli import build_parser, main


# A congest run small enough to finish in well under a second.
_CONGEST_SMALL = [
    "congest", "--n", "5", "--inner", "3", "--outer", "2",
    "--mm-iterations", "8",
]


def _strip_seconds(out):
    """Drop each table line's last column (the wall-clock seconds)."""
    return re.sub(r"[|+][^|+\n]*$", "", out, flags=re.MULTILINE)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algorithm == "asm"
        assert args.workload == "complete"
        assert args.n == 128

    def test_invalid_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "nope"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "experiments:" in out
        assert "workloads:" in out

    @pytest.mark.parametrize(
        "algorithm",
        ["asm", "rand-asm", "almost-regular-asm", "gale-shapley",
         "truncated-gs"],
    )
    def test_run_each_algorithm(self, algorithm, capsys):
        code = main(
            [
                "run",
                "--algorithm",
                algorithm,
                "--workload",
                "complete",
                "--n",
                "12",
                "--eps",
                "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert algorithm.split("@")[0] in out

    @pytest.mark.parametrize(
        "workload",
        ["complete", "gnp", "bounded", "regular", "almost_regular",
         "master_list", "euclidean", "zipf", "clustered",
         "adversarial_gs"],
    )
    def test_run_each_workload(self, workload, capsys):
        code = main(
            ["run", "--workload", workload, "--n", "12", "--eps", "0.5"]
        )
        assert code == 0
        assert workload in capsys.readouterr().out

    def test_experiment_quick(self, capsys):
        code = main(["experiment", "e8", "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[E8]" in out and "PASS" in out

    def test_experiment_unknown_exits_2(self, capsys):
        assert main(["experiment", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'nope'" in err
        # The error must teach the valid vocabulary.
        for name in ("e1", "e12", "a5"):
            assert name in err

    def test_experiment_json(self, capsys):
        import json

        assert main(["experiment", "e8", "--quick", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "E8"
        assert payload["passed"] is True
        assert payload["rows"]

    def test_experiment_workers_matches_serial(self, capsys):
        assert main(["experiment", "e8", "--quick"]) == 0
        serial = capsys.readouterr().out
        assert main(["experiment", "e8", "--quick", "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_workers_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "e8", "--workers", "0"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["congest", "--crash", "-1"],
            ["congest", "--crash", "2", "--crash-round", "-5"],
            ["congest", "--crash", "2", "--crash-round", "0"],
            ["congest", "--crash", "2", "--crash-restart", "0"],
            ["congest", "--n", "-2"],
            ["congest", "--inner", "0"],
            ["congest", "--outer", "-1"],
            ["congest", "--mm-iterations", "0"],
            ["trace", "--k", "0"],
            ["trace", "--trials", "0"],
            ["trace", "--inner", "0"],
            ["run", "--n", "-1"],
            ["run", "--gs-iterations", "-1"],
            ["run", "--slo-deadline", "-1"],
            ["generate", "--n", "-1", "--out", "x.json"],
            ["dynamic", "--churn-steps", "-1"],
            ["dynamic", "--repair-radius", "-1"],
            ["dynamic", "--repair-passes", "0"],
            ["dynamic", "--trials", "0"],
            ["congest", "--n", "two"],
        ],
    )
    def test_integer_flags_out_of_range_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "error: argument --" in err

    @pytest.mark.parametrize(
        "argv, dest",
        [
            (["congest", "--crash", "0"], "crash"),
            (["run", "--slo-deadline", "0"], "slo_deadline"),
            (["dynamic", "--repair-radius", "0"], "repair_radius"),
            (["dynamic", "--churn-steps", "0"], "churn_steps"),
            (["run", "--gs-iterations", "0"], "gs_iterations"),
            (["trace", "--k", "1"], "k"),
        ],
    )
    def test_integer_flags_accept_their_least_value(self, argv, dest):
        args = build_parser().parse_args(argv)
        assert getattr(args, dest) == int(argv[-1])

    def test_experiment_seed_override(self, capsys):
        assert main(["experiment", "e8", "--quick", "--seed", "3"]) == 0

    @pytest.mark.parametrize(
        "protocol",
        ["asm", "rand-asm", "almost-regular-asm", "gale-shapley"],
    )
    def test_congest_each_protocol(self, protocol, capsys):
        code = main(
            [
                "congest",
                "--protocol",
                protocol,
                "--n",
                "5",
                "--inner",
                "3",
                "--outer",
                "2",
                "--mm-iterations",
                "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert protocol in out
        assert "rounds" in out

    def test_run_json_output(self, capsys):
        assert main(
            ["run", "--n", "10", "--eps", "0.5", "--json"]
        ) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["eps"] == 0.5
        assert payload["n_men"] == 10
        assert "instability" in payload
        assert payload["instability"] <= 0.5

    def test_run_metrics_and_events_export(self, tmp_path, capsys):
        from repro.io import load_metrics

        metrics_path = tmp_path / "m.json"
        code = main(
            [
                "run", "--algorithm", "asm", "--workload", "complete",
                "--n", "12", "--eps", "0.5", "--seed", "3",
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        doc = load_metrics(metrics_path)
        manifest = doc["manifest"]
        assert manifest["algorithm"] == "asm"
        assert manifest["params"]["eps"] == 0.5
        assert manifest["workload"] == "complete"
        assert manifest["seed"] == 3
        assert manifest["n"] == 12
        assert manifest["finished_at"] is not None
        hists = doc["metrics"]["histograms"]
        for phase in ("propose", "accept_reject", "maximal_matching"):
            assert {"p50", "p95", "max"} <= set(hists[f"asm.phase.{phase}"])
        assert doc["metrics"]["counters"]["asm.proposal_rounds"] > 0
        assert doc["metrics"]["gauges"]["run.wall_seconds"] > 0
        records = doc["metrics"]["events"]
        kinds = {r["kind"] for r in records}
        assert "proposal_round" in kinds
        # the export notice goes to stderr, keeping stdout clean
        captured = capsys.readouterr()
        assert "wrote metrics to" in captured.err
        assert f"({len(records)} events)" in captured.err
        assert "wrote metrics to" not in captured.out

    def test_run_json_with_metrics_out_keeps_stdout_json(
        self, tmp_path, capsys
    ):
        import json

        code = main(
            [
                "run", "--n", "10", "--eps", "0.5", "--json",
                "--metrics-out", str(tmp_path / "m.json"),
            ]
        )
        assert code == 0
        json.loads(capsys.readouterr().out)  # stdout stays parseable

    def test_run_gs_metrics_export(self, tmp_path):
        from repro.io import load_metrics

        metrics_path = tmp_path / "m.json"
        assert main(
            [
                "run", "--algorithm", "gale-shapley", "--n", "10",
                "--metrics-out", str(metrics_path),
            ]
        ) == 0
        doc = load_metrics(metrics_path)
        assert doc["manifest"]["algorithm"] == "gale-shapley"
        assert doc["metrics"]["counters"]["gs.proposals"] > 0
        assert doc["metrics"]["gauges"]["gs.matching_size"] == 10

    def test_run_slo_eps_pass(self, tmp_path, capsys):
        import json

        from repro.io import load_metrics

        path = tmp_path / "m.json"
        code = main(
            ["run", "--n", "12", "--eps", "0.25", "--slo-eps", "0.25",
             "--json", "--metrics-out", str(path)]
        )
        assert code == 0
        slo = json.loads(capsys.readouterr().out)["slo"]
        assert slo["satisfied"] and slo["target_eps"] == 0.25
        kinds = {e["kind"] for e in load_metrics(path)["metrics"]["events"]}
        assert "slo_sample" in kinds

    def test_run_slo_eps_fail(self, capsys):
        code = main(
            ["run", "--n", "12", "--eps", "0.25", "--slo-eps", "0.001",
             "--slo-deadline", "0"]
        )
        assert code == 1
        assert "-> FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--slo-deadline", "3"],
            ["--algorithm", "gale-shapley", "--slo-eps", "0.1"],
        ],
    )
    def test_run_slo_usage_errors(self, argv, capsys):
        assert main(["run", "--n", "8"] + argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_congest_gale_shapley_reports_unresolved_nodes(self, capsys):
        assert main(
            [
                "congest", "--protocol", "gale-shapley",
                "--workload", "complete", "--n", "6", "--seed", "0",
                "--crash", "2", "--crash-round", "2", "--fault-seed", "1",
            ]
        ) == 0
        header, _, row = capsys.readouterr().out.splitlines()[1:4]
        cells = dict(
            zip(
                (c.strip() for c in header.split("|")),
                (c.strip() for c in row.split("|")),
            )
        )
        assert cells["outcome"] == "degraded"
        assert cells["unresolved"] == "2"

    def test_congest_metrics_and_events_export(self, tmp_path):
        from repro.io import load_metrics

        metrics_path = tmp_path / "m.json"
        code = main(
            [
                "congest", "--protocol", "asm", "--n", "5",
                "--inner", "3", "--outer", "2", "--mm-iterations", "8",
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        doc = load_metrics(metrics_path)
        assert doc["manifest"]["algorithm"] == "congest-asm"
        counters = doc["metrics"]["counters"]
        assert counters["congest.rounds"] > 0
        assert counters["congest.messages"] > 0
        assert "congest.round_seconds" in doc["metrics"]["histograms"]
        records = doc["metrics"]["events"]
        kinds = {r["kind"] for r in records}
        assert "congest_round" in kinds
        round_total = sum(
            r["messages"] for r in records if r["kind"] == "congest_round"
        )
        assert round_total == counters["congest.messages"]

    def test_congest_latency_dist_selects_async_transport(
        self, tmp_path, capsys
    ):
        from repro.io import load_metrics

        args = _CONGEST_SMALL + ["--latency-dist", "uniform:0-2",
                                 "--link-seed", "5"]
        outs = []
        for run in range(2):
            path = tmp_path / f"m{run}.json"
            assert main(args + ["--metrics-out", str(path)]) == 0
            outs.append(_strip_seconds(capsys.readouterr().out))
            transport = load_metrics(path)["manifest"]["extra"]["transport"]
            assert transport == {
                "kind": "async",
                "latency": {"kind": "uniform", "low": 0, "high": 2},
                "link_seed": 5,
            }
        assert outs[0] == outs[1]
        assert "async" in outs[0]

    def test_congest_zero_latency_is_the_default_sync_run(
        self, tmp_path, capsys
    ):
        from repro.io import load_metrics

        assert main(_CONGEST_SMALL) == 0
        default = _strip_seconds(capsys.readouterr().out)
        # A geometric model at rate 0 never draws a nonzero latency.
        for spec in ("zero", "geometric:0:3"):
            path = tmp_path / "m.json"
            assert main(
                _CONGEST_SMALL
                + ["--latency-dist", spec, "--metrics-out", str(path)]
            ) == 0
            assert _strip_seconds(capsys.readouterr().out) == default
            assert "transport" not in load_metrics(path)["manifest"]["extra"]

    def test_report_quick(self, capsys):
        assert main(["report", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        # every registered experiment appears
        from repro.analysis.experiments import ALL_EXPERIMENTS

        for name in ALL_EXPERIMENTS:
            assert f"[{name.upper()}]" in out

    def test_report_quick_markdown(self, capsys):
        assert main(["report", "--quick", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "## E1 —" in out
        assert "**Overall: PASS**" in out
        assert "| workload |" in out

    def test_report_only_subset_json(self, capsys):
        import json

        assert main(
            ["report", "--quick", "--json", "--only", "e8,a3"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        ids = [doc["experiment_id"] for doc in payload["experiments"]]
        # Registry order, independent of --only order.
        assert ids == ["E8", "A3"]
        assert payload["overall_passed"] is True

    def test_report_only_unknown_exits_2(self, capsys):
        assert main(["report", "--quick", "--only", "zz"]) == 2
        assert "unknown experiment ids zz" in capsys.readouterr().err


class TestRunArtifact:
    """``--metrics-out`` is each command's one artifact: the registry
    snapshot, its spans as Chrome ``"X"`` events, and (``trace``) the
    causal trace."""

    COMMANDS = {
        "run": ["run", "--n", "12", "--eps", "0.5"],
        "congest": _CONGEST_SMALL,
        "trace": ["trace", "--n", "4", "--eps", "0.5", "--k", "2",
                  "--inner", "2", "--outer", "2", "--mm-iterations", "4",
                  "--trials", "2"],
        "dynamic": ["dynamic", "--n", "12", "--churn-steps", "6",
                    "--trials", "2"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_one_artifact(self, command, tmp_path, capsys):
        from repro.io import load_metrics

        path = tmp_path / "m.json"
        assert main(self.COMMANDS[command] + ["--metrics-out", str(path)]) == 0
        artifact = load_metrics(path)
        assert isinstance(artifact["metrics"]["events"], list)
        events = artifact["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] == "X"
            assert {"name", "ts", "dur", "pid", "tid"} <= set(event)
        if command == "trace":
            assert {e["tid"] for e in events} == {0, 1}
            assert {r["trial"] for r in artifact["trace"]} == {0, 1}
        else:
            assert "trace" not in artifact
