"""Rule-engine mechanics: suppression comments, configuration loading
and scoping, reporters, and the ``repro-asm lint`` CLI subcommand."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    LintConfig,
    LintReport,
    Violation,
    all_rules,
    format_json,
    format_text,
    load_config,
    run_lint,
)
from repro.lint.config import _path_matches

REPO = Path(__file__).resolve().parent.parent


def _write(tmp_path: Path, relpath: str, source: str) -> Path:
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return target


DET_SNIPPET = (
    "def f(items):\n"
    "    pool = set(items)\n"
    "    return [x for x in pool]\n"
)


class TestSuppression:
    def test_same_line_named_suppression(self, tmp_path):
        target = _write(
            tmp_path,
            "src/repro/core/s.py",
            "def f(items):\n"
            "    pool = set(items)\n"
            "    return [x for x in pool]  # lint: ignore[DET001]\n",
        )
        report = run_lint([target], LintConfig())
        assert report.ok
        assert report.suppressed == 1

    def test_suppression_is_per_rule(self, tmp_path):
        # Ignoring an unrelated rule must not silence DET001.
        target = _write(
            tmp_path,
            "src/repro/core/s.py",
            "def f(items):\n"
            "    pool = set(items)\n"
            "    return [x for x in pool]  # lint: ignore[TEL001]\n",
        )
        report = run_lint([target], LintConfig())
        assert [v.rule for v in report.violations] == ["DET001"]
        assert report.suppressed == 0

    def test_bare_ignore_suppresses_all_rules(self, tmp_path):
        target = _write(
            tmp_path,
            "src/repro/core/s.py",
            "def f(items):\n"
            "    pool = set(items)\n"
            "    return [x for x in pool]  # lint: ignore\n",
        )
        report = run_lint([target], LintConfig())
        assert report.ok
        assert report.suppressed == 1

    def test_comma_separated_rule_list(self, tmp_path):
        target = _write(
            tmp_path,
            "src/repro/core/s.py",
            "import random\n"
            "def f(items):\n"
            "    return sorted(set(items)), random.random()  "
            "# lint: ignore[DET001, DET002]\n",
        )
        report = run_lint([target], LintConfig())
        assert report.ok

    def test_marker_inside_string_is_not_a_suppression(self, tmp_path):
        target = _write(
            tmp_path,
            "src/repro/core/s.py",
            "def f(items):\n"
            "    pool = set(items)\n"
            '    return [x for x in pool], "lint: ignore[DET001]"\n',
        )
        report = run_lint([target], LintConfig())
        assert [v.rule for v in report.violations] == ["DET001"]


class TestConfig:
    def test_path_matching_relative_and_absolute(self):
        assert _path_matches("src/repro/core/asm.py", "src/repro/core")
        assert _path_matches("/abs/repo/src/repro/core/asm.py", "src/repro/core")
        assert not _path_matches("src/repro/obs/metrics.py", "src/repro/core")
        # Prefixes match path components, not substrings.
        assert not _path_matches("src/repro/core2/x.py", "src/repro/core")

    def test_disable_by_rule_and_family(self):
        config = LintConfig().with_disabled("DET001", "TEL")
        assert not config.rule_enabled("DET001", "DET")
        assert config.rule_enabled("DET002", "DET")
        assert not config.rule_enabled("TEL001", "TEL")

    def test_enable_allowlist(self):
        config = LintConfig(enable=frozenset({"DET"}))
        assert config.rule_enabled("DET001", "DET")
        assert not config.rule_enabled("TEL001", "TEL")

    def test_load_config_reads_tool_table(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.repro-lint]\n"
            'paths = ["src/custom"]\n'
            'disable = ["TEL003"]\n'
            "\n"
            "[tool.repro-lint.scopes]\n"
            'determinism = ["src/custom/algo"]\n'
        )
        config = load_config(pyproject)
        assert config.paths == ("src/custom",)
        assert not config.rule_enabled("TEL003", "TEL")
        assert config.rule_enabled("TEL001", "TEL")
        assert config.scopes["determinism"] == ("src/custom/algo",)
        # Unmentioned scopes keep their defaults.
        assert "protocols" in config.scopes

    def test_load_config_missing_file_returns_defaults(self, tmp_path):
        config = load_config(tmp_path / "nope.toml")
        assert config == LintConfig()

    def test_repo_pyproject_parses(self):
        config = load_config(REPO / "pyproject.toml")
        assert config.paths, "repo [tool.repro-lint] must define paths"

    def test_toml_subset_fallback_parser(self):
        from repro.lint.config import _parse_toml_subset

        doc = _parse_toml_subset(
            "[tool.repro-lint]\n"
            'paths = ["a", "b"]\n'
            "flag = true\n"
            "[tool.repro-lint.scopes]\n"
            'library = ["src"]\n'
        )
        table = doc["tool"]["repro-lint"]
        assert table["paths"] == ["a", "b"]
        assert table["flag"] is True
        assert table["scopes"]["library"] == ["src"]

    def test_scoping_keeps_rules_out_of_foreign_paths(self, tmp_path):
        # A determinism violation outside core/mm/baselines is not
        # flagged by DET rules.
        target = _write(tmp_path, "src/repro/analysis/d.py", DET_SNIPPET)
        report = run_lint([target], LintConfig())
        assert "DET001" not in {v.rule for v in report.violations}


class TestReporters:
    def _report(self) -> LintReport:
        return LintReport(
            violations=[
                Violation("b.py", 3, 0, "DET001", "set iteration"),
                Violation("a.py", 1, 4, "TEL001", "print in library"),
            ],
            files_scanned=2,
            rules_run=("DET001", "TEL001"),
            suppressed=1,
        )

    def test_text_report_lists_sorted_violations(self):
        text = format_text(self._report())
        lines = text.splitlines()
        assert lines[0] == "a.py:1:4: TEL001 print in library"
        assert lines[1] == "b.py:3:0: DET001 set iteration"
        assert "2 violation(s)" in text
        assert "1 suppressed" in text

    def test_json_report_round_trips(self):
        payload = json.loads(format_json(self._report()))
        assert payload["ok"] is False
        assert payload["counts"] == {"DET001": 1, "TEL001": 1}
        assert payload["violations"][0]["path"] == "a.py"
        assert payload["suppressed"] == 1

    def test_clean_text_report(self):
        text = format_text(LintReport(files_scanned=5, rules_run=("X",)))
        assert text.startswith("ok: 5 file(s)")


class TestEngine:
    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        target = _write(tmp_path, "src/repro/core/bad.py", "def f(:\n")
        report = run_lint([target], LintConfig())
        assert [v.rule for v in report.violations] == ["E000"]

    def test_rule_ids_are_unique_and_well_formed(self):
        rules = all_rules()
        ids = [rule.rule_id for rule in rules]
        assert len(ids) == len(set(ids))
        for rule in rules:
            assert rule.rule_id.startswith(rule.family)
            assert rule.description
            assert rule.scope in LintConfig().scopes

    def test_directory_walk_deduplicates(self, tmp_path):
        target = _write(tmp_path, "src/repro/core/s.py", DET_SNIPPET)
        report = run_lint([target, target.parent], LintConfig())
        assert len(report.violations) == 1


class TestCLI:
    def test_lint_clean_tree_exits_zero(self, capsys):
        code = main(
            [
                "lint",
                str(REPO / "src" / "repro"),
                "--config",
                str(REPO / "pyproject.toml"),
            ]
        )
        assert code == 0
        assert "ok:" in capsys.readouterr().out

    def test_lint_violations_exit_one_with_json(self, tmp_path, capsys):
        target = _write(tmp_path, "src/repro/core/bad.py", DET_SNIPPET)
        code = main(["lint", str(target), "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert any(v["rule"] == "DET001" for v in payload["violations"])

    def test_lint_disable_flag(self, tmp_path, capsys):
        target = _write(tmp_path, "src/repro/core/bad.py", DET_SNIPPET)
        code = main(["lint", str(target), "--disable", "DET001"])
        assert code == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        code = main(["lint", "--list-rules"])
        assert code == 0
        out = capsys.readouterr().out
        for rule_id in (
            "CONGEST001", "MSG001", "DET001", "TEL001", "FLOW001"
        ):
            assert rule_id in out

    def test_list_rules_marks_flow_disabled_without_flag(self, capsys):
        main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        flow_lines = [l for l in out.splitlines() if "FLOW001" in l]
        assert flow_lines and flow_lines[0].startswith("-")
        main(["lint", "--flow", "--list-rules"])
        out = capsys.readouterr().out
        flow_lines = [l for l in out.splitlines() if "FLOW001" in l]
        assert flow_lines and not flow_lines[0].startswith("-")

    FLOW_SNIPPET = (
        "from repro.congest.message import Message\n"
        "\n"
        "def _eligible(graph, v):\n"
        "    return set(graph[v])\n"
        "\n"
        "def node_program(graph, v):\n"
        "    active = _eligible(graph, v)\n"
        "    inbox = yield {u: Message('PROPOSE') for u in active}\n"
        "    return inbox\n"
    )

    def test_flow_flag_enables_interprocedural_analysis(
        self, tmp_path, capsys
    ):
        target = _write(
            tmp_path, "src/repro/congest/protocols/p.py", self.FLOW_SNIPPET
        )
        # Without --flow the finding needs whole-program reasoning the
        # per-file rules don't attempt.
        assert main(["lint", str(target), "--format", "json"]) == 0
        capsys.readouterr()
        code = main(["lint", str(target), "--flow", "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert any(v["rule"] == "FLOW001" for v in payload["violations"])

    def test_sarif_format(self, tmp_path, capsys):
        target = _write(tmp_path, "src/repro/core/bad.py", DET_SNIPPET)
        code = main(["lint", str(target), "--format", "sarif"])
        assert code == 1
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        results = run["results"]
        assert any(r["ruleId"] == "DET001" for r in results)
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {r["ruleId"] for r in results} <= rule_ids
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1

    def test_baseline_update_then_pass(self, tmp_path, capsys):
        target = _write(
            tmp_path, "src/repro/congest/protocols/p.py", self.FLOW_SNIPPET
        )
        baseline = tmp_path / "baseline.json"
        code = main(
            [
                "lint", str(target), "--flow",
                "--baseline", str(baseline), "--update-baseline",
            ]
        )
        assert code == 0
        assert "accepted" in capsys.readouterr().out
        code = main(
            [
                "lint", str(target), "--flow",
                "--baseline", str(baseline), "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["baselined"] >= 1

    def test_update_baseline_requires_baseline_path(self, tmp_path, capsys):
        target = _write(tmp_path, "src/repro/core/bad.py", DET_SNIPPET)
        code = main(["lint", str(target), "--update-baseline"])
        assert code == 2
        assert "requires --baseline" in capsys.readouterr().err


class TestSimulatorCrossReference:
    """Runtime diagnostics point back at the static rules."""

    def test_bit_cap_error_names_round_and_rule(self):
        from repro.congest.message import Message
        from repro.congest.simulator import Simulator
        from repro.errors import ProtocolViolationError
        from repro.graphs import Graph

        graph = Graph()
        graph.add_edge("a", "b")

        def sender():
            yield {"b": Message("POINT", tuple(range(50)))}

        def receiver():
            yield {}

        sim = Simulator(graph, {"a": sender(), "b": receiver()})
        with pytest.raises(ProtocolViolationError) as exc:
            sim.run()
        text = str(exc.value)
        assert "round 1" in text
        assert "MSG002" in text
        assert "docs/static_analysis.md" in text
