"""The interprocedural determinism-flow analyzer (``repro.lint.flow``).

Covers the FLOW rule family end to end: the PR-6 set-built-outbox
regression shape, cross-module taint propagation, sanitizers, the
findings baseline, the source-hash cache, and the opt-in gating.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import (
    LintConfig,
    apply_baseline,
    baseline_payload,
    fingerprint,
    load_baseline,
    run_lint,
)
from repro.lint.flow import analyze_project, digest_sources
from repro.lint.flow.cache import _MEMO, cached_findings, store_findings
from repro.lint.flow.taint import FlowFinding

REPO = Path(__file__).resolve().parent.parent

FLOW_CONFIG = LintConfig(flow=True)


def _write(tmp_path: Path, relpath: str, source: str) -> Path:
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return target


def _flow_rules(report):
    return [v.rule for v in report.violations if v.rule.startswith("FLOW")]


class TestSetBuiltOutboxRegression:
    """FLOW001 must flag the exact bug shape PR 6 fixed at runtime:
    an outbox dict built by iterating a set, yielded to the simulator.
    Before the simulator canonicalized delivery order, this made
    traces PYTHONHASHSEED-dependent across worker processes."""

    BUGGY = (
        "from repro.congest.message import Message\n"
        "\n"
        "def propose(graph, v):\n"
        "    active = set(graph[v])\n"
        "    inbox = yield {u: Message('PROPOSE') for u in active}\n"
        "    return inbox\n"
    )

    def test_set_built_outbox_is_flagged(self, tmp_path):
        _write(tmp_path, "src/repro/congest/protocols/buggy.py", self.BUGGY)
        report = run_lint([tmp_path / "src"], FLOW_CONFIG)
        assert "FLOW001" in _flow_rules(report)

    def test_interprocedural_set_through_helper(self, tmp_path):
        # The set is constructed two calls away, in another module; the
        # taint must survive both returns to reach the yielded outbox.
        _write(
            tmp_path,
            "src/repro/congest/protocols/helpers.py",
            "def g0_neighbors(graph, v):\n"
            "    return set(graph[v])\n"
            "\n"
            "def eligible(graph, v):\n"
            "    return g0_neighbors(graph, v)\n",
        )
        _write(
            tmp_path,
            "src/repro/congest/protocols/proto.py",
            "from repro.congest.protocols.helpers import eligible\n"
            "from repro.congest.message import Message\n"
            "\n"
            "def propose(graph, v):\n"
            "    active = eligible(graph, v)\n"
            "    inbox = yield {u: Message('PROPOSE') for u in active}\n"
            "    return inbox\n",
        )
        report = run_lint([tmp_path / "src"], FLOW_CONFIG)
        flagged = [
            v for v in report.violations if v.rule == "FLOW001"
        ]
        assert flagged, report.violations
        assert any("proto.py" in v.path for v in flagged)

    def test_sorted_sanitizer_clears_the_flow(self, tmp_path):
        fixed = self.BUGGY.replace("set(graph[v])", "sorted(set(graph[v]))")
        _write(tmp_path, "src/repro/congest/protocols/fixed.py", fixed)
        report = run_lint([tmp_path / "src"], FLOW_CONFIG)
        assert _flow_rules(report) == []

    def test_loop_emission_over_set_is_flagged(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/congest/protocols/loopy.py",
            "from repro.congest.message import Message\n"
            "\n"
            "def rounds(neighbors):\n"
            "    rejected = set(neighbors)\n"
            "    for u in rejected:\n"
            "        yield {u: Message('REJECT')}\n",
        )
        report = run_lint([tmp_path / "src"], FLOW_CONFIG)
        assert "FLOW001" in _flow_rules(report)


class TestEntropyFlow:
    def test_global_random_reaches_message(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/congest/protocols/lucky.py",
            "import random\n"
            "from repro.congest.message import Message\n"
            "\n"
            "def jitter():\n"
            "    return random.random()\n"
            "\n"
            "def send(v):\n"
            "    yield {v: Message('PING', payload=jitter())}\n",
        )
        report = run_lint([tmp_path / "src"], FLOW_CONFIG)
        assert "FLOW002" in _flow_rules(report)

    def test_derive_seed_launders_entropy(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/congest/protocols/seeded.py",
            "import random\n"
            "from repro.congest.message import Message\n"
            "from repro.parallel.spec import derive_seed\n"
            "\n"
            "def send(spec, v):\n"
            "    token = derive_seed(spec, random.random())\n"
            "    yield {v: Message('PING', payload=token)}\n",
        )
        report = run_lint([tmp_path / "src"], FLOW_CONFIG)
        assert _flow_rules(report) == []

    def test_hash_builtin_is_entropy(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/congest/protocols/hashy.py",
            "from repro.congest.message import Message\n"
            "\n"
            "def send(v):\n"
            "    yield {v: Message('PING', payload=hash(v))}\n",
        )
        report = run_lint([tmp_path / "src"], FLOW_CONFIG)
        assert "FLOW002" in _flow_rules(report)


class TestRecordAndAttributeFlow:
    def test_set_iteration_reaches_telemetry(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/core/tally.py",
            "def tally(metrics, items):\n"
            "    pool = set(items)\n"
            "    metrics.inc('pool', ','.join(pool))\n",
        )
        report = run_lint([tmp_path / "src"], FLOW_CONFIG)
        assert "FLOW003" in _flow_rules(report)

    def test_set_payload_reaches_save(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/core/exporter.py",
            "from repro.io import save_trace\n"
            "\n"
            "def export(records, path):\n"
            "    dirty = {r for r in records}\n"
            "    save_trace(dirty, path)\n",
        )
        report = run_lint([tmp_path / "src"], FLOW_CONFIG)
        assert "FLOW003" in _flow_rules(report)

    def test_iterated_set_attribute_flagged_at_declaration(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/core/tracker.py",
            "from typing import Set\n"
            "\n"
            "class Tracker:\n"
            "    def __init__(self):\n"
            "        self.live: Set[str] = set()\n"
            "\n"
            "    def drain(self, out):\n"
            "        for item in self.live:\n"
            "            out.append(item)\n",
        )
        report = run_lint([tmp_path / "src"], FLOW_CONFIG)
        flow004 = [v for v in report.violations if v.rule == "FLOW004"]
        assert flow004
        # Flagged at the declaration, not at the loop.
        assert flow004[0].line == 5

    def test_dict_attribute_is_not_flagged(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/core/tracker_ok.py",
            "from typing import Dict\n"
            "\n"
            "class Tracker:\n"
            "    def __init__(self):\n"
            "        self.live: Dict[str, int] = {}\n"
            "\n"
            "    def drain(self, out):\n"
            "        for item in self.live:\n"
            "            out.append(item)\n",
        )
        report = run_lint([tmp_path / "src"], FLOW_CONFIG)
        assert "FLOW004" not in _flow_rules(report)


class TestFreshInstanceDispatch:
    """``Cls(...).run()`` binds to ``Cls.run``; a bare ``obj.run()``
    still fans out to every project ``run``."""

    ENGINE = (
        "class Engine:\n"
        "    def run(self):\n"
        "        return {1, 2}\n"
    )
    POOL = (
        "class Pool:\n"
        "    def run(self, specs):\n"
        "        return [s for s in specs]\n"
    )

    def _report(self, tmp_path, caller):
        _write(tmp_path, "src/repro/core/engine.py", self.ENGINE)
        _write(tmp_path, "src/repro/parallel/pool.py", self.POOL)
        _write(
            tmp_path,
            "src/repro/parallel/__init__.py",
            "from repro.parallel.pool import Pool\n",
        )
        _write(tmp_path, "src/repro/cli_x.py", caller)
        return run_lint([tmp_path / "src"], FLOW_CONFIG)

    def test_fresh_pool_does_not_inherit_another_run(self, tmp_path):
        report = self._report(
            tmp_path,
            "from repro.io import save_trace\n"
            "from repro.parallel import Pool\n"
            "\n"
            "def export(specs, path):\n"
            "    save_trace(Pool().run(specs), path)\n",
        )
        assert _flow_rules(report) == []

    def test_fresh_engine_still_flags_its_own_set(self, tmp_path):
        report = self._report(
            tmp_path,
            "from repro.io import save_trace\n"
            "from repro.core.engine import Engine\n"
            "\n"
            "def export(path):\n"
            "    save_trace(Engine().run(), path)\n",
        )
        assert _flow_rules(report) == ["FLOW003"]

    def test_unknown_receiver_dispatches_by_name(self, tmp_path):
        report = self._report(
            tmp_path,
            "from repro.io import save_trace\n"
            "\n"
            "def export(pool, specs, path):\n"
            "    save_trace(pool.run(specs), path)\n",
        )
        assert _flow_rules(report) == ["FLOW003"]


class TestGatingAndSuppression:
    SNIPPET = (
        "from repro.congest.message import Message\n"
        "\n"
        "def propose(graph, v):\n"
        "    active = set(graph[v])\n"
        "    inbox = yield {u: Message('PROPOSE') for u in active}\n"
        "    return inbox\n"
    )

    def test_flow_rules_are_off_by_default(self, tmp_path):
        _write(tmp_path, "src/repro/congest/protocols/p.py", self.SNIPPET)
        report = run_lint([tmp_path / "src"], LintConfig())
        assert _flow_rules(report) == []
        assert not any(r.startswith("FLOW") for r in report.rules_run)

    def test_enable_list_switches_flow_on(self, tmp_path):
        _write(tmp_path, "src/repro/congest/protocols/p.py", self.SNIPPET)
        config = LintConfig(enable=frozenset({"FLOW"}))
        report = run_lint([tmp_path / "src"], config)
        assert "FLOW001" in _flow_rules(report)

    def test_suppression_comment_silences_flow_finding(self, tmp_path):
        silenced = self.SNIPPET.replace(
            "for u in active}",
            "for u in active}  # lint: ignore[FLOW001]",
        )
        _write(tmp_path, "src/repro/congest/protocols/p.py", silenced)
        report = run_lint([tmp_path / "src"], FLOW_CONFIG)
        assert _flow_rules(report) == []
        assert report.suppressed >= 1

    def test_flow_scope_exempts_paths(self, tmp_path):
        _write(tmp_path, "src/repro/congest/protocols/p.py", self.SNIPPET)
        config = LintConfig(
            flow=True,
            exempt={"flow": ("src/repro/congest",)},
        )
        report = run_lint([tmp_path / "src"], config)
        assert _flow_rules(report) == []


class TestBaseline:
    def _flagged_report(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/congest/protocols/p.py",
            TestGatingAndSuppression.SNIPPET,
        )
        return run_lint([tmp_path / "src"], FLOW_CONFIG)

    def test_round_trip_accepts_findings(self, tmp_path):
        report = self._flagged_report(tmp_path)
        assert not report.ok
        count = len(report.violations)
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(json.dumps(baseline_payload(report)))
        fresh = self._flagged_report(tmp_path)
        apply_baseline(fresh, load_baseline(baseline_file))
        assert fresh.ok
        assert fresh.baselined == count

    def test_fingerprint_is_line_independent(self, tmp_path, monkeypatch):
        # Two checkouts of the same finding, code shifted two lines
        # down in the second; linted via identical relative paths.
        _write(
            tmp_path / "a",
            "src/repro/congest/protocols/p.py",
            TestGatingAndSuppression.SNIPPET,
        )
        _write(
            tmp_path / "b",
            "src/repro/congest/protocols/p.py",
            "\n\n" + TestGatingAndSuppression.SNIPPET,
        )
        monkeypatch.chdir(tmp_path / "a")
        first = run_lint(["src"], FLOW_CONFIG)
        monkeypatch.chdir(tmp_path / "b")
        second = run_lint(["src"], FLOW_CONFIG)
        assert first.violations and second.violations
        assert {fingerprint(v) for v in first.violations} == {
            fingerprint(v) for v in second.violations
        }
        assert {v.line for v in first.violations} != {
            v.line for v in second.violations
        }

    def test_new_findings_still_fail(self, tmp_path):
        report = self._flagged_report(tmp_path)
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(json.dumps(baseline_payload(report)))
        # A new, different finding in another file is not accepted.
        _write(
            tmp_path,
            "src/repro/congest/protocols/q.py",
            "from repro.congest.message import Message\n"
            "\n"
            "def other(graph, v):\n"
            "    bad = frozenset(graph[v])\n"
            "    inbox = yield {u: Message('ACK') for u in bad}\n"
            "    return inbox\n",
        )
        fresh = run_lint([tmp_path / "src"], FLOW_CONFIG)
        apply_baseline(fresh, load_baseline(baseline_file))
        assert not fresh.ok
        assert all("q.py" in v.path for v in fresh.violations)

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == frozenset()

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"surprise": True}))
        with pytest.raises(ValueError):
            load_baseline(bad)


class TestCache:
    FINDING = FlowFinding(
        rule="FLOW001", path="src/repro/x.py", line=3, col=0, message="m"
    )

    def test_digest_is_order_independent_and_content_sensitive(self):
        a = digest_sources([("a.py", "x = 1"), ("b.py", "y = 2")])
        b = digest_sources([("b.py", "y = 2"), ("a.py", "x = 1")])
        c = digest_sources([("a.py", "x = 1"), ("b.py", "y = 3")])
        assert a == b
        assert a != c

    def test_memo_round_trip(self):
        digest = digest_sources([("memo.py", "pass")])
        _MEMO.pop(digest, None)
        assert cached_findings(digest) is None
        store_findings(digest, [self.FINDING])
        assert cached_findings(digest) == [self.FINDING]
        _MEMO.pop(digest, None)


class TestShippedTree:
    def test_analyzer_is_deterministic(self):
        sources = []
        for path in sorted((REPO / "src/repro/congest").rglob("*.py")):
            import ast

            rel = path.relative_to(REPO).as_posix()
            sources.append((rel, ast.parse(path.read_text())))
        first = analyze_project(sources)
        second = analyze_project(list(reversed(sources)))
        assert first == second

    def test_shipped_tree_passes_with_committed_baseline(self, monkeypatch):
        # Fingerprints embed repo-relative paths, so lint the way CI
        # does: from the repo root.
        monkeypatch.chdir(REPO)
        report = run_lint(["src/repro"], FLOW_CONFIG)
        accepted = load_baseline("benchmarks/lint_baseline.json")
        apply_baseline(report, accepted)
        flow = [v for v in report.violations if v.rule.startswith("FLOW")]
        assert flow == [], [v.format() for v in flow]
        assert report.baselined == 0
