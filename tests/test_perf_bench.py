"""Tests for the benchmark harness (``repro.perf.bench``) and its gate.

Covers the report structure of :func:`run_bench` at smoke scale, every
verdict of :func:`compare_reports` (pass, counter drift, missing case
or section, scale mismatch), the committed smoke baseline as a
tier-1 counter gate, the ``save_bench`` / ``load_bench`` round trip,
and an overhead guard asserting the incremental blocking-pair index
actually beats the full-scan oracle on a moderate trajectory.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path
from time import perf_counter

import pytest

from repro.analysis.stability import count_blocking_pairs, find_blocking_pairs
from repro.core.matching import MutableMatching
from repro.errors import InvalidParameterError
from repro.io import FileFormatError, load_bench, save_bench
from repro.perf import BlockingPairIndex, compare_reports, run_bench
from repro.perf.bench import (
    WORKLOAD_MATRIX,
    run_dynamic_vs_full,
    run_index_vs_oracle,
)
from repro.workloads.generators import gnp_incomplete

COUNTER_KEYS = {
    "num_edges",
    "matching_size",
    "blocking_pairs",
    "rounds_active",
    "rounds_scheduled",
    "synchronous_time",
    "proposal_rounds_executed",
    "messages",
}


@pytest.fixture(scope="module")
def smoke_report():
    return run_bench(scale="smoke")


class TestRunBench:
    def test_report_structure(self, smoke_report):
        assert smoke_report["scale"] == "smoke"
        names = [case["name"] for case in smoke_report["cases"]]
        assert names == [case["name"] for case in WORKLOAD_MATRIX]
        for case in smoke_report["cases"]:
            assert set(case["counters"]) == COUNTER_KEYS
        ivo = smoke_report["index_vs_oracle"]
        assert ivo["agree"] is True

    def test_deterministic_counters_across_runs(self, smoke_report):
        again = run_bench(scale="smoke")
        for a, b in zip(smoke_report["cases"], again["cases"]):
            assert a["counters"] == b["counters"]

    def test_bad_args_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_bench(scale="huge")

    def test_index_vs_oracle_smoke_agrees(self):
        ivo = run_index_vs_oracle(scale="smoke")
        assert ivo["agree"] is True
        assert ivo["final_blocking_pairs"] >= 0


class TestCompareReports:
    def test_identical_reports_pass(self, smoke_report):
        assert compare_reports(smoke_report, smoke_report) == []

    def test_counter_drift_flagged(self, smoke_report):
        current = copy.deepcopy(smoke_report)
        current["cases"][1]["counters"]["messages"] += 1
        violations = compare_reports(current, smoke_report)
        assert any("messages" in v for v in violations)

    def test_missing_case_flagged(self, smoke_report):
        current = copy.deepcopy(smoke_report)
        dropped = current["cases"].pop()
        violations = compare_reports(current, smoke_report)
        assert any(dropped["name"] in v for v in violations)

    def test_scale_mismatch_flagged(self, smoke_report):
        current = copy.deepcopy(smoke_report)
        current["scale"] = "full"
        violations = compare_reports(current, smoke_report)
        assert len(violations) == 1
        assert "scale" in violations[0]

    def test_index_disagreement_flagged(self, smoke_report):
        current = copy.deepcopy(smoke_report)
        current["index_vs_oracle"]["agree"] = False
        violations = compare_reports(current, smoke_report)
        assert any("index_vs_oracle" in v for v in violations)

    @pytest.mark.parametrize("section", ["index_vs_oracle", "dynamic_vs_full"])
    def test_missing_section_flagged(self, smoke_report, section):
        current = copy.deepcopy(smoke_report)
        del current[section]
        assert compare_reports(current, smoke_report) == [
            f"{section}: missing from current report"
        ]

    def test_section_absent_from_baseline_not_gated(self, smoke_report):
        baseline = copy.deepcopy(smoke_report)
        del baseline["index_vs_oracle"]
        del baseline["dynamic_vs_full"]
        assert compare_reports(smoke_report, baseline) == []

    def test_missing_vec_dynamic_section_flagged(self, smoke_report):
        baseline = _with_vec_dynamic(smoke_report)
        current = copy.deepcopy(baseline)
        assert compare_reports(current, baseline) == []
        del current["vec"]["dynamic_vs_full_vec"]
        assert compare_reports(current, baseline) == [
            "vec/dynamic_vs_full_vec: missing from current report"
        ]

    def test_vec_dynamic_drift_flagged(self, smoke_report):
        baseline = _with_vec_dynamic(smoke_report)
        current = copy.deepcopy(baseline)
        current["vec"]["dynamic_vs_full_vec"]["fallbacks"] += 1
        current["vec"]["dynamic_vs_full_vec"]["eps_ok"] = False
        violations = compare_reports(current, baseline)
        assert len(violations) == 2
        assert all(
            v.startswith("vec/dynamic_vs_full_vec:") for v in violations
        )

    def test_numpy_absent_report_is_valid_difference(self, smoke_report):
        baseline = _with_vec_dynamic(smoke_report)
        current = copy.deepcopy(smoke_report)
        current["vec"] = {
            "available": False, "reason": "no numpy", "cases": [],
        }
        assert compare_reports(current, baseline) == []
        assert compare_reports(baseline, current) == []


def _with_vec_dynamic(report):
    """``report`` with a vec suite that ran the dynamic case.

    That case runs at full scale only; grafting the smoke
    ``dynamic_vs_full`` section in exercises its gate at smoke scale.
    """
    grafted = copy.deepcopy(report)
    grafted["vec"] = {
        "available": True,
        "cases": [],
        "dynamic_vs_full_vec": copy.deepcopy(report["dynamic_vs_full"]),
    }
    return grafted


class TestCommittedBaseline:
    def test_smoke_counters_match_committed_baseline(self, smoke_report):
        """Counter drift fails plain ``pytest``, not only the CI job."""
        path = (
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "bench_baseline.json"
        )
        assert compare_reports(smoke_report, load_bench(path)) == []


class TestDynamicVsFull:
    def test_report_structure(self, smoke_report):
        dvf = smoke_report["dynamic_vs_full"]
        assert dvf["index_agrees"] is True
        assert dvf["eps_ok"] is True
        assert dvf["deltas"] > 0

    def test_deterministic_counters_across_runs(self):
        keys = ("deltas", "fallbacks", "marriages",
                "final_blocking_pairs", "final_matching_size",
                "final_num_edges", "eps_ok", "index_agrees")
        first = run_dynamic_vs_full("smoke")
        second = run_dynamic_vs_full("smoke")
        assert {k: first[k] for k in keys} == {
            k: second[k] for k in keys
        }

    def test_bad_scale_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_dynamic_vs_full("huge")

    def test_counter_drift_flagged(self, smoke_report):
        current = copy.deepcopy(smoke_report)
        current["dynamic_vs_full"]["marriages"] += 1
        violations = compare_reports(current, smoke_report)
        assert any("dynamic_vs_full" in v for v in violations)

    def test_eps_breach_flagged(self, smoke_report):
        current = copy.deepcopy(smoke_report)
        current["dynamic_vs_full"]["eps_ok"] = False
        violations = compare_reports(current, smoke_report)
        assert any("dynamic_vs_full" in v for v in violations)

    def test_index_disagreement_flagged(self, smoke_report):
        current = copy.deepcopy(smoke_report)
        current["dynamic_vs_full"]["index_agrees"] = False
        violations = compare_reports(current, smoke_report)
        assert any("dynamic_vs_full" in v for v in violations)


class TestBenchIO:
    def test_save_load_roundtrip(self, smoke_report, tmp_path):
        path = tmp_path / "BENCH_test.json"
        save_bench(smoke_report, path, metadata={"rev": "abc1234"})
        loaded = load_bench(path)
        assert loaded == smoke_report
        raw = json.loads(path.read_text())
        assert raw["kind"] == "bench_report"
        assert raw["metadata"]["rev"] == "abc1234"

    def test_load_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"format": "repro", "version": 1, "kind": "matching"})
        )
        with pytest.raises(FileFormatError):
            load_bench(path)

    def test_load_rejects_missing_body(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"format": "repro", "version": 1, "kind": "bench_report"}
            )
        )
        with pytest.raises(FileFormatError):
            load_bench(path)


class TestIndexOverheadGuard:
    """The index must beat the full-scan oracle on a moderate trajectory.

    Mirrors PR 1's telemetry-overhead guard: interleaved best-of-N
    timing so shared-CI scheduler noise cannot flip the verdict.  The
    acceptance-criterion 3× speedup is asserted at n=2000 by the
    committed BENCH report; here a softer 1.5× bound at moderate scale
    keeps the test fast and non-flaky.
    """

    def test_index_faster_than_oracle(self):
        n, steps, repeats = 400, 60, 3
        prefs = gnp_incomplete(n, 0.03, seed=11)

        def build_ops():
            index = BlockingPairIndex(prefs)
            rng = random.Random(11)
            ops = []
            for _ in range(steps):
                if not len(index):
                    break
                pair = index.choose(rng)
                index.satisfy(*pair)
                ops.append(pair)
            return ops

        ops = build_ops()
        assert len(ops) >= 10  # trajectory long enough to be meaningful

        def run_index():
            index = BlockingPairIndex(prefs)
            total = 0
            for m, w in ops:
                index.satisfy(m, w)
                total += len(index)
            return total

        def run_oracle():
            mm = MutableMatching()
            total = 0
            for m, w in ops:
                old_w = mm.partner_of_man(m)
                if old_w is not None:
                    mm.unmatch_man(m)
                old_m = mm.partner_of_woman(w)
                if old_m is not None:
                    mm.unmatch_woman(w)
                mm.match(m, w)
                total += count_blocking_pairs(prefs, mm.freeze())
            return total

        assert run_index() == run_oracle()  # exact agreement first

        best_index = best_oracle = float("inf")
        for _ in range(repeats):  # interleaved best-of-N
            t0 = perf_counter()
            run_index()
            best_index = min(best_index, perf_counter() - t0)
            t0 = perf_counter()
            run_oracle()
            best_oracle = min(best_oracle, perf_counter() - t0)

        assert best_oracle >= 1.5 * best_index, (
            f"index {best_index:.4f}s vs oracle {best_oracle:.4f}s "
            f"({best_oracle / best_index:.2f}x)"
        )

    def test_index_init_matches_oracle_scan(self):
        prefs = gnp_incomplete(60, 0.2, seed=12)
        index = BlockingPairIndex(prefs)
        empty = index.current_matching()
        assert index.pairs() == sorted(find_blocking_pairs(prefs, empty))
