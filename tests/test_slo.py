"""ε-stability SLO monitor: trajectory tracking, violation events,
and the satisfied/deadline semantics."""

from __future__ import annotations

import json

import pytest

from repro.core.asm import asm
from repro.errors import InvalidParameterError
from repro.obs.telemetry import Telemetry
from repro.trace.slo import SLOMonitor, StabilitySLO
from repro.workloads.generators import complete_uniform


def _run(n=12, eps=0.25, seed=0, slo=None, telemetry=None):
    prefs = complete_uniform(n, seed=seed)
    monitor = SLOMonitor(prefs, slo or StabilitySLO(eps))
    result = asm(prefs, eps, observer=monitor, telemetry=telemetry)
    return prefs, result, monitor


class TestStabilitySLO:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            StabilitySLO(1.5)
        with pytest.raises(InvalidParameterError):
            StabilitySLO(-0.1)
        with pytest.raises(InvalidParameterError):
            StabilitySLO(0.2, deadline_rounds=-1)

    def test_in_effect(self):
        assert not StabilitySLO(0.2).in_effect(100)
        slo = StabilitySLO(0.2, deadline_rounds=3)
        assert not slo.in_effect(3)
        assert slo.in_effect(4)


class TestSLOMonitor:
    def test_trajectory_is_recorded(self):
        _, _, monitor = _run()
        assert monitor.trajectory
        rounds = [r for r, _ in monitor.trajectory]
        assert rounds == sorted(rounds)
        assert all(0.0 <= eps <= 1.0 for _, eps in monitor.trajectory)

    def test_final_matching_meets_target(self):
        # Complete uniform instances converge to eps-stability, so the
        # no-deadline SLO must be satisfied.
        _, _, monitor = _run()
        assert monitor.satisfied
        assert monitor.final_eps is not None
        assert monitor.final_eps <= 0.25
        assert not monitor.violations

    def test_strict_deadline_catches_violations(self):
        _, _, monitor = _run(
            slo=StabilitySLO(0.001, deadline_rounds=0)
        )
        # With the bound binding from round 1, early rounds (almost
        # empty matchings) must breach it.
        assert monitor.violations
        assert not monitor.satisfied
        violation = monitor.violations[0]
        assert violation["eps"] > violation["target_eps"]

    def test_events_emitted(self):
        tel = Telemetry.create()
        _, _, monitor = _run(
            slo=StabilitySLO(0.001, deadline_rounds=0), telemetry=tel
        )
        events = tel.metrics.events
        kinds = [r["kind"] for r in events]
        assert "slo_sample" in kinds
        assert "slo_violation" in kinds
        samples = [r for r in events if r["kind"] == "slo_sample"]
        assert len(samples) == len(monitor.trajectory)
        assert samples[0]["binding"] is True
        assert [r["blocking_pairs"] for r in samples] == (
            monitor.blocking_counts
        )
        assert kinds.count("slo_violation") == len(monitor.violations)
        # Each round's sample follows the engine's proposal_round record.
        assert kinds[kinds.index("slo_sample") - 1] == "proposal_round"

    def test_vacuous_without_observation(self):
        prefs = complete_uniform(4, seed=0)
        monitor = SLOMonitor(prefs, StabilitySLO(0.2))
        assert monitor.final_eps is None
        assert monitor.satisfied

    def test_report_is_json_safe(self):
        _, _, monitor = _run()
        report = monitor.report()
        json.dumps(report)
        assert report["satisfied"] is True
        assert report["rounds_observed"] == len(report["trajectory"])
        assert report["worst_eps"] >= report["final_eps"]

    def test_deterministic(self):
        _, _, a = _run()
        _, _, b = _run()
        assert a.trajectory == b.trajectory


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
