"""Tests for the fault-injection layer (repro.faults).

Covers the plan's stateless decision functions, the injector's delivery
mechanics on scripted simulations, graceful degradation of the real
protocols, the determinism contract (identical traces across runs and
worker counts, zero-rate plans bit-identical to plan-free runs), the
``max_rounds`` timeout outcome, trace serialization, and the CLI flags.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.congest.message import Message
from repro.congest.protocols.asm_protocol import (
    run_congest_asm,
    schedule_round_bound,
)
from repro.congest.protocols.gs_protocol import run_congest_gale_shapley
from repro.congest.protocols.mm_protocols import run_congest_deterministic_mm
from repro.congest.simulator import Simulator
from repro.errors import InvalidParameterError, SimulationError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    NodeCrash,
    PartitionWindow,
    sample_nodes,
)
from repro.faults.harness import (
    FAULT_TRIAL_RUNNER,
    fault_plan_for_profile,
    run_fault_trial,
)
from repro.graphs import Graph, man_node, woman_node
from repro.io import load_metrics, save_metrics
from repro.obs.telemetry import Telemetry
from repro.parallel import TrialPool, TrialSpec
from repro.workloads.generators import complete_uniform
from tests.helpers import artifact_fault_records

GOLDEN = Path(__file__).parent / "golden" / "fault_trace.json"


# ----------------------------------------------------------------------
# Plan: validation and stateless decisions
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_rate_validation(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(InvalidParameterError):
            FaultPlan(delay_rate=-0.1)
        with pytest.raises(InvalidParameterError):
            FaultPlan(max_delay=0)

    def test_crash_validation(self):
        with pytest.raises(InvalidParameterError):
            NodeCrash("a", 0)
        with pytest.raises(InvalidParameterError):
            NodeCrash("a", 5, restart_round=5)

    def test_partition_validation(self):
        with pytest.raises(InvalidParameterError):
            PartitionWindow(3, 3)
        with pytest.raises(InvalidParameterError):
            PartitionWindow(0, 2)

    def test_decisions_are_pure_functions(self):
        plan = FaultPlan(seed=11, drop_rate=0.5, delay_rate=0.5)
        twin = FaultPlan(seed=11, drop_rate=0.5, delay_rate=0.5)
        for r in range(1, 30):
            assert plan.drops(r, "a", "b") == twin.drops(r, "a", "b")
            assert plan.delay_of(r, "a", "b") == twin.delay_of(r, "a", "b")

    def test_decisions_depend_on_seed(self):
        a = FaultPlan(seed=1, drop_rate=0.5)
        b = FaultPlan(seed=2, drop_rate=0.5)
        fates_a = [a.drops(r, "a", "b") for r in range(1, 200)]
        fates_b = [b.drops(r, "a", "b") for r in range(1, 200)]
        assert fates_a != fates_b

    def test_drop_rate_empirically_close(self):
        plan = FaultPlan(seed=0, drop_rate=0.3)
        fates = [plan.drops(r, "a", "b") for r in range(1, 2001)]
        assert 0.25 < sum(fates) / len(fates) < 0.35

    def test_delay_bounded_by_max_delay(self):
        plan = FaultPlan(seed=0, delay_rate=1.0, max_delay=3)
        delays = {plan.delay_of(r, "a", "b") for r in range(1, 200)}
        assert delays <= {1, 2, 3}
        assert max(delays) == 3

    def test_zero_rates_never_fire(self):
        plan = FaultPlan(seed=0)
        assert plan.is_null
        for r in range(1, 50):
            assert not plan.drops(r, "a", "b")
            assert not plan.duplicates(r, "a", "b")
            assert plan.delay_of(r, "a", "b") == 0

    def test_partition_window_severs_cut_only(self):
        window = PartitionWindow(2, 4, group={"a"})
        assert window.severs(2, "a", "b")
        assert window.severs(3, "b", "a")
        assert not window.severs(1, "a", "b")  # before the window
        assert not window.severs(4, "a", "b")  # end is exclusive
        assert not window.severs(2, "b", "c")  # same side

    def test_sample_nodes_deterministic_and_order_free(self):
        nodes = [man_node(i) for i in range(8)]
        picked = sample_nodes(nodes, 3, seed=5)
        assert picked == sample_nodes(list(reversed(nodes)), 3, seed=5)
        assert len(picked) == 3
        assert set(picked) <= set(nodes)
        assert sample_nodes(nodes, 0, seed=5) == []


# ----------------------------------------------------------------------
# Injector mechanics on scripted simulations
# ----------------------------------------------------------------------


def chain_graph():
    g = Graph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    return g


def pinger(to, rounds):
    """Sends PING to ``to`` every round; returns nothing."""

    def program():
        for _ in range(rounds):
            yield {to: Message("PING")}

    return program()


def listener(rounds):
    """Records every inbox for ``rounds`` rounds."""

    def program():
        seen = []
        for _ in range(rounds):
            inbox = yield {}
            seen.append(dict(inbox))
        return seen

    return program()


def scripted_sim(plan, rounds=4):
    g = chain_graph()
    programs = {
        "a": pinger("b", rounds),
        "b": listener(rounds),
        "c": listener(rounds),
    }
    return Simulator(g, programs, faults=plan)


class TestInjectorMechanics:
    def test_drop_all(self):
        sim = scripted_sim(FaultPlan(seed=0, drop_rate=1.0), rounds=3)
        sim.run()
        assert sim.results["b"] == [{}, {}, {}]
        assert sim.faults.stats.messages_dropped == 3
        assert [r["action"] for r in sim.faults.records] == ["drop"] * 3
        # Send-time accounting: dropped messages still count.
        assert sim.stats.messages == 3

    def test_duplicate_delivers_again_next_round(self):
        sim = scripted_sim(FaultPlan(seed=0, duplicate_rate=1.0), rounds=3)
        sim.run()
        # Round 1: original. Rounds 2..3: original + previous duplicate
        # (same sender => last-write-wins keeps one copy in the inbox).
        assert sim.results["b"][0] == {"a": Message("PING")}
        assert sim.results["b"][1] == {"a": Message("PING")}
        assert sim.faults.stats.messages_duplicated == 3

    def test_delay_shifts_delivery(self):
        sim = scripted_sim(
            FaultPlan(seed=0, delay_rate=1.0, max_delay=1), rounds=3
        )
        sim.run()
        # Every message arrives exactly one round late; nothing lands in
        # round 1, round 2 carries round 1's message, and so on.
        assert sim.results["b"][0] == {}
        assert sim.results["b"][1] == {"a": Message("PING")}
        assert sim.results["b"][2] == {"a": Message("PING")}
        assert sim.faults.stats.messages_delayed == 3

    def test_partition_window(self):
        plan = FaultPlan(
            seed=0, partitions=(PartitionWindow(1, 3, group={"a"}),)
        )
        sim = scripted_sim(plan, rounds=4)
        sim.run()
        assert sim.results["b"][0] == {}
        assert sim.results["b"][1] == {}
        assert sim.results["b"][2] == {"a": Message("PING")}
        actions = [r["action"] for r in sim.faults.records]
        assert actions == ["drop_partition", "drop_partition"]

    def test_permanent_crash(self):
        plan = FaultPlan(seed=0, crashes=(NodeCrash("b", 2),))
        sim = scripted_sim(plan, rounds=4)
        stats = sim.run()
        assert stats.outcome == "degraded"
        assert stats.crashed_nodes == 1
        assert "b" not in sim.results  # never returned
        assert "b" in sim.crashed
        # a's later sends are dropped against the dead node.
        assert sim.faults.stats.messages_dropped == 3
        actions = [r["action"] for r in sim.faults.records]
        assert actions[0] == "crash"
        assert set(actions[1:]) == {"drop_crashed"}

    def test_crash_restart_window(self):
        plan = FaultPlan(seed=0, crashes=(NodeCrash("b", 2, restart_round=4),))
        sim = scripted_sim(plan, rounds=5)
        stats = sim.run()
        # Down nodes still advance (no skipped rounds) and finish.
        assert stats.outcome == "converged"
        assert sim.results["b"][0] == {"a": Message("PING")}
        assert sim.results["b"][1] == {}  # omitted while down
        assert sim.results["b"][2] == {}
        assert sim.results["b"][3] == {"a": Message("PING")}
        assert sim.faults.stats.nodes_restarted == 1
        actions = [r["action"] for r in sim.faults.records]
        assert actions[0] == "down"
        assert "restart" in actions
        assert actions.count("omit_recv") == 2

    def test_delayed_message_to_crashed_node_dropped_late(self):
        plan = FaultPlan(
            seed=0,
            delay_rate=1.0,
            max_delay=2,
            crashes=(NodeCrash("b", 2),),
        )
        sim = scripted_sim(plan, rounds=4)
        sim.run()
        assert any(
            r["action"] == "drop_late" for r in sim.faults.records
        )

    def test_trace_identical_across_runs(self):
        plan = FaultPlan(seed=9, drop_rate=0.4, delay_rate=0.3)
        a = scripted_sim(plan, rounds=6)
        b = scripted_sim(plan, rounds=6)
        a.run()
        b.run()
        assert a.faults.records == b.faults.records
        assert a.results == b.results


# ----------------------------------------------------------------------
# Simulator timeout outcome (regression: previously indistinguishable
# from convergence)
# ----------------------------------------------------------------------


class TestTimeoutOutcome:
    def test_timeout_raises_and_records_outcome(self):
        # No plan at all: the timeout outcome is independent of faults.
        sim = scripted_sim(None, rounds=50)
        with pytest.raises(SimulationError, match="still running"):
            sim.run(max_rounds=5)
        assert sim.stats.outcome == "timeout"
        assert sim.stats.unfinished_nodes == 3
        assert sim.stats.rounds == 5

    def test_timeout_stop_returns_stats(self):
        sim = scripted_sim(FaultPlan(), rounds=50)
        stats = sim.run(max_rounds=5, on_timeout="stop")
        assert stats.outcome == "timeout"
        assert stats.unfinished_nodes == 3

    def test_invalid_on_timeout(self):
        sim = scripted_sim(FaultPlan(), rounds=2)
        with pytest.raises(InvalidParameterError, match="on_timeout"):
            sim.run(max_rounds=5, on_timeout="ignore")

    def test_clean_finish_converged(self):
        sim = scripted_sim(FaultPlan(), rounds=3)
        stats = sim.run(max_rounds=100)
        assert stats.outcome == "converged"
        assert stats.unfinished_nodes == 0


# ----------------------------------------------------------------------
# Zero-rate identity: an idle injector is provably inert
# ----------------------------------------------------------------------


def _stats_dict(stats):
    return dataclasses.asdict(stats)


class TestZeroRateIdentity:
    def test_asm_bit_identical(self):
        prefs = complete_uniform(6, seed=1)
        kwargs = dict(
            k=4, inner_iterations=4, outer_iterations=3, mm_iterations=12
        )
        plain = run_congest_asm(prefs, 0.5, **kwargs)
        nulled = run_congest_asm(
            prefs, 0.5, faults=FaultPlan(seed=123), **kwargs
        )
        assert nulled.matching == plain.matching
        assert _stats_dict(nulled.stats) == _stats_dict(plain.stats)
        assert nulled.fault_trace == ()
        assert nulled.fault_stats.faults_injected == 0
        assert nulled.unresolved_men == ()
        assert nulled.unresolved_women == ()
        assert nulled.retries == 0

    def test_telemetry_counters_identical(self):
        prefs = complete_uniform(5, seed=2)
        kwargs = dict(
            k=4, inner_iterations=4, outer_iterations=3, mm_iterations=10
        )
        tel_a, tel_b = Telemetry.create(), Telemetry.create()
        run_congest_asm(prefs, 0.5, telemetry=tel_a, **kwargs)
        run_congest_asm(
            prefs, 0.5, telemetry=tel_b, faults=FaultPlan(), **kwargs
        )
        counters_a = tel_a.metrics.to_dict()["counters"]
        counters_b = tel_b.metrics.to_dict()["counters"]
        assert counters_a == counters_b
        assert "congest.faults_injected" not in counters_b
        assert "congest.retries" not in counters_b

    def test_gs_identical(self):
        prefs = complete_uniform(6, seed=3)
        plain, _ = run_congest_gale_shapley(prefs)
        nulled, sim = run_congest_gale_shapley(prefs, faults=FaultPlan())
        assert nulled == plain
        assert sim.faults.records == []


# ----------------------------------------------------------------------
# Protocol degradation under real faults
# ----------------------------------------------------------------------


class TestProtocolDegradation:
    def test_asm_crash_mid_run_surfaces_unresolved(self):
        prefs = complete_uniform(6, seed=1)
        plan = FaultPlan(seed=0, crashes=(NodeCrash(man_node(2), 5),))
        result = run_congest_asm(
            prefs,
            0.5,
            faults=plan,
            k=4,
            inner_iterations=4,
            outer_iterations=3,
            mm_iterations=12,
        )
        assert result.stats.outcome == "degraded"
        assert 2 in result.unresolved_men
        assert result.crashed_nodes == (repr(man_node(2)),)
        # The crashed man contributes no pair; everyone matched is
        # mutually confirmed.
        assert result.matching.partner_of_man(2) is None
        matched_men = {m for m, _ in result.matching.pairs()}
        assert not (matched_men & set(result.unresolved_men))

    def test_asm_drop_run_well_formed(self):
        prefs = complete_uniform(6, seed=1)
        plan = FaultPlan(seed=7, drop_rate=0.2)
        result = run_congest_asm(
            prefs,
            0.5,
            faults=plan,
            k=4,
            inner_iterations=4,
            outer_iterations=3,
            mm_iterations=12,
        )
        assert result.stats.outcome in ("converged", "degraded", "timeout")
        assert result.fault_stats.messages_dropped > 0
        matched_men = {m for m, _ in result.matching.pairs()}
        assert matched_men | set(result.unresolved_men) <= set(range(6))

    def test_asm_respects_round_bound_under_faults(self):
        prefs = complete_uniform(5, seed=4)
        plan = FaultPlan(seed=1, drop_rate=0.5)
        result = run_congest_asm(
            prefs,
            0.5,
            faults=plan,
            k=4,
            inner_iterations=3,
            outer_iterations=2,
            mm_iterations=10,
        )
        assert result.stats.rounds <= schedule_round_bound(result.schedule)

    def test_woman_crash_surfaces(self):
        prefs = complete_uniform(5, seed=2)
        plan = FaultPlan(seed=0, crashes=(NodeCrash(woman_node(1), 4),))
        result = run_congest_asm(
            prefs,
            0.5,
            faults=plan,
            k=4,
            inner_iterations=3,
            outer_iterations=2,
            mm_iterations=10,
        )
        assert result.stats.outcome == "degraded"
        assert 1 in result.unresolved_women
        assert result.matching.partner_of_woman(1) is None

    def test_gs_under_drops_yields_mutual_matching(self):
        prefs = complete_uniform(8, seed=5)
        plan = FaultPlan(seed=3, drop_rate=0.1)
        matching, sim = run_congest_gale_shapley(prefs, faults=plan)
        seen_men, seen_women = set(), set()
        for m, w in matching.pairs():
            assert m not in seen_men and w not in seen_women
            seen_men.add(m)
            seen_women.add(w)

    def test_mm_under_drops_stays_mutual(self):
        g = Graph()
        for i in range(6):
            g.add_edge(("u", i), ("v", i))
            g.add_edge(("u", i), ("v", (i + 1) % 6))
        plan = FaultPlan(seed=2, drop_rate=0.3)
        result = run_congest_deterministic_mm(g, faults=plan)
        for v, p in result.partner.items():
            assert result.partner[p] == v


# ----------------------------------------------------------------------
# Determinism across runs, worker counts, and serialization
# ----------------------------------------------------------------------

_TRIAL_PARAMS = dict(drop_rate=0.25, delay_rate=0.1, fault_seed=13)


def _fault_specs():
    return [
        TrialSpec.make(
            FAULT_TRIAL_RUNNER,
            algorithm="congest-asm",
            n=n,
            eps=0.5,
            seed=seed,
            **_TRIAL_PARAMS,
        )
        for n in (5, 6)
        for seed in (0, 1)
    ]


class TestDeterminism:
    def test_trial_runner_reproducible(self):
        spec = _fault_specs()[0]
        assert run_fault_trial(spec) == run_fault_trial(spec)

    def test_trace_identical_across_worker_counts(self):
        serial = TrialPool(workers=1).run(_fault_specs())
        sharded = TrialPool(workers=2).run(_fault_specs())
        assert serial == sharded
        assert any(r["trace"] for r in serial)

    def test_plan_for_profile_deterministic(self):
        prefs = complete_uniform(6, seed=0)
        a = fault_plan_for_profile(prefs, fault_seed=4, crash_nodes=2)
        b = fault_plan_for_profile(prefs, fault_seed=4, crash_nodes=2)
        assert a == b
        assert len(a.crashes) == 2
        c = fault_plan_for_profile(prefs, fault_seed=5, crash_nodes=2)
        assert {x.node for x in a.crashes} != {x.node for x in c.crashes} or (
            a.crashes == c.crashes
        )

    def test_restart_after_maps_to_restart_round(self):
        prefs = complete_uniform(4, seed=0)
        plan = fault_plan_for_profile(
            prefs, crash_nodes=1, crash_round=3, restart_after=4
        )
        assert plan.crashes[0].restart_round == 7


class TestTraceSerialization:
    """The fault trace travels as the artifact's ``fault`` events."""

    @staticmethod
    def _artifact_records(prefs, plan, path):
        telemetry = Telemetry.create()
        result = run_congest_asm(
            prefs,
            0.5,
            faults=plan,
            k=4,
            inner_iterations=3,
            outer_iterations=2,
            mm_iterations=10,
            telemetry=telemetry,
        )
        save_metrics(telemetry.metrics, path)
        return result, artifact_fault_records(load_metrics(path))

    def test_save_load_roundtrip(self, tmp_path):
        prefs = complete_uniform(5, seed=1)
        plan = FaultPlan(seed=2, drop_rate=0.3)
        result, records = self._artifact_records(
            prefs, plan, tmp_path / "m.json"
        )
        assert records, "drop rate 0.3 should inject faults"
        assert records == [dict(r) for r in result.fault_trace]

    def test_same_plan_same_bytes(self, tmp_path):
        prefs = complete_uniform(5, seed=1)
        plan = FaultPlan(seed=2, drop_rate=0.3)
        dumps = [
            json.dumps(
                self._artifact_records(prefs, plan, tmp_path / name)[1]
            )
            for name in ("a.json", "b.json")
        ]
        assert dumps[0] == dumps[1]


# The exact CLI invocation the CI fault-smoke job replays; the golden
# file pins the fault records (regenerate its "trace" list from the
# `fault` events of the command's --metrics-out artifact).
GOLDEN_ARGS = [
    "congest",
    "--n", "6",
    "--inner", "4",
    "--outer", "3",
    "--mm-iterations", "12",
    "--drop-rate", "0.2",
    "--fault-seed", "7",
]


class TestGoldenTrace:
    def test_cli_reproduces_committed_trace(self, tmp_path):
        out = tmp_path / "m.json"
        code = main(GOLDEN_ARGS + ["--metrics-out", str(out)])
        assert code == 0
        golden = json.loads(GOLDEN.read_text())
        records = artifact_fault_records(load_metrics(out))
        assert json.dumps(records) == json.dumps(golden["trace"])

    def test_golden_is_well_formed(self):
        golden = json.loads(GOLDEN.read_text())
        assert golden["metadata"]["fault_seed"] == 7
        records = golden["trace"]
        assert records, "golden trace should contain fault records"
        assert all(r["action"] == "drop" for r in records)


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------


class TestCLI:
    def test_fault_flags_print_degradation_columns(self, capsys):
        code = main(
            [
                "congest",
                "--n", "5",
                "--inner", "3",
                "--outer", "2",
                "--mm-iterations", "10",
                "--crash", "1",
                "--crash-round", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "outcome" in out
        assert "degraded" in out
        assert "unresolved" in out

    def test_no_fault_flags_no_fault_columns(self, capsys):
        code = main(
            [
                "congest",
                "--n", "5",
                "--inner", "3",
                "--outer", "2",
                "--mm-iterations", "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "outcome" not in out

    def test_invalid_rate_rejected(self):
        with pytest.raises(SystemExit):
            main(["congest", "--drop-rate", "1.5"])

    def test_gale_shapley_with_faults(self, capsys):
        code = main(
            [
                "congest",
                "--protocol", "gale-shapley",
                "--n", "6",
                "--drop-rate", "0.1",
                "--fault-seed", "3",
            ]
        )
        assert code == 0
        assert "outcome" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Telemetry surface
# ----------------------------------------------------------------------


class TestTelemetry:
    def test_fault_counters_and_events(self):
        prefs = complete_uniform(6, seed=1)
        tel = Telemetry.create()
        plan = FaultPlan(seed=7, drop_rate=0.2)
        result = run_congest_asm(
            prefs,
            0.5,
            faults=plan,
            telemetry=tel,
            k=4,
            inner_iterations=4,
            outer_iterations=3,
            mm_iterations=12,
        )
        counters = tel.metrics.to_dict()["counters"]
        assert counters["congest.faults_injected"] == (
            result.fault_stats.faults_injected
        )
        assert counters["congest.messages_dropped"] == (
            result.fault_stats.messages_dropped
        )
        fault_events = [r for r in tel.metrics.events if r["kind"] == "fault"]
        assert len(fault_events) == result.fault_stats.faults_injected
        assert fault_events[0]["action"] in (
            "drop", "delay", "duplicate"
        )

    def test_retries_counter_only_when_retries_fired(self):
        prefs = complete_uniform(6, seed=1)
        tel = Telemetry.create()
        result = run_congest_asm(
            prefs,
            0.5,
            faults=FaultPlan(seed=7, drop_rate=0.2),
            telemetry=tel,
            k=4,
            inner_iterations=4,
            outer_iterations=3,
            mm_iterations=12,
        )
        counters = tel.metrics.to_dict()["counters"]
        if result.retries > 0:
            assert counters["congest.retries"] == result.retries
        else:
            assert "congest.retries" not in counters
