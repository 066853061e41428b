"""Tests for the CONGEST simulator and message model."""

from __future__ import annotations

import pytest

from repro.congest.message import TAG_BITS, Await, Message
from repro.congest.simulator import Simulator
from repro.errors import (
    InvalidParameterError,
    ProtocolViolationError,
    SimulationError,
)
from repro.faults import FaultPlan, NodeCrash
from repro.graphs import Graph
from repro.obs import Telemetry
from repro.trace import CausalTracer


def line_graph():
    g = Graph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    return g


def silent(rounds):
    """A program that listens for `rounds` rounds and returns them."""

    def program():
        seen = []
        for _ in range(rounds):
            inbox = yield {}
            seen.append(dict(inbox))
        return seen

    return program()


class TestMessage:
    def test_size_no_payload(self):
        assert Message("X").size_bits(100) == TAG_BITS

    def test_size_with_payload(self):
        msg = Message("X", (3, 4))
        assert msg.size_bits(256) == TAG_BITS + 2 * (8 + 1)

    def test_size_grows_with_n(self):
        msg = Message("X", (3,))
        assert msg.size_bits(2 ** 20) > msg.size_bits(4)

    def test_frozen(self):
        msg = Message("X")
        with pytest.raises(AttributeError):
            msg.kind = "Y"


class TestDelivery:
    def test_one_hop_delivery(self):
        g = line_graph()

        def sender():
            yield {"b": Message("PING")}
            yield {}

        programs = {"a": sender(), "b": silent(2), "c": silent(2)}
        sim = Simulator(g, programs)
        sim.run()
        # b's first round inbox contains the PING from a.
        assert sim.results["b"][0] == {"a": Message("PING")}
        assert sim.results["b"][1] == {}
        assert sim.results["c"] == [{}, {}]

    def test_same_round_exchange(self):
        """Messages sent in round t arrive at the end of round t."""
        g = line_graph()

        def talker(to):
            def program():
                inbox = yield {to: Message("HI")}
                return inbox

            return program()

        programs = {"a": talker("b"), "b": talker("a"), "c": silent(1)}
        sim = Simulator(g, programs)
        sim.run()
        assert sim.results["a"] == {"b": Message("HI")}
        assert sim.results["b"] == {"a": Message("HI")}

    def test_stats_counting(self):
        g = line_graph()

        def sender():
            yield {"b": Message("PING"), }
            yield {"b": Message("PONG", (1,))}

        programs = {"a": sender(), "b": silent(2), "c": silent(2)}
        sim = Simulator(g, programs)
        stats = sim.run()
        assert stats.messages == 2
        assert stats.rounds >= 2
        assert stats.total_bits == Message("PING").size_bits(3) + Message(
            "PONG", (1,)
        ).size_bits(3)
        assert stats.max_message_bits == Message("PONG", (1,)).size_bits(3)


class TestValidation:
    def test_non_neighbor_send_rejected(self):
        g = line_graph()

        def bad():
            yield {"c": Message("X")}  # a and c are not adjacent

        programs = {"a": bad(), "b": silent(1), "c": silent(1)}
        sim = Simulator(g, programs)
        with pytest.raises(ProtocolViolationError, match="non-neighbor"):
            sim.run()

    def test_non_message_rejected(self):
        g = line_graph()

        def bad():
            yield {"b": "raw string"}

        programs = {"a": bad(), "b": silent(1), "c": silent(1)}
        with pytest.raises(ProtocolViolationError, match="non-Message"):
            Simulator(g, programs).run()

    def test_oversized_message_rejected(self):
        g = line_graph()
        big = Message("X", tuple(range(100)))

        def bad():
            yield {"b": big}

        programs = {"a": bad(), "b": silent(1), "c": silent(1)}
        with pytest.raises(ProtocolViolationError, match="bits"):
            Simulator(g, programs).run()

    def test_missing_program_rejected(self):
        g = line_graph()
        with pytest.raises(SimulationError, match="no program"):
            Simulator(g, {"a": silent(1)})

    def test_unknown_node_program_rejected(self):
        g = line_graph()
        programs = {
            "a": silent(1),
            "b": silent(1),
            "c": silent(1),
            "zz": silent(1),
        }
        with pytest.raises(SimulationError, match="unknown node"):
            Simulator(g, programs)

    def test_max_rounds_exceeded(self):
        g = line_graph()

        def forever():
            while True:
                yield {}

        programs = {"a": forever(), "b": forever(), "c": forever()}
        sim = Simulator(g, programs)
        with pytest.raises(SimulationError, match="still running"):
            sim.run(max_rounds=5)

    def test_finished_property(self):
        g = line_graph()
        programs = {"a": silent(1), "b": silent(1), "c": silent(1)}
        sim = Simulator(g, programs)
        assert not sim.finished
        sim.run()
        assert sim.finished
        # Stepping a finished simulation is a no-op returning False.
        assert sim.step() is False


class TestDeliveryProperty:
    def test_random_delivery_model_check(self):
        """Model-based check: for random graphs and random scripted
        outboxes, every sent message (and nothing else) is delivered to
        exactly the right node in the right round."""
        import random as _random

        from repro.obs.telemetry import Telemetry
        from repro.trace.span import CausalTracer

        for seed in range(5):
            rng = _random.Random(seed)
            g = Graph()
            nodes = list(range(6))
            for v in nodes:
                g.add_node(v)
            for u in nodes:
                for v in nodes:
                    if u < v and rng.random() < 0.5:
                        g.add_edge(u, v)
            rounds = 4
            # Script: plan[v][t] = {nbr: Message} chosen at random.
            plan = {}
            for v in nodes:
                nbrs = sorted(g.neighbors(v))
                plan[v] = []
                for t in range(rounds):
                    outbox = {}
                    for u in nbrs:
                        if rng.random() < 0.4:
                            outbox[u] = Message("M", (t,))
                    plan[v].append(outbox)

            received = {v: [] for v in nodes}

            def program(v):
                def run():
                    for t in range(rounds):
                        inbox = yield plan[v][t]
                        received[v].append(dict(inbox))
                    return None

                return run()

            tracer = CausalTracer()
            sim = Simulator(
                g, {v: program(v) for v in nodes},
                telemetry=Telemetry.tracing(tracer),
            )
            sim.run()
            # Check exact delivery.
            expected_total = 0
            for v in nodes:
                for t in range(rounds):
                    for u, msg in plan[v][t].items():
                        expected_total += 1
                        assert received[u][t][v] == msg
            assert sim.stats.messages == expected_total
            delivered = [
                r for r in tracer.records
                if r["type"] == "message" and r["fate"] == "delivered"
            ]
            assert len(delivered) == expected_total


class TestBitCap:
    def test_cap_scales_with_factor(self):
        g = line_graph()
        a = Simulator(
            g, {"a": silent(1), "b": silent(1), "c": silent(1)},
            bit_cap_factor=2,
        )
        b = Simulator(
            g, {"a": silent(1), "b": silent(1), "c": silent(1)},
            bit_cap_factor=16,
        )
        assert b.max_message_bits == 8 * a.max_message_bits


def scripted(outboxes):
    """A program sending ``outboxes[t]`` in round ``t + 1``."""

    def program():
        for out in outboxes:
            yield out

    return program()


class TestAwait:
    def test_mail_in_the_await_round_wakes_after_one_round(self):
        g = line_graph()

        def waiter():
            inbox, waited = yield Await(5)
            got = (dict(inbox), waited)
            return got, dict((yield {}))

        programs = {
            "a": scripted([{"b": Message("POINT", (1,))}]),
            "b": waiter(),
            "c": silent(3),
        }
        sim = Simulator(g, programs)
        sim.step()
        assert "b" in sim._woken
        sim.run()
        got, inbox = sim.results["b"]
        assert got == ({"a": Message("POINT", (1,))}, 1)
        assert inbox == {}

    def test_mail_to_an_awaiting_node_is_delivered_traced_and_read(self):
        g = line_graph()

        def waiter():
            inbox, waited = yield Await(4)
            first = (dict(inbox), waited)
            inbox, waited = yield Await(4)
            return first, (dict(inbox), waited)

        # a writes to b only in round 3, c in rounds 3 and 5.
        programs = {
            "a": scripted([{}, {}, {"b": Message("POINT", (3,))}]),
            "b": waiter(),
            "c": scripted(
                [{}, {}, {"b": Message("POINT", (3,))}, {},
                 {"b": Message("POINT", (5,))}]
            ),
        }
        tracer = CausalTracer()
        sim = Simulator(g, programs, telemetry=Telemetry.tracing(tracer))
        stats = sim.run()
        first, second = sim.results["b"]
        assert first == (
            {"a": Message("POINT", (3,)), "c": Message("POINT", (3,))},
            3,
        )
        assert second == ({"c": Message("POINT", (5,))}, 2)
        assert stats.messages == 3
        fates = [
            (r["round"], r["from"], r["fate"])
            for r in tracer.records
            if r["type"] == "message"
        ]
        assert fates == [
            (3, "'a'", "delivered"),
            (3, "'c'", "delivered"),
            (5, "'c'", "delivered"),
        ]

    @staticmethod
    def counted(program, log):
        """``program`` logging the value of every resumption (with the
        pooled inbox copied)."""
        value = None
        while True:
            if type(value) is tuple:
                log.append((dict(value[0]), value[1]))
            else:
                log.append(value if value is None else dict(value))
            try:
                out = program.send(value)
            except StopIteration as stop:
                return stop.value
            value = yield out

    def test_timer_hands_back_an_empty_inbox(self):
        g = line_graph()
        log = []

        def waiter():
            yield Await(3)

        sim = Simulator(
            g,
            {"a": silent(4), "b": self.counted(waiter(), log),
             "c": silent(4)},
        )
        sim.run()
        assert log == [None, ({}, 3)]

    def test_mail_on_the_deadline_round_resumes_once(self):
        g = line_graph()
        log = []

        def waiter():
            yield Await(3)
            yield {}

        programs = {
            "a": scripted([{}, {}, {"b": Message("POINT", (3,))}]),
            "b": self.counted(waiter(), log),
            "c": silent(4),
        }
        sim = Simulator(g, programs)
        sim.run()
        assert log == [None, ({"a": Message("POINT", (3,))}, 3), {}]

    def test_reawait_to_the_same_deadline_resumes_once(self):
        g = line_graph()
        log = []

        def waiter():
            # Await(4) in round 1 parks b for round 5; mail in round 1
            # wakes it in round 2, where Await(3) parks it for round 5
            # again: the first bucket entry must not resume it twice.
            yield Await(4)
            yield Await(3)
            return "done"

        programs = {
            "a": scripted([{"b": Message("POINT", (1,))}]),
            "b": self.counted(waiter(), log),
            "c": silent(6),
        }
        sim = Simulator(g, programs)
        for _ in range(2):
            sim.step()
        assert sim._wake[5] == ["b", "b"]
        while "b" not in sim.results:
            sim.step()
        assert sim.stats.rounds == 5
        assert log == [None, ({"a": Message("POINT", (1,))}, 1), ({}, 3)]

    def test_crash_while_awaiting_closes_it_and_its_entry_goes_stale(self):
        g = line_graph()
        events = []

        def waiter():
            try:
                yield Await(5)
                events.append("resumed")
            except GeneratorExit:
                events.append("closed")
                raise

        # a writes to b in round 4, after the crash: nothing may wake
        # the closed program, nor its round-6 bucket entry.
        programs = {
            "a": scripted([{}, {}, {}, {"b": Message("POINT", (4,))}]),
            "b": waiter(),
            "c": silent(7),
        }
        plan = FaultPlan(crashes=(NodeCrash("b", 3),))
        sim = Simulator(g, programs, faults=plan)
        for _ in range(2):
            sim.step()
        assert events == []
        sim.step()
        assert events == ["closed"]
        assert sim.crashed == {"b": 3}
        assert 6 in sim._wake
        stats = sim.run()
        assert events == ["closed"]
        assert "b" not in sim.results
        assert stats.outcome == "degraded"
        assert stats.rounds == 8

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_return_after_await_is_seen_in_the_same_round(self, n):
        def after_await():
            yield Await(n)
            return "done"

        def after_empty_yields():
            for _ in range(n):
                yield {}
            return "done"

        def finish_round(program):
            g = line_graph()
            sim = Simulator(
                g, {"a": program, "b": silent(n + 3), "c": silent(n + 3)}
            )
            while "a" not in sim.results:
                sim.step()
            return sim.stats.rounds

        assert finish_round(after_await()) == n + 1
        assert finish_round(after_empty_yields()) == n + 1

    def test_all_awaiting_rounds_still_count(self):
        g = line_graph()

        def nap():
            yield Await(4)

        sim = Simulator(g, {"a": nap(), "b": nap(), "c": nap()})
        assert sim.run().rounds == 5
        assert sim.stats.messages_per_round == [0] * 5

    @pytest.mark.parametrize("bad", [0, -1, 1.0, 1.5, "2", True, None])
    def test_invalid_await_is_a_protocol_violation(self, bad):
        g = line_graph()

        def program():
            yield {}
            yield Await(bad)

        programs = {"a": silent(3), "b": program(), "c": silent(3)}
        with pytest.raises(ProtocolViolationError) as info:
            Simulator(g, programs).run()
        message = str(info.value)
        assert "round 2" in message
        assert "'b'" in message
        assert f"Await({bad!r})" in message


class TestRunCap:
    def forever_programs(self):
        def forever():
            while True:
                yield {}

        return {"a": forever(), "b": forever(), "c": forever()}

    def test_zero_cap_executes_no_round(self):
        sim = Simulator(line_graph(), self.forever_programs())
        stats = sim.run(max_rounds=0, on_timeout="stop")
        assert stats.rounds == 0
        assert stats.outcome == "timeout"
        assert stats.unfinished_nodes == 3

    def test_zero_cap_raises_by_default(self):
        sim = Simulator(line_graph(), self.forever_programs())
        with pytest.raises(SimulationError, match="after 0 rounds"):
            sim.run(max_rounds=0)
        assert sim.stats.rounds == 0

    def test_negative_cap_rejected(self):
        sim = Simulator(line_graph(), self.forever_programs())
        with pytest.raises(InvalidParameterError, match="max_rounds"):
            sim.run(max_rounds=-1)
        assert sim.stats.rounds == 0

    @pytest.mark.parametrize("cap", [1, 2, 5])
    def test_positive_cap_executes_exactly_cap_rounds(self, cap):
        sim = Simulator(line_graph(), self.forever_programs())
        stats = sim.run(max_rounds=cap, on_timeout="stop")
        assert (stats.rounds, stats.outcome) == (cap, "timeout")

    def test_cap_equal_to_schedule_converges(self):
        programs = {"a": silent(2), "b": silent(2), "c": silent(2)}
        stats = Simulator(line_graph(), programs).run(max_rounds=3)
        assert (stats.rounds, stats.outcome) == (3, "converged")
