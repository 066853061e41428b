"""Tests for the CONGEST simulator and message model."""

from __future__ import annotations

import pytest

from repro.congest.message import TAG_BITS, Message
from repro.congest.simulator import Simulator
from repro.errors import ProtocolViolationError, SimulationError
from repro.graphs import Graph


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
