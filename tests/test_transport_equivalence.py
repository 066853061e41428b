"""Cross-transport equivalence suite (ISSUE 10).

Three families of guarantees, in decreasing strictness:

1. **Zero-latency identity** — :class:`AsyncEventTransport` with a
   zero-bound latency model is *bit-identical* to the default
   :class:`SyncTransport` lockstep delivery: same matching, same
   ``SimulationStats``, same telemetry counters/events, same
   causal-trace ids.  The async code path with ``latency == 0`` must
   be indistinguishable from sync.
2. **Seeded determinism** — under nonzero latency the run is still a
   pure function of ``(instance, schedule, latency model, link_seed)``:
   repeated runs are identical.
3. **Theorem-3 under latency** — with *sparse* latency (the
   ``geometric:0.1:2`` envelope, mirroring the ``delay_rate=0.1``
   precedent in ``tests/test_faults.py``) the ASM output still
   satisfies the paper's ε·|E| blocking-pair bound on every seeded
   trial.  Dense latency (every message late) degrades the matching
   instead — the protocol's re-proposal phases can absorb occasional
   delays, not a permanent offset — so the fuzz pins the sparse
   envelope deliberately.

``REPRO_PROPERTY_TRIALS`` scales the fuzz budget (default 200).
"""

from __future__ import annotations

import os
import random
from dataclasses import asdict

import pytest

from repro.analysis.stability import count_blocking_pairs
from repro.congest import AsyncEventTransport, SyncTransport
from repro.congest.protocols.asm_protocol import (
    run_congest_almost_regular_asm,
    run_congest_asm,
    run_congest_rand_asm,
)
from repro.congest.protocols.gs_protocol import run_congest_gale_shapley
from repro.errors import InvalidParameterError, SimulationError
from repro.obs import Telemetry
from repro.trace import CausalTracer
from repro.workloads import (
    ZERO_LATENCY,
    FixedLatency,
    GeometricLatency,
    PerLinkLatency,
    UniformLatency,
    complete_uniform,
    gnp_incomplete,
    parse_latency,
)

TRIALS = int(os.environ.get("REPRO_PROPERTY_TRIALS", "200"))

# Truncated-but-sufficient schedule used across the grid (same shape as
# tests/test_properties.py).
_SCHED = dict(k=4, inner_iterations=6, outer_iterations=4)


def _profiles():
    return [
        ("complete5", complete_uniform(5, seed=1)),
        ("gnp6", gnp_incomplete(6, 0.6, seed=2)),
    ]


def _run_asm(prefs, transport, telemetry):
    return run_congest_asm(
        prefs,
        0.5,
        mm_iterations=2 * prefs.n_men,
        telemetry=telemetry,
        transport=transport,
        **_SCHED,
    )


def _run_rand_asm(prefs, transport, telemetry):
    return run_congest_rand_asm(
        prefs,
        0.5,
        failure_prob=0.2,
        seed=3,
        inner_iterations=6,
        outer_iterations=4,
        mm_iterations=2 * prefs.n_men,
        telemetry=telemetry,
        transport=transport,
    )


def _run_almost_regular(prefs, transport, telemetry):
    return run_congest_almost_regular_asm(
        prefs,
        0.5,
        failure_prob=0.2,
        seed=3,
        quantile_match_iterations=4,
        mm_iterations=2 * prefs.n_men,
        telemetry=telemetry,
        transport=transport,
    )


class _GSResult:
    """Adapter giving Gale–Shapley runs the same snapshot surface."""

    def __init__(self, matching, sim):
        self.matching = matching
        self.stats = sim.stats


def _run_gs(prefs, transport, telemetry):
    matching, sim = run_congest_gale_shapley(
        prefs, telemetry=telemetry, transport=transport
    )
    return _GSResult(matching, sim)


_RUNNERS = {
    "asm": _run_asm,
    "rand-asm": _run_rand_asm,
    "almost-regular": _run_almost_regular,
    "gale-shapley": _run_gs,
}

# Zero-bound transports that must be indistinguishable from sync.
_ZERO_TRANSPORTS = {
    "sync": lambda: None,
    "sync-explicit": lambda: SyncTransport(),
    "async-zero": lambda: AsyncEventTransport(),
    "async-fixed0": lambda: AsyncEventTransport(FixedLatency(0)),
    "async-geometric0": lambda: AsyncEventTransport(GeometricLatency(0.0, 3)),
}


def _scrub_events(records):
    """Event records minus wall-clock fields (``t``, ``seconds``)."""
    return [
        {k: v for k, v in rec.items() if k not in ("t", "seconds")}
        for rec in records
    ]


def _scrub_metrics(state):
    """Metrics state minus wall-clock histograms (``*_seconds``)."""
    return {
        "counters": state["counters"],
        "gauges": state["gauges"],
        "histograms": {
            k: v
            for k, v in state["histograms"].items()
            if not k.endswith("_seconds")
        },
    }


def _snapshot(runner, prefs, transport):
    """Full observable fingerprint of one run.

    Covers the matching, the round/message/bit statistics, the metrics
    registry, the event log, and the causal-trace records — everything
    the transport could perturb.  Wall-clock fields are scrubbed; they
    vary between any two runs regardless of transport.
    """
    tracer = CausalTracer()
    telemetry = Telemetry.create(tracer=tracer)
    result = runner(prefs, transport, telemetry)
    return {
        "pairs": sorted(
            (repr(a), repr(b)) for a, b in result.matching.pairs()
        ),
        "stats": asdict(result.stats),
        "metrics": _scrub_metrics(telemetry.metrics.raw_state()),
        "events": _scrub_events(telemetry.metrics.events),
        "trace": tracer.to_records(),
    }


# ----------------------------------------------------------------------
# 1. Zero-latency identity: async(0) ≡ sync, bit for bit
# ----------------------------------------------------------------------


class TestZeroLatencyIdentity:
    @pytest.mark.parametrize("proto", sorted(_RUNNERS))
    @pytest.mark.parametrize(
        "name", [k for k in _ZERO_TRANSPORTS if k != "sync"]
    )
    def test_bit_identical_to_sync(self, proto, name):
        runner = _RUNNERS[proto]
        for _, prefs in _profiles():
            base = _snapshot(runner, prefs, _ZERO_TRANSPORTS["sync"]())
            other = _snapshot(runner, prefs, _ZERO_TRANSPORTS[name]())
            assert other == base, f"{name} diverged from sync on {proto}"

    def test_zero_latency_transport_reports_no_reordering(self):
        assert SyncTransport().reorders is False
        assert AsyncEventTransport().reorders is False
        assert AsyncEventTransport(GeometricLatency(0.0, 3)).reorders is False
        assert AsyncEventTransport(UniformLatency(0, 2)).reorders is True
        assert AsyncEventTransport(FixedLatency(1)).reorders is True

    def test_zero_latency_async_defers_nothing(self):
        transport = AsyncEventTransport()
        prefs = complete_uniform(5, seed=1)
        _run_asm(prefs, transport, None)
        assert transport.deferred == 0
        assert transport.in_flight() == 0
        assert transport.latency_counts == {}


# ----------------------------------------------------------------------
# 2. Seeded determinism under nonzero latency
# ----------------------------------------------------------------------

_LATENCY_GRID = [
    FixedLatency(1),
    UniformLatency(0, 2),
    PerLinkLatency(0, 1),
    GeometricLatency(0.3, 3),
]


class TestSeededDeterminism:
    @pytest.mark.parametrize(
        "latency", _LATENCY_GRID, ids=lambda m: m.kind
    )
    def test_repeat_runs_byte_identical(self, latency):
        prefs = gnp_incomplete(6, 0.6, seed=2)
        runs = [
            _snapshot(
                _run_asm,
                prefs,
                AsyncEventTransport(latency, link_seed=5),
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_latency_perturbs_the_run(self):
        prefs = complete_uniform(6, seed=4)
        transport = AsyncEventTransport(FixedLatency(1), link_seed=0)
        _run_asm(prefs, transport, None)
        assert transport.deferred > 0
        assert transport.delivered_late > 0
        assert transport.latency_counts == {1: transport.deferred}

    def test_deferral_accounting_balances(self):
        prefs = gnp_incomplete(6, 0.6, seed=2)
        transport = AsyncEventTransport(
            GeometricLatency(0.4, 3), link_seed=11
        )
        _run_asm(prefs, transport, None)
        assert transport.deferred == (
            transport.delivered_late
            + transport.dropped_late
            + transport.in_flight()
        )

    def test_deferral_metrics_recorded(self):
        prefs = complete_uniform(5, seed=1)
        transport = AsyncEventTransport(FixedLatency(1), link_seed=0)
        telemetry = Telemetry.create()
        _run_asm(prefs, transport, telemetry)
        state = telemetry.metrics.raw_state()
        counters = state["counters"]
        assert counters["congest.transport_deferred"] == transport.deferred
        assert "congest.transport_latency" in state["histograms"]

    def test_transport_cannot_be_rebound(self):
        prefs = complete_uniform(4, seed=0)
        transport = AsyncEventTransport(FixedLatency(1))
        _run_asm(prefs, transport, None)
        with pytest.raises(SimulationError):
            _run_asm(prefs, transport, None)

    def test_describe_round_trips_the_latency_model(self):
        transport = AsyncEventTransport(UniformLatency(1, 3), link_seed=9)
        desc = transport.describe()
        assert desc["kind"] == "async"
        assert desc["latency"] == UniformLatency(1, 3).to_dict()
        assert desc["link_seed"] == 9


# ----------------------------------------------------------------------
# 3. Latency model zoo: pure, seeded, bounded
# ----------------------------------------------------------------------


class TestLatencyModels:
    def test_draws_are_pure_functions(self):
        for model in _LATENCY_GRID:
            a = model.draw(5, 3, "m:0", "w:1")
            b = model.draw(5, 3, "m:0", "w:1")
            assert a == b

    def test_draws_respect_bound(self):
        rng = random.Random(99)
        for model in _LATENCY_GRID:
            for _ in range(50):
                lat = model.draw(
                    rng.randrange(2**31),
                    rng.randrange(100),
                    f"m:{rng.randrange(8)}",
                    f"w:{rng.randrange(8)}",
                )
                assert 0 <= lat <= model.bound()

    def test_perlink_is_round_independent(self):
        model = PerLinkLatency(0, 3)
        draws = {model.draw(7, r, "m:2", "w:5") for r in range(20)}
        assert len(draws) == 1

    def test_uniform_varies_by_round(self):
        model = UniformLatency(0, 3)
        draws = {model.draw(7, r, "m:2", "w:5") for r in range(50)}
        assert len(draws) > 1

    def test_parse_latency_grammar(self):
        assert parse_latency("zero") == ZERO_LATENCY
        assert parse_latency("fixed:2") == FixedLatency(2)
        assert parse_latency("uniform:1-3") == UniformLatency(1, 3)
        assert parse_latency("perlink:0-2") == PerLinkLatency(0, 2)
        assert parse_latency("geometric:0.3:4") == GeometricLatency(0.3, 4)

    @pytest.mark.parametrize(
        "spec",
        ["", "bogus", "fixed:-1", "uniform:3-1", "geometric:1.5:2", "uniform:x-y"],
    )
    def test_parse_latency_rejects_bad_specs(self, spec):
        with pytest.raises(InvalidParameterError):
            parse_latency(spec)

    def test_to_dict_identifies_the_model(self):
        kinds = {m.to_dict()["kind"] for m in _LATENCY_GRID}
        assert kinds == {"fixed", "uniform", "perlink", "geometric"}


# ----------------------------------------------------------------------
# 4. Theorem 3 under sparse latency: ≥ TRIALS seeded runs, all within
#    the ε·|E| blocking-pair bound
# ----------------------------------------------------------------------


class TestTheorem3UnderLatency:
    def test_eps_bound_survives_sparse_latency(self):
        rng = random.Random(0xA5B3)
        checked = 0
        while checked < TRIALS:
            n = rng.randint(3, 6)
            eps = rng.choice([0.5, 0.8])
            seed = rng.randrange(2**31)
            if rng.random() < 0.3:
                prefs = gnp_incomplete(n, 0.7, seed)
            else:
                prefs = complete_uniform(n, seed)
            if prefs.num_edges == 0:
                continue
            transport = AsyncEventTransport(
                GeometricLatency(0.1, 2),
                link_seed=rng.randrange(2**31),
            )
            result = run_congest_asm(
                prefs,
                eps,
                mm_iterations=2 * n,
                transport=transport,
                **_SCHED,
            )
            blocking = count_blocking_pairs(prefs, result.matching)
            assert blocking <= eps * prefs.num_edges, (
                f"eps bound violated: n={n} eps={eps} seed={seed} "
                f"blocking={blocking} edges={prefs.num_edges}"
            )
            checked += 1
