"""Seed and trace-id derivation: every fast path is the canonical text.

Fault decisions, latency draws and causal trace ids are SHA-256 hashes
of a canonical text of their inputs (:mod:`repro.parallel.spec`).  The
hot CONGEST path builds that text from pieces made once per run — a
prebuilt ``(seed, tag)`` head, each node's label — instead of from
scratch per message.  This suite pins that the shortcut changes no bit:

* hypothesis properties compare every fast path with an oracle copy of
  the generic per-component rule (:func:`_reference_canonical`);
* a grid of seeds × rounds × links is hashed through every
  ``FaultPlan`` decision, every latency model's ``draw`` and
  ``CausalTracer.on_send``; the digests were recorded from the
  implementation that built every text from scratch;
* seeds are checked when a plan or transport is built, and a latency
  draw that cannot vary derives nothing.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import AsyncEventTransport
from repro.congest.protocols.asm_protocol import run_congest_asm
from repro.errors import InvalidParameterError
from repro.faults import FaultPlan
from repro.obs import Telemetry
from repro.parallel import spec
from repro.parallel.spec import SeedHead, derive_seed
from repro.trace import CausalTracer, derive_trace_id
from repro.workloads import (
    FixedLatency,
    GeometricLatency,
    PerLinkLatency,
    UniformLatency,
)
from repro.workloads.generators import complete_uniform


# ----------------------------------------------------------------------
# The oracle: the generic rule, one component at a time
# ----------------------------------------------------------------------


def _reference_canonical(value: Any) -> str:
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_reference_canonical(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        return (
            "{"
            + ",".join(f"{k!r}:{_reference_canonical(v)}" for k, v in items)
            + "}"
        )
    raise InvalidParameterError(
        f"cannot derive a stable seed from {type(value).__name__!r} "
        f"component {value!r}; use JSON-shaped values"
    )


def _reference_seed(root_seed: int, *components: Any) -> int:
    text = "|".join(
        [_reference_canonical(int(root_seed))]
        + [_reference_canonical(c) for c in components]
    )
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _reference_trace_id(parent: str, *components: Any) -> str:
    text = "|".join([parent] + [_reference_canonical(c) for c in components])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

_TEXT = st.text(
    alphabet=st.sampled_from(list("abM W'\"\\|:,[]{}()-0é☃\n")), max_size=8
)
_BIG_INTS = st.integers(min_value=-(2**100), max_value=2**100)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    _BIG_INTS,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, float("inf"), float("-inf"), float("nan")]),
    _TEXT,
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(st.one_of(_TEXT, st.integers(-9, 9)), inner,
                        max_size=3),
    ),
    max_leaves=8,
)
_NODES = st.one_of(
    st.tuples(st.sampled_from(["M", "W"]), st.integers(-3, 10**6)),
    st.integers(-5, 50),
    _TEXT,
)


class _Colour(enum.IntEnum):
    RED = 1


# ----------------------------------------------------------------------
# Fast paths equal the generic rule
# ----------------------------------------------------------------------


class TestCanonicalText:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_BIG_INTS, st.booleans()), st.lists(_JSON, max_size=5))
    def test_derive_seed_matches_generic_rule(self, root, components):
        assert derive_seed(root, *components) == _reference_seed(
            root, *components
        )

    @settings(max_examples=300, deadline=None)
    @given(_TEXT, st.lists(_JSON, max_size=5))
    def test_derive_trace_id_matches_generic_rule(self, parent, components):
        assert derive_trace_id(parent, *components) == _reference_trace_id(
            parent, *components
        )

    @settings(max_examples=200, deadline=None)
    @given(_BIG_INTS, st.lists(_JSON, max_size=6), st.data())
    def test_seed_head_matches_derive_seed(self, root, components, data):
        split = data.draw(st.integers(0, len(components)))
        head = SeedHead(root, *components[:split])
        assert head.derive(*components[split:]) == derive_seed(
            root, *components
        )

    def test_root_seed_keeps_its_int_coercion(self):
        # derive_seed itself still accepts anything int() takes.
        for root in (True, 1.9, "1"):
            assert derive_seed(root, "x") == _reference_seed(root, "x")
        assert SeedHead(True, "x").derive(3) == derive_seed(1, "x", 3)

    def test_subclassed_scalars_take_the_generic_path(self):
        np = pytest.importorskip("numpy")
        # An IntEnum and a numpy float are int/float subclasses whose
        # repr differs from the plain value's; the text keeps it.
        for value in (_Colour.RED, np.float64(1.5), [np.float64(-0.0)]):
            assert derive_seed(3, value) == _reference_seed(3, value)
            assert derive_trace_id("p", value) == _reference_trace_id(
                "p", value
            )

    @pytest.mark.parametrize(
        "component", [object(), {1, 2}, b"bytes", [1, object()],
                      {"a": {"b": frozenset()}}],
        ids=["object", "set", "bytes", "nested-list", "nested-dict"],
    )
    def test_non_json_components_raise_as_before(self, component):
        with pytest.raises(InvalidParameterError) as expected:
            _reference_seed(0, component)
        for derive in (
            lambda: derive_seed(0, "tag", component),
            lambda: derive_trace_id("root", 1, component),
            lambda: SeedHead(0, component),
            lambda: SeedHead(0, "tag").derive(component),
        ):
            with pytest.raises(InvalidParameterError) as got:
                derive()
            assert str(got.value) == str(expected.value)

    def test_numpy_ints_raise_as_before(self):
        np = pytest.importorskip("numpy")
        for value in (np.int64(3), np.int32(-1)):
            with pytest.raises(InvalidParameterError) as expected:
                _reference_canonical(value)
            with pytest.raises(InvalidParameterError) as got:
                derive_seed(0, value)
            assert str(got.value) == str(expected.value)


class TestDecisionFastPaths:
    @settings(max_examples=150, deadline=None)
    @given(
        _BIG_INTS, st.integers(0, 10**9), _NODES, _NODES,
        st.floats(0.0, 1.0), st.integers(1, 5),
    )
    def test_fault_plan_decisions(self, seed, round_index, sender,
                                  recipient, rate, max_delay):
        plan = FaultPlan(seed=seed, drop_rate=rate, duplicate_rate=rate,
                         delay_rate=rate, max_delay=max_delay)
        link = (round_index, repr(sender), repr(recipient))

        def unit(tag):
            return _reference_seed(seed, tag, *link) / float(2**63)

        assert plan.drops(*link) == (rate > 0.0 and unit("drop") < rate)
        assert plan.duplicates(*link) == (
            rate > 0.0 and unit("duplicate") < rate
        )
        delayed = rate > 0.0 and unit("delay") < rate
        expected = (
            1 + _reference_seed(seed, "delay-amount", *link) % max_delay
            if delayed else 0
        )
        assert plan.delay_of(*link) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        _BIG_INTS, st.integers(0, 10**9), _NODES, _NODES,
        st.integers(0, 3), st.integers(0, 3),
        st.floats(0.0, 0.99), st.integers(1, 4),
    )
    def test_latency_draws(self, link_seed, round_index, sender, recipient,
                           low, width, rate, cap):
        s, r = repr(sender), repr(recipient)
        high = low + width
        span = width + 1
        uniform = _reference_seed(link_seed, "latency-uniform",
                                  round_index, s, r)
        assert UniformLatency(low, high).draw(
            link_seed, round_index, s, r) == low + uniform % span
        perlink = _reference_seed(link_seed, "latency-perlink", s, r)
        assert PerLinkLatency(low, high).draw(
            link_seed, round_index, s, r) == low + perlink % span
        threshold = int(rate * 2**63)
        latency = 0
        while latency < cap and _reference_seed(
            link_seed, "latency-geom", round_index, s, r, latency
        ) < threshold:
            latency += 1
        assert GeometricLatency(rate, cap).draw(
            link_seed, round_index, s, r) == latency
        assert FixedLatency(low).draw(link_seed, round_index, s, r) == low

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10**6), _NODES, _NODES,
                              _TEXT), max_size=12))
    def test_tracer_ids_follow_the_causal_chain(self, sends):
        tracer = CausalTracer()
        heads = {}
        for round_index, sender, recipient, kind in sends:
            s, r = repr(sender), repr(recipient)
            expected = _reference_trace_id(
                heads.get(s, "") or "root", round_index, s, r, kind
            )
            tid = tracer.on_send(round_index, sender, recipient, kind)
            assert tid == expected
            tracer.on_delivered(recipient, tid)
            tracer.end_round(round_index)
            heads[r] = tid


# ----------------------------------------------------------------------
# Pinned digests (recorded from the from-scratch text builder)
# ----------------------------------------------------------------------

SEEDS = (0, 1, 7, 2**40 + 3, -5, 2**70 + 1)
ROUNDS = (1, 2, 9, 1000)
LINKS = (
    (("M", 0), ("W", 0)),
    (("M", 3), ("W", 11)),
    (("W", 2), ("M", 17)),
    (4, "x"),
    (("M", -1), ("W", 10**20)),
)
MODELS = (
    FixedLatency(2),
    UniformLatency(0, 3),
    UniformLatency(2, 2),
    PerLinkLatency(1, 4),
    PerLinkLatency(3, 3),
    GeometricLatency(0.5, 4),
    GeometricLatency(0.9, 2),
    GeometricLatency(0.0, 3),
)
MIXED = (
    (0, "e3", 32, 0.25),
    (-1, -0.0, float("inf"), float("-inf")),
    (3, float("nan"), True, False, None),
    (2**80, -(2**65), 1e300, 5e-324),
    (9, "it's", 'say "hi"', "back\\slash", "naïve ünïcode ☃", ""),
    (4, [1, [2, (3, "a")]], {"b": [1.5, None], "a": {"z": True}}),
    (5, {3: "x", "3": "y"}, [], {}),
)

PINNED = {
    "derive_seed":
        "1e3c36428baaa99bbba733f1abe19a44ed496dc78e1fa0a06adfa20919001836",
    "fault_plan":
        "4c76fdcb80e402895848c648a4eb9a59bbd2cc3709579da3afc31d6d9b89760c",
    "latency_draw":
        "49417779231a416c6a758297dc8a9fdc03058eb5799a666bdd9a6b23157eb1c9",
    "trace_ids":
        "9a7f079ca9eda862d97d2a007e7b0f0733729001cb5c23f70a975046ff01ba9c",
    "mixed":
        "6937d060610ffd1c827fa59e60f39d39f526ef0fbfee825e2be9b8269de76dc0",
    "run":
        "b54b2d167085f5e28b7053c4e161009673f6009222068a5f7feea745f9d3ebae",
}


def _digest(values: Any) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()


def _grid_derive_seed():
    return [
        derive_seed(seed, tag, r, repr(s), repr(t))
        for seed in SEEDS
        for r in ROUNDS
        for s, t in LINKS
        for tag in ("drop", "duplicate", "delay", "delay-amount")
    ]


def _grid_fault_plan():
    out = []
    for seed in SEEDS:
        plan = FaultPlan(seed=seed, drop_rate=0.5, duplicate_rate=0.5,
                         delay_rate=0.5, max_delay=3)
        for r in ROUNDS:
            for s, t in LINKS:
                link = (r, repr(s), repr(t))
                out.append([plan.drops(*link), plan.duplicates(*link),
                            plan.delay_of(*link)])
    return out


def _grid_latency_draw():
    return [
        [model.draw(seed, r, repr(s), repr(t)) for model in MODELS]
        for seed in SEEDS
        for r in ROUNDS
        for s, t in LINKS
    ]


def _grid_trace_ids():
    ids = [
        derive_trace_id(parent, r, repr(s), repr(t), kind)
        for parent in ("root", "0123456789abcdef", "root")
        for r in ROUNDS
        for s, t in LINKS
        for kind in ("PROPOSE", "it's", "\\x")
    ]
    tracer = CausalTracer()
    for r in ROUNDS:
        for s, t in LINKS:
            for a, b in ((s, t), (t, s)):
                tid = tracer.on_send(r, a, b, "PROPOSE")
                tracer.on_delivered(b, tid)
                ids.append(tid)
        tracer.end_round(r)
    return ids


def _grid_mixed():
    return [
        [derive_seed(c[0], *c[1:]) for c in MIXED],
        [derive_trace_id("p", *c) for c in MIXED],
    ]


def _grid_run():
    """One traced ASM run over geometric latency and drops."""
    transport = AsyncEventTransport(GeometricLatency(0.3, 2), link_seed=5)
    telemetry = Telemetry.tracing(CausalTracer())
    result = run_congest_asm(
        complete_uniform(8, 4), 0.5, k=4, inner_iterations=6,
        outer_iterations=2, mm_iterations=8, transport=transport,
        telemetry=telemetry, faults=FaultPlan(seed=7, drop_rate=0.1),
    )
    return [
        sorted(result.matching.pairs()),
        dataclasses.asdict(result.stats),
        list(result.fault_trace),
        telemetry.tracer.to_records(),
        [transport.deferred, transport.delivered_late,
         transport.dropped_late, sorted(transport.latency_counts.items())],
    ]


GRIDS = {
    "derive_seed": _grid_derive_seed,
    "fault_plan": _grid_fault_plan,
    "latency_draw": _grid_latency_draw,
    "trace_ids": _grid_trace_ids,
    "mixed": _grid_mixed,
    "run": _grid_run,
}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_pinned_digest(name):
    assert _digest(GRIDS[name]()) == PINNED[name]


# ----------------------------------------------------------------------
# Seeds are checked where they are given
# ----------------------------------------------------------------------


class TestSeedValidation:
    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", True, False, None])
    def test_fault_plan_requires_an_int_seed(self, seed):
        with pytest.raises(InvalidParameterError, match="seed"):
            FaultPlan(seed=seed, drop_rate=0.1)

    @pytest.mark.parametrize("seed", ["x", 2.7, True, None])
    def test_transport_requires_an_int_link_seed(self, seed):
        with pytest.raises(InvalidParameterError, match="link_seed"):
            AsyncEventTransport(UniformLatency(0, 2), link_seed=seed)

    @pytest.mark.parametrize("seed", [0, -4, 2**70])
    def test_int_seeds_are_accepted(self, seed):
        assert FaultPlan(seed=seed).seed == seed
        assert AsyncEventTransport(link_seed=seed).link_seed == seed

    def test_replace_rebuilds_the_heads(self):
        plan = FaultPlan(seed=1, drop_rate=0.5)
        other = dataclasses.replace(plan, seed=2)
        fates = [
            (plan.drops(r, "a", "b"), other.drops(r, "a", "b"))
            for r in range(1, 40)
        ]
        assert fates == [
            (_reference_seed(1, "drop", r, "a", "b") < 2**62,
             _reference_seed(2, "drop", r, "a", "b") < 2**62)
            for r in range(1, 40)
        ]


# ----------------------------------------------------------------------
# A draw that cannot vary derives nothing
# ----------------------------------------------------------------------


@pytest.fixture
def derivations(monkeypatch):
    """Count every SHA-256 seed derivation made through the spec."""
    calls = []
    seed_of = spec._seed_of

    def counting(text):
        calls.append(text)
        return seed_of(text)

    monkeypatch.setattr(spec, "_seed_of", counting)
    return calls


@pytest.mark.parametrize(
    "model, value",
    [(GeometricLatency(0.0, 3), 0), (UniformLatency(2, 2), 2),
     (PerLinkLatency(1, 1), 1), (FixedLatency(3), 3)],
    ids=["geometric-rate-0", "uniform-a-a", "perlink-a-a", "fixed"],
)
def test_constant_draws_derive_nothing(derivations, model, value):
    draws = {
        model.draw(seed, r, "('M', 0)", "('W', 1)")
        for seed in (0, 5) for r in range(1, 20)
    }
    assert draws == {value}
    assert derivations == []


def test_counting_fixture_sees_varying_draws(derivations):
    UniformLatency(0, 2).draw(5, 1, "a", "b")
    GeometricLatency(0.5, 2).draw(5, 1, "a", "b")
    assert len(derivations) >= 2
