"""Per-layer tracing for the traced (``--trace 1``) run.

:func:`installed` wraps the layers' public callables at class or
module level — only inside the traced process, ``src/`` is never
edited — and :class:`Tracer` records one span per wrapped call:
``[name, start, end, parent, op, child_seconds, aggregates, root]``.
Calls too fine-grained for a span each (latency draws, per-message
fault filtering, causal-tracer hooks) are aggregated as ``(calls,
seconds)`` under their parent span.  Wrappers are inert outside a
root span, so untimed work between operations is never traced, and
checks run under their own ``check`` roots so their cost is visible
without diluting the operations' breakdown.

A layer's self time is its spans' duration minus the part their child
spans cover.  :func:`layer_metrics` turns self times into shares of
the measured (set-up + call) time and counters into per-pass rates;
:func:`write_trace` exports a Chrome trace-event file (open it in
Perfetto) and a ``layers.json`` breakdown.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

NAME, START, END, PARENT, OP, CHILD, AGG, ROOT = range(8)

#: Per-layer metrics: name -> (unit, better).  Every name is emitted by
#: every workload; a layer the workload bypasses reports 0.
SHARE_LAYERS = (
    "profile.build",
    "vec.compile",
    "asm.init",
    "asm.run",
    "asm.outer",
    "asm.qm",
    "asm.round",
    "vec.activate",
    "vec.propose",
    "vec.accept",
    "vec.mm",
    "vec.reject",
    "py.mm",
    "congest.protocol",
    "congest.run",
    "congest.step",
    "transport.deliver",
    "latency.draw",
    "faults.filter",
    "faults.due",
    "tracer.hooks",
    "dynamic.apply",
    "index.build",
    "index.structural",
    "index.satisfy",
    "index.update",
    "dynamic.freeze",
    "bench.unattributed",
)

#: Layers whose spans have child layers: their share is of *self* time.
_SELF_SUFFIX = {
    "asm.run", "asm.outer", "asm.qm", "asm.round", "congest.protocol",
    "congest.run", "congest.step", "transport.deliver", "dynamic.apply",
}

COUNTERS = (
    "vec.compile_calls",
    "vec.activate_calls",
    "vec.activate_edges_scanned",
    "vec.mm_iterations",
    "asm.quantile_match_calls",
    "asm.proposal_rounds",
    "asm.proposals",
    "asm.accepts",
    "asm.rejects",
    "mm.calls",
    "mm.rounds",
    "mm.g0_edges",
    "congest.rounds",
    "congest.node_rounds",
    "transport.messages",
    "transport.bits",
    "transport.deferred",
    "transport.delivered_late",
    "transport.dropped_late",
    "latency.draws",
    "faults.decisions",
    "faults.dropped",
    "tracer.calls",
    "tracer.records",
    "index.ops",
    "index.satisfy_calls",
    "dynamic.deltas",
    "dynamic.repair_passes",
    "dynamic.marriages",
    "dynamic.fallbacks",
    "profile.builds",
)

#: Counters read from the call counts of aggregated fine-grained layers.
_FINE_COUNTERS = {
    "latency.draws": "latency.draw",
    "faults.decisions": "faults.filter",
    "tracer.calls": "tracer.hooks",
}

#: Spans that make up a fallback when they run directly under
#: ``dynamic.apply`` (freeze → compile → full solve → index update).
FALLBACK_PARTS = ("dynamic.freeze", "asm.init", "asm.run", "index.update")


def metric_names() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric as ``name -> (unit, better)``."""
    names: Dict[str, Tuple[str, str]] = {}
    for layer in SHARE_LAYERS:
        suffix = "_self_share" if layer in _SELF_SUFFIX else "_share"
        names[layer + suffix] = ("fraction", "lower")
    names["dynamic.fallback_share"] = ("fraction", "lower")
    names["stability.count_share"] = ("fraction", "lower")
    names["trace.overhead"] = ("fraction", "lower")
    for counter in COUNTERS:
        names[counter] = ("count", "lower")
    names["vec.compile_bytes"] = ("B", "lower")
    names["asm.accept_ratio"] = ("fraction", "higher")
    names["congest.active_round_frac"] = ("fraction", "higher")
    names["dynamic.region_players_mean"] = ("count", "lower")
    names["dynamic.repair_yield"] = ("fraction", "higher")
    names["check.eps_max"] = ("fraction", "lower")
    return names


class Tracer:
    """In-memory span recorder (see module docstring)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Counters of the operations (``call:`` roots).
        self.call_counts: Counter = Counter()
        self._discarded: Counter = Counter()
        #: Where after-hooks count: ``call_counts`` inside ``call:``
        #: roots, a discarded sink inside set-up and check roots.
        self.counts: Counter = self._discarded
        self.compile_bytes = 0

    def begin_root(self, name: str, op: Optional[int]) -> None:
        self.counts = (
            self.call_counts if name.startswith("call:") else self._discarded
        )
        self._open(name, op)

    def end_root(self) -> None:
        self._close()
        self.counts = self._discarded

    def _open(self, name: str, op: Optional[int] = None) -> None:
        stack = self._stack
        if stack:
            parent = stack[-1]
            top = self.spans[parent]
            op, root = top[OP], top[ROOT]
        else:
            parent, root = -1, len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, op, 0.0, None, root]
        )
        stack.append(len(self.spans) - 1)

    def _close(self) -> None:
        span = self.spans[self._stack.pop()]
        span[END] = end = time.perf_counter()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += end - span[START]

    def span_wrapper(
        self, name: str, fn: Callable, after: Optional[Callable] = None
    ) -> Callable:
        """``fn`` recording one span per call (inside a root only)."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not stack:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def fine_wrapper(self, name: str, fn: Callable) -> Callable:
        """``fn`` aggregated as (calls, seconds) under its parent span."""
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not stack:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                parent = spans[stack[-1]]
                parent[CHILD] += dt
                agg = parent[AGG]
                if agg is None:
                    agg = parent[AGG] = {}
                entry = agg.get(name)
                if entry is None:
                    agg[name] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt
            return result

        return wrapper

    # -- aggregation -----------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int], float,
                                  float, float]:
        """Per-layer self seconds and calls over set-up and call roots.

        Returns ``(self_s, calls, measured_s, check_count_s,
        fallback_s)``: ``measured_s`` is the wall time of every set-up
        and call root, ``check_count_s`` the blocking-pair counting done
        by checks, ``fallback_s`` the inclusive time of fallback spans.
        """
        spans = self.spans
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        measured = check_count = fallback = 0.0
        for span in spans:
            root = spans[span[ROOT]][NAME]
            dur = span[END] - span[START]
            if root == "check":
                if span[NAME] == "stability.count":
                    check_count += dur - span[CHILD]
                continue
            name = span[NAME]
            if span[PARENT] < 0:
                measured += dur
                name = "bench.unattributed"
            elif (
                name in FALLBACK_PARTS
                and spans[span[PARENT]][NAME] == "dynamic.apply"
            ):
                fallback += dur
            self_s[name] = self_s.get(name, 0.0) + dur - span[CHILD]
            calls[name] = calls.get(name, 0) + 1
            if span[AGG]:
                for fine, (n, secs) in span[AGG].items():
                    self_s[fine] = self_s.get(fine, 0.0) + secs
                    calls[fine] = calls.get(fine, 0) + n
        return self_s, calls, measured, check_count, fallback


def layer_metrics(
    tracer: Tracer, passes: int, eps_max: float, overhead: float
) -> Dict[str, Dict[str, Any]]:
    """The ``per_layer`` metrics of ``BENCHMARK.json`` for one run."""
    self_s, calls, measured, check_count, fallback = tracer.self_times()
    names = metric_names()
    values: Dict[str, float] = {}
    for layer in SHARE_LAYERS:
        suffix = "_self_share" if layer in _SELF_SUFFIX else "_share"
        values[layer + suffix] = self_s.get(layer, 0.0) / measured
    values["dynamic.fallback_share"] = fallback / measured
    values["stability.count_share"] = check_count / measured
    values["trace.overhead"] = overhead
    counts = Counter(tracer.call_counts)
    # Fine-grained layers count their calls in their aggregates.
    for counter, layer in _FINE_COUNTERS.items():
        counts[counter] = calls.get(layer, 0)
    for counter in COUNTERS:
        values[counter] = counts[counter] / passes
    values["vec.compile_bytes"] = float(tracer.compile_bytes)

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    values["asm.accept_ratio"] = ratio("asm.accepts", "asm.proposals")
    values["congest.active_round_frac"] = ratio(
        "congest.active_rounds", "congest.rounds"
    )
    values["dynamic.region_players_mean"] = ratio(
        "dynamic.region_players", "dynamic.deltas"
    )
    values["dynamic.repair_yield"] = ratio(
        "dynamic.marriages", "dynamic.repair_passes"
    )
    values["check.eps_max"] = eps_max
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _) in names.items()
    }


def write_trace(tracer: Tracer, stem: str, summary: Dict[str, Any]) -> None:
    """Write ``<stem>.trace.json`` (Chrome trace events) and
    ``<stem>.layers.json`` (self time and calls per layer)."""
    spans = tracer.spans
    origin = spans[0][START] if spans else 0.0
    events = []
    for span in spans:
        args: Dict[str, Any] = {"op": span[OP]}
        if span[AGG]:
            args.update(
                {k: {"calls": n, "s": s} for k, (n, s) in span[AGG].items()}
            )
        events.append(
            {
                "name": span[NAME],
                "cat": span[NAME].split(".")[0].split(":")[0],
                "ph": "X",
                "ts": (span[START] - origin) * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": args,
            }
        )
    with open(stem + ".trace.json", "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    self_s, calls, measured, check_count, fallback = tracer.self_times()
    layers = {
        name: {"self_s": self_s[name], "calls": calls[name]}
        for name in sorted(self_s, key=self_s.get, reverse=True)
    }
    with open(stem + ".layers.json", "w") as fh:
        json.dump(
            {
                "measured_s": measured,
                "check_count_s": check_count,
                "fallback_s": fallback,
                "layers": layers,
                "counts": dict(sorted(tracer.call_counts.items())),
                **summary,
            },
            fh,
            indent=1,
        )


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------


def _count(name: str, amount: Callable[[Any, Any], float] = None):
    """An after-hook adding ``amount(args, result)`` (default 1)."""

    def after(tracer: Tracer, args: tuple, result: Any) -> None:
        tracer.counts[name] += 1 if amount is None else amount(args, result)

    return after


def _hooks(*hooks: Callable) -> Callable:
    def after(tracer: Tracer, args: tuple, result: Any) -> None:
        for hook in hooks:
            hook(tracer, args, result)

    return after


def _after_compile(tracer: Tracer, args: tuple, result: Any) -> None:
    profile = args[0]
    tracer.counts["vec.compile_calls"] += 1
    nbytes = sum(
        getattr(profile, slot).nbytes
        for slot in type(profile).__slots__
        if hasattr(getattr(profile, slot, None), "nbytes")
    )
    tracer.compile_bytes = max(tracer.compile_bytes, nbytes)


def _after_round(tracer: Tracer, args: tuple, stats: Any) -> None:
    if stats is None:
        return
    counts = tracer.counts
    counts["asm.proposal_rounds"] += 1
    counts["asm.proposals"] += stats.proposals
    counts["asm.accepts"] += stats.accepts
    counts["asm.rejects"] += stats.rejects


def _after_step(tracer: Tracer, args: tuple, result: Any) -> None:
    sim = args[0]
    counts = tracer.counts
    counts["congest.rounds"] += 1
    counts["congest.node_rounds"] += sim.n
    if sim.stats.messages_per_round and sim.stats.messages_per_round[-1]:
        counts["congest.active_rounds"] += 1


def _after_apply(tracer: Tracer, args: tuple, outcome: Any) -> None:
    counts = tracer.counts
    counts["dynamic.deltas"] += 1
    counts["dynamic.region_players"] += (
        outcome.region_men + outcome.region_women
    )
    counts["dynamic.repair_passes"] += outcome.repair_passes
    counts["dynamic.marriages"] += outcome.marriages
    counts["dynamic.fallbacks"] += outcome.fallback


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every traced layer for the duration of the block."""
    from repro.analysis import stability
    from repro.congest import simulator, transport
    from repro.congest.protocols import asm_protocol, gs_protocol
    from repro.core import preferences
    from repro.core.asm import ASMEngine as Engine
    from repro.dynamic import engine as dyn_engine
    from repro.dynamic import index as dyn_index
    from repro.dynamic import market as dyn_market
    from repro.faults import injector
    from repro.mm.deterministic import ROUNDS_PER_POINTER_ROUND
    from repro.perf import blocking_index
    from repro.trace import span as trace_span
    from repro.vec import compile as vec_compile
    from repro.vec import engine as vec_engine
    from repro.vec import stability as vec_stability
    from repro.workloads import latency

    patched: List[Tuple[Any, str, Any]] = []

    def span(owner: Any, attr: str, name: str, after: Callable = None):
        original = owner.__dict__[attr]
        patched.append((owner, attr, original))
        setattr(owner, attr, tracer.span_wrapper(name, original, after))

    def fine(owner: Any, attr: str, name: str):
        original = owner.__dict__[attr]
        patched.append((owner, attr, original))
        setattr(owner, attr, tracer.fine_wrapper(name, original))

    engine_init = Engine.__dict__["__init__"]

    def init_with_oracle(self: Any, *args: Any, **kwargs: Any) -> None:
        engine_init(self, *args, **kwargs)
        # The Python backend's Step 3 runs through the public
        # mm_oracle attribute; vec compiles its own matching in.
        if self.optimized != "vec":
            self.mm_oracle = tracer.span_wrapper(
                "py.mm",
                self.mm_oracle,
                _hooks(
                    _count("mm.calls"),
                    _count("mm.rounds", lambda a, r: r.rounds),
                    _count("mm.g0_edges", lambda a, r: a[0].num_edges),
                ),
            )

    patched.append((Engine, "__init__", engine_init))
    Engine.__init__ = tracer.span_wrapper("asm.init", init_with_oracle)

    span(preferences.PreferenceProfile, "__init__", "profile.build",
         _count("profile.builds"))
    span(vec_compile.VecProfile, "__init__", "vec.compile", _after_compile)
    span(Engine, "run", "asm.run")
    span(Engine, "run_flat", "asm.run")
    span(Engine, "run_outer_iteration", "asm.outer")
    span(Engine, "quantile_match", "asm.qm",
         _count("asm.quantile_match_calls"))
    span(Engine, "proposal_round", "asm.round", _after_round)
    State = vec_engine.VecState
    span(State, "activate", "vec.activate", _hooks(
        _count("vec.activate_calls"),
        _count("vec.activate_edges_scanned",
               lambda a, r: a[0].profile.num_edges),
    ))
    span(State, "step_propose", "vec.propose")
    span(State, "step_accept", "vec.accept")
    span(State, "step_maximal_matching", "vec.mm", _count(
        "vec.mm_iterations",
        lambda a, r: r[0].rounds // ROUNDS_PER_POINTER_ROUND,
    ))
    span(State, "step_reject", "vec.reject")
    span(stability, "count_blocking_pairs", "stability.count")
    span(vec_stability, "count_blocking_pairs_vec", "stability.count")

    for module, attr in (
        (asm_protocol, "run_congest_asm"),
        (asm_protocol, "run_congest_rand_asm"),
        (asm_protocol, "run_congest_almost_regular_asm"),
        (gs_protocol, "run_congest_gale_shapley"),
    ):
        span(module, attr, "congest.protocol")
    span(simulator.Simulator, "run", "congest.run")
    span(simulator.Simulator, "step", "congest.step", _after_step)
    span(transport.Transport, "deliver_round", "transport.deliver")
    for model in (latency.FixedLatency, latency.UniformLatency,
                  latency.PerLinkLatency, latency.GeometricLatency):
        fine(model, "draw", "latency.draw")
    fine(injector.FaultInjector, "filter_send", "faults.filter")
    fine(injector.FaultInjector, "due", "faults.due")
    for attr, value in list(vars(trace_span.CausalTracer).items()):
        if attr.startswith("on_") or attr in (
            "end_round", "open_span", "close_span"
        ):
            if callable(value):
                fine(trace_span.CausalTracer, attr, "tracer.hooks")

    span(dyn_engine.DynamicMatchingEngine, "apply", "dynamic.apply",
         _after_apply)
    Index = dyn_index.DynamicBlockingIndex
    span(Index, "__init__", "index.build")
    span(blocking_index.BlockingPairIndex, "__init__", "index.build")
    for attr in ("add_edge", "remove_edge", "swap_man_prefs",
                 "swap_woman_prefs", "add_man", "add_woman",
                 "depart_man", "depart_woman"):
        span(Index, attr, "index.structural", _count("index.ops"))
    span(blocking_index.BlockingPairIndex, "satisfy", "index.satisfy",
         _count("index.satisfy_calls"))
    span(blocking_index.BlockingPairIndex, "update_from_partner_lists",
         "index.update")
    span(dyn_market.DynamicMarket, "freeze", "dynamic.freeze")
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
