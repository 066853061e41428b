"""The end-to-end workloads and the checks on their outputs.

Each :class:`Workload` is two functions.  ``prepare(seed, smoke)``
generates the inputs — the benchmark's own work, reported as
``gen_s`` but never timed as a metric — and ``measure(ctx, inputs)``
times the program's set-up and operations through the
:class:`harness.Context` and checks every output.  All workloads are
closed loops with one caller: the next operation starts when the
previous one returns.

``--seed S`` offsets every instance, churn, fault and link seed by
``S``; ``S = 0`` reproduces the instances of ``repro-asm bench``
(bounded degree-8 markets with seed 42, churn seed 23).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

from harness import Context

#: ε of every ASM solve; Theorem 3 bounds blocking pairs by ε·|E|.
EPS = 0.5

#: Up-front compile repetitions of ``asm_vec`` (about 3.3 s each).  The
#: other workloads set up at the start of every pass instead.
VEC_SETUP_REPS = 3

#: Players per side of the ``asm_vec`` market: its compiled arrays
#: (328 MiB) exceed the 300 MiB L3 of the baseline machine.
VEC_PLAYERS = 500_000


class Workload(NamedTuple):
    prepare: Callable[[int, bool], Any]
    measure: Callable[[Context, Any], None]


def _lists(prefs: Any) -> Tuple[List[List[int]], List[List[int]]]:
    """A profile's raw preference lists (the program's input format)."""
    return (
        [list(prefs.man_list(m)) for m in range(prefs.n_men)],
        [list(prefs.woman_list(w)) for w in range(prefs.n_women)],
    )


def _valid(ctx: Context, op: int, what: str, prefs: Any, matching: Any) -> None:
    """Every pair is an edge (``Matching`` itself rejects duplicates)."""
    ctx.checked(op, what + ": invalid matching",
                lambda: matching.validate_against(prefs))


def _blocking(ctx: Context, op: int, what: str, prefs: Any,
              matching: Any) -> Any:
    from repro.analysis import stability

    return ctx.checked(
        op, what + ": counting blocking pairs",
        lambda: stability.count_blocking_pairs(prefs, matching),
    )


# ----------------------------------------------------------------------
# asm_vec: the numpy struct-of-arrays solve
# ----------------------------------------------------------------------


def prepare_vec(seed: int, smoke: bool) -> Any:
    """One bounded(:data:`VEC_PLAYERS`, 8) market."""
    from repro.workloads import generators

    n = 2_000 if smoke else VEC_PLAYERS
    return generators.bounded_degree(n, 8, 42 + seed)


def measure_vec(ctx: Context, prefs: Any) -> None:
    from repro.core.asm import asm, params_for_eps
    from repro.vec import compile as vec_compile
    from repro.vec import stability as vec_stability

    k, _ = params_for_eps(EPS)
    for _ in range(VEC_SETUP_REPS):
        prefs.soa_cache().clear()
        compiled = ctx.setup(lambda: vec_compile.compile_profile(prefs, k))
    first = None
    while ctx.more():
        op, res = ctx.call("solve", lambda: asm(prefs, EPS, optimized="vec"))
        if res is None:
            continue
        if first is not None:
            ctx.check(op, res == first, "solve: differs from its first solve")
            continue
        first = res
        _valid(ctx, op, "solve", prefs, res.matching)
        blocking = ctx.checked(
            op, "solve: counting blocking pairs",
            lambda: vec_stability.count_blocking_pairs_vec(
                prefs, res.matching.pairs(), compiled
            ),
        )
        if blocking is not None:
            ctx.eps(op, blocking, prefs.num_edges, EPS, "solve")
        ctx.counters.update({
            "solve.matching": len(res.matching),
            "solve.blocking_pairs": blocking,
            "solve.messages": res.messages.total,
            "solve.proposal_rounds": res.proposal_rounds_executed,
        })


# ----------------------------------------------------------------------
# asm_python_mix: the stdlib-only backend, both paper variants
# ----------------------------------------------------------------------


def prepare_python(seed: int, smoke: bool) -> Dict[str, Any]:
    from repro.workloads import generators as g

    s = seed
    if smoke:
        profiles = {
            "bounded": g.bounded_degree(60, 6, 42 + s),
            "complete": g.complete_uniform(16, 7 + s),
            "master_list": g.master_list(16, 0.1, 5 + s),
            "gnp": g.gnp_incomplete(40, 0.2, 11 + s),
            "almost_regular": g.almost_regular(40, 4, 8, 13 + s),
        }
    else:
        profiles = {
            "bounded": g.bounded_degree(1_500, 8, 42 + s),
            "complete": g.complete_uniform(200, 7 + s),
            "master_list": g.master_list(200, 0.1, 5 + s),
            "gnp": g.gnp_incomplete(1_000, 0.015, 11 + s),
            "almost_regular": g.almost_regular(1_000, 6, 10, 13 + s),
        }
    return {name: _lists(prefs) for name, prefs in profiles.items()}


#: (case, profile, solver).  The solver names index ``_python_solvers``.
PYTHON_CASES = (
    ("asm_bounded", "bounded", "asm"),
    ("asm_complete", "complete", "asm"),
    ("asm_master_list", "master_list", "asm"),
    ("asm_gnp", "gnp", "asm"),
    ("rand_asm_almost_regular", "almost_regular", "rand_asm"),
    ("almost_regular_asm", "almost_regular", "almost_regular_asm"),
)


def _python_solvers() -> Dict[str, Callable[[Any], Any]]:
    from repro.core.almost_regular import almost_regular_asm
    from repro.core.asm import asm
    from repro.core.rand_asm import rand_asm

    return {
        "asm": lambda p: asm(p, EPS),
        "rand_asm": lambda p: rand_asm(p, EPS, seed=1),
        "almost_regular_asm": lambda p: almost_regular_asm(p, EPS, seed=1),
    }


def measure_python(ctx: Context, lists: Dict[str, Any]) -> None:
    from repro.core.asm import asm
    from repro.core.preferences import PreferenceProfile

    solvers = _python_solvers()

    def build() -> Dict[str, Any]:
        return {name: PreferenceProfile(m, w) for name, (m, w) in lists.items()}

    firsts: Dict[str, Tuple[int, Any]] = {}
    while ctx.more():
        profiles = ctx.setup(build)
        for case, profile, solver in PYTHON_CASES:
            prefs = profiles[profile]
            solve = solvers[solver]
            op, res = ctx.call(case, lambda: solve(prefs))
            if res is None:
                continue
            if case in firsts:
                ctx.check(op, res == firsts[case][1],
                          f"{case}: differs from its first run")
                continue
            firsts[case] = (op, res)
            _valid(ctx, op, case, prefs, res.matching)
            blocking = _blocking(ctx, op, case, prefs, res.matching)
            if blocking is not None:
                ctx.eps(op, blocking, prefs.num_edges, EPS, case)
            ctx.counters[case + ".matching"] = len(res.matching)
            ctx.counters[case + ".blocking_pairs"] = blocking
            ctx.counters[case + ".messages"] = res.messages.total
    # The numpy engine must reproduce the Python result bit for bit.
    op, first = firsts.get("asm_bounded", (None, None))
    if first is not None:
        vec = ctx.checked(
            op, "asm_bounded: vec solve",
            lambda: asm(profiles["bounded"], EPS, optimized="vec"),
        )
        ctx.check(op, vec == first, "asm_bounded: vec result != Python result")


# ----------------------------------------------------------------------
# congest_mix: the message-level simulator
# ----------------------------------------------------------------------

#: Short fixed ASM schedule (full schedules are for the logical engine).
SCHED = dict(k=4, inner_iterations=6, outer_iterations=2, mm_iterations=8)
#: RandASM's k comes from ε (16 here), so its loops are shortened more.
RAND_SCHED = dict(inner_iterations=2, outer_iterations=2, mm_iterations=4)
#: AlmostRegularASM with the deterministic pointer MM, so it has an
#: exact logical-engine reference.
AREG_SCHED = dict(quantile_match_iterations=4, mm_iterations=8,
                  mm_kind="pointer")


def prepare_congest(seed: int, smoke: bool) -> Dict[str, Any]:
    from repro.workloads import generators as g

    if smoke:
        bounded, complete = g.bounded_degree(24, 4, 3 + seed), 10
    else:
        bounded, complete = g.bounded_degree(80, 8, 3 + seed), 50
    return {
        "bounded": _lists(bounded),
        "complete": _lists(g.complete_uniform(complete, 7 + seed)),
        "seed": seed,
    }


def _profiles(ctx: Context, inputs: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core.preferences import PreferenceProfile

    return ctx.setup(lambda: {
        name: PreferenceProfile(*inputs[name])
        for name in ("bounded", "complete")
    })


def _congest_reference(case: str, prefs: Any, res: Any) -> Any:
    """The logical engine's matching under the same schedule and MM
    budget (GS: the centralized man-optimal stable matching)."""
    from repro.baselines.gale_shapley import gale_shapley
    from repro.core.asm import ASMEngine
    from repro.mm.deterministic import deterministic_maximal_matching

    if case.startswith("gs_"):
        return gale_shapley(prefs).matching
    budget = (SCHED if case.startswith("asm_") else AREG_SCHED)["mm_iterations"]

    def oracle(graph: Any) -> Any:
        return deterministic_maximal_matching(graph, max_iterations=budget)

    if case.startswith("asm_"):
        return ASMEngine(
            prefs, EPS, k=SCHED["k"],
            inner_iterations=SCHED["inner_iterations"],
            outer_iterations=SCHED["outer_iterations"],
            mm_oracle=oracle,
        ).run().matching
    return ASMEngine(
        prefs, EPS, k=res.schedule.k, mm_oracle=oracle,
        remove_unmatched_violators=True,
    ).run_flat(AREG_SCHED["quantile_match_iterations"]).matching


def _sync_pass(ctx: Context, profiles: Dict[str, Any],
               firsts: Dict[str, Any]) -> None:
    """Lockstep runs of the four protocols."""
    from repro.congest.protocols import asm_protocol, gs_protocol

    cases = (
        ("asm_bounded", "bounded", lambda p: asm_protocol.run_congest_asm(
            p, EPS, **SCHED)),
        ("rand_asm_bounded", "bounded",
         lambda p: asm_protocol.run_congest_rand_asm(
             p, EPS, seed=1, **RAND_SCHED)),
        ("almost_regular_bounded", "bounded",
         lambda p: asm_protocol.run_congest_almost_regular_asm(
             p, EPS, seed=1, **AREG_SCHED)),
        ("gs_complete", "complete",
         lambda p: gs_protocol.run_congest_gale_shapley(p)),
        ("asm_complete", "complete", lambda p: asm_protocol.run_congest_asm(
            p, EPS, **SCHED)),
    )
    for kind, profile, run in cases:
        case = "sync." + kind
        prefs = profiles[profile]
        op, res = ctx.call(case, functools.partial(run, prefs))
        if res is None:
            continue
        matching, stats = (
            (res[0], res[1].stats) if kind.startswith("gs_")
            else (res.matching, res.stats)
        )
        ctx.count("transport.messages", stats.messages)
        ctx.count("transport.bits", stats.total_bits)
        if case in firsts:
            ctx.check(op, (matching, stats) == firsts[case],
                      f"{case}: differs from its first run")
            continue
        firsts[case] = (matching, stats)
        _valid(ctx, op, case, prefs, matching)
        blocking = _blocking(ctx, op, case, prefs, matching)
        if blocking is not None:
            ctx.eps(op, blocking, prefs.num_edges, EPS, case)
        if not kind.startswith("rand_"):
            ref = ctx.checked(op, case + ": reference run",
                              lambda: _congest_reference(kind, prefs, res))
            ctx.check(op, matching == ref,
                      f"{case}: differs from the logical engine")
        ctx.counters[case + ".messages"] = stats.messages
        ctx.counters[case + ".rounds"] = stats.rounds
        ctx.counters[case + ".matching"] = len(matching)


def _faulty_run(run: Callable, prefs: Any, seed: int) -> Tuple[Any, ...]:
    """One protocol run over latency + drops + causal tracing.

    Everything a user builds for such a run is built inside the timed
    call: a fresh transport, fault plan and tracer per run.
    """
    from repro.congest.transport import AsyncEventTransport
    from repro.faults.plan import FaultPlan
    from repro.obs.telemetry import Telemetry
    from repro.trace.span import CausalTracer
    from repro.workloads.latency import GeometricLatency

    transport = AsyncEventTransport(GeometricLatency(0.1, 2), link_seed=5 + seed)
    telemetry = Telemetry.tracing(CausalTracer())
    res = run(prefs, transport=transport, telemetry=telemetry,
              faults=FaultPlan(seed=7 + seed, drop_rate=0.01))
    return res, transport, telemetry.tracer


def _faulty_pass(ctx: Context, profiles: Dict[str, Any], seed: int,
                 firsts: Dict[str, Any]) -> None:
    """ASM and GS runs over latency, drops and causal tracing."""
    from repro.congest.protocols import asm_protocol, gs_protocol

    cases = (
        ("asm_complete", "complete",
         lambda p, **kw: asm_protocol.run_congest_asm(p, EPS, **SCHED, **kw)),
        ("gs_complete", "complete",
         lambda p, **kw: gs_protocol.run_congest_gale_shapley(p, **kw)),
        ("asm_bounded", "bounded",
         lambda p, **kw: asm_protocol.run_congest_asm(p, EPS, **SCHED, **kw)),
    )
    for kind, profile, run in cases:
        case = "faulty." + kind
        prefs = profiles[profile]
        op, out = ctx.call(
            case, functools.partial(_faulty_run, run, prefs, seed)
        )
        if out is None:
            continue
        res, transport, tracer = out
        if kind.startswith("gs_"):
            matching, sim = res
            stats, fault_stats = sim.stats, sim.faults.stats
        else:
            matching, stats, fault_stats = (
                res.matching, res.stats, res.fault_stats
            )
        ctx.count("transport.messages", stats.messages)
        ctx.count("transport.bits", stats.total_bits)
        ctx.count("transport.deferred", transport.deferred)
        ctx.count("transport.delivered_late", transport.delivered_late)
        ctx.count("transport.dropped_late", transport.dropped_late)
        ctx.count("tracer.records", len(tracer.records))
        ctx.count("faults.dropped", fault_stats.messages_dropped)
        ctx.check(op, stats.outcome != "timeout",
                  f"{case}: run ended in timeout")
        summary = (matching, stats, fault_stats, len(tracer.records))
        if case in firsts:
            ctx.check(op, summary == firsts[case],
                      f"{case}: differs from its first run")
            continue
        firsts[case] = summary
        _valid(ctx, op, case, prefs, matching)
        blocking = _blocking(ctx, op, case, prefs, matching)
        if blocking is not None:
            ctx.eps(op, blocking, prefs.num_edges, EPS, case)
        ctx.counters[case + ".messages"] = stats.messages
        ctx.counters[case + ".dropped"] = fault_stats.messages_dropped
        ctx.counters[case + ".deferred"] = transport.deferred
        ctx.counters[case + ".matching"] = len(matching)


def measure_congest(ctx: Context, inputs: Dict[str, Any]) -> None:
    """Each pass: the lockstep arm, then the faulty arm."""
    firsts: Dict[str, Any] = {}
    while ctx.more():
        profiles = _profiles(ctx, inputs)
        _sync_pass(ctx, profiles, firsts)
        _faulty_pass(ctx, profiles, inputs["seed"], firsts)


# ----------------------------------------------------------------------
# dynamic_churn: the long-lived service
# ----------------------------------------------------------------------

#: The SLO that makes a delta fall back to a full solve now and then.
SLO_EPS = 0.004
#: Deltas per stream.  At n = 10⁴ the first fallback comes after
#: 675–1204 deltas and the second after 1455 or more (seeds 0–51), so
#: a stream this long falls back exactly once whatever the seed, and
#: every run's pass does the same kinds of work.
CHURN_STEPS = 1_300


def prepare_churn(seed: int, smoke: bool) -> Tuple[Any, List[Any]]:
    from repro.workloads import churn, generators

    n, steps = (200, 300) if smoke else (10_000, CHURN_STEPS)
    prefs = generators.bounded_degree(n, 8, 23 + seed)
    return prefs, churn.churn_stream(prefs, churn.ChurnConfig(steps=steps),
                                     23 + seed)


def measure_churn(ctx: Context, inputs: Tuple[Any, List[Any]]) -> None:
    from repro.dynamic.engine import DynamicMatchingEngine
    from repro.trace.slo import StabilitySLO

    prefs, deltas = inputs
    slo = StabilitySLO(SLO_EPS, 0)
    first = None
    while ctx.more():
        engine = ctx.setup(lambda: DynamicMatchingEngine(
            prefs, EPS, slo=slo, solver_optimized="vec"
        ))
        for delta in deltas:
            op, _ = ctx.call("apply", functools.partial(engine.apply, delta))
        worst = engine.worst_eps()
        ctx.eps_values.append(worst)
        ctx.check(op, worst <= SLO_EPS + 1e-12,
                  f"churn: ε reached {worst:.5f} > SLO {SLO_EPS}")
        matching = engine.current_matching()
        summary = (engine.fallbacks, engine.marriages, matching,
                   tuple(engine.trajectory))
        if first is not None:
            ctx.check(op, summary == first, "churn: differs from first pass")
            continue
        first = summary
        ctx.checked(op, "churn: index.verify", engine.index.verify)
        frozen = engine.market.freeze()
        blocking = _blocking(ctx, op, "churn", frozen, matching)
        ctx.check(op, blocking == len(engine.index),
                  f"churn: index holds {len(engine.index)} blocking pairs, "
                  f"a full count finds {blocking}")
        ctx.counters.update(
            fallbacks=engine.fallbacks,
            marriages=engine.marriages,
            blocking_pairs=len(engine.index),
            matching=len(matching),
        )


#: Why each workload exists: README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    "asm_vec": Workload(prepare_vec, measure_vec),
    "asm_python_mix": Workload(prepare_python, measure_python),
    "congest_mix": Workload(prepare_congest, measure_congest),
    "dynamic_churn": Workload(prepare_churn, measure_churn),
}
