"""Trace trial runner: sharded traced runs with bit-identical merges.

:func:`run_trace_trial` is a :class:`~repro.parallel.spec.TrialSpec`
runner (reference :data:`TRACE_TRIAL_RUNNER`): it runs message-level
ASM (or Gale–Shapley) with a :class:`~repro.trace.span.CausalTracer`
and an enabled :class:`~repro.obs.metrics.MetricsRegistry` attached and
returns a JSON-safe dict whose ``trace`` field is the run's causal
trace.
Because trace ids are pure functions of causal history (no wall time,
no worker identity), the trace is byte-identical for any ``--workers``
count, and :func:`merge_trace_trials` merges shards in trial-spec
order — the same discipline as the fault layer's worker-identity
guarantee (``docs/parallel.md``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.parallel.spec import TrialSpec
from repro.trace.span import CausalTracer

__all__ = [
    "TRACE_TRIAL_RUNNER",
    "run_trace_trial",
    "merge_trace_trials",
]

#: Runner reference for trace trial specs (see docs/parallel.md).
TRACE_TRIAL_RUNNER = "repro.trace.harness:run_trace_trial"


def run_trace_trial(spec: TrialSpec) -> Dict[str, Any]:
    """Run one traced message-level trial.

    The spec's ``workload`` field names the generator (default
    ``complete``).  Spec params: ``protocol`` (``asm`` or ``gs``),
    schedule overrides ``k`` / ``inner`` / ``outer`` /
    ``mm_iterations``, and the fault knobs
    :data:`repro.faults.harness.FAULT_KNOBS` (a plan that can inject
    nothing runs fault-free).  The returned dict is JSON-safe;
    ``trace`` holds the causal-trace records,
    ``profile_summary`` the registry's wall-free
    :meth:`~repro.obs.metrics.MetricsRegistry.summary` — the two
    objects the worker-identity tests diff byte-for-byte — and
    ``metrics`` its raw state, timer spans and event records included.
    """
    from repro.analysis.stability import instability
    from repro.congest.driver import assemble, player_partner
    from repro.congest.protocols.asm_protocol import run_congest_asm
    from repro.congest.protocols.gs_protocol import (
        run_congest_gale_shapley,
    )
    from repro.faults.harness import fault_plan_for_spec
    from repro.obs import Telemetry
    from repro.workloads.generators import default_instance

    prefs = default_instance(spec.workload or "complete", spec.n, spec.seed)
    tracer = CausalTracer()
    telemetry = Telemetry.create(tracer=tracer)
    plan = fault_plan_for_spec(prefs, spec)
    if plan.is_null:
        plan = None
    protocol = spec.param("protocol", "asm")
    if protocol == "gs":
        matching, sim = run_congest_gale_shapley(
            prefs, telemetry=telemetry, faults=plan
        )
        stats = sim.stats
        unresolved = assemble(sim, player_partner).unresolved_players()
    elif protocol == "asm":
        result = run_congest_asm(
            prefs,
            spec.eps,
            k=spec.param("k"),
            inner_iterations=spec.param("inner"),
            outer_iterations=spec.param("outer"),
            mm_iterations=spec.param(
                "mm_iterations", prefs.n_men + prefs.n_women
            ),
            telemetry=telemetry,
            faults=plan,
        )
        matching, stats = result.matching, result.stats
        unresolved = (result.unresolved_men, result.unresolved_women)
    else:
        raise ValueError(f"unknown trace protocol {protocol!r}")
    record: Dict[str, Any] = {
        "matching": sorted(matching.pairs()),
        "outcome": stats.outcome,
        "rounds": stats.rounds,
        "messages": stats.messages,
        "unresolved_men": list(unresolved[0]),
        "unresolved_women": list(unresolved[1]),
    }
    record["instability"] = instability(prefs, matching)
    record["trace"] = tracer.to_records()
    record["profile_summary"] = telemetry.metrics.summary()
    record["metrics"] = telemetry.metrics.raw_state()
    return record


def merge_trace_trials(
    results: Sequence[Optional[Dict[str, Any]]],
) -> Dict[str, Any]:
    """Merge sharded trace-trial results in spec order.

    ``results`` must be in trial-spec order (what
    :meth:`~repro.parallel.pool.TrialPool.run` returns), which makes
    the merged document independent of the worker count.  Each trace
    record is tagged with its ``trial`` index; the trials' registries
    merge into one (``metrics``), so counters and call counts sum,
    event records follow in trial order, and each trial's timer spans
    keep a Chrome ``tid`` lane of their own.
    """
    merged_tracer = CausalTracer()
    merged_metrics = MetricsRegistry()
    trials: List[Dict[str, Any]] = []
    for index, result in enumerate(results):
        if result is None:
            continue
        merged_tracer.merge(result.get("trace", ()), trial=index)
        merged_metrics.merge(
            MetricsRegistry.from_raw_state(result.get("metrics", {}))
        )
        trials.append(
            {
                "trial": index,
                "matching": result.get("matching"),
                "instability": result.get("instability"),
                "outcome": result.get("outcome"),
                "rounds": result.get("rounds"),
                "messages": result.get("messages"),
                "unresolved_men": result.get("unresolved_men"),
                "unresolved_women": result.get("unresolved_women"),
            }
        )
    return {
        "trials": trials,
        "trace": merged_tracer.to_records(),
        "profile_summary": merged_metrics.summary(),
        "metrics": merged_metrics,
    }
