"""Dynamic-engine trial runner: sharded churn trials, bit-identical merge.

:func:`run_dynamic_trial` is a :class:`~repro.parallel.spec.TrialSpec`
runner (reference :data:`DYNAMIC_TRIAL_RUNNER`): it builds a seeded
instance, generates a seeded churn stream, drives a
:class:`~repro.dynamic.engine.DynamicMatchingEngine` over it, and
returns a JSON-safe dict.  Nothing in the result depends on wall time
or worker identity — ε values are exact integer ratios and the final
matching is a pure function of the seeds — so a sharded
``repro-asm dynamic --workers N`` run is byte-identical to the serial
one, and :func:`merge_dynamic_trials` merges shards in trial-spec
order (the same discipline as ``repro.trace.harness``).  A trial run
with the ``metrics`` param also ships its telemetry registry (the
engine's ``dynamic_delta`` / ``dynamic_fallback`` / ``slo_*`` records,
counters and timer spans); the merge folds those into one registry,
also in spec order, kept apart from the wall-free trial document.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.parallel.spec import TrialSpec

__all__ = [
    "DYNAMIC_TRIAL_RUNNER",
    "run_dynamic_trial",
    "merge_dynamic_trials",
]

#: Runner reference for dynamic churn trial specs (see docs/parallel.md).
DYNAMIC_TRIAL_RUNNER = "repro.dynamic.harness:run_dynamic_trial"


def run_dynamic_trial(spec: TrialSpec) -> Dict[str, Any]:
    """Run one churn trial of the dynamic engine.

    The spec's ``workload`` names the generator (default ``complete``)
    and ``seed`` builds the starting instance.  Spec params:
    ``churn_seed`` (the stream's own seed), ``churn_steps``,
    ``slo_eps`` (fallback threshold; default the spec's ``eps``),
    ``repair_radius``, ``repair_passes``, and the
    :class:`~repro.workloads.churn.ChurnConfig` weight knobs
    (``arrival_weight`` / ``departure_weight`` / ``edge_weight`` /
    ``swap_weight`` / ``arrival_degree``).  With ``metrics`` true the
    engine runs with an enabled registry, returned under ``metrics``
    as its :meth:`~repro.obs.metrics.MetricsRegistry.raw_state`.
    """
    from repro.dynamic.engine import DynamicMatchingEngine
    from repro.obs import Telemetry
    from repro.trace.slo import StabilitySLO
    from repro.workloads.churn import ChurnConfig, churn_stream
    from repro.workloads.generators import default_instance

    prefs = default_instance(spec.workload or "complete", spec.n, spec.seed)
    config = ChurnConfig(
        steps=spec.param("churn_steps", 32),
        arrival_weight=spec.param("arrival_weight", 1.0),
        departure_weight=spec.param("departure_weight", 1.0),
        edge_weight=spec.param("edge_weight", 4.0),
        swap_weight=spec.param("swap_weight", 4.0),
        arrival_degree=spec.param("arrival_degree", 6),
    )
    deltas = churn_stream(prefs, config, spec.param("churn_seed", 0))
    slo_eps = spec.param("slo_eps")
    telemetry = Telemetry.create() if spec.param("metrics") else None
    engine = DynamicMatchingEngine(
        prefs,
        spec.eps,
        repair_radius=spec.param("repair_radius", 2),
        repair_passes=spec.param("repair_passes"),
        slo=StabilitySLO(
            target_eps=slo_eps if slo_eps is not None else spec.eps,
            deadline_rounds=0,
        ),
        telemetry=telemetry,
    )
    outcomes = engine.apply_stream(deltas)
    report = engine.report()
    record: Dict[str, Any] = {
        "trial": spec.param("trial", 0),
        "workload": spec.workload or "complete",
        "n": spec.n,
        "deltas": len(outcomes),
        "fallbacks": engine.fallbacks,
        "marriages": engine.marriages,
        "repair_passes": sum(o.repair_passes for o in outcomes),
        "final_eps": report["final_eps"],
        "worst_eps": report["worst_eps"],
        "blocking_pairs": report["blocking_pairs"],
        "num_edges": report["num_edges"],
        "matching_size": report["matching_size"],
        "eps_ok": all(
            eps <= engine.slo.target_eps + 1e-12
            for _, eps in engine.trajectory
        ),
        "final_matching": sorted(engine.current_matching().pairs()),
        "trajectory": report["trajectory"],
    }
    if telemetry is not None:
        record["metrics"] = telemetry.metrics.raw_state()
    return record


def merge_dynamic_trials(
    results: Sequence[Optional[Dict[str, Any]]],
) -> Dict[str, Any]:
    """Merge sharded churn-trial results in spec order.

    ``results`` must be in trial-spec order (what
    :meth:`~repro.parallel.pool.TrialPool.run` returns), making the
    merged document independent of the worker count.  Trials that
    carry a registry lose it from their row; the registries merge in
    spec order, and the document gains their merged raw state under
    ``metrics`` (absent when no trial carried one).
    """
    trials: List[Dict[str, Any]] = []
    metrics = MetricsRegistry()
    carried = False
    for index, result in enumerate(results):
        if result is None:
            continue
        row = dict(result)
        state = row.pop("metrics", None)
        if state is not None:
            metrics.merge(MetricsRegistry.from_raw_state(state))
            carried = True
        row["trial"] = index
        trials.append(row)
    merged: Dict[str, Any] = {
        "trials": trials,
        "deltas": sum(t["deltas"] for t in trials),
        "fallbacks": sum(t["fallbacks"] for t in trials),
        "marriages": sum(t["marriages"] for t in trials),
        "eps_ok": all(t["eps_ok"] for t in trials),
        "worst_eps": max((t["worst_eps"] for t in trials), default=0.0),
    }
    if carried:
        merged["metrics"] = metrics.raw_state()
    return merged
