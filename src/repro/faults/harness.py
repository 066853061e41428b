"""Profile-level fault-plan builders and the fault trial runner.

Bridges the fault layer to the rest of the repo:

* :func:`fault_plan_for_profile` turns scalar knobs (rates, a crash
  count) into a concrete :class:`~repro.faults.plan.FaultPlan` for one
  preference profile, picking crash victims deterministically with
  :func:`~repro.faults.plan.sample_nodes` — this is what the CLI's
  ``--drop-rate/--crash/--fault-seed`` flags and the ``faults``
  experiment both call, so a given (profile, knobs) pair always maps
  to the same plan.
* :func:`fault_plan_for_spec` reads those knobs from a trial spec's
  params (:data:`FAULT_KNOBS`), for this runner and the trace runner.
* :func:`run_fault_trial` is a :class:`~repro.parallel.spec.TrialSpec`
  runner (reference :data:`FAULT_TRIAL_RUNNER`), so faulty runs shard
  through :class:`~repro.parallel.pool.TrialPool` with bit-identical
  results — including the fault trace — for any worker count.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.preferences import PreferenceProfile
from repro.faults.plan import FaultPlan, NodeCrash, sample_nodes
from repro.graphs import man_node, woman_node
from repro.parallel.spec import TrialSpec

__all__ = [
    "FAULT_TRIAL_RUNNER",
    "FAULT_KNOBS",
    "fault_plan_for_profile",
    "fault_plan_for_spec",
    "run_fault_trial",
]

#: Runner reference for fault trial specs (see docs/parallel.md).
FAULT_TRIAL_RUNNER = "repro.faults.harness:run_fault_trial"

#: The trial-spec params (and CLI knobs) that name a fault plan, each
#: a keyword of :func:`fault_plan_for_profile`.
FAULT_KNOBS = (
    "drop_rate",
    "duplicate_rate",
    "delay_rate",
    "max_delay",
    "crash_nodes",
    "crash_round",
    "restart_after",
    "fault_seed",
)


def fault_plan_for_profile(
    prefs: PreferenceProfile,
    *,
    fault_seed: int = 0,
    drop_rate: float = 0.0,
    duplicate_rate: float = 0.0,
    delay_rate: float = 0.0,
    max_delay: int = 2,
    crash_nodes: int = 0,
    crash_round: int = 3,
    restart_after: Optional[int] = None,
    partitions: Tuple[Any, ...] = (),
) -> FaultPlan:
    """Build a plan for ``prefs`` from scalar knobs.

    ``crash_nodes`` victims are sampled deterministically from all
    player nodes by ``fault_seed``; each crashes at ``crash_round``,
    permanently unless ``restart_after`` (rounds until restart) is
    given.
    """
    nodes = [man_node(m) for m in range(prefs.n_men)]
    nodes += [woman_node(w) for w in range(prefs.n_women)]
    crashes = tuple(
        NodeCrash(
            node=v,
            round=crash_round,
            restart_round=(
                None if restart_after is None else crash_round + restart_after
            ),
        )
        for v in sample_nodes(nodes, crash_nodes, fault_seed)
    )
    return FaultPlan(
        seed=fault_seed,
        drop_rate=drop_rate,
        duplicate_rate=duplicate_rate,
        delay_rate=delay_rate,
        max_delay=max_delay,
        crashes=crashes,
        partitions=tuple(partitions),
    )


def fault_plan_for_spec(
    prefs: PreferenceProfile, spec: TrialSpec
) -> FaultPlan:
    """:func:`fault_plan_for_profile` over ``spec``'s :data:`FAULT_KNOBS`;
    a knob the spec leaves out (or sets to ``None``) keeps its default."""
    knobs = {name: spec.param(name) for name in FAULT_KNOBS}
    return fault_plan_for_profile(
        prefs, **{k: v for k, v in knobs.items() if v is not None}
    )


def run_fault_trial(spec: TrialSpec) -> Dict[str, Any]:
    """Run message-level ASM on one instance under one fault profile.

    Spec params: ``drop_rate`` / ``duplicate_rate`` / ``delay_rate`` /
    ``max_delay`` / ``crash_nodes`` / ``crash_round`` /
    ``restart_after`` / ``fault_seed`` (plan knobs), schedule overrides
    ``k`` / ``inner`` / ``outer`` (mm budget is ``2n``), and
    ``use_plan=False`` for the plan-free baseline the zero-rate
    identity check compares against.  Returns a JSON-safe dict whose
    ``trace`` field is the run's deterministic fault trace — the
    object the worker-identity tests diff across worker counts.
    """
    from repro.analysis.stability import instability
    from repro.congest.protocols.asm_protocol import run_congest_asm
    from repro.workloads.generators import complete_uniform

    n, eps, seed = spec.n, spec.eps, spec.seed
    prefs = complete_uniform(n, seed)
    overrides = dict(
        k=spec.param("k", 4),
        inner_iterations=spec.param("inner", 4),
        outer_iterations=spec.param("outer", 3),
        mm_iterations=2 * n,
    )
    plan: Optional[FaultPlan] = None
    if spec.param("use_plan", True):
        plan = fault_plan_for_spec(prefs, spec)
    result = run_congest_asm(prefs, eps, faults=plan, **overrides)
    stats = result.fault_stats
    record: Dict[str, Any] = {
        "matching": sorted(result.matching.pairs()),
        "instability": instability(prefs, result.matching),
        "outcome": result.stats.outcome,
        "rounds": result.stats.rounds,
        "messages": result.stats.messages,
        "unresolved_men": list(result.unresolved_men),
        "unresolved_women": list(result.unresolved_women),
        "crashed": list(result.crashed_nodes),
        "retries": result.retries,
        "trace": [dict(r) for r in result.fault_trace],
        "faults_injected": 0 if stats is None else stats.faults_injected,
        "dropped": 0 if stats is None else stats.messages_dropped,
        "duplicated": 0 if stats is None else stats.messages_duplicated,
        "delayed": 0 if stats is None else stats.messages_delayed,
    }
    return record
