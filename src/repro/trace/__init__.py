"""Causal trace & SLO layer (see ``docs/observability.md``).

Two deterministic instruments over one run:

* :mod:`repro.trace.span` — causal message tracing: every CONGEST
  message gets a SHA-256 trace id chained from its causal parent, so
  any blocking pair or unresolved node is explainable by walking its
  chain.
* :mod:`repro.trace.slo` — ε-stability SLO monitor over ε(round)
  trajectories.

Plus :mod:`repro.trace.analysis` (chain reconstruction, critical
paths, fault impact) and :mod:`repro.trace.harness` (sharded traced
trials with worker-count-independent merges).  Timings and op counts
live in the metrics registry (:class:`repro.obs.metrics.MetricsRegistry`
— its timer spans export as Chrome trace-event JSON).
"""

from repro.trace.analysis import CausalTrace, explain_blocking_pairs
from repro.trace.harness import (
    TRACE_TRIAL_RUNNER,
    merge_trace_trials,
    run_trace_trial,
)
from repro.trace.slo import SLOMonitor, StabilitySLO
from repro.trace.span import ROOT_PARENT, CausalTracer, derive_trace_id

__all__ = [
    "CausalTrace",
    "CausalTracer",
    "ROOT_PARENT",
    "SLOMonitor",
    "StabilitySLO",
    "TRACE_TRIAL_RUNNER",
    "derive_trace_id",
    "explain_blocking_pairs",
    "merge_trace_trials",
    "run_trace_trial",
]
