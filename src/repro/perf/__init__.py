"""Performance layer: incremental stability verification and benchmarks.

``repro.perf`` hosts the hot-path machinery that lets the system "run
as fast as the hardware allows" (ROADMAP north-star) without touching
the paper-fidelity semantics of :mod:`repro.core`:

* :class:`BlockingPairIndex` — the blocking-pair set of a matching,
  maintained incrementally from matching deltas in ``O(deg)`` per
  change instead of the ``O(|E|)`` full rescan of
  :func:`repro.analysis.stability.find_blocking_pairs` (which is kept
  as the cross-check oracle); :class:`repro.trace.slo.SLOMonitor`
  uses it to record the exact blocking-pair count after every
  ProposalRound at incremental cost.
* :mod:`repro.perf.bench` — the pinned counter matrix behind the
  ``repro-asm bench`` CLI subcommand and the CI regression gate.
"""

from repro.perf.bench import (
    BENCH_KIND,
    WORKLOAD_MATRIX,
    compare_reports,
    run_bench,
)
from repro.perf.blocking_index import BlockingPairIndex

__all__ = [
    "BENCH_KIND",
    "BlockingPairIndex",
    "WORKLOAD_MATRIX",
    "compare_reports",
    "run_bench",
]
