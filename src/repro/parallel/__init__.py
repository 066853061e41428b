"""``repro.parallel`` — deterministic sharded execution for sweeps.

The paper's subject is distributed parallelism; this layer applies the
same idea to the repo's own embarrassingly parallel workloads — the
experiment trial grids of :mod:`repro.analysis.experiments`, the
``repro-asm report`` sweep, and the ``repro-asm dynamic`` churn trials —
without giving up the bit-exact determinism the rest of the system is
built on:

* :class:`~repro.parallel.spec.TrialSpec` — one self-contained,
  pickle-safe unit of sweep work;
* :func:`~repro.parallel.spec.derive_seed` — stable per-trial seed
  derivation from a root seed (never worker identity or submission
  order);
* :class:`~repro.parallel.pool.TrialPool` — the chunked
  ``ProcessPoolExecutor`` runner that merges results in spec order, so
  output is bit-identical to serial for any ``--workers N``;
* :class:`~repro.parallel.pool.TrialExecutionError` — what any worker
  failure surfaces as.

This package is the only place allowed to use ``multiprocessing`` /
``ProcessPoolExecutor`` directly (lint rule DET003).  Architecture,
the determinism contract, and wall-time comparability caveats are
documented in ``docs/parallel.md``.
"""

from repro.parallel.pool import (
    DEFAULT_MAX_CHUNKS,
    TrialExecutionError,
    TrialPool,
)
from repro.parallel.runners import execute_trial, resolve_runner
from repro.parallel.spec import TrialSpec, derive_seed

__all__ = [
    "DEFAULT_MAX_CHUNKS",
    "TrialExecutionError",
    "TrialPool",
    "TrialSpec",
    "derive_seed",
    "execute_trial",
    "resolve_runner",
]
