"""Worker-side execution: runner resolution and the chunk driver.

These functions run inside worker processes, so everything here must
be importable at top level (``ProcessPoolExecutor`` pickles only the
*reference* to :func:`execute_chunk` plus the spec chunk).  A spec's
``runner`` string is resolved with :func:`resolve_runner` at execution
time — lazily, by module path — so the parallel layer never imports
the sweep consumers (``repro.analysis.experiments``,
``repro.dynamic.harness``) and stays cycle-free.

Results travel back to the parent as one :class:`dict` per chunk:
trial results in spec order, the worker's
:class:`~repro.obs.metrics.MetricsRegistry` raw state, wall time, and
— if a trial raised — a structured failure record the parent turns
into a :class:`~repro.parallel.pool.TrialExecutionError`.
"""

from __future__ import annotations

import importlib
import os
import time
import traceback
from typing import Any, Callable, Dict, List, Sequence

from repro.errors import InvalidParameterError
from repro.obs.metrics import MetricsRegistry
from repro.parallel.spec import TrialSpec

__all__ = [
    "resolve_runner",
    "execute_trial",
    "execute_chunk",
    "selftest_trial",
]


def resolve_runner(reference: str) -> Callable[[TrialSpec], Any]:
    """The callable a ``"module:callable"`` runner reference names.

    Only references into the ``repro`` package are accepted: specs may
    travel through files and across machines, and an arbitrary-import
    runner string would otherwise be an execution primitive.
    """
    module_name, sep, attr_path = reference.partition(":")
    if not sep or not attr_path:
        raise InvalidParameterError(
            f"runner reference {reference!r} is not 'module:callable'"
        )
    if module_name != "repro" and not module_name.startswith("repro."):
        raise InvalidParameterError(
            f"runner reference {reference!r} must live in the repro package"
        )
    module = importlib.import_module(module_name)
    target: Any = module
    for part in attr_path.split("."):
        target = getattr(target, part)
    if not callable(target):
        raise InvalidParameterError(
            f"runner reference {reference!r} resolves to a non-callable"
        )
    return target


def execute_trial(spec: TrialSpec) -> Any:
    """Resolve and run one spec; returns the runner's result."""
    return resolve_runner(spec.runner)(spec)


def selftest_trial(spec: TrialSpec) -> Dict[str, Any]:
    """The pool's own self-test runner (referenced by the test suite).

    Echoes the spec's deterministic coordinates — bit-identical no
    matter which process runs it — and injects the two failure modes
    the pool must surface: ``fail=True`` raises an exception
    (→ structured failure record), ``hard_exit=True`` kills the
    executing process outright (→ ``BrokenProcessPool``; only
    meaningful under ``workers > 1``, in-process it would kill the
    caller).
    """
    if spec.param("hard_exit"):
        os._exit(13)
    if spec.param("fail"):
        raise ValueError(f"injected failure for {spec.describe()}")
    from repro.parallel.spec import derive_seed

    return {
        "n": spec.n,
        "seed": spec.seed,
        "derived": derive_seed(spec.seed or 0, *spec.identity()),
    }


def execute_chunk(
    start_index: int, specs: Sequence[TrialSpec]
) -> Dict[str, Any]:
    """Run one contiguous chunk of specs (in a worker or in-process).

    Returns a pickle-safe record::

        {
          "start": first spec's global index,
          "results": [result, ...]         # spec order, up to a failure
          "failure": None | {"index", "spec", "error", "traceback"},
          "metrics": MetricsRegistry.raw_state(),
          "wall_seconds": chunk wall time,
          "pid": executing process id (provenance only),
        }

    The first failing trial stops the chunk: sweep semantics are
    fail-fast, mirroring what the serial loop would have done.
    """
    metrics = MetricsRegistry()
    results: List[Any] = []
    failure: Dict[str, Any] = {}
    t0 = time.perf_counter()
    for offset, spec in enumerate(specs):
        try:
            with metrics.timer("parallel.trial_seconds"):
                results.append(execute_trial(spec))
            metrics.inc("parallel.trials_completed")
        except Exception as exc:
            failure = {
                "index": start_index + offset,
                "spec": spec.describe(),
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
            metrics.inc("parallel.trials_failed")
            break
    return {
        "start": start_index,
        "results": results,
        "failure": failure or None,
        "metrics": metrics.raw_state(),
        "wall_seconds": time.perf_counter() - t0,
        "pid": os.getpid(),
    }
