"""Measurement context shared by every end-to-end workload.

A workload's ``measure(ctx, inputs)`` times its set-up through
:meth:`Context.setup` and its operations through :meth:`Context.call`,
records check outcomes through :meth:`Context.check`, and loops while
:meth:`Context.more` says so.  :func:`end_to_end_metrics` then turns the
recorded samples into the metrics ``BENCHMARK.json`` names.

The harness touches the program only through the callables the
workload hands it.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

#: Every workload repeats its set-up and its pass over the operations
#: at least this often, so best-of timings and repeat-identity checks
#: exist even when the timed loop is short (``--smoke``).
MIN_REPS = 3

#: Failure messages kept in the result file (the count is exact).
MAX_FAILURE_MESSAGES = 20

#: Iterations of the speed probe's loop.
PROBE_LOOPS = 400_000

#: Speed-probe seconds of the reference machine: about the fastest probe
#: seen on the 2-vCPU Xeon VM the baseline was taken on.  Times are reported
#: as they would read on that machine at its fastest (see
#: :func:`end_to_end_metrics`).
REF_PROBE_S = 0.026


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux KiB units)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes there
        peak /= 1024
    return peak / 1024.0


def speed_probe() -> float:
    """Wall time of a fixed pure-Python kernel (about 30 ms).

    The kernel never changes and allocates nothing, so its time tracks
    how fast the machine runs the interpreter right now, and running it
    in the workload's process leaves the peak RSS the program's own.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) % 1_000_003
    elapsed = time.perf_counter() - t0
    if acc < 0:  # consume the result
        raise RuntimeError("speed probe produced a wrong result")
    return elapsed


class Samples:
    """Wall-clock samples of one kind of repetition (traced or not)."""

    def __init__(self) -> None:
        self.setup: List[float] = []
        #: Speed-probe seconds timed just before each set-up repetition.
        self.setup_probes: List[float] = []
        #: case -> wall seconds of every call.
        self.calls: Dict[str, List[float]] = {}
        #: wall seconds of every call, one list per pass.  Every pass
        #: makes the same calls in the same order.
        self.passes: List[List[float]] = []


class Context:
    """Samples, checks and counters of one run.

    Parameters
    ----------
    seconds:
        Length of the timed loop: :meth:`more` keeps returning ``True``
        until this much wall time has passed since its first call and
        at least :data:`MIN_REPS` passes ran (of each kind).
    tracer:
        A :class:`layers.Tracer` for the traced run, else ``None``.
        With a tracer, set-up repetitions and passes alternate between
        untraced (``samples``) and traced (``traced``), so tracing
        overhead compares neighbouring repetitions that ran at the
        same machine speed.  Checks are always traced.
    """

    def __init__(self, seconds: float, tracer: Optional[Any] = None) -> None:
        self.seconds = seconds
        self.tracer = tracer
        self.samples = Samples()
        self.traced = Samples()
        self._tracing = False
        self._in_pass = False
        self.attempted = 0
        self.failed_ops: set = set()
        self.failures: List[str] = []
        #: Deterministic counters of the first pass, compared with
        #: ``pinned.json`` at seed 0.
        self.counters: Dict[str, Any] = {}
        self.eps_values: List[float] = []
        #: Peak RSS when the timed loop ended, before any check a
        #: workload runs after it.
        self.peak_rss_mb = 0.0
        #: Speed-probe seconds, one per :meth:`more` and :meth:`setup`
        #: call.
        self.probes: List[float] = []
        self._deadline: Optional[float] = None

    @property
    def _current(self) -> Samples:
        return self.traced if self._tracing else self.samples

    def _probe(self) -> float:
        probe = speed_probe()
        self.probes.append(probe)
        return probe

    # -- timing ----------------------------------------------------------

    def setup(self, fn: Callable[[], Any]) -> Any:
        """Time one repetition of the program's set-up; returns its value.

        A speed probe runs just before it, for :func:`end_to_end_metrics`
        to scale it by.  Inside a pass it follows the pass's tracing; before the passes,
        traced runs alternate set-up repetitions.
        """
        if self.tracer is not None and not self._in_pass:
            self._tracing = len(self.samples.setup) > len(self.traced.setup)
        samples = self._current
        gc.collect()
        samples.setup_probes.append(self._probe())
        tracer = self.tracer if self._tracing else None
        if tracer is not None:
            tracer.begin_root("setup", None)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            samples.setup.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_root()

    def call(self, case: str, fn: Callable[[], Any]) -> "tuple[int, Any]":
        """Time one operation; returns ``(op_id, output or None)``.

        An exception escaping the program fails the operation (the
        output is ``None``) instead of ending the run, so the result
        still reports how many operations were attempted.
        """
        op = self.attempted
        self.attempted += 1
        tracer = self.tracer if self._tracing else None
        if tracer is not None:
            tracer.begin_root("call:" + case, op)
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:  # the boundary that must keep running
            elapsed = time.perf_counter() - t0
            self.fail(op, f"{case}: raised\n{traceback.format_exc()}")
            out = None
        else:
            elapsed = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.end_root()
        samples = self._current
        samples.calls.setdefault(case, []).append(elapsed)
        samples.passes[-1].append(elapsed)
        return op, out

    def more(self) -> bool:
        """Whether to run another pass (starts the clock on first call).

        Every call times the speed probe, so each pass lies between two
        probes.
        """
        now = time.perf_counter()
        if self._deadline is None:
            self._deadline = now + self.seconds
        gc.collect()
        self._probe()
        kinds = [self.samples] + ([self.traced] if self.tracer else [])
        done = min(len(k.passes) for k in kinds) >= MIN_REPS
        if done and now >= self._deadline:
            self._in_pass = self._tracing = False
            self.peak_rss_mb = peak_rss_mb()
            return False
        if self.tracer is not None:
            self._tracing = len(self.samples.passes) > len(self.traced.passes)
        self._current.passes.append([])
        self._in_pass = True
        return True

    @property
    def passes(self) -> int:
        """Untraced passes run so far."""
        return len(self.samples.passes)

    # -- checks ----------------------------------------------------------

    def fail(self, op: int, message: str) -> None:
        """Mark operation ``op`` failed with ``message``."""
        self.failed_ops.add(op)
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(message)

    def check(self, op: int, ok: bool, message: str) -> None:
        """Fail ``op`` with ``message`` unless ``ok``."""
        if not ok:
            self.fail(op, message)

    def checked(self, op: int, what: str, fn: Callable[[], Any]) -> Any:
        """Run an (untimed) check that signals failure by raising."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_root("check", op)
        try:
            return fn()
        except Exception as exc:  # any raise is a failed check
            self.fail(op, f"{what}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if tracer is not None:
                tracer.end_root()

    def eps(self, op: int, blocking: int, num_edges: int, bound: float,
            what: str) -> None:
        """Record an achieved ε and check Theorem 3's ``≤ bound``."""
        value = blocking / num_edges if num_edges else 0.0
        self.eps_values.append(value)
        self.check(
            op,
            blocking <= bound * num_edges,
            f"{what}: {blocking} blocking pairs > {bound}·|E| = "
            f"{bound * num_edges:.1f}",
        )

    def count(self, name: str, value: float) -> None:
        """Add to a per-layer counter (traced passes only)."""
        if self._tracing:
            self.tracer.call_counts[name] += value

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def best_calls(samples: Samples) -> List[float]:
    """Each operation of a pass at its fastest: position ``j`` is the
    least time the ``j``-th call took over all passes."""
    lengths = {len(p) for p in samples.passes}
    if len(lengths) != 1:
        raise ValueError(f"passes differ in their calls: {sorted(lengths)}")
    return [min(times) for times in zip(*samples.passes)]


def end_to_end_metrics(
    samples: Samples, probes: List[float], rss_mb: float
) -> Dict[str, Dict[str, Any]]:
    """The ``end_to_end`` metrics of ``BENCHMARK.json`` from ``samples``.

    Other tenants of a shared machine slow it by up to 2×, for
    stretches of milliseconds to minutes.  Times are therefore scaled
    to the reference machine speed: multiplied by :data:`REF_PROBE_S`
    over a speed-probe time measured in the same run.

    * ``setup_s`` — the median set-up repetition, each scaled by the
      probe timed just before it.
    * ``work_s`` — one pass with every operation at its fastest
      (:func:`best_calls`), summed, scaled by the run's fastest probe:
      both are the run's best moments.
    * ``peak_rss_mb`` — ``rss_mb``, the process's peak RSS.

    Each carries ``n``: the repetitions behind it.
    """
    return {
        "setup_s": {
            "value": statistics.median(
                s * REF_PROBE_S / p
                for s, p in zip(samples.setup, samples.setup_probes)
            ),
            "unit": "s",
            "n": len(samples.setup),
        },
        "work_s": {
            "value": sum(best_calls(samples)) * REF_PROBE_S / min(probes),
            "unit": "s",
            "n": len(samples.passes),
        },
        "peak_rss_mb": {"value": rss_mb, "unit": "MB", "n": 1},
    }


def call_summary(samples: Samples) -> Dict[str, Dict[str, float]]:
    """Per-case call statistics for the result file."""
    return {
        case: {
            "n": len(s),
            "min": min(s),
            "median": statistics.median(s),
            "max": max(s),
        }
        for case, s in samples.calls.items()
    }
