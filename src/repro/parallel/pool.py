"""The deterministic multiprocess trial runner: :class:`TrialPool`.

``TrialPool.run(specs)`` executes a list of
:class:`~repro.parallel.spec.TrialSpec` and returns their results **in
spec order** — the pool's whole design is that the caller cannot
observe how the work was scheduled:

* **Chunked scheduling.**  Specs are split into contiguous chunks
  whose layout is a pure function of ``(len(specs), chunk_size)`` —
  never the worker count — so the chunk structure (and therefore the
  merged telemetry event stream) is identical for any ``workers``.
* **Spec-order merge.**  Chunks complete in any order; results are
  reassembled by chunk start index.  ``workers=1`` runs the same chunk
  driver in-process, so the serial path and the sharded path execute
  byte-for-byte the same per-trial code.
* **Deterministic seeds.**  Seeds live *in the specs* (explicit, or
  derived via :func:`~repro.parallel.spec.derive_seed`); nothing about
  a trial's execution depends on worker identity or submission order.
* **Crash surfacing.**  A trial exception anywhere becomes one
  :class:`TrialExecutionError` in the parent, naming the spec and
  carrying the worker traceback; a killed worker process becomes the
  same error class with a "worker process died" message instead of a
  silent hang or a half-merged result list.

Telemetry: when constructed with an enabled
:class:`~repro.obs.telemetry.Telemetry`, the pool merges each worker's
:class:`~repro.obs.metrics.MetricsRegistry` in chunk order
(``parallel.trials_completed``, ``parallel.trial_seconds``), emits one
``trial_chunk`` event per chunk, and records worker count and
per-worker timings on the manifest via
:meth:`~repro.obs.manifest.RunManifest.record_parallelism`.

This module is the **only** place in the library allowed to touch
``concurrent.futures``/``multiprocessing`` (lint rule DET003 enforces
it): centralizing process management is what keeps the determinism
contract auditable.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.errors import InvalidParameterError, ReproError
from repro.obs.telemetry import Telemetry
from repro.parallel.runners import execute_chunk
from repro.parallel.spec import TrialSpec

__all__ = ["TrialPool", "TrialExecutionError", "DEFAULT_MAX_CHUNKS"]

#: Default fan-out: specs are split into at most this many chunks.  A
#: constant (rather than a multiple of the worker count) so the chunk
#: layout — and the merged telemetry stream — never depends on
#: ``workers``.
DEFAULT_MAX_CHUNKS = 16


class TrialExecutionError(ReproError):
    """A trial raised (or its worker process died) during a sweep."""


class TrialPool:
    """Deterministic sharded executor for trial sweeps.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``1`` (the default) executes
        in-process — no subprocess is ever spawned — and is the exact
        serial semantics every sweep had before this layer existed.
    chunk_size:
        Specs per chunk.  Defaults to
        ``ceil(len(specs) / DEFAULT_MAX_CHUNKS)``, computed per run.
    telemetry:
        Optional sink for merged worker metrics / chunk events.
    """

    def __init__(
        self,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if workers < 1:
            raise InvalidParameterError(
                f"workers must be >= 1, got {workers}"
            )
        if chunk_size is not None and chunk_size < 1:
            raise InvalidParameterError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self.workers = workers
        self.chunk_size = chunk_size
        self.telemetry = telemetry
        #: Execution shape of the most recent :meth:`run` (provenance).
        self.last_stats: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Chunking
    # ------------------------------------------------------------------

    def chunk_layout(self, count: int) -> List[Tuple[int, int]]:
        """``(start, size)`` per chunk — pure function of the inputs.

        Depends only on ``count`` and ``chunk_size``, never on
        ``workers``, so the same sweep shards identically whether it
        runs serially or across any number of processes.
        """
        if count == 0:
            return []
        size = self.chunk_size or max(
            1, math.ceil(count / DEFAULT_MAX_CHUNKS)
        )
        return [
            (start, min(size, count - start))
            for start in range(0, count, size)
        ]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, specs: Sequence[TrialSpec]) -> List[Any]:
        """Execute every spec; results come back in spec order.

        Raises
        ------
        TrialExecutionError
            If any trial raised, or a worker process died.  The error
            reports the lowest-index failing spec (what the serial
            loop would have hit first).
        """
        spec_list = list(specs)
        layout = self.chunk_layout(len(spec_list))
        if self.workers == 1 or len(layout) <= 1:
            chunk_records = self._run_serial(spec_list, layout)
        else:
            chunk_records = self._run_sharded(spec_list, layout)
        return self._merge(spec_list, chunk_records)

    def _run_serial(
        self,
        spec_list: List[TrialSpec],
        layout: List[Tuple[int, int]],
    ) -> List[Dict[str, Any]]:
        records = []
        for start, size in layout:
            record = execute_chunk(start, spec_list[start:start + size])
            records.append(record)
            if record["failure"] is not None:
                break  # fail fast, exactly like the plain serial loop
        return records

    def _run_sharded(
        self,
        spec_list: List[TrialSpec],
        layout: List[Tuple[int, int]],
    ) -> List[Dict[str, Any]]:
        records: List[Dict[str, Any]] = []
        max_workers = min(self.workers, len(layout))
        try:
            with ProcessPoolExecutor(max_workers=max_workers) as executor:
                pending = {
                    executor.submit(
                        execute_chunk, start, spec_list[start:start + size]
                    )
                    for start, size in layout
                }
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        records.append(future.result())
        except BrokenProcessPool as exc:
            raise TrialExecutionError(
                "a worker process died before returning its chunk "
                "(killed by the OS, out of memory, or a crash in C "
                "code); re-run with --workers 1 to reproduce the "
                "failing trial in-process"
            ) from exc
        return records

    def _merge(
        self,
        spec_list: List[TrialSpec],
        chunk_records: List[Dict[str, Any]],
    ) -> List[Any]:
        chunk_records.sort(key=lambda record: record["start"])
        failures = [
            record["failure"]
            for record in chunk_records
            if record["failure"] is not None
        ]
        self._record_telemetry(chunk_records)
        if failures:
            first = min(failures, key=lambda f: f["index"])
            raise TrialExecutionError(
                f"trial {first['index']} failed: {first['spec']}\n"
                f"{first['error']}\n--- worker traceback ---\n"
                f"{first['traceback']}"
            )
        results: List[Any] = []
        for record in chunk_records:
            results.extend(record["results"])
        return results

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def _record_telemetry(
        self, chunk_records: List[Dict[str, Any]]
    ) -> None:
        trials = sum(len(record["results"]) for record in chunk_records)
        per_worker: Dict[int, Dict[str, Any]] = {}
        for record in chunk_records:
            entry = per_worker.setdefault(
                record["pid"], {"seconds": 0.0, "chunks": 0, "trials": 0}
            )
            entry["seconds"] += record["wall_seconds"]
            entry["chunks"] += 1
            entry["trials"] += len(record["results"])
        # Stable presentation order: by first chunk each pid executed.
        seen: List[int] = []
        for record in chunk_records:
            if record["pid"] not in seen:
                seen.append(record["pid"])
        worker_timings = [
            {"pid": pid, **per_worker[pid]} for pid in seen
        ]
        self.last_stats = {
            "workers": self.workers,
            "chunks": len(chunk_records),
            "trials": trials,
            "worker_timings": worker_timings,
        }
        telemetry = self.telemetry
        if telemetry is None or not telemetry.enabled:
            return
        from repro.obs.metrics import MetricsRegistry

        for record in chunk_records:
            telemetry.metrics.merge(
                MetricsRegistry.from_raw_state(record["metrics"])
            )
            telemetry.metrics.inc("parallel.chunks")
            telemetry.metrics.emit(
                "trial_chunk",
                start=record["start"],
                trials=len(record["results"]),
                wall_seconds=round(record["wall_seconds"], 9),
                pid=record["pid"],
            )
        if telemetry.manifest is not None:
            layout_size = self.chunk_size or (
                max(
                    (len(record["results"]) for record in chunk_records),
                    default=0,
                )
            )
            telemetry.manifest.record_parallelism(
                workers=self.workers,
                chunk_size=layout_size,
                worker_timings=worker_timings,
            )
