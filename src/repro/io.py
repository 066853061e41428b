"""File I/O for instances, matchings, results and telemetry.

Plain JSON on disk so experiments are reproducible and shareable:

* :func:`save_profile` / :func:`load_profile` — preference profiles,
  with a small metadata envelope (format version, counts, generator
  provenance if provided).
* :func:`save_matching` / :func:`load_matching` — matchings.
* :func:`save_result` — an :class:`~repro.core.asm.ASMResult` summary.
* :func:`save_metrics` / :func:`load_metrics` — a
  :class:`~repro.obs.metrics.MetricsRegistry` snapshot (counters,
  gauges, histogram summaries, event records) embedding its
  :class:`~repro.obs.manifest.RunManifest`.
* :func:`save_fault_trace` / :func:`load_fault_trace` — a
  deterministic fault-injection trace
  (:attr:`repro.faults.injector.FaultInjector.records`); timestamp-free
  by construction, so equal plans yield byte-identical files.
* :func:`save_trace` / :func:`load_trace` — a causal trace
  (:meth:`repro.trace.span.CausalTracer.to_records`); timestamp-free
  like the fault trace, so the trace-smoke CI job can diff it against
  a committed golden file.
* :func:`save_chrome_trace` — a metrics registry's timer spans in the
  Chrome trace-event format, loadable directly in ``chrome://tracing``
  or Perfetto (raw Chrome JSON, intentionally **not** wrapped in the
  repro envelope).

The envelope is versioned so future format changes stay readable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.asm import ASMResult
from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile
from repro.errors import ReproError
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "FORMAT_VERSION",
    "FileFormatError",
    "save_profile",
    "load_profile",
    "save_matching",
    "load_matching",
    "save_result",
    "save_metrics",
    "load_metrics",
    "save_bench",
    "load_bench",
    "save_fault_trace",
    "load_fault_trace",
    "save_trace",
    "load_trace",
    "save_chrome_trace",
]

FORMAT_VERSION = 1

PathLike = Union[str, Path]


class FileFormatError(ReproError):
    """Raised when a file is not a recognizable repro JSON document."""


def _write(path: PathLike, kind: str, body: Dict[str, Any]) -> None:
    document = {"format": "repro", "version": FORMAT_VERSION, "kind": kind}
    document.update(body)
    Path(path).write_text(json.dumps(document, indent=2) + "\n")


def _read(path: PathLike, kind: str) -> Dict[str, Any]:
    try:
        document = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(document, dict) or document.get("format") != "repro":
        raise FileFormatError(f"{path}: missing repro format envelope")
    if document.get("version") != FORMAT_VERSION:
        raise FileFormatError(
            f"{path}: unsupported format version {document.get('version')!r}"
        )
    if document.get("kind") != kind:
        raise FileFormatError(
            f"{path}: expected kind {kind!r}, found {document.get('kind')!r}"
        )
    return document


def save_profile(
    prefs: PreferenceProfile,
    path: PathLike,
    metadata: Optional[Dict[str, Any]] = None,
) -> None:
    """Write ``prefs`` to ``path`` as versioned JSON.

    ``metadata`` (e.g. generator name/seed) is stored verbatim under
    the ``"metadata"`` key for provenance.
    """
    _write(
        path,
        "preference_profile",
        {
            "n_men": prefs.n_men,
            "n_women": prefs.n_women,
            "num_edges": prefs.num_edges,
            "metadata": metadata or {},
            "profile": prefs.to_dict(),
        },
    )


def load_profile(path: PathLike) -> PreferenceProfile:
    """Read a profile written by :func:`save_profile`.

    Raises
    ------
    FileFormatError
        If the file is not a valid profile document.
    InvalidPreferencesError
        If the stored lists violate the profile invariants.
    """
    document = _read(path, "preference_profile")
    return PreferenceProfile.from_dict(document["profile"])


def save_matching(
    matching: Matching,
    path: PathLike,
    metadata: Optional[Dict[str, Any]] = None,
) -> None:
    """Write ``matching`` to ``path`` as versioned JSON."""
    _write(
        path,
        "matching",
        {
            "size": len(matching),
            "metadata": metadata or {},
            "matching": matching.to_dict(),
        },
    )


def load_matching(path: PathLike) -> Matching:
    """Read a matching written by :func:`save_matching`."""
    document = _read(path, "matching")
    return Matching.from_dict(document["matching"])


def save_result(
    result: ASMResult,
    path: PathLike,
    metadata: Optional[Dict[str, Any]] = None,
) -> None:
    """Write an ASM run's summary (``result.to_dict()``) to ``path``."""
    _write(
        path,
        "asm_result",
        {"metadata": metadata or {}, "result": result.to_dict()},
    )


# ----------------------------------------------------------------------
# Telemetry exports (repro.obs)
# ----------------------------------------------------------------------


def _manifest_dict(
    manifest: Optional[Union[RunManifest, Dict[str, Any]]]
) -> Dict[str, Any]:
    if manifest is None:
        return {}
    if isinstance(manifest, RunManifest):
        return manifest.to_dict()
    return dict(manifest)


def save_metrics(
    metrics: Union[MetricsRegistry, Dict[str, Any]],
    path: PathLike,
    manifest: Optional[Union[RunManifest, Dict[str, Any]]] = None,
) -> None:
    """Write a metrics snapshot (plus its manifest) as versioned JSON.

    ``metrics`` is a :class:`~repro.obs.metrics.MetricsRegistry` (its
    :meth:`~repro.obs.metrics.MetricsRegistry.to_dict` snapshot, event
    records included, is taken) or an already-snapshotted dict.
    """
    snapshot = (
        metrics.to_dict() if isinstance(metrics, MetricsRegistry) else metrics
    )
    _write(
        path,
        "metrics",
        {"manifest": _manifest_dict(manifest), "metrics": snapshot},
    )


def load_metrics(path: PathLike) -> Dict[str, Any]:
    """Read a document written by :func:`save_metrics`.

    Returns the full envelope dict; the interesting keys are
    ``"metrics"`` (counters / gauges / histograms / events) and
    ``"manifest"``.
    """
    return _read(path, "metrics")


def save_fault_trace(
    records: Iterable[Dict[str, Any]],
    path: PathLike,
    metadata: Optional[Dict[str, Any]] = None,
) -> None:
    """Write a fault-injection trace as versioned JSON.

    ``records`` is a :attr:`repro.faults.injector.FaultInjector.records`
    list (or equivalent dicts).  The document carries no timestamps, so
    two runs with the same plan produce byte-identical files — the
    property the CI fault-smoke job diffs against a committed golden
    trace.
    """
    body_records = [dict(r) for r in records]
    _write(
        path,
        "fault_trace",
        {
            "num_records": len(body_records),
            "metadata": metadata or {},
            "trace": body_records,
        },
    )


def load_fault_trace(
    path: PathLike,
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a trace written by :func:`save_fault_trace`.

    Returns ``(metadata, records)``.
    """
    document = _read(path, "fault_trace")
    trace = document.get("trace")
    if not isinstance(trace, list):
        raise FileFormatError(f"{path}: missing fault trace body")
    return document.get("metadata", {}), trace


def save_trace(
    records: Iterable[Dict[str, Any]],
    path: PathLike,
    metadata: Optional[Dict[str, Any]] = None,
) -> None:
    """Write a causal trace as versioned JSON.

    ``records`` is a :meth:`repro.trace.span.CausalTracer.to_records`
    list (or a merged multi-trial trace).  Trace ids are SHA-256 chains
    over causal history and the records carry no timestamps, so equal
    seeded runs produce byte-identical files for any worker count —
    the property the trace-smoke CI job and the worker-identity tests
    diff.
    """
    body_records = [dict(r) for r in records]
    _write(
        path,
        "causal_trace",
        {
            "num_records": len(body_records),
            "metadata": metadata or {},
            "trace": body_records,
        },
    )


def load_trace(
    path: PathLike,
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a causal trace written by :func:`save_trace`.

    Returns ``(metadata, records)``; feed the records to
    :class:`repro.trace.analysis.CausalTrace` for chain queries.
    """
    document = _read(path, "causal_trace")
    trace = document.get("trace")
    if not isinstance(trace, list):
        raise FileFormatError(f"{path}: missing causal trace body")
    return document.get("metadata", {}), trace


def save_chrome_trace(
    document: Dict[str, Any],
    path: PathLike,
) -> None:
    """Write a Chrome trace-event document produced by
    :func:`repro.obs.metrics.chrome_trace_document`.

    The file is raw Chrome JSON — no repro envelope — so it loads
    directly in ``chrome://tracing`` and https://ui.perfetto.dev.
    """
    if "traceEvents" not in document:
        raise FileFormatError(
            f"{path}: not a Chrome trace document (no 'traceEvents')"
        )
    Path(path).write_text(json.dumps(document, indent=1) + "\n")


def save_bench(
    report: Dict[str, Any],
    path: PathLike,
    metadata: Optional[Dict[str, Any]] = None,
) -> None:
    """Write a ``repro.perf.bench`` report as versioned JSON.

    ``metadata`` (e.g. the git revision the CLI stamps) is stored
    under the ``"metadata"`` key for provenance.
    """
    from repro.perf.bench import BENCH_KIND

    _write(
        path,
        BENCH_KIND,
        {"metadata": metadata or {}, "report": report},
    )


def load_bench(path: PathLike) -> Dict[str, Any]:
    """Read a benchmark report written by :func:`save_bench`.

    Returns the report body (the ``run_bench`` dict); provenance
    metadata is available under its ``"metadata"`` key only in the
    raw file.
    """
    from repro.perf.bench import BENCH_KIND

    document = _read(path, BENCH_KIND)
    report = document.get("report")
    if not isinstance(report, dict):
        raise FileFormatError(f"{path}: missing bench report body")
    return report
