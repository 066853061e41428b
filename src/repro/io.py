"""File I/O for instances, matchings, results and telemetry.

Plain JSON on disk so experiments are reproducible and shareable:

* :func:`save_profile` / :func:`load_profile` — preference profiles,
  with a small metadata envelope (format version, counts, generator
  provenance if provided).
* :func:`save_matching` / :func:`load_matching` — matchings.
* :func:`save_result` — an :class:`~repro.core.asm.ASMResult` summary.
* :func:`save_metrics` / :func:`load_metrics` — a run's one telemetry
  artifact: the :class:`~repro.obs.metrics.MetricsRegistry` snapshot
  (counters, gauges, histogram summaries, event records, the fault
  records among them), its timer spans as top-level Chrome
  ``traceEvents``, the causal trace when the run had a tracer, and the
  :class:`~repro.obs.manifest.RunManifest`.
* :func:`save_bench` / :func:`load_bench` — a ``repro.perf.bench``
  report.

The envelope is versioned so future format changes stay readable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Union

from repro.core.asm import ASMResult
from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile
from repro.errors import ReproError
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry, chrome_trace_document

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
    metrics: MetricsRegistry,
    path: PathLike,
    manifest: Optional[Union[RunManifest, Dict[str, Any]]] = None,
    trace: Optional[Iterable[Dict[str, Any]]] = None,
) -> None:
    """Write a run's telemetry artifact as versioned JSON.

    ``metrics``' :meth:`~repro.obs.metrics.MetricsRegistry.to_dict`
    snapshot goes under ``"metrics"`` and its timer spans go top-level
    as Chrome ``traceEvents``; the Trace Event Format reads the other
    top-level keys as metadata, so the file opens in
    https://ui.perfetto.dev as it is.  ``trace`` (a
    :meth:`repro.trace.span.CausalTracer.to_records` list) goes under
    ``"trace"``.
    """
    body: Dict[str, Any] = {
        "manifest": _manifest_dict(manifest),
        "metrics": metrics.to_dict(),
        **chrome_trace_document(metrics.spans),
    }
    if trace is not None:
        body["trace"] = [dict(record) for record in trace]
    _write(path, "metrics", body)


def load_metrics(path: PathLike) -> Dict[str, Any]:
    """Read a document written by :func:`save_metrics`.

    Returns the full envelope dict; its keys are ``"metrics"``
    (counters / gauges / histograms / events), ``"traceEvents"``,
    ``"manifest"``, and ``"trace"`` when the run was traced.
    """
    return _read(path, "metrics")


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
