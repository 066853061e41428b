"""Telemetry-hygiene rules (family ``TEL``).

PR 1's telemetry layer is only trustworthy if library code routes all
observation through it: stray ``print`` calls corrupt machine-read
output, wall-clock reads make traces non-replayable, and ad-hoc file
writes bypass the versioned envelopes of :mod:`repro.io`.

``TEL001``
    No ``print`` in library code — reporting goes through return
    values, :mod:`repro.obs`, or the CLI layer.
``TEL002``
    No wall-clock reads (``time.time``, ``datetime.now``-likes) in
    library code.  Monotonic clocks (``time.perf_counter``,
    ``time.monotonic``) are fine for durations;
    :class:`repro.obs.manifest.RunManifest` owns run timestamps.
``TEL003``
    No direct file exports (``open``, ``Path.write_text``/
    ``write_bytes``, ``json.dump``) — persistence routes through
    :mod:`repro.io` so every artifact carries the format envelope.

Scope: all of ``src/repro`` except the CLI entry points, ``repro.io``
itself, and the ``repro.obs`` telemetry layer (see
``[tool.repro-lint].exempt``).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.config import LintConfig
from repro.lint.engine import Rule, SourceFile, register
from repro.lint.violations import Violation

__all__ = [
    "PrintRule",
    "WallClockRule",
    "DirectExportRule",
]


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@register
class PrintRule(Rule):
    rule_id = "TEL001"
    family = "TEL"
    scope = "library"
    description = "No print() in library code; route output via repro.obs."

    def check(self, src: SourceFile, config: LintConfig) -> Iterator[Violation]:
        for node in ast.walk(src.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.violation(
                    src,
                    node,
                    "print() in library code corrupts machine-read output; "
                    "emit telemetry via repro.obs or return data to the CLI",
                )


@register
class WallClockRule(Rule):
    rule_id = "TEL002"
    family = "TEL"
    scope = "library"
    description = (
        "No wall-clock reads in library code; use monotonic clocks for "
        "durations and RunManifest for timestamps."
    )

    # Suffix-matched dotted call names that read the wall clock.
    _WALL_CLOCK = (
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.asctime",
        "time.strftime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    )

    def check(self, src: SourceFile, config: LintConfig) -> Iterator[Violation]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            if any(
                dotted == bad or dotted.endswith("." + bad)
                for bad in self._WALL_CLOCK
            ):
                yield self.violation(
                    src,
                    node,
                    f"{dotted}() reads the wall clock — library runs must "
                    f"be replayable; use time.perf_counter() for durations "
                    f"or RunManifest for run timestamps",
                )


@register
class DirectExportRule(Rule):
    rule_id = "TEL003"
    family = "TEL"
    scope = "library"
    description = (
        "No direct file I/O in library code; exports route through "
        "repro.io's versioned envelopes."
    )

    _WRITE_ATTRS = frozenset({"write_text", "write_bytes"})

    def check(self, src: SourceFile, config: LintConfig) -> Iterator[Violation]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                yield self.violation(
                    src,
                    node,
                    "direct open() in library code; route file I/O through "
                    "repro.io so artifacts carry the format envelope",
                )
            elif isinstance(func, ast.Attribute):
                if func.attr in self._WRITE_ATTRS:
                    yield self.violation(
                        src,
                        node,
                        f".{func.attr}() writes a file directly; exports "
                        f"route through repro.io",
                    )
                elif _dotted(func) == "json.dump":
                    yield self.violation(
                        src,
                        node,
                        "json.dump() writes a file directly; exports route "
                        "through repro.io (json.dumps to build strings is "
                        "fine)",
                    )

