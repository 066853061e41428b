"""Static CONGEST-compliance and determinism analysis (``repro.lint``).

An AST-based analyzer (stdlib :mod:`ast` only) that machine-checks the
model assumptions the paper's guarantees rest on, *before* a single
simulated round runs:

* **CONGEST-locality** (``CONGEST001–004``) — node programs act on
  node-local state only, and never read the inbox of a slept round.
* **Bounded messages** (``MSG001–003``) — every
  :class:`~repro.congest.message.Message` site is statically boundable
  against the declared schemas at ``O(log n)`` bits.
* **Determinism** (``DET001–002``) — no unordered set iteration or
  global RNG use in the algorithm layers.
* **Telemetry hygiene** (``TEL001–003``) — no ``print``, wall-clock
  reads, or ad-hoc file exports in library code.
* **Determinism flow** (``FLOW001–004``, opt-in via ``--flow``) — a
  whole-program, interprocedural taint analysis: unordered iteration
  and unseeded randomness must not reach message emission, telemetry
  records, or persisted payloads, even across function and module
  boundaries (:mod:`repro.lint.flow`).

Run it via ``repro-asm lint`` (text or ``--format json``), or in-process:

>>> from repro.lint import run_lint, LintConfig
>>> report = run_lint(["src/repro"], LintConfig())  # doctest: +SKIP

Suppress a finding with a trailing ``# lint: ignore[RULE]`` comment;
configure rule sets and path scopes in ``[tool.repro-lint]`` — see
``docs/static_analysis.md``.
"""

from __future__ import annotations

from repro.lint.baseline import (
    apply_baseline,
    baseline_payload,
    fingerprint,
    load_baseline,
)
from repro.lint.config import LintConfig, load_config
from repro.lint.engine import (
    ProjectRule,
    Rule,
    SourceFile,
    all_rules,
    register,
    rule_families,
    run_lint,
)
from repro.lint.reporters import format_json, format_sarif, format_text
from repro.lint.violations import LintReport, Violation

__all__ = [
    "LintConfig",
    "LintReport",
    "ProjectRule",
    "Rule",
    "SourceFile",
    "Violation",
    "all_rules",
    "apply_baseline",
    "baseline_payload",
    "fingerprint",
    "format_json",
    "format_sarif",
    "format_text",
    "load_baseline",
    "load_config",
    "register",
    "rule_families",
    "run_lint",
]
