"""Analyzer configuration: defaults plus ``[tool.repro-lint]`` overrides.

The analyzer ships working defaults (scoped to this repository's
layout); a ``[tool.repro-lint]`` table in ``pyproject.toml`` can
enable/disable rules and re-scope the path sets each rule family
applies to:

.. code-block:: toml

    [tool.repro-lint]
    paths = ["src/repro"]
    disable = []                 # rule ids ("DET001") or families ("DET")

    [tool.repro-lint.scopes]
    protocols = ["src/repro/congest/protocols"]
    determinism = ["src/repro/core", "src/repro/mm", "src/repro/baselines"]

    [tool.repro-lint.exempt]
    library = ["src/repro/cli.py", "src/repro/obs"]

Parsing uses :mod:`tomllib` when available (Python ≥ 3.11) and falls
back to a minimal parser that understands exactly the subset above —
no new dependencies either way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, FrozenSet, Optional, Tuple, Union

__all__ = ["LintConfig", "load_config", "DEFAULT_SCOPES", "DEFAULT_EXEMPT"]

# Path sets (posix, repo-relative) each rule family applies to.
DEFAULT_SCOPES: Dict[str, Tuple[str, ...]] = {
    # CONGEST-locality: node-program code.
    "protocols": ("src/repro/congest/protocols",),
    # Determinism: the algorithm layers whose outputs must be replayable.
    "determinism": (
        "src/repro/core",
        "src/repro/mm",
        "src/repro/baselines",
    ),
    # Bounded-message: anywhere a Message is constructed.
    "messages": ("src/repro",),
    # Telemetry hygiene: all library code.
    "library": ("src/repro",),
    # Process fan-out: everywhere except the sanctioned pool itself.
    "parallelism": ("src/repro",),
    # Interprocedural determinism flow: the whole library.
    "flow": ("src/repro",),
}

# Per-scope exemptions (entry points, the telemetry layer itself, and
# the I/O module exports are *supposed* to route through).
DEFAULT_EXEMPT: Dict[str, Tuple[str, ...]] = {
    "protocols": (),
    "determinism": (),
    "messages": (),
    "library": (
        "src/repro/cli.py",
        "src/repro/__main__.py",
        "src/repro/io.py",
        "src/repro/obs",
    ),
    # repro.parallel is the sanctioned home for process pools (DET003
    # sends everything else there).
    "parallelism": ("src/repro/parallel",),
    # The analyzer's own machinery manipulates rule/report sets and is
    # not part of any replayed run.
    "flow": ("src/repro/lint",),
}


def _path_matches(path: str, prefix: str) -> bool:
    """Whether posix ``path`` falls under repo-relative ``prefix``.

    Matches relative and absolute spellings of the same tree: the
    prefix may appear at the start of the path or after any ``/``.
    """
    if path == prefix or path.startswith(prefix + "/"):
        return True
    return ("/" + prefix + "/") in path or path.endswith("/" + prefix)


@dataclass(frozen=True)
class LintConfig:
    """Resolved analyzer configuration."""

    paths: Tuple[str, ...] = ("src/repro",)
    disable: FrozenSet[str] = frozenset()
    enable: Optional[FrozenSet[str]] = None
    scopes: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_SCOPES)
    )
    exempt: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_EXEMPT)
    )
    # The interprocedural FLOW family is opt-in (``repro-asm lint
    # --flow`` or ``flow = true`` in pyproject): it analyzes the whole
    # program at once, so per-file invocations keep their fast path.
    flow: bool = False

    def rule_enabled(self, rule_id: str, family: str) -> bool:
        """Whether a rule runs under this configuration."""
        if rule_id in self.disable or family in self.disable:
            return False
        if family == "FLOW" and not self.flow:
            # An explicit enable-list mention still switches FLOW on.
            return self.enable is not None and (
                rule_id in self.enable or family in self.enable
            )
        if self.enable is not None:
            return rule_id in self.enable or family in self.enable
        return True

    def in_scope(self, scope: str, path: str) -> bool:
        """Whether ``path`` is inside ``scope`` and not exempted."""
        posix = path.replace("\\", "/")
        prefixes = self.scopes.get(scope, ())
        if not any(_path_matches(posix, p) for p in prefixes):
            return False
        return not any(
            _path_matches(posix, p) for p in self.exempt.get(scope, ())
        )

    def with_disabled(self, *rules: str) -> "LintConfig":
        """A copy with additional rule ids / families disabled."""
        return replace(self, disable=self.disable | frozenset(rules))


def _parse_toml_subset(text: str) -> Dict[str, Any]:
    """Parse the tiny TOML subset ``[tool.repro-lint]`` needs.

    Handles table headers, string values, booleans, and single-line
    string arrays.  Used only when :mod:`tomllib` is unavailable
    (Python < 3.11).
    """
    root: Dict[str, Any] = {}
    current = root
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip() if '"' not in raw else raw.strip()
        if not line or line.startswith("#"):
            continue
        header = re.fullmatch(r"\[([A-Za-z0-9_.\"'-]+)\]", line)
        if header:
            current = root
            for part in header.group(1).split("."):
                part = part.strip("\"'")
                current = current.setdefault(part, {})
            continue
        if "=" not in line:
            continue
        key, value = line.split("=", 1)
        key, value = key.strip().strip("\"'"), value.strip()
        if value.startswith("["):
            items = re.findall(r'"([^"]*)"|\'([^\']*)\'', value)
            current[key] = [a or b for a, b in items]
        elif value in ("true", "false"):
            current[key] = value == "true"
        elif value.startswith(('"', "'")):
            current[key] = value[1:-1]
        else:
            try:
                current[key] = int(value)
            except ValueError:
                current[key] = value
    return root


def _load_toml(path: Path) -> Dict[str, Any]:
    try:
        import tomllib
    except ImportError:  # Python < 3.11
        return _parse_toml_subset(path.read_text())
    with open(path, "rb") as fh:  # lint: ignore[TEL003]
        return tomllib.load(fh)


def load_config(
    pyproject: Optional[Union[str, Path]] = None,
    *,
    base: Optional[LintConfig] = None,
) -> LintConfig:
    """The configuration from a ``pyproject.toml``, over the defaults.

    ``pyproject`` defaults to ``pyproject.toml`` in the current
    directory; a missing file or a file without a ``[tool.repro-lint]``
    table yields the defaults unchanged.
    """
    config = base if base is not None else LintConfig()
    path = Path(pyproject) if pyproject is not None else Path("pyproject.toml")
    if not path.is_file():
        return config
    document = _load_toml(path)
    table = document.get("tool", {}).get("repro-lint")
    if not isinstance(table, dict):
        return config
    kwargs: Dict[str, Any] = {}
    if "paths" in table:
        kwargs["paths"] = tuple(table["paths"])
    if "disable" in table:
        kwargs["disable"] = config.disable | frozenset(table["disable"])
    if "enable" in table:
        kwargs["enable"] = frozenset(table["enable"])
    if "flow" in table:
        kwargs["flow"] = bool(table["flow"])
    scopes = dict(config.scopes)
    for name, value in (table.get("scopes") or {}).items():
        scopes[name] = tuple(value)
    exempt = dict(config.exempt)
    for name, value in (table.get("exempt") or {}).items():
        exempt[name] = tuple(value)
    kwargs["scopes"] = scopes
    kwargs["exempt"] = exempt
    return replace(config, **kwargs)
