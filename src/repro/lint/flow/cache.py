"""Source-hash memo for the flow analysis.

The whole-program pass re-derives everything from the parsed sources,
so its result is a pure function of the source bytes.  The memo keys
on one digest — SHA-256 over the sorted ``(path, sha256(text))`` pairs
plus the analyzer version — so repeat
:func:`repro.lint.engine.run_lint` calls in one process pay for the
fixpoint once.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.flow.taint import FlowFinding

__all__ = ["digest_sources", "cached_findings", "store_findings"]

# Bump when the analysis changes meaning: findings memoized by an older
# analyzer must never be replayed.
ANALYZER_VERSION = "flow-1"

# digest -> findings, for repeated in-process runs.
_MEMO: Dict[str, List[FlowFinding]] = {}


def digest_sources(sources: Sequence[Tuple[str, str]]) -> str:
    """One digest over ``(path, text)`` pairs, order-independent."""
    h = hashlib.sha256(ANALYZER_VERSION.encode())
    for path, text in sorted(sources):
        h.update(path.encode())
        h.update(hashlib.sha256(text.encode()).digest())
    return h.hexdigest()


def cached_findings(digest: str) -> Optional[List[FlowFinding]]:
    """Memoized findings for ``digest``, if any."""
    if digest in _MEMO:
        return list(_MEMO[digest])
    return None


def store_findings(digest: str, findings: Sequence[FlowFinding]) -> None:
    """Memoize ``findings`` under ``digest``."""
    _MEMO[digest] = list(findings)
