"""Vectorized struct-of-arrays backend for the ASM hot path.

This package holds every numpy-touching line of the repository.  The
rest of the library is stdlib-only; numpy ships as an optional extra
(``pip install repro[fast]``), so imports here are guarded and the
public surface degrades cleanly:

* :data:`HAS_NUMPY` — whether numpy imported successfully.
* :func:`require_numpy` — raise
  :class:`~repro.errors.VecUnavailableError` when it did not.

The backend compiles a :class:`~repro.core.preferences.PreferenceProfile`
into flat arrays (:mod:`repro.vec.compile`) and re-implements
``ProposalRound`` / ``QuantileMatch`` as batched array operations over
all active men at once (:mod:`repro.vec.engine`).  It is selected with
``ASMEngine(optimized="vec")`` and is bit-identical — matching, good /
bad sets, message counts, round charges, synchronous time — to the
pure-Python backend; ``tests/test_vec_equivalence.py`` pins
the contract over the full workload grid.
"""

from __future__ import annotations

from repro.errors import VecUnavailableError

try:  # pragma: no cover - exercised via both CI environments
    import numpy  # noqa: F401

    HAS_NUMPY = True
except ImportError:  # pragma: no cover
    HAS_NUMPY = False

__all__ = ["HAS_NUMPY", "require_numpy", "VecUnavailableError"]


def require_numpy() -> None:
    """Raise :class:`VecUnavailableError` unless numpy is importable."""
    if not HAS_NUMPY:
        raise VecUnavailableError(
            "the vectorized engine (optimized='vec') requires numpy; "
            "install it with `pip install repro[fast]` or use "
            "optimized=True for the pure-Python backend"
        )
