"""Exception hierarchy for the ``repro`` library.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` et al.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InvalidPreferencesError(ReproError):
    """Raised when a preference profile violates a structural invariant.

    Examples include duplicate entries in a preference list, ranks of
    players that do not exist, or asymmetric lists (``w`` ranks ``m`` but
    ``m`` does not rank ``w``).
    """


class InvalidMatchingError(ReproError):
    """Raised when a matching is structurally invalid.

    A matching is invalid when a player appears in more than one pair or
    when it contains a pair that is not an edge of the communication
    graph of the instance it is validated against.
    """


class InvalidParameterError(ReproError):
    """Raised when an algorithm parameter is outside its legal range.

    For example ``eps <= 0`` for the approximation parameter, or a
    quantile count ``k < 1``.
    """


class ProtocolViolationError(ReproError):
    """Raised when a CONGEST protocol violates the model's constraints.

    The simulator raises this when a node sends a message to a
    non-neighbor, exceeds the per-round message budget to a single
    neighbor, or emits a message larger than the configured
    ``O(log n)``-bit bound.
    """


class VecUnavailableError(ReproError):
    """Raised when the vectorized engine is requested without numpy.

    The struct-of-arrays backend (:mod:`repro.vec`) needs numpy, which
    is an optional extra (``pip install repro[fast]``).  Stdlib-only
    installs keep the pure-Python backend (``optimized=True``); asking
    for ``optimized="vec"`` raises this error so callers can fall back
    explicitly instead of silently running a different engine.
    """


class SimulationError(ReproError):
    """Raised when the CONGEST simulator reaches an inconsistent state.

    This signals a bug in a protocol implementation (e.g. a node
    terminating while others still expect messages from it) rather than
    invalid user input.
    """
