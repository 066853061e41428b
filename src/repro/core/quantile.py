"""Preference quantization (Section 3.1 of the paper).

Each player divides their preference list into ``k`` *quantiles* of
(nearly) equal size: ``Q_1`` holds the ``deg(v)/k`` most favored
partners, ``Q_2`` the next ``deg(v)/k``, and so on.

The paper writes ``q(u) = ⌈P(u)/k⌉``, which is a typo: it is
inconsistent with the sentence that follows ("Q_1 is the set of v's
``deg(v)/k`` favorite partners") and with the use of ``k`` as *the
number of quantiles* throughout the analysis (e.g. Lemma 3 divides a
list into ``k`` quantiles).  We implement the intended definition

    ``q(u) = ⌈ P(u) · k / deg(v) ⌉  ∈ {1, …, k}``,

which yields exactly ``k`` quantiles of size at most ``⌈deg(v)/k⌉``.
When ``deg(v) < k`` some quantiles are empty and each holds at most one
partner — the algorithm then degenerates to classical Gale–Shapley
behavior for that player, as noted after Algorithm 1.

Quantiles never decrease along a list, so each ``Q_q`` is a run of list
offsets; :func:`offset_quantile` and :func:`quantile_run` are the two
formulas all three engines read them through: the vec backend on int64
arrays, the Python backend and the CONGEST node programs on ints.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.errors import InvalidParameterError

__all__ = ["offset_quantile", "quantile_run", "quantile_index"]


#: An int, or an int64 numpy array (this module never imports numpy).
_IntOrArray = Any


def offset_quantile(
    off: _IntOrArray, deg: _IntOrArray, k: int
) -> _IntOrArray:
    """The quantile of the partner at 0-based list offset ``off``.

    ``⌈(off + 1)·k / deg⌉`` in integer arithmetic; ``off`` and ``deg``
    may be ints or int64 arrays (``0 <= off < deg``, ``k >= 1``).

    >>> [offset_quantile(off, 10, 5) for off in range(10)]
    [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
    """
    return -((-1 - off) * k // deg)


def quantile_run(
    q: _IntOrArray, deg: _IntOrArray, k: int
) -> Tuple[_IntOrArray, _IntOrArray]:
    """``(first, end)``: the offsets ``[first, end)`` of quantile ``q``.

    The run is empty (``first == end``) when ``deg < k`` leaves ``Q_q``
    without a partner.  Takes ints or int64 arrays, as
    :func:`offset_quantile`.

    >>> [quantile_run(q, 10, 5) for q in (1, 5)]
    [(0, 2), (8, 10)]
    >>> quantile_run(1, 3, 8)
    (0, 0)
    """
    return (q - 1) * deg // k, q * deg // k


def quantile_index(rank: int, degree: int, k: int) -> int:
    """The quantile ``q ∈ {1, …, k}`` of the partner with 1-based ``rank``.

    Parameters
    ----------
    rank:
        1-based position on the preference list (``P_v(u)``).
    degree:
        Length of the preference list (``deg(v)``).
    k:
        Number of quantiles.

    Examples
    --------
    >>> [quantile_index(r, 10, 5) for r in range(1, 11)]
    [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
    >>> quantile_index(1, 3, 8)
    3
    """
    if k < 1:
        raise InvalidParameterError(f"quantile count k must be >= 1, got {k}")
    if not 1 <= rank <= degree:
        raise InvalidParameterError(
            f"rank must be in [1, degree]; got rank={rank}, degree={degree}"
        )
    return offset_quantile(rank - 1, degree, k)
