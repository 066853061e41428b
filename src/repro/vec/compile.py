"""Compile a :class:`PreferenceProfile` into flat struct-of-arrays form.

The ASM hot path asks four questions per edge per round — who owns it,
where does it sit on each endpoint's list, is it still present, and
what is the partner's id under the deterministic maximal-matching
order.  :class:`VecProfile` answers all of them with O(1) array
gathers:

* CSR adjacency per side (``m_indptr``/``m_woman``, ``w_indptr``/
  ``w_man``) in preference order, so ranks are implicit in position —
  int64 views of the profile's own buffers
  (:meth:`~repro.core.preferences.PreferenceProfile.men_csr`), not copies;
  ``m_owner`` is each man-side position's man;
* cross-side position maps (``m2w_pos``/``w2m_pos``) aligning the two
  CSR views of the same edge;
* no per-edge quantile table: quantiles are non-decreasing along a
  preference list, so each quantile is a run of positions, and a step
  reads quantiles and run bounds from positions through
  :func:`~repro.core.quantile.offset_quantile` and
  :func:`~repro.core.quantile.quantile_run` where it needs them;
* ``m_mm_key``/``w_mm_key`` — each player's ``G₀`` label
  (:func:`repro.mm.g0.decimal_str_order_keys`, the numpy twin of the
  Python backend's), whose order is the id order the deterministic
  maximal-matching oracle breaks ties by, so Step 3 runs on integers.

Every array is frozen (``writeable=False``): compilations are cached on
the profile (:meth:`PreferenceProfile.soa_cache`) and shared across
engines, so no caller may mutate another's view.

All ids fit comfortably in int64; arrays use int64 throughout for
uniformity (index gathers accept it natively).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.errors import InvalidParameterError
from repro.mm.g0 import decimal_str_order_keys, woman_label_base
from repro.vec import require_numpy

if TYPE_CHECKING:  # pragma: no cover
    from array import array

    from repro.core.preferences import PreferenceProfile

try:  # numpy is optional (repro[fast]); guarded like the package init.
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

__all__ = ["VecProfile", "compile_profile"]


def _adopt_csr(
    csr: Tuple["array", "array"]
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """``(indptr, targets, degree)`` of one side's ``(indptr, targets)``.

    ``indptr`` and ``targets`` are int64 views of the profile's own
    ``array('q')`` buffers, not copies.
    """
    indptr, targets = (np.frombuffer(buf, dtype=np.int64) for buf in csr)
    return indptr, targets, np.diff(indptr)


def _owners(degree: "np.ndarray") -> "np.ndarray":
    """The owner of each CSR position, from the per-player degrees."""
    return np.repeat(np.arange(degree.size, dtype=np.int64), degree)


class VecProfile:
    """Frozen struct-of-arrays compilation of one profile at one ``k``.

    Built by :func:`compile_profile`; see the module docstring for the
    role of each array.  ``pair_position`` additionally offers an
    O(log |E|) vectorized (man, woman) → man-side-position lookup, built
    lazily (only the stability counter needs it).
    """

    __slots__ = (
        "n_men",
        "n_women",
        "num_edges",
        "k",
        "m_indptr",
        "m_woman",
        "m_owner",
        "m_degree",
        "w_indptr",
        "w_man",
        "w_degree",
        "m2w_pos",
        "w2m_pos",
        "m_mm_key",
        "w_mm_key",
        "_pair_keys",
        "_pair_order",
    )

    def __init__(self, prefs: "PreferenceProfile", k: int) -> None:
        if k < 1:
            raise InvalidParameterError(f"quantile count k must be >= 1, got {k}")
        self.n_men = prefs.n_men
        self.n_women = prefs.n_women
        self.num_edges = prefs.num_edges
        self.k = k

        men, women = prefs.men_csr(), prefs.women_csr()
        self.m_indptr, self.m_woman, self.m_degree = _adopt_csr(men)
        self.w_indptr, self.w_man, self.w_degree = _adopt_csr(women)
        self.m_owner = _owners(self.m_degree)

        # Align the two CSR views of each edge by sorting both sides by
        # (woman, man); matching sort positions are the same edge.  The
        # pair packs into one int64 key, woman * n_men + man, which is
        # unique (a profile has no duplicate edges), so any argsort of it
        # is exactly the (woman, man) lexicographic permutation.  The
        # woman side is already sorted by woman, so a stable sort there
        # only merges the runs of each segment.
        e = self.num_edges
        order_m = np.argsort(self.m_woman * self.n_men + self.m_owner)
        order_w = np.argsort(
            _owners(self.w_degree) * self.n_men + self.w_man, kind="stable"
        )
        self.m2w_pos = np.empty(e, dtype=np.int64)
        self.w2m_pos = np.empty(e, dtype=np.int64)
        self.m2w_pos[order_m] = order_w
        self.w2m_pos[order_w] = order_m

        self.m_mm_key = decimal_str_order_keys(self.n_men)
        self.w_mm_key = decimal_str_order_keys(
            self.n_women, woman_label_base(self.n_men)
        )

        self._pair_keys: Optional["np.ndarray"] = None
        self._pair_order: Optional["np.ndarray"] = None

        for name in (
            "m_indptr",
            "m_woman",
            "m_owner",
            "m_degree",
            "w_indptr",
            "w_man",
            "w_degree",
            "m2w_pos",
            "w2m_pos",
            "m_mm_key",
            "w_mm_key",
        ):
            getattr(self, name).flags.writeable = False

    def pair_position(
        self, men: "np.ndarray", women: "np.ndarray"
    ) -> "np.ndarray":
        """Man-side CSR positions of the pairs ``(men[i], women[i])``.

        ``-1`` where the pair is not an edge of the profile, out-of-range
        ids included.  Lazily builds (and caches) a sorted-key index
        over all edges.
        """
        if self._pair_keys is None:
            keys = self.m_owner * max(self.n_women, 1) + self.m_woman
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            keys.flags.writeable = False
            order.flags.writeable = False
            self._pair_keys = keys
            self._pair_order = order
        keys = self._pair_keys
        men = men.astype(np.int64)
        out = np.full(men.size, -1, dtype=np.int64)
        ok = (men >= 0) & (men < self.n_men) & (women >= 0) & (
            women < self.n_women
        )
        if not keys.size:
            return out
        q = men[ok] * max(self.n_women, 1) + women[ok]
        i = np.minimum(np.searchsorted(keys, q), keys.size - 1)
        out[ok] = np.where(keys[i] == q, self._pair_order[i], -1)
        return out


def compile_profile(prefs: "PreferenceProfile", k: int) -> VecProfile:
    """The (cached) struct-of-arrays compilation of ``prefs`` at ``k``.

    Compilations are stored in the profile's
    :meth:`~repro.core.preferences.PreferenceProfile.soa_cache`, so
    every engine over the same immutable profile shares one frozen set
    of arrays per ``k``.
    """
    require_numpy()
    cache = prefs.soa_cache()
    compiled = cache.get(k)
    if not isinstance(compiled, VecProfile):
        compiled = VecProfile(prefs, k)
        cache[k] = compiled
    return compiled
