"""Candidate-segment activation ≡ the full-scan activation it replaced.

``VecState.activate`` reads only its candidate men's positions from their
first-present cursors to the end of their best nonempty quantile.  The
seed implementation scanned every present edge of the market on
each call; it is kept here as :func:`full_scan_activate`, a test-only
oracle in the manner of :mod:`tests.reference_asm`, which reads each
position's quantile from a whole-market table
(:func:`tests.helpers.position_quantiles`) instead of from the run
arithmetic the product uses.  At every
QuantileMatch of every solve on the vec equivalence grid, the product
activation's ``activated`` flags and candidate positions ``_P`` must
equal the oracle's exactly, recomputed from the same state and the same
participating mask.

Skipped as a whole when numpy is absent.
"""

from __future__ import annotations

import pytest

from repro.vec import HAS_NUMPY

if not HAS_NUMPY:
    pytest.skip(
        "numpy not installed (repro[fast] extra)", allow_module_level=True
    )

import numpy as np  # noqa: E402

from repro.core.asm import ASMEngine, asm  # noqa: E402
from repro.core.preferences import PreferenceProfile  # noqa: E402
from repro.vec.compile import compile_profile  # noqa: E402
from repro.vec.engine import VecState  # noqa: E402
from repro.workloads.generators import GENERATORS  # noqa: E402
from tests.helpers import position_quantiles  # noqa: E402
from tests.reference_asm import reference_asm  # noqa: E402
from tests.test_vec_equivalence import GRID  # noqa: E402


def full_scan_activate(self, part_mask: "np.ndarray") -> None:
    """Unmatched participating men activate their best nonempty quantile.

    Matches the reference: every other man's ``A`` is (and stays)
    empty — Lemma 2 guarantees all sets are empty on entry.
    """
    p = self.profile
    m_quant = position_quantiles(p.m_indptr, p.m_degree, p.k)
    # Activated quantile per man (-1 = A empty).
    active_q = np.full(p.n_men, -1, dtype=np.int64)
    self.activated[:] = False
    cand = part_mask & (self.man_partner == -1) & (self.m_remaining > 0)
    pos = np.flatnonzero(self.present)
    if not pos.size or not cand.any():
        self._P = np.empty(0, dtype=np.int64)
        return
    owners = p.m_owner[pos]
    # First present position per man: owners is non-decreasing
    # (CSR order), so firsts are the run boundaries — and the first
    # present position is the best remaining rank, whose quantile is
    # the best nonempty quantile (quantiles are non-decreasing).
    first = np.empty(owners.size, dtype=bool)
    first[0] = True
    np.not_equal(owners[1:], owners[:-1], out=first[1:])
    f_pos = pos[first]
    f_own = owners[first]
    sel = cand[f_own]
    active_q[f_own[sel]] = m_quant[f_pos[sel]]
    self.activated[:] = active_q != -1
    self._P = pos[active_q[owners] == m_quant[pos]]


def _check_against_oracle(activate, state: VecState, part_mask, cand) -> None:
    """Run ``activate(state, cand)``, then the oracle on the same state."""
    activate(state, cand)
    got_a, got_p = state.activated.copy(), state._P.copy()
    full_scan_activate(state, part_mask)  # activate writes nothing else
    np.testing.assert_array_equal(got_a, state.activated)
    np.testing.assert_array_equal(got_p, state._P)


@pytest.fixture
def checked_activation(monkeypatch):
    """Check every ``VecState.activate`` call against the oracle.

    The oracle takes the participating mask of the gate's threshold,
    rebuilt from ``|Q|`` when the gate runs, so ``candidates`` is
    pinned along with ``activate``; the gate's candidates must be
    exactly the mask's unmatched men with ``|Q| > 0``.  Returns the
    list of checked calls' candidate counts.
    """
    product_candidates = VecState.candidates
    product_activate = VecState.activate
    participating = {}
    checked = []

    def candidates(self, threshold, remaining=None):
        cand = product_candidates(self, threshold, remaining)
        if remaining is None:
            part_mask = self.m_remaining >= threshold
            participating[id(self)] = part_mask
            bad = (self.man_partner == -1) & (self.m_remaining > 0)
            np.testing.assert_array_equal(
                cand, np.flatnonzero(part_mask & bad)
            )
        return cand

    def activate(self, cand):
        _check_against_oracle(
            product_activate, self, participating[id(self)], cand
        )
        checked.append(int(cand.size))

    monkeypatch.setattr(VecState, "candidates", candidates)
    monkeypatch.setattr(VecState, "activate", activate)
    return checked


class TestActivationOracle:
    @pytest.mark.parametrize("name,kwargs", GRID)
    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
    def test_every_quantile_match_on_grid(
        self, checked_activation, name, kwargs, eps
    ):
        prefs = GENERATORS[name](**kwargs)
        result = asm(prefs, eps, optimized="vec", check_invariants=True)
        assert checked_activation and max(checked_activation) > 0
        # The oracle also left the state it checked: the run is intact.
        assert result == reference_asm(prefs, eps)

    @pytest.mark.parametrize("iterations", [1, 5])
    def test_run_flat_everyone_participates(
        self, checked_activation, iterations
    ):
        prefs = GENERATORS["gnp"](n=22, p=0.35, seed=2)
        ASMEngine(prefs, 0.5, optimized="vec").run_flat(iterations)
        assert len(checked_activation) >= 1

    def test_men_without_lists(self, checked_activation):
        prefs = PreferenceProfile([[], [0, 1], []], [[1], [1], []])
        asm(prefs, 0.5, optimized="vec", check_invariants=True)
        assert checked_activation == [1]


class TestHandBuiltState:
    def _state(self):
        # Man 0 ranks all eight women, man 1 four of them; k = 2 splits
        # man 0's list into ranks 1-4 | 5-8 and man 1's into 1-2 | 3-4.
        women_lists = [[0, 1] for _ in range(8)]
        for w in range(4, 8):
            women_lists[w] = [0]
        prefs = PreferenceProfile(
            [list(range(8)), [0, 1, 2, 3]], women_lists
        )
        state = VecState(compile_profile(prefs, 2))
        return state, state.profile

    def _reject(self, state, positions):
        state.present[positions] = False
        np.subtract.at(state.m_remaining, state.profile.m_owner[positions], 1)

    def test_holes_at_start_and_middle_of_best_quantile(self):
        state, p = self._state()
        start0 = int(p.m_indptr[0])
        # Man 0: ranks 1 and 3 of quantile 1 are gone; ranks 2 and 4
        # remain.  Man 1: his whole first quantile is gone.
        start1 = int(p.m_indptr[1])
        self._reject(state, [start0, start0 + 2, start1, start1 + 1])
        part = state.m_remaining >= 1
        cand = state.candidates(1)
        _check_against_oracle(VecState.activate, state, part, cand)
        assert state.activated.tolist() == [True, True]
        assert state._P.tolist() == [
            start0 + 1, start0 + 3, start1 + 2, start1 + 3,
        ]

    def test_matched_and_exhausted_men_stay_inactive(self):
        state, p = self._state()
        start1 = int(p.m_indptr[1])
        self._reject(state, list(range(start1, start1 + 4)))
        state.man_partner[0] = 5
        state.woman_partner[5] = 0
        part = state.m_remaining >= 0
        cand = state.candidates(0)
        assert not cand.size
        _check_against_oracle(VecState.activate, state, part, cand)
        assert state.activated.tolist() == [False, False]
        assert state._P.size == 0
