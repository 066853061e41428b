"""The vec backend's per-player pointers, recomputed from ``present``.

``VecState`` keeps three pointers so each step costs what it changes: a
per-woman *cut*, a per-man *first-present cursor* and a *frontier* of
bad men (see :mod:`repro.vec.engine`).  After every Step 4 of every
solve on the vec equivalence grid, each is checked against what
``present`` and the partner arrays say alone:

* cut — a woman's positions before her cut are present, and from it on
  only her partner's is;
* cursor — every position of a man before his cursor is absent;
* frontier — every bad man (unmatched, ``|Q| > 0``) is in the frontier
  or among its joiners.

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
from repro.errors import SimulationError  # noqa: E402
from repro.vec.compile import compile_profile  # noqa: E402
from repro.vec.engine import VecState  # noqa: E402
from repro.workloads.generators import GENERATORS  # noqa: E402
from tests.helpers import (  # noqa: E402
    TRADE_UP_CASES,
    TRADE_UP_LISTS,
    TRADE_UP_M0,
    TRADE_UP_SEATS,
)
from tests.reference_asm import reference_asm  # noqa: E402
from tests.test_vec_equivalence import GRID  # noqa: E402


def check_pointers(state: VecState) -> None:
    """Assert the cut, cursor and frontier invariants of ``state``."""
    p = state.profile
    on_her_list = state.present[p.w2m_pos]  # woman-side presence
    partner_wpos = np.full(p.n_women, -1, dtype=np.int64)
    seated = state.woman_partner_pos >= 0
    partner_wpos[seated] = p.m2w_pos[state.woman_partner_pos[seated]]
    for w in range(p.n_women):
        lo, hi = int(p.w_indptr[w]), int(p.w_indptr[w + 1])
        cut = int(state._w_cut[w])
        assert lo <= cut <= hi, f"woman {w}: cut {cut} outside [{lo}, {hi}]"
        assert on_her_list[lo:cut].all(), f"woman {w}: hole before cut"
        tail = cut + np.flatnonzero(on_her_list[cut:hi])
        expected = [partner_wpos[w]] if partner_wpos[w] >= cut else []
        assert tail.tolist() == expected, f"woman {w}: present after cut"
    for m in range(p.n_men):
        lo, first = int(p.m_indptr[m]), int(state._m_first[m])
        assert lo <= first <= int(p.m_indptr[m + 1])
        assert not state.present[lo:first].any(), f"man {m}: before cursor"
    bad = np.flatnonzero((state.man_partner == -1) & (state.m_remaining > 0))
    held = np.concatenate([state._frontier, *state._joiners])
    assert np.isin(bad, held).all(), "a bad man left the frontier"
    # |Q| is the count of his present positions.
    seen = np.concatenate([[0], np.cumsum(state.present)])
    counts = seen[p.m_indptr[1:]] - seen[p.m_indptr[:-1]]
    np.testing.assert_array_equal(state.m_remaining, counts)


@pytest.fixture
def checked_rejects(monkeypatch):
    """Check the pointers after every ``VecState.step_reject``; returns
    the list of checked steps' reject counts."""
    product = VecState.step_reject
    checked = []

    def step_reject(self):
        out = product(self)
        check_pointers(self)
        checked.append(out[0])
        return out

    monkeypatch.setattr(VecState, "step_reject", step_reject)
    return checked


class TestPointerInvariants:
    @pytest.mark.parametrize("name,kwargs", GRID)
    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
    def test_every_reject_on_grid(self, checked_rejects, name, kwargs, eps):
        prefs = GENERATORS[name](**kwargs)
        result = asm(prefs, eps, optimized="vec", check_invariants=True)
        assert checked_rejects and sum(checked_rejects) > 0
        assert result == reference_asm(prefs, eps)

    def test_run_flat(self, checked_rejects):
        prefs = GENERATORS["gnp"](n=22, p=0.35, seed=2)
        ASMEngine(prefs, 0.5, optimized="vec").run_flat(5)
        assert checked_rejects

    def test_fresh_state(self):
        prefs = GENERATORS["bounded"](n=20, d=6, seed=3)
        check_pointers(VecState(compile_profile(prefs, 4)))

    @pytest.mark.parametrize("threshold", [0, 1, 2, 4, 8, 64])
    def test_participating_count_follows_remaining(self, threshold):
        prefs = GENERATORS["zipf"](n=14, exponent=1.0, seed=8)
        engine = ASMEngine(prefs, 0.5, optimized="vec")
        state = engine._state
        for _ in range(3):
            expected = int((state.m_remaining >= threshold).sum())
            assert state.participating_count(threshold) == expected
            engine.quantile_match()


class TestTradeUpCheck:
    """Lemma 1's check names the first offending woman in M0 order, on
    the hand-made state of :data:`tests.helpers.TRADE_UP_M0` (the
    Python backend's twin is in ``tests/test_asm_engine.py``)."""

    def _state(self, order):
        prefs = PreferenceProfile(*TRADE_UP_LISTS)
        state = VecState(compile_profile(prefs, 3), check_invariants=True)
        p = state.profile
        for m, w in TRADE_UP_SEATS:
            state.man_partner[m] = w
            state.woman_partner[w] = m
            state.woman_partner_pos[w] = int(p.m_indptr[m]) + w
        pairs = [TRADE_UP_M0[i] for i in order]
        state._mm_m = np.array([m for m, _ in pairs], dtype=np.int64)
        state._mm_w = np.array([w for _, w in pairs], dtype=np.int64)
        state._mm_pos = p.m_indptr[state._mm_m] + state._mm_w
        return state

    @pytest.mark.parametrize("order,message", TRADE_UP_CASES)
    def test_first_offender_is_named(self, order, message):
        state = self._state(order)
        with pytest.raises(SimulationError) as exc:
            state.step_reject()
        assert str(exc.value) == message

    def test_lemma2_fails_right_after_activation(self):
        state = VecState(compile_profile(PreferenceProfile(*TRADE_UP_LISTS), 3))
        assert state.lemma2_holds()
        state.activate(state.candidates(0))
        assert not state.lemma2_holds()
