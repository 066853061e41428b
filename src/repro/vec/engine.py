"""Batched ProposalRound / QuantileMatch state over a :class:`VecProfile`.

:class:`VecState` is the mutable struct-of-arrays twin of the pure-Python
backend of :class:`~repro.core.asm.ASMEngine`, which keeps the same
CSR-position layout in stdlib arrays and steps through it player by
player; both expose the same methods.
One bool array ``present`` replaces both sides' removal sets (edge
removals are always paired: Step 4 removes a man from a woman's list
exactly when Step 5 removes her from his), and a
man's active set ``A`` is represented implicitly as *the present edges
of his activated quantile* (``activated[m]``; ``False`` = empty).

Three per-player pointers make every step cost O(what it changes), not
O(n) or O(|E|):

* a per-man *first-present cursor* (``_m_first``): every position of
  his before it is absent, so activation reads his best nonempty
  quantile from there instead of his whole segment;
* a per-woman *cut* (``_w_cut``): her positions before it are still on
  her list, and from it on only her partner's is (Lemma 1);
* a *bad-men frontier* (``_frontier``): an ascending superset of the
  bad men.  Matched and exhausted men drop out when a gate filters it;
  men unseated by Step 5 with ``|Q| > 0`` join.  Every gate, and
  :meth:`bad_men`, filters it by the live predicate, so the outer loop
  never scans all men to find who proposes.

The five steps of Algorithm 1 become whole-array operations over every
active man at once:

1. *propose* — along the activated-position array ``P``: each
   candidate's present positions in his best nonempty quantile, read
   from his cursor to the end of that quantile's run;
2. *accept* — per-woman smallest proposing woman-side position via
   ``np.minimum.at``; she accepts the suitors before the end of the
   quantile run holding it;
3. *maximal matching* — the deterministic mutual-pointer protocol,
   vectorized, on the compiled ``G₀`` labels of :mod:`repro.mm.g0`
   (identical iteration counts, hence identical round charges, to its
   stdlib twin :func:`repro.mm.deterministic
   .deterministic_maximal_matching`);
4. *reject* — a newly matched woman rejects her positions from the
   start of her new partner's quantile run up to her cut, less his,
   plus her old partner's: two contiguous woman-side runs and one
   position, gathered in one batch with no presence mask; her cut
   moves to the run start;
5. *bookkeeping* — the re-matched women's old partners lose their
   partner and, with partners left, rejoin the frontier; ``P`` keeps
   the positions still present of men still unmatched.

State-transition order mirrors the reference engine exactly where order
matters (partner assignment before rejection clears); everywhere else
the reference's per-player loops are order-independent, which is what
makes the batched version bit-identical.  The equivalence suite
(``tests/test_vec_equivalence.py``) pins this against the seed
reference ProposalRound, kept in the tests, over the full workload grid,
and ``tests/test_vec_pointers.py`` recomputes the cut, cursor and
frontier invariants from ``present`` after every Step 4.

This module is internal to :class:`~repro.core.asm.ASMEngine`'s
``optimized="vec"`` mode; it deliberately knows nothing about
telemetry, observers, or round accounting — the engine owns those so
both backends share one implementation of the contract.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple

from repro.core.matching import Matching
from repro.core.quantile import offset_quantile, quantile_run
from repro.errors import InvalidMatchingError, SimulationError
from repro.mm.deterministic import ROUNDS_PER_POINTER_ROUND
from repro.mm.g0 import G0
from repro.mm.result import MMResult
from repro.vec.compile import VecProfile

try:  # numpy is optional (repro[fast]); guarded like the package init.
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

__all__ = ["VecState"]

# Larger than any valid mm key / position; scratch-reset sentinel.
_BIG = np.iinfo(np.int64).max if np is not None else 0


def _ranges(starts: "np.ndarray", lens: "np.ndarray") -> "np.ndarray":
    """The runs ``[starts[i], starts[i] + lens[i])``, concatenated."""
    offs = np.cumsum(lens)
    idx = np.arange(int(offs[-1]) if offs.size else 0, dtype=np.int64)
    offs -= lens
    idx += np.repeat(starts - offs, lens)
    return idx


def _int64_array(a: "np.ndarray") -> array:
    """``a`` as an ``array("q")``, in one buffer copy."""
    buf = np.ascontiguousarray(a, dtype=np.int64)
    out = array("q")
    out.frombytes(memoryview(buf).cast("B"))
    return out


def _tally(keys: "np.ndarray", scratch: "np.ndarray") -> Tuple[int, int]:
    """``(distinct values, largest multiplicity)`` of nonempty ``keys``.

    ``scratch`` spans every possible value.  Few keys are counted in it
    on exactly the entries they touch, in O(|keys|); many keys get one
    ``bincount``, in O(|keys| + |scratch|).
    """
    if 4 * keys.size >= scratch.size:
        counts = np.bincount(keys)
        return int(np.count_nonzero(counts)), int(counts.max())
    order = np.arange(keys.size)
    scratch[keys] = order  # one write per distinct key survives
    distinct = int(np.count_nonzero(scratch[keys] == order))
    scratch[keys] = 0
    np.add.at(scratch, keys, 1)
    return distinct, int(scratch[keys].max())


class VecState:
    """Mutable engine state in struct-of-arrays form (see module doc)."""

    def __init__(self, profile: VecProfile, check_invariants: bool = False) -> None:
        self.profile = profile
        self.check_invariants = check_invariants
        e = profile.num_edges
        n_men, n_women = profile.n_men, profile.n_women

        # Edge (man-side position) presence: True until rejected.
        self.present = np.ones(e, dtype=bool)
        # |Q| per man (men only: the outer loop thresholds on it).
        self.m_remaining = profile.m_degree.copy()
        # Partners; -1 = unmatched.
        self.man_partner = np.full(n_men, -1, dtype=np.int64)
        self.woman_partner = np.full(n_women, -1, dtype=np.int64)
        # Man-side position of each woman's matched edge (-1 = none);
        # lets invariant checks find her current partner's quantile.
        self.woman_partner_pos = np.full(n_women, -1, dtype=np.int64)
        # Whether each man's A is nonempty; only the men of the last
        # activation can be True.
        self.activated = np.zeros(n_men, dtype=bool)
        self._activated = np.empty(0, dtype=np.int64)
        # Candidate positions of the activated quantiles, refiltered
        # each round (monotonically shrinking within a QuantileMatch).
        self._P = np.empty(0, dtype=np.int64)
        # First-present cursor per man (man-side position): every
        # position of his before it is absent.
        self._m_first = profile.m_indptr[:-1].copy()
        # Cut per woman (woman-side position): her positions before it
        # are present; from it on, only her partner's is.
        self._w_cut = profile.w_indptr[1:].copy()
        # Ascending superset of the bad men, and the men unseated since
        # a gate last filtered it (see _bad_frontier).
        self._frontier = np.flatnonzero(self.m_remaining > 0)
        self._joiners: List["np.ndarray"] = []
        # Men with |Q| >= t, indexed by t; None once a rejection has
        # changed some |Q|.
        self._at_least: Optional["np.ndarray"] = None

        # Scratch arrays, reset per use on exactly the touched indices.
        self._scratch_m = np.empty(n_men, dtype=np.int64)
        self._scratch_w = np.empty(n_women, dtype=np.int64)
        self._married_m = np.zeros(n_men, dtype=bool)
        self._married_w = np.zeros(n_women, dtype=bool)

        # Per-round intermediates (valid between the step_* calls of one
        # ProposalRound; owned by the engine's phase structure).
        self._acc_m = self._acc_w = self._acc_pos = None
        self._mm_m = self._mm_w = self._mm_pos = None

    # ------------------------------------------------------------------
    # Outer-loop queries
    # ------------------------------------------------------------------

    def participating_count(self, threshold: int) -> int:
        """How many men have ``|Q| >= threshold`` (Algorithm 3's ``2^i``
        gate).

        Read from a suffix-summed histogram of ``|Q|``, rebuilt in O(n)
        only after a rejection has changed some ``|Q|``.
        """
        at_least = self._at_least
        if at_least is None:
            at_least = np.cumsum(np.bincount(self.m_remaining)[::-1])[::-1]
            self._at_least = at_least
        return int(at_least[threshold]) if threshold < at_least.size else 0

    def remaining_snapshot(self) -> "np.ndarray":
        """A copy of ``|Q|`` per man, for :meth:`candidates`."""
        return self.m_remaining.copy()

    def candidates(
        self, threshold: int, remaining: Optional["np.ndarray"] = None
    ) -> "np.ndarray":
        """The men who would propose at ``threshold``, ascending: bad
        (unmatched, ``|Q| > 0``) with ``|Q| >= threshold``.

        ``remaining``, a :meth:`remaining_snapshot`, is read for ``|Q|``
        in the threshold test instead: the bad men among those who took
        part when it was taken.  O(|frontier|); one QuantileMatch gate
        computes this once and passes it on to :meth:`activate`.
        """
        bad = self._bad_frontier()
        if remaining is None:
            remaining = self.m_remaining
        return bad[remaining[bad] >= threshold]

    def _bad_frontier(self) -> "np.ndarray":
        """The bad men, ascending: the frontier and its joiners, filtered
        by the live predicate (and stored back)."""
        f = self._frontier
        if self._joiners:
            # A sorted run plus the joiners, which a stable sort (a
            # run-merging one) orders in O(f + j log j); a joiner may
            # already be in the run (matched and unseated since the
            # last filter).
            f = np.concatenate([f, *self._joiners])
            f.sort(kind="stable")
            self._joiners = []
            keep = np.ones(f.size, dtype=bool)
            np.not_equal(f[1:], f[:-1], out=keep[1:])
            f = f[keep]
        f = f[(self.man_partner[f] == -1) & (self.m_remaining[f] > 0)]
        self._frontier = f
        return f

    # ------------------------------------------------------------------
    # Classification and result conversions (array state -> Python ints)
    # ------------------------------------------------------------------

    def bad_men(self) -> List[int]:
        """Bad men, ascending."""
        return self._bad_frontier().tolist()

    def removed_men(self) -> List[int]:
        """Always empty: the almost-regular removal is Python-only."""
        return []

    def removed_count(self) -> int:
        """Always 0 (see :meth:`removed_men`)."""
        return 0

    def matching_size(self) -> int:
        """``|M|``: how many women hold a partner."""
        return int(np.count_nonzero(self.woman_partner >= 0))

    def matching(self) -> Matching:
        """The current matching, handed over as its pairs sorted by man.

        Raises :class:`InvalidMatchingError` if a man is seated with two
        women, naming the first repeat in woman order as the Python
        backend does.
        """
        ws = np.flatnonzero(self.woman_partner >= 0)
        ms = self.woman_partner[ws]
        seats = np.bincount(ms, minlength=self.profile.n_men)
        if ms.size and int(seats.max()) > 1:
            # The first man seen twice in a scan in woman order.
            _, first = np.unique(ms, return_index=True)
            repeat = np.ones(ms.size, dtype=bool)
            repeat[first] = False
            m = int(ms[np.flatnonzero(repeat)[0]])
            raise InvalidMatchingError(f"man {m} is matched more than once")
        men = np.flatnonzero(seats)
        woman_of = np.empty(self.profile.n_men, dtype=np.int64)
        woman_of[ms] = ws
        return Matching._from_sorted_pairs(
            _int64_array(men), _int64_array(woman_of[men])
        )

    # ------------------------------------------------------------------
    # QuantileMatch activation
    # ------------------------------------------------------------------

    def activate(self, men: "np.ndarray") -> None:
        """Candidate men activate their best nonempty quantile.

        ``men`` is what :meth:`candidates` returns.  A man's first
        present position is his best remaining rank, whose quantile is
        his best nonempty quantile (quantiles are non-decreasing along a
        list); ``A`` is the present positions from there to the end of
        that quantile's run.  His cursor finds the first one, so a call
        reads only the skipped positions and the activated runs.  Every
        other man's ``A`` is (and stays) empty —
        Lemma 2 guarantees all sets are empty on entry, so only the
        previous activation's men need their ``activated`` flag
        cleared.
        """
        p = self.profile
        self.activated[self._activated] = False
        self._activated = men
        if not men.size:
            self._P = np.empty(0, dtype=np.int64)
            return
        first = self._advance_cursors(men)
        base, deg = p.m_indptr[men], p.m_degree[men]
        q = offset_quantile(first - base, deg, p.k)
        self.activated[men] = True
        ends = base + quantile_run(q, deg, p.k)[1]
        idx = _ranges(first, ends - first)
        self._P = idx[self.present[idx]]

    def _advance_cursors(self, men: "np.ndarray") -> "np.ndarray":
        """Move each man's cursor to his first present position; returns
        the cursors of ``men``.

        Each pass steps every cursor still on an absent position once,
        so a call reads each skipped position once.  Each man has
        ``|Q| > 0``, so every cursor stops inside his segment.
        """
        present = self.present
        first = self._m_first[men]
        todo = np.flatnonzero(~present[first])
        while todo.size:
            first[todo] += 1
            todo = todo[~present[first[todo]]]
        self._m_first[men] = first
        return first

    def lemma2_holds(self) -> bool:
        """Whether every man's ``A`` is empty (post-QuantileMatch check)."""
        P = self._P
        if not P.size:
            return True
        # ``P`` only holds positions of its owners' activated runs.
        owners = self.profile.m_owner[P]
        live = self.present[P] & self.activated[owners]
        return not bool(live.any())

    # ------------------------------------------------------------------
    # Algorithm 1, vectorized: the four engine-visible phases
    # ------------------------------------------------------------------

    def step_propose(self) -> Optional[Tuple[int, int]]:
        """Step 1: men propose along ``P``; returns ``(n_proposals,
        max_work)`` or None.

        ``None`` mirrors the reference's "no proposals" early return.
        ``P`` is exact here: :meth:`activate` builds it and
        :meth:`step_reject` filters it.
        """
        p = self.profile
        P = self._P
        if not P.size:
            return None
        # max |A| over proposing men (Remark 4 per-processor work).
        max_work = _tally(p.m_owner[P], self._scratch_m)[1]
        return int(P.size), max_work

    def step_accept(self) -> Tuple[int, int]:
        """Step 2: each woman accepts her best proposing quantile.

        That is the quantile run holding her smallest proposing
        woman-side position: she accepts the suitors before its end.

        Returns ``(n_accepts, step_max_work)``; the accepted edge arrays
        are held for the MM and rejection steps.
        """
        p = self.profile
        P = self._P
        pw = p.m_woman[P]
        wpos = p.m2w_pos[P]
        best = self._scratch_w
        best[pw] = _BIG  # reset exactly the touched entries
        np.minimum.at(best, pw, wpos)
        base, deg = p.w_indptr[pw], p.w_degree[pw]
        q = offset_quantile(best[pw] - base, deg, p.k)
        acc = wpos < base + quantile_run(q, deg, p.k)[1]
        step_max = _tally(pw, self._scratch_w)[1]
        self._acc_pos = P[acc]
        self._acc_m = p.m_owner[self._acc_pos]
        self._acc_w = pw[acc]
        return int(self._acc_m.size), step_max

    def step_maximal_matching(
        self, mm_oracle: object
    ) -> Tuple[MMResult, G0, int, int]:
        """Step 3: deterministic mutual-pointer MM on the accepted graph.

        ``mm_oracle`` is the engine's Step-3 subroutine; the engine only
        builds this backend for the deterministic oracle, whose protocol
        is compiled in here, so it is not called.

        Returns ``(mm_result, g0, mm_work, men_removed)``, with
        ``men_removed`` always 0 (no almost-regular removal here).
        ``g0`` is ``G₀`` over the compiled labels, as int64 arrays.
        ``mm_result`` is a shim carrying the exact simulated round
        count (identical to the Python oracle's — same iterations, same
        ×2 rounds factor); its ``partner`` map and ``edges`` are empty
        and ``per_iteration_active`` is not tracked (nothing in the
        result contract consumes them).
        """
        p = self.profile
        am, aw, apos = self._acc_m, self._acc_w, self._acc_pos
        minw = self._scratch_m
        minm = self._scratch_w
        men, max_deg_m = _tally(am, minw)
        women, max_deg_w = _tally(aw, minm)
        mk, wk = p.m_mm_key[am], p.w_mm_key[aw]
        g0 = G0(mk, wk, num_nodes=men + women)
        max_g0_deg = max(max_deg_m, max_deg_w)

        marr_m, marr_w = self._married_m, self._married_w
        matched_m: List["np.ndarray"] = []
        matched_w: List["np.ndarray"] = []
        matched_pos: List["np.ndarray"] = []
        e_m, e_w, e_pos = am, aw, apos
        iterations = 0
        while e_m.size:
            minw[e_m] = _BIG
            minm[e_w] = _BIG
            np.minimum.at(minw, e_m, wk)
            np.minimum.at(minm, e_w, mk)
            # Every vertex points at its min-key neighbor; keys are
            # unique per node, so "my pointer is this edge" is a key
            # equality and mutual edges are automatically disjoint.
            mutual = (wk == minw[e_m]) & (mk == minm[e_w])
            mm_ = e_m[mutual]
            mw_ = e_w[mutual]
            matched_m.append(mm_)
            matched_w.append(mw_)
            matched_pos.append(e_pos[mutual])
            marr_m[mm_] = True
            marr_w[mw_] = True
            keep = ~(marr_m[e_m] | marr_w[e_w])
            marr_m[mm_] = False  # scratch reset: married vertices can't
            marr_w[mw_] = False  # reappear in the filtered edge list
            e_m = e_m[keep]
            e_w = e_w[keep]
            e_pos = e_pos[keep]
            mk = mk[keep]
            wk = wk[keep]
            iterations += 1
        self._mm_m = np.concatenate(matched_m) if matched_m else am[:0]
        self._mm_w = np.concatenate(matched_w) if matched_w else aw[:0]
        self._mm_pos = np.concatenate(matched_pos) if matched_pos else apos[:0]
        rounds = iterations * ROUNDS_PER_POINTER_ROUND
        mm_result = MMResult(partner={}, rounds=rounds)
        return mm_result, g0, rounds * max_g0_deg, 0

    def step_reject(self) -> Tuple[int, int, int]:
        """Steps 4–5: matched women reject; men process rejections.

        Returns ``(n_rejects, matched_in_m0, step_max_work)``.
        """
        p = self.profile
        mm_m, mm_w, mm_pos = self._mm_m, self._mm_w, self._mm_pos
        matched_in_m0 = int(mm_m.size)
        present = self.present

        # Each woman's "quantile >= q0" set starts at the first position
        # of her new partner's quantile run; by the cut invariant, what
        # she still holds of it is [start, cut) plus her old partner.
        wp0 = p.m2w_pos[mm_pos]
        base, deg = p.w_indptr[mm_w], p.w_degree[mm_w]
        q0 = offset_quantile(wp0 - base, deg, p.k)
        start = base + quantile_run(q0, deg, p.k)[0]
        cut = self._w_cut[mm_w]
        old = self.woman_partner[mm_w]
        if self.check_invariants:
            self._check_trade_up(mm_m, mm_w, start, old)
        had = old != -1
        old = old[had]
        old_pos = self.woman_partner_pos[mm_w[had]]
        idx = _ranges(
            np.concatenate([start, wp0 + 1]),
            np.concatenate([wp0 - start, cut - wp0 - 1]),
        )
        n_rejects = int(idx.size + old.size)
        step_max = int((cut - start - 1 + had).max()) if matched_in_m0 else 0

        # Step 4 state: remove rejected edges (both sides at once — the
        # reference's paired wq.remove/mq.remove), then seat the pairs.
        present[p.w2m_pos[idx]] = False
        present[old_pos] = False
        np.subtract.at(self.m_remaining, p.w_man[idx], 1)
        np.subtract.at(self.m_remaining, old, 1)
        if n_rejects:
            self._at_least = None
        self._w_cut[mm_w] = start
        self.woman_partner[mm_w] = mm_m
        self.woman_partner_pos[mm_w] = mm_pos
        self.man_partner[mm_m] = mm_w
        self.activated[mm_m] = False
        # Step 5: a man loses his partner when she is among his
        # rejectors, i.e. he is a re-matched woman's old partner.  He
        # was matched, so he proposed to no one this round and is not
        # among the just-seated men.
        self.man_partner[old] = -1
        joiners = old[self.m_remaining[old] > 0]
        if joiners.size:
            self._joiners.append(joiners)
        # Next round's P: what is still present of still-unmatched men.
        P = self._P
        self._P = P[present[P] & self.activated[p.m_owner[P]]]
        return n_rejects, matched_in_m0, step_max

    def _check_trade_up(
        self,
        mm_m: "np.ndarray",
        mm_w: "np.ndarray",
        start: "np.ndarray",
        old: "np.ndarray",
    ) -> None:
        """Lemma 1 invariant: a matched woman only trades up.

        Her old partner must still be on her list with a weakly-worse
        quantile than the new one — at or after ``start``, where the new
        one's run starts — i.e. he is in the rejected set.  Raises for
        the first offending woman in ``mm_w`` order.
        """
        old_pos = self.woman_partner_pos[mm_w]
        old_wp = self.profile.m2w_pos[old_pos]
        kept = self.present[old_pos] & (old_wp >= start)
        bad = (old != -1) & ((old == mm_m) | ~kept)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise SimulationError(
                f"woman {int(mm_w[i])} traded up to man {int(mm_m[i])} but "
                f"did not reject previous partner {int(old[i])}"
            )
