"""Batched ProposalRound / QuantileMatch state over a :class:`VecProfile`.

:class:`VecState` is the mutable struct-of-arrays twin of the pure-Python
backend of :class:`~repro.core.asm.ASMEngine`, which keeps the same
CSR-position layout in stdlib arrays and steps through it player by
player; both expose the same methods.
One bool array ``present`` replaces both sides' removal sets (edge
removals are always paired: Step 4 removes a man from a woman's list
exactly when Step 5 removes her from his), and a
man's active set ``A`` is represented implicitly as *the present edges
of his activated quantile* (``active_q[m]``; ``-1`` = empty).

The five steps of Algorithm 1 become whole-array operations over every
active man at once:

1. *propose* — filter the activated-position array ``P`` by presence
   and activation;
2. *accept* — per-woman best proposing quantile via ``np.minimum.at``;
3. *maximal matching* — the deterministic mutual-pointer protocol,
   vectorized, with min-by-``repr`` tie-breaking reproduced through the
   compiled integer keys (identical iteration counts, hence identical
   round charges, to :func:`repro.mm.deterministic
   .deterministic_maximal_matching`);
4. *reject* — each newly matched woman's "quantile >= q(p0)" set is a
   contiguous woman-side CSR suffix, gathered in one batch;
5. *bookkeeping* — partner clears for men rejected by their current
   partner, batched.

State-transition order mirrors the reference engine exactly where order
matters (partner assignment before rejection clears); everywhere else
the reference's per-player loops are order-independent, which is what
makes the batched version bit-identical.  The equivalence suite
(``tests/test_vec_equivalence.py``) pins this against the seed
reference ProposalRound, kept in the tests, over the full workload grid.

This module is internal to :class:`~repro.core.asm.ASMEngine`'s
``optimized="vec"`` mode; it deliberately knows nothing about
telemetry, observers, or round accounting — the engine owns those so
both backends share one implementation of the contract.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.matching import Matching
from repro.errors import InvalidMatchingError, SimulationError
from repro.mm.deterministic import ROUNDS_PER_POINTER_ROUND
from repro.mm.result import MMResult
from repro.vec.compile import VecProfile

try:  # numpy is optional (repro[fast]); guarded like the package init.
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

__all__ = ["G0Stats", "VecState"]

# Larger than any valid mm key / quantile; scratch-reset sentinel.
_BIG = np.iinfo(np.int64).max if np is not None else 0


class G0Stats:
    """Duck-typed stand-in for :class:`repro.graphs.Graph` in stats.

    ``ASMEngine._finalize_round`` only reads ``num_nodes`` and
    ``num_edges`` from the accepted-proposal graph; the vec path never
    materializes node objects, so this carries just the two counts.
    """

    __slots__ = ("num_nodes", "num_edges")

    def __init__(self, num_nodes: int, num_edges: int) -> None:
        self.num_nodes = num_nodes
        self.num_edges = num_edges


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
        # Activated quantile per man (-1 = A empty).
        self.active_q = np.full(n_men, -1, dtype=np.int64)
        # Candidate positions of the activated quantiles, refiltered
        # each round (monotonically shrinking within a QuantileMatch).
        self._P = np.empty(0, dtype=np.int64)

        # Scratch arrays, reset per use on exactly the touched indices.
        self._best_q_of_woman = np.empty(n_women, dtype=np.int64)
        self._min_wkey_of_man = np.empty(n_men, dtype=np.int64)
        self._min_mkey_of_woman = np.empty(n_women, dtype=np.int64)
        self._married_m = np.zeros(n_men, dtype=bool)
        self._married_w = np.zeros(n_women, dtype=bool)

        # Per-round intermediates (valid between the step_* calls of one
        # ProposalRound; owned by the engine's phase structure).
        self._acc_m = self._acc_w = self._acc_pos = None
        self._mm_m = self._mm_w = self._mm_pos = None

    # ------------------------------------------------------------------
    # Outer-loop queries
    # ------------------------------------------------------------------

    def participating(self, threshold: int) -> "np.ndarray":
        """Men with ``|Q| >= threshold`` (Algorithm 3's ``2^i`` gate)."""
        return self.m_remaining >= threshold

    def count(self, part_mask: "np.ndarray") -> int:
        """How many men ``part_mask`` holds."""
        return int(part_mask.sum())

    def candidates(self, part_mask: "np.ndarray") -> "np.ndarray":
        """The masked men who would propose: unmatched, with ``|Q| > 0``.

        One QuantileMatch gate computes this once and passes it on to
        :meth:`activate`.
        """
        return part_mask & self.bad_mask()

    def bad_mask(self) -> "np.ndarray":
        """Bad men: unmatched with partners left to propose to."""
        return (self.man_partner == -1) & (self.m_remaining > 0)

    # ------------------------------------------------------------------
    # Classification and result conversions (array state -> Python ints)
    # ------------------------------------------------------------------

    def man_is_good(self, m: int) -> bool:
        """Good = matched, or rejected by every acceptable partner."""
        return bool(self.man_partner[m] != -1 or self.m_remaining[m] == 0)

    def good_men(self) -> List[int]:
        """Good men (matched or fully rejected), ascending."""
        return np.flatnonzero(~self.bad_mask()).tolist()

    def bad_men(self) -> List[int]:
        """Bad men, ascending."""
        return np.flatnonzero(self.bad_mask()).tolist()

    def removed_men(self) -> List[int]:
        """Always empty: the almost-regular removal is Python-only."""
        return []

    def matching(self) -> Matching:
        """The current matching, built from ``woman_partner`` as arrays.

        Raises :class:`InvalidMatchingError` if a man is seated with two
        women, naming the man :class:`Matching` itself would name.
        """
        ws = np.flatnonzero(self.woman_partner >= 0)
        ms = self.woman_partner[ws]
        seats = np.bincount(ms, minlength=self.profile.n_men)
        if ms.size and int(seats.max()) > 1:
            # Matching(pairs) scans in woman order and stops at the
            # first man it has already seen.
            _, first = np.unique(ms, return_index=True)
            repeat = np.ones(ms.size, dtype=bool)
            repeat[first] = False
            m = int(ms[np.flatnonzero(repeat)[0]])
            raise InvalidMatchingError(f"man {m} is matched more than once")
        men = np.flatnonzero(seats)
        woman_of = np.empty(self.profile.n_men, dtype=np.int64)
        woman_of[ms] = ws
        return Matching._adopt(
            dict(zip(men.tolist(), woman_of[men].tolist())),
            dict(zip(ws.tolist(), ms.tolist())),
        )

    # ------------------------------------------------------------------
    # QuantileMatch activation
    # ------------------------------------------------------------------

    def activate(self, cand: "np.ndarray") -> None:
        """Candidate men activate their best nonempty quantile.

        ``cand`` is the mask :meth:`candidates` returns.  Only the
        candidates' CSR segments are read, so a call costs
        O(Σ deg(candidates)), not O(|E|).  A man's first present
        position is his best remaining rank, whose quantile is his best
        nonempty quantile (quantiles are non-decreasing along a list);
        ``A`` is the present positions of that quantile.  Every other
        man's ``A`` is (and stays) empty — Lemma 2 guarantees all sets
        are empty on entry.
        """
        p = self.profile
        active_q = self.active_q
        active_q.fill(-1)
        men = np.flatnonzero(cand)
        if not men.size:
            self._P = np.empty(0, dtype=np.int64)
            return
        # The candidates' segments, concatenated: segment i starts at
        # offs[i] in idx and at m_indptr[men[i]] in the CSR arrays.
        lens = p.m_degree[men]
        offs = np.cumsum(lens)
        idx = np.arange(int(offs[-1]), dtype=np.int64)
        offs -= lens
        idx += np.repeat(p.m_indptr[men] - offs, lens)
        pos = idx[self.present[idx]]  # present positions, ascending
        del idx
        # A man's |Q| is his count of present positions (>= 1 for a
        # candidate), so his first one sits at the exclusive prefix sum.
        counts = self.m_remaining[men]
        q = p.m_quant[pos[np.cumsum(counts) - counts]]
        active_q[men] = q
        self._P = pos[p.m_quant[pos] == np.repeat(q, counts)]

    def lemma2_holds(self) -> bool:
        """Whether every man's ``A`` is empty (post-QuantileMatch check)."""
        P = self._P
        if not P.size:
            return True
        p = self.profile
        live = self.present[P] & (self.active_q[p.m_owner[P]] == p.m_quant[P])
        return not bool(live.any())

    # ------------------------------------------------------------------
    # Algorithm 1, vectorized: the four engine-visible phases
    # ------------------------------------------------------------------

    def step_propose(self) -> Optional[Tuple[int, int]]:
        """Step 1: filter ``P``; returns ``(n_proposals, max_work)`` or None.

        ``None`` mirrors the reference's "no proposals" early return.
        """
        p = self.profile
        P = self._P
        if P.size:
            keep = self.present[P] & (self.active_q[p.m_owner[P]] == p.m_quant[P])
            P = P[keep]
            self._P = P
        if not P.size:
            return None
        # max |A| over proposing men (Remark 4 per-processor work).
        max_work = int(np.bincount(p.m_owner[P]).max())
        return int(P.size), max_work

    def step_accept(self) -> Tuple[int, int]:
        """Step 2: each woman accepts her best proposing quantile.

        Returns ``(n_accepts, step_max_work)``; the accepted edge arrays
        are held for the MM and rejection steps.
        """
        p = self.profile
        P = self._P
        pw = p.m_woman[P]
        wq = p.wq_of_edge[P]
        best = self._best_q_of_woman
        best[pw] = _BIG  # reset exactly the touched entries
        np.minimum.at(best, pw, wq)
        acc = wq == best[pw]
        step_max = int(np.bincount(pw).max())
        self._acc_pos = P[acc]
        self._acc_m = p.m_owner[self._acc_pos]
        self._acc_w = pw[acc]
        return int(self._acc_m.size), step_max

    def step_maximal_matching(
        self, mm_oracle: object
    ) -> Tuple[MMResult, G0Stats, int, int]:
        """Step 3: deterministic mutual-pointer MM on the accepted graph.

        ``mm_oracle`` is the engine's Step-3 subroutine; the engine only
        builds this backend for the deterministic oracle, whose protocol
        is compiled in here, so it is not called.

        Returns ``(mm_result, g0_stats, mm_work, men_removed)``, with
        ``men_removed`` always 0 (no almost-regular removal here).
        ``mm_result`` is a
        shim carrying the exact simulated round count (identical to the
        Python oracle's — same iterations, same ×2 rounds factor); its
        ``partner`` map is empty and ``per_iteration_active`` is not
        tracked (nothing in the result contract consumes it).
        """
        p = self.profile
        am, aw, apos = self._acc_m, self._acc_w, self._acc_pos
        degm = np.bincount(am)
        degw = np.bincount(aw)
        g0 = G0Stats(
            num_nodes=int((degm > 0).sum() + (degw > 0).sum()),
            num_edges=int(am.size),
        )
        max_g0_deg = int(max(degm.max(), degw.max()))

        minw = self._min_wkey_of_man
        minm = self._min_mkey_of_woman
        marr_m, marr_w = self._married_m, self._married_w
        mkey, wkey = p.m_mm_key, p.w_mm_key
        matched_m: List["np.ndarray"] = []
        matched_w: List["np.ndarray"] = []
        matched_pos: List["np.ndarray"] = []
        e_m, e_w, e_pos = am, aw, apos
        iterations = 0
        while e_m.size:
            wk = wkey[e_w]
            mk = mkey[e_m]
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

        # Each woman's "quantile >= q(p0)" set is the suffix of her CSR
        # segment starting at the first position of p0's quantile run.
        wpos0 = p.m2w_pos[mm_pos]
        starts = p.w_first_same_q[wpos0]
        ends = p.w_indptr[mm_w + 1]
        lens = ends - starts
        total = int(lens.sum())
        rep = np.repeat(np.arange(mm_m.size, dtype=np.int64), lens)
        offs = np.cumsum(lens) - lens
        idx = np.arange(total, dtype=np.int64) - offs[rep] + starts[rep]
        cand_pos = p.w2m_pos[idx]
        mask = (idx != wpos0[rep]) & present[cand_pos]
        rej_pos = cand_pos[mask]
        n_rejects = int(rej_pos.size)
        step_max = 0
        if matched_in_m0 and n_rejects:
            counts = np.bincount(rep[mask], minlength=matched_in_m0)
            step_max = int(counts.max())

        if self.check_invariants:
            self._check_trade_up(mm_m, mm_w, mm_pos)

        # Step 4 state: remove rejected edges (both sides at once — the
        # reference's paired wq.remove/mq.remove), then seat the pairs.
        present[rej_pos] = False
        rej_m = p.m_owner[rej_pos]
        rej_w = p.m_woman[rej_pos]
        np.subtract.at(self.m_remaining, rej_m, 1)
        self.woman_partner[mm_w] = mm_m
        self.woman_partner_pos[mm_w] = mm_pos
        self.man_partner[mm_m] = mm_w
        self.active_q[mm_m] = -1
        # Step 5: a man loses his partner when she is among his
        # rejectors — checked after all Step-4 seatings, as in the
        # reference (a just-seated man is never unseated).
        cur = self.man_partner[rej_m] == rej_w
        self.man_partner[rej_m[cur]] = -1
        return n_rejects, matched_in_m0, step_max

    def _check_trade_up(
        self, mm_m: "np.ndarray", mm_w: "np.ndarray", mm_pos: "np.ndarray"
    ) -> None:
        """Lemma 1 invariant: a matched woman only trades up.

        Her old partner must still be on her list with a weakly-worse
        quantile than the new one — i.e. he is in the rejected set.
        """
        p = self.profile
        for i in range(int(mm_m.size)):
            w = int(mm_w[i])
            m0 = int(mm_m[i])
            old = int(self.woman_partner[w])
            if old == -1:
                continue
            old_pos = int(self.woman_partner_pos[w])
            q0 = int(p.wq_of_edge[mm_pos[i]])
            if (
                old == m0
                or not bool(self.present[old_pos])
                or int(p.wq_of_edge[old_pos]) < q0
            ):
                raise SimulationError(
                    f"woman {w} traded up to man {m0} but did not "
                    f"reject previous partner {old}"
                )
