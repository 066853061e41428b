"""The ASM almost-stable-matching algorithm (Algorithms 1–3 of the paper).

This module implements the paper's primary contribution as a *logical
engine*: the algorithm runs as centralized code over global state, but
performs only operations the distributed processors could perform, and
maintains exact communication-round accounting (see
:mod:`repro.core.rounds`).  A message-level CONGEST implementation of
the same protocol lives in :mod:`repro.congest.protocols` and is
cross-validated against this engine.

Structure (paper Section 3):

* ``ProposalRound(Q, k, A)`` — Algorithm 1, the five-step
  propose/accept/maximal-match/reject round.
* ``QuantileMatch(Q, k)`` — Algorithm 2, iterates ProposalRound ``k``
  times; afterwards every man's active set ``A`` is empty (Lemma 2).
* ``ASM(P, ε, n)`` — Algorithm 3, the degree-thresholded outer loop
  (men participate in iteration ``i`` only while ``|Q| ≥ 2^i``) around
  an inner loop of ``2δ⁻¹k`` QuantileMatch calls, with ``k = ⌈8/ε⌉``
  and ``δ = ε/8``.

:class:`ASMEngine` writes this schedule once; the per-player state and
the steps of one ProposalRound come from a backend with a shared method
set — the stdlib ``_PyState`` below or the numpy
:class:`repro.vec.engine.VecState`.

Guarantees reproduced (and checked by the test suite):

* Theorem 3 — the output has at most ``ε·|E|`` blocking pairs.
* Theorem 4 — ``O(ε⁻³ log⁵ n)`` scheduled rounds under the HKP cost
  model.
* Lemma 1 — matched women never become unmatched and only trade up.
* Lemma 2 — ``A = ∅`` for every man after each QuantileMatch.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import asdict, dataclass, field
from itertools import islice, repeat
from operator import sub
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile
from repro.core.quantile import offset_quantile, quantile_run
from repro.core.rounds import (
    CONSTANT_ROUNDS_PER_PROPOSAL_ROUND,
    HKPCost,
    MMCostModel,
    RoundCounter,
)
from repro.errors import (
    InvalidMatchingError,
    InvalidParameterError,
    SimulationError,
)
from repro.mm.deterministic import deterministic_maximal_matching
from repro.mm.g0 import G0, str_order_keys, woman_label_base
from repro.mm.oracles import MMOracle, deterministic_oracle
from repro.mm.result import MMResult
from repro.mm.verify import violating_vertices
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry

if TYPE_CHECKING:
    from repro.vec.engine import VecState

__all__ = [
    "params_for_eps",
    "ProposalRoundStats",
    "OuterIterationStats",
    "MessageStats",
    "ASMResult",
    "ASMObserver",
    "ASMEngine",
    "asm",
]


def params_for_eps(eps: float) -> Tuple[int, float]:
    """The paper's parameter choices: ``k = ⌈8/ε⌉`` and ``δ = ε/8``.

    Theorem 3's accounting: good men contribute at most ``4|E|/k ≤
    ε|E|/2`` blocking pairs (Lemmas 3–4) and bad men at most
    ``4δ|E| = ε|E|/2`` (Lemma 5).

    ``eps`` must satisfy ``0 < eps ≤ 1``: beyond 1 the guarantee is
    vacuous (every matching has ≤ |E| blocking pairs) while the derived
    parameters break the accounting — ``k = ⌈8/ε⌉`` collapses toward 1
    (no quantile structure left for Lemma 3) and ``δ = ε/8`` exceeds
    the 1/8 ceiling Lemma 5's ``4δ|E| ≤ ε|E|/2`` split relies on.
    """
    if not 0.0 < eps <= 1.0:
        raise InvalidParameterError(
            f"eps must satisfy 0 < eps <= 1, got {eps}"
        )
    return math.ceil(8.0 / eps), eps / 8.0


def default_inner_iterations(k: int, delta: float) -> int:
    """Algorithm 3's inner-loop length ``⌈2δ⁻¹k⌉``."""
    return math.ceil(2.0 * k / delta)


def default_outer_iterations(n_men: int, n_women: int) -> int:
    """Algorithm 3's outer-loop length ``⌈log₂ n⌉ + 1``."""
    return math.ceil(math.log2(max(2, n_men, n_women))) + 1


@dataclass
class MessageStats:
    """Counts of algorithm-level messages (CONGEST payloads)."""

    proposes: int = 0
    accepts: int = 0
    rejects: int = 0

    @property
    def total(self) -> int:
        """All PROPOSE + ACCEPT + REJECT messages sent."""
        return self.proposes + self.accepts + self.rejects


@dataclass
class ProposalRoundStats:
    """Per-ProposalRound instrumentation."""

    proposals: int
    accepts: int
    rejects: int
    g0_nodes: int
    g0_edges: int
    matched_in_m0: int
    mm_rounds: int
    men_removed: int = 0
    max_player_work: int = 0


@dataclass
class OuterIterationStats:
    """Per-outer-iteration instrumentation (Algorithm 3's ``i`` loop)."""

    index: int
    threshold: int
    participating_men_start: int
    participating_men_end: int
    bad_participating_men_end: int
    bad_in_start_set_end: int
    quantile_match_calls_executed: int
    quantile_match_calls_scheduled: int

    @property
    def lemma6_bad_fraction(self) -> float:
        """Lemma 6's quantity: bad men within the iteration's starting
        active set ``A``, as a fraction of ``|A|`` — bounded by δ after
        the full ``2δ⁻¹k`` inner loop."""
        if self.participating_men_start == 0:
            return 0.0
        return self.bad_in_start_set_end / self.participating_men_start


@dataclass
class ASMResult:
    """Everything ASM (or a variant) produced, plus instrumentation.

    ``good_men`` are men who are matched or have been rejected by every
    acceptable partner at termination; ``bad_men`` are the rest
    (Section 4's ``G`` and ``B``); ``removed_men`` only appears in the
    almost-regular variant (violators of Definition 3 removed from
    play — they are counted separately, not as good or bad).
    """

    matching: Matching
    eps: float
    k: int
    delta: float
    n_men: int
    n_women: int
    num_edges: int
    bad_men: FrozenSet[int]
    removed_men: FrozenSet[int]
    rounds: RoundCounter
    messages: MessageStats
    proposal_rounds_executed: int
    proposal_rounds_scheduled: int
    quantile_match_calls_executed: int
    quantile_match_calls_scheduled: int
    synchronous_time: int = 0
    outer_iterations: List[OuterIterationStats] = field(default_factory=list)

    @property
    def rounds_active(self) -> int:
        """Rounds in which at least one message was exchanged."""
        return self.rounds.rounds_active

    @property
    def rounds_scheduled(self) -> int:
        """Rounds of the paper's fixed worst-case schedule."""
        return self.rounds.rounds_scheduled

    @property
    def good_men(self) -> FrozenSet[int]:
        """The men neither bad nor removed, derived on first read."""
        good = self.__dict__.get("_good_men")
        if good is None:
            good = frozenset(range(self.n_men))
            good -= self.bad_men | self.removed_men
            self.__dict__["_good_men"] = good
        return good

    @property
    def good_fraction(self) -> float:
        """Fraction of men that are good at termination."""
        if self.n_men == 0:
            return 1.0
        return len(self.good_men) / self.n_men

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable summary of the run (for the CLI/export)."""
        return {
            "matching": self.matching.to_dict(),
            "eps": self.eps,
            "k": self.k,
            "delta": self.delta,
            "n_men": self.n_men,
            "n_women": self.n_women,
            "num_edges": self.num_edges,
            "good_men": sorted(self.good_men),
            "bad_men": sorted(self.bad_men),
            "removed_men": sorted(self.removed_men),
            "rounds_active": self.rounds_active,
            "rounds_scheduled": self.rounds_scheduled,
            "synchronous_time": self.synchronous_time,
            "proposal_rounds_executed": self.proposal_rounds_executed,
            "proposal_rounds_scheduled": self.proposal_rounds_scheduled,
            "messages": {
                "proposes": self.messages.proposes,
                "accepts": self.messages.accepts,
                "rejects": self.messages.rejects,
            },
        }


class ASMObserver:
    """Hook points for instrumentation; subclass and override as needed.

    The engine calls these synchronously at well-defined protocol
    moments; observers must not mutate engine state.
    """

    def on_proposal_round_end(
        self, engine: "ASMEngine", stats: ProposalRoundStats
    ) -> None:
        """Called after each executed ProposalRound."""

    def on_quantile_match_end(self, engine: "ASMEngine") -> None:
        """Called after each executed QuantileMatch."""

    def on_outer_iteration_end(
        self, engine: "ASMEngine", stats: OuterIterationStats
    ) -> None:
        """Called after each outer-loop iteration of Algorithm 3."""


def _check_optimized(optimized: object) -> None:
    """Validate an ``optimized=`` backend choice (``True`` or ``"vec"``).

    Shared by :class:`ASMEngine` and every caller that forwards the
    value to it later, so a bad choice fails where it is made.
    """
    if optimized is not True and optimized != "vec":
        raise InvalidParameterError(
            "optimized must be True (pure-Python backend) or 'vec' "
            f"(numpy backend), got {optimized!r}"
        )
    if optimized == "vec":
        from repro.vec import require_numpy

        require_numpy()


def _cross_positions(
    men: Tuple[array, array], women: Tuple[array, array]
) -> Tuple[array, array]:
    """``(m2w, w2m)``: the woman-side CSR position of each man-side
    position of the same edge, and its inverse.

    One stdlib pass over the edges: a throwaway man → position dict per
    woman, probed per man through C-level ``map`` chains, then one
    inversion loop.
    """
    m_indptr, m_woman = men
    w_indptr, w_man = women
    w_pos = [
        dict(zip(w_man[a:b], range(a, b)))
        for a, b in zip(w_indptr, islice(w_indptr, 1, None))
    ]
    m2w = array("q")
    probe = dict.__getitem__
    for m, (a, b) in enumerate(zip(m_indptr, islice(m_indptr, 1, None))):
        m2w.extend(map(probe, map(w_pos.__getitem__, m_woman[a:b]), repeat(m)))
    del w_pos
    w2m = array("q", bytes(8 * len(m2w)))
    for p, wp in enumerate(m2w):
        w2m[wp] = p
    return m2w, w2m


class _PyState:
    """Pure-Python ProposalRound / QuantileMatch state (the default backend).

    The stdlib sibling of :class:`repro.vec.engine.VecState`, with the
    same layout and method names, so :class:`ASMEngine` runs one
    schedule over either.  State lives on the profile's CSR positions
    (``men_csr()`` / ``women_csr()``), in stdlib arrays:

    * ``present`` — one man-side ``bytearray`` for both sides' lists
      (removals are always paired: Step 4 removes a man from a woman's
      list exactly when Step 5 removes her from his);
    * ``m_remaining`` — ``|Q|`` per man, plus a first-present cursor
      per man: that position's quantile is his best nonempty one;
    * ``m2w`` / ``w2m`` — the woman-side position of each man-side
      edge, and the inverse;
    * ``m_label`` / ``w_label`` — each player's ``G₀`` label
      (:mod:`repro.mm.g0`), whose order is the oracles' id order.

    Partners are ``Optional[int]`` lists.  A man's active set ``A`` is
    a dict of his present man-side positions in the activated quantile,
    in ascending woman order; deletions preserve that order, so ``A``
    is iterated canonically without a per-round sort (DET001 stays
    satisfied structurally).  Candidates are an ascending list of men,
    read from a frontier of the bad men (as in ``VecState``): matched,
    exhausted and removed men drop out when a gate filters it, and men
    Step 5 unseats with ``|Q| > 0`` join.

    The ProposalRound steps avoid per-round allocation:

    * suitor lists (woman-side positions) live in per-woman buffers
      reused across every round of the run (cleared lazily at round
      start);
    * only men in ``_active_men`` (set by :meth:`activate`, compacted
      as men drain) are scanned, not all men;
    * Step 2 accepts the suitors before the end of the quantile run
      holding a woman's smallest proposing position;
    * Step 4 rejects a contiguous run of the woman's segment.  The run
      starts where her new partner's quantile run starts and ends at
      her *cut*: by Lemma 1 she has already rejected everything from
      her cut on except her old partner, whose position she keeps.  So
      each position is scanned once per run, and the Lemma-1 check is
      O(1): her old partner's position must lie at or after the start.
    """

    def __init__(
        self,
        prefs: PreferenceProfile,
        k: int,
        remove_unmatched_violators: bool,
        check_invariants: bool,
    ) -> None:
        n_men, n_women = prefs.n_men, prefs.n_women
        self.n_men = n_men
        self.k = k
        self.remove_unmatched_violators = remove_unmatched_violators
        self.check_invariants = check_invariants
        men, women = prefs.men_csr(), prefs.women_csr()
        self.m_indptr, self.m_woman = men
        self.w_indptr, self.w_man = women
        self.m2w, self.w2m = _cross_positions(men, women)
        self.m_label = str_order_keys(n_men)
        self.w_label = str_order_keys(n_women, woman_label_base(n_men))
        self.present = bytearray(b"\x01") * len(self.m_woman)
        self.m_remaining = array(
            "q", list(map(sub, islice(self.m_indptr, 1, None), self.m_indptr))
        )
        self._m_first = self.m_indptr[:-1]
        # Partners p(v); None = unmatched.
        self.man_partner: List[Optional[int]] = [None] * n_men
        self.woman_partner: List[Optional[int]] = [None] * n_women
        # Woman-side position of each woman's partner (-1 = none), and
        # where her rejected suffix starts (her segment's end until she
        # first matches).
        self.woman_partner_pos = array("q", [-1]) * n_women
        self._w_cut = self.w_indptr[1:]
        self.active: List[Dict[int, None]] = [{} for _ in range(n_men)]
        # Almost-regular mode: men removed from play.
        self.removed: List[bool] = [False] * n_men
        # Ascending superset of the bad men, and the men unseated since
        # a gate last filtered it (see _bad_frontier).
        self._frontier = [m for m in range(n_men) if self.m_remaining[m]]
        self._joiners: List[int] = []
        self._suitor_buf: List[List[int]] = [[] for _ in range(n_women)]
        self._touched_women: List[int] = []
        self._active_men: List[int] = []
        # Per-round intermediates (valid between the step_* calls of one
        # ProposalRound): G₀, and per G₀ edge its man, woman and
        # woman-side position.
        self._g0 = G0((), ())
        self._acc_m: List[int] = []
        self._acc_w: List[int] = []
        self._acc_wp: List[int] = []
        self._mm_result = MMResult(partner={}, rounds=0)

    # ------------------------------------------------------------------
    # Outer-loop queries and classification (Section 4)
    # ------------------------------------------------------------------

    def participating_count(self, threshold: int) -> int:
        """How many men, not removed, have ``|Q| >= threshold``
        (Algorithm 3's ``2^i`` gate)."""
        return sum(
            1
            for r, gone in zip(self.m_remaining, self.removed)
            if r >= threshold and not gone
        )

    def remaining_snapshot(self) -> array:
        """A copy of ``|Q|`` per man, for :meth:`candidates`."""
        return array("q", self.m_remaining)

    def candidates(
        self, threshold: int, remaining: Optional[Sequence[int]] = None
    ) -> List[int]:
        """The men who would propose at ``threshold``, ascending: bad
        (unmatched, ``|Q| > 0``, not removed) with ``|Q| >= threshold``.

        ``remaining``, a :meth:`remaining_snapshot`, is read for ``|Q|``
        in the threshold test instead.  O(|frontier|).
        """
        if remaining is None:
            remaining = self.m_remaining
        return [m for m in self._bad_frontier() if remaining[m] >= threshold]

    def _bad_frontier(self) -> List[int]:
        """The bad men, ascending: the frontier and its joiners, filtered
        by the live predicate (and stored back)."""
        frontier = self._frontier
        if self._joiners:
            # A joiner may already be in the frontier (matched and
            # unseated since the last filter).
            frontier = sorted(set(frontier).union(self._joiners))
            self._joiners = []
        man_partner, remaining, removed = (
            self.man_partner, self.m_remaining, self.removed
        )
        frontier = [
            m
            for m in frontier
            if man_partner[m] is None and remaining[m] > 0 and not removed[m]
        ]
        self._frontier = frontier
        return frontier

    def bad_men(self) -> List[int]:
        """Bad men, not removed, ascending."""
        return list(self._bad_frontier())

    def removed_men(self) -> List[int]:
        """Men removed from play, ascending."""
        return [m for m in range(self.n_men) if self.removed[m]]

    def removed_count(self) -> int:
        """How many men are removed from play."""
        return self.removed.count(True)

    def matching_size(self) -> int:
        """``|M|``: how many women hold a partner."""
        return len(self.woman_partner) - self.woman_partner.count(None)

    def matching(self) -> Matching:
        """The current matching ``{(p(w), w) | p(w) ≠ ∅}``, as pairs
        sorted by man.

        Raises :class:`InvalidMatchingError` if a man is seated with two
        women, naming the first repeat in woman order.
        """
        woman_of = [-1] * self.n_men
        for w, m in enumerate(self.woman_partner):
            if m is not None:
                if woman_of[m] >= 0:
                    raise InvalidMatchingError(
                        f"man {m} is matched more than once"
                    )
                woman_of[m] = w
        men = array("q", [m for m, w in enumerate(woman_of) if w >= 0])
        return Matching._from_sorted_pairs(
            men, array("q", [woman_of[m] for m in men])
        )

    # ------------------------------------------------------------------
    # QuantileMatch activation
    # ------------------------------------------------------------------

    def activate(self, candidates: Sequence[int]) -> None:
        """Candidate men (see :meth:`candidates`) activate their best
        nonempty quantile.

        A man's first present position is his best remaining rank, whose
        quantile is his best nonempty quantile (quantiles are
        non-decreasing along a list); ``A`` is the present positions of
        that quantile's run.
        """
        present, first, indptr, m_woman = (
            self.present, self._m_first, self.m_indptr, self.m_woman
        )
        active, k = self.active, self.k
        active_men: List[int] = []
        for m in candidates:
            f = first[m]
            while not present[f]:  # |Q| > 0: stops inside his segment
                f += 1
            first[m] = f
            base = indptr[m]
            deg = indptr[m + 1] - base
            q = offset_quantile(f - base, deg, k)
            end = base + quantile_run(q, deg, k)[1]
            a = [p for p in range(f, end) if present[p]]
            a.sort(key=m_woman.__getitem__)
            active[m] = dict.fromkeys(a)
            active_men.append(m)
        self._active_men = active_men

    def lemma2_holds(self) -> bool:
        """Whether every man's ``A`` is empty (post-QuantileMatch check)."""
        return not any(self.active)

    # ------------------------------------------------------------------
    # Algorithm 1: the four engine-visible phases
    # ------------------------------------------------------------------

    def step_propose(self) -> Optional[Tuple[int, int]]:
        """Step 1: men propose to every woman in ``A``.

        Returns ``(n_proposals, max_work)``, or ``None`` when nobody
        proposes.
        """
        active = self.active
        removed = self.removed
        m_woman, m2w = self.m_woman, self.m2w
        suitor_buf = self._suitor_buf
        touched = self._touched_women
        for w in touched:  # lazy clear of last round's buffers
            suitor_buf[w].clear()
        touched.clear()
        n_proposals = 0
        max_work = 0  # Remark 4: max per-processor work this round
        still_active: List[int] = []
        for m in self._active_men:
            a = active[m]
            if removed[m] or not a:
                continue
            still_active.append(m)
            for p in a:  # ascending woman order
                w = m_woman[p]
                buf = suitor_buf[w]
                if not buf:
                    touched.append(w)
                buf.append(m2w[p])
            n_proposals += len(a)
            if len(a) > max_work:
                max_work = len(a)
        self._active_men = still_active
        if not touched:
            return None
        return n_proposals, max_work

    def step_accept(self) -> Tuple[int, int]:
        """Step 2: each woman accepts her best proposing quantile.

        Returns ``(n_accepts, step_max_work)``; the accepted-proposal
        graph ``G₀`` is held for Step 3, with the man, woman and
        woman-side position of each of its edges.
        """
        suitor_buf = self._suitor_buf
        w_indptr, w_man, k = self.w_indptr, self.w_man, self.k
        acc_w: List[int] = []
        acc_wp: List[int] = []
        step_max = 0
        touched = self._touched_women
        for w in touched:
            suitors = suitor_buf[w]  # woman-side positions
            if len(suitors) > step_max:
                step_max = len(suitors)
            if self.check_invariants:
                for wp in suitors:
                    if not self.present[self.w2m[wp]]:
                        raise SimulationError(
                            f"man {w_man[wp]} proposed to woman {w} after "
                            f"removal from her list"
                        )
            # Her best proposing quantile holds her smallest position.
            base = w_indptr[w]
            deg = w_indptr[w + 1] - base
            q = offset_quantile(min(suitors) - base, deg, k)
            end = base + quantile_run(q, deg, k)[1]
            before = len(acc_wp)
            acc_wp.extend([wp for wp in suitors if wp < end])
            acc_w.extend(repeat(w, len(acc_wp) - before))
        acc_m = list(map(w_man.__getitem__, acc_wp))
        # Every touched woman accepts someone.
        self._g0 = G0(
            list(map(self.m_label.__getitem__, acc_m)),
            list(map(self.w_label.__getitem__, acc_w)),
            num_nodes=len(touched) + len(set(acc_m)),
        )
        self._acc_m, self._acc_w, self._acc_wp = acc_m, acc_w, acc_wp
        return len(acc_wp), step_max

    def step_maximal_matching(
        self, mm_oracle: MMOracle
    ) -> Tuple[MMResult, G0, int, int]:
        """Step 3: ``mm_oracle`` on ``G₀``, then the almost-regular
        removal.

        Returns ``(mm_result, g0, mm_work, men_removed)`` where
        ``mm_work`` is the Remark-4 proxy for the subroutine's
        per-processor work.
        """
        g0 = self._g0
        mm_result: MMResult = mm_oracle(g0)
        if 2 * len(mm_result.edges) != len(mm_result.partner):
            raise SimulationError(
                "the maximal-matching oracle must return its matched "
                "edges as indices into G0 (MMResult.edges)"
            )
        self._mm_result = mm_result
        # Remark 4 proxy for subroutine-local work: each MM round
        # costs a processor at most its G0 degree.
        mm_work = mm_result.rounds * g0.max_degree()

        # Almost-regular mode (Theorem 6 footnote): men violating
        # Definition 3 after an almost-maximal matching leave the game.
        men_removed = 0
        if self.remove_unmatched_violators:
            violating = set(violating_vertices(g0, mm_result.partner))
            for label, mi in zip(g0.u, self._acc_m):
                if label in violating and not self.removed[mi]:
                    self.removed[mi] = True
                    self.active[mi] = {}
                    men_removed += 1
        return mm_result, g0, mm_work, men_removed

    def step_reject(self) -> Tuple[int, int, int]:
        """Steps 4–5: matched women reject; men process rejections.

        Returns ``(n_rejects, matched_in_m0, step_max_work)``.
        """
        active = self.active
        man_partner = self.man_partner
        woman_partner = self.woman_partner
        partner_pos = self.woman_partner_pos
        cut = self._w_cut
        w_indptr = self.w_indptr
        acc_m, acc_w, acc_wp = self._acc_m, self._acc_w, self._acc_wp
        k = self.k
        # Step 4: newly matched women reject all weakly-worse suitors.
        rejected: List[int] = []  # woman-side positions
        unseated: List[int] = []  # old partners of re-matched women
        n_rejects = 0
        matched_in_m0 = 0
        step_max = 0
        for e in self._mm_result.edges:
            m0, w, wp0 = acc_m[e], acc_w[e], acc_wp[e]
            matched_in_m0 += 1
            base = w_indptr[w]
            deg = w_indptr[w + 1] - base
            q0 = offset_quantile(wp0 - base, deg, k)
            start = base + quantile_run(q0, deg, k)[0]
            old = woman_partner[w]
            old_wp = partner_pos[w]
            # Lemma 1: her old partner is on her list at or after start.
            if self.check_invariants and old is not None and (
                old == m0
                or not self.present[self.w2m[old_wp]]
                or old_wp < start
            ):
                raise SimulationError(
                    f"woman {w} traded up to man {m0} but did not "
                    f"reject previous partner {old}"
                )
            # Everything in [start, cut) is still on her list: she has
            # rejected all from her cut on except her old partner.
            end = cut[w]
            rejected.extend(range(start, wp0))
            rejected.extend(range(wp0 + 1, end))
            rejected_count = end - start - 1
            if old is not None:
                rejected.append(old_wp)
                unseated.append(old)
                rejected_count += 1
            n_rejects += rejected_count
            if rejected_count > step_max:
                step_max = rejected_count
            cut[w] = start
            woman_partner[w] = m0
            partner_pos[w] = wp0
            man_partner[m0] = w
            active[m0] = {}

        # Step 5: men process rejections.
        present, w2m, remaining = self.present, self.w2m, self.m_remaining
        w_man = self.w_man
        for wp in rejected:
            p = w2m[wp]
            present[p] = 0
            m = w_man[wp]
            remaining[m] -= 1
            a = active[m]
            if a:
                a.pop(p, None)
        # A replaced partner was matched, so he proposed to no one this
        # round and was not re-seated by Step 4; with partners left, he
        # is bad again.
        joiners = self._joiners
        for m in unseated:
            man_partner[m] = None
            if remaining[m]:
                joiners.append(m)
        return n_rejects, matched_in_m0, step_max


class ASMEngine:
    """Executable state of one ASM run (see module docstring).

    The engine owns the schedule — Algorithm 3's threshold loop around
    QuantileMatch around ProposalRound — plus round and message
    accounting, telemetry and observers.  The per-player state and the
    steps of one ProposalRound live in a backend picked once, from
    ``optimized``.

    Parameters
    ----------
    prefs:
        The preference profile (defines the communication graph).
    eps:
        Approximation parameter; the output has ≤ ``eps·|E|`` blocking
        pairs (Theorem 3).
    k, delta:
        Override the paper's defaults ``k = ⌈8/ε⌉``, ``δ = ε/8``
        (used by ablations and the almost-regular variant).
    mm_oracle:
        Maximal-matching subroutine for Step 3 (default: deterministic
        oracle — the paper's choice for ASM).  The pure-Python backend
        looks it up on every round, so replacing the attribute after
        construction takes effect.
    mm_cost_model:
        How scheduled rounds charge each oracle call (default:
        :class:`~repro.core.rounds.HKPCost`, the bound of Theorem 2).
    remove_unmatched_violators:
        Almost-regular mode — men violating Definition 3 in ``G₀``
        after an almost-maximal matching are removed from play
        (footnote to Theorem 6).
    check_invariants:
        Enable O(state)-cost internal assertions (Lemmas 1 and 2 and
        proposal-consistency invariants).  Used by the test suite.
    observer:
        Optional :class:`ASMObserver` for instrumentation.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` bundle; when
        provided (and enabled), the engine times the propose /
        accept-reject / maximal-matching phases of every executed
        ProposalRound into its metrics registry
        (``asm.phase.propose`` / ``asm.phase.accept_reject`` /
        ``asm.phase.maximal_matching`` histograms), and writes the
        ``asm.*`` counters and gauges plus one ``proposal_round`` /
        ``quantile_match`` / ``outer_iteration`` event per executed
        step (read back by :class:`repro.analysis.trace.Timeline`).
        Defaults to the shared no-op bundle, which costs (nearly)
        nothing.
    optimized:
        Backend selector; both backends produce bit-identical
        :class:`ASMResult` bundles:

        * ``True`` (default) — the stdlib backend: flat state over the
          profile's CSR positions in stdlib arrays, per-woman suitor
          buffers reused across rounds, active sets as insertion-ordered
          dicts.  Observers see ``present`` (a ``bytearray`` over
          man-side CSR positions: is the edge still on both lists),
          ``m_remaining`` (``|Q|`` per man), ``active`` (each man's
          ``A``, a dict of his man-side positions), ``removed``,
          ``man_partner`` and ``woman_partner`` (``None`` =
          unmatched).
        * ``"vec"`` — the numpy struct-of-arrays backend
          (:mod:`repro.vec`): the profile is compiled to flat CSR /
          quantile arrays and every ProposalRound step runs as batched
          array ops over all active men at once.  Requires numpy
          (``pip install repro[fast]``; raises
          :class:`~repro.errors.VecUnavailableError` without it),
          supports only the deterministic maximal-matching oracle
          (its tie-breaking is compiled in) and not
          ``remove_unmatched_violators``.  Observers see only
          ``man_partner`` / ``woman_partner``, as int arrays with
          ``-1`` = unmatched.

        Any other value raises :class:`InvalidParameterError`.  The
        equivalence suites pin both backends against a test-only copy
        of the seed ProposalRound over the workload grid
        (``tests/test_perf_equivalence.py``,
        ``tests/test_vec_equivalence.py``).
    """

    def __init__(
        self,
        prefs: PreferenceProfile,
        eps: float,
        *,
        k: Optional[int] = None,
        delta: Optional[float] = None,
        mm_oracle: Optional[MMOracle] = None,
        mm_cost_model: Optional[MMCostModel] = None,
        remove_unmatched_violators: bool = False,
        check_invariants: bool = False,
        observer: Optional[ASMObserver] = None,
        telemetry: Optional[Telemetry] = None,
        optimized: Union[bool, str] = True,
        inner_iterations: Optional[int] = None,
        outer_iterations: Optional[int] = None,
    ) -> None:
        default_k, default_delta = params_for_eps(eps)
        self.prefs = prefs
        self.eps = eps
        self.k = default_k if k is None else k
        self.delta = default_delta if delta is None else delta
        if self.k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {self.k}")
        if self.delta <= 0:
            raise InvalidParameterError(f"delta must be > 0, got {self.delta}")
        self.mm_oracle = mm_oracle if mm_oracle is not None else deterministic_oracle()
        self.mm_cost_model = (
            mm_cost_model if mm_cost_model is not None else HKPCost()
        )
        self.remove_unmatched_violators = remove_unmatched_violators
        self.check_invariants = check_invariants
        self.observer = observer
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.optimized = optimized
        # Schedule overrides (used by ablations and the CONGEST
        # cross-validation, which needs small fixed schedules).
        self._inner_iterations_override = inner_iterations
        self._outer_iterations_override = outer_iterations

        self.n_men = prefs.n_men
        self.n_women = prefs.n_women
        _check_optimized(optimized)
        self._state: Union[_PyState, "VecState"]
        if optimized == "vec":
            if remove_unmatched_violators:
                raise InvalidParameterError(
                    "optimized='vec' does not support "
                    "remove_unmatched_violators; use the pure-Python "
                    "backend for the almost-regular variant"
                )
            if self.mm_oracle is not deterministic_maximal_matching:
                raise InvalidParameterError(
                    "optimized='vec' supports only the deterministic "
                    "maximal-matching oracle (its tie-breaking order is "
                    "compiled into the struct-of-arrays form); leave "
                    "mm_oracle unset"
                )
            from repro.vec.compile import compile_profile
            from repro.vec.engine import VecState

            # Compiled once per (profile, k), cached on the profile.
            self._state = VecState(compile_profile(prefs, self.k), check_invariants)
        else:
            self._state = py = _PyState(
                prefs, self.k, remove_unmatched_violators, check_invariants
            )
            # Observer-visible aliases: the very objects the backend
            # mutates.
            self.present = py.present
            self.m_remaining = py.m_remaining
            self.active = py.active
            self.removed = py.removed
        self.man_partner = self._state.man_partner
        self.woman_partner = self._state.woman_partner

        self.counter = RoundCounter()
        self.messages = MessageStats()
        # Remark 4 accounting: sum over executed rounds of the maximum
        # per-processor local work (see ProposalRoundStats.max_player_work).
        self.synchronous_time = 0
        self.proposal_rounds_executed = 0
        self.proposal_rounds_scheduled = 0
        self.quantile_match_calls_executed = 0
        self.quantile_match_calls_scheduled = 0
        self.outer_stats: List[OuterIterationStats] = []

    # ------------------------------------------------------------------
    # Player classification (Section 4)
    # ------------------------------------------------------------------

    def bad_men(self) -> FrozenSet[int]:
        """All currently bad men (excluding removed men)."""
        return frozenset(self._state.bad_men())

    def removed_men(self) -> FrozenSet[int]:
        """Men removed from play (almost-regular mode only)."""
        return frozenset(self._state.removed_men())

    def current_matching(self) -> Matching:
        """The partial matching ``M = {(p(w), w) | p(w) ≠ ∅}``."""
        return self._state.matching()

    # ------------------------------------------------------------------
    # Algorithm 1: ProposalRound
    # ------------------------------------------------------------------

    def proposal_round(self) -> Optional[ProposalRoundStats]:
        """One ProposalRound; returns ``None`` when no proposals exist.

        A ``None`` return means no messages would flow this round and
        (since active sets only shrink between QuantileMatch calls) no
        state can change — callers charge the scheduled rounds and skip.

        The backend runs the steps; this method owns what both backends
        share — phase timers, message/round accounting, and the
        observer hook.
        """
        metrics = self.telemetry.metrics
        state = self._state
        with metrics.timer("asm.phase.propose"):
            step1 = state.step_propose()
        if step1 is None:
            return None
        n_proposals, max_work = step1
        with metrics.timer("asm.phase.accept_reject"):
            n_accepts, accept_work = state.step_accept()
        with metrics.timer("asm.phase.maximal_matching"):
            mm_result, g0, mm_work, men_removed = state.step_maximal_matching(
                self.mm_oracle
            )
        with metrics.timer("asm.phase.accept_reject"):
            n_rejects, matched_in_m0, reject_work = state.step_reject()
        return self._finalize_round(
            n_proposals,
            n_accepts,
            n_rejects,
            g0,
            mm_result,
            matched_in_m0,
            men_removed,
            max(max_work, accept_work, mm_work, reject_work),
        )

    def _finalize_round(
        self,
        n_proposals: int,
        n_accepts: int,
        n_rejects: int,
        g0: G0,
        mm_result: MMResult,
        matched_in_m0: int,
        men_removed: int,
        max_work: int,
    ) -> ProposalRoundStats:
        """Message stats, Remark-4 time, round charges, observer hook."""
        self.messages.proposes += n_proposals
        self.messages.accepts += n_accepts
        self.messages.rejects += n_rejects
        self.synchronous_time += CONSTANT_ROUNDS_PER_PROPOSAL_ROUND + max_work
        stats = ProposalRoundStats(
            proposals=n_proposals,
            accepts=n_accepts,
            rejects=n_rejects,
            g0_nodes=g0.num_nodes,
            g0_edges=g0.num_edges,
            matched_in_m0=matched_in_m0,
            mm_rounds=mm_result.rounds,
            men_removed=men_removed,
            max_player_work=max_work,
        )
        self._charge_executed(mm_result)
        if self.telemetry.enabled:
            self._emit_round(stats)
        if self.observer is not None:
            self.observer.on_proposal_round_end(self, stats)
        return stats

    def _emit_round(self, stats: ProposalRoundStats) -> None:
        """``asm.*`` counters/gauges and the ``proposal_round`` event.

        The sizes come from counts the backend keeps: good men are the
        men neither removed nor bad.
        """
        state = self._state
        matching_size = state.matching_size()
        bad = len(state.bad_men())
        good = self.n_men - state.removed_count() - bad
        metrics = self.telemetry.metrics
        metrics.inc("asm.proposal_rounds")
        metrics.inc("asm.messages.proposes", stats.proposals)
        metrics.inc("asm.messages.accepts", stats.accepts)
        metrics.inc("asm.messages.rejects", stats.rejects)
        metrics.inc("asm.men_removed", stats.men_removed)
        metrics.inc("asm.g0_edges", stats.g0_edges)
        metrics.inc("asm.mm_rounds", stats.mm_rounds)
        metrics.inc("asm.matched_in_m0", stats.matched_in_m0)
        metrics.set_gauge("asm.matching_size", matching_size)
        metrics.set_gauge("asm.good_men", good)
        metrics.set_gauge("asm.bad_men", bad)
        metrics.emit(
            "proposal_round",
            index=self.proposal_rounds_executed - 1,
            **asdict(stats),
            matching_size=matching_size,
            good_men=good,
            bad_men=bad,
        )

    def _charge_executed(self, mm_result: MMResult) -> None:
        """Round accounting for one executed ProposalRound."""
        self.proposal_rounds_executed += 1
        self.proposal_rounds_scheduled += 1
        self.counter.charge_active(
            CONSTANT_ROUNDS_PER_PROPOSAL_ROUND, "proposal_round"
        )
        self.counter.charge_active(mm_result.rounds, "maximal_matching")
        self.counter.charge_scheduled(
            CONSTANT_ROUNDS_PER_PROPOSAL_ROUND, "proposal_round"
        )
        self.counter.charge_scheduled(
            self.mm_cost_model.charge(
                self.prefs.n_players, mm_result
            ),
            "maximal_matching",
        )

    def _charge_skipped_proposal_rounds(self, count: int) -> None:
        """Scheduled-only accounting for message-free ProposalRounds."""
        if count <= 0:
            return
        self.proposal_rounds_scheduled += count
        self.counter.charge_scheduled(
            count * CONSTANT_ROUNDS_PER_PROPOSAL_ROUND, "proposal_round"
        )
        self.counter.charge_scheduled(
            count * self.mm_cost_model.charge(self.prefs.n_players, None),
            "maximal_matching",
        )

    # ------------------------------------------------------------------
    # Algorithm 2: QuantileMatch
    # ------------------------------------------------------------------

    def quantile_match(
        self,
        threshold: int = 0,
        candidates: Optional[Sequence[int]] = None,
    ) -> bool:
        """One QuantileMatch over the men with ``|Q| >= threshold``
        (everyone at the default 0).

        Unmatched participating men activate their best nonempty
        quantile, then ProposalRound runs ``k`` times (stopping early —
        with scheduled rounds still charged — once no proposals remain).
        Returns whether any communication happened.

        ``candidates`` is the backend's ``candidates(threshold)``, when
        the caller's gate already computed it.
        """
        state = self._state
        if candidates is None:
            candidates = state.candidates(threshold)
        telemetry = self.telemetry
        if telemetry.enabled:
            participating = state.participating_count(threshold)
        with telemetry.metrics.timer("asm.quantile_match"):
            state.activate(candidates)
            self.quantile_match_calls_executed += 1
            self.quantile_match_calls_scheduled += 1
            any_communication = False
            for j in range(self.k):
                stats = self.proposal_round()
                if stats is None:
                    self._charge_skipped_proposal_rounds(self.k - j)
                    break
                any_communication = True
            if self.check_invariants and not state.lemma2_holds():
                raise SimulationError(
                    "Lemma 2 violated: some man has A ≠ ∅ after "
                    "QuantileMatch"
                )
            if telemetry.enabled:
                telemetry.metrics.inc("asm.quantile_match_calls")
                telemetry.metrics.inc(
                    "asm.participating_men", participating
                )
                telemetry.metrics.emit(
                    "quantile_match",
                    index=self.quantile_match_calls_executed - 1,
                    proposal_rounds_so_far=self.proposal_rounds_executed,
                )
            if self.observer is not None:
                self.observer.on_quantile_match_end(self)
            return any_communication

    def _charge_skipped_quantile_matches(self, count: int) -> None:
        """Scheduled-only accounting for entire no-op QuantileMatch calls."""
        if count <= 0:
            return
        self.quantile_match_calls_scheduled += count
        self._charge_skipped_proposal_rounds(count * self.k)

    # ------------------------------------------------------------------
    # Algorithm 3: ASM outer structure
    # ------------------------------------------------------------------

    def outer_iteration_count(self) -> int:
        """Number of outer-loop iterations: ``i = 0 .. ⌈log₂ n⌉``."""
        if self._outer_iterations_override is not None:
            return self._outer_iterations_override
        return default_outer_iterations(self.n_men, self.n_women)

    def inner_iteration_count(self) -> int:
        """Inner-loop length ``⌈2δ⁻¹k⌉`` (Algorithm 3)."""
        if self._inner_iterations_override is not None:
            return self._inner_iterations_override
        return default_inner_iterations(self.k, self.delta)

    def run_outer_iteration(self, i: int) -> OuterIterationStats:
        """One iteration of Algorithm 3's outer loop (threshold ``2^i``).

        Its statistics cost O(|frontier|), plus, when a QuantileMatch
        runs, one ``|Q|`` snapshot and one recount: an iteration that
        runs none leaves the state as it found it.
        """
        state = self._state
        telemetry = self.telemetry
        with telemetry.metrics.timer("asm.outer_iteration"):
            threshold = 2 ** i
            inner = self.inner_iteration_count()
            participating_start = state.participating_count(threshold)
            candidates = state.candidates(threshold)
            remaining_start = (
                state.remaining_snapshot() if len(candidates) else None
            )
            executed = self._quantile_matches(threshold, inner, candidates)
            bad_end = len(state.candidates(threshold))
            participating_end, bad_in_start_end = participating_start, bad_end
            if remaining_start is not None:
                participating_end = state.participating_count(threshold)
                bad_in_start_end = len(
                    state.candidates(threshold, remaining_start)
                )
            stats = OuterIterationStats(
                index=i,
                threshold=threshold,
                participating_men_start=participating_start,
                participating_men_end=participating_end,
                bad_participating_men_end=bad_end,
                bad_in_start_set_end=bad_in_start_end,
                quantile_match_calls_executed=executed,
                quantile_match_calls_scheduled=inner,
            )
            self.outer_stats.append(stats)
            if telemetry.enabled:
                telemetry.metrics.inc("asm.outer_iterations")
                telemetry.metrics.emit("outer_iteration", **asdict(stats))
            if self.observer is not None:
                self.observer.on_outer_iteration_end(self, stats)
            return stats

    def _quantile_matches(
        self,
        threshold: int,
        calls: int,
        candidates: Optional[Sequence[int]] = None,
    ) -> int:
        """Up to ``calls`` QuantileMatch calls over the men with
        ``|Q| >= threshold``; returns how many ran.  ``candidates`` is
        the first gate's, when the caller computed it."""
        state = self._state
        for j in range(calls):
            if candidates is None:
                candidates = state.candidates(threshold)
            if not len(candidates):
                # No proposals can occur: the state is frozen for the
                # rest of the loop; charge the fixed schedule.
                self._charge_skipped_quantile_matches(calls - j)
                return j
            self.quantile_match(threshold, candidates)
            candidates = None
        return calls

    def run(self) -> ASMResult:
        """Execute ASM to completion and return the result bundle."""
        for i in range(self.outer_iteration_count()):
            self.run_outer_iteration(i)
        return self._result()

    def run_flat(self, iterations: int) -> ASMResult:
        """Iterate QuantileMatch ``iterations`` times with *all* men.

        This is the structure of ``AlmostRegularASM`` (Theorem 6): no
        degree-threshold outer loop — by almost-regularity, bounding the
        *number* of bad men suffices, so ``O(αε⁻²)`` QuantileMatch
        iterations with everyone participating do the job.
        """
        if iterations < 1:
            raise InvalidParameterError(
                f"iterations must be >= 1, got {iterations}"
            )
        executed = self._quantile_matches(0, iterations)  # every man
        self.outer_stats.append(
            OuterIterationStats(
                index=0,
                threshold=1,
                participating_men_start=self.n_men,
                participating_men_end=self.n_men - len(self.removed_men()),
                bad_participating_men_end=len(self.bad_men()),
                bad_in_start_set_end=len(self.bad_men()),
                quantile_match_calls_executed=executed,
                quantile_match_calls_scheduled=iterations,
            )
        )
        return self._result()

    def _result(self) -> ASMResult:
        return ASMResult(
            matching=self.current_matching(),
            eps=self.eps,
            k=self.k,
            delta=self.delta,
            n_men=self.n_men,
            n_women=self.n_women,
            num_edges=self.prefs.num_edges,
            bad_men=self.bad_men(),
            removed_men=self.removed_men(),
            rounds=self.counter,
            messages=self.messages,
            proposal_rounds_executed=self.proposal_rounds_executed,
            proposal_rounds_scheduled=self.proposal_rounds_scheduled,
            quantile_match_calls_executed=self.quantile_match_calls_executed,
            quantile_match_calls_scheduled=self.quantile_match_calls_scheduled,
            synchronous_time=self.synchronous_time,
            outer_iterations=list(self.outer_stats),
        )

def asm(
    prefs: PreferenceProfile,
    eps: float,
    *,
    k: Optional[int] = None,
    delta: Optional[float] = None,
    mm_oracle: Optional[MMOracle] = None,
    mm_cost_model: Optional[MMCostModel] = None,
    check_invariants: bool = False,
    observer: Optional[ASMObserver] = None,
    telemetry: Optional[Telemetry] = None,
    optimized: Union[bool, str] = True,
) -> ASMResult:
    """Run deterministic ``ASM(P, ε, n)`` (Theorem 1 / Theorem 3).

    Returns an :class:`ASMResult` whose matching has at most ``ε·|E|``
    blocking pairs.  ``rounds_scheduled`` (under the default HKP cost
    model) follows the ``O(ε⁻³ log⁵ n)`` bound of Theorem 4;
    ``rounds_active`` reports the rounds in which messages actually
    flowed.

    Examples
    --------
    >>> from repro.workloads.generators import complete_uniform
    >>> from repro.analysis.stability import instability
    >>> prefs = complete_uniform(16, seed=1)
    >>> result = asm(prefs, eps=0.25)
    >>> instability(prefs, result.matching) <= 0.25
    True
    """
    engine = ASMEngine(
        prefs,
        eps,
        k=k,
        delta=delta,
        mm_oracle=mm_oracle,
        mm_cost_model=mm_cost_model,
        check_invariants=check_invariants,
        observer=observer,
        telemetry=telemetry,
        optimized=optimized,
    )
    return engine.run()
