"""The seed ProposalRound, kept as a test-only equivalence oracle.

:class:`ReferenceASMEngine` is an :class:`~repro.core.asm.ASMEngine`
whose state and ProposalRound are the seed implementation: a
:class:`~tests.reference_quantile.QuantizedList` per player, dict active
sets activated from ``members_of(best_nonempty_quantile())``, dicts
rebuilt every round, a woman's best proposing quantile found with
``best_nonempty_among`` and her rejection set with
``members_at_least`` set algebra.  Only the schedule (Algorithms 2–3,
round and message accounting) comes from the engine; the state and
step code share nothing with either product backend (the quantile
arithmetic included: ``QuantizedList`` computes its own), so the
equivalence suites pin both the pure-Python and the vec backend
against it: oracle ≡ Python ≡ vec.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.asm import ASMEngine, ASMResult, ProposalRoundStats
from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile
from repro.errors import SimulationError
from repro.graphs import Graph, is_man_node, man_node, node_index, woman_node
from repro.mm.result import MMResult
from repro.mm.verify import violating_vertices
from tests.reference_quantile import QuantizedList


class SeedState:
    """The seed per-player state: Section 3.1's quantile sets, per player.

    Supplies the queries the engine's schedule asks of a backend
    (``participating_count``, ``candidates``, ``activate``, the
    classification queries), each by a scan over every man;
    :class:`ReferenceASMEngine` runs the ProposalRound steps over it.
    """

    def __init__(self, prefs: PreferenceProfile, k: int) -> None:
        self.n_men = prefs.n_men
        self.men_q = [
            QuantizedList(prefs.man_list(m), k) for m in range(prefs.n_men)
        ]
        self.women_q = [
            QuantizedList(prefs.woman_list(w), k)
            for w in range(prefs.n_women)
        ]
        self.man_partner: List[Optional[int]] = [None] * prefs.n_men
        self.woman_partner: List[Optional[int]] = [None] * prefs.n_women
        self.active: List[Dict[int, None]] = [{} for _ in range(prefs.n_men)]
        self.removed: List[bool] = [False] * prefs.n_men

    def participating_count(self, threshold: int) -> int:
        return sum(
            1
            for m in range(self.n_men)
            if not self.removed[m] and self.men_q[m].remaining >= threshold
        )

    def remaining_snapshot(self) -> List[int]:
        return [mq.remaining for mq in self.men_q]

    def candidates(
        self, threshold: int, remaining: Optional[Sequence[int]] = None
    ) -> List[int]:
        if remaining is None:
            remaining = self.remaining_snapshot()
        return [m for m in self.bad_men() if remaining[m] >= threshold]

    def activate(self, candidates: Sequence[int]) -> None:
        for m in candidates:
            if self.removed[m]:
                continue
            mq = self.men_q[m]
            self.active[m] = dict.fromkeys(
                mq.members_of(mq.best_nonempty_quantile())
            )

    def lemma2_holds(self) -> bool:
        return not any(self.active)

    def man_is_good(self, m: int) -> bool:
        return self.man_partner[m] is not None or self.men_q[m].remaining == 0

    def bad_men(self) -> List[int]:
        return [
            m
            for m in range(self.n_men)
            if not self.removed[m] and not self.man_is_good(m)
        ]

    def removed_men(self) -> List[int]:
        return [m for m in range(self.n_men) if self.removed[m]]

    def removed_count(self) -> int:
        return sum(self.removed)

    def matching_size(self) -> int:
        return sum(1 for m in self.woman_partner if m is not None)

    def matching(self) -> Matching:
        return Matching(
            (m, w) for w, m in enumerate(self.woman_partner) if m is not None
        )


class ReferenceASMEngine(ASMEngine):
    """:class:`ASMEngine` running the seed ProposalRound (see module doc)."""

    def __init__(
        self, prefs: PreferenceProfile, eps: float, **kwargs: object
    ) -> None:
        super().__init__(prefs, eps, **kwargs)
        self._state = state = SeedState(prefs, self.k)
        self.men_q = state.men_q
        self.women_q = state.women_q
        self.active = state.active
        self.removed = state.removed
        self.man_partner = state.man_partner
        self.woman_partner = state.woman_partner

    def proposal_round(self) -> Optional[ProposalRoundStats]:
        """The seed implementation: per-round dict rebuilds throughout.

        Kept verbatim (modulo the active-set container change) as the
        equivalence oracle for both product backends.
        """
        telemetry = self.telemetry
        # Step 1: men propose to every woman in A.
        with telemetry.metrics.timer("asm.phase.propose"):
            proposals: Dict[int, List[int]] = {}
            n_proposals = 0
            max_work = 0  # Remark 4: max per-processor work this round
            for m in range(self.n_men):
                if self.removed[m] or not self.active[m]:
                    continue
                # Canonical (sorted) proposal order: the run must replay
                # identically regardless of how A was assembled (DET001).
                for w in sorted(self.active[m]):
                    proposals.setdefault(w, []).append(m)
                n_proposals += len(self.active[m])
                max_work = max(max_work, len(self.active[m]))
        if not proposals:
            return None

        # Step 2: each woman accepts her best proposing quantile.
        with telemetry.metrics.timer("asm.phase.accept_reject"):
            g0 = Graph()
            n_accepts = 0
            for w, suitors in proposals.items():
                max_work = max(max_work, len(suitors))
                wq = self.women_q[w]
                if self.check_invariants:
                    for m in suitors:
                        if not wq.contains(m):
                            raise SimulationError(
                                f"man {m} proposed to woman {w} after "
                                f"removal from her list"
                            )
                best = wq.best_nonempty_among(suitors)
                if best is None:
                    raise SimulationError(
                        f"woman {w} received proposals only from removed men"
                    )
                for m in suitors:
                    if wq.contains(m) and wq.quantile_of(m) == best:
                        g0.add_edge(man_node(m), woman_node(w))
                        n_accepts += 1

        with telemetry.metrics.timer("asm.phase.maximal_matching"):
            # Step 3: maximal matching on the accepted-proposal graph G0.
            mm_result, men_removed, mm_work = self._mm_phase(g0)
            max_work = max(max_work, mm_work)

        with telemetry.metrics.timer("asm.phase.accept_reject"):
            # Step 4: newly matched women reject all weakly-worse suitors.
            rejections: Dict[int, List[int]] = {}
            n_rejects = 0
            matched_pairs: List[Tuple[int, int]] = []
            for u, v in mm_result.pairs():
                m0, w = (
                    (node_index(u), node_index(v))
                    if is_man_node(u)
                    else (node_index(v), node_index(u))
                )
                matched_pairs.append((m0, w))
            for m0, w in matched_pairs:
                wq = self.women_q[w]
                q0 = wq.quantile_of(m0)
                rejected = wq.members_at_least(q0) - {m0}
                max_work = max(max_work, len(rejected))
                old = self.woman_partner[w]
                if (
                    self.check_invariants
                    and old is not None
                    and old not in rejected
                ):
                    raise SimulationError(
                        f"woman {w} traded up to man {m0} but did not "
                        f"reject previous partner {old}"
                    )
                # Sorted so the rejections dict has canonical insertion
                # order no matter how the quantile sets hash (DET001).
                for m in sorted(rejected):
                    wq.remove(m)
                    rejections.setdefault(m, []).append(w)
                n_rejects += len(rejected)
                self.woman_partner[w] = m0
                self.man_partner[m0] = w
                self.active[m0] = {}

            # Step 5: men process rejections.
            for m, rejecting in rejections.items():
                mq = self.men_q[m]
                for w in rejecting:
                    mq.remove(w)
                    self.active[m].pop(w, None)
                    if self.man_partner[m] == w:
                        self.man_partner[m] = None

        return self._finalize_round(
            n_proposals,
            n_accepts,
            n_rejects,
            g0,
            mm_result,
            len(matched_pairs),
            men_removed,
            max_work,
        )

    def _mm_phase(self, g0: Graph) -> Tuple[MMResult, int, int]:
        """Step 3: maximal matching on ``G₀``.

        Returns ``(mm_result, men_removed, mm_work)`` where ``mm_work``
        is the Remark-4 proxy for the subroutine's per-processor work.
        """
        mm_result: MMResult = self.mm_oracle(g0)
        # Remark 4 proxy for subroutine-local work: each MM round
        # costs a processor at most its G0 degree.
        mm_work = 0
        if g0.num_nodes:
            max_g0_deg = max(g0.degree(v) for v in g0.nodes())
            mm_work = mm_result.rounds * max_g0_deg

        # Almost-regular mode (Theorem 6 footnote): men violating
        # Definition 3 after an almost-maximal matching leave the game.
        men_removed = 0
        if self.remove_unmatched_violators:
            for v in violating_vertices(g0, mm_result.partner):
                if is_man_node(v):
                    mi = node_index(v)
                    if not self.removed[mi]:
                        self.removed[mi] = True
                        self.active[mi] = {}
                        men_removed += 1
        return mm_result, men_removed, mm_work


def reference_asm(
    prefs: PreferenceProfile, eps: float, **kwargs: object
) -> ASMResult:
    """:func:`repro.core.asm.asm` on the reference ProposalRound."""
    return ReferenceASMEngine(prefs, eps, **kwargs).run()
