"""Online dynamic matching engine: localized repair under churn.

:class:`DynamicMatchingEngine` keeps a long-lived market ε-stable as
deltas stream in.  Per delta it does three things:

1. **Structural update** — apply the delta through the
   :class:`~repro.dynamic.index.DynamicBlockingIndex`, which keeps the
   blocking-pair set exact in O(deg), and collect the *dirty* players
   the delta perturbed.
2. **Localized repair** — run bounded, deterministic propose–accept
   passes restricted to the radius-``repair_radius`` BFS neighborhood
   of the dirty players.  "Almost Stable Matchings in Constant Time"
   (Floréen et al.) shows stability quality is a local function of
   propose–accept rounds, which is exactly why a bounded neighborhood
   suffices for a bounded ε.  Unlike QuantileMatch the repair never
   truncates preference lists — in an online market a rejected entry
   can become relevant again after the next delta — so each pass is a
   batched best-response step: every region man proposes to his
   favorite in-region blocking partner, every proposed-to woman
   accepts her best suitor (any suitor whose pair blocks beats her
   current partner by definition).  Players displaced by a marriage
   join the region, so the repair wavefront follows the actual
   perturbation rather than the initial guess.
3. **SLO enforcement** — ε = blocking_pairs / |E| is exact after
   every delta (the index is exact, no sampling).  If repair leaves
   ε above :attr:`StabilitySLO.target_eps`, the engine falls back to
   a full ASM re-run on a frozen snapshot and adopts its matching.
   The fallback is the safety net that turns a heuristic repair into
   a guarantee: **after every delta, ε ≤ max(target_eps, full-ASM ε)**
   — never worse than what re-running from scratch would certify.

Every step is deterministic: regions are insertion-ordered dicts
seeded from sorted dirty sets, proposal processing is men-ascending /
women-ascending, and nothing reads a clock or an unseeded RNG — a
replayed delta stream is bit-identical, which is what lets
``TrialPool`` shard churn trials across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.asm import _check_optimized, asm, params_for_eps
from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile
from repro.errors import InvalidParameterError
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.trace.slo import StabilitySLO

from repro.dynamic.deltas import (
    AddEdge,
    ArriveMan,
    ArriveWoman,
    Delta,
    DepartMan,
    DepartWoman,
    RemoveEdge,
    SwapManPrefs,
    SwapWomanPrefs,
    delta_kind,
)
from repro.dynamic.index import DynamicBlockingIndex
from repro.dynamic.market import DynamicMarket

__all__ = ["DeltaOutcome", "DynamicMatchingEngine"]


@dataclass(frozen=True)
class DeltaOutcome:
    """What one delta did to the market.

    ``eps_after`` is the exact post-delta instability (after repair
    and, when it ran, the fallback); ``region_men`` / ``region_women``
    count the players the repair was allowed to touch.
    """

    seq: int
    kind: str
    region_men: int
    region_women: int
    repair_passes: int
    marriages: int
    eps_before: float
    eps_after: float
    blocking_pairs: int
    fallback: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "region_men": self.region_men,
            "region_women": self.region_women,
            "repair_passes": self.repair_passes,
            "marriages": self.marriages,
            "eps_before": self.eps_before,
            "eps_after": self.eps_after,
            "blocking_pairs": self.blocking_pairs,
            "fallback": self.fallback,
        }


class DynamicMatchingEngine:
    """A live market re-stabilized incrementally after each delta.

    Parameters
    ----------
    prefs:
        The initial market (``None`` starts empty).  A market with
        edges gets one full ASM solve of ``prefs`` itself (the warm
        start) at construction, and the blocking-pair index is built
        once, for that matching.  With ``solver_optimized="vec"`` the
        compiled arrays stay cached on ``prefs``, as for any
        ``asm(prefs, optimized="vec")``.
    eps:
        Target instability: the ASM approximation parameter for the
        initial solve and every fallback, and (unless ``slo``
        overrides it) the SLO threshold that triggers fallbacks.
    repair_radius:
        BFS hops around dirty players defining the repair region.
        ``0`` disables localized repair (every delta leans on the SLO
        net alone).
    repair_passes:
        Budget of batched propose–accept passes per delta; default
        ``⌈8/eps⌉`` — the same ``k`` QuantileMatch derives from ε.
    slo:
        The objective enforced after every delta; default
        ``StabilitySLO(target_eps=eps, deadline_rounds=0)``.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`; the engine emits
        ``dynamic_delta`` / ``dynamic_fallback`` / ``slo_sample`` /
        ``slo_violation`` events.
    solver_optimized:
        Forwarded as ``optimized=`` to every full ASM solve (warm
        start and SLO fallbacks): ``True`` selects the pure-Python
        backend, ``"vec"`` the numpy struct-of-arrays backend — at
        n ≥ 10⁵ the vec solver keeps fallback latency in seconds
        instead of minutes.  Both produce bit-identical matchings, so
        the choice never changes the trajectory.  Validated at
        construction, including numpy's presence for ``"vec"``.

    Examples
    --------
    >>> from repro.workloads.generators import complete_uniform
    >>> from repro.dynamic.deltas import RemoveEdge
    >>> engine = DynamicMatchingEngine(complete_uniform(6, seed=0), 0.5)
    >>> outcome = engine.apply(RemoveEdge(man=0, woman=engine.index.man_partner(0)))
    >>> engine.current_eps() <= 0.5
    True
    """

    def __init__(
        self,
        prefs: Optional[PreferenceProfile],
        eps: float,
        *,
        repair_radius: int = 2,
        repair_passes: Optional[int] = None,
        slo: Optional[StabilitySLO] = None,
        telemetry: Optional[Telemetry] = None,
        solver_optimized: Union[bool, str] = True,
    ) -> None:
        params_for_eps(eps)  # validates 0 < eps <= 1
        _check_optimized(solver_optimized)
        if repair_radius < 0:
            raise InvalidParameterError(
                f"repair_radius must be >= 0, got {repair_radius}"
            )
        if repair_passes is not None and repair_passes < 1:
            raise InvalidParameterError(
                f"repair_passes must be >= 1, got {repair_passes}"
            )
        self.eps = eps
        self.repair_radius = repair_radius
        self.repair_passes = (
            repair_passes
            if repair_passes is not None
            else math.ceil(8.0 / eps)
        )
        self.slo = slo or StabilitySLO(target_eps=eps, deadline_rounds=0)
        self.solver_optimized = solver_optimized
        self.telemetry = telemetry or NULL_TELEMETRY
        self.market = DynamicMarket(prefs)
        warm: Optional[Matching] = None
        if prefs is not None and prefs.num_edges:
            warm = asm(
                prefs,
                eps,
                telemetry=self.telemetry,
                optimized=solver_optimized,
            ).matching
        self.index = DynamicBlockingIndex(self.market, warm)
        self.deltas_applied = 0
        self.fallbacks = 0
        self.marriages = 0
        self.trajectory: List[Tuple[int, float]] = []

    # -- read access ---------------------------------------------------

    def current_eps(self) -> float:
        """Exact instability ε = blocking_pairs / |E| right now."""
        return self.index.eps()

    def current_matching(self) -> Matching:
        """An immutable snapshot of the live matching."""
        return self.index.current_matching()

    def worst_eps(self) -> float:
        """The worst post-delta ε observed so far."""
        return max((eps for _, eps in self.trajectory), default=0.0)

    def report(self) -> Dict[str, object]:
        """JSON-shaped summary (mirrors ``SLOMonitor.report`` keys)."""
        return {
            "target_eps": self.slo.target_eps,
            "deltas_applied": self.deltas_applied,
            "fallbacks": self.fallbacks,
            "marriages": self.marriages,
            "final_eps": self.current_eps(),
            "worst_eps": self.worst_eps(),
            "blocking_pairs": len(self.index),
            "num_edges": self.market.num_edges,
            "matching_size": sum(
                1 for _ in self.index.current_matching().pairs()
            ),
            "trajectory": [
                {"delta": seq, "eps": eps} for seq, eps in self.trajectory
            ],
        }

    # -- delta application ---------------------------------------------

    def apply(self, delta: Delta) -> DeltaOutcome:
        """Apply one delta, repair locally, enforce the SLO."""
        eps_before = self.current_eps()
        dirty_men, dirty_women = self._apply_structural(delta)
        self.deltas_applied += 1
        passes = marriages = 0
        region_men: Dict[int, None] = {}
        region_women: Dict[int, None] = {}
        if self.repair_radius and len(self.index):
            region_men, region_women = self._region(dirty_men, dirty_women)
            passes, marriages = self._repair(region_men, region_women)
            self.marriages += marriages
        eps_after = self.current_eps()
        fallback = False
        metrics = self.telemetry.metrics
        if eps_after > self.slo.target_eps:
            metrics.emit(
                "slo_violation",
                round=self.deltas_applied,
                eps=eps_after,
                target_eps=self.slo.target_eps,
                blocking_pairs=len(self.index),
            )
            metrics.emit(
                "dynamic_fallback",
                delta=self.deltas_applied,
                eps=eps_after,
                target_eps=self.slo.target_eps,
            )
            self._full_restabilize()
            self.fallbacks += 1
            fallback = True
            eps_after = self.current_eps()
        self.trajectory.append((self.deltas_applied, eps_after))
        outcome = DeltaOutcome(
            seq=self.deltas_applied,
            kind=delta_kind(delta),
            region_men=len(region_men),
            region_women=len(region_women),
            repair_passes=passes,
            marriages=marriages,
            eps_before=eps_before,
            eps_after=eps_after,
            blocking_pairs=len(self.index),
            fallback=fallback,
        )
        # The record's own "kind" and "seq" are the event envelope's.
        fields = outcome.to_dict()
        fields["delta_kind"] = fields.pop("kind")
        fields["delta"] = fields.pop("seq")
        metrics.emit("dynamic_delta", **fields)
        metrics.emit(
            "slo_sample",
            round=self.deltas_applied,
            eps=eps_after,
            blocking_pairs=len(self.index),
            target_eps=self.slo.target_eps,
            binding=self.slo.in_effect(self.deltas_applied),
        )
        return outcome

    def apply_stream(self, deltas: Sequence[Delta]) -> List[DeltaOutcome]:
        """Apply a delta stream in order; one outcome per delta."""
        return [self.apply(delta) for delta in deltas]

    # -- structural dispatch -------------------------------------------

    def _apply_structural(
        self, delta: Delta
    ) -> Tuple[List[int], List[int]]:
        """Apply the delta to market + index; return dirty players."""
        index = self.index
        if isinstance(delta, AddEdge):
            index.add_edge(
                delta.man, delta.woman, delta.man_pos, delta.woman_pos
            )
            return [delta.man], [delta.woman]
        if isinstance(delta, RemoveEdge):
            index.remove_edge(delta.man, delta.woman)
            return [delta.man], [delta.woman]
        if isinstance(delta, SwapManPrefs):
            women = index.swap_man_prefs(delta.man, delta.pos)
            return [delta.man], sorted(women)
        if isinstance(delta, SwapWomanPrefs):
            men = index.swap_woman_prefs(delta.woman, delta.pos)
            return sorted(men), [delta.woman]
        if isinstance(delta, ArriveMan):
            m = index.add_man(list(delta.prefs), list(delta.positions))
            return [m], []
        if isinstance(delta, ArriveWoman):
            w = index.add_woman(list(delta.prefs), list(delta.positions))
            return [], [w]
        if isinstance(delta, DepartMan):
            ex = index.depart_man(delta.man)
            if ex is not None:
                return [], [ex]
            return [], []
        if isinstance(delta, DepartWoman):
            ex = index.depart_woman(delta.woman)
            if ex is not None:
                return [ex], []
            return [], []
        raise InvalidParameterError(
            f"unknown delta type {type(delta).__name__!r}"
        )

    # -- localized repair ----------------------------------------------

    def _region(
        self, dirty_men: Sequence[int], dirty_women: Sequence[int]
    ) -> Tuple[Dict[int, None], Dict[int, None]]:
        """BFS out ``repair_radius`` hops from the dirty players.

        Insertion-ordered dicts serve as deterministic ordered sets
        (DET001): seeded sorted, grown in scan order.
        """
        men: Dict[int, None] = dict.fromkeys(sorted(dirty_men))
        women: Dict[int, None] = dict.fromkeys(sorted(dirty_women))
        frontier_men = list(men)
        frontier_women = list(women)
        men_lists = self.market.men_lists
        women_lists = self.market.women_lists
        for _ in range(self.repair_radius):
            next_men: List[int] = []
            next_women: List[int] = []
            for m in frontier_men:
                for w in men_lists[m]:
                    if w not in women:
                        women[w] = None
                        next_women.append(w)
            for w in frontier_women:
                for m in women_lists[w]:
                    if m not in men:
                        men[m] = None
                        next_men.append(m)
            if not next_men and not next_women:
                break
            frontier_men, frontier_women = next_men, next_women
        return men, women

    def _repair(
        self,
        region_men: Dict[int, None],
        region_women: Dict[int, None],
    ) -> Tuple[int, int]:
        """Batched propose–accept passes restricted to the region.

        Players displaced by a marriage are appended to the region, so
        later passes chase the perturbation they caused.  Returns
        (passes run, marriages performed).
        """
        index = self.index
        market = self.market
        men_rank = market.men_rank
        blocking_men = index.blocking_men()
        blocking_women = index.blocking_women
        passes = 0
        marriages = 0
        for _ in range(self.repair_passes):
            # Each region man who blocks proposes to his favorite
            # in-region blocking partner, the least-ranked of the
            # women the index's per-man view holds for him; men who
            # block with no one are not visited.  The order of the
            # visits does not matter: each woman takes the best of
            # her suitors, and their ranks are distinct.
            proposals: Dict[int, List[int]] = {}
            for m in sorted(blocking_men & region_men.keys()):
                women = blocking_women(m)
                w = min(
                    (w for w in women if w in region_women),
                    key=men_rank[m].__getitem__,
                    default=None,
                )
                if w is not None:
                    proposals.setdefault(w, []).append(m)
            if not proposals:
                break
            passes += 1
            for w in sorted(proposals):
                # Revalidate at marriage time: an earlier marriage this
                # pass may have satisfied (or displaced) a suitor.
                suitors = [
                    m for m in proposals[w] if index.contains(m, w)
                ]
                if not suitors:
                    continue
                wrank = market.women_rank[w]
                best = min(suitors, key=wrank.__getitem__)
                displaced_w = index.man_partner(best)
                displaced_m = index.woman_partner(w)
                index.satisfy(best, w)
                marriages += 1
                if displaced_m is not None and displaced_m not in region_men:
                    region_men[displaced_m] = None
                if (
                    displaced_w is not None
                    and displaced_w not in region_women
                ):
                    region_women[displaced_w] = None
        return passes, marriages

    # -- full re-stabilization fallback --------------------------------

    def _full_restabilize(self) -> None:
        """Freeze the market, run full ASM, adopt its matching."""
        frozen = self.market.freeze()
        result = asm(
            frozen,
            self.eps,
            telemetry=self.telemetry,
            optimized=self.solver_optimized,
        )
        partner: List[Optional[int]] = [None] * self.market.n_men
        for m, w in result.matching.pairs():
            partner[m] = w
        self.index.update_from_partner_lists(partner)

    def __repr__(self) -> str:
        return (
            f"DynamicMatchingEngine(n_men={self.market.n_men}, "
            f"n_women={self.market.n_women}, "
            f"eps={self.current_eps():.4f}, "
            f"deltas={self.deltas_applied})"
        )
