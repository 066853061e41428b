"""Gale–Shapley baselines (centralized and distributed).

Implements the classical (extended, incomplete-list) men-proposing
Gale–Shapley algorithm [4, 5] in two forms:

* :func:`gale_shapley` — the centralized sequential algorithm; its
  complexity is measured in *proposals* (Θ(n²) worst case, and the
  paper notes Õ(n²) is optimal for centralized algorithms).
* :func:`parallel_gale_shapley` — the natural distributed version the
  paper's introduction describes: in each synchronous round every free
  man proposes to the best woman who has not rejected him, and every
  woman keeps her best suitor-so-far and rejects the rest.  Each such
  iteration costs :data:`ROUNDS_PER_GS_ITERATION` CONGEST rounds.

Both produce the same (man-optimal) stable matching — Gale–Shapley's
output is independent of proposal order — which the test suite checks.
:func:`parallel_gale_shapley` also supports truncation, which is the
Floréen et al. [3] almost-stable baseline (see
:mod:`repro.baselines.truncated_gs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile

__all__ = [
    "ROUNDS_PER_GS_ITERATION",
    "GSResult",
    "gale_shapley",
    "parallel_gale_shapley",
]

# One round for PROPOSE messages, one for ACCEPT/REJECT responses.
ROUNDS_PER_GS_ITERATION = 2


@dataclass
class GSResult:
    """Output of a (possibly truncated) Gale–Shapley run.

    Attributes
    ----------
    matching:
        The engagement matching when the algorithm stopped.
    proposals:
        Total PROPOSE messages sent.
    iterations:
        Parallel proposal iterations executed (1 for every man's
        single proposal in the sequential variant's accounting — see
        ``rounds``).
    rounds:
        CONGEST communication rounds
        (``iterations × ROUNDS_PER_GS_ITERATION``).
    completed:
        Whether the algorithm ran to quiescence (False when truncated).
    synchronous_time:
        Remark-4-style accounting: sum over iterations of the maximum
        per-processor local work (the busiest woman's suitor count).
        Θ̃(n²) in the worst case for distributed GS.
    """

    matching: Matching
    proposals: int
    iterations: int
    rounds: int
    completed: bool
    synchronous_time: int = 0


def gale_shapley(prefs: PreferenceProfile) -> GSResult:
    """Centralized men-proposing Gale–Shapley with incomplete lists.

    Always returns the man-optimal stable matching; ``proposals``
    counts the sequential work (``iterations``/``rounds`` are reported
    as the proposal count — one "round" per proposal, the paper's
    Õ(n²) centralized accounting).

    Examples
    --------
    >>> from repro.workloads.generators import complete_uniform
    >>> from repro.analysis.stability import is_stable
    >>> prefs = complete_uniform(8, seed=0)
    >>> result = gale_shapley(prefs)
    >>> is_stable(prefs, result.matching)
    True
    """
    men = prefs.men_lists()
    next_choice = [0] * prefs.n_men  # index into each man's list
    fiance: Dict[int, int] = {}  # woman -> man
    engaged_to: List[Optional[int]] = [None] * prefs.n_men
    free = [m for m in range(prefs.n_men) if prefs.deg_man(m) > 0]
    proposals = 0
    while free:
        m = free.pop()
        if next_choice[m] >= prefs.deg_man(m):
            continue  # exhausted his list; stays unmatched
        w = men[m][next_choice[m]]
        next_choice[m] += 1
        proposals += 1
        current = fiance.get(w)
        if current is None:
            fiance[w] = m
            engaged_to[m] = w
        elif prefs.woman_prefers(w, m, current):
            fiance[w] = m
            engaged_to[m] = w
            engaged_to[current] = None
            if next_choice[current] < prefs.deg_man(current):
                free.append(current)
        else:
            if next_choice[m] < prefs.deg_man(m):
                free.append(m)
    matching = Matching((m, w) for w, m in fiance.items())
    return GSResult(
        matching=matching,
        proposals=proposals,
        iterations=proposals,
        rounds=proposals,
        completed=True,
        synchronous_time=proposals,
    )


def parallel_gale_shapley(
    prefs: PreferenceProfile, max_iterations: Optional[int] = None
) -> GSResult:
    """Round-synchronous distributed Gale–Shapley.

    In each iteration every free man (with list not exhausted) proposes
    to his best not-yet-rejecting woman; each woman keeps the best
    suitor among her current fiancé and new proposers, rejecting the
    rest.  Runs until no proposals occur, or for ``max_iterations``
    iterations (the truncated variant of Floréen et al. [3]).
    """
    # Flat lists and per-woman rank dicts built on her first proposal:
    # the CONGEST protocol sizes its schedule with this run, and it
    # must not build the profile's per-player view.
    m_indptr, m_targets = prefs.men_csr()
    women_rank: Dict[int, Dict[int, int]] = {}
    next_choice = [0] * prefs.n_men
    fiance: Dict[int, int] = {}
    engaged_to: List[Optional[int]] = [None] * prefs.n_men
    proposals = 0
    iterations = 0
    synchronous_time = 0
    while max_iterations is None or iterations < max_iterations:
        # Propose phase.
        round_proposals: Dict[int, List[int]] = {}
        for m in range(prefs.n_men):
            if engaged_to[m] is not None or next_choice[m] >= prefs.deg_man(m):
                continue
            w = m_targets[m_indptr[m] + next_choice[m]]
            round_proposals.setdefault(w, []).append(m)
        if not round_proposals:
            return GSResult(
                matching=Matching((m, w) for w, m in fiance.items()),
                proposals=proposals,
                iterations=iterations,
                rounds=iterations * ROUNDS_PER_GS_ITERATION,
                completed=True,
                synchronous_time=synchronous_time,
            )
        iterations += 1
        synchronous_time += ROUNDS_PER_GS_ITERATION + max(
            len(suitors) for suitors in round_proposals.values()
        )
        # Respond phase.
        for w, suitors in round_proposals.items():
            proposals += len(suitors)
            current = fiance.get(w)
            candidates = suitors if current is None else suitors + [current]
            rank = women_rank.get(w)
            if rank is None:
                rank = women_rank[w] = {
                    m: r for r, m in enumerate(prefs.woman_list(w), 1)
                }
            best = min(candidates, key=rank.__getitem__)
            if best != current:
                if current is not None:
                    engaged_to[current] = None
                fiance[w] = best
                engaged_to[best] = w
            for m in suitors:
                if m != best:
                    next_choice[m] += 1  # rejected: advance his pointer
    return GSResult(
        matching=Matching((m, w) for w, m in fiance.items()),
        proposals=proposals,
        iterations=iterations,
        rounds=iterations * ROUNDS_PER_GS_ITERATION,
        completed=False,
        synchronous_time=synchronous_time,
    )
