"""Seeded property sweep for the paper's invariants.

Checks, over ``REPRO_PROPERTY_TRIALS`` (default 200) randomized
instances per invariant:

* **Lemma 1** — a woman's match only improves: once matched she stays
  matched, and her partner's rank strictly improves on every change.
* **Lemma 2** — after every QuantileMatch, each man is matched or his
  active proposal set is exhausted (all current-quantile proposals
  rejected).
* **Theorem 3** — the final matching has at most ``ε·|E|`` blocking
  pairs.

Each invariant is checked on the pure-Python ``ASMEngine`` backend and
on the seed-reference test oracle (they must also agree exactly) and,
on a reduced pinned subset, on the fault-free CONGEST protocol.  Instances are generated
with the stdlib ``random`` module from a fixed root seed, so the sweep
is deterministic; crank ``REPRO_PROPERTY_TRIALS`` up for a deeper
soak.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.analysis.stability import count_blocking_pairs
from repro.congest.protocols.asm_protocol import run_congest_asm
from repro.core.asm import ASMEngine, ASMObserver
from repro.faults import FaultPlan
from repro.mm.deterministic import deterministic_maximal_matching
from repro.workloads.generators import (
    bounded_degree,
    complete_uniform,
    gnp_incomplete,
)
from tests.reference_asm import ReferenceASMEngine

#: Instances per invariant; the CI fault-smoke job reduces this.
TRIALS = int(os.environ.get("REPRO_PROPERTY_TRIALS", "200"))

_ROOT = random.Random(0xA5A5)
_CASES = [
    (
        _ROOT.randint(3, 8),
        _ROOT.choice([0.3, 0.5, 0.8, 1.0]),
        _ROOT.randrange(2**31),
        _ROOT.random() < 0.3,  # incomplete lists for ~30% of cases
    )
    for _ in range(TRIALS)
]


def _profile(n, seed, incomplete):
    if incomplete:
        return gnp_incomplete(n, 0.6, seed)
    return complete_uniform(n, seed)


class InvariantObserver(ASMObserver):
    """Collects Lemma 1 / Lemma 2 violations across one engine run."""

    def __init__(self, prefs):
        self.prefs = prefs
        self.partner_rank = {}
        self.violations = []

    def _check_lemma1(self, engine):
        for w, m in enumerate(engine.woman_partner):
            old = self.partner_rank.get(w)
            if m is None:
                if old is not None:
                    self.violations.append(
                        ("lemma1-unmatched", w, old)
                    )
                continue
            rank = self.prefs.rank_of_man(w, m)
            if old is not None and rank >= old:
                if rank > old:
                    self.violations.append(("lemma1-worse", w, old, rank))
                # rank == old means same partner: fine.
            self.partner_rank[w] = (
                rank if old is None else min(old, rank)
            )

    def on_proposal_round_end(self, engine, stats):
        self._check_lemma1(engine)

    def on_quantile_match_end(self, engine):
        self._check_lemma1(engine)
        for m in range(engine.n_men):
            if engine.removed[m]:
                continue
            if engine.man_partner[m] is None and engine.active[m]:
                self.violations.append(
                    ("lemma2-active-left", m, dict(engine.active[m]))
                )


def _run_engine(prefs, eps, engine_cls):
    observer = InvariantObserver(prefs)
    engine = engine_cls(
        prefs,
        eps,
        check_invariants=True,
        observer=observer,
    )
    result = engine.run()
    return result, observer


@pytest.mark.parametrize(
    "engine_cls", [ASMEngine, ReferenceASMEngine], ids=["opt", "ref"]
)
def test_engine_invariants_hold_over_sweep(engine_cls):
    """Lemmas 1-2 and the Theorem 3 bound over the randomized sweep."""
    for n, eps, seed, incomplete in _CASES:
        prefs = _profile(n, seed, incomplete)
        if prefs.num_edges == 0:
            continue
        result, observer = _run_engine(prefs, eps, engine_cls)
        assert not observer.violations, (
            f"invariant violations on n={n} eps={eps} seed={seed} "
            f"incomplete={incomplete}: {observer.violations[:3]}"
        )
        blocking = count_blocking_pairs(prefs, result.matching)
        assert blocking <= eps * prefs.num_edges, (
            f"Theorem 3 violated on n={n} eps={eps} seed={seed}: "
            f"{blocking} > {eps * prefs.num_edges}"
        )


def test_engine_paths_agree_over_sweep():
    """The pure-Python backend and the reference oracle are bit-equal."""
    for n, eps, seed, incomplete in _CASES:
        prefs = _profile(n, seed, incomplete)
        if prefs.num_edges == 0:
            continue
        fast = ASMEngine(prefs, eps).run()
        ref = ReferenceASMEngine(prefs, eps).run()
        assert fast.matching == ref.matching, (
            f"paths diverge on n={n} eps={eps} seed={seed}"
        )
        assert fast.to_dict() == ref.to_dict()


# ----------------------------------------------------------------------
# Fault-free CONGEST subset (reduced count: each run is a full
# message-level simulation)
# ----------------------------------------------------------------------

CONGEST_TRIALS = max(4, min(TRIALS // 8, 25))
_CONGEST_SCHED = dict(k=4, inner_iterations=6, outer_iterations=4)


def _congest_cases():
    rng = random.Random(0xC0DE)
    return [
        (rng.randint(4, 7), rng.choice([0.5, 0.8]), rng.randrange(2**31))
        for _ in range(CONGEST_TRIALS)
    ]


def _sparse_congest_cases():
    """Markets whose lists can be shorter than k = 4, so a quantile run
    can be empty on the message level too: ``(label, prefs, eps)``."""
    rng = random.Random(0x5BA25E)
    cases = []
    for _ in range(CONGEST_TRIALS):
        n, eps, seed = (
            rng.randint(4, 7), rng.choice([0.5, 0.8]), rng.randrange(2**31)
        )
        if rng.random() < 0.5:
            d = rng.choice([2, 3])
            label = f"bounded_degree({n}, {d}, {seed})"
            cases.append((label, bounded_degree(n, d, seed), eps))
        else:
            label = f"gnp_incomplete({n}, 0.3, {seed})"
            cases.append((label, gnp_incomplete(n, 0.3, seed), eps))
    return cases


def test_congest_matches_engine_and_eps_bound():
    """Differential grid: message-level ASM equals the logical engine
    (backend and oracle) on the same truncated schedule, and its output
    respects the ε-bound on every pinned instance, complete and
    sparse."""
    cases = [
        (f"complete_uniform({n}, {seed})", complete_uniform(n, seed), eps)
        for n, eps, seed in _congest_cases()
    ] + _sparse_congest_cases()
    for label, prefs, eps in cases:
        mm_iters = 2 * prefs.n_men
        congest = run_congest_asm(
            prefs, eps, mm_iterations=mm_iters, **_CONGEST_SCHED
        )
        for engine_cls in (ASMEngine, ReferenceASMEngine):
            engine = engine_cls(
                prefs,
                eps,
                k=_CONGEST_SCHED["k"],
                inner_iterations=_CONGEST_SCHED["inner_iterations"],
                outer_iterations=_CONGEST_SCHED["outer_iterations"],
                mm_oracle=lambda g: deterministic_maximal_matching(
                    g, max_iterations=mm_iters
                ),
            )
            logical = engine.run()
            assert congest.matching == logical.matching, (
                f"congest != {engine_cls.__name__} on {label} eps={eps}"
            )
        blocking = count_blocking_pairs(prefs, congest.matching)
        assert blocking <= eps * prefs.num_edges, f"{label} eps={eps}"


def test_congest_zero_rate_plan_is_inert_over_grid():
    """A zero-rate FaultPlan never changes a CONGEST run's output."""
    for n, eps, seed in _congest_cases()[: max(3, CONGEST_TRIALS // 2)]:
        prefs = complete_uniform(n, seed)
        kwargs = dict(mm_iterations=2 * n, **_CONGEST_SCHED)
        plain = run_congest_asm(prefs, eps, **kwargs)
        nulled = run_congest_asm(
            prefs, eps, faults=FaultPlan(seed=seed), **kwargs
        )
        assert nulled.matching == plain.matching
        assert nulled.stats.rounds == plain.stats.rounds
        assert nulled.stats.messages == plain.stats.messages
        assert nulled.fault_trace == ()
