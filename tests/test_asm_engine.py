"""Tests for the ASM engine (Algorithms 1–3, Lemmas 1–7, Theorems 3–4)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stability import (
    count_blocking_pairs,
    find_eps_blocking_pairs,
    instability,
)
from repro.core.asm import (
    ASMEngine,
    ASMObserver,
    asm,
    params_for_eps,
)
from repro.core.preferences import PreferenceProfile
from repro.core.quantile import offset_quantile
from repro.core.rounds import (
    CONSTANT_ROUNDS_PER_PROPOSAL_ROUND,
    ActualCost,
    FixedCost,
    HKPCost,
)
from repro.errors import InvalidParameterError, SimulationError
from repro.mm.oracles import greedy_oracle, israeli_itai_oracle
from repro.mm.result import MMResult
from repro.workloads.generators import (
    adversarial_gale_shapley,
    bounded_degree,
    complete_uniform,
    euclidean,
    gnp_incomplete,
    master_list,
)
from tests.helpers import (
    TRADE_UP_CASES,
    TRADE_UP_LISTS,
    TRADE_UP_M0,
    TRADE_UP_SEATS,
)


class TestParams:
    def test_paper_parameters(self):
        k, delta = params_for_eps(0.2)
        assert k == 40
        assert delta == 0.025

    def test_eps_one(self):
        k, delta = params_for_eps(1.0)
        assert k == 8 and delta == 0.125

    def test_invalid_eps(self):
        with pytest.raises(InvalidParameterError):
            params_for_eps(0.0)
        with pytest.raises(InvalidParameterError):
            params_for_eps(-1.0)

    def test_engine_validates_overrides(self):
        prefs = complete_uniform(4, seed=0)
        with pytest.raises(InvalidParameterError):
            ASMEngine(prefs, 0.5, k=0)
        with pytest.raises(InvalidParameterError):
            ASMEngine(prefs, 0.5, delta=0.0)


class TestTheorem3:
    """The approximation guarantee on every workload family."""

    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.5, 1.0])
    def test_complete(self, eps):
        for seed in range(3):
            prefs = complete_uniform(24, seed=seed)
            run = asm(prefs, eps)
            assert instability(prefs, run.matching) <= eps

    @pytest.mark.parametrize(
        "factory",
        [
            lambda s: gnp_incomplete(20, 0.3, seed=s),
            lambda s: bounded_degree(20, 5, seed=s),
            lambda s: master_list(16, 0.1, seed=s),
            lambda s: euclidean(20, radius=0.5, seed=s),
            lambda s: adversarial_gale_shapley(16),
        ],
    )
    def test_other_workloads(self, factory):
        eps = 0.3
        for seed in range(3):
            prefs = factory(seed)
            run = asm(prefs, eps)
            run.matching.validate_against(prefs)
            assert instability(prefs, run.matching) <= eps

    def test_matching_valid_against_prefs(self):
        prefs = gnp_incomplete(18, 0.4, seed=11)
        run = asm(prefs, 0.25)
        run.matching.validate_against(prefs)

    def test_result_metadata(self):
        prefs = complete_uniform(10, seed=0)
        run = asm(prefs, 0.5)
        assert run.eps == 0.5
        assert run.k == 16
        assert run.n_men == run.n_women == 10
        assert run.num_edges == 100
        assert run.good_men | run.bad_men == frozenset(range(10))
        assert not run.removed_men
        assert 0.0 <= run.good_fraction <= 1.0


class TestGoodBadClassification:
    def test_good_iff_matched_or_exhausted(self):
        prefs = gnp_incomplete(16, 0.3, seed=5)
        engine = ASMEngine(prefs, 0.4)
        run = engine.run()
        for m in range(16):
            matched = run.matching.partner_of_man(m) is not None
            exhausted = engine.m_remaining[m] == 0
            assert (m in run.good_men) == (matched or exhausted)

    def test_lemma3_good_men_not_in_2k_blocking_pairs(self):
        for seed in range(4):
            prefs = complete_uniform(20, seed=seed)
            run = asm(prefs, 0.4)
            pairs = find_eps_blocking_pairs(prefs, run.matching, 2.0 / run.k)
            assert all(m not in run.good_men for m, _ in pairs)

    def test_lemma6_bad_fraction_bounded(self):
        prefs = complete_uniform(32, seed=3)
        run = asm(prefs, 0.5)
        for it in run.outer_iterations:
            assert it.lemma6_bad_fraction <= run.delta + 1e-12

    def test_empty_list_men_are_good(self):
        prefs = PreferenceProfile([[], [0]], [[1]])
        run = asm(prefs, 0.5)
        assert 0 in run.good_men


class TestMonotonicity:
    """Lemma 1: women never lose a partner and only trade up."""

    class _Monitor(ASMObserver):
        def __init__(self):
            self.partner_rank = {}
            self.violations = []

        def on_proposal_round_end(self, engine, stats):
            for w, m in enumerate(engine.woman_partner):
                prev = self.partner_rank.get(w)
                if m is None:
                    if prev is not None:
                        self.violations.append(("unmatched", w))
                    continue
                rank = engine.prefs.rank_of_man(w, m)
                if prev is not None and rank > prev:
                    self.violations.append(("worse", w, prev, rank))
                self.partner_rank[w] = rank

    @pytest.mark.parametrize("seed", range(4))
    def test_women_only_trade_up(self, seed):
        prefs = gnp_incomplete(16, 0.5, seed=seed)
        monitor = self._Monitor()
        asm(prefs, 0.3, observer=monitor)
        assert monitor.violations == []


class TestTradeUpCheck:
    """Lemma 1's check on the Python backend: the hand-made state of
    :data:`tests.helpers.TRADE_UP_M0`, as the vec backend's test in
    ``tests/test_vec_pointers.py`` builds it, raises the same message."""

    def _state(self, order):
        prefs = PreferenceProfile(*TRADE_UP_LISTS)
        state = ASMEngine(prefs, 0.5, k=3, check_invariants=True)._state
        for m, w in TRADE_UP_SEATS:
            state.man_partner[m] = w
            state.woman_partner[w] = m
            state.woman_partner_pos[w] = state.w_indptr[w] + m
        pairs = [TRADE_UP_M0[i] for i in order]
        state._acc_m = [m for m, _ in pairs]
        state._acc_w = [w for _, w in pairs]
        state._acc_wp = [state.w_indptr[w] + m for m, w in pairs]
        state._mm_result = MMResult(
            partner={}, rounds=0, edges=list(range(len(pairs)))
        )
        return state

    @pytest.mark.parametrize("order,message", TRADE_UP_CASES)
    def test_first_offender_is_named(self, order, message):
        state = self._state(order)
        with pytest.raises(SimulationError) as exc:
            state.step_reject()
        assert str(exc.value) == message

    def test_lemma2_fails_right_after_activation(self):
        state = ASMEngine(PreferenceProfile(*TRADE_UP_LISTS), 0.5, k=3)._state
        assert state.lemma2_holds()
        state.activate(state.candidates(0))
        assert not state.lemma2_holds()


class TestLemma2:
    def test_invariant_checked_runs_clean(self):
        for seed in range(3):
            prefs = complete_uniform(16, seed=seed)
            asm(prefs, 0.4, check_invariants=True)

    def test_single_quantile_match_empties_active_sets(self):
        prefs = complete_uniform(12, seed=1)
        engine = ASMEngine(prefs, 0.5, check_invariants=True)
        engine.quantile_match()
        assert all(not a for a in engine.active)

    def test_quantile_match_resolves_every_activated_man(self):
        """Lemma 2's conclusion: each man who activated a quantile is
        matched within it or was rejected by all of it."""
        prefs = complete_uniform(12, seed=2)
        engine = ASMEngine(prefs, 0.5)
        indptr, women = prefs.men_csr()
        activated = {}  # man -> man-side positions of his best quantile
        for m in range(12):
            lo, hi = indptr[m], indptr[m + 1]
            live = [p for p in range(lo, hi) if engine.present[p]]
            deg = hi - lo
            best = -(-(live[0] - lo + 1) * engine.k // deg)  # ⌈r·k/deg⌉
            activated[m] = [
                p for p in live
                if offset_quantile(p - lo, deg, engine.k) == best
            ]
        engine.quantile_match()
        for m, positions in activated.items():
            partner = engine.man_partner[m]
            if partner is not None:
                assert partner in {women[p] for p in positions}
            else:
                # all of his first quantile rejected him (removed from Q)
                assert all(not engine.present[p] for p in positions)

    def test_last_round_rejections_leave_no_active_positions(self):
        """A QuantileMatch whose k-th ProposalRound still rejects leaves
        every ``A`` empty: Step 5 drops rejected positions at once, so
        no entry goes stale for observers that read ``active``."""

        class Recorder(ASMObserver):
            def __init__(self):
                self.rounds = []
                self.active_before_last = []

            def on_proposal_round_end(self, engine, stats):
                self.rounds.append(stats)
                if len(self.rounds) == engine.k - 1:
                    self.active_before_last = [
                        m for m, a in enumerate(engine.active) if a
                    ]

        prefs = complete_uniform(8, seed=4)
        recorder = Recorder()
        engine = ASMEngine(prefs, 0.5, k=2, observer=recorder)
        engine.quantile_match()
        # The instance exercises the case: all k rounds ran, the last
        # one rejected, and some man active going into it ended
        # unmatched, i.e. was rejected by all of his remaining A.
        assert len(recorder.rounds) == engine.k
        assert recorder.rounds[-1].rejects > 0
        assert any(
            engine.man_partner[m] is None
            for m in recorder.active_before_last
        )
        assert all(not a for a in engine.active)
        assert engine._state.lemma2_holds()


class TestRoundsAccounting:
    def test_scheduled_formula(self):
        """rounds_scheduled = scheduled PRs * (const + charge) under a
        fixed cost model."""
        prefs = complete_uniform(12, seed=0)
        engine = ASMEngine(prefs, 0.5, mm_cost_model=FixedCost(7))
        run = engine.run()
        expected_prs = (
            engine.outer_iteration_count()
            * engine.inner_iteration_count()
            * engine.k
        )
        assert run.proposal_rounds_scheduled == expected_prs
        assert run.rounds_scheduled == expected_prs * (
            CONSTANT_ROUNDS_PER_PROPOSAL_ROUND + 7
        )

    def test_active_le_scheduled_with_actual_cost(self):
        prefs = complete_uniform(12, seed=0)
        run = asm(prefs, 0.5, mm_cost_model=ActualCost())
        assert run.rounds_active <= run.rounds_scheduled

    def test_executed_le_scheduled(self):
        prefs = complete_uniform(12, seed=0)
        run = asm(prefs, 0.5)
        assert run.proposal_rounds_executed <= run.proposal_rounds_scheduled
        assert (
            run.quantile_match_calls_executed
            <= run.quantile_match_calls_scheduled
        )

    def test_hkp_cost_polylog(self):
        cost = HKPCost()
        assert cost.charge(2, None) == 1
        assert cost.charge(1024, None) == math.ceil(10.0 ** 4)
        assert cost.charge(1, None) == 1

    def test_messages_counted(self):
        prefs = complete_uniform(12, seed=0)
        run = asm(prefs, 0.5)
        assert run.messages.proposes > 0
        assert run.messages.accepts > 0
        assert run.messages.rejects > 0
        assert run.messages.total == (
            run.messages.proposes
            + run.messages.accepts
            + run.messages.rejects
        )

    def test_category_breakdown_sums(self):
        prefs = complete_uniform(10, seed=4)
        run = asm(prefs, 0.5)
        assert (
            sum(run.rounds.by_category_active.values()) == run.rounds_active
        )
        assert (
            sum(run.rounds.by_category_scheduled.values())
            == run.rounds_scheduled
        )


class TestOverridesAndOracles:
    def test_schedule_overrides(self):
        prefs = complete_uniform(8, seed=0)
        engine = ASMEngine(
            prefs, 0.5, inner_iterations=3, outer_iterations=2
        )
        assert engine.inner_iteration_count() == 3
        assert engine.outer_iteration_count() == 2
        run = engine.run()
        assert run.quantile_match_calls_scheduled == 6

    def test_greedy_oracle_equivalent_quality(self):
        prefs = complete_uniform(16, seed=6)
        run = asm(prefs, 0.3, mm_oracle=greedy_oracle())
        assert instability(prefs, run.matching) <= 0.3

    def test_randomized_oracle_quality(self):
        prefs = complete_uniform(16, seed=6)
        run = asm(prefs, 0.3, mm_oracle=israeli_itai_oracle(2))
        assert instability(prefs, run.matching) <= 0.3

    def test_deterministic_reproducibility(self):
        prefs = gnp_incomplete(14, 0.4, seed=9)
        assert asm(prefs, 0.25).matching == asm(prefs, 0.25).matching

    def test_large_k_mimics_gale_shapley(self):
        """k >= max degree means singleton quantiles: ASM degenerates to
        parallel Gale-Shapley behavior (remark after Algorithm 1) and
        gets essentially stable outputs."""
        prefs = complete_uniform(12, seed=3)
        engine = ASMEngine(prefs, eps=0.5, k=12, delta=0.125)
        run = engine.run()
        assert count_blocking_pairs(prefs, run.matching) <= (
            4 * prefs.num_edges / 12
        )

    def test_run_flat_requires_positive_iterations(self):
        prefs = complete_uniform(4, seed=0)
        with pytest.raises(InvalidParameterError):
            ASMEngine(prefs, 0.5).run_flat(0)

    def test_step3_reads_mm_oracle_at_call_time(self):
        """Replacing ``mm_oracle`` after construction takes effect: the
        pure-Python backend looks it up on every ProposalRound."""
        prefs = complete_uniform(10, seed=4)
        engine = ASMEngine(prefs, 0.5)
        original = engine.mm_oracle
        seen = []

        def recording(g0):
            seen.append(g0.num_edges)
            return original(g0)

        engine.mm_oracle = recording
        run = engine.run()
        assert len(seen) == run.proposal_rounds_executed > 0
        assert run == asm(prefs, 0.5)

    def test_observer_aliases_are_backend_state(self):
        """The observer-visible aliases are the very objects the
        backend mutates, so observers see every update."""
        prefs = gnp_incomplete(12, 0.5, seed=3)
        aliases = (
            "present", "m_remaining", "active", "removed",
            "man_partner", "woman_partner",
        )
        engine = ASMEngine(prefs, 0.5)
        before = {name: getattr(engine, name) for name in aliases}
        run = engine.run()
        for name in aliases:
            assert getattr(engine, name) is before[name]
            assert getattr(engine, name) is getattr(engine._state, name)
        assert sorted(
            (m, w) for m, w in enumerate(engine.man_partner) if w is not None
        ) == sorted(run.matching.pairs())

    def test_python_backend_builds_no_quantized_lists(self):
        """No engine can build a per-player QuantizedList: every one
        keeps its lists as positions, and the set model lives only in
        tests/reference_quantile.py, as the test oracles' own."""
        import repro
        import repro.core
        import repro.core.quantile

        for module in (repro, repro.core, repro.core.quantile):
            assert not hasattr(module, "QuantizedList"), module.__name__
            assert not hasattr(module, "quantile_boundaries")


class TestEdgeCases:
    def test_empty_instance(self):
        prefs = PreferenceProfile([], [])
        run = asm(prefs, 0.5)
        assert len(run.matching) == 0
        assert run.good_men == frozenset()

    def test_all_isolated(self):
        prefs = PreferenceProfile([[], []], [[], []])
        run = asm(prefs, 0.5)
        assert len(run.matching) == 0
        assert run.good_men == frozenset({0, 1})
        assert run.rounds_active == 0

    def test_single_pair(self):
        prefs = PreferenceProfile([[0]], [[0]])
        run = asm(prefs, 0.5)
        assert run.matching.contains_pair(0, 0)
        assert instability(prefs, run.matching) == 0.0

    def test_one_woman_many_men(self):
        prefs = PreferenceProfile([[0], [0], [0]], [[2, 0, 1]])
        run = asm(prefs, 0.5)
        # She ends with her favorite suitor reachable by the algorithm.
        assert run.matching.partner_of_woman(0) is not None
        assert instability(prefs, run.matching) <= 0.5

    def test_eps_greater_than_one_rejected(self):
        # eps > 1 collapses k = ceil(8/eps) toward 1 and pushes
        # delta = eps/8 past 1/8, voiding Theorem 3's accounting —
        # params_for_eps must reject it.
        prefs = complete_uniform(6, seed=0)
        with pytest.raises(InvalidParameterError):
            asm(prefs, 2.0)

    def test_eps_nonpositive_rejected(self):
        prefs = complete_uniform(6, seed=0)
        for bad in (0.0, -0.5):
            with pytest.raises(InvalidParameterError):
                asm(prefs, bad)

    def test_eps_one_accepted(self):
        prefs = complete_uniform(6, seed=0)
        run = asm(prefs, 1.0)
        assert instability(prefs, run.matching) <= 1.0


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 14),
    p=st.floats(0.2, 1.0),
    eps=st.sampled_from([0.25, 0.5, 1.0]),
    seed=st.integers(0, 50),
)
def test_theorem3_property(n, p, eps, seed):
    """Theorem 3 as a hypothesis property over random instances."""
    prefs = gnp_incomplete(n, p, seed=seed)
    run = asm(prefs, eps, check_invariants=True)
    run.matching.validate_against(prefs)
    assert count_blocking_pairs(prefs, run.matching) <= eps * prefs.num_edges
