"""Seeded equivalence: the numpy struct-of-arrays engine is bit-identical.

``ASMEngine(optimized="vec")`` compiles the profile to flat arrays and
replays ProposalRound / QuantileMatch as batched array operations.  The
contract is *bit-identity* with the seed ProposalRound kept as the test
oracle :mod:`tests.reference_asm` — the entire
:class:`~repro.core.asm.ASMResult` (matching, good/bad/removed sets,
message stats, round charges by category, per-round and per-outer
stats, synchronous time) must be equal on every instance.  These tests
pin that contract over the workload generator grid, a seeded property
sweep (``REPRO_PROPERTY_TRIALS``, default 200), the Theorem 3 ε-bound
on the vec path, and the vectorized blocking-pair counter against the
Python oracle.

numpy is an optional extra (``repro[fast]``): with numpy absent, the
vec tests skip and the fallback tests assert the clean
:class:`~repro.errors.VecUnavailableError` surface instead.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.analysis.stability import count_blocking_pairs
from repro.core.asm import ASMEngine, asm
from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile
from repro.core.quantile import offset_quantile, quantile_index
from repro.errors import (
    InvalidMatchingError,
    InvalidParameterError,
    VecUnavailableError,
)
from repro.mm.oracles import israeli_itai_oracle
from repro.obs.telemetry import Telemetry
from repro.trace.slo import SLOMonitor, StabilitySLO
from repro.vec import HAS_NUMPY
from repro.workloads.generators import (
    GENERATORS,
    adversarial_gale_shapley,
    bounded_degree,
    complete_uniform,
    gnp_incomplete,
)
from tests.reference_asm import ReferenceASMEngine, reference_asm

needs_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="numpy not installed (repro[fast] extra)"
)

#: Instances for the property sweep; CI smoke jobs reduce this.
TRIALS = int(os.environ.get("REPRO_PROPERTY_TRIALS", "200"))

# Same representative grid the True/False equivalence suite pins.
GRID = [
    ("complete", {"n": 18, "seed": 0}),
    ("complete", {"n": 18, "seed": 1}),
    ("gnp", {"n": 22, "p": 0.35, "seed": 2}),
    ("bounded", {"n": 20, "d": 6, "seed": 3}),
    ("regular", {"n": 16, "d": 5, "seed": 4}),
    ("almost_regular", {"n": 18, "d_min": 3, "d_max": 7, "seed": 5}),
    ("master_list", {"n": 14, "noise": 0.15, "seed": 6}),
    ("euclidean", {"n": 20, "radius": 0.4, "seed": 7}),
    ("zipf", {"n": 14, "exponent": 1.0, "seed": 8}),
    ("clustered", {"n": 16, "seed": 9}),
]

_ROOT = random.Random(0x5EC5)
_FUZZ = [
    (
        _ROOT.choice(["complete", "gnp", "bounded"]),
        _ROOT.randint(3, 12),
        _ROOT.choice([0.25, 0.4, 0.5, 0.8, 1.0]),
        _ROOT.randrange(2**31),
    )
    for _ in range(TRIALS)
]


def _fuzz_profile(family, n, seed):
    if family == "complete":
        return complete_uniform(n, seed=seed)
    if family == "gnp":
        return gnp_incomplete(n, 0.5, seed=seed)
    return bounded_degree(n, min(4, n), seed=seed)


@needs_numpy
class TestVecEquivalence:
    @pytest.mark.parametrize("name,kwargs", GRID)
    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
    def test_identical_results_across_grid(self, name, kwargs, eps):
        prefs = GENERATORS[name](**kwargs)
        reference = reference_asm(prefs, eps)
        vec = asm(prefs, eps, optimized="vec")
        assert vec == reference

    def test_identical_with_invariant_checking(self):
        prefs = complete_uniform(16, seed=11)
        reference = reference_asm(prefs, 0.4, check_invariants=True)
        vec = asm(prefs, 0.4, optimized="vec", check_invariants=True)
        assert vec == reference

    def test_identical_on_adversarial_instance(self):
        prefs = adversarial_gale_shapley(14)
        assert asm(prefs, 0.3, optimized="vec") == reference_asm(prefs, 0.3)

    def test_identical_on_asymmetric_markets(self):
        profiles = [
            PreferenceProfile([[], [0, 1]], [[1], [1]]),
            PreferenceProfile([[0, 1], [1]], [[0], [0, 1], []]),
            PreferenceProfile([[2, 0]], [[0], [], [0]]),
            PreferenceProfile([], []),
            PreferenceProfile([[], []], [[], []]),
        ]
        for prefs in profiles:
            reference = reference_asm(prefs, 0.5, check_invariants=True)
            vec = asm(prefs, 0.5, optimized="vec", check_invariants=True)
            assert vec == reference

    @pytest.mark.parametrize("iterations", [1, 4, 12])
    def test_identical_run_flat(self, iterations):
        prefs = gnp_incomplete(24, 0.3, seed=19)
        reference = ReferenceASMEngine(prefs, 0.5).run_flat(iterations)
        vec = ASMEngine(prefs, 0.5, optimized="vec").run_flat(iterations)
        assert vec == reference

    @pytest.mark.parametrize("name,kwargs", GRID)
    def test_identical_telemetry_across_grid(self, name, kwargs):
        """The engine's counters, gauges and event records (``t``
        excluded) do not depend on the backend."""
        prefs = GENERATORS[name](**kwargs)
        captured = []
        for optimized in (True, "vec"):
            tel = Telemetry.create()
            asm(prefs, 0.5, optimized=optimized, telemetry=tel)
            records = [
                {k: v for k, v in record.items() if k != "t"}
                for record in tel.metrics.events
            ]
            captured.append(
                (tel.metrics.counters, tel.metrics.gauges, records)
            )
        assert captured[0] == captured[1]
        assert captured[0][2]

    @pytest.mark.parametrize("name,kwargs", GRID)
    def test_slo_monitor_identical_across_grid(self, name, kwargs):
        """SLOMonitor reads the matching backend-neutrally: its ε
        trajectory and blocking-pair counts match on vec."""
        prefs = GENERATORS[name](**kwargs)
        monitors = []
        for optimized in (True, "vec"):
            monitor = SLOMonitor(prefs, StabilitySLO(0.5))
            asm(prefs, 0.5, optimized=optimized, observer=monitor)
            monitors.append(monitor)
        python, vec = monitors
        assert vec.trajectory == python.trajectory
        assert vec.blocking_counts == python.blocking_counts
        assert vec.blocking_counts

    def test_engines_share_one_compiled_profile(self):
        prefs = complete_uniform(10, seed=2)
        a = ASMEngine(prefs, 0.5, optimized="vec")
        b = ASMEngine(prefs, 0.5, optimized="vec")
        assert a._state.profile is b._state.profile  # same cached VecProfile


@needs_numpy
class TestVecPropertySweep:
    """Seeded fuzz: bit-identity and Theorem 3 on the vec path."""

    @pytest.mark.parametrize(
        "family,n,eps,seed", _FUZZ, ids=lambda _: None
    )
    def test_vec_matches_reference_and_theorem3(self, family, n, eps, seed):
        from repro.vec.stability import count_blocking_pairs_vec

        prefs = _fuzz_profile(family, n, seed)
        reference = reference_asm(prefs, eps, check_invariants=True)
        vec = asm(prefs, eps, optimized="vec", check_invariants=True)
        assert vec == reference

        blocking = count_blocking_pairs_vec(prefs, vec.matching.pairs())
        assert blocking == count_blocking_pairs(prefs, vec.matching)
        assert blocking <= eps * prefs.num_edges, (
            f"Theorem 3 violated on vec path ({family}, n={n}, "
            f"seed={seed}): {blocking} > {eps * prefs.num_edges}"
        )


@needs_numpy
class TestVecMatchingConstruction:
    """The vec backend builds its :class:`Matching` from arrays."""

    @staticmethod
    def _raised(engine, women):
        """Messages of ``current_matching()`` and of ``Matching(pairs)``."""
        wp = engine._state.woman_partner
        with pytest.raises(InvalidMatchingError) as expected:
            Matching([(int(wp[w]), w) for w in women])
        with pytest.raises(InvalidMatchingError) as got:
            engine.current_matching()
        return str(got.value), str(expected.value)

    def test_man_seated_twice_raises(self):
        engine = ASMEngine(complete_uniform(8, seed=3), 0.5, optimized="vec")
        engine.run()
        wp = engine._state.woman_partner
        women = [w for w in range(8) if wp[w] >= 0]
        wp[women[-1]] = wp[women[0]]
        got, expected = self._raised(engine, women)
        assert got == expected

    def test_first_repeat_in_woman_order_is_named(self):
        engine = ASMEngine(complete_uniform(8, seed=3), 0.5, optimized="vec")
        engine.run()
        wp = engine._state.woman_partner
        w0, w1, w2, w3 = [w for w in range(8) if wp[w] >= 0][:4]
        low, high = sorted((int(wp[w0]), int(wp[w1])))
        # The larger man repeats first (at w2), the smaller later (w3).
        wp[w2] = high
        wp[w3] = low
        got, expected = self._raised(engine, [w0, w1, w2, w3])
        assert got == expected == f"man {high} is matched more than once"

    @pytest.mark.parametrize("name,kwargs", GRID)
    def test_same_matching_as_built_from_pairs(self, name, kwargs):
        prefs = GENERATORS[name](**kwargs)
        engine = ASMEngine(prefs, 0.5, optimized="vec")
        engine.run()
        built = engine.current_matching()
        wp = engine._state.woman_partner.tolist()
        pairs = [(m, w) for w, m in enumerate(wp) if m >= 0]
        plain = Matching(pairs)
        assert built == plain
        assert list(built.pairs()) == list(plain.pairs())
        assert list(built) == sorted(pairs)
        for w in range(prefs.n_women):
            assert built.partner_of_woman(w) == plain.partner_of_woman(w)
        assert built.matched_women() == plain.matched_women()
        assert built.to_dict() == plain.to_dict()
        assert repr(built) == repr(plain)
        assert all(
            type(v) is int
            for pair in built.pairs()
            for v in pair
        )


@needs_numpy
class TestVecStabilityCounter:
    def test_counts_match_oracle_on_partial_matchings(self):
        from repro.vec.stability import count_blocking_pairs_vec

        rng = random.Random(7)
        for prefs in (
            complete_uniform(15, seed=1),
            gnp_incomplete(25, 0.3, seed=2),
            bounded_degree(30, 5, seed=3),
        ):
            matchings = [Matching([])]
            for _ in range(8):
                used = set()
                pairs = []
                for m in range(prefs.n_men):
                    lst = prefs.man_list(m)
                    if lst and rng.random() < 0.6:
                        w = rng.choice(lst)
                        if w not in used:
                            used.add(w)
                            pairs.append((m, w))
                matchings.append(Matching(pairs))
            for matching in matchings:
                assert count_blocking_pairs_vec(
                    prefs, matching.pairs()
                ) == count_blocking_pairs(prefs, matching)

    def test_reuses_supplied_profile(self):
        from repro.vec.compile import compile_profile
        from repro.vec.stability import count_blocking_pairs_vec

        prefs = complete_uniform(8, seed=5)
        profile = compile_profile(prefs, 16)
        result = asm(prefs, 0.5, optimized="vec")
        assert count_blocking_pairs_vec(
            prefs, result.matching.pairs(), profile=profile
        ) == count_blocking_pairs(prefs, result.matching)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            # (0, 0) is not an edge: its key sorts next to man 0's.
            ([(1, 2), (0, 0)], r"pair \(0, 0\) is not an edge"),
            ([(0, 0)], r"pair \(0, 0\) is not an edge"),
            # The first offender in input order is named.
            ([(0, 1), (0, 4), (3, 0)], r"pair \(0, 4\): man 0 is matched"),
            ([(0, 1), (6, 0)], r"pair \(6, 0\) is out of range"),
            ([(-1, 0)], r"pair \(-1, 0\) is out of range"),
            ([(0, 6)], r"pair \(0, 6\) is out of range"),
            ([(0, 1), (0, 4)], r"pair \(0, 4\): man 0 is matched more"),
            ([(1, 0), (5, 0)], r"pair \(5, 0\): woman 0 is matched more"),
        ],
    )
    def test_rejects_pairs_that_are_not_a_matching(self, pairs, message):
        from repro.vec.stability import count_blocking_pairs_vec

        prefs = bounded_degree(6, 2, 1)
        assert prefs.man_list(0) == (1, 4)
        with pytest.raises(InvalidMatchingError, match=message):
            count_blocking_pairs_vec(prefs, pairs)


@needs_numpy
class TestCompiledProfile:
    def test_decimal_str_order_keys_match_str_sort(self):
        """The numpy keys and their stdlib twin are the same keys, in
        ``str`` order; the compiled labels are the Python backend's."""
        import numpy as np

        from repro.mm.g0 import (
            decimal_str_order_keys,
            str_order_keys,
            woman_label_base,
        )
        from repro.vec.compile import compile_profile

        for n in (0, 1, 2, 9, 10, 11, 99, 100, 101, 1234):
            keys = decimal_str_order_keys(n)
            by_key = sorted(range(n), key=lambda i: int(keys[i]))
            by_str = sorted(range(n), key=str)
            assert by_key == by_str, f"n={n}"
            assert len(np.unique(keys)) == n  # injective
            assert keys.tolist() == str_order_keys(n), f"n={n}"
            base = woman_label_base(n)
            assert decimal_str_order_keys(3, base).tolist() == (
                str_order_keys(3, base)
            )

        prefs = gnp_incomplete(12, 0.5, seed=1)
        profile = compile_profile(prefs, 4)
        state = ASMEngine(prefs, 0.5)._state
        assert profile.m_mm_key.tolist() == state.m_label
        assert profile.w_mm_key.tolist() == state.w_label

    def test_quantile_tables_match_quantized_lists(self):
        """The quantile a vec step reads from a position is the one a
        set-model oracle's :class:`QuantizedList` holds for that
        partner."""
        from repro.vec.compile import compile_profile
        from tests.helpers import position_quantiles
        from tests.reference_quantile import QuantizedList

        prefs = gnp_incomplete(12, 0.6, seed=4)
        k = 7
        p = compile_profile(prefs, k)
        sides = (
            (p.m_indptr, p.m_degree, p.m_woman, prefs.man_list),
            (p.w_indptr, p.w_degree, p.w_man, prefs.woman_list),
        )
        for indptr, degree, targets, list_of in sides:
            quant = position_quantiles(indptr, degree, k)
            for v in range(len(degree)):
                ql = QuantizedList(list_of(v), k)
                for pos in range(int(indptr[v]), int(indptr[v + 1])):
                    u = int(targets[pos])
                    assert int(quant[pos]) == ql.quantile_of(u)

    def test_cross_position_maps_are_inverse(self):
        from repro.vec.compile import compile_profile

        prefs = gnp_incomplete(10, 0.5, seed=6)
        p = compile_profile(prefs, 3)
        for e in range(p.num_edges):
            assert int(p.w2m_pos[int(p.m2w_pos[e])]) == e
            wpos = int(p.m2w_pos[e])
            w = int(p.m_woman[e])
            assert int(p.w_man[wpos]) == int(p.m_owner[e])
            assert int(p.w_indptr[w]) <= wpos < int(p.w_indptr[w + 1])


class TestFrozenCaches:
    """Satellite: the compiled-profile cache must be tamper-proof."""

    def test_edges_cache_object_identity_preserved(self):
        prefs = complete_uniform(8, seed=0)
        first = prefs.edges()
        assert isinstance(first, frozenset)
        assert prefs.edges() is first
        if HAS_NUMPY:
            from repro.vec.compile import compile_profile

            compile_profile(prefs, 4)
            assert prefs.edges() is first  # compilation didn't disturb it

    @needs_numpy
    def test_compiled_arrays_are_frozen(self):
        import numpy as np

        from repro.vec.compile import compile_profile

        prefs = complete_uniform(6, seed=1)
        p = compile_profile(prefs, 4)
        for name in (
            "m_indptr",
            "m_woman",
            "m_owner",
            "m_degree",
            "w_indptr",
            "w_man",
            "w_degree",
            "m2w_pos",
            "w2m_pos",
            "m_mm_key",
            "w_mm_key",
        ):
            arr = getattr(p, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[...] = 0

    @needs_numpy
    def test_soa_cache_keyed_by_k(self):
        from repro.vec.compile import compile_profile

        prefs = complete_uniform(6, seed=2)
        p4 = compile_profile(prefs, 4)
        p8 = compile_profile(prefs, 8)
        assert p4 is not p8
        assert compile_profile(prefs, 4) is p4
        assert compile_profile(prefs, 8) is p8
        assert set(prefs.soa_cache()) == {4, 8}

    @needs_numpy
    def test_tampered_cache_entry_is_recompiled(self):
        from repro.vec.compile import VecProfile, compile_profile

        prefs = complete_uniform(5, seed=3)
        prefs.soa_cache()[4] = "garbage"  # not a VecProfile
        rebuilt = compile_profile(prefs, 4)
        assert isinstance(rebuilt, VecProfile)


class TestVecParameterValidation:
    def test_unknown_optimized_value_rejected(self):
        prefs = complete_uniform(4, seed=0)
        for optimized in ("fast", False):
            with pytest.raises(InvalidParameterError):
                ASMEngine(prefs, 0.5, optimized=optimized)

    @needs_numpy
    def test_vec_rejects_removal_mode(self):
        prefs = complete_uniform(4, seed=0)
        with pytest.raises(InvalidParameterError):
            ASMEngine(
                prefs, 0.5, optimized="vec", remove_unmatched_violators=True
            )

    @needs_numpy
    def test_vec_rejects_randomized_oracle(self):
        prefs = complete_uniform(4, seed=0)
        with pytest.raises(InvalidParameterError):
            ASMEngine(
                prefs, 0.5, optimized="vec", mm_oracle=israeli_itai_oracle(3)
            )

    def test_unavailable_error_when_numpy_missing(self, monkeypatch):
        import repro.vec as vec_pkg

        monkeypatch.setattr(vec_pkg, "HAS_NUMPY", False)
        with pytest.raises(VecUnavailableError) as exc:
            vec_pkg.require_numpy()
        assert "repro[fast]" in str(exc.value)
        prefs = complete_uniform(4, seed=0)
        with pytest.raises(VecUnavailableError):
            ASMEngine(prefs, 0.5, optimized="vec")

    def test_python_paths_unaffected_by_numpy_absence(self, monkeypatch):
        import repro.vec as vec_pkg

        monkeypatch.setattr(vec_pkg, "HAS_NUMPY", False)
        prefs = complete_uniform(6, seed=1)
        assert asm(prefs, 0.5) == reference_asm(prefs, 0.5)


class TestQuantileBoundaryCache:
    """The quantile of each list offset, by the one formula."""

    def test_boundaries_match_ceiling_arithmetic(self):
        for degree in range(0, 25):
            for k in (1, 2, 3, 7, 16):
                expected = [
                    -(-rank * k // degree) for rank in range(1, degree + 1)
                ]
                got = [offset_quantile(off, degree, k) for off in range(degree)]
                assert got == expected

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            quantile_index(1, 5, 0)
        with pytest.raises(InvalidParameterError):
            quantile_index(1, 0, 4)


@needs_numpy
class TestDynamicVecSolver:
    """Satellite: the dynamic engine's full solves can use the vec path."""

    def test_trajectory_identical_across_solvers(self):
        from repro.dynamic.engine import DynamicMatchingEngine
        from repro.workloads.churn import ChurnConfig, churn_stream

        prefs = bounded_degree(60, 5, seed=23)
        deltas = churn_stream(prefs, ChurnConfig(steps=12), 23)
        engines = [
            DynamicMatchingEngine(prefs, 0.5, solver_optimized=solver)
            for solver in (True, "vec")
        ]
        for engine in engines:
            engine.apply_stream(deltas)
        py, vec = engines
        assert py.trajectory == vec.trajectory
        assert py.fallbacks == vec.fallbacks
        assert py.marriages == vec.marriages
        assert sorted(py.current_matching().pairs()) == sorted(
            vec.current_matching().pairs()
        )
