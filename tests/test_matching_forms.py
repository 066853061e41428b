"""The two forms of :class:`Matching` behave as one, and solver results
built on the pair-sequence form serialize exactly as before.

``Matching(pairs)`` checks its pairs into two per-player dicts.  A
solver's result (``Matching._from_sorted_pairs``) keeps its pairs as two
``array("q")`` sequences sorted by man and builds the dicts on the first
per-player query.  Every public method must answer the same on both,
and the whole-matching methods must not build the dicts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pickle
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.almost_regular import almost_regular_asm
from repro.core.asm import ASMEngine, asm
from repro.core.matching import Matching
from repro.core.rand_asm import rand_asm
from repro.errors import InvalidMatchingError
from repro.mm.israeli_itai import israeli_itai_maximal_matching
from repro.vec import HAS_NUMPY
from repro.workloads.generators import (
    almost_regular,
    bounded_degree,
    complete_uniform,
    gnp_incomplete,
)
from tests.reference_asm import ReferenceASMEngine

needs_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="numpy not installed (repro[fast] extra)"
)

# Player indices run past the profile's 20 so out-of-range pairs occur.
PAIR_SETS = st.lists(
    st.tuples(st.integers(0, 24), st.integers(0, 24)),
    unique_by=(lambda p: p[0], lambda p: p[1]),
    max_size=20,
)
PROFILE = gnp_incomplete(20, 0.5, seed=1)


def sequence_form(pairs):
    """The solver-result form of ``pairs``."""
    ordered = sorted(pairs)
    men = array("q", [m for m, _ in ordered])
    women = array("q", [w for _, w in ordered])
    return Matching._from_sorted_pairs(men, women)


def dicts_built(matching):
    """Whether the per-player dicts exist, read without building them."""
    try:
        Matching.__dict__["_man_to_woman"].__get__(matching)
    except AttributeError:
        return False
    return True


def validation_error(matching):
    try:
        matching.validate_against(PROFILE)
    except InvalidMatchingError as err:
        return str(err)
    return None


def whole_matching_answers(matching):
    return (
        len(matching),
        list(matching.pairs()),
        list(matching),
        matching.to_dict(),
        matching.to_json(),
        matching.matched_men(),
        matching.matched_women(),
        hash(matching),
        repr(matching),
        validation_error(matching),
        matching.is_perfect(PROFILE),
        (1,) in matching,
    )


def per_player_answers(matching):
    players = range(-1, 27)
    return (
        [matching.partner_of_man(m) for m in players],
        [matching.partner_of_woman(w) for w in players],
        [matching.is_man_matched(m) for m in players],
        [matching.is_woman_matched(w) for w in players],
        [matching.contains_pair(m, w) for m in players for w in players],
        [(m, w) in matching for m in players for w in players],
        ("x", 1) in matching,
    )


class TestForms:
    @settings(max_examples=60, deadline=None)
    @given(pairs=PAIR_SETS)
    def test_every_method_agrees(self, pairs):
        built, seq = Matching(pairs), sequence_form(pairs)
        assert built == seq and seq == built
        assert not built != seq
        assert whole_matching_answers(seq) == whole_matching_answers(built)
        assert not dicts_built(seq)
        assert per_player_answers(seq) == per_player_answers(built)
        assert dicts_built(seq)
        # Built dicts change no answer.
        assert whole_matching_answers(seq) == whole_matching_answers(built)

    def test_empty(self):
        built, seq = Matching(), sequence_form([])
        assert built == seq and hash(built) == hash(seq)
        assert repr(seq) == "Matching([])"
        assert seq.to_dict() == {"pairs": []}
        assert seq.partner_of_man(0) is None and len(seq) == 0

    @settings(max_examples=40, deadline=None)
    @given(pairs=PAIR_SETS.filter(bool), data=st.data())
    def test_unequal_contents_differ_in_every_pairing(self, pairs, data):
        drop = data.draw(st.integers(0, len(pairs) - 1))
        fewer = pairs[:drop] + pairs[drop + 1 :]
        m, w = pairs[drop]
        moved = fewer + [(m, 99)]
        for other in (fewer, moved):
            for a in (Matching(pairs), sequence_form(pairs)):
                for b in (Matching(other), sequence_form(other)):
                    assert a != b and b != a

    def test_not_equal_to_other_types(self):
        seq = sequence_form([(0, 1)])
        assert seq != [(0, 1)] and seq.__eq__([(0, 1)]) is NotImplemented

    @settings(max_examples=40, deadline=None)
    @given(pairs=PAIR_SETS)
    def test_pickle_round_trip(self, pairs):
        built, seq = Matching(pairs), sequence_form(pairs)
        for original in (built, seq):
            copy = pickle.loads(pickle.dumps(original))
            assert copy == original and repr(copy) == repr(original)
            assert hash(copy) == hash(original)
        assert not dicts_built(seq)
        assert not dicts_built(pickle.loads(pickle.dumps(seq)))
        seq.partner_of_man(0)
        assert pickle.loads(pickle.dumps(seq)) == built

    @needs_numpy
    @settings(max_examples=40, deadline=None)
    @given(pairs=PAIR_SETS)
    def test_numpy_buffers_hand_over(self, pairs):
        import numpy as np

        from repro.vec.engine import _int64_array

        ordered = sorted(pairs)
        men = np.array([m for m, _ in ordered], dtype=np.int64)
        women = np.array([w for _, w in ordered], dtype=np.int64)
        seq = Matching._from_sorted_pairs(
            _int64_array(men), _int64_array(women)
        )
        built = Matching(pairs)
        assert seq == built and built == seq
        assert whole_matching_answers(seq) == whole_matching_answers(built)
        assert per_player_answers(seq) == per_player_answers(built)


def _removal_run():
    """Men removed from play: the oracle matches nothing on two of every
    three calls, so G0's unmatched men violate maximality."""
    rng = random.Random(2)
    calls = itertools.count()

    def oracle(graph):
        budget = None if next(calls) % 3 == 0 else 0
        return israeli_itai_maximal_matching(graph, rng, max_iterations=budget)

    engine = ASMEngine(
        bounded_degree(60, 6, 2),
        0.5,
        mm_oracle=oracle,
        remove_unmatched_violators=True,
    )
    return engine.run_flat(3)


_BOUNDED = bounded_degree(300, 8, 1)
_COMPLETE = complete_uniform(24, seed=3)
_ALMOST_REGULAR = almost_regular(40, 4, 8, seed=4)

# name -> (run, needs numpy, SHA-256 of json.dumps(result.to_dict())).
# The digests were taken from results whose matchings were built from
# pairs; the sequence form must serialize to the same bytes.
RESULTS = {
    "asm-python-bounded": (
        lambda: asm(_BOUNDED, 0.5),
        False,
        "cb308d540a7f763395e1258cd9bd46419cc4de2d2073cbfdd7112989c4fc408f",
    ),
    "asm-vec-bounded": (
        lambda: asm(_BOUNDED, 0.5, optimized="vec"),
        True,
        "cb308d540a7f763395e1258cd9bd46419cc4de2d2073cbfdd7112989c4fc408f",
    ),
    "asm-python-complete": (
        lambda: asm(_COMPLETE, 0.25),
        False,
        "204fb763b8788a3aadd7a1325c2d8a9c32e3850734b28d595b24ce90f945f50d",
    ),
    "asm-vec-complete": (
        lambda: asm(_COMPLETE, 0.25, optimized="vec"),
        True,
        "204fb763b8788a3aadd7a1325c2d8a9c32e3850734b28d595b24ce90f945f50d",
    ),
    "rand-asm": (
        lambda: rand_asm(_COMPLETE, 0.25, seed=7),
        False,
        "3bc6148e54a354f46379a3d589cb3be419a1c76defc93c8d23e39fbd31a0954b",
    ),
    "almost-regular-asm": (
        lambda: almost_regular_asm(_ALMOST_REGULAR, 0.3, seed=11),
        False,
        "c73ffc2d414029a8fac32d65184d1093b3d92005fad92558b20a3956b14597f2",
    ),
    "removal": (
        _removal_run,
        False,
        "5ff58881733faf3e073689e613d0cf9a143f331de58524fab1464be501948569",
    ),
    "truncated-python": (
        lambda: ASMEngine(_BOUNDED, 0.5).run_flat(1),
        False,
        "0f88f8cb215c74a430e1d09ba06c66831b61c4ca46871b771d6bd97e6d9a629f",
    ),
    "truncated-vec": (
        lambda: ASMEngine(_BOUNDED, 0.5, optimized="vec").run_flat(1),
        True,
        "0f88f8cb215c74a430e1d09ba06c66831b61c4ca46871b771d6bd97e6d9a629f",
    ),
}


def _result(name):
    run, numpy_only, digest = RESULTS[name]
    if numpy_only and not HAS_NUMPY:
        pytest.skip("numpy not installed (repro[fast] extra)")
    return run(), digest


class TestResults:
    @pytest.mark.parametrize("name", sorted(RESULTS))
    def test_men_partition_and_bytes_unchanged(self, name):
        result, digest = _result(name)
        good, bad, removed = result.good_men, result.bad_men, result.removed_men
        assert good | bad | removed == frozenset(range(result.n_men))
        assert len(good) + len(bad) + len(removed) == result.n_men
        assert result.good_men is good  # derived once
        payload = json.dumps(result.to_dict()).encode()
        assert hashlib.sha256(payload).hexdigest() == digest

    def test_good_men_is_read_only(self):
        result, _ = _result("asm-python-complete")
        with pytest.raises(AttributeError):
            result.good_men = frozenset()

    def test_removal_run_splits_three_ways(self):
        result, _ = _result("removal")
        assert result.good_men and result.removed_men

    def test_truncated_run_has_bad_men(self):
        result, _ = _result("truncated-python")
        assert result.bad_men

    @pytest.mark.parametrize(
        "algorithm,digest",
        [
            (
                "asm",
                "ede737295256e7dda93bb8c8da8ede6d810faffaebcc0768a204f71d942ce62b",
            ),
            (
                "rand-asm",
                "4c9bd5cc2057e996b76bcff0fa991a0a8806c47ac1e4464f5a23cf0cec086c7c",
            ),
            (
                "almost-regular-asm",
                "6c59e0e7b875a2a17a9fbbb82019298eb20ed13289bf06948fcfdc4a0f72c4ee",
            ),
        ],
    )
    def test_cli_json_unchanged(self, algorithm, digest, capsys):
        argv = ["run", "--algorithm", algorithm, "--workload", "gnp"]
        argv += ["--n", "40", "--eps", "0.3", "--seed", "5", "--json"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @needs_numpy
    @pytest.mark.parametrize("prefs,eps", [(_BOUNDED, 0.5), (_COMPLETE, 0.25)])
    def test_vec_result_equals_other_backends(self, prefs, eps):
        vec = asm(prefs, eps, optimized="vec")
        python = asm(prefs, eps)
        reference = ReferenceASMEngine(prefs, eps).run()
        assert reference.matching._men is None  # built from pairs
        assert vec == python == reference and reference == vec
        assert hash(vec.matching) == hash(reference.matching)
        copy = pickle.loads(pickle.dumps(vec))
        assert copy == vec == reference
        assert copy.good_men == vec.good_men

    def test_python_backend_names_first_repeat_in_woman_order(self):
        engine = ASMEngine(complete_uniform(8, seed=3), 0.5)
        engine.run()
        wp = engine._state.woman_partner
        w0, w1, w2, w3 = [w for w in range(8) if wp[w] is not None][:4]
        low, high = sorted((wp[w0], wp[w1]))
        # The larger man repeats first (at w2), the smaller later (w3).
        wp[w2] = high
        wp[w3] = low
        with pytest.raises(InvalidMatchingError) as expected:
            Matching([(wp[w], w) for w in (w0, w1, w2, w3)])
        with pytest.raises(InvalidMatchingError) as got:
            engine.current_matching()
        assert str(got.value) == str(expected.value)
        assert str(got.value) == f"man {high} is matched more than once"
