"""Tests for the incremental blocking-pair index (``repro.perf``).

The :class:`~repro.perf.blocking_index.BlockingPairIndex` must stay in
*exact* agreement with the full-scan oracle
:func:`~repro.analysis.stability.find_blocking_pairs` under every kind
of update: satisfy steps, unilateral divorces, and whole-matching
diffs.  Asymmetric markets (``n_men ≠ n_women``, empty lists) get
dedicated coverage because the rank conventions use each player's own
degree.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.stability import (
    BlockingPairIndex,
    blocking_pair_trajectory,
    count_blocking_pairs,
    find_blocking_pairs,
)
from repro.core.asm import asm
from repro.core.matching import Matching, MutableMatching
from repro.core.preferences import PreferenceProfile
from repro.errors import InvalidParameterError
from repro.workloads.generators import (
    complete_uniform,
    gnp_incomplete,
)

ASYMMETRIC_PROFILES = [
    # one man with an empty list
    PreferenceProfile([[], [0, 1]], [[1], [1]]),
    # more women than men, one isolated woman
    PreferenceProfile([[0, 1], [1]], [[0], [0, 1], []]),
    # single man, gap in the women's side
    PreferenceProfile([[2, 0]], [[0], [], [0]]),
    # more men than women
    PreferenceProfile([[0], [0], [0]], [[2, 0, 1]]),
    # totally empty market
    PreferenceProfile([], []),
]


def _assert_synced(index: BlockingPairIndex) -> None:
    expected = sorted(
        find_blocking_pairs(index.prefs, index.current_matching())
    )
    assert index.pairs() == expected
    assert len(index) == len(expected)


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_op_sequences(self, seed):
        prefs = gnp_incomplete(10, 0.5, seed=seed)
        index = BlockingPairIndex(prefs)
        rng = random.Random(seed)
        _assert_synced(index)
        for _ in range(60):
            ops = ["satisfy", "unmatch_man", "unmatch_woman"]
            op = rng.choice(ops)
            if op == "satisfy" and len(index):
                index.satisfy(*index.choose(rng))
            elif op == "unmatch_man":
                index.unmatch_man(rng.randrange(prefs.n_men))
            else:
                index.unmatch_woman(rng.randrange(prefs.n_women))
            _assert_synced(index)
        index.verify()  # built-in oracle cross-check

    @pytest.mark.parametrize("prefs", ASYMMETRIC_PROFILES)
    def test_asymmetric_markets(self, prefs):
        index = BlockingPairIndex(prefs)
        rng = random.Random(0)
        _assert_synced(index)
        for _ in range(10):
            if not len(index):
                break
            index.satisfy(*index.choose(rng))
            _assert_synced(index)
        index.verify()

    def test_initial_matching_accepted(self):
        prefs = complete_uniform(8, seed=1)
        matching = asm(prefs, 0.5).matching
        index = BlockingPairIndex(prefs, matching)
        assert index.current_matching() == matching
        _assert_synced(index)

    def test_update_to_arbitrary_matchings(self):
        prefs = gnp_incomplete(9, 0.6, seed=2)
        edges = sorted(prefs.edges())
        rng = random.Random(2)
        index = BlockingPairIndex(prefs)
        for _ in range(20):
            mm = MutableMatching()
            for m, w in rng.sample(edges, k=rng.randrange(len(edges))):
                if mm.partner_of_man(m) is None and (
                    mm.partner_of_woman(w) is None
                ):
                    mm.match(m, w)
            target = mm.freeze()
            index.update_to(target)
            assert index.current_matching() == target
            _assert_synced(index)

    def test_update_to_reads_pairs_of_a_solver_matching(self):
        """A solver's pair-sequence matching is read through ``pairs()``:
        its per-player dicts stay unbuilt, and the index equals one fed
        the same partner table directly."""
        prefs = gnp_incomplete(30, 0.3, seed=5)
        matching = asm(prefs, 0.5).matching
        index = BlockingPairIndex(prefs)
        index.update_to(matching)
        slot = Matching.__dict__["_man_to_woman"]
        with pytest.raises(AttributeError):
            slot.__get__(matching)
        table = [None] * prefs.n_men
        for m, w in matching.pairs():
            table[m] = w
        direct = BlockingPairIndex(prefs)
        direct.update_from_partner_lists(table)
        assert index.current_matching() == direct.current_matching()
        assert sorted(index.pairs()) == sorted(direct.pairs())
        _assert_synced(index)

    def test_update_to_is_a_noop_on_same_matching(self):
        prefs = complete_uniform(6, seed=3)
        matching = asm(prefs, 1.0).matching
        index = BlockingPairIndex(prefs, matching)
        assert index.update_to(matching) == 0
        _assert_synced(index)


class TestErrorCases:
    def test_satisfy_non_edge_rejected(self):
        prefs = PreferenceProfile([[0], [1]], [[0], [1]])
        index = BlockingPairIndex(prefs)
        with pytest.raises(InvalidParameterError):
            index.satisfy(1, 0)  # (1, 0) is not an edge

    def test_choose_on_empty_index_rejected(self):
        prefs = PreferenceProfile([[0]], [[0]])
        index = BlockingPairIndex(prefs)
        index.satisfy(0, 0)
        assert len(index) == 0
        with pytest.raises(InvalidParameterError):
            index.choose(random.Random(0))

    def test_update_rejects_non_edge_assignment(self):
        prefs = PreferenceProfile([[0], [1]], [[0], [1]])
        index = BlockingPairIndex(prefs)
        with pytest.raises(InvalidParameterError):
            index.update_from_partner_lists([None, 0])

    def test_update_to_rejects_man_out_of_range(self):
        prefs = PreferenceProfile([[0], [1]], [[0], [1]])
        index = BlockingPairIndex(prefs)
        with pytest.raises(InvalidParameterError):
            index.update_to(Matching([(2, 0)]))

    def test_update_rejects_duplicate_woman(self):
        prefs = PreferenceProfile([[0], [0]], [[0, 1]])
        index = BlockingPairIndex(prefs)
        with pytest.raises(InvalidParameterError):
            index.update_from_partner_lists([0, 0])

    @pytest.mark.parametrize(
        "build",
        [
            "BlockingPairIndex(complete_uniform(4, seed=0))",
            "DynamicBlockingIndex(DynamicMarket(complete_uniform(4, seed=0)))",
        ],
    )
    def test_verify_catches_corruption_under_python_O(self, build):
        # ``python -O`` strips ``assert`` statements; verify() must
        # still raise on an index that lost one blocking pair, and on
        # one whose per-man view alone lost it (the pool intact).
        script = (
            "from repro.dynamic.index import DynamicBlockingIndex\n"
            "from repro.dynamic.market import DynamicMarket\n"
            "from repro.perf.blocking_index import BlockingPairIndex\n"
            "from repro.workloads.generators import complete_uniform\n"
            "def corrupt_pool(index):\n"
            "    index._pool.discard(index.pairs()[0])\n"
            "def corrupt_view(index):\n"
            "    m, w = index.pairs()[0]\n"
            "    del index._pool.by_man[m][w]\n"
            "for corrupt in (corrupt_pool, corrupt_view):\n"
            f"    index = {build}\n"
            "    corrupt(index)\n"
            "    try:\n"
            "        index.verify()\n"
            "    except AssertionError:\n"
            "        continue\n"
            "    raise SystemExit(corrupt.__name__ + ' went unnoticed')\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr


class TestTrajectoryHelpers:
    def test_blocking_pair_trajectory_matches_full_scans(self):
        prefs = gnp_incomplete(8, 0.5, seed=4)
        rng = random.Random(4)
        edges = sorted(prefs.edges())
        matchings = []
        mm = MutableMatching()
        for m, w in rng.sample(edges, k=min(6, len(edges))):
            if mm.partner_of_man(m) is None and (
                mm.partner_of_woman(w) is None
            ):
                mm.match(m, w)
            matchings.append(mm.freeze())
        got = blocking_pair_trajectory(prefs, matchings)
        want = [count_blocking_pairs(prefs, M) for M in matchings]
        assert got == want

    def test_trace_observer_counts_match_full_scan(self):
        """SLOMonitor's per-round incremental counts equal full scans."""
        from repro.core.asm import ASMObserver
        from repro.trace.slo import SLOMonitor, StabilitySLO

        prefs = complete_uniform(10, seed=5)

        class FullScan(ASMObserver):
            def __init__(self):
                self.counts = []

            def on_proposal_round_end(self, engine, stats):
                matching = Matching(
                    (m, w)
                    for m, w in enumerate(engine.man_partner)
                    if w is not None
                )
                self.counts.append(count_blocking_pairs(prefs, matching))

        incremental = SLOMonitor(prefs, StabilitySLO(0.5))
        asm(prefs, 0.5, observer=incremental)
        oracle = FullScan()
        asm(prefs, 0.5, observer=oracle)
        assert incremental.blocking_counts == oracle.counts
        assert len(incremental.blocking_counts) > 0
