"""Hypothesis stateful (rule-based) tests for the mutable core types.

Random operation sequences against :class:`MutableMatching` and
:class:`QuantizedList`, with the invariants re-checked after every
step — catches bookkeeping bugs that fixed scenarios miss.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core.matching import MutableMatching
from repro.errors import InvalidMatchingError
from tests.reference_quantile import QuantizedList

MEN = st.integers(0, 8)
WOMEN = st.integers(0, 8)


class MutableMatchingMachine(RuleBasedStateMachine):
    """Model-based test: MutableMatching vs a plain dict model."""

    def __init__(self):
        super().__init__()
        self.sut = MutableMatching()
        self.model = {}  # man -> woman

    @rule(m=MEN, w=WOMEN)
    def match(self, m, w):
        man_taken = m in self.model
        woman_taken = w in self.model.values()
        if man_taken or woman_taken:
            try:
                self.sut.match(m, w)
            except InvalidMatchingError:
                return
            raise AssertionError("match() should have raised")
        self.sut.match(m, w)
        self.model[m] = w

    @rule(m=MEN)
    def unmatch_man(self, m):
        self.sut.unmatch_man(m)
        self.model.pop(m, None)

    @rule(w=WOMEN)
    def unmatch_woman(self, w):
        self.sut.unmatch_woman(w)
        for m, ww in list(self.model.items()):
            if ww == w:
                del self.model[m]

    @rule(m=MEN, w=WOMEN)
    def rematch_woman(self, m, w):
        if m in self.model:
            return  # rematch requires an unmatched new man
        displaced = self.sut.rematch_woman(w, m)
        expected_displaced = None
        for mm, ww in list(self.model.items()):
            if ww == w:
                expected_displaced = mm
                del self.model[mm]
        assert displaced == expected_displaced
        self.model[m] = w

    @invariant()
    def model_agrees(self):
        assert dict(self.sut.pairs()) == dict(sorted(self.model.items()))
        for m, w in self.model.items():
            assert self.sut.partner_of_man(m) == w
            assert self.sut.partner_of_woman(w) == m
        frozen = self.sut.freeze()
        assert len(frozen) == len(self.model)


class QuantizedListMachine(RuleBasedStateMachine):
    """Model-based test: QuantizedList removals vs a set model."""

    def __init__(self):
        super().__init__()
        self.universe = list(range(12))
        self.k = 4
        self.sut = QuantizedList(self.universe, self.k)
        self.model = set(self.universe)

    @rule(u=st.integers(0, 15))
    def remove(self, u):
        self.sut.remove(u)
        self.model.discard(u)

    @invariant()
    def counts_agree(self):
        assert self.sut.remaining == len(self.model)
        assert self.sut.all_members() == frozenset(self.model)

    @invariant()
    def quantiles_partition_model(self):
        union = set()
        for q in range(1, self.k + 1):
            members = self.sut.members_of(q)
            assert union.isdisjoint(members)
            union |= members
        assert union == self.model

    @invariant()
    def best_nonempty_consistent(self):
        best = self.sut.best_nonempty_quantile()
        if not self.model:
            assert best is None
        else:
            assert best is not None
            assert self.sut.members_of(best)
            for q in range(1, best):
                assert not self.sut.members_of(q)


TestMutableMatchingMachine = MutableMatchingMachine.TestCase
TestQuantizedListMachine = QuantizedListMachine.TestCase

TestMutableMatchingMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestQuantizedListMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
