"""Unit tests for repro.core.quantile (Section 3.1 machinery)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quantile import offset_quantile, quantile_index, quantile_run
from repro.errors import InvalidParameterError
from repro.vec import HAS_NUMPY
from tests.reference_quantile import QuantizedList


class TestQuantileIndex:
    def test_even_split(self):
        # 10 partners, 5 quantiles: pairs of ranks share a quantile.
        assert [quantile_index(r, 10, 5) for r in range(1, 11)] == [
            1, 1, 2, 2, 3, 3, 4, 4, 5, 5,
        ]

    def test_k_equals_degree_is_identity(self):
        # k = deg degenerates to Gale-Shapley: one partner per quantile.
        for r in range(1, 8):
            assert quantile_index(r, 7, 7) == r

    def test_k_one_puts_everything_in_first(self):
        assert all(quantile_index(r, 9, 1) == 1 for r in range(1, 10))

    def test_degree_smaller_than_k(self):
        # Fewer partners than quantiles: quantiles are spread out but
        # stay within [1, k].
        values = [quantile_index(r, 3, 8) for r in range(1, 4)]
        assert values == sorted(values)
        assert all(1 <= v <= 8 for v in values)
        assert values[-1] == 8  # the worst partner lands in Q_k

    def test_best_rank_is_first_quantile_when_deg_ge_k(self):
        assert quantile_index(1, 100, 10) == 1

    def test_invalid_k(self):
        with pytest.raises(InvalidParameterError):
            quantile_index(1, 5, 0)

    def test_invalid_rank(self):
        with pytest.raises(InvalidParameterError):
            quantile_index(0, 5, 2)
        with pytest.raises(InvalidParameterError):
            quantile_index(6, 5, 2)


@settings(max_examples=200, deadline=None)
@given(degree=st.integers(1, 60), k=st.integers(1, 20))
def test_quantile_index_properties(degree, k):
    """q is monotone in rank, within [1, k], hits k at the last rank,
    and each quantile holds at most ceil(degree/k) partners."""
    values = [quantile_index(r, degree, k) for r in range(1, degree + 1)]
    assert values == sorted(values)
    assert all(1 <= v <= k for v in values)
    assert values[-1] == k
    cap = -(-degree // k)
    for q in range(1, k + 1):
        assert values.count(q) <= cap


@pytest.mark.parametrize("k", [1, 2, 3, 7, 16])
class TestRunFormulas:
    """``offset_quantile`` and ``quantile_run``: each quantile is the run
    of offsets ``quantile_run`` names, on ints and int64 arrays alike.
    ``deg < k`` leaves some quantiles empty."""

    def test_run_is_the_offsets_of_its_quantile(self, k):
        for deg in range(41):
            quant = [quantile_index(r, deg, k) for r in range(1, deg + 1)]
            assert [offset_quantile(off, deg, k) for off in range(deg)] == quant
            for q in range(1, k + 1):
                first, end = quantile_run(q, deg, k)
                assert list(range(first, end)) == [
                    off for off in range(deg) if quant[off] == q
                ]

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")
    def test_int64_arrays_agree_with_ints(self, k):
        import numpy as np

        for deg in range(41):
            offs = np.arange(deg, dtype=np.int64)
            degs = np.full(deg, deg, dtype=np.int64)
            got = offset_quantile(offs, degs, k)
            assert got.dtype == np.int64
            assert got.tolist() == [offset_quantile(o, deg, k) for o in range(deg)]
            qs = np.arange(1, k + 1, dtype=np.int64)
            first, end = quantile_run(qs, np.full(k, deg, dtype=np.int64), k)
            assert list(zip(first.tolist(), end.tolist())) == [
                quantile_run(q, deg, k) for q in range(1, k + 1)
            ]


class TestQuantizedList:
    def test_basic_partition(self):
        ql = QuantizedList([10, 11, 12, 13], k=2)
        assert ql.members_of(1) == frozenset({10, 11})
        assert ql.members_of(2) == frozenset({12, 13})
        assert ql.all_members() == frozenset({10, 11, 12, 13})
        assert ql.remaining == 4
        assert len(ql) == 4

    def test_quantile_of_persists_after_removal(self):
        ql = QuantizedList([5, 6], k=2)
        ql.remove(5)
        assert ql.quantile_of(5) == 1
        assert not ql.contains(5)
        assert ql.contains(6)

    def test_remove_unknown_is_noop(self):
        ql = QuantizedList([1], k=1)
        ql.remove(99)
        assert ql.remaining == 1

    def test_remove_twice_counts_once(self):
        ql = QuantizedList([1, 2], k=1)
        ql.remove(1)
        ql.remove(1)
        assert ql.remaining == 1

    def test_best_nonempty_quantile(self):
        ql = QuantizedList([1, 2, 3, 4], k=4)
        assert ql.best_nonempty_quantile() == 1
        ql.remove(1)
        ql.remove(2)
        assert ql.best_nonempty_quantile() == 3
        ql.remove(3)
        ql.remove(4)
        assert ql.best_nonempty_quantile() is None

    def test_best_nonempty_among(self):
        ql = QuantizedList([1, 2, 3, 4], k=2)  # {1,2} in Q1, {3,4} in Q2
        assert ql.best_nonempty_among([4, 2]) == 1
        assert ql.best_nonempty_among([4]) == 2
        assert ql.best_nonempty_among([]) is None
        ql.remove(2)
        assert ql.best_nonempty_among([2, 4]) == 2  # removed 2 ignored

    def test_members_up_to_and_at_least(self):
        ql = QuantizedList([1, 2, 3, 4, 5, 6], k=3)
        assert ql.members_up_to(2) == frozenset({1, 2, 3, 4})
        assert ql.members_at_least(2) == frozenset({3, 4, 5, 6})
        assert ql.members_at_least(1) == ql.all_members()
        ql.remove(3)
        assert ql.members_at_least(2) == frozenset({4, 5, 6})

    def test_members_of_bounds(self):
        ql = QuantizedList([1], k=2)
        with pytest.raises(InvalidParameterError):
            ql.members_of(0)
        with pytest.raises(InvalidParameterError):
            ql.members_of(3)

    def test_empty_list(self):
        ql = QuantizedList([], k=4)
        assert ql.remaining == 0
        assert ql.best_nonempty_quantile() is None
        assert ql.all_members() == frozenset()

    def test_duplicate_partner_rejected(self):
        with pytest.raises(InvalidParameterError):
            QuantizedList([1, 1], k=2)

    def test_invalid_k(self):
        with pytest.raises(InvalidParameterError):
            QuantizedList([1], k=0)

    def test_repr(self):
        assert "remaining=2" in repr(QuantizedList([1, 2], k=2))


@settings(max_examples=100, deadline=None)
@given(
    partners=st.lists(st.integers(0, 1000), unique=True, max_size=40),
    k=st.integers(1, 12),
)
def test_quantized_list_partition_property(partners, k):
    """Quantiles partition the list; removal bookkeeping is exact."""
    ql = QuantizedList(partners, k)
    union = set()
    total = 0
    for q in range(1, k + 1):
        members = ql.members_of(q)
        assert union.isdisjoint(members)
        union |= members
        total += len(members)
    assert union == set(partners)
    assert total == len(partners) == ql.remaining
    # Remove half and re-check the count.
    for u in partners[::2]:
        ql.remove(u)
    assert ql.remaining == len(partners) - len(partners[::2])
    assert ql.all_members() == set(partners) - set(partners[::2])
