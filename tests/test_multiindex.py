import math

import pytest

from ccndecomp.multiindex import (
    DimensionMismatch,
    apply_multiplicity,
    as_multiindex,
    iter_multiindices,
    norm,
    ones,
    zero_pattern,
    zeros,
)


def test_norm_examples():
    assert norm((2, 5, 2)) == 9
    assert norm(zeros(4)) == 0
    assert norm((1, 2)) == 3


def test_as_multiindex_rejects_bad_entries():
    with pytest.raises(ValueError):
        as_multiindex((1, -1))
    with pytest.raises(ValueError):
        as_multiindex((1.5,))
    assert as_multiindex([2, 5, 2]) == (2, 5, 2)


def test_apply_multiplicity_examples():
    assert apply_multiplicity((1, 2), ["wa", "wb"]) == ["wa", "wb", "wb"]
    assert apply_multiplicity((0, 0), ["wa", "wb"]) == []
    assert apply_multiplicity((2, 3), ["wa", "wb"]) == ["wa", "wa", "wb", "wb", "wb"]
    with pytest.raises(DimensionMismatch):
        apply_multiplicity((1,), ["a", "b"])


def test_enumerate_examples():
    assert list(iter_multiindices(2, ones(2), norm_equals=3)) == [(1, 2), (2, 1)]
    assert list(iter_multiindices(0, norm_equals=0)) == [()]
    assert list(iter_multiindices(0, norm_equals=2)) == []
    assert len(list(iter_multiindices(2, ones(2), norm_at_most=4))) == 6 == math.comb(4, 2)


def test_enumerate_is_lexicographic_and_lazy():
    stream = iter_multiindices(3, norm_equals=2)
    first = next(stream)
    assert first == (0, 0, 2)
    rest = list(stream)
    assert rest == sorted(rest)
    assert all(norm(m) == 2 for m in rest)


def test_enumerate_requires_exactly_one_constraint():
    with pytest.raises(ValueError):
        list(iter_multiindices(2))
    with pytest.raises(ValueError):
        list(iter_multiindices(2, norm_equals=1, norm_at_most=2))


def test_enumeration_count_identity():
    for n in range(11):
        for k in range(n + 1):
            count = sum(1 for _ in iter_multiindices(k, ones(k), norm_at_most=n))
            assert count == math.comb(n, k)


def test_pascal_prod_sum_identity():
    # sum over m >= M, |m| <= n of prod C(m_i - 1, M_i - 1) equals C(n, |M|)
    for k in range(4):
        for big_m in iter_multiindices(k, ones(k), norm_at_most=6):
            for n in range(norm(big_m), 11):
                total = 0
                for m in iter_multiindices(k, big_m, norm_at_most=n):
                    prod = 1
                    for mi, bi in zip(m, big_m):
                        prod *= math.comb(mi - 1, bi - 1)
                    total += prod
                assert total == math.comb(n, norm(big_m)), (big_m, n)


def test_zero_pattern_and_unit():
    assert zero_pattern((0, 3, 0)) == (True, False, True)
