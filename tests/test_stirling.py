import math
from fractions import Fraction
from itertools import product

import pytest

from ccndecomp.multiindex import iter_multiindices, norm, ones
from ccndecomp.stirling import (
    binomial,
    coefficient_c,
    coefficient_c_sum,
    identity_report,
    multinomial,
    r_stirling1,
    stirling1,
    stirling1_sum,
    stirling2,
    stirling2_sum,
    table,
)
from helpers import count_permutations_with_cycles, count_set_partitions


def test_stirling1_boundaries_and_examples():
    assert stirling1(0, 0) == 1
    assert stirling1(2, 1) == 1
    assert stirling1(2, 2) == 1
    assert stirling1(5, 2) == 50
    assert stirling1(3, 7) == 0
    assert stirling1(4, 0) == 0


def test_stirling1_against_cycle_counts():
    for n in range(6):
        for k in range(n + 2):
            assert stirling1(n, k) == count_permutations_with_cycles(n, k), (n, k)


def test_stirling2_boundaries_and_examples():
    assert stirling2(0, 0) == 1
    for n in range(11):
        assert stirling2(n, n) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25


def test_stirling2_against_partition_counts():
    for n in range(6):
        for k in range(n + 2):
            assert stirling2(n, k) == count_set_partitions(n, k), (n, k)


def test_sum_formula_examples():
    assert stirling1_sum(2, 1) == 1
    assert stirling1_sum(3, 0) == 0
    assert stirling1_sum(4, 2) == 11 == stirling1(4, 2)
    assert stirling2_sum(3, 2) == 3
    assert stirling2_sum(0, 2) == 0
    assert stirling2_sum(5, 3) == 25 == stirling2(5, 3)


def test_sum_formulas_are_integers_matching_tables():
    for n in range(9):
        for k in range(n + 1):
            s1 = stirling1_sum(n, k)
            s2 = stirling2_sum(n, k)
            assert s1.denominator == 1 and s1 == stirling1(n, k)
            assert s2.denominator == 1 and s2 == stirling2(n, k)


def test_r_stirling_boundaries():
    assert r_stirling1(3, 3, 3) == 1
    assert r_stirling1(3, 3, 2) == 0
    assert r_stirling1(2, 1, 1) == 0  # below the anchor row
    assert r_stirling1(2, 4, 3) == 5
    for n in range(1, 9):
        for k in range(n + 1):
            assert r_stirling1(1, n, k) == stirling1(n, k)
    for n in range(9):
        for k in range(n + 1):
            assert r_stirling1(0, n, k) == stirling1(n, k)


def test_r_stirling_cross_recurrences():
    for r in range(0, 10):
        for n in range(r + 1, 11):
            for k in range(11):
                assert r_stirling1(r, n, k) == r * r_stirling1(r + 1, n, k + 1) + r_stirling1(
                    r + 1, n, k
                )
    for r in range(1, 10):
        for n in range(r + 1, 11):
            for k in range(1, 11):
                assert r_stirling1(r, n, k) == (n - r) * r_stirling1(r, n - 1, k) + r_stirling1(
                    r - 1, n - 1, k - 1
                )


def test_partial_sum_identity():
    # sum_{n=0}^{N} s1_r(n+r, k+r)/n! == s1_{r+1}(N+r+1, k+r+1)/N!
    for r in range(7):
        for big_n in range(7):
            for k in range(7):
                lhs = sum(
                    Fraction(r_stirling1(r, n + r, k + r), math.factorial(n))
                    for n in range(big_n + 1)
                )
                rhs = Fraction(
                    r_stirling1(r + 1, big_n + r + 1, k + r + 1), math.factorial(big_n)
                )
                assert lhs == rhs, (r, big_n, k)


def test_binomial_weighted_identity():
    # sum_{p=k}^{n-r} C(n-p, r) s1(p,k)/p! == s1_{r+1}(n+1, k+r+1)/(n-r)!
    for n in range(11):
        for r in range(n + 1):
            for k in range(11):
                lhs = sum(
                    Fraction(binomial(n - p, r) * stirling1(p, k), math.factorial(p))
                    for p in range(k, n - r + 1)
                )
                rhs = Fraction(r_stirling1(r + 1, n + 1, k + r + 1), math.factorial(n - r))
                assert lhs == rhs, (n, r, k)


def test_multiindex_weighted_identity():
    # sum_{m>=1_k, |m|<=n-r} C(n-|m|, r)/prod(m) == k!/(n-r)! * s1_{r+1}(n+1, k+r+1)
    for n in range(7):
        for r in range(n + 1):
            for k in range(7):
                lhs = Fraction(0)
                for m in iter_multiindices(k, ones(k), norm_at_most=n - r):
                    denom = 1
                    for e in m:
                        denom *= e
                    lhs += Fraction(binomial(n - norm(m), r), denom)
                rhs = Fraction(
                    math.factorial(k) * r_stirling1(r + 1, n + 1, k + r + 1),
                    math.factorial(n - r),
                )
                assert lhs == rhs, (n, r, k)


def _compositions_refining(m, big_m):
    """All outer multiplicities mbar >= 1 with compose(mbar, m) == big_m:
    per block i, the compositions of big_m[i] into m[i] positive parts."""
    from itertools import product as iproduct

    per_block = [
        list(iter_multiindices(mi, ones(mi), norm_equals=bi)) for mi, bi in zip(m, big_m)
    ]
    for combo in iproduct(*per_block):
        flat = ()
        for part in combo:
            flat += part
        yield flat


def test_composition_sums_match_stirling_products():
    # sum over refinements of 1/prod(mbar) (or 1/prod(mbar!)) factors into
    # per-entry Stirling weights
    for k in range(0, 3):
        for m in iter_multiindices(k, ones(k), norm_at_most=4):
            for big_m in iter_multiindices(k, m, norm_at_most=8):
                lhs1 = Fraction(0)
                lhs2 = Fraction(0)
                for mbar in _compositions_refining(m, big_m):
                    d1 = 1
                    d2 = 1
                    for e in mbar:
                        d1 *= e
                        d2 *= math.factorial(e)
                    lhs1 += Fraction(1, d1)
                    lhs2 += Fraction(1, d2)
                rhs1 = Fraction(1)
                rhs2 = Fraction(1)
                for mi, bi in zip(m, big_m):
                    rhs1 *= Fraction(math.factorial(mi), math.factorial(bi)) * stirling1(bi, mi)
                    rhs2 *= Fraction(math.factorial(mi), math.factorial(bi)) * stirling2(bi, mi)
                assert lhs1 == rhs1, (m, big_m)
                assert lhs2 == rhs2, (m, big_m)


def test_alternated_composition_sums():
    # the signed sums collapse to a delta at the all-ones multiplicity
    for k in range(0, 4):
        for big_m in iter_multiindices(k, norm_at_most=8):
            total1 = Fraction(0)
            total2 = Fraction(0)
            for m in product(*(range(1, max(e, 1) + 1) for e in big_m)):
                p1 = Fraction(1)
                p2 = Fraction(1)
                for mi, bi in zip(m, big_m):
                    p1 *= (-1) ** mi * stirling1(bi, mi)
                    p2 *= (-1) ** mi * math.factorial(mi - 1) * stirling2(bi, mi)
                total1 += p1
                total2 += p2
            want = (-1) ** k if big_m == ones(k) else 0
            assert total1 == want, big_m
            assert total2 == want, big_m


def test_multinomial_examples():
    assert multinomial(3, [1, 2]) == 3
    assert multinomial(3, [-1, 4]) == 0
    assert multinomial(4, [1, 1, 2]) == 12
    with pytest.raises(ValueError):
        multinomial(4, [1, 1])


def test_multinomial_recurrence():
    # C(n; m) = sum_i C(n-1; m - 1_i), using the zero extension for negatives
    for n in range(1, 7):
        for m in iter_multiindices(3, norm_equals=n):
            expected = sum(
                multinomial(n - 1, [e - (1 if i == j else 0) for j, e in enumerate(m)])
                for i in range(3)
            )
            assert multinomial(n, list(m)) == expected


def test_coefficient_c_examples():
    for k in range(1, 9):
        assert coefficient_c(k, 1, 0) == k
    for m in range(6):
        assert coefficient_c(m, m, 0) == 1
    assert coefficient_c(0, 0, 0) == 1
    assert coefficient_c(3, 1, 1) == Fraction(5, 2)  # not an integer in general
    with pytest.raises(ValueError):
        coefficient_c(1, 2, 0)


def test_coefficient_c_dual_path():
    for big_k in range(9):
        for m in range(big_k + 1):
            for r in range(4):
                assert coefficient_c(big_k, m, r) == coefficient_c_sum(big_k, m, r), (big_k, m, r)


def test_tables():
    rows = table("1", 5)
    assert rows[5] == [0, 24, 50, 35, 10, 1]
    assert table("2", 4)[4] == [0, 1, 7, 6, 1]
    assert table("r1", 3, r=2)[2] == [0, 0, 1]
    with pytest.raises(ValueError):
        table("weird", 3)


def test_identity_report_all_pass():
    report = identity_report(10)
    assert report and all(report.values()), report


def test_table_at_cap_and_concurrent_reads():
    rows = table("1", 64)
    assert len(rows) == 65 and rows[64][64] == 1
    assert sum(rows[64]) == math.factorial(64)  # row sums count all permutations

    from concurrent.futures import ThreadPoolExecutor

    stirling2.cache_clear()
    with ThreadPoolExecutor(max_workers=8) as pool:
        values = list(pool.map(lambda k: stirling2(40, k), range(41)))
    assert values == [stirling2(40, k) for k in range(41)]
    assert sum(values) > 0


def test_large_arguments_have_no_depth_limit():
    # the tables are built row by row, so a large n is no RecursionError
    assert stirling1(3000, 1) == math.factorial(2999)
    assert stirling2(3000, 2) == 2 ** 2999 - 1
    # C(K, 1, 1) = sum_{j < K} H_j = K * H_{K-1} - (K - 1)
    for big_k in range(1, 9):
        harmonic = sum((Fraction(1, j) for j in range(1, big_k)), Fraction(0))
        assert coefficient_c_sum(big_k, 1, 1) == big_k * harmonic - (big_k - 1)
    harmonic = sum((Fraction(1, j) for j in range(1, 2000)), Fraction(0))
    value = coefficient_c(2000, 1, 1)
    assert isinstance(value, Fraction) and value == 2000 * harmonic - 1999
