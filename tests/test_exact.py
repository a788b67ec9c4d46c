"""Differential tests of the exact-arithmetic module against Fraction sums."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from ccndecomp.exact import exact_sum, exact_weighted_sum, subset_mobius


def rounded(total):
    """The correctly rounded float of an exact rational as hex, or
    OverflowError when it is beyond the float range."""
    try:
        return float(total).hex()
    except OverflowError:
        return OverflowError


def outcome(fn):
    try:
        return fn().hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def random_float(rng, huge=True):
    """A float of magnitude up to 1e+-300 or a signed zero; with ``huge``,
    also one of +-1e308 and +-1.7e308."""
    choices = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300), 0.0, -0.0]
    if huge:
        choices.append(rng.choice((1e308, -1e308, 1.7e308, -1.7e308)))
    return rng.choice(choices)


def test_exact_sum_is_the_rounded_fraction_sum():
    rng = random.Random(29)
    for _ in range(500):
        values = [random_float(rng) for _ in range(rng.randint(0, 8))]
        want = rounded(sum(map(Fraction, values), Fraction(0)))
        assert outcome(lambda: exact_sum(values)) == want, values


def test_exact_sum_survives_an_overflowing_partial_sum():
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308, -1e308])
    for order in itertools.permutations([1e308, 1e308, -1e308]):
        assert exact_sum(order) == 1e308
    assert exact_sum([1e308, 1e308, -1e308, -1e308]).hex() == "0x0.0p+0"
    with pytest.raises(OverflowError):
        exact_sum([1e308, 1e308])


def test_exact_sum_zero_is_positive():
    for values in ([], [-0.0], [-0.0, -0.0], [0.1, -0.1], [-1e308, -1e308, 1e308, 1e308, -0.0]):
        assert exact_sum(values).hex() == "0x0.0p+0"
    assert exact_sum([-5e-324]).hex() == (-5e-324).hex()


@pytest.mark.parametrize("values", [
    [1.0, math.inf, 2.5],
    [math.inf, -math.inf],
    [math.nan, 1.0],
    [1e308, math.inf, 1e308],
    [math.inf, 1e308, 1e308],
])
def test_exact_sum_non_finite_follows_fsum(values):
    assert outcome(lambda: exact_sum(values)) == outcome(lambda: math.fsum(values))


def mobius_reference(values):
    """Inclusion-exclusion over the submasks of every mask, exact: every
    finite float is a whole multiple of 2^-1074."""
    scale = 2 ** 1074
    scaled = [int(Fraction(v) * scale) for v in values]
    out = []
    for mask in range(len(values)):
        total, sub = 0, mask
        while True:
            total += -scaled[sub] if bin(mask ^ sub).count("1") % 2 else scaled[sub]
            if not sub:
                break
            sub = (sub - 1) & mask
        out.append(Fraction(total, scale))
    return out


@pytest.mark.parametrize("n", range(11))
def test_subset_mobius_is_the_rounded_inclusion_exclusion(n):
    rng = random.Random(n)
    cases = [[random_float(rng, huge=False) for _ in range(1 << n)] for _ in range(3 if n < 8 else 1)]
    # fsum of a mask's alternating sum overflows from two bits on; each total is +-1e308
    cases.append([1e308 if mask else 0.0 for mask in range(1 << n)])
    if n < 8:  # with more values, some output is all but sure to be beyond the float range
        cases.append([random_float(rng) for _ in range(1 << n)])
    for values in cases:
        want = [rounded(total) for total in mobius_reference(values)]
        if OverflowError in want:
            with pytest.raises(OverflowError):
                subset_mobius(values)
        else:
            assert [v.hex() for v in subset_mobius(values)] == want


NON_FINITE_VALUES = [
    [1.0, math.inf, 2.5],
    [-math.inf, 0.5],
    [math.inf, -math.inf],
    [math.nan, 1.0],
    [math.inf, math.nan],
]


@pytest.mark.parametrize("values", NON_FINITE_VALUES)
def test_exact_weighted_sum_non_finite_follows_fsum(values):
    numerators, denominator = [3, -2, 5][: len(values)], 7

    def outcome(fn):
        try:
            return fn().hex()
        except ValueError as exc:
            return type(exc)

    want = outcome(lambda: math.fsum(n / denominator * v for n, v in zip(numerators, values)))
    assert outcome(lambda: exact_weighted_sum(numerators, denominator, values)) == want


def test_exact_weighted_sum_rounds_once():
    rng = random.Random(41)
    for _ in range(200):
        size = rng.randint(0, 6)
        values = [rng.choice((rng.uniform(-1, 1) * 2.0 ** rng.randint(-1070, 60), 0.0, -0.0))
                  for _ in range(size)]
        numerators = [rng.randint(-50, 50) for _ in values]
        denominator = rng.randint(1, 720)
        want = float(sum((Fraction(n, denominator) * Fraction(v)
                          for n, v in zip(numerators, values)), Fraction(0)))
        assert exact_weighted_sum(numerators, denominator, values).hex() == want.hex()
    # an exact zero is +0.0
    assert exact_weighted_sum([1, 1], 3, [-0.0, -0.0]).hex() == "0x0.0p+0"
    assert exact_weighted_sum([1, -1], 1, [0.1, 0.1]).hex() == "0x0.0p+0"
    # cancelling huge terms stay exact; a sum past the float range raises
    assert exact_weighted_sum([3, -3, 1], 2, [1e308, 1e308, 0.5]) == 0.25
    with pytest.raises(OverflowError):
        exact_weighted_sum([3], 1, [1e308])
