"""Exact sums of floats, rounded once.

The decompositions and the parallel-edge bundles sum here, under one contract:

- finite floats are read exactly, as integers on one dyadic grid;
- each output is the exact value rounded once, correctly;
- an exact zero is +0.0;
- a finite result beyond the float range raises OverflowError;
- a non-finite input keeps fsum's semantics: the result, or the error, is
  that of math.fsum over the same terms (subset_mobius takes finite values
  only).

References: Shewchuk, DCG 18 (1997), for exact float sums; Yates (1937) and
Bjorklund, Husfeldt, Kaski and Koivisto, STOC 2007, for the subset Mobius
transform.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence


def dyadic_grid(values: Sequence[float]) -> tuple[list[int], int]:
    """Finite floats as integers on one dyadic grid: ``values[i]`` equals
    ``ints[i] / 2**shift`` exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    shift = max((den for _, den in ratios), default=1).bit_length() - 1
    return [num << (shift - den.bit_length() + 1) for num, den in ratios], shift


def exact_sum(values: Sequence[float]) -> float:
    """The sum of ``values``.  fsum is the fast path: it rounds the exact sum
    once unless a partial sum leaves the float range."""
    try:
        return math.fsum(values)
    except OverflowError:
        if not all(map(math.isfinite, values)):
            raise
        grid, shift = dyadic_grid(values)
        return sum(grid) / (1 << shift)


def exact_weighted_sum(numerators: Sequence[int], denominator: int,
                       values: Sequence[float]) -> float:
    """The sum of ``numerators[i] / denominator * values[i]``; with a
    non-finite value, the fsum of the rounded products."""
    if not all(map(math.isfinite, values)):
        return math.fsum(n / denominator * v for n, v in zip(numerators, values))
    grid, shift = dyadic_grid(values)
    return sum(map(operator.mul, numerators, grid)) / (denominator << shift)


def subset_mobius(values: Sequence[float]) -> list[float]:
    """Subset Mobius transform of finite values indexed by bitmask: output
    ``mask`` is the sum of ``(-1)^|mask - sub| * values[sub]`` over the
    submasks ``sub`` of ``mask``.  The n*2^(n-1) butterflies are exact
    integer subtractions on the dyadic grid; each output is one division."""
    grid, shift = dyadic_grid(values)
    size = len(grid)
    bit = 1
    while bit < size:
        for block in range(0, size, 2 * bit):
            for mask in range(block + bit, block + 2 * bit):
                grid[mask] -= grid[mask - bit]
        bit *= 2
    scale = 1 << shift
    return [g / scale for g in grid]
