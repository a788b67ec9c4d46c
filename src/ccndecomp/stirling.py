"""Exact Stirling-number tables, enumeration-based sum formulas, and the
coefficient that turns whole-function evaluations into basis components.

Every function here works in exact integer / rational arithmetic; nothing in
this module touches floating point.  The recurrence tables, built row by row,
are the fast path, the ``*_sum`` functions re-derive the same numbers by
enumerating bounded multi-index sets and exist as independent cross-check
paths (they also appear as inner sums of the basis transforms).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .multiindex import iter_multiindices, ones


def _check_nonneg(**values: int) -> None:
    for name, v in values.items():
        if v != int(v) or v < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {v!r}")


def _row(first_kind: bool, r: int, n: int, width: int) -> list[int]:
    """Row n, cut to columns 0..width, of the triangle whose row r is the
    unit vector at column r (rows above it are zero) and whose later rows
    follow T(i, j) = c * T(i-1, j) + T(i-1, j-1), with c = i - 1 for the
    first kind and c = j for the second.  The rows are built one after
    another in one list: no depth limit, O(n * width) big-integer steps."""
    row = [0] * (int(width) + 1)
    if r <= min(n, width):
        row[r] = 1
    for i in range(r + 1, int(n) + 1):
        for j in range(len(row) - 1, 0, -1):
            row[j] = (i - 1 if first_kind else j) * row[j] + row[j - 1]
        row[0] *= i - 1 if first_kind else 0
    return row


@lru_cache(maxsize=None)
def stirling1(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind (cycle counts)."""
    _check_nonneg(n=n, k=k)
    return _row(True, 0, n, k)[-1]


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind (set-partition counts)."""
    _check_nonneg(n=n, k=k)
    return _row(False, 0, n, k)[-1]


@lru_cache(maxsize=None)
def r_stirling1(r: int, n: int, k: int) -> int:
    """Unsigned r-Stirling number of the first kind.

    Same recurrence as the plain first kind but anchored at row n = r, where
    the value is the Kronecker delta d(r, k); zero below that row.
    """
    _check_nonneg(r=r, n=n, k=k)
    return _row(True, int(r), n, k)[-1]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient extended by zero outside 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Multinomial coefficient n! / prod(parts!), extended to be 0 when any
    part is negative.  Parts that are all non-negative must sum to n."""
    _check_nonneg(n=n)
    ps = [int(p) for p in parts]
    if any(p != q for p, q in zip(ps, parts)):
        raise ValueError("multinomial parts must be integers")
    if any(p < 0 for p in ps):
        return 0
    if sum(ps) != n:
        raise ValueError(f"multinomial parts {ps} do not sum to {n}")
    out = math.factorial(n)
    for p in ps:
        out //= math.factorial(p)
    return out


def stirling1_sum(n: int, k: int) -> Fraction:
    """First-kind value via the composition sum (n!/k!) * sum 1/prod(m_i)
    over m >= 1_k with |m| = n.  Always an integer-valued rational equal to
    stirling1(n, k)."""
    _check_nonneg(n=n, k=k)
    total = Fraction(0)
    for m in iter_multiindices(k, ones(k), norm_equals=n):
        denom = 1
        for e in m:
            denom *= e
        total += Fraction(1, denom)
    return Fraction(math.factorial(n), math.factorial(k)) * total


def stirling2_sum(n: int, k: int) -> Fraction:
    """Second-kind value via (n!/k!) * sum 1/prod(m_i!) over the same index
    set as :func:`stirling1_sum`."""
    _check_nonneg(n=n, k=k)
    total = Fraction(0)
    for m in iter_multiindices(k, ones(k), norm_equals=n):
        denom = 1
        for e in m:
            denom *= math.factorial(e)
        total += Fraction(1, denom)
    return Fraction(math.factorial(n), math.factorial(k)) * total


@lru_cache(maxsize=None)
def coefficient_c(big_k: int, m: int, r: int) -> Fraction:
    """Weight C(K, M, r) = r!/(K-M)! * s1_{M+1}(K+1, r+M+1) used by the
    direct basis-from-whole-function transform.

    Not integral in general (e.g. C(3, 1, 1) = 5/2), so the exact value is
    returned as a Fraction.  Requires K >= M >= 0 and r >= 0.
    """
    _check_nonneg(K=big_k, M=m, r=r)
    if big_k < m:
        raise ValueError(f"coefficient_c requires K >= M, got K={big_k}, M={m}")
    weight = r_stirling1(m + 1, big_k + 1, r + m + 1)
    return Fraction(math.factorial(r), math.factorial(big_k - m)) * weight


def coefficient_c_sum(big_k: int, m: int, r: int) -> Fraction:
    """Independent enumeration path for :func:`coefficient_c`: the bounded
    double sum over m' >= (M,) and p >= 1_r with |m'| + |p| <= K of
    binom(m'-1, M-1) / prod(p_j)."""
    _check_nonneg(K=big_k, M=m, r=r)
    if big_k < m:
        raise ValueError(f"coefficient_c_sum requires K >= M, got K={big_k}, M={m}")
    dims = 0 if m == 0 else 1
    lower = () if m == 0 else (m,)
    total = Fraction(0)
    for mm in iter_multiindices(dims, lower, norm_at_most=big_k):
        budget = big_k - sum(mm)
        weight = 1
        for e in mm:
            weight *= binomial(e - 1, m - 1)
        if weight == 0:
            continue
        for p in iter_multiindices(r, ones(r), norm_at_most=budget):
            denom = 1
            for e in p:
                denom *= e
            total += Fraction(weight, denom)
    return total


def table(kind: str, max_n: int, r: int = 0) -> list[list[int]]:
    """Triangular table rows n = 0..max_n with columns k = 0..n.

    ``kind`` is "1" (first kind), "2" (second kind) or "r1" (r-Stirling first
    kind with the given r).
    """
    _check_nonneg(max_n=max_n, r=r)
    if kind not in ("1", "2", "r1"):
        raise ValueError(f"unknown table kind {kind!r} (expected '1', '2' or 'r1')")
    return [_row(kind != "2", r if kind == "r1" else 0, n, n) for n in range(max_n + 1)]


def identity_report(max_n: int = 12) -> dict[str, bool]:
    """Run the built-in cross-check suite up to ``max_n`` and report each
    identity family as pass/fail.  Used by the CLI ``stirling --check``."""
    report: dict[str, bool] = {}

    report["dual_path_first_kind"] = all(
        stirling1_sum(n, k) == stirling1(n, k)
        for n in range(max_n + 1) for k in range(n + 1)
    )
    report["dual_path_second_kind"] = all(
        stirling2_sum(n, k) == stirling2(n, k)
        for n in range(max_n + 1) for k in range(n + 1)
    )
    report["alternated_first_kind"] = all(
        sum((-1) ** k * stirling1(n, k) for k in range(1, n + 1)) == (-1 if n == 1 else 0)
        for n in range(max_n + 1)
    )
    report["alternated_second_kind"] = all(
        sum((-1) ** k * math.factorial(k - 1) * stirling2(n, k) for k in range(1, n + 1))
        == (-1 if n == 1 else 0)
        for n in range(max_n + 1)
    )
    small = min(max_n, 10)
    report["cross_recurrence"] = all(
        r_stirling1(r, n, k) == r * r_stirling1(r + 1, n, k + 1) + r_stirling1(r + 1, n, k)
        for r in range(small) for n in range(r + 1, small + 1) for k in range(small + 1)
    )
    report["cross_recurrence_2"] = all(
        r_stirling1(r, n, k)
        == (n - r) * r_stirling1(r, n - 1, k) + r_stirling1(r - 1, n - 1, k - 1)
        for r in range(1, small) for n in range(r + 1, small + 1) for k in range(1, small + 1)
    )
    report["coefficient_dual_path"] = all(
        coefficient_c(K, M, r) == coefficient_c_sum(K, M, r)
        for K in range(min(max_n, 8) + 1) for M in range(K + 1) for r in range(4)
    )
    return report
