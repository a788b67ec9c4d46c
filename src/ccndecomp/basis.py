"""Basis decomposition for finite-order families.

Basis components are the decoupled building blocks: permutation invariant,
additive in each weight coordinate, annihilated by zero weights.  For
families with finite support the coupling and basis pictures are in
bijection through Stirling-weighted multiplicity sums:

- coupling from basis uses second-kind weights  m_c!/M_c! * S2(M_c, m_c),
- basis from coupling uses first-kind weights with alternating signs,
- the whole response is the multiplicity sum of basis components with
  1/prod(m_c!) weights,
- and basis components come straight from whole-function evaluations with
  the r-Stirling coefficient C(K, M, r), given any valid support bound K.

One exact weighted expansion sum carries the three Stirling transforms: its
weights are exact rationals, the products with the float component
evaluations are summed exactly, and the result is rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, Iterator, Mapping, Sequence

from .coupling import EXPLICIT_SIZE_CAP, CouplingFamily, check_size_cap, subsets
from .exact import exact_sum, exact_weighted_sum
from .monoid import WeightMonoid
from .multiindex import MultiIndex, as_multiindex, iter_multiindices, norm, ones, zeros
from .oracle import (
    CellSpec,
    NeighborhoodCheck,
    NeighborInput,
    OracleComponent,
    build_polynomial_multi,
    expand,
    type_multiindex,
    within_tolerance,
)
from .report import CheckReport
from .stirling import coefficient_c, stirling1, stirling2


class MissingSupportBound(ValueError):
    """A transform that truncates by finite support got no bound."""


class BoundDisagreement(ValueError):
    """Two supposedly valid support bounds produced different values."""


@dataclass(frozen=True)
class BasisFamily:
    """Finite-support family of basis components for one target type.

    ``component(x, inputs)`` evaluates the component indexed by the type
    multi-index of ``inputs``; it must vanish for indexes outside the
    entrywise ``support_bound``.
    """

    target_type: int
    n_types: int
    support_bound: MultiIndex
    component: Callable[[float, CellSpec], float]

    @classmethod
    def polynomial(
        cls,
        coeffs: Mapping[Sequence[int], Any],
        n_types: int | None = None,
        f0: Callable[[float], float] | None = None,
        target_type: int = 1,
    ) -> "BasisFamily":
        """Monomial basis components: a_k * prod_j k_j! * prod_c w_c x_c on
        the coefficient support, the isolated-cell term at k = 0, zero
        elsewhere.  These correspond to the structured polynomial component
        with the same coefficients."""
        oracle = build_polynomial_multi(coeffs, f0, n_types=n_types, target_type=target_type)
        width, f0 = oracle.n_types, oracle.f0
        scaled = {k: float(a) * math.prod(map(math.factorial, k)) for k, a in oracle.coeffs.items()}

        def component(x: float, inputs: CellSpec) -> float:
            k = type_multiindex(inputs, width)
            if norm(k) == 0:
                return f0(x)
            value = scaled.get(k)
            if value is None:
                return 0.0
            for e in inputs:
                value *= e.weight * e.state
            return value

        return cls(
            target_type=target_type,
            n_types=width,
            support_bound=oracle.order_bound,
            component=component,
        )


@dataclass(frozen=True)
class MultiplicityPoint:
    """Evaluation point (x; m, w_s, x_s): a base neighborhood together with a
    per-entry duplication count.  Component evaluations read it as the
    expanded neighborhood."""

    x: float
    inputs: CellSpec
    multiplicity: MultiIndex

    def __post_init__(self) -> None:
        if len(self.multiplicity) != len(self.inputs):
            raise ValueError(
                f"multiplicity has {len(self.multiplicity)} entries for {len(self.inputs)} inputs"
            )


def _iter_expansions(
    types: Sequence[int], n_types: int, bound: MultiIndex, lows: Sequence[int]
) -> Iterator[MultiIndex]:
    """Multiplicity vectors m >= lows over inputs of the given types whose
    per-type expanded counts stay within the entrywise bound."""
    groups: list[list[int]] = [[] for _ in range(n_types)]
    for pos, t in enumerate(types):
        groups[t - 1].append(pos)
    options: list[list[MultiIndex]] = []
    for j, positions in enumerate(groups):
        lower = tuple(lows[p] for p in positions)
        opts = list(iter_multiindices(len(positions), lower, norm_at_most=bound[j]))
        if not opts:
            return
        options.append(opts)

    def rec(j: int, acc: list[int]) -> Iterator[MultiIndex]:
        if j == n_types:
            yield tuple(acc)
            return
        for choice in options[j]:
            for pos, val in zip(groups[j], choice):
                acc[pos] = val
            yield from rec(j + 1, acc)

    yield from rec(0, [0] * len(types))


# Per-entry kernels: expanding entry c from m_c to M_c copies weighs kernel(m_c, M_c) / M_c!.
# The first and second kinds vanish at m_c = 0 < M_c, which pins M_c at 0.
def _first_kind(m: int, big_m: int) -> int:
    return (-1) ** (big_m - m) * math.factorial(m) * stirling1(big_m, m)


def _second_kind(m: int, big_m: int) -> int:
    return math.factorial(m) * stirling2(big_m, m)


def _reconstruction(m: int, big_m: int) -> int:
    return 1


@lru_cache(maxsize=None)
def _expansion_table(
    types: tuple[int, ...],
    m: MultiIndex,
    n_types: int,
    bound: MultiIndex,
    kernel: Callable[[int, int], int],
) -> tuple[tuple[MultiIndex, ...], tuple[int, ...], int]:
    """The expansions M >= m of inputs of the given types within the bound
    whose weight prod_c kernel(m_c, M_c) / M_c! is nonzero, with those exact
    weights as integer numerators over the common denominator
    prod_c K_c!, where K_c bounds the type of entry c."""
    tops = [bound[t - 1] for t in types]
    # factors[c][M_c] = kernel(m_c, M_c) * K_c! / M_c!
    factors = [[kernel(a, b) * math.perm(top, top - b) if b >= a else 0 for b in range(top + 1)]
               for a, top in zip(m, tops)]
    expansions, numerators = [], []
    for big_m in _iter_expansions(types, n_types, bound, m):
        numerator = math.prod(map(list.__getitem__, factors, big_m))
        if numerator:
            expansions.append(big_m)
            numerators.append(numerator)
    denominator = math.prod(map(math.factorial, tops))
    return tuple(expansions), tuple(numerators), denominator


def _expansion_sum(
    kernel: Callable[[int, int], int],
    component: Callable[[float, CellSpec], float],
    n_types: int,
    bound: MultiIndex,
    point: MultiplicityPoint,
) -> float:
    """The one Stirling transform: the sum over expansions M >= m within the
    bound of prod_c kernel(m_c, M_c) / M_c! times the component at the
    M-expanded base neighborhood, exact and rounded once."""
    inputs = point.inputs
    types = tuple(e.type_index for e in inputs)
    expansions, numerators, denominator = _expansion_table(
        types, tuple(point.multiplicity), n_types, tuple(bound), kernel)
    values = [component(point.x, expand(big_m, inputs)) for big_m in expansions]
    return exact_weighted_sum(numerators, denominator, values)


def _require_bound(family: CouplingFamily) -> MultiIndex:
    if family.order_bound is None:
        raise MissingSupportBound("finite support bound required")
    return family.order_bound


def basis_from_coupling(family: CouplingFamily, x: float, inputs: Sequence[NeighborInput]) -> float:
    """First-kind transform: sum over duplication vectors m >= 1 of
    (-1)^(|m|-|s|) / prod(m_c) times the coupling component at the expanded
    neighborhood.  Truncated by the family's support bound."""
    inputs = tuple(inputs)
    return basis_from_coupling_multi(family, MultiplicityPoint(x, inputs, ones(len(inputs))))


def coupling_from_basis(bf: BasisFamily, x: float, inputs: Sequence[NeighborInput]) -> float:
    """Second-kind direction: sum over duplication vectors m >= 1 of
    1/prod(m_c!) times the basis component at the expanded neighborhood."""
    inputs = tuple(inputs)
    return coupling_from_basis_multi(bf, MultiplicityPoint(x, inputs, ones(len(inputs))))


def coupling_from_basis_multi(bf: BasisFamily, point: MultiplicityPoint) -> float:
    """Coupling component at a multiplicity point via second-kind Stirling
    weights: sum over M of prod_c [m_c!/M_c! * S2(M_c, m_c)] times the basis
    component at the M-expanded base neighborhood.

    Entries with m_c = 0 force M_c = 0 (S2(M, 0) is a delta), so the sum runs
    over duplications of the active entries only.
    """
    return _expansion_sum(_second_kind, bf.component, bf.n_types, bf.support_bound, point)


def basis_from_coupling_multi(family: CouplingFamily, point: MultiplicityPoint) -> float:
    """Basis component at a multiplicity point via first-kind Stirling
    weights: sum over M of (-1)^(|M|-|m|) prod_c [m_c!/M_c! * s1(M_c, m_c)]
    times the coupling component at the M-expanded base neighborhood."""
    bound = _require_bound(family)
    return _expansion_sum(_first_kind, family.component, family.n_types, bound, point)


def oracle_from_basis(bf: BasisFamily, x: float, inputs: Sequence[NeighborInput]) -> float:
    """Reconstruct the whole response: sum over duplication vectors m >= 0 of
    1/prod(m_c!) times the basis component at the expanded neighborhood."""
    inputs = tuple(inputs)
    point = MultiplicityPoint(x, inputs, zeros(len(inputs)))
    return _expansion_sum(_reconstruction, bf.component, bf.n_types, bf.support_bound, point)


@lru_cache(maxsize=None)
def _direct_weight(
    big_k: MultiIndex, norms: MultiIndex, r_counts: MultiIndex, denom: int
) -> float | None:
    """The exact weight prod_j C(K_j, |M_j|, r_j) / prod(M_c) of the direct
    formula as a float, or None when it is zero."""
    weight = Fraction(1, denom)
    for k, m, r in zip(big_k, norms, r_counts):
        weight *= coefficient_c(k, m, r)
    return float(weight) if weight else None


def basis_from_oracle_direct(
    oracle: OracleComponent,
    bound: Sequence[int],
    x: float,
    inputs: Sequence[NeighborInput],
    *,
    cross_check: bool = False,
    cross_tol: float = 1e-9,
) -> float:
    """Basis component straight from whole-function evaluations.

    Valid for any entrywise support bound ``bound`` that really contains all
    nonzero interaction orders of ``oracle`` (the caller asserts this; a
    wrong bound silently yields wrong values, which ``cross_check`` exposes
    by re-running with each axis bumped by one and comparing).

    The double sum runs over subsets s' of the neighborhood and duplication
    vectors M >= 1 of s' staying within the bound, weighted by
    (-1)^(|s|+|M|) / prod(M_c) and the per-type coefficients
    C(K_j, |M_j|, r_j), where r_j counts the type-j inputs left out of s'.
    Neighborhoods larger than EXPLICIT_SIZE_CAP are refused before any
    evaluation.
    """
    inputs = tuple(inputs)
    check_size_cap(inputs, EXPLICIT_SIZE_CAP)
    big_k = as_multiindex(bound)
    if len(big_k) != oracle.n_types:
        raise ValueError(f"bound has tupleness {len(big_k)}, expected {oracle.n_types}")
    k_s = type_multiindex(inputs, oracle.n_types)
    if not all(a <= b for a, b in zip(k_s, big_k)):
        raise ValueError(f"neighborhood order {k_s} exceeds the declared bound {tuple(big_k)}")

    n = len(inputs)
    terms = []
    for subset in subsets(inputs):
        r_counts = tuple(a - b for a, b in zip(k_s, type_multiindex(subset, oracle.n_types)))
        types = tuple(e.type_index for e in subset)
        for big_m in _iter_expansions(types, oracle.n_types, big_k, ones(len(subset))):
            per_type_norm = [0] * oracle.n_types
            for e, entry in zip(big_m, subset):
                per_type_norm[entry.type_index - 1] += e
            weight = _direct_weight(big_k, tuple(per_type_norm), r_counts, math.prod(big_m))
            if weight is None:
                continue
            sign = -1.0 if norm(big_m) % 2 else 1.0
            terms.append(sign * weight * oracle.evaluate(x, expand(big_m, subset)))
    value = (-1.0 if n % 2 else 1.0) * exact_sum(terms)

    if cross_check:
        for j in range(oracle.n_types):
            bumped = tuple(b + (1 if i == j else 0) for i, b in enumerate(big_k))
            other = basis_from_oracle_direct(oracle, bumped, x, inputs)
            if not within_tolerance(value, other, cross_tol):
                raise BoundDisagreement(
                    f"bounds {tuple(big_k)} and {bumped} disagree: {value} vs {other}; "
                    "the declared support bound is too small"
                )
    return value


def basis_family_check(
    bf: BasisFamily,
    monoids: Sequence[WeightMonoid],
    trials: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
    max_per_type: int = 3,
) -> CheckReport:
    """Randomized check of the defining basis properties: permutation
    invariance, additivity in each weight coordinate, and annihilation by a
    zero weight anywhere."""
    check = NeighborhoodCheck("basis_family", ("permutation", "weight_additivity", "zero_kill"),
                              bf.n_types, monoids, trials, seed, tol, max_per_type)
    component, rng = bf.component, check.rng

    def probe(x: float, inputs: CellSpec) -> None:
        if not inputs:
            return
        lhs, rhs = component(x, inputs), component(x, check.shuffled(inputs))
        if not within_tolerance(lhs, rhs, tol):
            check.fail("permutation", x, inputs, lhs, rhs)
        head, tail = inputs[0], inputs[1:]
        monoid = monoids[head.type_index - 1]
        w1, w2 = monoid.sample(rng), monoid.sample(rng)
        lhs = component(x, (head._replace(weight=monoid.combine((w1, w2))),) + tail)
        rhs = (component(x, (head._replace(weight=w1),) + tail)
               + component(x, (head._replace(weight=w2),) + tail))
        if not within_tolerance(lhs, rhs, tol):
            check.fail("weight_additivity", x, inputs, lhs, rhs, w1=w1, w2=w2)
        killed = (head._replace(weight=monoid.zero),) + tail
        value = component(x, killed)
        if not within_tolerance(value, 0.0, tol):
            check.fail("zero_kill", x, killed, value, 0.0)

    return check.run(probe)


@dataclass
class ConvergenceReport:
    """Per-probe-point reconstruction values for each truncation depth, the
    successive sup-differences, and sup-errors against an optional limit."""

    depths: list[int]
    values: list[list[float]] = field(default_factory=list)
    successive: dict[int, float] = field(default_factory=dict)
    limit_errors: dict[int, float] = field(default_factory=dict)


def truncation_sequence(
    generator: Callable[[int], BasisFamily],
    n_max: int,
    probe_points: Sequence[tuple[float, CellSpec]],
    limit: Callable[[float, CellSpec], float] | None = None,
) -> ConvergenceReport:
    """Reconstruct the whole response from generator(N) for N = 1..n_max at
    each probe point and report how the sequence settles."""
    report = ConvergenceReport(depths=list(range(1, n_max + 1)))
    previous: list[float] | None = None
    for depth in report.depths:
        bf = generator(depth)
        row = [oracle_from_basis(bf, x, inputs) for x, inputs in probe_points]
        report.values.append(row)
        if previous is not None:
            report.successive[depth] = max(
                (abs(a - b) for a, b in zip(row, previous)), default=0.0
            )
        if limit is not None:
            report.limit_errors[depth] = max(
                (abs(v - limit(x, inputs)) for v, (x, inputs) in zip(row, probe_points)),
                default=0.0,
            )
        previous = row
    return report
