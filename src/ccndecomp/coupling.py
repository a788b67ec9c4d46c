"""Subset (anchored) decomposition of a component into coupling terms.

The coupling component for a concrete neighborhood s is the part of the
response that only shows up when every input in s participates: the
inclusion-exclusion alternating sum of the whole-function evaluations over
all subsets of s.  Summing coupling components over all subsets recovers the
original response exactly.

Closed forms are available for the structured polynomial family; everything
else goes through the subset sums with explicit size caps.  One component by
inclusion-exclusion costs 2^|s| evaluations.  All 2^n components of an
n-input point at once (:func:`coupling_components`) cost 2^n evaluations
plus n*2^(n-1) exact integer butterflies of the subset Mobius transform,
instead of 3^n evaluations, and give bit-identical values.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .monoid import WeightMonoid, sample_dyadic
from .multiindex import MultiIndex, iter_multiindices, norm, ones, zero_pattern, zeros
from .oracle import (
    CellSpec,
    NeighborhoodCheck,
    NeighborInput,
    OracleComponent,
    PolynomialOracle,
    within_tolerance,
)
from .report import CheckReport

EXPLICIT_SIZE_CAP = 20
# recompose calls a family's component once per subset; a from_oracle family
# spends 2^|s| evaluations on subset s, 3^n in all.
RECOMPOSE_SIZE_CAP = 12


class SizeCapExceeded(ValueError):
    """Neighborhood too large for the 2^|s| subset enumeration."""


def _subset_table(inputs: Sequence[NeighborInput]) -> list[CellSpec]:
    """Every subset indexed by bitmask, built by doubling: the subset of
    mask h + 2^i is the subset of h with inputs[i] appended."""
    table: list[CellSpec] = [()]
    for item in inputs:
        table += [subset + (item,) for subset in table]
    return table


def subsets(inputs: Sequence[NeighborInput]) -> Iterator[CellSpec]:
    """Every subset of the inputs in increasing bitmask order: the k-th
    subset yielded holds inputs[i] for each bit i set in k, in input order.

    Each subset is one tuple concatenation of a subset of the lower half of
    the inputs and one of the upper half.  Only the two half tables are
    kept (2 * 2^10 tuples at the 20-input cap), not all 2^n subsets."""
    inputs = tuple(inputs)
    half = len(inputs) // 2
    low = _subset_table(inputs[:half])
    for high in _subset_table(inputs[half:]):
        for subset in low:
            yield subset + high


def check_size_cap(inputs: Sequence[NeighborInput], max_size: int) -> None:
    """Refuse a neighborhood too large for exponential subset work."""
    if len(inputs) > max_size:
        raise SizeCapExceeded(f"neighborhood of size {len(inputs)} exceeds cap {max_size}")


def coupling_eval_explicit(
    oracle: OracleComponent,
    x: float,
    inputs: Sequence[NeighborInput],
    max_size: int = EXPLICIT_SIZE_CAP,
) -> float:
    """Coupling component at the given neighborhood by inclusion-exclusion:
    sum over subsets s' of (-1)^(|s|-|s'|) * oracle(x; s')."""
    inputs = tuple(inputs)
    check_size_cap(inputs, max_size)
    total_size = len(inputs)
    terms = []
    for subset in subsets(inputs):
        value = float(oracle.evaluate(x, subset))
        terms.append(-value if (total_size - len(subset)) % 2 else value)
    return math.fsum(terms)


def dyadic_grid(values: Sequence[float]) -> tuple[list[int], int]:
    """Finite floats as integers on one dyadic grid: ``values[i]`` equals
    ``ints[i] / 2**shift`` exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    shift = max((den for _, den in ratios), default=1).bit_length() - 1
    return [num << (shift - den.bit_length() + 1) for num, den in ratios], shift


def exact_weighted_sum(numerators: Sequence[int], denominator: int,
                       values: Sequence[float]) -> float:
    """The sum of ``numerators[i] / denominator * values[i]``, computed
    exactly in integers on the values' dyadic grid and rounded once (an
    exact zero is +0.0).  A sum beyond the float range raises OverflowError.
    A non-finite value keeps float semantics: the result, or the error, is
    that of fsum over the rounded products."""
    if not all(map(math.isfinite, values)):
        return math.fsum(n / denominator * v for n, v in zip(numerators, values))
    grid, shift = dyadic_grid(values)
    return sum(map(operator.mul, numerators, grid)) / (denominator << shift)


# Finite values this large could overflow an intermediate partial of fsum,
# which the exact transform would not reproduce; they take the reference path.
_EXACT_MAGNITUDE_LIMIT = 2.0 ** 960


def coupling_components(
    oracle: OracleComponent,
    x: float,
    inputs: Sequence[NeighborInput],
    max_size: int = EXPLICIT_SIZE_CAP,
) -> list[float]:
    """Coupling components at every subset of the neighborhood, indexed by
    subset bitmask (the order of :func:`subsets`).

    The oracle is evaluated once per subset; the subset Mobius transform
    (Yates 1937; Bjorklund, Husfeldt, Kaski and Koivisto 2007) then runs on
    the values scaled to integers on one dyadic grid, so every butterfly is
    exact and each output is rounded once.  Like the fsum in
    :func:`coupling_eval_explicit`, that is the correctly rounded exact
    alternating sum, so both agree bit for bit (an exact zero is +0.0 in
    both).  Non-finite or huge
    evaluations fall back to :func:`coupling_eval_explicit` per subset, which
    keeps its values and errors exactly.
    """
    inputs = tuple(inputs)
    check_size_cap(inputs, max_size)
    values = [float(oracle.evaluate(x, subset)) for subset in subsets(inputs)]
    if not all(abs(v) < _EXACT_MAGNITUDE_LIMIT for v in values):  # also catches inf, nan
        return [coupling_eval_explicit(oracle, x, subset, max_size) for subset in subsets(inputs)]
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


@dataclass(frozen=True)
class CouplingFamily:
    """Family of coupling components for one target type.

    ``component(x, inputs)`` evaluates the component indexed by the type
    multi-index of ``inputs`` at those concrete weights/states.  When the
    family has known finite support, ``order_bound`` bounds it entrywise and
    ``support`` lists the multi-indexes of (potentially) nonzero components.
    """

    target_type: int
    n_types: int
    component: Callable[[float, CellSpec], float]
    order_bound: MultiIndex | None = None
    support: frozenset[MultiIndex] | None = None

    @classmethod
    def from_oracle(cls, oracle: OracleComponent) -> "CouplingFamily":
        """Derive the family from any component via the subset sums."""

        def component(x: float, inputs: CellSpec) -> float:
            return coupling_eval_explicit(oracle, x, inputs)

        coeffs = oracle.coeffs
        support = None if coeffs is None else polynomial_coupling_support(coeffs.keys())
        return cls(
            target_type=oracle.target_type,
            n_types=oracle.n_types,
            component=component,
            order_bound=oracle.order_bound,
            support=support,
        )

    @classmethod
    def from_polynomial(cls, oracle: PolynomialOracle) -> "CouplingFamily":
        """Closed form for the structured polynomial family: for each
        coefficient a_n, the component at a neighborhood with k_j inputs of
        type j is a_n * prod_j [ n_j! * sum over m_j >= 1 with |m_j| = n_j of
        prod (w*state)^m / m! ], zero when the per-type counts cannot reach
        n (empty types must have n_j = 0).

        The coefficients are sorted and converted to float once, here, and
        the compositions m_j are enumerated once per (k_j, n_j) for the life
        of the process.  A call computes each bracketed factor once per
        (type, n_j) and multiplies it into every coefficient's term that
        needs it, in the same order as a per-coefficient evaluation, so the
        value is bit-identical to recomputing every factor."""
        coeffs = oracle.coeffs
        if coeffs is None:
            raise ValueError("closed-form family requires a structured polynomial component")
        n_types = oracle.n_types
        f0 = oracle.f0
        terms_f = tuple((n_vec, float(a)) for n_vec, a in sorted(coeffs.items()))

        def component(x: float, inputs: CellSpec) -> float:
            if not inputs:
                return f0(x)
            per_type: list[list[float]] = [[] for _ in range(n_types)]
            for e in inputs:
                per_type[e.type_index - 1].append(e.weight * e.state)
            factors: dict[tuple[int, int], float] = {}
            terms = []
            for n_vec, term in terms_f:
                for j in range(n_types):
                    products = per_type[j]
                    n_j = n_vec[j]
                    if not products:
                        if n_j:
                            term = 0.0
                            break
                        continue
                    if n_j < len(products):
                        term = 0.0
                        break
                    factor = factors.get((j, n_j))
                    if factor is None:
                        inner = []
                        for m in _compositions(len(products), n_j):
                            piece = 1.0
                            for p, exp in zip(products, m):
                                piece *= p ** exp / math.factorial(exp)
                            inner.append(piece)
                        factor = factors[j, n_j] = math.factorial(n_j) * math.fsum(inner)
                    term *= factor
                    if term == 0.0:
                        break
                terms.append(term)
            return math.fsum(terms)

        return cls(
            target_type=oracle.target_type,
            n_types=n_types,
            component=component,
            order_bound=oracle.order_bound,
            support=polynomial_coupling_support(coeffs.keys()),
        )


@functools.lru_cache(maxsize=None)
def _compositions(k: int, n: int) -> tuple[MultiIndex, ...]:
    """Compositions of n into k positive parts (k <= n), in the order of
    :func:`iter_multiindices`."""
    return tuple(iter_multiindices(k, ones(k), norm_equals=n))


def polynomial_coupling_support(coeff_keys: Iterable[MultiIndex]) -> frozenset[MultiIndex]:
    """Multi-indexes of nonzero coupling components of a polynomial family:
    every k sharing a zero pattern with a coefficient key n and k <= n.
    The zero index (isolated-cell term) is always included."""
    support: set[MultiIndex] = set()
    keys = list(coeff_keys)
    if keys:
        support.add(zeros(len(keys[0])))
    for n_vec in keys:
        lower = tuple(1 if e else 0 for e in n_vec)
        support.update(iter_multiindices(len(n_vec), lower, upper=n_vec))
    return frozenset(support)


def recompose(
    source: OracleComponent | CouplingFamily,
    x: float,
    inputs: Sequence[NeighborInput],
    max_size: int = RECOMPOSE_SIZE_CAP,
) -> float:
    """Rebuild the whole response as the sum of coupling components over all
    subsets of the neighborhood."""
    inputs = tuple(inputs)
    check_size_cap(inputs, max_size)
    if isinstance(source, CouplingFamily):
        return math.fsum(source.component(x, subset) for subset in subsets(inputs))
    return math.fsum(coupling_components(source, x, inputs, max_size))


def coupling_family_check(
    family: CouplingFamily,
    monoids: Sequence[WeightMonoid],
    trials: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
    max_per_type: int = 2,
) -> CheckReport:
    """Randomized check of the three properties that characterize a valid
    coupling family: permutation invariance, the three-term merge expansion
    linking the component to the next order up, and annihilation by any zero
    weight."""
    check = NeighborhoodCheck("coupling_family", ("permutation", "merge_expansion", "zero_kill"),
                              family.n_types, monoids, trials, seed, tol, max_per_type)
    component = family.component

    def probe(x: float, rest: CellSpec) -> None:
        if rest:
            lhs, rhs = component(x, rest), component(x, check.shuffled(rest))
            if not within_tolerance(lhs, rhs, tol):
                check.fail("permutation", x, rest, lhs, rhs)
        one, two, merged = check.merge_pair()
        lhs = component(x, (merged,) + rest)
        rhs = math.fsum((component(x, (one,) + rest), component(x, (two,) + rest),
                         component(x, (one, two) + rest)))
        if not within_tolerance(lhs, rhs, tol):
            check.fail("merge_expansion", x, rest, lhs, rhs, source_type=one.type_index,
                       w1=one.weight, w2=two.weight, shared_state=one.state)
        killed = (check.zero_input(),) + rest
        value = component(x, killed)
        if not within_tolerance(value, 0.0, tol):
            check.fail("zero_kill", x, killed, value, 0.0)

    return check.run(probe)


@dataclass(frozen=True)
class OrderReport:
    """Result of interaction-order analysis along one type axis.

    ``kind`` is "finite" (with ``order`` set), "infinite_evidence" (nonzero
    components observed at the probe horizon) or "unknown" (sampling found
    nothing past ``probed_nonzero`` but cannot certify absence).
    """

    kind: str
    order: int | None = None
    probed_nonzero: int = 0


def coupling_order(
    family: CouplingFamily,
    type_index: int,
    probe_budget: int = 8,
    samples: int = 4,
    seed: int = 0,
) -> OrderReport:
    """Largest count of type-``type_index`` inputs appearing in any nonzero
    component.

    Structured families answer exactly from their support.  Black-box-backed
    families are probed at random points: a declared ``order_bound`` makes a
    finite answer sound (largest order with an observed nonzero component);
    without one, only evidence is reported, never a false "finite".
    """
    j = type_index - 1
    if not 0 <= j < family.n_types:
        raise ValueError(f"type index {type_index} out of range 1..{family.n_types}")
    if family.support is not None:
        gamma = max((k[j] for k in family.support), default=0)
        return OrderReport(kind="finite", order=gamma, probed_nonzero=gamma)

    rng = random.Random(seed)

    def observed_nonzero(k: int) -> bool:
        for _ in range(samples):
            inputs = tuple(
                NeighborInput(type_index, sample_dyadic(rng, 0.25, 2.0), sample_dyadic(rng, 0.25, 2.0))
                for _ in range(k)
            )
            if abs(family.component(sample_dyadic(rng), inputs)) > 1e-12:
                return True
        return False

    if family.order_bound is not None:
        top = family.order_bound[j]
        for k in range(top, 0, -1):
            if observed_nonzero(k):
                return OrderReport(kind="finite", order=k, probed_nonzero=k)
        return OrderReport(kind="finite", order=0, probed_nonzero=0)

    last_nonzero = 0
    for k in range(1, probe_budget + 1):
        if observed_nonzero(k):
            last_nonzero = k
    if last_nonzero == probe_budget:
        return OrderReport(kind="infinite_evidence", probed_nonzero=last_nonzero)
    return OrderReport(kind="unknown", probed_nonzero=last_nonzero)


def locally_maximal_orders(family: CouplingFamily) -> set[MultiIndex]:
    """Support indexes with no strictly larger nonzero index sharing their
    zero pattern.  Requires known finite support."""
    if family.support is None:
        raise ValueError("locally maximal orders require a family with known finite support")
    nonzero = [k for k in family.support if norm(k) > 0]
    out: set[MultiIndex] = set()
    for k in nonzero:
        pattern = zero_pattern(k)
        dominated = any(
            other != k
            and zero_pattern(other) == pattern
            and all(a <= b for a, b in zip(k, other))
            for other in nonzero
        )
        if not dominated:
            out.add(k)
    return out
