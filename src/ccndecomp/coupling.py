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
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .exact import exact_sum, subset_mobius
from .monoid import WeightMonoid
from .multiindex import MultiIndex, iter_multiindices, ones, zero_pattern
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
    return exact_sum(terms)


def coupling_components(
    oracle: OracleComponent,
    x: float,
    inputs: Sequence[NeighborInput],
    max_size: int = EXPLICIT_SIZE_CAP,
) -> list[float]:
    """Coupling components at every subset of the neighborhood, indexed by
    subset bitmask (the order of :func:`subsets`): one evaluation per subset,
    then :func:`exact.subset_mobius`, bit for bit the values of
    :func:`coupling_eval_explicit`.  A non-finite evaluation sends every
    subset to that explicit path, which keeps its values and errors."""
    inputs = tuple(inputs)
    check_size_cap(inputs, max_size)
    values = [float(oracle.evaluate(x, subset)) for subset in subsets(inputs)]
    if not all(map(math.isfinite, values)):
        return [coupling_eval_explicit(oracle, x, subset, max_size) for subset in subsets(inputs)]
    return subset_mobius(values)


@dataclass(frozen=True)
class CouplingFamily:
    """Family of coupling components for one target type.

    ``component(x, inputs)`` evaluates the component indexed by the type
    multi-index of ``inputs`` at those concrete weights/states.  When the
    family has known finite support, ``order_bound`` bounds it entrywise.
    """

    target_type: int
    n_types: int
    component: Callable[[float, CellSpec], float]
    order_bound: MultiIndex | None = None

    @classmethod
    def from_oracle(cls, oracle: OracleComponent) -> "CouplingFamily":
        """Derive the family from any component via the subset sums."""

        def component(x: float, inputs: CellSpec) -> float:
            return coupling_eval_explicit(oracle, x, inputs)

        return cls(
            target_type=oracle.target_type,
            n_types=oracle.n_types,
            component=component,
            order_bound=oracle.order_bound,
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
        )


@functools.lru_cache(maxsize=None)
def _compositions(k: int, n: int) -> tuple[MultiIndex, ...]:
    """Compositions of n into k positive parts (k <= n), in the order of
    :func:`iter_multiindices`."""
    return tuple(iter_multiindices(k, ones(k), norm_equals=n))


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
        return exact_sum([source.component(x, subset) for subset in subsets(inputs)])
    return exact_sum(coupling_components(source, x, inputs, max_size))


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


def locally_maximal_orders(coeff_keys: Iterable[MultiIndex]) -> set[MultiIndex]:
    """Nonzero interaction orders of a polynomial family with no larger
    nonzero order sharing their zero pattern.  Its nonzero coupling
    components sit at every k <= n sharing a zero pattern with a coefficient
    key n, so these are the nonzero keys that no other key with the same
    zero pattern dominates entrywise."""
    keys = {k for k in coeff_keys if any(k)}
    return {k for k in keys
            if not any(other != k and zero_pattern(other) == zero_pattern(k)
                       and all(map(int.__le__, k, other)) for other in keys)}
