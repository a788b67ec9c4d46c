"""Shared test fixtures: shipped component builders, deliberately broken
components, random samplers, and brute-force combinatorial oracles."""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from itertools import permutations, product
from typing import Iterable, Sequence

from ccndecomp import (
    build_exponential,
    build_nested,
    build_polynomial_multi,
    build_polynomial_single,
    build_symmetric_power,
    make_additive_positive,
    make_additive_real,
)
from ccndecomp.coupling import check_size_cap, subsets
from ccndecomp.monoid import WeightMonoid
from ccndecomp.multiindex import iter_multiindices, ones
from ccndecomp.oracle import BlackBoxOracle, NeighborInput, OracleComponent, expand, zero_f0


def shipped_oracles():
    """Every component builder the package ships, with the monoid row its
    admissibility is declared against."""
    add = make_additive_real()
    return [
        ("power2", build_polynomial_single({2: 1}), [add]),
        ("power5", build_polynomial_single({5: 1}), [add]),
        ("poly_single", build_polynomial_single({1: Fraction(3, 2), 3: Fraction(-1, 3)}), [add]),
        (
            "poly_multi",
            build_polynomial_multi({(1, 2): Fraction(1, 2), (0, 1): 2}, n_types=2),
            [add, add],
        ),
        (
            "nested",
            build_nested(
                [Fraction(2), Fraction(1, 3)],
                [[Fraction(1), Fraction(1, 2)], [Fraction(-1), Fraction(0), Fraction(1, 5)]],
            ),
            [add, add],
        ),
        ("exp_trunc6", build_exponential(6), [add]),
        ("exp_full", build_exponential(None), [add]),
        ("sym32", build_symmetric_power(3, 2), [add]),
    ]


def finite_order_oracles():
    return [(name, o, ms) for name, o, ms in shipped_oracles() if o.coeffs is not None]


def make_free_parallel() -> WeightMonoid:
    """Finite multisets of edge labels, as sorted tuples, under multiset
    union: the free commutative monoid, which can represent any bundle of
    parallel edges.  Its weights are not numbers, so no network names it."""
    return WeightMonoid(
        name="free_parallel",
        combine=lambda bundle: tuple(sorted(label for w in bundle for label in w)),
        zero=(),
        sample=lambda rng: tuple(sorted(rng.choice("abc") for _ in range(rng.randint(0, 3)))),
    )


def broken_merge_oracle():
    """Ignores multiset structure of free-parallel weights (responds to the
    squared edge count), so merging two bundles is not additive."""
    def fn(x, inputs):
        return math.fsum(len(e.weight) ** 2 * e.state for e in inputs)

    return BlackBoxOracle(1, 1, zero_f0, fn, "edge-count-squared"), [make_free_parallel()]


def broken_zero_oracle():
    """Reads the states of zero-weight neighbors."""
    def fn(x, inputs):
        return math.fsum(e.weight * e.state for e in inputs) + math.fsum(
            e.state for e in inputs if e.weight == 0.0
        )

    return BlackBoxOracle(1, 1, zero_f0, fn, "reads-zero-weights"), [make_additive_positive()]


def broken_permutation_oracle():
    """Biases toward the state of the last nonzero-weight input."""
    def fn(x, inputs):
        total = math.fsum(e.weight * e.state for e in inputs)
        last = 0.0
        for e in inputs:
            if e.weight != 0.0:
                last = e.state
        return total + 0.25 * last

    return BlackBoxOracle(1, 1, zero_f0, fn, "last-input-bias"), [make_additive_positive()]


def random_inputs(rng: random.Random, n_types: int, max_per_type: int = 3,
                  lo: float = -1.5, hi: float = 1.5) -> tuple[NeighborInput, ...]:
    entries = []
    for j in range(n_types):
        for _ in range(rng.randint(0, max_per_type)):
            entries.append(NeighborInput(j + 1, rng.uniform(lo, hi), rng.uniform(lo, hi)))
    rng.shuffle(entries)
    return tuple(entries)


def random_inputs_within(rng: random.Random, bound, max_per_type: int = 3,
                         lo: float = -1.5, hi: float = 1.5) -> tuple[NeighborInput, ...]:
    entries = []
    for j, b in enumerate(bound):
        for _ in range(rng.randint(0, min(max_per_type, b))):
            entries.append(NeighborInput(j + 1, rng.uniform(lo, hi), rng.uniform(lo, hi)))
    rng.shuffle(entries)
    return tuple(entries)


def random_polynomial_coeffs(rng: random.Random, bound=(4, 4)) -> dict:
    """Random nonzero rational coefficient map over 2 types within the
    entrywise bound."""
    keys = set()
    while not keys:
        for _ in range(rng.randint(1, 4)):
            k = tuple(rng.randint(0, b) for b in bound)
            if any(k):
                keys.add(k)
    return {k: Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4)) for k in keys}


# --- closed-form coupling reference -----------------------------------------

def reference_closed_form_component(oracle):
    """The closed-form coupling component as ``CouplingFamily.from_polynomial``
    built it before its invariant work was hoisted out of the call: every
    call re-sorts the coefficients, converts them to float and enumerates
    the compositions again.  Kept as the reference for bit-equality tests."""
    n_types = oracle.n_types
    f0 = oracle.f0
    frozen = dict(oracle.coeffs)

    def component(x, inputs):
        if not inputs:
            return f0(x)
        per_type = [[] for _ in range(n_types)]
        for e in inputs:
            per_type[e.type_index - 1].append(e.weight * e.state)
        terms = []
        for n_vec in sorted(frozen):
            term = float(frozen[n_vec])
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
                inner = []
                for m in iter_multiindices(len(products), ones(len(products)), norm_equals=n_j):
                    piece = 1.0
                    for p, exp in zip(products, m):
                        piece *= p ** exp / math.factorial(exp)
                    inner.append(piece)
                term *= math.factorial(n_j) * math.fsum(inner)
                if term == 0.0:
                    break
            terms.append(term)
        return math.fsum(terms)

    return component


# --- recursive coupling reference -------------------------------------------

RECURSIVE_SIZE_CAP = 12


def coupling_eval_recursive(
    oracle: OracleComponent,
    x: float,
    inputs: Sequence[NeighborInput],
    max_size: int = RECURSIVE_SIZE_CAP,
) -> float:
    """Same value as :func:`coupling_eval_explicit` via the recursive
    definition (whole response minus all strictly smaller components),
    memoized over subset bitmasks."""
    inputs = tuple(inputs)
    n = len(inputs)
    check_size_cap(inputs, max_size)
    table = list(subsets(inputs))
    memo: dict[int, float] = {}

    def strict_submasks(mask: int) -> Iterable[int]:
        if mask == 0:
            return
        sub = (mask - 1) & mask
        while True:
            yield sub
            if sub == 0:
                return
            sub = (sub - 1) & mask

    def component(mask: int) -> float:
        if mask in memo:
            return memo[mask]
        value = oracle.evaluate(x, table[mask]) - math.fsum(
            component(sub) for sub in strict_submasks(mask)
        )
        memo[mask] = value
        return value

    return component((1 << n) - 1)


def reference_subsets(inputs):
    """Every subset in increasing bitmask order, one n-step comprehension per
    mask."""
    n = len(inputs)
    return [tuple(inputs[i] for i in range(n) if mask >> i & 1) for mask in range(1 << n)]


# --- dense network reference ----------------------------------------------

def dense_in_neighborhood(doc: dict, cell: str, states: dict) -> tuple[NeighborInput, ...]:
    """Reference for ``Network.in_neighborhood``: gather the parallel edges of
    a valid network document into a dense N x N in-adjacency matrix of
    bundles, combine each bundle (OR for boolean weights, otherwise the exact
    rational sum rounded once), drop zero weights and scan every source of
    ``cell`` in cell order."""
    cells = [str(c["id"]) for c in doc["cells"]]
    type_of = {str(c["id"]): int(c["type"]) for c in doc["cells"]}
    pos = {cid: i for i, cid in enumerate(cells)}
    bundles = [[[] for _ in cells] for _ in cells]
    for e in doc.get("edges", []):
        bundles[pos[e["to"]]][pos[e["from"]]].append(e["weight"])
    out = []
    for src, bundle in zip(cells, bundles[pos[cell]]):
        if not bundle:
            continue
        w = any(bundle) if isinstance(bundle[0], bool) else float(sum(map(Fraction, bundle)))
        if w:
            out.append(NeighborInput(type_of[src], w, states[src]))
    return tuple(out)


# --- brute-force combinatorial oracles --------------------------------------

def count_permutations_with_cycles(n: int, k: int) -> int:
    """Number of permutations of n elements with exactly k cycles."""
    if n == 0:
        return 1 if k == 0 else 0
    count = 0
    for perm in permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for start in range(n):
            if seen[start]:
                continue
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
        if cycles == k:
            count += 1
    return count


def count_set_partitions(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k nonempty blocks."""
    if n == 0:
        return 1 if k == 0 else 0

    def rec(i: int, blocks: list[list[int]]) -> int:
        if i == n:
            return 1 if len(blocks) == k else 0
        total = 0
        for b in blocks:
            b.append(i)
            total += rec(i + 1, blocks)
            b.pop()
        if len(blocks) < k:
            blocks.append([i])
            total += rec(i + 1, blocks)
            blocks.pop()
        return total

    return rec(0, [])


# --- exact reference for the Stirling transforms ---------------------------

@functools.lru_cache(maxsize=None)
def reference_entry_weight(kind: str, m: int, big_m: int) -> Fraction:
    """Weight of one entry expanded from m to M copies, from the brute-force
    counts: (-1)^(M-m) m!/M! s1(M, m), m!/M! S2(M, m) or 1/M!."""
    if kind == "first":
        count = (-1) ** (big_m - m) * count_permutations_with_cycles(big_m, m)
    elif kind == "second":
        count = count_set_partitions(big_m, m)
    else:
        return Fraction(1, math.factorial(big_m))
    return Fraction(math.factorial(m) * count, math.factorial(big_m))


def reference_expansion_sum(kind: str, component, bound, x, inputs, m) -> float:
    """A Stirling transform in exact rationals over the same float component
    evaluations, rounded once: the sum over every M >= m whose per-type
    counts stay within ``bound`` of the product of the entry weights of
    ``kind`` ("first", "second" or "whole") times ``component`` at the
    M-expanded inputs."""
    inputs = tuple(inputs)
    total = Fraction(0)
    ranges = [range(mc, bound[e.type_index - 1] + 1) for mc, e in zip(m, inputs)]
    for big_m in product(*ranges):
        counts = [0] * len(bound)
        for e, bc in zip(inputs, big_m):
            counts[e.type_index - 1] += bc
        if any(c > b for c, b in zip(counts, bound)):
            continue
        weight = math.prod((reference_entry_weight(kind, mc, bc) for mc, bc in zip(m, big_m)),
                           start=Fraction(1))
        if weight:
            total += weight * Fraction(component(x, expand(big_m, inputs)))
    return float(total)


# --- checker-report golden --------------------------------------------------

def checker_golden_reports(seed: int = 3, trials: int = 200) -> dict:
    """``to_jsonable()`` of the three neighborhood checkers on each broken
    component (its evaluator doubling as the coupling and basis component),
    plus the coupling and basis family checks of the closed-form square
    under ``bool_or`` weights.  Pins the sampler's draw order and the
    witness format, including the tuple weights of ``free_parallel``, which
    ``report.jsonable`` turns into lists."""
    from ccndecomp import (
        BasisFamily,
        CouplingFamily,
        admissibility_check,
        basis_family_check,
        coupling_family_check,
        make_bool_or,
    )

    reports = {}
    for name, make in (("merge", broken_merge_oracle), ("zero", broken_zero_oracle),
                       ("permutation", broken_permutation_oracle)):
        oracle, monoids = make()
        coupling = CouplingFamily.from_oracle(oracle)
        basis = BasisFamily(1, 1, (3,), oracle.evaluate)
        reports[name] = {
            "admissibility": admissibility_check(oracle, monoids, trials, seed).to_jsonable(),
            "coupling_family": coupling_family_check(coupling, monoids, trials, seed).to_jsonable(),
            "basis_family": basis_family_check(basis, monoids, trials, seed).to_jsonable(),
        }
    square = build_polynomial_single({2: 1})
    bool_or = [make_bool_or()]
    reports["bool_or_square"] = {
        "coupling_family": coupling_family_check(
            CouplingFamily.from_polynomial(square), bool_or, trials, seed).to_jsonable(),
        "basis_family": basis_family_check(
            BasisFamily.polynomial(square.coeffs), bool_or, trials, seed).to_jsonable(),
    }
    return reports
