import math
import random
from fractions import Fraction
from itertools import product

import pytest

from ccndecomp.basis import (
    BasisFamily,
    BoundDisagreement,
    MissingSupportBound,
    MultiplicityPoint,
    _expansion_table,
    _first_kind,
    _reconstruction,
    _second_kind,
    basis_family_check,
    basis_from_coupling,
    basis_from_coupling_multi,
    basis_from_oracle_direct,
    coupling_from_basis,
    coupling_from_basis_multi,
    elementary_symmetric,
    oracle_from_basis,
    truncation_sequence,
)
from ccndecomp.coupling import CouplingFamily, SizeCapExceeded, exact_weighted_sum
from ccndecomp.monoid import make_additive_real, sample_dyadic
from ccndecomp.oracle import (
    NeighborInput,
    build_exponential,
    build_polynomial_multi,
    build_polynomial_single,
    build_symmetric_power,
    expand,
    type_multiindex,
)
from helpers import (
    random_inputs_within,
    random_polynomial_coeffs,
    reference_entry_weight,
    reference_expansion_sum,
)

NI = NeighborInput


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def power_family(n):
    oracle = build_polynomial_single({n: 1})
    return CouplingFamily.from_polynomial(oracle), BasisFamily.polynomial({(n,): 1})


def test_power_basis_component_values():
    fam, bf = power_family(3)
    inputs = (NI(1, 1.0, 2.0), NI(1, 0.5, 1.0), NI(1, 2.0, -1.0))
    want = math.factorial(3) * math.prod(e.weight * e.state for e in inputs)
    assert close(basis_from_coupling(fam, 0.0, inputs), want)
    assert close(bf.component(0.0, inputs), want)
    # off the exact order the basis component vanishes
    assert close(basis_from_coupling(fam, 0.0, inputs[:2]), 0.0)
    assert bf.component(0.0, inputs[:2]) == 0.0
    # empty neighborhood returns the internal term
    assert basis_from_coupling(fam, 0.5, ()) == 0.0


def test_basis_from_coupling_requires_bound():
    exp_family = CouplingFamily.from_oracle(build_exponential(None))
    with pytest.raises(MissingSupportBound):
        basis_from_coupling(exp_family, 0.0, (NI(1, 1.0, 1.0),))
    with pytest.raises(MissingSupportBound):
        BasisFamily.from_coupling(exp_family)


def test_coupling_from_basis_power_sanity():
    fam, bf = power_family(4)
    rng = random.Random(2)
    for size in range(1, 5):
        inputs = tuple(NI(1, rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(size))
        assert close(coupling_from_basis(bf, 0.0, inputs), fam.component(0.0, inputs))


def test_basis_supported_only_at_zero_gives_zero_components():
    bf = BasisFamily.polynomial({}, n_types=1, f0=lambda x: 1.0 + x)
    assert coupling_from_basis(bf, 2.0, ()) == 3.0
    for size in range(1, 4):
        inputs = tuple(NI(1, 1.0, 1.0) for _ in range(size))
        assert coupling_from_basis(bf, 2.0, inputs) == 0.0


def test_bijection_round_trips_random_families():
    rng = random.Random(6)
    for _ in range(25):
        coeffs = random_polynomial_coeffs(rng)
        oracle = build_polynomial_multi(coeffs, n_types=2)
        fam = CouplingFamily.from_polynomial(oracle)
        bf = BasisFamily.polynomial(coeffs, n_types=2)
        generic_bf = BasisFamily.from_coupling(fam)
        derived_fam = CouplingFamily(
            target_type=1,
            n_types=2,
            component=lambda x, inputs, _bf=bf: coupling_from_basis(_bf, x, inputs),
            order_bound=bf.support_bound,
        )
        for _ in range(8):
            inputs = random_inputs_within(rng, oracle.order_bound, lo=-1.0, hi=1.0)
            x = rng.uniform(-1, 1)
            # coupling -> basis matches the closed-form basis family
            assert close(basis_from_coupling(fam, x, inputs), bf.component(x, inputs))
            # basis -> coupling matches the closed-form coupling family
            assert close(coupling_from_basis(bf, x, inputs), fam.component(x, inputs))
            # full round trips land back where they started
            assert close(generic_bf.component(x, inputs), bf.component(x, inputs))
            assert close(
                basis_from_coupling(derived_fam, x, inputs), bf.component(x, inputs)
            )


def test_multiplicity_transforms_match_expansion():
    rng = random.Random(8)
    for _ in range(15):
        coeffs = random_polynomial_coeffs(rng, bound=(3, 3))
        oracle = build_polynomial_multi(coeffs, n_types=2)
        fam = CouplingFamily.from_polynomial(oracle)
        bf = BasisFamily.polynomial(coeffs, n_types=2)
        for _ in range(8):
            inputs = random_inputs_within(rng, (2, 2), max_per_type=2, lo=-1.0, hi=1.0)
            if not inputs:
                continue
            m = tuple(rng.randint(0, 2) for _ in inputs)
            point = MultiplicityPoint(rng.uniform(-1, 1), inputs, m)
            expanded = expand(m, inputs)
            assert close(
                coupling_from_basis_multi(bf, point), fam.component(point.x, expanded)
            )
            assert close(
                basis_from_coupling_multi(fam, point),
                basis_from_coupling(fam, point.x, expanded),
            )


def test_multiplicity_point_reductions():
    fam, bf = power_family(3)
    inputs = (NI(1, 0.5, 1.5), NI(1, -1.0, 0.5))
    ones_point = MultiplicityPoint(0.0, inputs, (1, 1))
    assert close(coupling_from_basis_multi(bf, ones_point), coupling_from_basis(bf, 0.0, inputs))
    assert close(
        basis_from_coupling_multi(fam, ones_point), basis_from_coupling(fam, 0.0, inputs)
    )
    zero_point = MultiplicityPoint(0.25, inputs, (0, 0))
    assert basis_from_coupling_multi(fam, zero_point) == fam.component(0.25, ())
    assert coupling_from_basis_multi(bf, zero_point) == bf.component(0.25, ())
    with pytest.raises(ValueError):
        MultiplicityPoint(0.0, inputs, (1,))


def test_oracle_from_basis_power_and_symmetric():
    rng = random.Random(12)
    _, bf = power_family(3)
    oracle = build_polynomial_single({3: 1})
    sym_oracle = build_symmetric_power(3, 2)
    sym_bf = BasisFamily.symmetric_power(3, 2)
    only_f0 = BasisFamily.polynomial({}, n_types=1, f0=lambda x: 2.0 * x)
    for _ in range(100):
        inputs = tuple(
            NI(1, rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(0, 4))
        )
        x = rng.uniform(-1, 1)
        assert close(oracle_from_basis(bf, x, inputs), oracle.evaluate(x, inputs))
        assert close(oracle_from_basis(sym_bf, x, inputs), sym_oracle.evaluate(x, inputs))
        assert oracle_from_basis(only_f0, x, inputs) == 2.0 * x


def test_direct_basis_formula_matches_transform():
    rng = random.Random(14)
    p2 = build_polynomial_single({2: 1})
    fam = CouplingFamily.from_polynomial(p2)
    for _ in range(60):
        size = rng.randint(0, 2)
        inputs = tuple(NI(1, rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(size))
        x = rng.uniform(-1, 1)
        want = basis_from_coupling(fam, x, inputs)
        assert close(basis_from_oracle_direct(p2, (2,), x, inputs), want)
        assert close(basis_from_oracle_direct(p2, (4,), x, inputs), want)


def test_direct_basis_formula_edge_cases():
    p2 = build_polynomial_single({2: 1}, f0=lambda x: 7.0 * x)
    # zero bound, empty neighborhood: only the empty subset contributes
    assert basis_from_oracle_direct(build_polynomial_single({}, f0=lambda x: 5.0), (0,), 1.0, ()) == 5.0
    with pytest.raises(ValueError):
        basis_from_oracle_direct(p2, (1,), 0.0, (NI(1, 1.0, 1.0), NI(1, 1.0, 1.0)))
    # more inputs than the size cap: refused before any evaluation
    with pytest.raises(SizeCapExceeded):
        basis_from_oracle_direct(p2, (21,), 0.0, tuple(NI(1, 1.0, 1.0) for _ in range(21)))
    # cross-check feature: a too-small bound is caught by bumping it
    with pytest.raises(BoundDisagreement):
        basis_from_oracle_direct(p2, (1,), 0.0, (NI(1, 1.0, 1.0),), cross_check=True)
    # while a valid bound survives the bump; the first-order basis component
    # of a pure quadratic vanishes (its degree-1 coefficient is zero)
    value = basis_from_oracle_direct(p2, (2,), 0.0, (NI(1, 1.0, 1.0),), cross_check=True)
    assert close(value, 0.0)
    mixed = build_polynomial_single({1: 1, 2: 1})
    value = basis_from_oracle_direct(mixed, (2,), 0.0, (NI(1, 1.0, 1.5),), cross_check=True)
    assert close(value, 1.5)


def test_internal_terms_agree():
    # the zero-order components agree between the two decompositions
    coeffs = {(2, 1): Fraction(1, 2)}
    oracle = build_polynomial_multi(coeffs, n_types=2, f0=lambda x: x * x)
    fam = CouplingFamily.from_polynomial(oracle)
    bf = BasisFamily.polynomial(coeffs, n_types=2, f0=oracle.f0)
    assert fam.component(1.5, ()) == bf.component(1.5, ()) == 2.25


def test_locally_maximal_components_coincide():
    rng = random.Random(18)
    from ccndecomp.coupling import locally_maximal_orders

    for _ in range(10):
        coeffs = random_polynomial_coeffs(rng, bound=(3, 3))
        oracle = build_polynomial_multi(coeffs, n_types=2)
        fam = CouplingFamily.from_polynomial(oracle)
        bf = BasisFamily.polynomial(coeffs, n_types=2)
        for k in locally_maximal_orders(fam):
            for _ in range(5):
                inputs = []
                for j, count in enumerate(k):
                    inputs.extend(
                        NI(j + 1, rng.uniform(-1, 1), rng.uniform(-1, 1))
                        for _ in range(count)
                    )
                inputs = tuple(inputs)
                x = rng.uniform(-1, 1)
                assert close(fam.component(x, inputs), bf.component(x, inputs)), k


def test_basis_linearity():
    rng = random.Random(20)
    f_coeffs = {(2,): Fraction(1)}
    g_coeffs = {(1,): Fraction(1, 2), (3,): Fraction(-1, 3)}
    alpha = 2.5
    combined = {
        k: alpha * f_coeffs.get(k, 0) + g_coeffs.get(k, 0)
        for k in set(f_coeffs) | set(g_coeffs)
    }
    bf_f = BasisFamily.polynomial(f_coeffs)
    bf_g = BasisFamily.polynomial(g_coeffs)
    bf_h = BasisFamily.polynomial(combined)
    fam_h = CouplingFamily.from_polynomial(build_polynomial_multi({
        tuple(k): v for k, v in combined.items()
    }, n_types=1))
    for _ in range(50):
        inputs = tuple(
            NI(1, rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(0, 3))
        )
        x = rng.uniform(-1, 1)
        want = alpha * bf_f.component(x, inputs) + bf_g.component(x, inputs)
        assert close(bf_h.component(x, inputs), want)
        assert close(basis_from_coupling(fam_h, x, inputs), want)


def test_basis_family_check_passes_and_fails():
    add = make_additive_real()
    good = BasisFamily.polynomial({(3,): 1})
    assert basis_family_check(good, [add], trials=400, seed=0).ok

    def non_additive(x, inputs):
        if len(inputs) != 1:
            return 0.0
        return (inputs[0].weight * inputs[0].state) ** 2

    bad = BasisFamily(1, 1, (1,), non_additive)
    report = basis_family_check(bad, [add], trials=400, seed=0)
    assert not report.checks["weight_additivity"]
    assert any(c["property"] == "weight_additivity" for c in report.counterexamples)


def test_basis_zero_weight_annihilates():
    bf = BasisFamily.polynomial({(2,): 1})
    assert bf.component(0.0, (NI(1, 0.0, 1.0), NI(1, 1.0, 1.0))) == 0.0
    sym = BasisFamily.symmetric_power(2, 1)
    assert sym.component(0.0, (NI(1, 0.0, 1.0), NI(1, 1.0, 1.0))) == 0.0


def test_merge_expansion_identities_for_multiplicities():
    # binomial expansion of a merged weight inside a basis component, and
    # the trinomial expansion inside a coupling component
    rng = random.Random(22)
    coeffs = {(4,): Fraction(1), (2,): Fraction(1, 2)}
    fam = CouplingFamily.from_polynomial(build_polynomial_single({4: 1, 2: Fraction(1, 2)}))
    bf = BasisFamily.polynomial(coeffs)
    for _ in range(40):
        rest = tuple(
            NI(1, rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(0, 1))
        )
        rest_m = tuple(rng.randint(1, 2) for _ in rest)
        w1, w2, x12 = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)
        x = rng.uniform(-1, 1)
        for m12 in range(0, 5):
            merged_inputs = (NI(1, w1 + w2, x12),) + rest
            merged_point = MultiplicityPoint(x, merged_inputs, (m12,) + rest_m)
            split_base = (NI(1, w1, x12), NI(1, w2, x12)) + rest

            lhs = bf.component(x, expand((m12,) + rest_m, merged_inputs))
            rhs = 0.0
            for m1 in range(m12 + 1):
                m2 = m12 - m1
                rhs += math.comb(m12, m1) * bf.component(
                    x, expand((m1, m2) + rest_m, split_base)
                )
            assert close(lhs, rhs), ("basis", m12)

            lhs = fam.component(x, expand((m12,) + rest_m, merged_inputs))
            rhs = 0.0
            for m1 in range(m12 + 1):
                for m2 in range(m12 + 1):
                    if m1 + m2 < m12:
                        continue
                    b = (
                        math.factorial(m12)
                        // math.factorial(m12 - m1)
                        // math.factorial(m12 - m2)
                        // math.factorial(m1 + m2 - m12)
                    )
                    rhs += b * fam.component(x, expand((m1, m2) + rest_m, split_base))
            assert close(lhs, rhs), ("coupling", m12)


def test_truncation_sequence_exponential_and_sine():
    rng = random.Random(25)
    points = []
    for _ in range(60):
        size = rng.randint(1, 2)
        points.append(
            (
                rng.uniform(-1, 1),
                tuple(NI(1, rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(size)),
            )
        )

    def exp_gen(n_max):
        return BasisFamily.polynomial(
            {(n,): Fraction(1, math.factorial(n)) for n in range(1, n_max + 1)}
        )

    exp_limit = lambda x, inputs: math.expm1(math.fsum(e.weight * e.state for e in inputs))
    report = truncation_sequence(exp_gen, 12, points, exp_limit)
    assert report.limit_errors[12] < 1e-6
    assert report.successive[12] < report.successive[2]

    def sine_gen(n_max):
        coeffs = {}
        for n in range(1, n_max + 1, 2):
            coeffs[(n,)] = Fraction((-1) ** ((n - 1) // 2), math.factorial(n))
        return BasisFamily.polynomial(coeffs)

    sine_limit = lambda x, inputs: math.sin(math.fsum(e.weight * e.state for e in inputs))
    report = truncation_sequence(sine_gen, 13, points, sine_limit)
    assert report.limit_errors[13] < 1e-5

    constant_gen = lambda n: BasisFamily.polynomial({(1,): 1})
    report = truncation_sequence(constant_gen, 5, points)
    assert all(v == 0.0 for v in report.successive.values())


def test_elementary_symmetric():
    assert elementary_symmetric([1.0, 2.0, 3.0], 0) == 1.0
    assert elementary_symmetric([1.0, 2.0, 3.0], 1) == 6.0
    assert elementary_symmetric([1.0, 2.0, 3.0], 2) == 11.0
    assert elementary_symmetric([1.0, 2.0, 3.0], 3) == 6.0
    assert elementary_symmetric([1.0], 2) == 0.0


def dyadic_point(rng, n_types, per_type):
    """Random dyadic neighborhood with up to ``per_type[j]`` inputs of type
    j + 1, shuffled across types."""
    inputs = [NI(j + 1, sample_dyadic(rng, -1.0, 1.0), sample_dyadic(rng, -1.0, 1.0))
              for j in range(n_types) for _ in range(rng.randint(0, per_type[j]))]
    rng.shuffle(inputs)
    return sample_dyadic(rng, -1.0, 1.0), tuple(inputs)


TRANSFORM_CASES = [
    ("one_type", {(1,): Fraction(1, 2), (2,): Fraction(-1, 3), (4,): Fraction(1, 7)}, 1),
    ("two_types", {(1, 0): Fraction(1, 2), (1, 1): Fraction(3, 8), (3, 1): Fraction(-1, 3),
                   (0, 2): Fraction(5, 7), (2, 3): Fraction(1, 16)}, 2),
]


@pytest.mark.parametrize("coeffs,n_types", [c[1:] for c in TRANSFORM_CASES],
                         ids=[c[0] for c in TRANSFORM_CASES])
def test_transforms_bit_equal_to_fraction_reference(coeffs, n_types):
    oracle = build_polynomial_multi(coeffs, n_types=n_types, f0=lambda x: 0.75 - x)
    fam = CouplingFamily.from_polynomial(oracle)
    bf = BasisFamily.polynomial(coeffs, n_types=n_types, f0=oracle.f0)
    bound = bf.support_bound
    rng = random.Random(n_types)
    for n in range(5):
        for _ in range(6):
            types = [rng.randint(1, n_types) for _ in range(n)]
            inputs = tuple(NI(t, rng.uniform(-1, 1), rng.uniform(-1, 1)) for t in types)
            x = rng.uniform(-1, 1)
            m = tuple(rng.randint(0, 2) for _ in inputs)  # zeros included
            point = MultiplicityPoint(x, inputs, m)
            cases = [
                (basis_from_coupling_multi(fam, point), "first", fam.component, m),
                (coupling_from_basis_multi(bf, point), "second", bf.component, m),
                (basis_from_coupling(fam, x, inputs), "first", fam.component, (1,) * n),
                (coupling_from_basis(bf, x, inputs), "second", bf.component, (1,) * n),
                (oracle_from_basis(bf, x, inputs), "whole", bf.component, (0,) * n),
            ]
            for got, kind, component, lows in cases:
                want = reference_expansion_sum(kind, component, bound, x, inputs, lows)
                assert got.hex() == want.hex(), (kind, inputs, lows, got, want)


def test_unit_multiplicity_forms_are_the_plain_transforms():
    rng = random.Random(40)
    for _ in range(300):
        coeffs = random_polynomial_coeffs(rng, bound=(3, 3))
        fam = CouplingFamily.from_polynomial(build_polynomial_multi(coeffs, n_types=2))
        bf = BasisFamily.polynomial(coeffs, n_types=2)
        x, inputs = dyadic_point(rng, 2, bf.support_bound)
        point = MultiplicityPoint(x, inputs, (1,) * len(inputs))
        assert coupling_from_basis(bf, x, inputs) == coupling_from_basis_multi(bf, point)
        assert basis_from_coupling(fam, x, inputs) == basis_from_coupling_multi(fam, point)


def test_cached_expansion_table_matches_fresh_enumeration():
    kernels = {"first": _first_kind, "second": _second_kind, "whole": _reconstruction}
    for types, m, n_types, bound in [((), (), 1, (3,)), ((1, 1), (1, 2), 1, (4,)),
                                     ((2, 1, 2), (0, 1, 2), 2, (2, 3)),
                                     ((1, 2, 1), (0, 0, 0), 2, (2, 2))]:
        for kind, kernel in kernels.items():
            if kind == "whole":
                m = (0,) * len(types)
            key = (types, m, n_types, bound, kernel)
            cached = _expansion_table(*key)
            assert _expansion_table(*key) is cached
            assert _expansion_table.__wrapped__(*key) == cached
            expansions, numerators, denominator = cached
            inputs = tuple(NI(t, 1.0, 1.0) for t in types)
            fresh = {}
            for big_m in product(*(range(a, bound[t - 1] + 1) for a, t in zip(m, types))):
                weight = math.prod((reference_entry_weight(kind, a, b) for a, b in zip(m, big_m)),
                                   start=Fraction(1))
                counts = type_multiindex(expand(big_m, inputs), n_types)
                if weight and all(c <= b for c, b in zip(counts, bound)):
                    fresh[big_m] = weight
            assert sorted(expansions) == sorted(fresh)
            assert len(set(expansions)) == len(expansions)
            for big_m, numerator in zip(expansions, numerators):
                assert Fraction(numerator, denominator) == fresh[big_m]


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


def test_transform_with_infinite_evaluation_keeps_float_semantics():
    def component(x, inputs):
        return math.inf if len(inputs) == 3 else 1.0

    bf = BasisFamily(1, 1, (3,), component)
    inputs = (NI(1, 1.0, 1.0),)
    assert oracle_from_basis(bf, 0.0, inputs) == math.inf
    assert coupling_from_basis(bf, 0.0, inputs) == math.inf
