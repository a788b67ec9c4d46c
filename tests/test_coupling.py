import json
import math
import random
from fractions import Fraction

import pytest

from ccndecomp.coupling import (
    CouplingFamily,
    SizeCapExceeded,
    coupling_components,
    coupling_eval_explicit,
    coupling_family_check,
    locally_maximal_orders,
    recompose,
    subsets,
)
from ccndecomp.cli import _decompose_point, main
from ccndecomp.monoid import make_additive_real, make_bool_or
from ccndecomp.multiindex import iter_multiindices, ones, zero_pattern
from ccndecomp.oracle import (
    BlackBoxOracle,
    NeighborInput,
    OracleComponent,
    build_exponential,
    build_nested,
    build_polynomial_multi,
    build_polynomial_single,
    type_multiindex,
    zero_f0,
)
from helpers import (
    coupling_eval_recursive,
    finite_order_oracles,
    random_inputs,
    reference_closed_form_component,
    reference_coupling_support,
    reference_subsets,
    shipped_oracles,
)

NI = NeighborInput


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def power_n_closed_form(n, x, inputs):
    """Independent closed form: n! * sum over m >= 1, |m| = n of
    prod (w_c x_c)^(m_c) / m_c!."""
    k = len(inputs)
    total = 0.0
    for m in iter_multiindices(k, ones(k), norm_equals=n):
        piece = 1.0
        for e, exp in zip(inputs, m):
            piece *= (e.weight * e.state) ** exp / math.factorial(exp)
        total += piece
    return math.factorial(n) * total


def test_quadratic_component_values():
    p2 = build_polynomial_single({2: 1})
    assert coupling_eval_explicit(p2, 0.0, (NI(1, 1.0, 2.0),)) == 4.0
    got = coupling_eval_explicit(p2, 0.0, (NI(1, 1.0, 2.0), NI(1, 3.0, 1.0)))
    assert close(got, 12.0)
    third = coupling_eval_explicit(
        p2, 0.0, (NI(1, 1.0, 2.0), NI(1, 3.0, 1.0), NI(1, 0.5, -1.0))
    )
    assert close(third, 0.0)


def test_empty_neighborhood_is_internal_term():
    p2 = build_polynomial_single({2: 1}, f0=lambda x: 3.0 * x)
    assert coupling_eval_explicit(p2, 2.0, ()) == 6.0
    assert coupling_eval_recursive(p2, 2.0, ()) == 6.0


def test_recursive_matches_explicit_on_random_pairs():
    rng = random.Random(11)
    oracles = [o for _, o, _ in shipped_oracles()]
    checked = 0
    while checked < 500:
        oracle = oracles[rng.randrange(len(oracles))]
        inputs = random_inputs(rng, oracle.n_types, max_per_type=2, lo=-1.0, hi=1.0)
        x = rng.uniform(-1, 1)
        a = coupling_eval_explicit(oracle, x, inputs)
        b = coupling_eval_recursive(oracle, x, inputs)
        assert close(a, b), (oracle, inputs)
        checked += 1


def test_exponential_component_is_expm1_product():
    exp = build_exponential(None)
    rng = random.Random(4)
    for _ in range(100):
        inputs = tuple(
            NI(1, rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(1, 5))
        )
        got = coupling_eval_explicit(exp, 0.0, inputs)
        want = math.prod(math.expm1(e.weight * e.state) for e in inputs)
        assert close(got, want)


def test_power_n_closed_form_matches_subset_sums():
    rng = random.Random(9)
    for n in range(1, 6):
        oracle = build_polynomial_single({n: 1})
        for size in range(0, 6):
            inputs = tuple(
                NI(1, rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(size)
            )
            got = coupling_eval_explicit(oracle, 0.0, inputs)
            want = power_n_closed_form(n, 0.0, inputs) if size else 0.0
            assert close(got, want), (n, size)


def test_recompose_example_and_round_trip():
    p2 = build_polynomial_single({2: 1}, f0=lambda x: 2.0 * x)
    assert recompose(p2, 1.5, ()) == 3.0  # empty neighborhood: internal term
    p2 = build_polynomial_single({2: 1})
    inputs = (NI(1, 1.0, 2.0), NI(1, 3.0, 1.0))
    assert close(recompose(p2, 0.0, inputs), 25.0)
    rng = random.Random(21)
    exp = build_exponential(None)
    for _ in range(50):
        inputs = tuple(
            NI(1, rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(0, 3))
        )
        x = rng.uniform(-1, 1)
        assert close(recompose(exp, x, inputs), exp.evaluate(x, inputs))


def test_closed_form_family_matches_subset_sums():
    rng = random.Random(13)
    oracle = build_polynomial_multi({(1, 2): Fraction(1, 2), (2, 0): 1}, n_types=2)
    family = CouplingFamily.from_polynomial(oracle)
    for _ in range(150):
        inputs = random_inputs(rng, 2, max_per_type=2, lo=-1.0, hi=1.0)
        x = rng.uniform(-1, 1)
        assert close(
            family.component(x, inputs), coupling_eval_explicit(oracle, x, inputs)
        )


def test_size_caps():
    p2 = build_polynomial_single({2: 1})
    big = tuple(NI(1, 1.0, 1.0) for _ in range(21))
    with pytest.raises(SizeCapExceeded):
        coupling_eval_explicit(p2, 0.0, big)
    with pytest.raises(SizeCapExceeded):
        recompose(p2, 0.0, big[:13])


def test_family_check_passes_for_derived_families():
    add = make_additive_real()
    p3 = build_polynomial_single({3: 1})
    family = CouplingFamily.from_oracle(p3)
    report = coupling_family_check(family, [add], trials=400, seed=0)
    assert report.ok, report.counterexamples[:1]


def test_merge_expansion_witness_for_quadratic():
    # f1(w1 + w2 at a shared state) splits into the two first-order terms
    # plus the pair term
    p2 = build_polynomial_single({2: 1})
    family = CouplingFamily.from_polynomial(p2)
    w1, w2, x12 = 0.75, -0.5, 1.25
    lhs = family.component(0.0, (NI(1, w1 + w2, x12),))
    rhs = (
        family.component(0.0, (NI(1, w1, x12),))
        + family.component(0.0, (NI(1, w2, x12),))
        + family.component(0.0, (NI(1, w1, x12), NI(1, w2, x12)))
    )
    assert close(lhs, rhs)
    assert close(lhs, ((w1 + w2) * x12) ** 2)


def test_family_check_catches_zero_kill_violation():
    def bad_component(x, inputs):
        return math.fsum(e.state for e in inputs)  # ignores weights entirely

    family = CouplingFamily(1, 1, bad_component, order_bound=(1,))
    report = coupling_family_check(family, [make_additive_real()], trials=300, seed=0)
    assert not report.checks["zero_kill"]
    assert any(c["property"] == "zero_kill" for c in report.counterexamples)


def test_annihilator_excludes_finite_positive_order():
    # Under OR weights, a family claiming order 1 must fail the merge
    # expansion: merging two annihilator weights collapses to one term.
    def comp(x, inputs):
        k = type_multiindex(inputs, 1)
        if k == (0,):
            return 0.0
        if k == (1,):
            return inputs[0].state if inputs[0].weight else 0.0
        return 0.0

    family = CouplingFamily(1, 1, comp, order_bound=(1,))
    report = coupling_family_check(family, [make_bool_or()], trials=300, seed=0)
    assert not report.checks["merge_expansion"]
    witness = next(c for c in report.counterexamples if c["property"] == "merge_expansion")
    assert witness["lhs"] != witness["rhs"]


def test_linearity_of_components():
    f = build_polynomial_single({2: 1})
    g = build_polynomial_single({1: 1, 3: Fraction(1, 2)})
    alpha = -1.5
    combined = BlackBoxOracle(
        1, 1, zero_f0, lambda x, inputs: alpha * f.evaluate(x, inputs) + g.evaluate(x, inputs)
    )
    rng = random.Random(17)
    for _ in range(100):
        inputs = random_inputs(rng, 1, max_per_type=3, lo=-1.0, hi=1.0)
        x = rng.uniform(-1, 1)
        lhs = coupling_eval_explicit(combined, x, inputs)
        rhs = alpha * coupling_eval_explicit(f, x, inputs) + coupling_eval_explicit(g, x, inputs)
        assert close(lhs, rhs)


def test_zero_weight_kills_components():
    rng = random.Random(23)
    p3 = build_polynomial_single({3: 1})
    exp = build_exponential(None)
    for _ in range(100):
        inputs = random_inputs(rng, 1, max_per_type=3, lo=-1.0, hi=1.0)
        victim = (NI(1, 0.0, rng.uniform(-1, 1)),) + inputs
        assert coupling_eval_explicit(p3, 0.0, victim) == 0.0  # exact for structured
        assert abs(coupling_eval_explicit(exp, 0.0, victim)) <= 1e-12


def test_top_order_component_is_weight_additive():
    # At the highest order the next component vanishes, so the merge
    # expansion degenerates to plain additivity in the weight coordinate.
    rng = random.Random(29)
    n = 4
    family = CouplingFamily.from_polynomial(build_polynomial_single({n: 1}))
    for _ in range(100):
        rest = tuple(NI(1, rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n - 1))
        w1, w2, x12 = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)
        lhs = family.component(0.0, (NI(1, w1 + w2, x12),) + rest)
        rhs = family.component(0.0, (NI(1, w1, x12),) + rest) + family.component(
            0.0, (NI(1, w2, x12),) + rest
        )
        assert close(lhs, rhs)


def test_coupling_order_structured():
    for n in (1, 2, 5):
        assert build_polynomial_single({n: 1}).order_bound == (n,)
    assert build_polynomial_single({1: Fraction(1, 2)}).order_bound == (1,)
    mixed = build_polynomial_multi({(1, 2): 1, (2, 1): 1}, n_types=2)
    assert mixed.order_bound == (2, 2)
    assert build_exponential(None).order_bound is None


def test_locally_maximal_orders():
    assert locally_maximal_orders(build_polynomial_single({5: 1}).coeffs) == {(5,)}
    assert locally_maximal_orders({(2, 0): 1, (0, 3): 1}) == {(2, 0), (0, 3)}
    assert locally_maximal_orders({(1, 1): 1, (2, 1): 1, (1, 3): 1}) == {(2, 1), (1, 3)}
    assert locally_maximal_orders({}) == set()


def test_polynomial_coupling_support():
    support = reference_coupling_support([(2, 0), (1, 1)])
    assert (1, 0) in support and (2, 0) in support
    assert (1, 1) in support and (0, 0) in support
    assert (0, 1) not in support  # no key with that zero pattern
    assert (2, 1) not in support


def _random_coeff_map(rng):
    n_types = rng.randint(1, 3)
    top = 2 if n_types == 3 else 3
    keys = {tuple(rng.randint(0, top) for _ in range(n_types)) for _ in range(rng.randint(0, 4))}
    return n_types, {k: Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)) for k in keys if any(k)}


def test_order_fields_are_the_maxima_of_the_coupling_support():
    """decompose reads its two order fields off the coefficient keys; they
    equal the maxima over the enumerated support of the nonzero coupling
    components."""
    rng = random.Random(30)
    maps = [(n_types, {}) for n_types in (1, 2, 3)]
    maps += [_random_coeff_map(rng) for _ in range(1200)]
    for n_types, coeffs in maps:
        oracle = build_polynomial_multi(coeffs, n_types=n_types)
        support = reference_coupling_support(oracle.coeffs)
        order = tuple(max((k[j] for k in support), default=0) for j in range(n_types))
        assert oracle.order_bound == order, coeffs
        nonzero = [k for k in support if any(k)]
        maximal = {k for k in nonzero
                   if not any(o != k and zero_pattern(o) == zero_pattern(k)
                              and all(a <= b for a, b in zip(k, o)) for o in nonzero)}
        assert locally_maximal_orders(oracle.coeffs) == maximal, coeffs


def test_truncated_exponential_components_converge_to_product_form():
    rng = random.Random(31)
    points = []
    for _ in range(100):
        size = rng.randint(1, 2)
        points.append(
            (tuple(NI(1, rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(size)))
        )
    worst = 0.0
    family = CouplingFamily.from_polynomial(build_exponential(12))
    for inputs in points:
        got = family.component(0.0, inputs)
        want = math.prod(math.expm1(e.weight * e.state) for e in inputs)
        worst = max(worst, abs(got - want))
    assert worst < 1e-6, worst


# --- all components of a point at once --------------------------------------

def near_cancelling_point(rng, n, n_types):
    """Dyadic inputs in +/- pairs with small dyadic offsets, so the subset
    sums cancel to a few ulps and the transform has to be exact."""
    inputs = []
    for i in range(n):
        magnitude = rng.randint(1, 64) / 32
        sign = 1 if i % 2 == 0 else -1
        state = sign * magnitude + rng.choice((0.0, 2.0 ** -40, -(2.0 ** -44)))
        inputs.append(NI(i % n_types + 1, rng.randint(1, 8) / 4, state))
    rng.shuffle(inputs)
    return rng.randint(-16, 16) / 8, tuple(inputs)


def same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def outcome(fn):
    """A call's value, or the type of the arithmetic error it raised."""
    try:
        return fn()
    except (ValueError, OverflowError) as exc:
        return type(exc)


def same_outcome(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return same_float(a, b) or (math.isnan(a) and math.isnan(b))
    return a == b


COMPONENT_ORACLES = [
    ("polynomial_multi", build_polynomial_multi(
        {(1, 0): Fraction(1, 2), (1, 1): Fraction(3, 8), (2, 1): Fraction(-1, 8),
         (2, 2): Fraction(1, 16), (3, 3): Fraction(1, 32), (0, 3): Fraction(-1, 8)},
        n_types=2)),
    ("nested", build_nested([1, Fraction(1, 2), Fraction(1, 4)], [[1], [Fraction(-1, 2)]])),
    ("exponential", build_exponential(None)),
]


@pytest.mark.parametrize("name,oracle", COMPONENT_ORACLES, ids=[n for n, _ in COMPONENT_ORACLES])
def test_coupling_components_bit_identical_to_explicit(name, oracle):
    rng = random.Random(name)
    for n in range(10):
        for _ in range(2 if n < 9 else 1):
            x, inputs = near_cancelling_point(rng, n, oracle.n_types)
            got = coupling_components(oracle, x, inputs)
            assert len(got) == 1 << n
            for mask, value in enumerate(got):
                subset = tuple(inputs[i] for i in range(n) if mask >> i & 1)
                want = coupling_eval_explicit(oracle, x, subset)
                assert same_float(value, want), (n, mask, value, want)


def blackbox(fn):
    return BlackBoxOracle(1, 1, zero_f0, fn, "test")


NON_FINITE = [
    ("inf_on_pairs", lambda x, s: math.inf if len(s) >= 2 else math.fsum(e.state for e in s)),
    ("inf_on_full_set", lambda x, s: math.inf if len(s) == 4 else float(len(s))),
    ("mixed_signs", lambda x, s: math.copysign(math.inf, math.fsum(e.state for e in s))
        if len(s) >= 2 else 1.0),
    ("nan", lambda x, s: math.nan if len(s) == 3 else 0.5),
    ("huge_finite", lambda x, s: 1.5e308 if len(s) % 2 else -1.5e308),
    # fsum overflows in a partial sum from two inputs on; every component is +-1e308
    ("cancelling_huge", lambda x, s: 1e308 if s else 0.0),
]


@pytest.mark.parametrize("fn", [f for _, f in NON_FINITE], ids=[n for n, _ in NON_FINITE])
def test_coupling_components_non_finite_matches_explicit(fn):
    oracle = blackbox(fn)
    inputs = (NI(1, 1.0, 0.5), NI(1, 1.0, -0.75), NI(1, 2.0, 1.25), NI(1, 0.5, -2.0))
    expected = [outcome(lambda s=s: coupling_eval_explicit(oracle, 0.0, s))
                for s in (tuple(inputs[i] for i in range(4) if m >> i & 1) for m in range(16))]
    errors = [e for e in expected if isinstance(e, type)]
    if errors:
        assert outcome(lambda: coupling_components(oracle, 0.0, inputs)) == errors[0]
    else:
        got = coupling_components(oracle, 0.0, inputs)
        assert all(same_outcome(a, b) for a, b in zip(got, expected)), (got, expected)


def test_decompose_point_whose_partial_sums_overflow(tmp_path):
    # The k=(2) component is 0 + 4.25e307 + 1.7e308 - 4.25e307: exactly 1.7e308,
    # though the running sum passes the float range at the third term.
    oracle_file, points_file, out = tmp_path / "o.json", tmp_path / "p.json", tmp_path / "r.json"
    oracle_file.write_text(json.dumps({"family": "polynomial",
                                       "params": {"coeffs": {"2": "-1.7e308"}}}))
    points_file.write_text(json.dumps({"points": [{"x": 0.0, "neighborhood": [
        {"type": 1, "weight": 1, "state": 0.5}, {"type": 1, "weight": 1, "state": -1.0}]}]}))
    assert main(["decompose", str(oracle_file), "--points", str(points_file),
                 "--out", str(out)]) == 0
    point = json.loads(out.read_text())["points"][0]
    oracle = build_polynomial_single({2: Fraction("-1.7e308")})
    family = CouplingFamily.from_polynomial(oracle)
    inputs = (NI(1, 1.0, 0.5), NI(1, 1.0, -1.0))
    want = []
    for subset in reference_subsets(inputs)[1:]:
        exact = sum((Fraction(oracle.evaluate(0.0, sub)) * (-1) ** (len(subset) - len(sub))
                     for sub in reference_subsets(subset)), Fraction(0))
        assert family.component(0.0, subset) == float(exact)
        want.append(float(exact))
    assert point["components"] == [{"k": [1], "values": want[:2]}, {"k": [2], "values": [1.7e308]}]
    assert want[2] == 1.7e308


def test_coupling_components_recompose_and_cap():
    exp = build_exponential(None)
    inputs = (NI(1, 0.5, 1.0), NI(1, -0.25, 2.0), NI(1, 1.0, -0.5))
    assert recompose(exp, 0.25, inputs) == math.fsum(coupling_components(exp, 0.25, inputs))
    with pytest.raises(SizeCapExceeded):
        coupling_components(exp, 0.0, tuple(NI(1, 1.0, 1.0) for _ in range(21)))


class CountingOracle(OracleComponent):
    def __init__(self, inner):
        self.inner = inner
        self.target_type, self.n_types, self.f0 = inner.target_type, inner.n_types, inner.f0
        self.calls = 0

    def evaluate(self, x, inputs):
        self.calls += 1
        return self.inner.evaluate(x, inputs)


@pytest.mark.parametrize("n", [0, 1, 6, 9])
def test_coupling_point_costs_two_to_the_n_evaluations(n):
    oracle = CountingOracle(COMPONENT_ORACLES[0][1])
    x, inputs = near_cancelling_point(random.Random(n), n, 2)
    point = _decompose_point(oracle, x, inputs, "coupling", None)
    assert oracle.calls == 1 << n
    assert point["internal"] == oracle.inner.evaluate(x, ())


def test_basis_point_evaluates_each_multiplicity_vector_once():
    inner = COMPONENT_ORACLES[0][1]
    oracle = CountingOracle(inner)
    x, inputs = near_cancelling_point(random.Random(3), 6, 2)
    bound = (4, 4)
    point = _decompose_point(oracle, x, inputs, "basis", bound)
    # vectors of 3 entries per type with sum <= 4: C(3 + 4, 3) each
    assert oracle.calls <= math.comb(7, 3) ** 2 == 1225
    unmemoized = _decompose_point(inner, x, inputs, "basis", bound)
    assert point == unmemoized


CLOSED_FORM_ORACLES = [(name, oracle) for name, oracle, _ in finite_order_oracles()] + [
    ("poly_multi_bench", build_polynomial_multi(
        {(1, 0): Fraction(1, 2), (0, 1): Fraction(-1, 4), (1, 1): Fraction(3, 8),
         (2, 1): Fraction(1, 8), (1, 2): Fraction(-1, 8), (2, 2): Fraction(1, 16),
         (3, 1): Fraction(1, 8), (0, 3): Fraction(-1, 8), (3, 3): Fraction(1, 32)},
        n_types=2)),
    ("nested_bench", build_nested([1, Fraction(1, 2), Fraction(1, 4)], [[1], [Fraction(-1, 2)]])),
    ("poly_three_types", build_polynomial_multi(
        {(1, 0, 0): Fraction(2, 3), (0, 2, 1): Fraction(-1, 2), (1, 1, 1): Fraction(5, 7),
         (2, 0, 3): Fraction(1, 9), (3, 2, 1): Fraction(-3, 16)},
        n_types=3)),
]


def closed_form_point(rng, n_types):
    """Random neighborhood with 0-4 inputs per type (so empty types and more
    inputs than a key's order both occur) and some zero weights of either
    sign."""
    entries = []
    for j in range(n_types):
        for _ in range(rng.randint(0, 4)):
            weight = rng.choice((0.0, -0.0)) if rng.random() < 0.15 else rng.uniform(-1.5, 1.5)
            entries.append(NI(j + 1, weight, rng.choice((rng.uniform(-1.5, 1.5), 0.0, -0.0))))
    rng.shuffle(entries)
    return rng.uniform(-1.0, 1.0), tuple(entries)


@pytest.mark.parametrize("name,oracle", CLOSED_FORM_ORACLES,
                         ids=[n for n, _ in CLOSED_FORM_ORACLES])
def test_closed_form_component_bit_identical_to_reference(name, oracle):
    family = CouplingFamily.from_polynomial(oracle)
    reference = reference_closed_form_component(oracle)
    rng = random.Random(name)
    for _ in range(400):
        x, inputs = closed_form_point(rng, oracle.n_types)
        got, want = family.component(x, inputs), reference(x, inputs)
        assert same_float(got, want), (inputs, got, want)


def test_subsets_match_mask_comprehension():
    for n in range(11):
        inputs = tuple(NI(1 + i % 2, float(i), -float(i)) for i in range(n))
        assert list(subsets(inputs)) == reference_subsets(inputs)
        assert list(subsets(list(inputs))) == reference_subsets(inputs)


def test_closed_form_zero_factor_ends_the_product_before_an_overflowing_one():
    # The type-1 factor is 0; the type-2 factor would overflow to inf, and
    # 0 * inf would turn the term into nan.
    oracle = build_polynomial_multi({(1, 0): Fraction(1), (1, 3): Fraction(1, 2)}, n_types=2)
    inputs = (NI(1, 0.0, 1.0),) + (NI(2, 1e110, 1.0),) * 3
    family = CouplingFamily.from_polynomial(oracle)
    got = family.component(0.5, inputs)
    assert same_float(got, reference_closed_form_component(oracle)(0.5, inputs))
    assert same_float(got, 0.0)
