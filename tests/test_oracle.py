import json
import math
import random
from fractions import Fraction

import pytest

from ccndecomp.monoid import make_additive_real
from ccndecomp.oracle import (
    NeighborInput,
    SpecFormatError,
    admissibility_check,
    build_exponential,
    build_nested,
    build_polynomial_multi,
    build_polynomial_single,
    build_symmetric_power,
    oracle_spec_from_json,
    oracle_specs_from_json,
    parse_f0,
    type_multiindex,
)
from helpers import (
    broken_merge_oracle,
    broken_permutation_oracle,
    broken_zero_oracle,
    checker_golden_reports,
    random_inputs,
    shipped_oracles,
)

NI = NeighborInput


def test_eval_examples():
    p2 = build_polynomial_single({2: 1})
    assert p2.evaluate(0.5, ()) == 0.0  # f0 is zero
    assert p2.evaluate(0.0, (NI(1, 1.0, 2.0),)) == 4.0
    assert p2.evaluate(0.0, (NI(1, 1.0, 2.0), NI(1, 3.0, 1.0))) == 25.0


def test_f0_is_returned_on_empty_inputs():
    o = build_polynomial_single({2: 1}, f0=parse_f0("linear:2.5"))
    assert o.evaluate(2.0, ()) == 5.0
    e = build_exponential(None, f0=parse_f0("linear:-1"))
    assert e.evaluate(3.0, ()) == -3.0


def test_polynomial_zero_degree_rejected():
    with pytest.raises(ValueError):
        build_polynomial_single({0: 1})
    with pytest.raises(ValueError):
        build_polynomial_multi({(0, 0): 1}, n_types=2)


def test_polynomial_multi_mixed_term():
    o = build_polynomial_multi({(1, 1): 1}, n_types=2)
    inputs = (NI(1, 2.0, 1.0), NI(2, 1.0, 3.0))
    assert o.evaluate(0.0, inputs) == (2.0 * 1.0) * (1.0 * 3.0)
    # missing type-2 inputs zero the mixed factor
    assert o.evaluate(0.0, (NI(1, 2.0, 1.0),)) == 0.0


def test_polynomial_eval_is_bit_exact_under_permutation():
    rng = random.Random(5)
    o = build_polynomial_multi({(1, 2): Fraction(1, 3), (2, 0): 2}, n_types=2)
    for _ in range(200):
        inputs = list(random_inputs(rng, 2, max_per_type=5))
        base = o.evaluate(0.25, tuple(inputs))
        rng.shuffle(inputs)
        assert o.evaluate(0.25, tuple(inputs)) == base  # exact, no tolerance


def test_exponential_builders():
    additivized = build_exponential(1)
    assert additivized.coeffs == {(1,): Fraction(1)}
    inf = build_exponential(None)
    val = inf.evaluate(0.0, (NI(1, 1.0, math.log(2.0)),))
    assert abs(val - 1.0) < 1e-12  # exp(ln 2) - 1
    # N = 3 matches the full series to fourth order
    n3 = build_exponential(3)
    for t in (0.05, -0.08, 0.1):
        approx = n3.evaluate(0.0, (NI(1, 1.0, t),))
        assert abs(approx - math.expm1(t)) <= abs(t) ** 4


def test_symmetric_power_examples():
    o = build_symmetric_power(2, 1)
    assert o.evaluate(0.0, (NI(1, 1.0, 2.0), NI(1, 1.0, 0.0))) == 4.0
    assert o.evaluate(0.7, ()) == 0.0
    power3 = build_symmetric_power(3, 3)
    rng = random.Random(2)
    plain = build_polynomial_single({3: 1})
    for _ in range(50):
        inputs = random_inputs(rng, 1)
        assert math.isclose(
            power3.evaluate(0.0, inputs), plain.evaluate(0.0, inputs), abs_tol=1e-12
        )
    with pytest.raises(ValueError):
        build_symmetric_power(2, 0)
    with pytest.raises(ValueError):
        build_symmetric_power(2, 3)


def test_nested_coefficients_match_direct_evaluation():
    outer = [Fraction(2), Fraction(1, 3)]
    inner = [[Fraction(1), Fraction(1, 2)], [Fraction(-1), Fraction(0), Fraction(1, 5)]]
    o = build_nested(outer, inner)

    def direct(x, inputs):
        s = [0.0, 0.0]
        for e in inputs:
            s[e.type_index - 1] += e.weight * e.state
        f1 = s[0] + s[0] ** 2 / 2
        f2 = -s[1] + s[1] ** 3 / 5
        total = f1 + f2
        return 2 * total + total ** 2 / 3

    rng = random.Random(3)
    for _ in range(100):
        inputs = random_inputs(rng, 2, lo=-1.0, hi=1.0)
        x = rng.uniform(-1, 1)
        lhs = o.evaluate(x, inputs)
        rhs = direct(x, inputs)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_nested_support_shapes():
    # identity outer function keeps support on the axes
    axes = build_nested([Fraction(1)], [[Fraction(1), Fraction(2)], [Fraction(3)]])
    assert set(axes.coeffs) == {(1, 0), (2, 0), (0, 1)}
    # squared outer function produces pairwise mixes
    mixed = build_nested([Fraction(0), Fraction(1)], [[Fraction(1)], [Fraction(1)]])
    assert set(mixed.coeffs) == {(2, 0), (1, 1), (0, 2)}
    # all-zero outer function has no coupling at all
    empty = build_nested([Fraction(0)], [[Fraction(1)], [Fraction(1)]])
    assert empty.coeffs == {}


def test_order_bound():
    o = build_polynomial_multi({(1, 2): 1, (3, 0): 1}, n_types=2)
    assert o.order_bound == (3, 2)
    assert build_exponential(None).order_bound is None


@pytest.mark.parametrize("name,oracle,monoids", shipped_oracles(), ids=lambda v: v if isinstance(v, str) else "")
def test_shipped_oracles_are_admissible(name, oracle, monoids):
    report = admissibility_check(oracle, monoids, trials=1500, seed=0, tol=1e-9)
    assert report.ok, (name, report.checks, report.counterexamples[:1])


@pytest.mark.parametrize(
    "factory,expected",
    [
        (broken_merge_oracle, "merge"),
        (broken_zero_oracle, "zero_removal"),
        (broken_permutation_oracle, "permutation"),
    ],
    ids=["merge", "zero_removal", "permutation"],
)
def test_broken_oracles_fail_exactly_their_property(factory, expected):
    oracle, monoids = factory()
    report = admissibility_check(oracle, monoids, trials=1500, seed=0, tol=1e-9)
    failed = sorted(k for k, v in report.checks.items() if not v)
    assert failed == [expected]
    assert report.counterexamples
    assert report.counterexamples[0]["property"] == expected


def test_state_transformed_power_is_admissible():
    # cube of sum(w * state^2): still a valid component under additive
    # weights because it factors through a per-input transform of the state
    import ccndecomp.oracle as om

    def fn(x, inputs):
        return math.fsum(e.weight * e.state ** 2 for e in inputs) ** 3

    oracle = om.BlackBoxOracle(1, 1, om.zero_f0, fn, "cubic-of-transformed-sum")
    report = admissibility_check(oracle, [make_additive_real()], trials=1500, seed=0)
    assert report.ok, report.counterexamples[:1]


def test_three_type_component_is_admissible():
    oracle = build_polynomial_multi({(1, 1, 1): Fraction(1, 2), (0, 2, 0): 1}, n_types=3)
    report = admissibility_check(
        oracle, [make_additive_real()] * 3, trials=1000, seed=0, max_per_type=4
    )
    assert report.ok


def test_admissibility_check_is_deterministic():
    oracle, monoids = broken_merge_oracle()
    a = admissibility_check(oracle, monoids, trials=300, seed=7).to_jsonable()
    b = admissibility_check(oracle, monoids, trials=300, seed=7).to_jsonable()
    assert a == b


def test_checker_reports_match_golden(data_dir):
    text = json.dumps(checker_golden_reports(), sort_keys=True, indent=1) + "\n"
    assert text == (data_dir / "golden" / "checker_reports.json").read_text(encoding="utf-8")


def test_type_multiindex():
    inputs = (NI(1, 1.0, 0.0), NI(2, 1.0, 0.0), NI(2, 1.0, 0.0))
    assert type_multiindex(inputs, 2) == (1, 2)
    with pytest.raises(ValueError):
        type_multiindex(inputs, 1)


def test_oracle_spec_round_trip():
    doc = {
        "type_index": 1,
        "family": "polynomial_multi",
        "params": {"coeffs": {"0,2": "1", "1,1": "1/2"}},
        "f0": "zero",
    }
    spec = oracle_spec_from_json(doc)
    again = oracle_spec_from_json(spec.to_jsonable())
    assert again == spec
    assert spec.n_types == 2


def test_oracle_spec_errors():
    with pytest.raises(SpecFormatError):
        oracle_spec_from_json({"family": "mystery"})
    with pytest.raises(SpecFormatError):
        oracle_spec_from_json({"family": "polynomial", "params": {}})
    with pytest.raises(SpecFormatError):
        oracle_spec_from_json({"family": "polynomial", "params": {"coeffs": {"2": "1"}}, "f0": "cubic"})
    with pytest.raises(SpecFormatError):
        oracle_specs_from_json("not a spec")
    with pytest.raises(SpecFormatError, match="out of float range"):
        oracle_spec_from_json(
            {"family": "polynomial", "params": {"coeffs": {"1": "1e400"}}}
        ).build()


def test_oracle_specs_accept_lists():
    doc = [
        {"family": "polynomial", "params": {"coeffs": {"2": "1"}}},
        {"type_index": 2, "family": "exponential", "params": {"truncation": 4}},
    ]
    specs = oracle_specs_from_json(doc)
    assert [s.type_index for s in specs] == [1, 2]


def test_nested_and_symmetric_families_from_json():
    nested = oracle_spec_from_json({
        "family": "nested",
        "params": {"outer": ["1"], "inner": [["1", "2"], ["3"]]},
    }).build()
    assert set(nested.coeffs) == {(1, 0), (2, 0), (0, 1)}
    sym = oracle_spec_from_json({
        "family": "symmetric_power",
        "params": {"n": 3, "k": 2},
    }).build()
    assert sym.evaluate(0.0, (NI(1, 1.0, 2.0), NI(1, 1.0, 0.0))) == (1 + 1) * (2 + 0) ** 2
