import random

import pytest

from ccndecomp.monoid import (
    WeightMonoid,
    check_laws,
    make_additive_positive,
    make_additive_real,
    make_bool_or,
    monoid_by_name,
    sample_dyadic,
)
from helpers import make_free_parallel


@pytest.mark.parametrize(
    "make",
    [make_additive_real, make_free_parallel, make_bool_or, make_additive_positive],
    ids=lambda f: f.__name__,
)
def test_shipped_monoids_pass_laws(make):
    report = check_laws(make(), trials=10000, seed=0)
    assert report.ok, report.counterexamples


def test_additive_real_basics():
    m = make_additive_real()
    assert m.combine((1.5, 2.5)) == 4.0
    assert m.combine((0.0, 3.25)) == 3.25
    assert m.combine((1e-18,)) != m.zero
    rng = random.Random(1)
    for _ in range(200):
        a, b = m.sample(rng), m.sample(rng)
        assert m.combine((a, b)) == m.combine((b, a)) == a + b


def test_free_parallel_is_multiset_union():
    m = make_free_parallel()
    assert m.combine((("a",), ("b",))) == ("a", "b")
    assert m.combine(((), ("a", "a"))) == ("a", "a")
    assert m.combine((("a",), ("a",))) == ("a", "a") != ("a",)


def test_bool_or_annihilator():
    m = make_bool_or()
    rng = random.Random(0)
    for _ in range(200):
        w = m.sample(rng)
        assert m.combine((True, w)) is True
    assert m.combine((False, False)) is False
    assert m.combine((False, True)) is True


def test_broken_monoid_reports_commutativity_witness():
    broken = WeightMonoid(
        name="subtraction",
        combine=lambda pair: pair[0] - pair[1],
        zero=0.0,
        sample=sample_dyadic,
    )
    report = check_laws(broken, trials=1000, seed=0)
    assert not report.checks["commutative"]
    witness = report.counterexamples[0]
    assert witness["property"] == "commutative"
    assert witness["a"] - witness["b"] != witness["b"] - witness["a"]


def test_check_laws_is_deterministic():
    a = check_laws(make_free_parallel(), trials=500, seed=42).to_jsonable()
    b = check_laws(make_free_parallel(), trials=500, seed=42).to_jsonable()
    assert a == b


def test_monoid_by_name():
    assert monoid_by_name("additive_real").name == "additive_real"
    assert monoid_by_name("bool_or").name == "bool_or"
    for name in ("nope", "free_parallel"):
        with pytest.raises(ValueError):
            monoid_by_name(name)


def test_check_laws_requires_trials():
    with pytest.raises(ValueError):
        check_laws(make_additive_real(), trials=0, seed=0)


@pytest.mark.parametrize("make", [make_additive_real, make_additive_positive],
                         ids=lambda f: f.__name__)
def test_numeric_weights_must_be_finite(make):
    parse = make().parse
    assert parse(2) == 2.0 and parse(0.5) == 0.5
    for raw in (float("inf"), float("-inf"), float("nan"), 10 ** 400, True, None, "1", [1]):
        with pytest.raises(ValueError):
            parse(raw)
