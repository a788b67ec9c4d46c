import random

import pytest

from ccndecomp.monoid import (
    make_additive_positive,
    make_additive_real,
    make_bool_or,
    monoid_by_name,
)
from helpers import make_free_parallel


@pytest.mark.parametrize(
    "make",
    [make_additive_real, make_free_parallel, make_bool_or, make_additive_positive],
    ids=lambda f: f.__name__,
)
def test_shipped_monoids_pass_laws(make):
    m = make()
    rng = random.Random(0)
    for _ in range(10000):
        a, b, c = m.sample(rng), m.sample(rng), m.sample(rng)
        assert m.combine((a, b)) == m.combine((b, a)), (a, b)
        assert m.combine((m.combine((a, b)), c)) == m.combine((a, m.combine((b, c)))), (a, b, c)
        assert m.combine((m.zero, a)) == a, a


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


def test_monoid_by_name():
    assert monoid_by_name("additive_real").name == "additive_real"
    assert monoid_by_name("bool_or").name == "bool_or"
    for name in ("nope", "free_parallel"):
        with pytest.raises(ValueError):
            monoid_by_name(name)


@pytest.mark.parametrize("make", [make_additive_real, make_additive_positive],
                         ids=lambda f: f.__name__)
def test_numeric_weights_must_be_finite(make):
    parse = make().parse
    assert parse(2) == 2.0 and parse(0.5) == 0.5
    for raw in (float("inf"), float("-inf"), float("nan"), 10 ** 400, True, None, "1", [1]):
        with pytest.raises(ValueError):
            parse(raw)
