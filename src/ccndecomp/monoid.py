"""Commutative-monoid weight algebras: the "edges in parallel" operation.

A weight monoid packs the parallel-composition operation, its identity (the
"no edge" value), a bounded random sampler and the parser that reads its
weights from JSON.  ``combine`` takes a whole bundle of parallel weights at
once, and every shipped monoid combines a bundle independently of its order:
the additive ones sum it exactly and round once, ``bool_or`` ORs it.  The
sampler draws dyadic rationals for the real-valued instances so that the
property checks can use exact float comparisons.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .exact import exact_sum
from .spec import short_repr, spec_number


def sample_dyadic(rng: random.Random, lo: float = -2.0, hi: float = 2.0, denom: int = 64) -> float:
    """Random multiple of 1/denom in [lo, hi]; sums of these are exact in
    binary floating point at this scale."""
    lo_n = int(lo * denom)
    hi_n = int(hi * denom)
    return rng.randint(lo_n, hi_n) / denom


@dataclass(frozen=True)
class WeightMonoid:
    """Commutative monoid on weight values.

    ``combine`` maps a sequence of weights to their parallel combination; on
    pairs it must be commutative and associative with ``zero`` as the
    identity.  ``parse`` turns a JSON weight into the canonical weight value,
    raising ``ValueError`` for a value outside the monoid.
    """

    name: str
    combine: Callable[[Sequence[Any]], Any]
    zero: Any
    sample: Callable[[random.Random], Any]
    parse: Callable[[Any], Any] = field(default=lambda raw: raw)


def _parse_number(name: str, minimum: float) -> Callable[[Any], float]:
    def parse(raw: Any) -> float:
        w = spec_number(raw)
        if not w >= minimum:
            raise ValueError(f"monoid {name} expects a number >= {minimum}, got {short_repr(raw)}")
        return w

    return parse


def make_additive_real() -> WeightMonoid:
    """Real numbers under addition; zero weight 0.0.  Samples are bounded
    dyadics so that the monoid laws hold bit-exactly on sampled values."""
    return WeightMonoid(
        name="additive_real",
        combine=exact_sum,
        zero=0.0,
        sample=sample_dyadic,
        parse=spec_number,
    )


def make_additive_positive() -> WeightMonoid:
    """Non-negative reals under addition.  Useful when tests need merged
    weights that can never cancel back to zero."""
    return WeightMonoid(
        name="additive_positive",
        combine=exact_sum,
        zero=0.0,
        sample=lambda rng: sample_dyadic(rng, 1.0 / 64.0, 2.0),
        parse=_parse_number("additive_positive", minimum=0.0),
    )


def _parse_bool(raw: Any) -> bool:
    if not isinstance(raw, bool):
        raise ValueError(f"monoid bool_or expects a boolean, got {short_repr(raw)}")
    return raw


def make_bool_or() -> WeightMonoid:
    """Booleans under OR; zero is False."""
    return WeightMonoid(
        name="bool_or",
        combine=any,
        zero=False,
        sample=lambda rng: rng.random() < 0.5,
        parse=_parse_bool,
    )


BUILTIN_MONOIDS: dict[str, Callable[[], WeightMonoid]] = {
    "additive_real": make_additive_real,
    "additive_positive": make_additive_positive,
    "bool_or": make_bool_or,
}


def monoid_by_name(name: str) -> WeightMonoid:
    try:
        return BUILTIN_MONOIDS[name]()
    except KeyError:
        raise ValueError(f"unknown monoid id {short_repr(name)}") from None


# Maps (target type, source type) -> monoid for the weights on such edges.
MonoidRegistry = dict[tuple[int, int], WeightMonoid]

