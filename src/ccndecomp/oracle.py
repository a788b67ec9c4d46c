"""Whole-function cell responses ("oracle components") and their verifier.

An oracle component of type i answers: given the cell's own state and any
finite typed list of (weight, neighbor state) inputs, what is the response?
Valid components are permutation invariant, merge two same-type same-state
inputs into one with parallel-combined weight, and ignore zero-weight inputs.
:func:`admissibility_check` probes those properties on random inputs.

Two representations are provided.  Structured polynomial components know
their finite coefficient support, which the basis transforms need; black-box
components wrap an arbitrary host-language evaluator and support only the
pointwise subset decomposition.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from .monoid import WeightMonoid, sample_dyadic
from .multiindex import MultiIndex, apply_multiplicity, as_multiindex, norm
from .report import CheckReport
from .spec import SpecFormatError, list_of, spec_field, spec_int, spec_number, spec_object


class NeighborInput(NamedTuple):
    """One in-edge as seen by the responding cell: source type (1-based),
    edge weight, source state."""

    type_index: int
    weight: Any
    state: Any


CellSpec = tuple[NeighborInput, ...]


def type_multiindex(inputs: Sequence[NeighborInput], n_types: int) -> MultiIndex:
    """Per-type input counts (the multi-index K(s) of a neighborhood)."""
    counts = [0] * n_types
    for e in inputs:
        if not 1 <= e.type_index <= n_types:
            raise ValueError(f"input type {e.type_index} out of range 1..{n_types}")
        counts[e.type_index - 1] += 1
    return tuple(counts)


def expand(multiplicity: Sequence[int], inputs: Sequence[NeighborInput]) -> CellSpec:
    """Duplicate each input entry according to the multiplicity."""
    return tuple(apply_multiplicity(multiplicity, list(inputs)))


def inputs_jsonable(inputs: Sequence[NeighborInput]) -> list[dict]:
    return [{"type": e.type_index, "weight": e.weight, "state": e.state} for e in inputs]


def zero_f0(x: float) -> float:
    return 0.0


class OracleComponent:
    """Base protocol: subclasses provide ``evaluate(x, inputs)``."""

    target_type: int
    n_types: int
    f0: Callable[[float], float]

    def evaluate(self, x: float, inputs: Sequence[NeighborInput]) -> float:
        raise NotImplementedError

    @property
    def coeffs(self) -> Mapping[MultiIndex, Fraction] | None:
        """Finite coefficient support when structured, else None."""
        return None

    @property
    def order_bound(self) -> MultiIndex | None:
        """Entrywise bound on nonzero interaction orders, when known."""
        c = self.coeffs
        if c is None:
            return None
        bound = [0] * self.n_types
        for n in c:
            for j, e in enumerate(n):
                bound[j] = max(bound[j], e)
        return tuple(bound)


@dataclass(frozen=True)
class PolynomialOracle(OracleComponent):
    """f0(x) + sum_n a_n * prod_j (sum over type-j inputs of w*state)^(n_j).

    Coefficients are exact rationals keyed by type multi-index n > 0.  Inner
    sums use math.fsum, so evaluation is bit-identical under any permutation
    of the inputs.  The 0^0 = 1 convention applies: a factor with n_j = 0 is
    1 even when the type-j sum is empty.
    """

    target_type: int
    n_types: int
    f0: Callable[[float], float]
    _coeffs: dict[MultiIndex, Fraction]
    # (n, float(a_n)) in increasing n, computed once from _coeffs
    _terms: tuple[tuple[MultiIndex, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            terms = tuple((n, float(a)) for n, a in sorted(self._coeffs.items()))
        except OverflowError:
            raise ValueError("a polynomial coefficient is out of float range") from None
        object.__setattr__(self, "_terms", terms)

    def evaluate(self, x: float, inputs: Sequence[NeighborInput]) -> float:
        per_type: list[list[float]] = [[] for _ in range(self.n_types)]
        for e in inputs:
            if not 1 <= e.type_index <= self.n_types:
                raise ValueError(f"input type {e.type_index} out of range 1..{self.n_types}")
            per_type[e.type_index - 1].append(e.weight * e.state)
        totals = [math.fsum(vals) for vals in per_type]
        terms = [self.f0(x)]
        for n, term in self._terms:
            for t, exp in zip(totals, n):
                if exp:
                    term *= t ** exp
            terms.append(term)
        return math.fsum(terms)

    @property
    def coeffs(self) -> Mapping[MultiIndex, Fraction]:
        return dict(self._coeffs)


@dataclass(frozen=True)
class BlackBoxOracle(OracleComponent):
    """f0(x) + fn(x, inputs) for an arbitrary pure evaluator ``fn``.

    ``fn`` must return 0 on an empty input list for f0 to really be the
    isolated-cell response; builders here guarantee that, user evaluators
    are trusted.
    """

    target_type: int
    n_types: int
    f0: Callable[[float], float]
    fn: Callable[[float, CellSpec], float]
    label: str = "blackbox"

    def evaluate(self, x: float, inputs: Sequence[NeighborInput]) -> float:
        return self.f0(x) + self.fn(x, tuple(inputs))


def to_fraction(value: Any) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    raise SpecFormatError(f"cannot read {value!r} as an exact rational")


def build_polynomial_single(
    coeffs: Mapping[int, Any], f0: Callable[[float], float] | None = None, target_type: int = 1
) -> PolynomialOracle:
    """Single-type polynomial component with coefficient map degree -> a_n.

    Degrees must be >= 1; the degree-0 term belongs in f0.
    """
    table: dict[MultiIndex, Fraction] = {}
    for degree, a in coeffs.items():
        d = int(degree)
        if d < 1:
            raise ValueError(f"polynomial degree must be >= 1, got {degree!r}")
        frac = to_fraction(a)
        if frac:
            table[(d,)] = frac
    return PolynomialOracle(target_type=target_type, n_types=1, f0=f0 or zero_f0, _coeffs=table)


def build_polynomial_multi(
    coeffs: Mapping[Sequence[int], Any],
    f0: Callable[[float], float] | None = None,
    n_types: int | None = None,
    target_type: int = 1,
) -> PolynomialOracle:
    """Multi-type polynomial component keyed by type multi-index n > 0."""
    table: dict[MultiIndex, Fraction] = {}
    width = n_types
    for key, a in coeffs.items():
        n = as_multiindex(tuple(key))
        if width is None:
            width = len(n)
        if len(n) != width:
            raise ValueError(f"coefficient key {key!r} has tupleness {len(n)}, expected {width}")
        if norm(n) == 0:
            raise ValueError("the zero multi-index is not a valid coefficient key; use f0")
        frac = to_fraction(a)
        if frac:
            table[n] = frac
    if width is None:
        raise ValueError("n_types is required when the coefficient map is empty")
    return PolynomialOracle(target_type=target_type, n_types=width, f0=f0 or zero_f0, _coeffs=table)


def _poly_powers(coeffs: Sequence[Fraction], max_power: int) -> list[dict[int, Fraction]]:
    """Coefficient maps of P^0, P^1, ..., P^max_power for P = sum c_l X^l
    (l starting at 1)."""
    base = {l + 1: c for l, c in enumerate(coeffs) if c}
    powers = [{0: Fraction(1)}]
    for _ in range(max_power):
        prev = powers[-1]
        nxt: dict[int, Fraction] = {}
        for d1, c1 in prev.items():
            for d2, c2 in base.items():
                nxt[d1 + d2] = nxt.get(d1 + d2, Fraction(0)) + c1 * c2
        powers.append(nxt)
    return powers


def build_nested(
    outer: Sequence[Any],
    inner: Sequence[Sequence[Any]],
    f0: Callable[[float], float] | None = None,
    target_type: int = 1,
) -> PolynomialOracle:
    """Component of the form f0(x) + F(sum_j F_j(sum over type-j of w*state)).

    ``outer`` lists the coefficients a_1..a_N of F and ``inner[j]`` those of
    F_j, constant terms excluded.  The equivalent flat coefficient map is
    computed exactly: a_n collects, over outer degrees and over the ways to
    split that degree among the types, the convolution coefficients of the
    inner polynomials raised to the split powers.
    """
    outer_c = [to_fraction(a) for a in outer]
    inner_c = [[to_fraction(a) for a in row] for row in inner]
    n_types = len(inner_c)
    if n_types == 0:
        raise ValueError("at least one inner polynomial is required")
    depth = len(outer_c)
    powers = [_poly_powers(row, depth) for row in inner_c]
    table: dict[MultiIndex, Fraction] = {}
    from .multiindex import iter_multiindices

    for n_out in range(1, depth + 1):
        a = outer_c[n_out - 1]
        if not a:
            continue
        for m in iter_multiindices(n_types, norm_equals=n_out):
            weight = a * math.factorial(n_out)
            for mj in m:
                weight /= math.factorial(mj)
            choices = [list(powers[j][m[j]].items()) for j in range(n_types)]
            for combo in product(*choices):
                n_vec = tuple(d for d, _ in combo)
                coeff = weight
                for _, c in combo:
                    coeff *= c
                if coeff:
                    table[n_vec] = table.get(n_vec, Fraction(0)) + coeff
    table = {n: c for n, c in table.items() if c}
    return PolynomialOracle(target_type=target_type, n_types=n_types, f0=f0 or zero_f0, _coeffs=table)


def build_exponential(
    truncation: int | None = None, f0: Callable[[float], float] | None = None, target_type: int = 1
) -> OracleComponent:
    """Exponential coupling f0(x) + exp(sum w*state) - 1 over a single type.

    A finite ``truncation`` N returns the structured polynomial with
    a_n = 1/n! for n <= N (the N-th order truncation); None returns the
    exact black box, which has no finite interaction order.
    """
    if truncation is not None:
        if truncation < 1:
            raise ValueError("truncation must be >= 1")
        return build_polynomial_single(
            {n: Fraction(1, math.factorial(n)) for n in range(1, truncation + 1)},
            f0=f0,
            target_type=target_type,
        )
    return BlackBoxOracle(
        target_type=target_type,
        n_types=1,
        f0=f0 or zero_f0,
        fn=lambda x, inputs: math.expm1(math.fsum(e.weight * e.state for e in inputs)),
        label="exponential",
    )


def build_symmetric_power(
    n: int, k: int, f0: Callable[[float], float] | None = None, target_type: int = 1
) -> BlackBoxOracle:
    """Component f0(x) + (sum w)^(n-k) * (sum w*state)^k over a single type,
    with n >= k > 0.  Reduces to the plain power component when k = n."""
    if k < 1 or k > n:
        raise ValueError(f"symmetric power requires n >= k > 0, got n={n}, k={k}")

    def fn(x: float, inputs: CellSpec) -> float:
        sw = math.fsum(e.weight for e in inputs)
        swx = math.fsum(e.weight * e.state for e in inputs)
        return sw ** (n - k) * swx ** k

    return BlackBoxOracle(
        target_type=target_type, n_types=1, f0=f0 or zero_f0, fn=fn,
        label=f"symmetric_power({n},{k})",
    )


def within_tolerance(a: float, b: float, tol: float) -> bool:
    """Absolute tolerance scaled by max(1, |a|, |b|)."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class NeighborhoodCheck:
    """The trial loop shared by the randomized neighborhood checkers.

    Each trial samples a typed neighborhood from one seeded RNG (0 to
    ``max_per_type`` inputs per source type, weights from that type's monoid,
    dyadic states), shuffles it, draws a dyadic cell state ``x`` and calls
    the checker's ``probe(x, inputs)``.  Probes take their further random
    draws from :meth:`shuffled`, :meth:`merge_pair` and :meth:`zero_input`,
    so the draw order, and with it every report, is fixed by the seed.
    """

    def __init__(self, name: str, props: Sequence[str], n_types: int,
                 monoids: Sequence[WeightMonoid], trials: int, seed: int, tol: float,
                 max_per_type: int) -> None:
        self.report = CheckReport.start(name, props, trials, seed, tol)
        if len(monoids) != n_types:
            raise ValueError(f"need one monoid per source type ({n_types}), got {len(monoids)}")
        self.monoids, self.max_per_type, self.rng = monoids, max_per_type, random.Random(seed)

    def run(self, probe: Callable[[float, CellSpec], None]) -> CheckReport:
        rng, monoids = self.rng, self.monoids
        for _ in range(self.report.trials):
            entries: list[NeighborInput] = []
            for j, monoid in enumerate(monoids):
                for _ in range(rng.randint(0, self.max_per_type)):
                    entries.append(NeighborInput(j + 1, monoid.sample(rng), sample_dyadic(rng)))
            rng.shuffle(entries)
            probe(sample_dyadic(rng), tuple(entries))
        return self.report

    def shuffled(self, inputs: CellSpec) -> CellSpec:
        """A randomly permuted copy of the inputs."""
        out = list(inputs)
        self.rng.shuffle(out)
        return tuple(out)

    def merge_pair(self) -> tuple[NeighborInput, NeighborInput, NeighborInput]:
        """Two inputs of a random source type sharing a fresh state, and the
        single input carrying their parallel-combined weight."""
        j = self.rng.randrange(len(self.monoids))
        monoid = self.monoids[j]
        w1, w2 = monoid.sample(self.rng), monoid.sample(self.rng)
        state = sample_dyadic(self.rng)
        return (NeighborInput(j + 1, w1, state), NeighborInput(j + 1, w2, state),
                NeighborInput(j + 1, monoid.combine((w1, w2)), state))

    def zero_input(self) -> NeighborInput:
        """An input of a random source type carrying that type's zero weight."""
        j = self.rng.randrange(len(self.monoids))
        return NeighborInput(j + 1, self.monoids[j].zero, sample_dyadic(self.rng))

    def fail(self, prop: str, x: float, inputs: CellSpec, lhs: float, rhs: float,
             **details: Any) -> None:
        """Record a violated ``lhs == rhs``.  Probes test the tolerance
        themselves and call this only on failure, so no witness is built
        for a passing probe."""
        self.report.record(prop, x=x, inputs=inputs_jsonable(inputs), **details,
                           lhs=lhs, rhs=rhs, diff=abs(lhs - rhs))


def admissibility_check(
    oracle: OracleComponent,
    monoids: Sequence[WeightMonoid],
    trials: int = 10000,
    seed: int = 0,
    tol: float = 1e-9,
    max_per_type: int = 6,
) -> CheckReport:
    """Randomized verification of the three defining properties.

    Per trial a random typed neighborhood (0..max_per_type inputs per type)
    is sampled with weights from the per-source-type monoids and dyadic
    states.  The probes:

    - permutation: a random shuffle of the inputs must not change the value;
    - merge: two fresh same-type inputs sharing a state, placed at the top,
      must equal the single input carrying the parallel-combined weight;
    - zero removal: prepending a zero-weight input must not change the value
      (front position is canonical; permutation invariance covers the rest);
    - determinism: re-evaluating the same point must reproduce the value
      bit-exactly (black-box evaluators are required to be pure; this is the
      only check of that contract).

    Deterministic per seed.  Failures land in the report's counterexamples
    with both sides of the violated equality.
    """
    check = NeighborhoodCheck(
        "admissibility", ("permutation", "merge", "zero_removal", "determinism"),
        oracle.n_types, monoids, trials, seed, tol, max_per_type,
    )
    f = oracle.evaluate

    def probe(x: float, inputs: CellSpec) -> None:
        base, again = f(x, inputs), f(x, inputs)
        if again != base:
            check.report.record("determinism", x=x, inputs=inputs_jsonable(inputs),
                                lhs=base, rhs=again)
        shuffled = check.shuffled(inputs)
        permuted = f(x, shuffled)
        if not within_tolerance(base, permuted, tol):
            check.fail("permutation", x, inputs, base, permuted,
                       permuted=inputs_jsonable(shuffled))
        one, two, merged = check.merge_pair()
        lhs, rhs = f(x, (merged,) + inputs), f(x, (one, two) + inputs)
        if not within_tolerance(lhs, rhs, tol):
            check.fail("merge", x, inputs, lhs, rhs, source_type=one.type_index,
                       w1=one.weight, w2=two.weight, shared_state=one.state)
        padded = (check.zero_input(),) + inputs
        with_zero = f(x, padded)
        if not within_tolerance(with_zero, base, tol):
            check.fail("zero_removal", x, padded, with_zero, base)

    return check.run(probe)


# --- JSON specs -------------------------------------------------------------

def parse_f0(label: str) -> Callable[[float], float]:
    if label == "zero":
        return zero_f0
    if label.startswith("linear:"):
        try:
            rate = spec_number(float(label.split(":", 1)[1]))
        except ValueError:
            raise SpecFormatError(f"bad f0 rate in {label!r}") from None
        return lambda x: rate * x
    raise SpecFormatError(f"unknown f0 spec {label!r} (expected 'zero' or 'linear:<rate>')")


@dataclass(frozen=True)
class OracleSpec:
    """Parsed JSON description of a component; ``build`` instantiates it."""

    type_index: int
    family: str
    params: dict = field(default_factory=dict)
    f0: str = "zero"
    n_types: int = 1

    def build(self) -> OracleComponent:
        f0 = parse_f0(self.f0)
        param = functools.partial(spec_field, self.params, "params")
        try:
            if self.family == "polynomial":
                coeffs = param("coeffs", _coeff_map(spec_int))
                return build_polynomial_single(coeffs, f0, target_type=self.type_index)
            if self.family == "polynomial_multi":
                coeffs = param("coeffs", _coeff_map(
                    lambda key: tuple(spec_int(p) for p in key.split(","))))
                return build_polynomial_multi(
                    coeffs, f0, n_types=self.n_types or None, target_type=self.type_index
                )
            if self.family == "exponential":
                truncation = param("truncation", lambda t: t if t is None else spec_int(t),
                                   default=None)
                return build_exponential(truncation, f0, target_type=self.type_index)
            if self.family == "symmetric_power":
                return build_symmetric_power(
                    param("n", spec_int), param("k", spec_int), f0, target_type=self.type_index
                )
            if self.family == "nested":
                return build_nested(
                    param("outer", list_of(_rational)),
                    param("inner", list_of(list_of(_rational))),
                    f0,
                    target_type=self.type_index,
                )
        except (AttributeError, TypeError, ValueError, ArithmeticError) as exc:
            raise SpecFormatError(f"bad params for family {self.family!r}: {exc}") from exc
        raise SpecFormatError(f"unknown oracle family {self.family!r}")

    def to_jsonable(self) -> dict:
        return {
            "type_index": self.type_index,
            "family": self.family,
            "params": self.params,
            "f0": self.f0,
            "n_types": self.n_types,
        }


def _rational(value: Any) -> Fraction:
    return Fraction(str(value))


def _coeff_map(key: Callable[[str], Any]) -> Callable[[Any], dict]:
    """Parser of a {key: rational} coefficient object."""
    return lambda value: {key(k): _rational(a) for k, a in spec_object(value).items()}


def oracle_spec_from_json(doc: dict, where: str = "oracle spec") -> OracleSpec:
    """Parse and validate one spec; errors name ``where`` and the key."""
    spec = OracleSpec(
        type_index=spec_field(doc, where, "type_index", spec_int, default=1),
        family=spec_field(doc, where, "family", str),
        params=spec_field(doc, where, "params", spec_object, default={}),
        f0=spec_field(doc, where, "f0", str, default="zero"),
        n_types=spec_field(doc, where, "n_types", spec_int, default=0),
    )
    try:
        built = spec.build()  # validate eagerly and resolve the type count
    except SpecFormatError as exc:
        raise SpecFormatError(f"{where}: {exc}") from None
    if spec.n_types != built.n_types:
        spec = dataclasses.replace(spec, n_types=built.n_types)
    return spec


def oracle_specs_from_json(doc: Any) -> list[OracleSpec]:
    """Accept a single spec object, a list, or {"oracles": [...]}."""
    if isinstance(doc, dict) and "oracles" in doc:
        doc = doc["oracles"]
    if isinstance(doc, dict):
        return [oracle_spec_from_json(doc)]
    if isinstance(doc, list):
        return [oracle_spec_from_json(d, f"oracles[{i}]") for i, d in enumerate(doc)]
    raise SpecFormatError("oracle document must be an object or a list of objects")
