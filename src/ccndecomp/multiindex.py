"""Multi-index arithmetic: multiplicities and constrained enumeration.

A multi-index is a tuple of non-negative integers.  A multiplicity is a
multi-index read as repetition counts: applying ``m`` to a vector ``v``
expands ``v[i]`` into ``m[i]`` consecutive copies of the same value.

All values are plain tuples and all operations are pure, so everything here
is safe to share between threads.
"""

from __future__ import annotations

from typing import Iterator, Sequence, TypeVar

T = TypeVar("T")

MultiIndex = tuple[int, ...]


class DimensionMismatch(ValueError):
    """Operands have incompatible tupleness."""


def as_multiindex(entries: Sequence[int]) -> MultiIndex:
    """Validate ``entries`` and return it as a tuple of non-negative ints."""
    out = []
    for e in entries:
        i = int(e)
        if i != e or i < 0:
            raise ValueError(f"multi-index entries must be non-negative integers, got {e!r}")
        out.append(i)
    return tuple(out)


def norm(m: Sequence[int]) -> int:
    """Sum of the entries."""
    return sum(m)


def zeros(k: int) -> MultiIndex:
    return (0,) * k


def ones(k: int) -> MultiIndex:
    return (1,) * k


def zero_pattern(m: Sequence[int]) -> tuple[bool, ...]:
    """Which entries are zero.  Two indexes "share a zero pattern" when these
    tuples are equal."""
    return tuple(e == 0 for e in m)


def apply_multiplicity(m: Sequence[int], v: Sequence[T]) -> list[T]:
    """Expand ``v[i]`` into ``m[i]`` consecutive copies; result length is |m|."""
    if len(m) != len(v):
        raise DimensionMismatch(f"multiplicity has {len(m)} entries for a vector of length {len(v)}")
    out: list[T] = []
    for count, value in zip(m, v):
        out.extend([value] * count)
    return out


def iter_multiindices(
    k: int,
    lower: Sequence[int] | None = None,
    *,
    norm_equals: int | None = None,
    norm_at_most: int | None = None,
    upper: Sequence[int] | None = None,
) -> Iterator[MultiIndex]:
    """Enumerate k-tuples ``m >= lower`` under exactly one constraint.

    Constraints: ``norm_equals`` (|m| = n), ``norm_at_most`` (|m| <= n) or
    ``upper`` (entrywise m <= upper).  Yields every solution exactly once in
    ascending lexicographic order; lazy, so callers can stop early.  The
    stream is empty when the constraint is infeasible, and the 0-tuple is a
    valid value for k = 0.
    """
    given = [c is not None for c in (norm_equals, norm_at_most, upper)]
    if sum(given) != 1:
        raise ValueError("exactly one of norm_equals, norm_at_most, upper is required")
    lo = zeros(k) if lower is None else as_multiindex(lower)
    if len(lo) != k:
        raise DimensionMismatch(f"lower bound has tupleness {len(lo)}, expected {k}")
    if norm_equals is not None:
        if norm_equals >= 0:
            yield from _iter_fixed_norm(lo, norm_equals)
    elif norm_at_most is not None:
        if norm_at_most >= 0:
            yield from _iter_norm_at_most(lo, norm_at_most)
    else:
        up = as_multiindex(upper)  # type: ignore[arg-type]
        if len(up) != k:
            raise DimensionMismatch(f"upper bound has tupleness {len(up)}, expected {k}")
        yield from _iter_boxed(lo, up)


def _iter_fixed_norm(lower: MultiIndex, total: int) -> Iterator[MultiIndex]:
    if not lower:
        if total == 0:
            yield ()
        return
    rest_min = sum(lower[1:])
    for head in range(lower[0], total - rest_min + 1):
        for tail in _iter_fixed_norm(lower[1:], total - head):
            yield (head,) + tail


def _iter_norm_at_most(lower: MultiIndex, budget: int) -> Iterator[MultiIndex]:
    if not lower:
        yield ()
        return
    rest_min = sum(lower[1:])
    for head in range(lower[0], budget - rest_min + 1):
        for tail in _iter_norm_at_most(lower[1:], budget - head):
            yield (head,) + tail


def _iter_boxed(lower: MultiIndex, upper: MultiIndex) -> Iterator[MultiIndex]:
    if not lower:
        yield ()
        return
    for head in range(lower[0], upper[0] + 1):
        for tail in _iter_boxed(lower[1:], upper[1:]):
            yield (head,) + tail
