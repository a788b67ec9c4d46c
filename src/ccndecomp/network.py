"""Weighted multi-edge network model and cell-wise evaluation.

A network is an ordered cell list, a type per cell, and for each cell its
in-edges: (source position, weight) pairs sorted by source position, the
weight drawn from the monoid registered for the (type(target), type(source))
pair.  The JSON form lists edges only.  While parsing, each bundle of
parallel edges is combined once by its monoid, independently of the order of
the edge list; a combined weight that is not finite is refused, and one that
is the monoid zero is dropped, so every stored weight is finite and nonzero.
Evaluating a per-type tuple of components cell by cell on the
in-neighborhoods yields the network-level function; a fixed-step RK4
integrator drives it as dynamics.  States are scalars: every type has state
dimension 1.

Cost model: O(N + E) memory for N cells and E distinct nonzero edges; one
vector field costs O(E) neighbor lookups plus N component evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from .monoid import MonoidRegistry, WeightMonoid, monoid_by_name
from .oracle import NeighborInput, OracleComponent
from .spec import SpecFormatError, list_of, spec_field, spec_int, spec_object


class DivergenceError(RuntimeError):
    """Integration produced a non-finite state."""

    def __init__(self, step: int):
        super().__init__(f"non-finite state at step {step}")
        self.step = step


@dataclass
class Network:
    """Immutable-after-parse network; evaluation methods are pure."""

    cells: list[str]
    type_of: dict[str, int]
    registry: MonoidRegistry
    # in_edges[c] = ((d, weight), ...) for the edges d -> c, sorted by d; weights nonzero
    in_edges: list[tuple[tuple[int, Any], ...]]
    index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.index = {cell: i for i, cell in enumerate(self.cells)}

    def monoid_for(self, target_type: int, source_type: int) -> WeightMonoid:
        try:
            return self.registry[(target_type, source_type)]
        except KeyError:
            raise SpecFormatError(
                f"no monoid registered for type pair ({target_type},{source_type})"
            ) from None

    def in_neighborhood(self, cell: str, states: Mapping[str, float]) -> tuple[NeighborInput, ...]:
        """All in-edges of ``cell``, paired with the source states, in source
        order.  Zero weights were dropped at parse time; that cannot change
        any admissible evaluation."""
        c = self.index.get(cell)
        if c is None:
            raise KeyError(f"unknown cell {cell!r}")
        cells, type_of = self.cells, self.type_of
        return tuple([
            NeighborInput(type_of[cells[d]], w, states[cells[d]]) for d, w in self.in_edges[c]
        ])


_KEYS = ("types", "monoids", "cells", "edges")


def parse_network(doc: dict) -> Network:
    """Build a validated network from its JSON document.

    An absent edge is the monoid zero.  The parallel edges between two cells
    are combined once with the pair's monoid, so the stored weight does not
    depend on their order in ``edges``.  Every malformed entry, unknown
    top-level key, state dimension other than 1 and non-finite combined
    weight raises :class:`SpecFormatError` naming it.
    """
    for key in spec_object(doc, "network spec"):
        if key not in _KEYS:
            raise SpecFormatError(f"network spec: unknown key {key!r}, expected one of {_KEYS}")

    type_ids: set[int] = set()
    for i, t in enumerate(spec_field(doc, "network spec", "types", list_of())):
        idx = spec_field(t, f"types[{i}]", "id", spec_int)
        if idx < 1:
            raise SpecFormatError(f"type ids are 1-based, got {idx}")
        dim = spec_field(t, f"types[{i}]", "state_dim", spec_int, default=1)
        if dim != 1:
            raise SpecFormatError(f"types[{i}]: 'state_dim' must be 1, got {dim}")
        type_ids.add(idx)
    n_types = max(type_ids, default=0)
    if len(type_ids) != n_types:
        raise SpecFormatError(f"type ids must cover 1..{n_types}, got {sorted(type_ids)}")

    cells: list[str] = []
    type_of: dict[str, int] = {}
    for i, entry in enumerate(spec_field(doc, "network spec", "cells", list_of())):
        where = f"cells[{i}]"
        cid = spec_field(entry, where, "id", str)
        if cid in type_of:
            raise SpecFormatError(f"duplicate cell id {cid!r}")
        t = spec_field(entry, where, "type", spec_int)
        if t not in type_ids:
            raise SpecFormatError(f"cell {cid!r} has unknown type {t}")
        cells.append(cid)
        type_of[cid] = t

    registry: MonoidRegistry = {}
    for key, name in spec_field(doc, "network spec", "monoids", spec_object, default={}).items():
        try:
            i_s, j_s = key.split(",")
            pair = (spec_int(i_s), spec_int(j_s))
        except ValueError:
            raise SpecFormatError(f"monoid key {key!r} is not 'target,source'") from None
        if pair[0] not in type_ids or pair[1] not in type_ids:
            raise SpecFormatError(f"monoid key {key!r} names an unknown type")
        try:
            registry[pair] = monoid_by_name(str(name))
        except ValueError as exc:
            raise SpecFormatError(f"monoids[{key!r}]: {exc}") from None

    index = {cid: i for i, cid in enumerate(cells)}
    # bundles[c][d] = the parsed weights of the parallel edges d -> c
    bundles: list[dict[int, list]] = [{} for _ in cells]
    for i, edge in enumerate(spec_field(doc, "network spec", "edges", list_of(), default=[])):
        where = f"edges[{i}]"
        to, frm = spec_field(edge, where, "to", str), spec_field(edge, where, "from", str)
        if "weight" not in edge:
            raise SpecFormatError(f"{where} is missing 'weight'")
        if to not in index or frm not in index:
            raise SpecFormatError(f"{where} references unknown cell: {edge!r}")
        monoid = registry.get((type_of[to], type_of[frm]))
        if monoid is None:
            raise SpecFormatError(f"no monoid declared for type pair {(type_of[to], type_of[frm])}")
        try:
            w = monoid.parse(edge["weight"])
        except ValueError as exc:
            raise SpecFormatError(f"{where}: bad 'weight': {exc}") from None
        bundles[index[to]].setdefault(index[frm], []).append(w)

    in_edges = []
    for c, row in enumerate(bundles):
        kept = []
        for d, weights in sorted(row.items()):
            monoid = registry[(type_of[cells[c]], type_of[cells[d]])]
            try:
                w = monoid.combine(weights)
            except OverflowError:
                w = math.inf
            if not math.isfinite(w):
                raise SpecFormatError(
                    f"the edges from {cells[d]!r} to {cells[c]!r} combine to a non-finite weight")
            if w != monoid.zero:
                kept.append((d, w))
        in_edges.append(tuple(kept))

    return Network(cells=cells, type_of=type_of, registry=registry, in_edges=in_edges)


def evaluate_vector_field(
    net: Network,
    oracles: Mapping[int, OracleComponent],
    states: Mapping[str, float],
) -> dict[str, float]:
    """Evaluate the per-type components cell by cell on the in-neighborhoods."""
    missing = sorted(set(net.type_of.values()) - set(oracles))
    if missing:
        raise ValueError(f"no component supplied for cell types {missing}")
    out: dict[str, float] = {}
    for cell in net.cells:
        oracle = oracles[net.type_of[cell]]
        out[cell] = oracle.evaluate(states[cell], net.in_neighborhood(cell, states))
    return out


def integrate_rk4(
    net: Network,
    oracles: Mapping[int, OracleComponent],
    x0: Mapping[str, float],
    dt: float,
    steps: int,
) -> list[dict[str, float]]:
    """Classical fixed-step RK4 on x' = evaluate_vector_field(net, ., x).

    Returns steps+1 state snapshots including the initial one; raises
    :class:`DivergenceError` with the step index if any state goes
    non-finite.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    state = {c: float(x0[c]) for c in net.cells}
    trajectory = [dict(state)]
    for step in range(1, steps + 1):
        try:
            k1 = evaluate_vector_field(net, oracles, state)
            mid1 = {c: state[c] + 0.5 * dt * k1[c] for c in net.cells}
            k2 = evaluate_vector_field(net, oracles, mid1)
            mid2 = {c: state[c] + 0.5 * dt * k2[c] for c in net.cells}
            k3 = evaluate_vector_field(net, oracles, mid2)
            end = {c: state[c] + dt * k3[c] for c in net.cells}
            k4 = evaluate_vector_field(net, oracles, end)
        except OverflowError:
            raise DivergenceError(step) from None
        state = {
            c: state[c] + dt / 6.0 * (k1[c] + 2.0 * k2[c] + 2.0 * k3[c] + k4[c])
            for c in net.cells
        }
        if not all(math.isfinite(v) for v in state.values()):
            raise DivergenceError(step)
        trajectory.append(dict(state))
    return trajectory
