"""Weighted multi-edge network model and cell-wise evaluation.

A network is an ordered cell list, a type per cell, and for each cell its
in-edges: (source position, weight) pairs sorted by source position, the
weight drawn from the monoid registered for the (type(target), type(source))
pair.  Parallel edges are combined with that monoid while parsing and edges
whose weight is the monoid zero are dropped, so every stored weight is
nonzero.  Evaluating a per-type tuple of components cell by cell on the
in-neighborhoods yields the network-level function; a fixed-step RK4
integrator drives it as dynamics.

Cost model: O(N + E) memory for N cells and E distinct nonzero edges; one
vector field costs O(E) neighbor lookups plus N component evaluations.

The schema records a per-type state dimension, but evaluation and
integration operate on scalar (dimension-1) states, which is all the shipped
component families support; higher dimensions are carried as metadata for
black-box users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from .monoid import MonoidRegistry, WeightMonoid, monoid_by_name
from .oracle import NeighborInput, OracleComponent, SpecFormatError, spec_field, spec_int


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
    n_types: int
    state_dims: dict[int, int]
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

    def weight(self, to: str, frm: str) -> Any:
        """Weight of the edge ``frm`` -> ``to``, or None when there is none."""
        d = self.index[frm]
        for source, w in self.in_edges[self.index[to]]:
            if source == d:
                return w
        return None

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


def _weight_jsonable(w: Any) -> Any:
    return list(w) if isinstance(w, tuple) else w


def _list(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise SpecFormatError(f"network spec: {key!r} must be a list, got {type(value).__name__}")
    return value


def parse_network(doc: dict) -> Network:
    """Build a validated network from its JSON document.

    Edges may come as an ``edges`` list (absent edge = monoid zero) or as an
    explicit ``matrix`` of rows (null = no edge); explicit zero weights are
    canonicalized to "no edge".  Parallel edges in the edge list are
    combined with the pair's monoid operation, in document order.  Every
    malformed entry raises :class:`SpecFormatError` naming it.
    """
    if not isinstance(doc, dict):
        raise SpecFormatError("network spec must be a JSON object")
    for key in ("types", "cells"):
        if key not in doc:
            raise SpecFormatError(f"network spec is missing {key!r}")

    state_dims: dict[int, int] = {}
    for i, t in enumerate(_list(doc, "types")):
        idx = spec_field(t, f"types[{i}]", "id", spec_int)
        if idx < 1:
            raise SpecFormatError(f"type ids are 1-based, got {idx}")
        state_dims[idx] = spec_field(t, f"types[{i}]", "state_dim", spec_int, default=1)
    n_types = max(state_dims) if state_dims else 0
    if set(state_dims) != set(range(1, n_types + 1)):
        raise SpecFormatError(f"type ids must cover 1..{n_types}, got {sorted(state_dims)}")

    cells: list[str] = []
    type_of: dict[str, int] = {}
    for i, entry in enumerate(_list(doc, "cells")):
        cid = spec_field(entry, f"cells[{i}]", "id", str)
        if cid in type_of:
            raise SpecFormatError(f"duplicate cell id {cid!r}")
        t = spec_field(entry, f"cells[{i}]", "type", spec_int)
        if t not in state_dims:
            raise SpecFormatError(f"cell {cid!r} has unknown type {t}")
        cells.append(cid)
        type_of[cid] = t

    monoid_doc = doc.get("monoids", {})
    if not isinstance(monoid_doc, dict):
        raise SpecFormatError(f"network spec: 'monoids' must be an object, got {monoid_doc!r}")
    registry: MonoidRegistry = {}
    for key, name in monoid_doc.items():
        try:
            i_s, j_s = str(key).split(",")
            pair = (int(i_s), int(j_s))
        except ValueError:
            raise SpecFormatError(f"monoid key {key!r} is not 'target,source'") from None
        if pair[0] not in state_dims or pair[1] not in state_dims:
            raise SpecFormatError(f"monoid key {key!r} names an unknown type")
        try:
            registry[pair] = monoid_by_name(str(name))
        except ValueError as exc:
            raise SpecFormatError(f"monoids[{key!r}]: {exc}") from None

    n = len(cells)
    index = {cid: i for i, cid in enumerate(cells)}
    incoming: list[dict[int, Any]] = [{} for _ in range(n)]

    def add_edge(c: int, d: int, raw: Any, where: str) -> None:
        pair = (type_of[cells[c]], type_of[cells[d]])
        monoid = registry.get(pair)
        if monoid is None:
            raise SpecFormatError(f"no monoid declared for type pair {pair}")
        try:
            w = monoid.parse(raw)
        except ValueError as exc:
            raise SpecFormatError(f"{where}: {exc}") from None
        row = incoming[c]
        if d in row:
            w = monoid.combine(row[d], w)
        if monoid.is_zero(w):
            row.pop(d, None)
        else:
            row[d] = w

    if "matrix" in doc:
        rows = doc["matrix"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise SpecFormatError("network spec: 'matrix' must be a list of rows")
        if len(rows) != n or any(len(row) != n for row in rows):
            raise SpecFormatError(
                f"non-square matrix: expected {n}x{n}, got "
                f"{len(rows)}x{max((len(r) for r in rows), default=0)}"
            )
        for c in range(n):
            for d in range(n):
                if rows[c][d] is not None:
                    add_edge(c, d, rows[c][d], f"matrix[{c}][{d}]")

    for i, edge in enumerate(_list(doc, "edges")):
        where = f"edges[{i}]"
        to, frm = spec_field(edge, where, "to", str), spec_field(edge, where, "from", str)
        if "weight" not in edge:
            raise SpecFormatError(f"{where} is missing 'weight'")
        if to not in index or frm not in index:
            raise SpecFormatError(f"{where} references unknown cell: {edge!r}")
        add_edge(index[to], index[frm], edge["weight"], where)

    return Network(
        cells=cells,
        type_of=type_of,
        n_types=n_types,
        state_dims=state_dims,
        registry=registry,
        in_edges=[tuple(sorted(row.items())) for row in incoming],
    )


def network_to_json(net: Network) -> dict:
    """Canonical JSON form (edges list, sorted); parse/serialize round-trips
    losslessly."""
    edges = [
        {"to": to, "from": net.cells[d], "weight": _weight_jsonable(w)}
        for to, row in zip(net.cells, net.in_edges)
        for d, w in row
    ]
    edges.sort(key=lambda e: (e["to"], e["from"]))
    return {
        "types": [{"id": t, "state_dim": net.state_dims[t]} for t in sorted(net.state_dims)],
        "monoids": {f"{i},{j}": net.registry[(i, j)].name for i, j in sorted(net.registry)},
        "cells": [{"id": c, "type": net.type_of[c]} for c in net.cells],
        "edges": edges,
    }


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
