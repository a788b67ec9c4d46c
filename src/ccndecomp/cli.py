"""Batch front-end: verify specs, decompose components, dump Stirling
tables, integrate trajectories.  All reports are JSON with sorted keys, so a
fixed seed gives byte-identical output across runs.

Exit codes: 0 success / all checks passed, 1 a verification failed or the
integration diverged, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .basis import BasisFamily, basis_family_check, basis_from_oracle_direct
from .coupling import (
    EXPLICIT_SIZE_CAP,
    CouplingFamily,
    check_size_cap,
    coupling_components,
    coupling_family_check,
    coupling_order,
    locally_maximal_orders,
    subsets,
)
from .monoid import make_additive_real
from .network import DivergenceError, integrate_rk4, parse_network
from .oracle import (
    CellSpec,
    NeighborInput,
    OracleComponent,
    PolynomialOracle,
    admissibility_check,
    oracle_specs_from_json,
    type_multiindex,
)
from .spec import SpecFormatError, list_of, load, spec_field, spec_int, spec_number, spec_object
from .stirling import identity_report, table


def _parse_x0(doc, cells: list[str]) -> dict[str, float]:
    """Initial state of every cell from an x0 document: {cell: state} or
    {"states": {cell: state}}.  States must be finite numbers."""
    doc = spec_object(doc, "x0")
    doc = spec_object(doc.get("states", doc), "x0")
    return {cell: spec_field(doc, "x0", cell, spec_number) for cell in cells}


def _write(doc, out_path: str | None) -> None:
    # No Infinity or NaN in a report: they are not JSON (ValueError, exit 2).
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# Point weights are read as the shipped components use them: finite reals.
_parse_weight = make_additive_real().parse


def _parse_points(doc) -> list[tuple[float, CellSpec]]:
    """(x, inputs) of every point in a points document: {"points": [...]},
    a list of points, or a single point object."""
    if not isinstance(doc, list):
        doc = spec_field(doc, "points document", "points", list_of(), default=[doc])
    points = []
    for i, p in enumerate(doc):
        x = spec_field(p, f"point {i}", "x", spec_number, default=0.0)
        where = f"point {i}: neighborhood entry"
        inputs = tuple(
            NeighborInput(spec_field(entry, where, "type", spec_int),
                          spec_field(entry, where, "weight", _parse_weight),
                          spec_field(entry, where, "state", spec_number))
            for entry in spec_field(p, f"point {i}", "neighborhood", list_of(), default=[]))
        points.append((x, inputs))
    return points


class _PointMemo(OracleComponent):
    """Evaluations of ``oracle`` at one cell state, remembered by input
    tuple.  The expanded neighborhoods of a point's subsets repeat, and an
    expanded tuple stands for one multiplicity vector over the point's
    inputs, so each distinct vector is evaluated once."""

    def __init__(self, oracle: OracleComponent) -> None:
        self.oracle = oracle
        self.target_type, self.n_types, self.f0 = oracle.target_type, oracle.n_types, oracle.f0
        self.values: dict[CellSpec, float] = {}

    def evaluate(self, x: float, inputs) -> float:
        inputs = tuple(inputs)
        value = self.values.get(inputs)
        if value is None:
            value = self.values[inputs] = self.oracle.evaluate(x, inputs)
        return value


def cmd_verify(args) -> int:
    if not 0 <= args.tol < math.inf:
        print(f"error: --tol must be non-negative and finite, got {args.tol}", file=sys.stderr)
        return 2
    net = load(args.network, parse_network)
    specs = load(args.oracle, oracle_specs_from_json)
    family_trials = min(args.trials, 1000)
    results = []
    all_ok = True
    for spec in specs:
        oracle = spec.build()
        try:
            monoids = [net.monoid_for(spec.type_index, j + 1) for j in range(oracle.n_types)]
        except SpecFormatError as exc:
            raise SpecFormatError(f"oracle for type {spec.type_index}: {exc}") from exc
        adm = admissibility_check(oracle, monoids, trials=args.trials, seed=args.seed, tol=args.tol)
        if isinstance(oracle, PolynomialOracle):
            fam = CouplingFamily.from_polynomial(oracle)
        else:
            fam = CouplingFamily.from_oracle(oracle)
        fam_report = coupling_family_check(
            fam, monoids, trials=family_trials, seed=args.seed, tol=args.tol
        )
        entry = {
            "oracle": spec.to_jsonable(),
            "admissibility": adm.to_jsonable(),
            "coupling_family": fam_report.to_jsonable(),
        }
        ok = adm.ok and fam_report.ok
        if isinstance(oracle, PolynomialOracle):
            bf = BasisFamily.polynomial(
                oracle.coeffs, n_types=oracle.n_types, f0=oracle.f0, target_type=oracle.target_type
            )
            basis_report = basis_family_check(
                bf, monoids, trials=family_trials, seed=args.seed, tol=args.tol
            )
            entry["basis_family"] = basis_report.to_jsonable()
            ok = ok and basis_report.ok
        results.append(entry)
        all_ok = all_ok and ok
    _write({"results": results, "summary": {"ok": all_ok}}, args.out)
    return 0 if all_ok else 1


def _decompose_point(oracle, x, inputs, to, bound):
    """Components at every nonempty subset of one point, grouped by type
    multi-index in increasing bitmask order.  Coupling costs 2^n oracle
    evaluations; basis costs one per distinct multiplicity vector."""
    if to == "coupling":
        values = coupling_components(oracle, x, inputs)
        internal = values[0]  # the empty subset: the isolated-cell response
    else:
        memo = _PointMemo(oracle)
        values = [basis_from_oracle_direct(memo, bound, x, subset) if subset else None
                  for subset in subsets(inputs)]
        internal = oracle.f0(x)
    groups: dict[tuple, list] = {}
    for subset, value in zip(subsets(inputs), values):
        if subset:
            groups.setdefault(type_multiindex(subset, oracle.n_types), []).append(value)
    components = [{"k": list(k), "values": groups[k]} for k in sorted(groups)]
    return {
        "x": x,
        "internal": internal,
        "components": components,
    }


def _parse_bound(text: str, oracle: OracleComponent) -> tuple[int, ...]:
    """The ``--bound`` entries, one per type.  The direct basis formula holds
    for any bound at or above the true orders, so a bound below the
    component's declared order on any axis is refused, not trusted."""
    try:
        bound = tuple(spec_int(p) for p in text.split(","))
    except ValueError:
        bound = ()
    if len(bound) != oracle.n_types or any(b < 0 for b in bound):
        raise SpecFormatError(f"--bound {text!r}: expected {oracle.n_types} comma-separated "
                              "non-negative integers, one per type")
    for j, (b, order) in enumerate(zip(bound, oracle.order_bound or ())):
        if b < order:
            raise SpecFormatError(f"--bound {text!r}: axis {j + 1} is {b}, below the "
                                  f"component's declared order {order}")
    return bound


def cmd_decompose(args) -> int:
    specs = load(args.oracle, oracle_specs_from_json)
    if len(specs) != 1:
        raise SpecFormatError(f"{args.oracle}: decompose expects exactly one oracle spec")
    oracle = specs[0].build()

    bound = _parse_bound(args.bound, oracle) if args.bound else oracle.order_bound
    if args.to == "basis" and bound is None:
        raise SpecFormatError("finite support bound required (--bound) for basis decomposition")

    parsed = load(args.points, _parse_points)
    # Refuse every point that cannot be decomposed before any evaluation.
    for i, (_, inputs) in enumerate(parsed):
        try:
            check_size_cap(inputs, EXPLICIT_SIZE_CAP)
            k_s = type_multiindex(inputs, oracle.n_types)
            if args.to == "basis" and not all(a <= b for a, b in zip(k_s, bound)):
                raise ValueError(f"neighborhood order {k_s} exceeds the declared bound {bound}")
        except ValueError as exc:
            raise type(exc)(f"{args.points}: point {i}: {exc}") from None
    points = [_decompose_point(oracle, x, inputs, args.to, bound) for x, inputs in parsed]

    report = {"oracle": specs[0].to_jsonable(), "to": args.to, "points": points}
    if oracle.coeffs is not None:
        fam = CouplingFamily.from_polynomial(oracle)
        report["coupling_order"] = {
            str(j + 1): coupling_order(fam, j + 1).order for j in range(oracle.n_types)
        }
        report["locally_maximal_orders"] = sorted(
            [list(k) for k in locally_maximal_orders(fam)]
        )
    if bound is not None:
        report["bound"] = list(bound)
    _write(report, args.out)
    return 0


def cmd_stirling(args) -> int:
    if args.max > 64:
        print(f"error: --max {args.max} exceeds the table cap of 64", file=sys.stderr)
        return 2
    report = {
        "kind": args.kind,
        "r": args.r,
        "max": args.max,
        "rows": table(args.kind, args.max, args.r),
    }
    code = 0
    if args.check:
        checks = identity_report(min(args.max, 12))
        report["checks"] = checks
        code = 0 if all(checks.values()) else 1
    _write(report, args.out)
    return code


def cmd_simulate(args) -> int:
    if not 0 < args.dt < math.inf:
        print(f"error: --dt must be positive and finite, got {args.dt}", file=sys.stderr)
        return 2
    net = load(args.network, parse_network)
    specs = load(args.oracle, oracle_specs_from_json)
    oracles = {spec.type_index: spec.build() for spec in specs}
    x0 = load(args.x0, lambda doc: _parse_x0(doc, net.cells))
    try:
        trajectory = integrate_rk4(net, oracles, x0, args.dt, args.steps)
    except DivergenceError as exc:
        _write({"error": "divergence", "step": exc.step}, args.out)
        return 1
    _write(
        {
            "dt": args.dt,
            "steps": args.steps,
            "cells": net.cells,
            "trajectory": [
                {"t": i * args.dt, "states": snap} for i, snap in enumerate(trajectory)
            ],
        },
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccndecomp",
        description="Verify and decompose admissible functions on weighted cell networks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common], help="run the property checkers on specs")
    p.add_argument("network")
    p.add_argument("oracle")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", parents=[common], help="per-point component values")
    p.add_argument("oracle")
    p.add_argument("--points", required=True)
    p.add_argument("--to", choices=["coupling", "basis"], default="coupling")
    p.add_argument("--bound", default=None, help="entrywise support bound, e.g. '2,2'")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("stirling", parents=[common], help="dump exact tables")
    p.add_argument("--kind", choices=["1", "2", "r1"], required=True)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--check", action="store_true", help="also run the identity cross-checks")
    p.set_defaults(func=cmd_stirling)

    p = sub.add_parser("simulate", parents=[common], help="fixed-step RK4 trajectory")
    p.add_argument("network")
    p.add_argument("oracle")
    p.add_argument("x0")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
