"""Seeded job generators for the three benchmark workloads.

A job is one ``ccndecomp`` CLI invocation together with the JSON input files
it reads.  Each workload is a fixed *cycle* of job size classes; the seed
draws the weights, states, graph chords and verify seeds of every job and the
order of the jobs inside a cycle, but never the size classes themselves, so
every seed runs the same mix of job sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterator

# Two-type polynomial with order bound (3,3).  It has as many coefficients as
# the expanded NESTED component below, so both cost about the same per
# evaluation and their jobs of equal size form one timing cluster.
POLY_COEFFS = {
    (1, 0): "1/2", (0, 1): "-1/4", (1, 1): "3/8", (2, 1): "1/8", (1, 2): "-1/8",
    (2, 2): "1/16", (3, 1): "1/8", (0, 3): "-1/8", (3, 3): "1/32",
}
# F(z) = z + z^2/2 + z^3/4 with z = u - v/2: order bound (3,3), nine coefficients.
NESTED_OUTER = ["1", "1/2", "1/4"]
NESTED_INNER = [["1"], ["-1/2"]]

# Components of the simulated networks: linear decay keeps trajectories bounded.
SIM_COEFFS = {
    1: {(1, 0): "1/4", (0, 1): "1/8", (2, 0): "-1/8", (1, 1): "1/16"},
    2: {(0, 1): "1/4", (1, 0): "-1/8", (0, 2): "1/8"},
}
SIM_DECAY = "-1"
SIM_STEPS = 1
SIM_DT = 0.0625

VERIFY_TRIALS = 1000
WARMUP_VERIFY_TRIALS = 100

# Size classes of one cycle, per workload.  decompose: about three quarters
# coupling jobs (n = 6..9 on each component), the rest basis jobs (n = 4, 6
# at the order bound and one above); the two n = 7 polynomial jobs appear
# twice so that the median falls in the middle of their class.  simulate: the
# two largest networks appear three times each, so the median falls inside
# the N = 1000 class and the tail percentile inside the N = 1500 class.
CYCLES: dict[str, list[tuple]] = {
    "decompose": (
        [("coupling", comp, n) for comp in ("poly", "nested", "exp") for n in (6, 7, 8, 9)]
        + [("coupling", "poly", 7), ("coupling", "nested", 7)]
        + [("basis", "poly", 4, 3), ("basis", "nested", 4, 4),
           ("basis", "nested", 6, 3), ("basis", "poly", 6, 4)]
    ),
    "verify": [("verify", "twotype"), ("verify", "exponential"), ("verify", "symmetric_power")],
    "simulate": [("simulate", n) for n in (300, 600, 1000, 1000, 1000, 1500, 1500, 1500)],
}
# One small job of each kind, run cold during set-up.
WARMUPS: dict[str, list[tuple]] = {
    "decompose": [("coupling", "poly", 6), ("basis", "nested", 4, 4)],
    "verify": [("verify", "twotype"), ("verify", "exponential"), ("verify", "symmetric_power")],
    "simulate": [("simulate", 300)],
}
# Size classes that form the slowest cluster of each workload; the runner
# keeps measuring until it has enough of them for a stable tail percentile.
TOP_CLASSES = {
    "decompose": {"coupling/poly/n9", "coupling/nested/n9", "basis/poly/n6_k4"},
    "verify": {"verify/twotype"},
    "simulate": {"simulate/N1500"},
}
WORKLOADS = tuple(CYCLES)


@dataclass
class Job:
    """One CLI invocation: ``args`` names the input files by their keys in
    ``files``; ``ref`` holds what the output checker needs."""

    kind: str
    size: str
    files: dict[str, Any]
    args: list[str]
    ref: dict[str, Any] = field(default_factory=dict)

    @property
    def size_class(self) -> str:
        return f"{self.kind}/{self.size}"


def _dyadic(rng: random.Random, lo: int, hi: int, denom: int = 8) -> float:
    return rng.randint(lo, hi) / denom


def _weight(rng: random.Random) -> float:
    """Nonzero dyadic weight in [-1, 1]."""
    return rng.choice((-1, 1)) * rng.randint(1, 8) / 8


def _coeff_doc(coeffs: dict[tuple[int, ...], str]) -> dict[str, str]:
    return {",".join(str(e) for e in k): v for k, v in coeffs.items()}


def _oracle_doc(comp: str, type_index: int = 1, f0: str = "zero") -> dict:
    if comp == "poly":
        params = {"coeffs": _coeff_doc(POLY_COEFFS)}
        family = "polynomial_multi"
    elif comp == "nested":
        params = {"outer": NESTED_OUTER, "inner": NESTED_INNER}
        family = "nested"
    else:
        params, family = {}, "exponential"
    return {"type_index": type_index, "family": family, "params": params, "f0": f0}


def _neighborhood(rng: random.Random, types: list[int]) -> list[dict]:
    rng.shuffle(types)
    return [{"type": t, "weight": _weight(rng), "state": _dyadic(rng, -8, 8)} for t in types]


def _decompose_job(rng: random.Random, to: str, comp: str, n: int, k: int | None = None) -> Job:
    if comp == "exp":
        types = [1] * n
    else:
        types = [1] * (n // 2) + [2] * (n - n // 2)
    point = {"x": _dyadic(rng, -8, 8), "neighborhood": _neighborhood(rng, types)}
    args = ["decompose", "oracle.json", "--points", "points.json", "--to", to]
    size = f"{comp}/n{n}"
    if to == "basis":
        args += ["--bound", f"{k},{k}"]
        size += f"_k{k}"
    return Job(
        kind=to,
        size=size,
        files={"oracle.json": _oracle_doc(comp), "points.json": {"points": [point]}},
        args=args,
        ref={"comp": comp, "n": n, "bound": None if k is None else (k, k)},
    )


def _monoids(n_types: int) -> dict[str, str]:
    return {f"{i},{j}": "additive_real" for i in range(1, n_types + 1) for j in range(1, n_types + 1)}


def _verify_job(rng: random.Random, spec_set: str, trials: int) -> Job:
    if spec_set == "twotype":
        n_types = 2
        oracles = [
            _oracle_doc("poly", type_index=1, f0="linear:-1"),
            _oracle_doc("nested", type_index=2, f0="linear:-1"),
        ]
    elif spec_set == "exponential":
        n_types = 1
        oracles = [_oracle_doc("exp")]
    else:
        n_types = 1
        oracles = [{"type_index": 1, "family": "symmetric_power", "params": {"n": 3, "k": 2}}]
    net = {
        "types": [{"id": t} for t in range(1, n_types + 1)],
        "monoids": _monoids(n_types),
        "cells": [{"id": f"c{t}", "type": t} for t in range(1, n_types + 1)],
        "edges": [],
    }
    seed = rng.randrange(2**31)
    return Job(
        kind="verify",
        size=spec_set,
        files={"network.json": net, "oracle.json": oracles},
        args=["verify", "network.json", "oracle.json", "--trials", str(trials), "--seed", str(seed)],
        ref={"n_specs": len(oracles)},
    )


def _simulate_job(rng: random.Random, n_cells: int) -> Job:
    """Ring edge plus two random chords into every cell (E close to 3N)."""
    cells = [{"id": f"c{i}", "type": 1 + i % 2} for i in range(n_cells)]
    edges = []
    for i in range(n_cells):
        edges.append({"to": f"c{(i + 1) % n_cells}", "from": f"c{i}",
                      "weight": _dyadic(rng, 4, 12, 32)})
        for _ in range(2):
            src = rng.randrange(n_cells - 1)
            src += src >= i
            edges.append({"to": f"c{i}", "from": f"c{src}", "weight": _dyadic(rng, 4, 12, 32)})
    net = {"types": [{"id": 1}, {"id": 2}], "monoids": _monoids(2), "cells": cells, "edges": edges}
    oracles = [
        {"type_index": t, "family": "polynomial_multi", "params": {"coeffs": _coeff_doc(c)},
         "n_types": 2, "f0": f"linear:{SIM_DECAY}"}
        for t, c in SIM_COEFFS.items()
    ]
    x0 = {c["id"]: _dyadic(rng, -8, 8) for c in cells}
    return Job(
        kind="simulate",
        size=f"N{n_cells}",
        files={"network.json": net, "oracle.json": oracles, "x0.json": x0},
        args=["simulate", "network.json", "oracle.json", "x0.json",
              "--dt", str(SIM_DT), "--steps", str(SIM_STEPS)],
        ref={"cells": n_cells, "steps": SIM_STEPS, "dt": SIM_DT},
    )


def make_job(rng: random.Random, spec: tuple, trials: int = VERIFY_TRIALS) -> Job:
    kind = spec[0]
    if kind in ("coupling", "basis"):
        return _decompose_job(rng, kind, *spec[1:])
    if kind == "verify":
        return _verify_job(rng, spec[1], trials)
    return _simulate_job(rng, spec[1])


def make_cycle(workload: str, rng: random.Random) -> Iterator[Job]:
    """One cycle of the workload's job mix, in an order drawn from ``rng``.
    Jobs are made one at a time, so only the running job's inputs are held."""
    specs = list(CYCLES[workload])
    rng.shuffle(specs)
    for spec in specs:
        yield make_job(rng, spec)


def make_warmups(workload: str, rng: random.Random) -> list[Job]:
    return [make_job(rng, spec, WARMUP_VERIFY_TRIALS) for spec in WARMUPS[workload]]
