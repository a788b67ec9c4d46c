"""Output checks for benchmark jobs, against references computed here.

Every generated weight and state is dyadic, so the polynomial references are
exact ``Fraction`` values; none of them calls into ``ccndecomp``.

- Polynomial coupling values: inclusion-exclusion over exact evaluations.
  A polynomial term factorizes over the types, so the alternating sum over
  the subsets T of S is evaluated per type:
  prod_j sum_{T_j <= S_j} (-1)^(|S_j|-|T_j|) (sum_{T_j} w*x)^(n_j).
- Exact exponential coupling values: prod_{i in S} (e^(w_i*x_i) - 1).
- Polynomial basis values: a_k * prod_j k_j! * prod_{i in S} w_i*x_i.
- Simulated final states: a sparse RK4 on per-cell in-edge lists.

Tolerance.  A float output y is accepted against its reference r when
|y - r| <= TOL * terms * scale, where ``terms`` counts the evaluations the
program sums to produce y and ``scale`` is an exact upper bound on the size of
each of them:

- coupling value at S: terms = 2^|S|; scale = sum_n |a_n| prod_j A_j^(n_j)
  with A_j the sum of |w*x| over the type-j inputs (polynomials), or
  exp(sum |w*x|) (exponential);
- basis value at S: terms = number of (subset, duplication) pairs in the
  direct r-Stirling formula at bound K; scale = sum_n |a_n| prod_j
  (K_j * B_j)^(n_j) with B_j the largest |w*x| of type j;
- simulated state: terms = 1, scale = 1 + |r|.

TOL = 2^-46 allows 2^7 units of roundoff (2^-53) per summed term.  The
largest error seen on correct outputs is below 2^-57 per term.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any

from workloads import NESTED_INNER, NESTED_OUTER, POLY_COEFFS, Job

TOL = 2.0**-46

Poly = dict[tuple[int, ...], Fraction]


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, Fraction(0)) + ca * cb
    return out


def flat_coeffs(comp: str) -> Poly:
    """Coefficient map of a two-type component, expanded exactly."""
    if comp == "poly":
        return {k: Fraction(v) for k, v in POLY_COEFFS.items()}
    width = len(NESTED_INNER)
    inner: Poly = {}
    for j, row in enumerate(NESTED_INNER):
        for degree, c in enumerate(row, start=1):
            key = tuple(degree if i == j else 0 for i in range(width))
            inner[key] = inner.get(key, Fraction(0)) + Fraction(c)
    power: Poly = {(0,) * width: Fraction(1)}
    out: Poly = {}
    for a in NESTED_OUTER:
        power = _poly_mul(power, inner)
        for k, c in power.items():
            out[k] = out.get(k, Fraction(0)) + Fraction(a) * c
    return {k: c for k, c in out.items() if c}


def _within(got: Any, want: float, tol: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= tol


def _groups(types: list[int], n_types: int) -> dict[tuple[int, ...], list[int]]:
    """Nonempty subset bitmasks grouped by type multi-index, in mask order."""
    out: dict[tuple[int, ...], list[int]] = {}
    for mask in range(1, 1 << len(types)):
        k = [0] * n_types
        for i, t in enumerate(types):
            if mask >> i & 1:
                k[t - 1] += 1
        out.setdefault(tuple(k), []).append(mask)
    return out


def _per_type_alternating_sums(ys: list[Fraction], max_degree: int) -> list[list[Fraction]]:
    """E[m][d] = sum over submasks s of m of (-1)^(|m|-|s|) (sum_{i in s} y_i)^d."""
    size = len(ys)
    sums = [sum((ys[i] for i in range(size) if m >> i & 1), Fraction(0)) for m in range(1 << size)]
    table = []
    for m in range(1 << size):
        row = [Fraction(0)] * (max_degree + 1)
        sub = m
        while True:
            sign = -1 if (bin(m).count("1") - bin(sub).count("1")) % 2 else 1
            p = Fraction(1)
            for d in range(max_degree + 1):
                row[d] += sign * p
                p *= sums[sub]
            if sub == 0:
                break
            sub = (sub - 1) & m
        table.append(row)
    return table


def coupling_reference(comp: str, inputs: list[dict]) -> tuple[list[float], list[float]]:
    """(value, tolerance) of the coupling term of every nonempty subset,
    indexed by bitmask - 1."""
    ys = [Fraction(e["weight"]) * Fraction(e["state"]) for e in inputs]
    n = len(inputs)
    if comp == "exp":
        scale = math.exp(sum(abs(float(y)) for y in ys))
        values = [math.prod(math.expm1(float(ys[i])) for i in range(n) if mask >> i & 1)
                  for mask in range(1, 1 << n)]
        tols = [TOL * (1 << bin(mask).count("1")) * scale for mask in range(1, 1 << n)]
        return values, tols

    coeffs = flat_coeffs(comp)
    n_types = len(next(iter(coeffs)))
    positions = [[i for i, e in enumerate(inputs) if e["type"] == j + 1] for j in range(n_types)]
    tables = [
        _per_type_alternating_sums([ys[i] for i in pos], max(k[j] for k in coeffs))
        for j, pos in enumerate(positions)
    ]
    scale = float(sum(
        abs(a) * math.prod(sum(abs(ys[i]) for i in positions[j]) ** k[j] for j in range(n_types))
        for k, a in coeffs.items()
    ))
    values, tols = [], []
    for mask in range(1, 1 << n):
        local = [sum(1 << b for b, i in enumerate(pos) if mask >> i & 1) for pos in positions]
        exact = sum(
            (a * math.prod(tables[j][local[j]][k[j]] for j in range(n_types))
             for k, a in coeffs.items()),
            Fraction(0),
        )
        values.append(float(exact))
        tols.append(TOL * (1 << bin(mask).count("1")) * scale)
    return values, tols


def basis_reference(comp: str, inputs: list[dict], bound: tuple[int, ...]) -> tuple[list[float], list[float]]:
    """(value, tolerance) of the basis term of every nonempty subset."""
    coeffs = flat_coeffs(comp)
    n_types = len(bound)
    ys = [Fraction(e["weight"]) * Fraction(e["state"]) for e in inputs]
    biggest = [max((abs(ys[i]) for i, e in enumerate(inputs) if e["type"] == j + 1),
                   default=Fraction(0)) for j in range(n_types)]
    scale = float(sum(
        abs(a) * math.prod((bound[j] * biggest[j]) ** k[j] for j in range(n_types))
        for k, a in coeffs.items()
    ))
    values, tols = [], []
    n = len(inputs)
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        k = tuple(sum(1 for i in members if inputs[i]["type"] == j + 1) for j in range(n_types))
        a = coeffs.get(k, Fraction(0))
        exact = a * math.prod(math.factorial(e) for e in k) * math.prod(ys[i] for i in members)
        values.append(float(exact))
        # Direct formula: every submask, every duplication m >= 1 with
        # per-type total <= K_j, i.e. comb(K_j, size_j) choices per type.
        terms = 0
        sub = mask
        while True:
            terms += math.prod(
                math.comb(bound[j], sum(1 for i in range(n) if sub >> i & 1 and inputs[i]["type"] == j + 1))
                for j in range(n_types)
            )
            if sub == 0:
                break
            sub = (sub - 1) & mask
        tols.append(TOL * terms * scale)
    return values, tols


def check_decompose(job: Job, report: dict) -> list[str]:
    point_doc = job.files["points.json"]["points"][0]
    inputs = point_doc["neighborhood"]
    comp = job.ref["comp"]
    if job.kind == "coupling":
        values, tols = coupling_reference(comp, inputs)
    else:
        values, tols = basis_reference(comp, inputs, job.ref["bound"])
    n_types = 1 if comp == "exp" else 2
    errors = []
    if report.get("to") != job.kind or len(report.get("points", [])) != 1:
        return [f"report has to={report.get('to')!r} and {len(report.get('points', []))} points"]
    point = report["points"][0]
    if point.get("x") != point_doc["x"] or point.get("internal") != 0.0:
        errors.append(f"x/internal are {point.get('x')!r}/{point.get('internal')!r}")
    groups = _groups([e["type"] for e in inputs], n_types)
    got_groups = {tuple(c["k"]): c["values"] for c in point.get("components", [])}
    if sorted(got_groups) != sorted(groups):
        return errors + [f"component indexes {sorted(got_groups)} != {sorted(groups)}"]
    for k, masks in groups.items():
        got = got_groups[k]
        if len(got) != len(masks):
            errors.append(f"k={k}: {len(got)} values for {len(masks)} subsets")
            continue
        for value, mask in zip(got, masks):
            want, tol = values[mask - 1], tols[mask - 1]
            if not _within(value, want, tol):
                errors.append(f"k={k} mask={mask:b}: got {value!r}, want {want!r} (tol {tol:.3g})")
    if job.ref["bound"] is not None and report.get("bound") != list(job.ref["bound"]):
        errors.append(f"bound {report.get('bound')!r} != {list(job.ref['bound'])}")
    return errors


def _sim_component(coeffs: dict[tuple[int, ...], float], decay: float):
    keys = sorted(coeffs)

    def evaluate(x: float, totals: list[float]) -> float:
        terms = [decay * x]
        for n in keys:
            term = coeffs[n]
            for t, e in zip(totals, n):
                if e:
                    term *= t ** e
            terms.append(term)
        return math.fsum(terms)

    return evaluate


def simulate_reference(job: Job) -> list[float]:
    """Final states of a sparse RK4 run over per-cell in-edge lists."""
    net = job.files["network.json"]
    cells = [c["id"] for c in net["cells"]]
    types = [c["type"] for c in net["cells"]]
    index = {c: i for i, c in enumerate(cells)}
    merged: list[dict[int, float]] = [{} for _ in cells]
    for e in net["edges"]:
        row = merged[index[e["to"]]]
        src = index[e["from"]]
        row[src] = row[src] + e["weight"] if src in row else float(e["weight"])
    in_edges = [[(s, types[s] - 1, w) for s, w in sorted(row.items()) if w != 0.0] for row in merged]
    comps = {}
    for spec in job.files["oracle.json"]:
        coeffs = {tuple(int(p) for p in k.split(",")): float(Fraction(v))
                  for k, v in spec["params"]["coeffs"].items()}
        comps[spec["type_index"]] = _sim_component(coeffs, float(spec["f0"].split(":")[1]))
    evaluators = [comps[t] for t in types]

    def field(state: list[float]) -> list[float]:
        out = []
        for c, edges in enumerate(in_edges):
            per_type: list[list[float]] = [[], []]
            for s, t, w in edges:
                per_type[t].append(w * state[s])
            out.append(evaluators[c](state[c], [math.fsum(v) for v in per_type]))
        return out

    dt = job.ref["dt"]
    state = [float(job.files["x0.json"][c]) for c in cells]
    for _ in range(job.ref["steps"]):
        k1 = field(state)
        k2 = field([x + 0.5 * dt * k for x, k in zip(state, k1)])
        k3 = field([x + 0.5 * dt * k for x, k in zip(state, k2)])
        k4 = field([x + dt * k for x, k in zip(state, k3)])
        state = [x + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                 for x, a, b, c, d in zip(state, k1, k2, k3, k4)]
    return state


def check_simulate(job: Job, report: dict) -> list[str]:
    cells = [c["id"] for c in job.files["network.json"]["cells"]]
    trajectory = report.get("trajectory", [])
    if report.get("cells") != cells or len(trajectory) != job.ref["steps"] + 1:
        return [f"report has {len(report.get('cells', []))} cells and {len(trajectory)} snapshots"]
    final = trajectory[-1]["states"]
    errors = []
    for cell, want in zip(cells, simulate_reference(job)):
        got = final.get(cell)
        if not _within(got, want, TOL * (1.0 + abs(want))):
            errors.append(f"cell {cell}: got {got!r}, want {want!r}")
    return errors


def verify_trials(report: dict) -> int:
    """Randomized probes of a verify job: the sum of the ``trials`` fields of
    its admissibility, coupling-family and basis-family reports."""
    return sum(
        entry[part]["trials"]
        for entry in report["results"]
        for part in ("admissibility", "coupling_family", "basis_family")
        if part in entry
    )


def check_verify(job: Job, report: dict) -> list[str]:
    if report.get("summary", {}).get("ok") is not True:
        return ["summary.ok is not true"]
    if len(report.get("results", [])) != job.ref["n_specs"]:
        return [f"{len(report.get('results', []))} results for {job.ref['n_specs']} specs"]
    return []


CHECKERS = {
    "coupling": check_decompose,
    "basis": check_decompose,
    "verify": check_verify,
    "simulate": check_simulate,
}


def check(job: Job, code: Any, stdout: str, stderr: str) -> tuple[list[str], int]:
    """Errors in one job's result (empty when it succeeded) and the work it
    completed: decomposed points, verify trials or cell x RK4 steps."""
    if code != 0:
        return [f"exit code {code!r}: {stderr.strip()[-500:]}"], 0
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"], 0
    try:
        errors = CHECKERS[job.kind](job, report)
        if errors:
            return errors, 0
        if job.kind == "verify":
            return errors, verify_trials(report)
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"], 0
    if job.kind == "simulate":
        return errors, job.ref["cells"] * job.ref["steps"]
    return errors, 1
