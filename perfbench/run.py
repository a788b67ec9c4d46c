"""Benchmark of ccndecomp CLI jobs: decompose, verify and simulate.

Run from the repository root:

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each run is one closed-loop client in one process and one thread: it imports
``ccndecomp`` from ``./src``, generates the jobs' JSON inputs from ``--seed``
and calls ``ccndecomp.cli.main(argv)`` on them back to back.  Every job's
output is checked against a reference outside the timed interval.

``--trace 0`` measures whole cycles of the workload's job mix for at least
``--seconds`` of job time (and until the slowest size class has enough jobs
for the tail percentile) and reports the end-to-end metrics.  ``--trace 1``
runs one cycle traced and then untraced, reports the per-layer metrics, and
requires the two outputs of every job to be byte-identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import reference
import spans
import workloads

PACKAGE = spans.PACKAGE
SETUP_REPEATS = 9
TAIL_BEYOND = 10
MIN_TOP_JOBS = 16  # slowest-class jobs per run; the tail sits 11th from the top
WALL_LIMIT_S = 120.0
RUN_TIMEOUT_S = 180

WORK_NAMES = {"decompose": "points_per_s", "verify": "trials_per_s", "simulate": "cell_steps_per_s"}


@dataclass
class Result:
    size_class: str
    job: workloads.Job | None
    elapsed: float
    stdout: str
    errors: list[str] = field(default_factory=list)
    work: int = 0


def fresh_import(src: Path):
    """Import ``ccndecomp.cli`` from ``src`` with no module of the package
    left over from an earlier import, so module state (the Stirling caches
    included) starts cold."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    cli = importlib.import_module(f"{PACKAGE}.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"{PACKAGE} was imported from {cli.__file__}, not from {src}")
    return cli


def write_inputs(job: workloads.Job, workdir: Path) -> list[str]:
    for name, doc in job.files.items():
        (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
    return [str(workdir / a) if a in job.files else a for a in job.args]


def run_cli(cli, argv: list[str]) -> tuple[float, Any, str, str]:
    """One in-process CLI call: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a raising job is a failed job; keep measuring
            code = "raised"
            traceback.print_exc()
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def run_checked(cli, job: workloads.Job, workdir: Path) -> Result:
    argv = write_inputs(job, workdir)
    elapsed, code, stdout, stderr = run_cli(cli, argv)
    errors, work = reference.check(job, code, stdout, stderr)
    return Result(job.size_class, job, elapsed, stdout, errors, work)


def set_up(src: Path, workload: str, seed: int, workdir: Path):
    """Import the package and run one cold warm-up job of each job kind,
    SETUP_REPEATS times from a clean module state.  Returns the loaded CLI
    module, the set-up times and the errors of the last warm-up jobs."""
    warmups = workloads.make_warmups(workload, random.Random(f"warmup-{seed}"))
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        cli = fresh_import(src)
        elapsed = perf_counter() - start
        outputs = []
        for job in warmups:
            seconds, code, stdout, stderr = run_cli(cli, write_inputs(job, workdir))
            elapsed += seconds
            outputs.append((job, code, stdout, stderr))
        times.append(elapsed)
    errors = []
    for job, code, stdout, stderr in outputs:
        job_errors = reference.check(job, code, stdout, stderr)[0]
        if job_errors:
            errors.append(f"warm-up {job.size_class}: {'; '.join(job_errors[:3])}")
    return cli, times, errors


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs
    beyond it; the largest time when there are fewer jobs."""
    ordered = sorted(times)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def timed(cli, workload: str, rng: random.Random, seconds: float, workdir: Path) -> list[Result]:
    """Whole cycles of the job mix, back to back, until ``seconds`` of job
    time are measured and the slowest size classes have MIN_TOP_JOBS jobs.
    Inputs and reports are kept for the first cycle only, so that the
    benchmark's own memory stays out of the peak RSS."""
    results: list[Result] = []
    measured, top, wall_start = 0.0, 0, perf_counter()
    top_classes = workloads.TOP_CLASSES[workload]
    first_cycle = len(workloads.CYCLES[workload])
    while True:
        for job in workloads.make_cycle(workload, rng):
            result = run_checked(cli, job, workdir)
            if len(results) >= first_cycle:
                result.job, result.stdout = None, ""
            results.append(result)
            measured += result.elapsed
            top += job.size_class in top_classes
        if (measured >= seconds and top >= MIN_TOP_JOBS) or perf_counter() - wall_start > WALL_LIMIT_S:
            return results


def repeat_check(cli, results: list[Result], workdir: Path) -> None:
    """Re-run the first cycle's verify jobs; a report that differs for the
    same seed fails the original job."""
    for result in results[:len(workloads.CYCLES["verify"])]:
        _, _, stdout, _ = run_cli(cli, write_inputs(result.job, workdir))
        if stdout != result.stdout:
            result.errors.append("report differs when the job is repeated with the same seed")


def end_to_end(workload: str, setup_times: list[float], results: list[Result]) -> dict:
    times = [r.elapsed for r in results]
    tail_s, pct = tail(times)
    failed = sum(1 for r in results if r.errors)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} set-ups: import + {len(workloads.WARMUPS[workload])} cold warm-up jobs"),
        "job_p50_s": (statistics.median(times), "s", f"{len(times)} jobs"),
        "job_tail_s": (tail_s, "s", f"p{pct:.1f}, {TAIL_BEYOND} of {len(times)} jobs beyond it"),
        "work_per_s": (sum(r.work for r in results) / sum(times), "1/s", "work_per_s in the JSON"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "ru_maxrss"),
    }
    for name, (value, unit, note) in metrics.items():
        label = WORK_NAMES[workload] if name == "work_per_s" else name
        print(f"{workload:9} {label:16} {value:12.6g} {unit:5} {note}")
    print(f"{workload:9} {'failed_frac':16} {failed / len(results):12.6g} {'':5} {failed} of {len(results)} jobs")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def per_layer_names() -> list[str]:
    """Per-layer metric names, including the per-size-class cost counts."""
    coupling_ns = sorted({s[2] for s in workloads.CYCLES["decompose"] if s[0] == "coupling"})
    basis_nk = sorted({(s[2], s[3]) for s in workloads.CYCLES["decompose"] if s[0] == "basis"})
    cells = sorted({s[1] for s in workloads.CYCLES["simulate"]})
    return (
        list(LAYER_UNITS)
        + [f"coupling.evals_per_point.n{n}" for n in coupling_ns]
        + [f"basis.evals_per_direct_call.n{n}_k{k}" for n, k in basis_nk]
        + [f"network.slots_scanned.N{n}" for n in cells]
    )


LAYER_UNITS = {
    "multiindex.iter_calls": "count", "multiindex.yielded": "count", "multiindex.iter_s": "s",
    "stirling.coefficient_c_calls": "count", "stirling.coefficient_c_s": "s",
    "stirling.cache_hit_ratio": "ratio", "stirling.setup_cache_misses": "count",
    "monoid.sample_calls": "count", "monoid.sample_s": "s",
    "oracle.evaluate_calls": "count", "oracle.evaluate_self_s": "s",
    "oracle.inputs_per_call": "count", "oracle.admissibility_self_s": "s",
    "coupling.explicit_calls": "count", "coupling.explicit_self_s": "s",
    "coupling.closed_form_calls": "count", "coupling.closed_form_self_s": "s",
    "coupling.family_check_self_s": "s",
    "basis.direct_calls": "count", "basis.direct_self_s": "s", "basis.family_check_self_s": "s",
    "network.in_neighborhood_calls": "count", "network.in_neighborhood_self_s": "s",
    "network.slots_scanned": "count", "network.scan_useful_ratio": "ratio",
    "network.vector_field_self_s": "s", "network.rk4_self_s": "s", "network.parse_s": "s",
    "cli.self_s": "s", "cli.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio", "trace.missing_hooks": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced(cli, workload: str, rng: random.Random, workdir: Path, setup_misses: int) -> tuple[list[Result], dict]:
    """One cycle traced, then the same cycle untraced.  Counts are totals
    over the cycle; times are total or self seconds over the cycle."""
    cycle = list(workloads.make_cycle(workload, rng))
    cache_before = spans.stirling_cache_stats()
    tracer = spans.Tracer()
    tracer.install()
    per_job = []
    traced_results = []
    try:
        for job in cycle:
            before = (tracer.calls["oracle.evaluate"], tracer.calls["basis.direct"],
                      tracer.counters["network.slots_scanned"])
            traced_results.append(run_checked(cli, job, workdir))
            after = (tracer.calls["oracle.evaluate"], tracer.calls["basis.direct"],
                     tracer.counters["network.slots_scanned"])
            per_job.append((job, *(b - a for a, b in zip(before, after))))
    finally:
        tracer.uninstall()
    cache_after = spans.stirling_cache_stats()
    plain = [run_checked(cli, job, workdir) for job in cycle]
    for t, p in zip(traced_results, plain):
        if t.stdout != p.stdout:
            t.errors.append("traced and untraced reports differ")

    calls, total, self_time, counters = tracer.calls, tracer.total, tracer.self_time, tracer.counters
    hits = misses = 0
    if cache_before is not None and cache_after is not None:
        hits, misses = (a - b for a, b in zip(cache_after, cache_before))
    values = {
        "multiindex.iter_calls": calls["multiindex.iter"],
        "multiindex.yielded": counters["multiindex.yielded"],
        "multiindex.iter_s": total["multiindex.iter"],
        "stirling.coefficient_c_calls": calls["stirling.coefficient_c"],
        "stirling.coefficient_c_s": total["stirling.coefficient_c"],
        "stirling.cache_hit_ratio": _ratio(hits, hits + misses),
        "stirling.setup_cache_misses": setup_misses,
        "monoid.sample_calls": calls["monoid.sample"],
        "monoid.sample_s": total["monoid.sample"],
        "oracle.evaluate_calls": calls["oracle.evaluate"],
        "oracle.evaluate_self_s": self_time["oracle.evaluate"],
        "oracle.inputs_per_call": _ratio(counters["oracle.inputs"], calls["oracle.evaluate"]),
        "oracle.admissibility_self_s": self_time["oracle.admissibility"],
        "coupling.explicit_calls": calls["coupling.explicit"],
        "coupling.explicit_self_s": self_time["coupling.explicit"],
        "coupling.closed_form_calls": calls["coupling.closed_form"],
        "coupling.closed_form_self_s": self_time["coupling.closed_form"],
        "coupling.family_check_self_s": self_time["coupling.family_check"],
        "basis.direct_calls": calls["basis.direct"],
        "basis.direct_self_s": self_time["basis.direct"],
        "basis.family_check_self_s": self_time["basis.family_check"],
        "network.in_neighborhood_calls": calls["network.in_neighborhood"],
        "network.in_neighborhood_self_s": self_time["network.in_neighborhood"],
        "network.slots_scanned": counters["network.slots_scanned"],
        "network.scan_useful_ratio": _ratio(counters["network.edges_returned"],
                                            counters["network.slots_scanned"]),
        "network.vector_field_self_s": self_time["network.vector_field"],
        "network.rk4_self_s": self_time["network.rk4"],
        "network.parse_s": total["network.parse"],
        "cli.self_s": self_time["cli.main"],
        "cli.report_bytes": sum(len(r.stdout.encode()) for r in traced_results),
        "trace.overhead_ratio": _ratio(statistics.median(r.elapsed for r in traced_results),
                                       statistics.median(r.elapsed for r in plain)),
        "trace.missing_hooks": len(tracer.missing),
    }
    # Cost counts per size class: evaluations per decomposed point (one
    # point per job), evaluations per direct basis call, slots per job.
    classes: dict[str, list[tuple[int, int]]] = {}
    for job, evals, direct, slots in per_job:
        if job.kind == "coupling":
            classes.setdefault(f"coupling.evals_per_point.n{job.ref['n']}", []).append((evals, 1))
        elif job.kind == "basis":
            name = f"basis.evals_per_direct_call.n{job.ref['n']}_k{job.ref['bound'][0]}"
            classes.setdefault(name, []).append((evals, direct))
        elif job.kind == "simulate":
            classes.setdefault(f"network.slots_scanned.N{job.ref['cells']}", []).append((slots, 1))
    for name in per_layer_names():
        if name not in values:
            pairs = classes.get(name, [])
            values[name] = _ratio(sum(p[0] for p in pairs), sum(p[1] for p in pairs))
    units = {name: LAYER_UNITS.get(name, "count") for name in per_layer_names()}
    for name in per_layer_names():
        print(f"{workload:9} {name:38} {values[name]:14.6g} {units[name]}")
    if tracer.missing:
        print(f"{workload:9} missing hooks: {', '.join(tracer.missing)}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in per_layer_names()}
    return traced_results + plain, metrics


def run_workload(args) -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work_root = root / "perfbench" / ".work"
    work_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        cli, setup_times, errors = set_up(src, args.workload, args.seed, workdir)
        rng = random.Random(args.seed)
        if args.trace:
            cache = spans.stirling_cache_stats()
            results, metrics = traced(cli, args.workload, rng, workdir, cache[1] if cache else 0)
        else:
            results = timed(cli, args.workload, rng, args.seconds, workdir)
            if args.workload == "verify":
                repeat_check(cli, results, workdir)
            metrics = end_to_end(args.workload, setup_times, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    failed = [r for r in results if r.errors]
    for r in failed[:5]:
        print(f"FAILED {r.size_class}: {'; '.join(r.errors[:3])}", file=sys.stderr)
    for e in errors:
        print(f"FAILED {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed and not errors,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter; prints their metric lines."""
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines or not json.loads(lines[-1]).get("correct"):
            print(f"{workload}: run failed (exit code {proc.returncode})", file=sys.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
