"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _cycle(workload: str, seed: int) -> list[workloads.Job]:
    return list(workloads.make_cycle(workload, random.Random(seed)))


def _inputs(jobs: list[workloads.Job]) -> list:
    return [(job.size_class, job.args, json.dumps(job.files, sort_keys=True)) for job in jobs]


def test_generator_is_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        assert _inputs(_cycle(workload, 11)) == _inputs(_cycle(workload, 11))
        assert _inputs(_cycle(workload, 11)) != _inputs(_cycle(workload, 12))


def test_size_mix_does_not_depend_on_seed():
    for workload in workloads.WORKLOADS:
        mixes = {
            tuple(sorted(Counter(job.size_class for job in _cycle(workload, seed)).items()))
            for seed in range(5)
        }
        assert len(mixes) == 1
        (mix,) = mixes
        assert sum(count for _, count in mix) == len(workloads.CYCLES[workload])


def test_checker_counts_a_perturbed_value_as_a_failure(tmp_path):
    cli = run.fresh_import(ROOT / "src")
    jobs = [job for job in _cycle("decompose", 3) if job.size in ("poly/n6", "exp/n6", "poly/n4_k3")]
    assert len(jobs) == 3
    for job in jobs:
        _, code, stdout, stderr = run.run_cli(cli, run.write_inputs(job, tmp_path))
        assert reference.check(job, code, stdout, stderr) == ([], 1)
        report = json.loads(stdout)
        values = report["points"][0]["components"][-1]["values"]
        values[0] += 1e-6 * max(1.0, abs(values[0]))
        errors, work = reference.check(job, 0, json.dumps(report), "")
        assert len(errors) == 1 and work == 0

    (job,) = [job for job in _cycle("simulate", 3) if job.size == "N300"]
    _, code, stdout, stderr = run.run_cli(cli, run.write_inputs(job, tmp_path))
    assert reference.check(job, code, stdout, stderr)[0] == []
    report = json.loads(stdout)
    final = report["trajectory"][-1]["states"]
    final["c7"] = final["c7"] * (1 + 1e-6)
    assert len(reference.check(job, 0, json.dumps(report), "")[0]) == 1


def test_benchmark_json_lists_every_reported_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def _traced_metrics(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stderr
    return result["metrics"]


def test_per_layer_counts_repeat_across_traced_runs():
    units = run.LAYER_UNITS
    for workload in workloads.WORKLOADS:
        first, second = _traced_metrics(workload, 5), _traced_metrics(workload, 5)
        counts = [name for name in run.per_layer_names()
                  if units.get(name, "count") != "s" and name != "trace.overhead_ratio"]
        assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
        assert first["trace.missing_hooks"]["value"] == 0
