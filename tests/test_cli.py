import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ccndecomp
from ccndecomp.cli import build_parser, main
from ccndecomp.oracle import oracle_specs_from_json


def run(args):
    return main([str(a) for a in args])


def load(path):
    return json.loads(path.read_text())


@pytest.fixture(scope="session")
def run_cli(tmp_path_factory):
    """Runs the CLI in a child process.  The children of one test session
    share a bytecode cache outside the source tree, so only the first one
    compiles the package and the standard library modules it imports."""
    env = dict(os.environ, PYTHONPATH=str(Path(ccndecomp.__file__).parents[1]),
               PYTHONPYCACHEPREFIX=str(tmp_path_factory.mktemp("pycache")))
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(*args):
        return subprocess.run([sys.executable, "-m", "ccndecomp.cli", *map(str, args)],
                              capture_output=True, text=True, env=env, timeout=60)

    return run


def test_verify_passes_clean_spec(data_dir, tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", data_dir / "net_single.json", data_dir / "oracle_power2.json",
                "--trials", 400, "--out", out])
    assert code == 0
    report = load(out)
    assert report["summary"]["ok"] is True
    checks = report["results"][0]["admissibility"]["checks"]
    assert checks == {
        "determinism": True,
        "merge": True,
        "permutation": True,
        "zero_removal": True,
    }


def test_verify_two_type_spec(data_dir, tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", data_dir / "net_twotype.json", data_dir / "oracle_twotype.json",
                "--trials", 300, "--out", out])
    assert code == 0
    assert load(out)["summary"]["ok"] is True


def test_verify_flags_merge_violation_under_bool_weights(data_dir, tmp_path):
    # a squared-coupling response cannot merge OR-combined weights
    out = tmp_path / "report.json"
    code = run(["verify", data_dir / "net_bool.json", data_dir / "oracle_power2.json",
                "--trials", 400, "--out", out])
    assert code == 1
    report = load(out)
    result = report["results"][0]
    assert result["admissibility"]["checks"]["merge"] is False
    witness = result["admissibility"]["counterexamples"][0]
    assert witness["property"] == "merge"
    assert "lhs" in witness and "rhs" in witness


def test_verify_malformed_json_is_usage_error(tmp_path, data_dir, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run(["verify", bad, data_dir / "oracle_power2.json"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_decompose_worked_example(data_dir, tmp_path):
    out = tmp_path / "decomp.json"
    code = run(["decompose", data_dir / "oracle_power2.json",
                "--points", data_dir / "points_power2.json", "--out", out])
    assert code == 0
    report = load(out)
    point = report["points"][0]
    by_k = {tuple(c["k"]): c["values"] for c in point["components"]}
    assert by_k[(1,)] == [4.0, 9.0]
    assert by_k[(2,)] == [12.0]
    assert report["coupling_order"] == {"1": 2}
    assert report["locally_maximal_orders"] == [[2]]


def test_decompose_to_basis(data_dir, tmp_path):
    out = tmp_path / "basis.json"
    code = run(["decompose", data_dir / "oracle_power2.json",
                "--points", data_dir / "points_power2.json", "--to", "basis", "--out", out])
    assert code == 0
    point = load(out)["points"][0]
    by_k = {tuple(c["k"]): c["values"] for c in point["components"]}
    # pure quadratic: first-order basis components vanish, the pair term is
    # 2! * (1*2) * (3*1)
    assert by_k[(1,)] == pytest.approx([0.0, 0.0], abs=1e-9)
    assert by_k[(2,)] == pytest.approx([12.0], abs=1e-9)


def test_decompose_basis_requires_bound_for_blackbox(data_dir, capsys):
    code = run(["decompose", data_dir / "oracle_exponential.json",
                "--points", data_dir / "points_power2.json", "--to", "basis"])
    assert code == 2
    assert "finite support bound required" in capsys.readouterr().err


def test_decompose_empty_neighborhood(data_dir, tmp_path):
    points = tmp_path / "pts.json"
    points.write_text(json.dumps({"points": [{"x": 1.5, "neighborhood": []}]}))
    out = tmp_path / "out.json"
    assert run(["decompose", data_dir / "oracle_decay.json", "--points", points, "--out", out]) == 0
    point = load(out)["points"][0]
    assert point["components"] == []
    assert point["internal"] == -1.5


def test_stirling_table_and_check(tmp_path):
    out = tmp_path / "table.json"
    assert run(["stirling", "--kind", "1", "--max", 5, "--out", out]) == 0
    assert load(out)["rows"][5] == [0, 24, 50, 35, 10, 1]

    assert run(["stirling", "--kind", "r1", "--r", 2, "--max", 3, "--out", out]) == 0
    assert load(out)["rows"][2] == [0, 0, 1]

    assert run(["stirling", "--kind", "2", "--max", 12, "--check", "--out", out]) == 0
    assert all(load(out)["checks"].values())


def test_stirling_cap(capsys):
    assert run(["stirling", "--kind", "1", "--max", 65]) == 2
    assert "cap" in capsys.readouterr().err


def test_simulate_decay(data_dir, tmp_path):
    import math

    out = tmp_path / "traj.json"
    code = run(["simulate", data_dir / "net_decay.json", data_dir / "oracle_decay.json",
                data_dir / "x0_decay.json", "--dt", 0.1, "--steps", 10, "--out", out])
    assert code == 0
    traj = load(out)["trajectory"]
    assert traj[0]["states"]["u"] == 1.0
    assert abs(traj[-1]["states"]["u"] - math.exp(-1.0)) < 1e-6


def test_simulate_rejects_bad_dt(data_dir, capsys):
    for dt in (0, "nan", "inf"):
        code = run(["simulate", data_dir / "net_decay.json", data_dir / "oracle_decay.json",
                    data_dir / "x0_decay.json", "--dt", dt, "--steps", 5])
        assert code == 2
        assert "--dt" in capsys.readouterr().err


def test_simulate_divergence_exit(data_dir, tmp_path):
    oracle = tmp_path / "blowup.json"
    oracle.write_text(json.dumps({
        "type_index": 1, "family": "polynomial", "params": {"coeffs": {"3": "1000"}}, "f0": "zero",
    }))
    net = tmp_path / "net.json"
    net.write_text(json.dumps({
        "types": [{"id": 1}],
        "monoids": {"1,1": "additive_real"},
        "cells": [{"id": "u", "type": 1}],
        "edges": [{"to": "u", "from": "u", "weight": 1.0}],
    }))
    x0 = tmp_path / "x0.json"
    x0.write_text(json.dumps({"u": 10.0}))
    out = tmp_path / "out.json"
    code = run(["simulate", net, oracle, x0, "--dt", 1.0, "--steps", 50, "--out", out])
    assert code == 1
    report = load(out)
    assert report["error"] == "divergence" and report["step"] >= 1


def test_reports_are_byte_identical_across_runs(data_dir, tmp_path):
    pairs = [
        (["verify", data_dir / "net_single.json", data_dir / "oracle_power2.json",
          "--trials", 300], "verify"),
        (["decompose", data_dir / "oracle_power2.json",
          "--points", data_dir / "points_power2.json"], "decompose"),
        (["stirling", "--kind", "1", "--max", 8], "stirling"),
        (["simulate", data_dir / "net_decay.json", data_dir / "oracle_decay.json",
          data_dir / "x0_decay.json", "--dt", 0.05, "--steps", 20], "simulate"),
    ]
    for args, name in pairs:
        a = tmp_path / f"{name}_a.json"
        b = tmp_path / f"{name}_b.json"
        run(list(args) + ["--out", a])
        run(list(args) + ["--out", b])
        assert a.read_bytes() == b.read_bytes(), name


def test_shipped_specs_round_trip(data_dir):
    for spec_file in sorted(data_dir.glob("oracle_*.json")):
        doc = json.loads(spec_file.read_text())
        specs = oracle_specs_from_json(doc)
        again = oracle_specs_from_json([s.to_jsonable() for s in specs])
        assert again == specs, spec_file.name


GOLDEN_DECOMPOSE = [
    ("oracle_power2.json", "points_power2.json", [], "power2_coupling.json"),
    ("oracle_power2.json", "points_power2.json", ["--to", "basis"], "power2_basis.json"),
    ("oracle_poly2.json", "points_twotype_n8.json", [], "poly2_twotype_n8_coupling.json"),
    ("oracle_poly2.json", "points_twotype_n8.json", ["--to", "basis", "--bound", "4,4"],
     "poly2_twotype_n8_basis.json"),
]


@pytest.mark.parametrize("oracle,points,extra,golden", GOLDEN_DECOMPOSE,
                         ids=[g[3].removesuffix(".json") for g in GOLDEN_DECOMPOSE])
def test_decompose_reports_match_golden(data_dir, tmp_path, oracle, points, extra, golden):
    out = tmp_path / "report.json"
    code = run(["decompose", data_dir / oracle, "--points", data_dir / points, *extra,
                "--out", out])
    assert code == 0
    assert out.read_bytes() == (data_dir / "golden" / golden).read_bytes()


# Frozen before the closed-form coupling component and the subset
# enumeration were rewritten.  The failing bool_or case and the exact
# (--tol 0) two-type case record counterexamples, so their lhs/rhs floats pin
# component values bit for bit, not only the pass flags.
GOLDEN_VERIFY = [
    ("net_twotype.json", "oracle_twotype.json", [], "twotype_verify.json"),
    ("net_single.json", "oracle_power2.json", [], "power2_verify.json"),
    ("net_single.json", "oracle_exponential.json", [], "exponential_verify.json"),
    ("net_bool.json", "oracle_power2.json", [], "bool_power2_verify.json"),
    ("net_twotype.json", "oracle_poly2.json", ["--tol", 0], "poly2_twotype_exact_verify.json"),
]


@pytest.mark.parametrize("net,oracle,extra,golden", GOLDEN_VERIFY,
                         ids=[g[3].removesuffix(".json") for g in GOLDEN_VERIFY])
def test_verify_reports_match_golden(data_dir, tmp_path, net, oracle, extra, golden):
    out = tmp_path / "report.json"
    code = run(["verify", data_dir / net, data_dir / oracle, "--seed", 7, "--trials", 300,
                *extra, "--out", out])
    expected = (data_dir / "golden" / golden).read_bytes()
    assert code == (0 if json.loads(expected)["summary"]["ok"] else 1)
    assert out.read_bytes() == expected


@pytest.mark.parametrize("to", ["coupling", "basis"])
def test_decompose_refuses_oversized_point_up_front(data_dir, tmp_path, capsys, to):
    points = tmp_path / "pts.json"
    big = [{"type": 1, "weight": 1.0, "state": 0.5}] * 21
    points.write_text(json.dumps({"points": [{"x": 0.0, "neighborhood": big}]}))
    start = time.perf_counter()
    code = run(["decompose", data_dir / "oracle_power2.json", "--points", points,
                "--to", to, "--bound", "21"])
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert "neighborhood of size 21 exceeds cap 20" in capsys.readouterr().err


def _entry(**drop):
    entry = {"type": 1, "weight": 1.0, "state": 2.0}
    for key in drop:
        del entry[key]
    return entry


MALFORMED_POINTS = [
    ("missing_type", {"points": [{"x": 0.0, "neighborhood": [_entry(type=1)]}]}, "'type'"),
    ("missing_weight", {"points": [{"x": 0.0, "neighborhood": [_entry(weight=1)]}]}, "'weight'"),
    ("missing_state", {"points": [{"x": 0.0, "neighborhood": [_entry(state=1)]}]}, "'state'"),
    ("neighborhood_not_list", {"points": [{"x": 0.0, "neighborhood": {"type": 1}}]},
     "point 0: bad 'neighborhood' value {'type': 1}"),
    ("entry_not_object", {"points": [{"neighborhood": [3]}]},
     "point 0: neighborhood entry must be an object, got int"),
    ("point_not_object", {"points": [7]}, "must be an object"),
    ("points_not_list", {"points": 5}, "points document: bad 'points' value 5"),
    ("bad_state", {"points": [{"neighborhood": [dict(_entry(), state="hot")]}]},
     "point 0: neighborhood entry: bad 'state' value 'hot'"),
    ("bad_x", {"points": [{"x": [1], "neighborhood": []}]}, "point 0"),
    ("fractional_type", {"points": [{"neighborhood": [dict(_entry(), type=1.5)]}]},
     "neighborhood entry: bad 'type' value 1.5"),
    ("weight_list", {"points": [{"neighborhood": [dict(_entry(), weight=[1, 2])]}]},
     "neighborhood entry: bad 'weight' value [1, 2]"),
    ("weight_string", {"points": [{"neighborhood": [dict(_entry(), weight="a")]}]},
     "neighborhood entry: bad 'weight' value 'a'"),
    ("weight_null", {"points": [{"neighborhood": [dict(_entry(), weight=None)]}]},
     "neighborhood entry: bad 'weight' value None"),
    ("weight_bool", {"points": [{"neighborhood": [dict(_entry(), weight=True)]}]},
     "neighborhood entry: bad 'weight' value True"),
    ("weight_infinity", {"points": [{"neighborhood": [dict(_entry(), weight=float("inf"))]}]},
     "neighborhood entry: bad 'weight' value inf"),
    ("x_infinity", {"points": [{"x": float("-inf"), "neighborhood": []}]},
     "point 0: bad 'x' value -inf"),
    ("state_nan", {"points": [{"neighborhood": [dict(_entry(), state=float("nan"))]}]},
     "neighborhood entry: bad 'state' value nan"),
    ("x_bool", {"points": [{"x": True, "neighborhood": []}]}, "point 0: bad 'x' value True"),
    ("state_numeric_string", {"points": [{"neighborhood": [dict(_entry(), state="1.5")]}]},
     "neighborhood entry: bad 'state' value '1.5'"),
]


@pytest.mark.parametrize("doc,message", [m[1:] for m in MALFORMED_POINTS],
                         ids=[m[0] for m in MALFORMED_POINTS])
def test_decompose_malformed_points_is_usage_error(run_cli, data_dir, tmp_path, doc, message):
    points = tmp_path / "pts.json"
    points.write_text(json.dumps(doc))
    proc = run_cli("decompose", data_dir / "oracle_power2.json", "--points", points)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
    assert str(points) in proc.stderr


CUBIC = {"family": "polynomial", "params": {"coeffs": {"1": "1", "3": "1"}}}
BAD_BOUNDS = [
    ("below_order", "1", "--bound '1': axis 1 is 1, below the component's declared order 3"),
    ("one_below_order", "2", "--bound '2': axis 1 is 2, below the component's declared order 3"),
    ("fractional", "1.5", "--bound '1.5': expected 1 comma-separated non-negative integers"),
    ("negative", "-3", "--bound '-3': expected 1 comma-separated non-negative integers"),
    ("too_many_axes", "3,3", "--bound '3,3': expected 1 comma-separated"),
]


def _cubic_files(tmp_path, entry):
    oracle, points = tmp_path / "cubic.json", tmp_path / "pts.json"
    oracle.write_text(json.dumps(CUBIC))
    points.write_text(json.dumps({"points": [{"x": 0.0, "neighborhood": [entry]}]}))
    return oracle, points


@pytest.mark.parametrize("bound,message", [b[1:] for b in BAD_BOUNDS],
                         ids=[b[0] for b in BAD_BOUNDS])
def test_decompose_bound_is_checked(tmp_path, capsys, bound, message):
    oracle, points = _cubic_files(tmp_path, _entry())
    assert run(["decompose", oracle, "--points", points, "--to", "basis", "--bound", bound]) == 2
    out, err = capsys.readouterr()
    assert message in err and out == ""


@pytest.mark.parametrize("bound", ["1", "1.5"])
def test_decompose_bad_bound_exits_2_without_traceback(run_cli, tmp_path, bound):
    oracle, points = _cubic_files(tmp_path, _entry())
    proc = run_cli("decompose", oracle, "--points", points, "--to", "basis", "--bound", bound)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"--bound {bound!r}" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("bound", [None, "3", "4"])
def test_decompose_valid_bound_gives_the_basis_value(tmp_path, bound):
    oracle, points = _cubic_files(tmp_path, _entry())
    out = tmp_path / "out.json"
    extra = [] if bound is None else ["--bound", bound]
    assert run(["decompose", oracle, "--points", points, "--to", "basis", *extra,
                "--out", out]) == 0
    # w * state = 2; only the linear term has a first-order basis component
    assert load(out)["points"][0]["components"] == [{"k": [1], "values": [2.0]}]


def test_report_with_non_finite_value_is_refused(tmp_path, capsys):
    oracle, points = _cubic_files(tmp_path, dict(_entry(), weight=1e200, state=1e200))
    assert run(["decompose", oracle, "--points", points]) == 2
    out, err = capsys.readouterr()
    assert "Out of range float values are not JSON compliant" in err and out == ""


GOLDEN_SIMULATE = [
    ("net_decay.json", "oracle_decay.json", "x0_decay.json", ["--dt", 0.05, "--steps", 20],
     "decay_simulate.json"),
    ("net_twotype.json", "oracle_twotype.json", "x0_twotype.json", ["--dt", 0.1, "--steps", 10],
     "twotype_simulate.json"),
    # 200-cell two-type ring, E close to 3N, with parallel edges, a pair that
    # cancels to zero, an explicit zero weight and a self-loop
    ("net_ring200.json", "oracle_ring.json", "x0_ring200.json", ["--dt", 0.0625, "--steps", 5],
     "ring200_simulate.json"),
]


@pytest.mark.parametrize("net,oracle,x0,extra,golden", GOLDEN_SIMULATE,
                         ids=[g[4].removesuffix(".json") for g in GOLDEN_SIMULATE])
def test_simulate_reports_match_golden(data_dir, tmp_path, net, oracle, x0, extra, golden):
    out = tmp_path / "traj.json"
    code = run(["simulate", data_dir / net, data_dir / oracle, data_dir / x0, *extra,
                "--out", out])
    assert code == 0
    assert out.read_bytes() == (data_dir / "golden" / golden).read_bytes()


def _decay_net(**changes):
    doc = {
        "types": [{"id": 1}],
        "monoids": {"1,1": "additive_real"},
        "cells": [{"id": "u", "type": 1}],
        "edges": [{"to": "u", "from": "u", "weight": 0.5}],
    }
    doc.update(changes)
    return doc


MALFORMED_NETWORKS = [
    ("type_missing_id", _decay_net(types=[{"state_dim": 1}]), "types[0] is missing 'id'"),
    ("type_bad_id", _decay_net(types=[{"id": "one"}]), "types[0]: bad 'id'"),
    ("types_not_list", _decay_net(types={"id": 1}), "network spec: bad 'types' value"),
    ("cell_missing_id", _decay_net(cells=[{"type": 1}]), "cells[0] is missing 'id'"),
    ("cell_not_object", _decay_net(cells=["u"]), "cells[0] must be an object"),
    ("cell_bad_type", _decay_net(cells=[{"id": "u", "type": None}]), "cells[0]: bad 'type'"),
    ("monoids_not_object", _decay_net(monoids=["1,1"]), "network spec: bad 'monoids' value"),
    ("matrix_not_rows", _decay_net(matrix=[3]), "network spec: unknown key 'matrix'"),
    ("state_dim_2", _decay_net(types=[{"id": 1, "state_dim": 2}]),
     "types[0]: 'state_dim' must be 1, got 2"),
    ("edges_object", _decay_net(edges={"to": "u", "from": "u", "weight": 1.0}),
     "network spec: bad 'edges' value"),
    ("edge_not_object", _decay_net(edges=[7]), "edges[0] must be an object"),
    ("edge_missing_weight", _decay_net(edges=[{"to": "u", "from": "u"}]),
     "edges[0] is missing 'weight'"),
    ("edge_bad_weight", _decay_net(edges=[{"to": "u", "from": "u", "weight": "heavy"}]),
     "edges[0]: bad 'weight': expected a finite number, got 'heavy'"),
    ("unknown_monoid", _decay_net(monoids={"1,1": "additive_complex"}),
     "monoids['1,1']: unknown monoid id 'additive_complex'"),
    ("type_fractional_id", _decay_net(types=[{"id": 1.5}]), "types[0]: bad 'id' value 1.5"),
    ("cell_bool_type", _decay_net(cells=[{"id": "u", "type": True}]),
     "cells[0]: bad 'type' value True"),
    ("edge_infinite_weight", _decay_net(edges=[{"to": "u", "from": "u", "weight": float("inf")}]),
     "edges[0]: bad 'weight': expected a finite number, got inf"),
    ("parallel_overflow", _decay_net(edges=[{"to": "u", "from": "u", "weight": 1e308}] * 2),
     "the edges from 'u' to 'u' combine to a non-finite weight"),
]


@pytest.mark.parametrize("doc,message", [m[1:] for m in MALFORMED_NETWORKS],
                         ids=[m[0] for m in MALFORMED_NETWORKS])
def test_simulate_malformed_network_is_usage_error(run_cli, data_dir, tmp_path, doc, message):
    net = tmp_path / "net.json"
    net.write_text(json.dumps(doc))
    proc = run_cli("simulate", net, data_dir / "oracle_decay.json", data_dir / "x0_decay.json",
                   "--dt", 0.1, "--steps", 2)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_free_parallel_weights_refused_with_shipped_components(data_dir, tmp_path, capsys,
                                                               command):
    net = tmp_path / "net.json"
    net.write_text(json.dumps({
        "types": [{"id": 1}],
        "monoids": {"1,1": "free_parallel"},
        "cells": [{"id": "a", "type": 1}, {"id": "b", "type": 1}],
        "edges": [{"to": "b", "from": "a", "weight": ["x", "y"]}],
    }))
    x0 = tmp_path / "x0.json"
    x0.write_text(json.dumps({"a": 1.0, "b": 0.5}))
    args = {"verify": ["--trials", 10], "simulate": [x0, "--dt", 0.1, "--steps", 2]}[command]
    code = run([command, net, data_dir / "oracle_power2.json", *args])
    assert code == 2
    assert "unknown monoid id 'free_parallel'" in capsys.readouterr().err


MALFORMED_X0 = [
    ("list", [1.0], "x0 must be an object, got list"),
    ("states_list", {"states": [1.0]}, "x0 must be an object, got list"),
    ("null_state", {"u": None}, "x0: bad 'u' value None"),
    ("text_state", {"u": "warm"}, "x0: bad 'u' value 'warm'"),
    ("missing_cell", {"v": 1.0}, "x0 is missing 'u'"),
    # written as Infinity; 1e999 parses to the same float
    ("infinite_state", {"u": float("inf")}, "x0: bad 'u' value inf"),
    ("nan_state", {"u": float("nan")}, "x0: bad 'u' value nan"),
    ("bool_state", {"u": True}, "x0: bad 'u' value True"),
    ("numeric_string_state", {"u": "1.5"}, "x0: bad 'u' value '1.5'"),
]


@pytest.mark.parametrize("doc,message", [m[1:] for m in MALFORMED_X0],
                         ids=[m[0] for m in MALFORMED_X0])
def test_simulate_malformed_x0_is_usage_error(run_cli, data_dir, tmp_path, doc, message):
    x0 = tmp_path / "x0.json"
    x0.write_text(json.dumps(doc))
    proc = run_cli("simulate", data_dir / "net_decay.json", data_dir / "oracle_decay.json", x0,
                   "--dt", 0.1, "--steps", 1)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{x0}: {message}" in proc.stderr


_POWER2 = {"family": "polynomial", "params": {"coeffs": {"2": "1"}}}

MALFORMED_ORACLES = [
    ("type_index_text", dict(_POWER2, type_index="x"), "oracle spec: bad 'type_index' value 'x'"),
    ("n_types_text", dict(_POWER2, n_types="q"), "oracle spec: bad 'n_types' value 'q'"),
    ("params_list", dict(_POWER2, params=[1]), "oracle spec: bad 'params' value [1]"),
    ("coeffs_list", dict(_POWER2, params={"coeffs": [1]}),
     "oracle spec: bad params for family 'polynomial': params: bad 'coeffs' value [1]"),
    ("coeff_zero_denominator", dict(_POWER2, params={"coeffs": {"2": "1/0"}}),
     "oracle spec: bad params for family 'polynomial': params: bad 'coeffs'"),
    ("missing_family", {"params": {}}, "oracle spec is missing 'family'"),
    ("second_spec_bad", [_POWER2, dict(_POWER2, type_index=[2])],
     "oracles[1]: bad 'type_index' value [2]"),
    ("second_spec_not_object", {"oracles": [_POWER2, 5]}, "oracles[1] must be an object, got int"),
    ("f0_nan", dict(_POWER2, f0="linear:nan"), "oracle spec: bad f0 rate in 'linear:nan'"),
]


@pytest.mark.parametrize("command", ["verify", "decompose", "simulate"])
@pytest.mark.parametrize("doc,message", [m[1:] for m in MALFORMED_ORACLES],
                         ids=[m[0] for m in MALFORMED_ORACLES])
def test_malformed_oracle_spec_is_usage_error(run_cli, data_dir, tmp_path, command, doc, message):
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps(doc))
    args = {
        "verify": ["verify", data_dir / "net_single.json", oracle, "--trials", 5],
        "decompose": ["decompose", oracle, "--points", data_dir / "points_power2.json"],
        "simulate": ["simulate", data_dir / "net_decay.json", oracle, data_dir / "x0_decay.json",
                     "--dt", 0.1, "--steps", 1],
    }[command]
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{oracle}: {message}" in proc.stderr


# Parsing is shared by the subcommands, so each value is run through verify only.
MALFORMED_ORACLE_VALUES = [
    ("type_index_fraction", dict(_POWER2, type_index=1.5),
     "oracle spec: bad 'type_index' value 1.5"),
    ("n_types_bool", dict(_POWER2, n_types=True), "oracle spec: bad 'n_types' value True"),
    ("truncation_text", {"family": "exponential", "params": {"truncation": "x"}},
     "oracle spec: bad params for family 'exponential': params: bad 'truncation' value 'x'"),
    ("power_fraction", {"family": "symmetric_power", "params": {"n": 1.5, "k": 1}},
     "oracle spec: bad params for family 'symmetric_power': params: bad 'n' value 1.5"),
    ("inner_not_rows", {"family": "nested", "params": {"outer": [1], "inner": [1]}},
     "oracle spec: bad params for family 'nested': params: bad 'inner' value [1]"),
]


@pytest.mark.parametrize("doc,message", [m[1:] for m in MALFORMED_ORACLE_VALUES],
                         ids=[m[0] for m in MALFORMED_ORACLE_VALUES])
def test_malformed_oracle_value_names_its_key(run_cli, data_dir, tmp_path, doc, message):
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps(doc))
    proc = run_cli("verify", data_dir / "net_single.json", oracle, "--trials", 5)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{oracle}: {message}" in proc.stderr


# Files every reader refuses while decoding: (name, contents, message).
_DECAY_NET = b'{"types": [{"id": 1}], "monoids": {}, "cells": [{"id": "u", "type": 1}]}'
BAD_FILES = {
    "nested": (b"[" * 2048, "maximum recursion depth exceeded"),
    "long_integer": (b'{"u": ' + b"9" * 5001 + b"}", "integer literal of 5001 digits is too long"),
    "invalid_utf8": (b'{"u": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    "repeated_key": (_DECAY_NET.replace(b"{", b'{"types": [{"id": 1}], ', 1),
                     "repeated key 'types'"),
}


def _argv(data_dir, command, role, path):
    """``command`` on the decay fixtures with the ``role`` file replaced by ``path``."""
    files = {"network": data_dir / "net_decay.json", "oracle": data_dir / "oracle_decay.json",
             "points": data_dir / "points_power2.json", "x0": data_dir / "x0_decay.json"}
    files[role] = path
    return {
        "verify": ["verify", files["network"], files["oracle"], "--trials", 5],
        "decompose": ["decompose", files["oracle"], "--points", files["points"]],
        "simulate": ["simulate", files["network"], files["oracle"], files["x0"],
                     "--dt", 0.1, "--steps", 1],
    }[command]


FILE_DEFECT_RUNS = [
    ("nested", "verify", "network"),
    ("nested", "decompose", "points"),
    ("nested", "simulate", "x0"),
    ("long_integer", "simulate", "network"),
    ("invalid_utf8", "verify", "oracle"),
    ("repeated_key", "simulate", "network"),
]


@pytest.mark.parametrize("name,command,role", FILE_DEFECT_RUNS,
                         ids=["-".join(r[:2]) for r in FILE_DEFECT_RUNS])
def test_undecodable_file_is_usage_error(run_cli, data_dir, tmp_path, name, command, role):
    contents, message = BAD_FILES[name]
    path = tmp_path / f"{role}.json"
    path.write_bytes(contents)
    proc = run_cli(*_argv(data_dir, command, role, path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{path}: {message}" in proc.stderr
    assert proc.stdout == ""


ROLE_COMMAND = {"network": "simulate", "oracle": "decompose", "points": "decompose",
                "x0": "simulate"}


@pytest.mark.parametrize("role", ROLE_COMMAND)
@pytest.mark.parametrize("name", BAD_FILES)
def test_undecodable_file_is_refused_in_every_role(data_dir, tmp_path, capsys, name, role):
    contents, message = BAD_FILES[name]
    path = tmp_path / f"{role}.json"
    path.write_bytes(contents)
    assert run(_argv(data_dir, ROLE_COMMAND[role], role, path)) == 2
    out, err = capsys.readouterr()
    assert f"{path}: {message}" in err and out == ""


@pytest.mark.parametrize("tol", ["-1", "inf", "nan"])
def test_verify_refuses_bad_tol_before_any_trial(data_dir, capsys, tol):
    start = time.perf_counter()
    code = run(["verify", data_dir / "net_single.json", data_dir / "oracle_power2.json",
                "--tol", tol])
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert f"--tol must be non-negative and finite, got {float(tol)}" in err


def test_check_flags_belong_to_verify_only(run_cli, data_dir):
    proc = run_cli("simulate", data_dir / "net_decay.json", data_dir / "oracle_decay.json",
                   data_dir / "x0_decay.json", "--dt", 0.1, "--steps", 1, "--seed", 1)
    assert proc.returncode == 2
    assert "unrecognized arguments: --seed 1" in proc.stderr
    parser = build_parser()
    for argv in (["decompose", "o.json", "--points", "p.json", "--trials", "3"],
                 ["stirling", "--kind", "1", "--max", "3", "--tol", "7"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
    args = parser.parse_args(["verify", "n.json", "o.json", "--seed", "1", "--trials", "3",
                              "--tol", "0"])
    assert (args.seed, args.trials, args.tol) == (1, 3, 0.0)
