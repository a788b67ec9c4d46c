import json
import math
import random

import pytest

from ccndecomp.network import (
    DivergenceError,
    evaluate_vector_field,
    integrate_rk4,
    network_to_json,
    parse_network,
)
from ccndecomp.oracle import (
    SpecFormatError,
    build_polynomial_multi,
    build_polynomial_single,
    parse_f0,
)
from helpers import dense_in_neighborhood, shipped_oracles


def two_type_doc():
    return {
        "types": [{"id": 1, "state_dim": 1}, {"id": 2, "state_dim": 1}],
        "monoids": {
            "1,1": "additive_real",
            "1,2": "additive_real",
            "2,1": "additive_real",
            "2,2": "additive_real",
        },
        "cells": [{"id": "c", "type": 1}, {"id": "a", "type": 2}, {"id": "b", "type": 2}],
        "edges": [
            {"to": "c", "from": "a", "weight": 1.0},
            {"to": "c", "from": "b", "weight": 2.0},
        ],
    }


def test_parse_simple_network():
    net = parse_network(two_type_doc())
    assert net.cells == ["c", "a", "b"]
    assert net.weight("c", "a") == 1.0 and net.weight("c", "b") == 2.0
    assert net.weight("a", "c") is None


def test_parse_matrix_form_and_non_square_error():
    doc = two_type_doc()
    del doc["edges"]
    doc["matrix"] = [[None, 1.0, 2.0], [None, None, None], [None, None, None]]
    net = parse_network(doc)
    assert net.weight("c", "a") == 1.0
    doc["matrix"] = [[None, 1.0, 2.0], [None, None, None]]
    with pytest.raises(SpecFormatError, match="non-square"):
        parse_network(doc)


def test_parse_errors():
    doc = two_type_doc()
    doc["monoids"]["1,2"] = "no_such_monoid"
    with pytest.raises(ValueError):
        parse_network(doc)

    doc = two_type_doc()
    doc["cells"][0]["type"] = 9
    with pytest.raises(SpecFormatError, match="unknown type"):
        parse_network(doc)

    doc = two_type_doc()
    doc["edges"][0]["weight"] = True  # a boolean is not an additive_real weight
    with pytest.raises(SpecFormatError, match="expects a number"):
        parse_network(doc)

    doc = two_type_doc()
    doc["edges"][0]["from"] = "ghost"
    with pytest.raises(SpecFormatError, match="unknown cell"):
        parse_network(doc)

    doc = two_type_doc()
    del doc["monoids"]["1,2"]  # the a->c and b->c edges need this pair
    with pytest.raises(SpecFormatError, match="no monoid declared"):
        parse_network(doc)


def test_zero_weights_are_canonicalized_away():
    doc = two_type_doc()
    doc["edges"].append({"to": "a", "from": "b", "weight": 0.0})
    net = parse_network(doc)
    assert net.weight("a", "b") is None


def test_parallel_edges_combine():
    doc = two_type_doc()
    doc["edges"].append({"to": "c", "from": "a", "weight": 2.5})
    net = parse_network(doc)
    assert net.weight("c", "a") == 3.5


def test_in_neighborhood():
    net = parse_network(two_type_doc())
    states = {"c": 0.5, "a": 1.0, "b": -1.0}
    hood = net.in_neighborhood("c", states)
    assert sorted((e.type_index, e.weight, e.state) for e in hood) == [
        (2, 1.0, 1.0),
        (2, 2.0, -1.0),
    ]
    assert net.in_neighborhood("a", states) == ()
    with pytest.raises(KeyError):
        net.in_neighborhood("ghost", states)


def _random_network_doc(rng, monoid, matrix_form):
    """Random two-type network with self-loops, parallel edges and weights
    that are zero or cancel to zero."""
    n = rng.randint(1, 12)
    cells = [{"id": f"v{i}", "type": rng.randint(1, 2)} for i in range(n)]
    if monoid == "bool_or":
        draw = lambda: rng.random() < 0.4
    else:
        draw = lambda: rng.choice([0.0, 0.5, -0.5, 0.1, 0.2, rng.randint(-16, 16) / 8])
    doc = {
        "types": [{"id": 1}, {"id": 2}],
        "monoids": {f"{i},{j}": monoid for i in (1, 2) for j in (1, 2)},
        "cells": cells,
    }
    if matrix_form:
        doc["matrix"] = [[draw() if rng.random() < 0.4 else None for _ in cells] for _ in cells]
    doc["edges"] = [
        {"to": rng.choice(cells)["id"], "from": rng.choice(cells)["id"], "weight": draw()}
        for _ in range(rng.randint(0, 3 * n))
    ]
    return doc


@pytest.mark.parametrize("monoid", ["additive_real", "bool_or"])
@pytest.mark.parametrize("matrix_form", [False, True], ids=["edges", "matrix"])
def test_in_neighborhood_matches_dense_scan(monoid, matrix_form):
    rng = random.Random(f"{monoid}-{matrix_form}")
    for _ in range(200):
        doc = _random_network_doc(rng, monoid, matrix_form)
        net = parse_network(doc)
        again = parse_network(network_to_json(net))
        states = {c: rng.uniform(-1, 1) for c in net.cells}
        for cell in net.cells:
            expected = dense_in_neighborhood(doc, cell, states)
            assert net.in_neighborhood(cell, states) == expected
            assert again.in_neighborhood(cell, states) == expected


def test_additive_positive_is_a_network_monoid():
    doc = two_type_doc()
    doc["monoids"]["1,2"] = "additive_positive"
    net = parse_network(doc)
    assert net.registry[(1, 2)].name == "additive_positive"
    assert network_to_json(net)["monoids"]["1,2"] == "additive_positive"
    assert network_to_json(parse_network(network_to_json(net))) == network_to_json(net)
    doc["edges"][0]["weight"] = -1.0
    with pytest.raises(SpecFormatError, match=r"edges\[0\].*additive_positive expects a number >= 0"):
        parse_network(doc)


def test_evaluate_vector_field_examples():
    net = parse_network(two_type_doc())
    square_response = build_polynomial_multi({(0, 2): 1}, n_types=2)
    internal_only = build_polynomial_multi({}, n_types=2, f0=parse_f0("linear:-0.5"))
    states = {"c": 0.0, "a": 1.0, "b": 1.0}
    out = evaluate_vector_field(net, {1: square_response, 2: internal_only}, states)
    assert math.isclose(out["c"], 9.0)  # (1*1 + 2*1)^2
    assert out["a"] == -0.5 and out["b"] == -0.5

    # edgeless network evaluates the internal term everywhere
    doc = two_type_doc()
    doc["edges"] = []
    empty = parse_network(doc)
    out = evaluate_vector_field(empty, {1: internal_only, 2: internal_only}, states)
    assert out == {"c": 0.0, "a": -0.5, "b": -0.5}

    with pytest.raises(ValueError, match="no component"):
        evaluate_vector_field(net, {1: square_response}, states)


def test_edge_merging_equivalence_on_networks():
    # merging two same-state same-type in-edges into one with summed weight
    # leaves the target evaluation unchanged, for every shipped component
    states3 = {"c": 0.25, "a": 0.75, "b": 0.75}
    states2 = {"c": 0.25, "ab": 0.75}
    for name, oracle, _ in shipped_oracles():
        if oracle.n_types == 1:
            doc_a = {
                "types": [{"id": 1, "state_dim": 1}],
                "monoids": {"1,1": "additive_real"},
                "cells": [{"id": "c", "type": 1}, {"id": "a", "type": 1}, {"id": "b", "type": 1}],
                "edges": [
                    {"to": "c", "from": "a", "weight": 0.5},
                    {"to": "c", "from": "b", "weight": 0.75},
                ],
            }
            doc_b = {
                "types": [{"id": 1, "state_dim": 1}],
                "monoids": {"1,1": "additive_real"},
                "cells": [{"id": "c", "type": 1}, {"id": "ab", "type": 1}],
                "edges": [{"to": "c", "from": "ab", "weight": 1.25}],
            }
            oracles = {1: oracle}
        else:
            doc_a = two_type_doc()
            doc_a["edges"] = [
                {"to": "c", "from": "a", "weight": 0.5},
                {"to": "c", "from": "b", "weight": 0.75},
            ]
            doc_b = {
                "types": doc_a["types"],
                "monoids": doc_a["monoids"],
                "cells": [{"id": "c", "type": 1}, {"id": "ab", "type": 2}],
                "edges": [{"to": "c", "from": "ab", "weight": 1.25}],
            }
            oracles = {1: oracle, 2: build_polynomial_multi({}, n_types=2)}
        value_a = evaluate_vector_field(parse_network(doc_a), oracles, states3)["c"]
        value_b = evaluate_vector_field(parse_network(doc_b), oracles, states2)["c"]
        assert abs(value_a - value_b) <= 1e-9 * max(1.0, abs(value_a)), name


def test_relabeling_equivariance():
    rng = random.Random(3)
    doc = two_type_doc()
    net = parse_network(doc)
    relabel = {"c": "z", "a": "y", "b": "x"}
    doc2 = json.loads(json.dumps(doc))
    doc2["cells"] = [{"id": relabel[c["id"]], "type": c["type"]} for c in doc["cells"]]
    doc2["edges"] = [
        {"to": relabel[e["to"]], "from": relabel[e["from"]], "weight": e["weight"]}
        for e in doc["edges"]
    ]
    net2 = parse_network(doc2)
    oracles = {
        1: build_polynomial_multi({(0, 2): 1, (1, 1): 0.5}, n_types=2),
        2: build_polynomial_multi({(1, 0): 1}, n_types=2),
    }
    for _ in range(20):
        states = {c: rng.uniform(-1, 1) for c in net.cells}
        out = evaluate_vector_field(net, oracles, states)
        out2 = evaluate_vector_field(net2, oracles, {relabel[c]: states[c] for c in states})
        for c in net.cells:
            assert out[c] == out2[relabel[c]]


def test_zero_weight_edge_never_changes_outputs():
    rng = random.Random(5)
    doc = two_type_doc()
    with_zero = json.loads(json.dumps(doc))
    with_zero["edges"].append({"to": "a", "from": "c", "weight": 0.0})
    net, netz = parse_network(doc), parse_network(with_zero)
    oracles = {
        1: build_polynomial_multi({(0, 2): 1}, n_types=2),
        2: build_polynomial_multi({(1, 1): 1}, n_types=2),
    }
    for _ in range(20):
        states = {c: rng.uniform(-1, 1) for c in net.cells}
        assert evaluate_vector_field(net, oracles, states) == evaluate_vector_field(
            netz, oracles, states
        )


def test_round_trip_serialization():
    net = parse_network(two_type_doc())
    doc = network_to_json(net)
    again = network_to_json(parse_network(doc))
    assert doc == again


def test_state_dims_and_self_loops():
    doc = two_type_doc()
    doc["types"][1]["state_dim"] = 3
    doc["edges"].append({"to": "c", "from": "c", "weight": 0.5})
    net = parse_network(doc)
    assert net.state_dims == {1: 1, 2: 3}
    assert net.weight("c", "c") == 0.5  # self-loops are ordinary in-edges
    states = {"c": 2.0, "a": 0.0, "b": 0.0}
    hood = net.in_neighborhood("c", states)
    assert (1, 0.5, 2.0) in [(e.type_index, e.weight, e.state) for e in hood]


def test_rk4_zero_field_is_constant():
    doc = {
        "types": [{"id": 1}],
        "monoids": {},
        "cells": [{"id": "u", "type": 1}],
        "edges": [],
    }
    net = parse_network(doc)
    still = build_polynomial_single({})
    traj = integrate_rk4(net, {1: still}, {"u": 1.25}, 0.1, 20)
    assert all(snap["u"] == 1.25 for snap in traj)


def test_rk4_linear_decay_matches_closed_form():
    doc = {
        "types": [{"id": 1}],
        "monoids": {},
        "cells": [{"id": "u", "type": 1}],
        "edges": [],
    }
    net = parse_network(doc)
    decay = build_polynomial_single({}, f0=parse_f0("linear:-1"))
    traj = integrate_rk4(net, {1: decay}, {"u": 1.0}, 0.1, 10)
    assert abs(traj[-1]["u"] - math.exp(-1.0)) < 1e-6


def test_rk4_validation_and_divergence():
    doc = {
        "types": [{"id": 1}],
        "monoids": {},
        "cells": [{"id": "u", "type": 1}],
        "edges": [],
    }
    net = parse_network(doc)
    decay = build_polynomial_single({}, f0=parse_f0("linear:-1"))
    with pytest.raises(ValueError):
        integrate_rk4(net, {1: decay}, {"u": 1.0}, 0.0, 5)
    blowup = build_polynomial_single({}, f0=lambda x: x * x * 1e3)
    with pytest.raises(DivergenceError) as err:
        integrate_rk4(net, {1: blowup}, {"u": 10.0}, 1.0, 50)
    assert err.value.step >= 1
