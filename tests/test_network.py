import json
import math
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccndecomp.network import (
    DivergenceError,
    evaluate_vector_field,
    integrate_rk4,
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
    assert net.in_edges == [((1, 1.0), (2, 2.0)), (), ()]


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
    doc["types"][1]["id"] = 10 ** 400
    with pytest.raises(SpecFormatError, match="type ids must cover"):
        parse_network(doc)

    doc = two_type_doc()
    doc["edges"][0]["weight"] = True  # a boolean is not an additive_real weight
    with pytest.raises(SpecFormatError, match="expected a finite number"):
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
    assert net.in_edges[1] == ()


def test_parallel_edges_combine():
    doc = two_type_doc()
    doc["edges"].append({"to": "c", "from": "a", "weight": 2.5})
    net = parse_network(doc)
    assert net.in_edges[0] == ((1, 3.5), (2, 2.0))


def test_parallel_bundle_is_summed_exactly_in_any_order():
    # pairwise float folds give 5.55e-17 or 2.78e-17 depending on the order
    for order in permutations([0.1, 0.2, -0.3]):
        doc = two_type_doc()
        doc["edges"] = [{"to": "c", "from": "a", "weight": w} for w in order]
        assert parse_network(doc).in_edges[0] == ((1, 2.7755575615628914e-17),), order
    # fsum overflows on some orders of this bundle; its exact sum is finite
    for order in permutations([1e308, 1e308, -1e308]):
        doc = two_type_doc()
        doc["edges"] = [{"to": "c", "from": "a", "weight": w} for w in order]
        assert parse_network(doc).in_edges[0] == ((1, 1e308),), order


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


def _random_network_doc(rng, monoid):
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
    doc["edges"] = [
        {"to": rng.choice(cells)["id"], "from": rng.choice(cells)["id"], "weight": draw()}
        for _ in range(rng.randint(0, 3 * n))
    ]
    return doc


@pytest.mark.parametrize("monoid", ["additive_real", "bool_or"], ids=lambda m: f"edges-{m}")
def test_in_neighborhood_matches_dense_scan(monoid):
    rng = random.Random(monoid)
    for _ in range(200):
        doc = _random_network_doc(rng, monoid)
        net = parse_network(doc)
        shuffled = dict(doc, edges=rng.sample(doc["edges"], len(doc["edges"])))
        assert parse_network(shuffled).in_edges == net.in_edges
        states = {c: rng.uniform(-1, 1) for c in net.cells}
        for cell in net.cells:
            assert net.in_neighborhood(cell, states) == dense_in_neighborhood(doc, cell, states)


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.just(10 ** 400), st.floats(),
    st.text(max_size=2), st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=1), st.none(), max_size=1),
)
_REAL_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, -0.3, 0.5, 1e308, -1e308, 1.7976931348623157e308]),
    st.integers(-3, 3), st.floats(allow_nan=False, allow_infinity=False),
)
_CELL_IDS = ["a", "b"]


def _containers(node):
    if isinstance(node, (dict, list)):
        yield node
        for child in node.values() if isinstance(node, dict) else node:
            yield from _containers(child)


@st.composite
def _network_docs(draw):
    """Now and then a JSON value that is not an object; otherwise a network
    document over two cells with parallel, cancelling and huge weights, in
    half the cases followed by up to three edits that replace, drop or add an
    entry anywhere in it, such as an unknown key."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JUNK)
    types = range(1, draw(st.integers(1, 2)) + 1)
    monoid = draw(st.sampled_from(["additive_real", "additive_positive", "bool_or"]))
    doc = {
        "types": [dict({"id": t}, **draw(st.sampled_from([{}, {"state_dim": 1}]))) for t in types],
        "monoids": {f"{i},{j}": monoid for i in types for j in types},
        "cells": [{"id": c, "type": draw(st.sampled_from(types))} for c in _CELL_IDS],
        "edges": draw(st.lists(st.fixed_dictionaries({
            "to": st.sampled_from(_CELL_IDS),
            "from": st.sampled_from(_CELL_IDS),
            "weight": st.booleans() if monoid == "bool_or" else _REAL_WEIGHTS,
        }), max_size=10)),
    }
    for _ in range(draw(st.integers(1, 3)) if draw(st.booleans()) else 0):
        target = draw(st.sampled_from(list(_containers(doc))))
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        action = draw(st.sampled_from(["replace", "drop", "add"]))
        if action == "add" or not keys:
            if isinstance(target, dict):
                target[draw(st.sampled_from(["matrix", "state_dim", "id", "to", "weight"]))] = draw(_JUNK)
            else:
                target.append(draw(_JUNK))
        elif action == "drop":
            del target[draw(st.sampled_from(keys))]
        else:
            target[draw(st.sampled_from(keys))] = draw(_JUNK)
    return doc


def _parsed_edges(doc):
    """``in_edges`` of the parsed document, or None when it is refused."""
    try:
        return parse_network(doc).in_edges
    except SpecFormatError:
        return None


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(doc=_network_docs(), data=st.data())
def test_parse_network_fuzz(doc, data):
    # any document parses or is refused with SpecFormatError, and the order
    # of its edges changes neither the outcome nor the stored weights
    edges = doc.get("edges") if isinstance(doc, dict) else None
    permuted = dict(doc, edges=data.draw(st.permutations(edges))) if isinstance(edges, list) else doc
    assert _parsed_edges(permuted) == _parsed_edges(doc)


def test_additive_positive_is_a_network_monoid():
    doc = two_type_doc()
    doc["monoids"]["1,2"] = "additive_positive"
    net = parse_network(doc)
    assert net.registry[(1, 2)].name == "additive_positive"
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


def test_state_dims_and_self_loops():
    doc = two_type_doc()
    doc["types"][1]["state_dim"] = 3
    with pytest.raises(SpecFormatError, match=r"types\[1\]: 'state_dim' must be 1, got 3"):
        parse_network(doc)
    doc = two_type_doc()
    doc["edges"].append({"to": "c", "from": "c", "weight": 0.5})
    net = parse_network(doc)
    assert net.in_edges[0] == ((0, 0.5), (1, 1.0), (2, 2.0))  # self-loops are ordinary in-edges
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
