"""The input loader and value readers: every format's parse function, fed
mutated files through ``spec.load``, returns or raises SpecFormatError whose
message starts with the file's path, and raises nothing else."""

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccndecomp.cli import _parse_bound, _parse_points, _parse_x0
from ccndecomp.network import parse_network
from ccndecomp.oracle import build_polynomial_multi, oracle_specs_from_json
from ccndecomp.spec import SpecFormatError, load

FORMATS = {
    "network": ("net_twotype.json", parse_network),
    "oracle": ("oracle_twotype.json", oracle_specs_from_json),
    "points": ("points_twotype_n8.json", _parse_points),
    "x0": ("x0_twotype.json", functools.partial(_parse_x0, cells=["c", "a", "b"])),
}

# A JSON string that marks where the mutated text goes.
SPLICE = "\u0000splice\u0000"

_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=4),
    st.sampled_from(["1.5", "2"]), st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from(["id", "type", "x", "weight"]), st.integers(0, 2),
                    max_size=2),
)


def _paths(doc, path=()):
    """Every position in ``doc``, the root included, as a key path."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return copy


def _repeated_key(value):
    """An object text that names its first key twice."""
    pairs = list(value.items()) if isinstance(value, dict) and value else [("a", 1)]
    members = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in [pairs[0], *pairs]]
    return "{" + ", ".join(members) + "}"


@st.composite
def _mutated(draw, doc):
    """The bytes of ``doc`` with one value replaced by junk, a huge literal,
    deep nesting or a repeated key, then possibly truncated or given an
    invalid UTF-8 byte."""
    path = draw(st.sampled_from(list(_paths(doc))))
    original = _at(doc, path)
    splice = draw(st.one_of(
        _JUNK.map(json.dumps),
        st.sampled_from(["9" * 5001, "-" + "7" * 4400, "1e999", "-1e999", "NaN", "[" * 3000,
                         "[" * 400 + "]" * 400, "{" * 2000]),
        st.just(_repeated_key(original)),
    ))
    data = json.dumps(_replaced(doc, path, SPLICE)).replace(json.dumps(SPLICE), splice).encode()
    cut = draw(st.integers(0, len(data)))
    action = draw(st.sampled_from(["keep", "truncate", "invalid_utf8"]))
    if action == "truncate":
        data = data[:cut]
    elif action == "invalid_utf8":
        data = data[:cut] + b"\xff" + data[cut:]
    return data


@pytest.mark.parametrize("fmt", FORMATS)
def test_load_refuses_mutated_files_with_spec_errors(data_dir, tmp_path_factory, fmt):
    fixture, parse = FORMATS[fmt]
    doc = json.loads((data_dir / fixture).read_text())
    path = tmp_path_factory.mktemp(fmt) / fixture

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(data=_mutated(doc))
    def check(data):
        path.write_bytes(data)
        try:
            load(str(path), parse)
        except SpecFormatError as exc:
            assert str(exc).startswith(f"{path}: ")

    check()


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(text=st.one_of(st.text(alphabet="0123456789,.-+e _x", max_size=8),
                      st.text(max_size=4)))
def test_bound_reader_returns_a_valid_bound_or_refuses(text):
    oracle = build_polynomial_multi({(1, 2): 1}, n_types=2)
    try:
        bound = _parse_bound(text, oracle)
    except SpecFormatError as exc:
        assert str(exc).startswith(f"--bound {text!r}: ")
    else:
        assert len(bound) == 2 and bound[0] >= 1 and bound[1] >= 2
