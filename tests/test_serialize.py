import hashlib
import itertools
import json
import math
import os
import re
import stat
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from skewsharp import serialize
from skewsharp.serialize import FormatError, dumps, matrix_to_pairs, pairs_to_matrix


def recursive_dumps(obj, indent=2):
    """Reference renderer: one recursive call per value, each float through isnan/isinf;
    ``dumps`` indents by 2."""

    def fmt(x):
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        if x == 0 and math.copysign(1.0, x) < 0:
            return "-0.0"
        return format(float(x), ".17g")

    def render(node, depth):
        pad = " " * (indent * depth)
        inner = " " * (indent * (depth + 1))
        if node is None:
            return "null"
        if isinstance(node, bool):
            return "true" if node else "false"
        if isinstance(node, (int, np.integer)):
            return str(int(node))
        if isinstance(node, (float, np.floating)):
            return fmt(float(node))
        if isinstance(node, str):
            return json.dumps(node)
        if isinstance(node, dict):
            if not node:
                return "{}"
            items = ",\n".join(
                f"{inner}{json.dumps(str(k))}: {render(v, depth + 1)}" for k, v in node.items()
            )
            return "{\n" + items + "\n" + pad + "}"
        if isinstance(node, (list, tuple)):
            if len(node) == 0:
                return "[]"
            if all(isinstance(v, (int, float, np.integer, np.floating)) for v in node):
                return "[" + ", ".join(render(v, depth + 1) for v in node) + "]"
            items = ",\n".join(f"{inner}{render(v, depth + 1)}" for v in node)
            return "[\n" + items + "\n" + pad + "]"
        raise FormatError(f"cannot serialize {type(node).__name__}")

    return render(obj, 0) + "\n"


SPECIAL = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
           1e308, 0.1, -1.5, 1 / 3]


def _payload():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return {
        "special": SPECIAL,
        "numpy": [np.float64(0.1), np.float32(0.1), np.int64(7), np.int8(-3), np.float64(math.nan)],
        "mixed": [1, 2.5, True, False, -0, 10**20],
        "nested_empty": [[], {}, [[]], [{}], {"a": []}, ()],
        "tuple": (1.0, (2.0, 3.0), "x"),
        "matrix": matrix_to_pairs(M),
        "special_pairs": [[x, y] for x, y in zip(SPECIAL, reversed(SPECIAL))],
        "scalars": [None, "text \"quoted\" é", True, 3, math.inf, np.float64(-0.0)],
        "dict": {1: 2.0, "k": {"nested": [None, [1.5, math.nan]]}},
        "bools_only": [True, False],
    }


def test_dumps_float_rows_match_recursive_rendering():
    # nested float lists (the list form of a matrix) and their near misses (ints,
    # numpy floats, ragged or empty rows, deeper nesting) render as the reference does
    rows = {
        "pairs": [[x, y] for x, y in zip(SPECIAL, SPECIAL[3:] + SPECIAL[:3])],
        "width1": [[x] for x in SPECIAL],
        "width3": [SPECIAL[:3], SPECIAL[3:6], SPECIAL[6:9]],
        "with_int": [[1.0, 2.0], [3, 4.0]],
        "with_numpy": [[1.0, np.float64(2.0)], [3.0, 4.0]],
        "with_bool": [[1.0, True], [3.0, 4.0]],
        "ragged": [[1.0, 2.0], [3.0]],
        "empty_rows": [[], []],
        "deeper": [[[1.0, 2.0]], [[3.0, 4.0]]],
        "matrix_of_pairs": [[[math.nan, -0.0], [5e-324, math.inf]], [[-math.inf, 1.0], [0.1, -1.5]]],
    }
    for node in (rows, *rows.values()):
        assert dumps(node) == recursive_dumps(node)


def _list_form(A):
    """The nested list an array renders as: rows of numbers, or rows of [re, im] cells."""
    return matrix_to_pairs(A) if A.dtype == complex else A.tolist()


def _assert_renders_as_list(A):
    # alone, and nested under a dict and under a list: the same bytes as the list form
    for wrap in (lambda m: m, lambda m: {"m": m}, lambda m: [m, [m]], lambda m: {"k": [1.5, {"m": m}]}):
        want = recursive_dumps(wrap(_list_form(A)))
        assert dumps(wrap(_list_form(A))) == want
        assert dumps(wrap(A)) == want


def test_dumps_arrays_match_their_list_rendering():
    rng = np.random.default_rng(5)
    special = np.array(SPECIAL)
    for shape in [(1, 1), (3, 3), (2, 5), (5, 2), (1, 4), (4, 1)]:
        size = shape[0] * shape[1]
        real = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
        real.ravel()[:min(size, len(special))] = rng.permutation(special)[:size]
        imag = rng.standard_normal(shape)
        imag.ravel()[-min(size, len(special)):] = rng.permutation(special)[:size]
        C = real.astype(complex)
        C.imag = imag               # not real + 1j * imag, where inf * 0 would be nan
        for A in (real, C, C.conj().T, real.T, C.imag):   # C.imag is a strided view
            _assert_renders_as_list(A)
    for shape in [(0, 0), (2, 0), (0, 3)]:
        _assert_renders_as_list(np.zeros(shape))
        _assert_renders_as_list(np.zeros(shape, dtype=complex))


_matrix_shapes = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5)


@settings(max_examples=300, deadline=None)
@given(A=st.one_of(
    hnp.arrays(np.float64, _matrix_shapes, elements=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), st.sampled_from(SPECIAL))),
    hnp.arrays(np.complex128, _matrix_shapes, elements=st.complex_numbers(
        allow_nan=True, allow_infinity=True, allow_subnormal=True))))
def test_dumps_drawn_arrays_match_their_list_rendering(A):
    _assert_renders_as_list(A)


def test_dumps_matches_recursive_rendering():
    obj = _payload()
    assert dumps(obj) == recursive_dumps(obj)
    for node in obj.values():
        assert dumps(node) == recursive_dumps(node)


def test_dumps_rejects_what_the_recursive_rendering_rejects():
    for bad in (np.bool_(True), [np.bool_(True), 1.0], {"a": object()}, np.zeros(2), np.zeros((2, 2, 2)),
                np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=np.float32), {"m": np.zeros((2, 2), np.complex64)}):
        with pytest.raises(FormatError):
            recursive_dumps(bad)
        with pytest.raises(FormatError):
            dumps(bad)


def _bits(A):
    return np.ascontiguousarray(A).view(np.uint64)


def test_pairs_round_trip_is_bit_exact():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((6, 6)) * 10.0 ** rng.integers(-300, 300, (6, 6)) \
        + 1j * rng.standard_normal((6, 6))
    A[0, 0] = complex(-0.0, 5e-324)
    A[1, 2] = complex(1 / 3, -0.0)
    B = pairs_to_matrix(matrix_to_pairs(A))
    assert B.shape == A.shape and B.dtype == complex
    assert np.array_equal(_bits(B), _bits(A))
    # through the 17-digit text, bit for bit: -0.0 is written "-0.0", not the integer "-0"
    data = json.loads(dumps(matrix_to_pairs(A)))
    cell_by_cell = np.array([[complex(re, im) for re, im in row] for row in data])
    assert np.array_equal(_bits(pairs_to_matrix(data)), _bits(cell_by_cell))
    assert np.array_equal(_bits(pairs_to_matrix(data)), _bits(A))


def test_negative_zero_survives_dumps_and_loads(monkeypatch):
    for obj in ([-0.0, 0.0, -0.5, -1e-05, 1e-300, -5e-324], [[-0.0, 1.0], [2.0, -0.0]]):
        back = json.loads(dumps(obj))
        assert np.array_equal(_bits(np.array(back, dtype=float)), _bits(np.array(obj, dtype=float)))
    for scalar in (-0.0, np.float64(-0.0)):
        assert dumps(scalar) == "-0.0\n" and math.copysign(1.0, json.loads(dumps(scalar))) < 0
    assert dumps({"k": [1.5, -0.0]}) == '{\n  "k": [1.5, -0.0]\n}\n'
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    A[0, 0], A[1, 2], A[2, 1] = complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)
    text = dumps({"dim": 3, "matrix": matrix_to_pairs(A)})
    assert np.array_equal(_bits(pairs_to_matrix(json.loads(text)["matrix"])), _bits(A))
    # the vectorized route takes the matrix (an integer -0 would send it to json) and keeps the signs
    monkeypatch.setattr(serialize, "MATRIX_ROUTE_MIN_CHARS", 0)
    routed = serialize.loads(text)["matrix"]
    assert isinstance(routed, np.ndarray)
    assert np.array_equal(_bits(pairs_to_matrix(routed)), _bits(A))


def test_pairs_accept_integers():
    B = pairs_to_matrix([[[1, 0], [0, -2]], [[0, 2], [3, 0]]])
    assert np.array_equal(B, np.array([[1, -2j], [2j, 3]]))


@pytest.mark.parametrize("data", [
    [[[1.0, 2.0, 3.0]]],                              # extra entry
    [[[1.0]]],                                        # missing entry
    [[[1.0, 0.0], [0.0, 0.0, 0.0]], [[0.0, 0.0], [1.0]]],   # lengths that sum right
    [[[True, 0.0]]],                                  # a bool among numbers
    [[[True, False]]],                                # only bools
    [[[1.0, 0.0], [0.0, False]], [[0.0, 0.0], [1.0, 0.0]]],
    [[["1", 0.0]]],                                   # a numeric string
    [[[1.0, None]]],
    [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],         # ragged rows
    [[[1.0, 0.0]], [[0.0, 0.0]]],                     # not square
    [[[[1.0, 0.0], 0.0]]],                            # nested cell
    [[[10**400, 0.0]]],                               # beyond float range
    [], [[]], "ab", 5, None, {"a": 1},
    np.zeros((2, 2)),                                 # a row of the reader's (d, d, 2) array
    np.zeros((1, 1, 3)), np.zeros((1, 2, 2)), np.zeros((0, 0, 2)), np.zeros((1, 1, 2), dtype=int),
])
def test_pairs_reject_malformed(data):
    with pytest.raises(FormatError):
        pairs_to_matrix(data)


# ------------------------------------------------------ the reader's matrix route

def _matrix_text(tokens, d, inner=", ", cells=", ", rows=",\n "):
    """d x d matrix of [re, im] cells written from 2 d^2 number tokens."""
    cell = [f"[{tokens[2 * i]}{inner}{tokens[2 * i + 1]}]" for i in range(d * d)]
    return "[" + rows.join("[" + cells.join(cell[r * d:(r + 1) * d]) + "]" for r in range(d)) + "]"


def _state_text(tokens, d, **ws):
    return f'{{"dim": {d}, "matrix": {_matrix_text(tokens, d, **ws)}, "label": "s"}}'


def _observables_text(token_lists, d):
    body = ",\n".join(_matrix_text(t, d) for t in token_lists)
    return f'{{"dim": {d}, "observables": [{body}], "labels": ["a", "b", "c"]}}'


def _outcome(text, reader):
    """What a caller sees: the other fields and the matrices' bits, or the exception."""
    try:
        doc = reader(text)
        if not isinstance(doc, dict):
            return "top", _bits(pairs_to_matrix(doc)).tobytes()
        mats = doc["observables"] if "observables" in doc else [doc["matrix"]]
        rest = {k: v for k, v in doc.items() if k not in ("matrix", "observables")}
        return "ok", rest, [_bits(pairs_to_matrix(m)).tobytes() for m in mats]
    except Exception as exc:   # noqa: BLE001 -- the type and message are compared
        return type(exc), str(exc)


@pytest.fixture
def route(monkeypatch):
    """serialize.loads with every text above the route's size constant."""
    monkeypatch.setattr(serialize, "MATRIX_ROUTE_MIN_CHARS", 0)
    return serialize.loads


def _tokens(rng, n):
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    return [repr(float(v)) if k % 2 else "%.17g" % v for k, v in enumerate(values)]


HARD = ["2.2250738585072011e-308", "2.2250738585072012e-308", "4.9406564584124654e-324",
        "2.4703282292062328e-324", "1.7976931348623157e308", "1.7976931348623158e308",
        "0.1", "0.30000000000000004", "9007199254740993.0", "1e-400", "-1e-400",
        "1.00000000000000011102230246251565404236316680908203125",
        "123456789012345678901234567890.123456789e-20", "1e5", "1E-5", "2.5e+10",
        "-3.25E+007", "0e0", "0.0e-0", "1e-320", "-0.0", "-0.0e0", "-0e0", "-0E-5",
        "9007199254740993", "-9007199254740993", "18446744073709551617", "1" + "0" * 300,
        "123456789012345678901234567890", "0", "7", "-12", "0.0", "1.5"]


def _accepted_texts():
    rng = np.random.default_rng(5)
    d = 6
    hard = (HARD * 3)[:2 * d * d]
    return {
        "compact": _state_text(_tokens(rng, 18), 3, inner=",", cells=",", rows=","),
        "whitespace": _state_text(_tokens(rng, 18), 3, inner=" \t, \r\n", cells="\n,\t", rows=" \r\n,  "),
        "spaced": "{ \"matrix\" :\n[ [ [ 1 , 0 ] ,[0,0 ] ] , [ [0 ,0] , [ 0, 1 ] ] ]\r\n}\n",
        "exact_cases": _state_text(hard, d),
        "dumps": dumps({"dim": 4, "matrix": matrix_to_pairs(
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))}),
        "observables": _observables_text([_tokens(rng, 32) for _ in range(3)], 4),
        "one_by_one": _state_text(["-0.0", "1e5"], 1),
        "top_level": _matrix_text(_tokens(rng, 8), 2),
        "escaped_label": _state_text(_tokens(rng, 8), 2)[:-2] + '\\u00e9 \\"q\\" \u00e9"}',
    }


@pytest.mark.parametrize("name", list(_accepted_texts()))
def test_loads_route_matches_json_bit_for_bit(name, route):
    text = _accepted_texts()[name]
    want = _outcome(text, json.loads)
    assert want[0] in ("ok", "top")
    assert _outcome(text, route) == want
    doc = route(text)
    mats = [doc] if not isinstance(doc, dict) else doc.get("observables", [doc.get("matrix")])
    assert all(isinstance(m, np.ndarray) and m.dtype == np.float64 for m in mats), "route not taken"


def _mutations():
    base = [f"{v}" for v in (0.5, 0.0, 0.25, -0.125, 0.0, 0.0, 0.25, 0.125, 0.25, 0.0,
                             0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25, 0.0)]
    state = _state_text(base, 3)
    obs = [base[:8], base[4:12], base[8:16]]

    def token(k, tok):
        return _state_text(base[:k] + [tok] + base[k + 1:], 3)

    def last_obs(k, tok):
        mats = obs[:2] + [obs[2][:k] + [tok] + obs[2][k + 1:]]
        return _observables_text(mats, 2)

    out = {}
    for tok in ("+1", ".5", "1.", "01", "-01", "-0", "NaN", "-Infinity", "Infinity", "1e400",
                "-1e400", "1" + "0" * 400, "true", "null", '"1"', "[1, 0]", "0x1", "1_0",
                "\u0661", "1e", "1e+", "--1", "1.5.5", "1e5e5", "-",
                "\f1", "\v1", "\u00a01", "\u30001", "1\f"):   # whitespace json does not allow
        out[f"state {tok[:12]!r}"] = token(5, tok)
        out[f"obs {tok[:12]!r}"] = last_obs(3, tok)
    out["three numbers"] = state.replace("[0.5, 0.0]", "[0.5, 0.0, 0.0]", 1)
    out["one number"] = state.replace("[0.5, 0.0]", "[0.5]", 1)
    cells = [f"[{a}, {b}]" for a, b in zip(base[::2] * 2, base[1::2] * 2)]
    # ragged rows, also with the right first row or the right cell count, and non-square
    for sizes in ((2, 3, 3), (3, 2, 4), (3, 6), (3, 3, 2, 1), (3, 3), (2, 2, 2), (3, 3, 3, 3)):
        rows = (", ".join(cells[sum(sizes[:r]):sum(sizes[:r + 1])]) for r in range(len(sizes)))
        out[f"rows of {sizes}"] = '{"matrix": [' + ",\n ".join(f"[{r}]" for r in rows) + "]}"
    out["matrix in a string"] = state.replace('"s"', '"[[[1, 0]]]"')
    out["matrix in a longer string"] = state.replace('"s"', '"a [[[1, 0], [2, 0]], [[3, 0], [4, 0]]] b"')
    out["marker string"] = state.replace('"s"', '"\\u00000"')
    out["marker prefix"] = state.replace('"s"', '"\\u0000x"')
    out["matrix as a key"] = "{" + _matrix_text(base[:2], 1) + ": 1}"
    out["matrix in place of the list"] = _observables_text([obs[0]], 2).replace(
        '"observables": [', '"observables": ').replace("]], \"labels", "], \"labels")
    out["nested list"] = state.replace('"matrix": ', '"matrix": [').replace(', "label"', '], "label"')
    out["duplicate key"] = state[:-1] + ', "matrix": ' + _matrix_text(base[:8], 2) + "}"
    out["trailing garbage"] = state + " x"
    out["trailing bracket"] = state + "]"
    out["second document"] = state + state
    out["byte order mark"] = "\ufeff" + state
    out["unclosed"] = state[:-1]
    out["truncated matrix"] = state[:len(state) // 2]
    return out


@pytest.mark.parametrize("name", list(_mutations()))
def test_loads_route_matches_json_on_mutated_input(name, route):
    text = _mutations()[name]
    assert _outcome(text, route) == _outcome(text, json.loads)


def test_loads_route_only_above_the_size_constant():
    rng = np.random.default_rng(3)
    small = [dumps({"dim": 8, "matrix": matrix_to_pairs(rng.standard_normal((8, 8)))}),
             _observables_text([_tokens(rng, 128) for _ in range(2)], 8)]
    for text in small:   # the largest `check` inputs at d <= 8 keep the json path
        assert len(text) <= serialize.MATRIX_ROUTE_MIN_CHARS
        doc = serialize.loads(text)
        assert all(isinstance(m, list) for m in doc.get("observables", [doc.get("matrix")]))
    big = _state_text(_tokens(rng, 2 * 100 * 100), 100)
    assert len(big) > serialize.MATRIX_ROUTE_MIN_CHARS
    doc = serialize.loads(big)
    assert isinstance(doc["matrix"], np.ndarray)
    assert _outcome(big, serialize.loads) == _outcome(big, json.loads)


def test_loads_route_matches_json_on_slots_and_zero_lookalikes(route):
    base = [f"{v}" for v in (0.5, 0.0, 0.25, -0.125, 0.0, 0.0, 0.25, 0.125, 0.25, 0.0,
                             0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25, 0.0)]
    state = _state_text(base, 3)
    texts = {   # one token per slot
        "two tokens in the first slot": state.replace("[0.5, 0.0]", "[0.5 2, 0.0]", 1),
        "two tokens in the second slot": state.replace("[0.5, 0.0]", "[0.5, 2 0.0]", 1),
        "empty first slot": state.replace("[0.5, 0.0]", "[, 0.0]", 1),
        "empty second slot": state.replace("[0.5, 0.0]", "[0.5, ]", 1),
        "a number between two cells": state.replace("[0.5, 0.0], ", "[0.5, 0.0], 7, ", 1),
        "a number and no comma between two cells": state.replace("[0.5, 0.0], ", "[0.5, 0.0] 7, ", 1),
        "a number before a row": state.replace(",\n [[", ",\n 7, [[", 1),
        "a number before the first row": state.replace('"matrix": [[', '"matrix": [7, [', 1),
    }
    for tok in ("0.00", "00.0", "0.0.0", "0.0e0", "-0.0", "0.0e", "0.0-1", "0.", ".0", "0", "-0"):
        for k in (1, 17):   # a zero slot, and the last token
            texts[f"{tok!r} at {k}"] = _state_text(base[:k] + [tok] + base[k + 1:], 3)
    for name, text in texts.items():
        want = _outcome(text, json.loads)
        assert _outcome(text, route) == want, name
        if want[0] == "ok" and not name.startswith("'-0'"):   # json reads an integer -0 as +0.0
            assert isinstance(route(text)["matrix"], np.ndarray), name


@pytest.mark.parametrize("chunk", [7, 16, 61])
def test_loads_route_across_chunk_boundaries(monkeypatch, route, chunk):
    # every offset of the chunk cut against a matrix and its tokens: a cut that
    # falls in a token moves back to the token's start
    monkeypatch.setattr(serialize, "_CHUNK_CHARS", chunk)
    rng = np.random.default_rng(chunk)
    tokens = ["0.0"] * 32
    tokens[::5] = [repr(float(v)) for v in rng.standard_normal(7) * 10.0 ** rng.integers(-9, 9, 7)]
    tokens[3], tokens[4], tokens[30] = "-0.0", "1e5", "0.25"
    body = _matrix_text(tokens, 4) + ",\n" + _matrix_text(tokens[::-1], 4)
    for pad in range(max(chunk, 24) + 1):
        text = '{"pad": "' + "x" * pad + '", "dim": 4, "observables": [' + body + "]}"
        assert _outcome(text, route) == _outcome(text, json.loads), pad
        if chunk > 24:   # longer than every token: no token is cut, so the route reads both
            assert all(isinstance(m, np.ndarray) for m in route(text)["observables"]), pad


@pytest.mark.parametrize("kind", ["fock", "dense"])
def test_loads_route_reads_large_matrices_bit_for_bit(kind):
    rng = np.random.default_rng(200)
    d = 200
    if kind == "fock":   # every off-diagonal token is 0.0
        values = np.diag(np.concatenate([rng.dirichlet(np.ones(16)), np.zeros(d - 16)]))
        tokens = [repr(float(v)) for v in np.stack([values, np.zeros((d, d))], -1).ravel()]
    else:                # 17 significant digits
        values = rng.standard_normal((d, d, 2)) * 10.0 ** rng.integers(-12, 12, (d, d, 2))
        tokens = ["%.17g" % v for v in values.ravel()]
    text = _state_text(tokens, d)
    assert len(text) > serialize.MATRIX_ROUTE_MIN_CHARS
    assert isinstance(serialize.loads(text)["matrix"], np.ndarray)
    assert _outcome(text, serialize.loads) == _outcome(text, json.loads)


def test_loads_route_fills_the_zeros_dumps_writes(monkeypatch):
    # dumps writes a zero as the integer token 0: the route fills it without conversion, as it fills 0.0
    rng = np.random.default_rng(301)
    d = 200
    weights = np.zeros(d)
    weights[:16] = rng.uniform(0.2, 1.0, 16)
    text = dumps({"dim": d, "matrix": matrix_to_pairs(np.diag(weights / weights.sum()))})
    assert len(text) > serialize.MATRIX_ROUTE_MIN_CHARS and "[0, 0]" in text
    assert _outcome(text, serialize.loads) == _outcome(text, json.loads)
    counts, build = [], serialize._converted
    monkeypatch.setattr(serialize, "_converted", lambda spaced, count: counts.append(count) or build(spaced, count))
    assert isinstance(serialize.loads(text)["matrix"], np.ndarray)
    assert sum(counts) == 16            # the weights alone are converted


def _fock_diagonal(d, levels, rng):
    weights = np.zeros(d)
    weights[:levels] = rng.uniform(0.2, 1.0, levels)
    return np.diag(weights / weights.sum()).astype(complex)


@pytest.mark.parametrize("writer", ["json.dumps", "dumps"])
def test_loads_route_classifies_a_stretch_of_zero_rows_once(monkeypatch, writer):
    # chunks of whole rows: past the weights every chunk equals the one before it
    diag = _fock_diagonal(900, 16, np.random.default_rng(900))
    doc = {"dim": 900, "matrix": matrix_to_pairs(diag) if writer == "json.dumps" else diag}
    text = (json.dumps if writer == "json.dumps" else dumps)(doc)
    classified, classify = [], serialize._classify
    monkeypatch.setattr(serialize, "_classify", lambda piece: classified.append(len(piece)) or classify(piece))
    chunks = serialize._matrix_spans(text.encode())[1]
    assert len(chunks) > 100 and len(classified) <= 8
    assert _bits(pairs_to_matrix(serialize.loads(text)["matrix"])).tobytes() == _bits(diag).tobytes()


def _repeating_texts():
    """name: (text, whether a chunk repeats the one before it), at d = 24 under
    1024-character chunks: three rows of json.dumps cells or two of dumps per chunk."""
    rng = np.random.default_rng(24)
    d = 24
    fock = _fock_diagonal(d, 3, rng)
    last = fock.copy()
    last[-1, 5], last[-2, 7] = 0.1 + 1e-9j, complex(-0.0, -1 / 3)   # the measured row is not a zero row
    fock_text = json.dumps({"dim": d, "matrix": matrix_to_pairs(fock)})
    real = np.zeros((d, d))
    real[:3, :3] = rng.standard_normal((3, 3))
    real[5, 1], real[9, 0] = -0.0, 2.5
    obs = [fock, np.zeros((d, d), complex), fock.T * 1j]
    obs[1][0, 1], obs[1][1, 0] = complex(0.5, -0.0), 0.5
    labelled = dumps({"dim": d, "matrix": fock, "label": "ψ"})
    return {
        "nonzero in the last rows": (dumps({"dim": d, "matrix": last}), False),
        "01 in every row": (fock_text.replace(", 0.0]]", ", 01]]"), True),
        "-0 in every row": (fock_text.replace(", 0.0]]", ", -0]]"), True),
        "real matrix": (dumps({"dim": d, "matrix": real}), False),
        "observables": (dumps({"dim": d, "observables": obs}), True),
        "crlf": (labelled.replace("\n", "\r\n").replace("ψ", "s"), True),
        "non-ascii label": (labelled, True),
    }


@pytest.mark.parametrize("name", list(_repeating_texts()))
def test_loads_route_matches_json_where_chunks_repeat(name, monkeypatch, route):
    text, repeats = _repeating_texts()[name]
    monkeypatch.setattr(serialize, "_CHUNK_CHARS", 1024)
    if name == "real matrix":   # rows of numbers: a list, as json gives it, -0.0 included
        got, want = route(text)["matrix"], json.loads(text)["matrix"]
        assert got == want and np.array_equal(np.signbit(got), np.signbit(want))
    else:
        assert _outcome(text, route) == _outcome(text, json.loads)
    classified, classify = [], serialize._classify
    monkeypatch.setattr(serialize, "_classify", lambda piece: classified.append(len(piece)) or classify(piece))
    chunks = serialize._matrix_spans(text.encode())[1]
    assert (len(classified) < len(chunks)) == repeats


def test_loads_route_rejects_zero_lookalikes_as_before(route):
    # a bare 0 is filled; -0, 01, -01 and 00 still fail the grammar and go to json, which reads
    # -0 as +0.0 and raises on the others
    base = dumps({"dim": 3, "matrix": matrix_to_pairs(np.diag([0.5, 0.25, 0.25]))})
    slots = [m.start() for m in re.finditer(r"(?<=[\[ ])0(?=[,\]])", base)]
    assert len(slots) == 15
    for tok in ("0", "-0", "01", "-01", "00", "0e0", "0.", "0 0"):
        for at in (slots[0], slots[7], slots[-1]):
            text = base[:at] + tok + base[at + 1:]
            want = _outcome(text, json.loads)
            assert _outcome(text, route) == want, (tok, at)
            if tok in ("0", "0e0"):
                assert isinstance(route(text)["matrix"], np.ndarray), (tok, at)
            elif want[0] == "ok":       # -0: the whole text takes json
                assert isinstance(route(text)["matrix"], list), (tok, at)


class TestRouteThroughLoadJson:
    """Every test above that takes ``route``, with load_json of the text written to a
    file as the reader: the file's bytes, or the decoded str of a text with
    non-ASCII bytes or a CR."""

    @pytest.fixture
    def route(self, monkeypatch, tmp_path):
        monkeypatch.setattr(serialize, "MATRIX_ROUTE_MIN_CHARS", 0)
        path = tmp_path / "text.json"

        def read(text):
            path.write_bytes(text.encode("utf-8"))
            return serialize.load_json(str(path))
        return read

    test_loads_route_matches_json_bit_for_bit = staticmethod(test_loads_route_matches_json_bit_for_bit)
    test_loads_route_matches_json_on_mutated_input = staticmethod(test_loads_route_matches_json_on_mutated_input)
    test_loads_route_matches_json_on_slots_and_zero_lookalikes = staticmethod(
        test_loads_route_matches_json_on_slots_and_zero_lookalikes)
    test_loads_route_across_chunk_boundaries = staticmethod(test_loads_route_across_chunk_boundaries)
    test_loads_route_rejects_zero_lookalikes_as_before = staticmethod(test_loads_route_rejects_zero_lookalikes_as_before)
    test_loads_route_matches_json_where_chunks_repeat = staticmethod(test_loads_route_matches_json_where_chunks_repeat)


def test_classify_marks_number_bytes_and_token_starts_and_builds_the_skeleton():
    # reference: the _CLASS byte of every byte, each run of "n" as one, whitespace deleted
    rng = np.random.default_rng(11)
    pieces = [bytes(range(256))] + [bytes(rng.choice(list(b'0123456789.eE+-[],"/ \t\n\r\f?x\x00\xff'), n))
                                    for n in rng.integers(1, 400, 200)]
    for piece in pieces:
        chars, num, first, skeleton = serialize._classify(piece)
        assert np.array_equal(chars, np.frombuffer(piece, np.uint8))
        assert np.array_equal(num, [c in b"0123456789.eE+-" for c in piece])
        starts = [m.start() for m in re.finditer(rb"[0-9.eE+-]+", piece)]
        assert np.array_equal(np.flatnonzero(first), starts)
        assert skeleton == re.sub(rb"n+", b"n", piece.translate(serialize._CLASS)).translate(None, b" ")


# the tracemalloc peak of the regex-scan reader that the byte-class route replaced,
# on the text below: the route keeps its masks for one chunk at a time
REGEX_READER_PEAK_D300 = 3_967_823   # bytes, 3.78 MiB


def test_loads_peak_memory_on_a_d300_fock_state():
    rng = np.random.default_rng(300)
    d = 300
    weights = np.zeros(d)
    weights[:16] = rng.uniform(0.2, 1.0, 16)
    pairs = np.stack([np.diag(weights / weights.sum()), np.zeros((d, d))], -1)
    text = _state_text([repr(float(v)) for v in pairs.ravel()], d)
    serialize.loads(text)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        doc = serialize.loads(text)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert isinstance(doc["matrix"], np.ndarray)
    assert peak <= REGEX_READER_PEAK_D300


def _text_mode_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.read())


def _large_state_text(label="s"):
    rng = np.random.default_rng(17)
    return _state_text(_tokens(rng, 2 * 100 * 100), 100).replace('"s"', json.dumps(label, ensure_ascii=False))


def _bytes_text_cases():
    text = _large_state_text()
    late_error = text.replace('"label": "s"', '"label": s')
    return {
        "crlf": text.replace("\n", "\r\n").encode(),
        "crlf with a late error": late_error.replace("\n", "\r\n").encode(),
        "lone cr": text.replace("\n", "\r").encode(),
        "lone cr with a late error": late_error.replace("\n", "\r").encode(),
        "non-ascii label": _large_state_text("\u03c8").encode(),
        "one leading nul": b"\0" + text.encode(),
        "two leading nuls": b"\0\0" + text.encode(),
    }


@pytest.mark.parametrize("name", list(_bytes_text_cases()))
def test_load_json_matches_a_text_mode_read_where_bytes_and_text_differ(name, tmp_path):
    data = _bytes_text_cases()[name]
    assert len(data) > serialize.MATRIX_ROUTE_MIN_CHARS
    path = tmp_path / "state.json"
    path.write_bytes(data)
    want = _outcome(path, _text_mode_json)
    assert _outcome(path, serialize.load_json) == want
    if want[0] == "ok":
        assert isinstance(serialize.load_json(path)["matrix"], np.ndarray)


@pytest.mark.parametrize("off", [-1, 1])
def test_load_json_reads_the_text_when_the_size_is_wrong(off, tmp_path, monkeypatch):
    # the reader takes the file's size from its one read, never from fstat
    path = tmp_path / "state.json"
    path.write_text(_large_state_text())
    want = _outcome(path, _text_mode_json)
    assert want[0] == "ok"
    fstat = os.fstat
    monkeypatch.setattr(serialize.os, "fstat", lambda fd: types.SimpleNamespace(st_size=fstat(fd).st_size + off))
    assert _outcome(path, serialize.load_json) == want
    digest = hashlib.sha256()
    assert isinstance(serialize.load_json(path, digest)["matrix"], np.ndarray)
    assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()   # of the text read alone


@pytest.mark.parametrize("name", ["small", "small crlf", "large", "large crlf", "non-ascii label"])
def test_load_json_hashes_the_bytes_it_parses(name, tmp_path):
    if name.startswith("small"):
        text = _state_text(["0.5", "0", "0", "0", "0", "0", "0.5", "0"], 2)
    else:
        text = _large_state_text("\u03c8" if name == "non-ascii label" else "s")
    data = (text.replace("\n", "\r\n") if name.endswith("crlf") else text).encode("utf-8")
    assert (len(data) > serialize.MATRIX_ROUTE_MIN_CHARS) == (not name.startswith("small"))
    assert (b"\r" in data) == name.endswith("crlf")
    path = tmp_path / "state.json"
    path.write_bytes(data)
    digest = hashlib.sha256()
    assert _outcome(path, lambda p: serialize.load_json(p, digest)) == _outcome(path, _text_mode_json)
    assert digest.hexdigest() == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", ["small", "large", "large crlf", "non-ascii label"])
def test_load_json_opens_the_file_once_and_reads_it_once(name, tmp_path, monkeypatch):
    text = _state_text(["0.5", "0", "0", "0", "0", "0", "0.5", "0"], 2) if name == "small" else \
        _large_state_text("\u03c8" if name == "non-ascii label" else "s")
    data = (text.replace("\n", "\r\n") if name.endswith("crlf") else text).encode("utf-8")
    path = tmp_path / "state.json"
    path.write_bytes(data)
    want = _outcome(path, _text_mode_json)
    calls = []

    class OneRead:   # a file with read alone: any other call on it fails the outcome
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def read(self, *args):
            calls.append(("read", args))
            return self.fh.read(*args)

    def spy_open(*args, **kwargs):
        calls.append(("open", args))
        return OneRead(open(*args, **kwargs))

    monkeypatch.setattr(serialize, "open", spy_open, raising=False)
    digest = hashlib.sha256()
    assert _outcome(path, lambda p: serialize.load_json(p, digest)) == want
    assert calls == [("open", (path, "rb")), ("read", ())]
    assert digest.hexdigest() == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("route_min", [None, 0])
@pytest.mark.parametrize("data", [b"", b" \n\t  "], ids=["empty", "whitespace"])
def test_load_json_raises_jsons_error_on_an_empty_or_blank_file(data, route_min, tmp_path, monkeypatch, capsys):
    # route_min 0 sends the blank file down the route as bytes; json's error either way
    from skewsharp.cli import main

    if route_min is not None:
        monkeypatch.setattr(serialize, "MATRIX_ROUTE_MIN_CHARS", route_min)
    path = tmp_path / "state.json"
    path.write_bytes(data)
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(data.decode())
    with pytest.raises(json.JSONDecodeError) as got:
        serialize.load_json(path)
    assert str(got.value) == str(want.value)
    obs = tmp_path / "obs.json"
    obs.write_text(dumps({"dim": 2, "observables": [np.diag([1.0, -1.0]).astype(complex)]}))
    assert main(["check", str(path), str(obs)]) == 2
    assert capsys.readouterr().err == f"error: {want.value}\n"


def test_write_text_writes_over_a_longer_file_and_cuts_it(tmp_path):
    path = tmp_path / "report.json"
    serialize.write_text(str(path), "x" * 70_000 + "\u03c8")
    serialize.write_text(str(path), "short \u03c8\n")
    assert path.read_bytes() == "short \u03c8\n".encode("utf-8")
    serialize.write_text(str(path), "a longer text\n")
    assert path.read_text() == "a longer text\n"
    serialize.write_text(os.devnull, "ignored")   # a character device: written, not cut


def test_write_text_creates_a_file_as_open_does(tmp_path):
    old = os.umask(0o027)
    try:
        serialize.write_text(str(tmp_path / "new.json"), "{}\n")
        with open(tmp_path / "by_open.json", "w") as fh:
            fh.write("{}\n")
    finally:
        os.umask(old)
    modes = {stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("new.json", "by_open.json")}
    assert modes == {0o640}


def test_load_json_closes_its_buffer(tmp_path):
    rng = np.random.default_rng(300)
    weights = np.zeros(300)
    weights[:16] = rng.uniform(0.2, 1.0, 16)
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dim": 300, "matrix": matrix_to_pairs(np.diag(weights / weights.sum()))}))
    m = serialize.load_json(path)["matrix"]
    assert isinstance(m, np.ndarray) and m.flags.writeable and m.flags.owndata


# ----------------------------------------- the route's JSON number grammar

# the JSON number grammar without the integer -0, as one pattern: the reference
# for the array-wise check
NUMBER = r"(?:-(?:0(?=[.eE])|[1-9][0-9]*)|0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"


def _grammar_agrees(tokens, gaps):
    spaced = "".join(g + t for g, t in zip(gaps, tokens)) + " "
    want = all(re.fullmatch(NUMBER, t) for t in tokens)
    return serialize._json_numbers(np.frombuffer(spaced.encode(), np.uint8)) == want


def test_json_numbers_match_the_pattern_on_every_short_token():
    for n in range(1, 5):
        for tok in map("".join, itertools.product("019.eE+-", repeat=n)):
            for tokens, gaps in (([tok], [""]), ([tok, "2.5e-3"], [" ", "  "]),
                                 (["1", tok, "0"], ["", " ", " "])):
                assert _grammar_agrees(tokens, gaps), tokens


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(st.text("0123456789.eE+-", min_size=1, max_size=9), min_size=1, max_size=6),
       gaps=st.lists(st.sampled_from(["", " ", "   "]), min_size=6, max_size=6))
def test_json_numbers_match_the_pattern(tokens, gaps):
    assert _grammar_agrees(tokens, [gaps[0]] + [g or " " for g in gaps[1:len(tokens)]])
