import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewsharp import serialize
from skewsharp.serialize import FormatError, dumps, matrix_to_pairs, pairs_to_matrix


def recursive_dumps(obj, indent=2):
    """Reference renderer: one recursive call per value, each float through isnan/isinf."""

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


@pytest.mark.parametrize("indent", [0, 2, 4])
def test_dumps_float_rows_match_recursive_rendering(indent):
    # rows of equal-length float lists take the one-format-per-row path; anything
    # else (ints, numpy floats, ragged or empty rows, deeper nesting) must not
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
        assert dumps(node, indent) == recursive_dumps(node, indent)


@pytest.mark.parametrize("indent", [0, 2, 4])
def test_dumps_matches_recursive_rendering(indent):
    obj = _payload()
    assert dumps(obj, indent) == recursive_dumps(obj, indent)
    for node in obj.values():
        assert dumps(node, indent) == recursive_dumps(node, indent)


def test_dumps_rejects_what_the_recursive_rendering_rejects():
    for bad in (np.bool_(True), [np.bool_(True), 1.0], {"a": object()}, np.zeros(2)):
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
