import json
import math

import numpy as np
import pytest

from skewsharp.serialize import FormatError, dumps, matrix_to_pairs, pairs_to_matrix


def recursive_dumps(obj, indent=2):
    """Reference renderer: one recursive call per value, each float through isnan/isinf."""

    def fmt(x):
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
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
    # through the 17-digit text; "-0" reads back as the integer 0, as cell by cell
    data = json.loads(dumps(matrix_to_pairs(A)))
    cell_by_cell = np.array([[complex(re, im) for re, im in row] for row in data])
    assert np.array_equal(_bits(pairs_to_matrix(data)), _bits(cell_by_cell))


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
])
def test_pairs_reject_malformed(data):
    with pytest.raises(FormatError):
        pairs_to_matrix(data)
