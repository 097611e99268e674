"""JSON I/O: complex matrices as [re, im] pairs, floats at 17 significant digits.

The dumper is deterministic (insertion order, fixed float formatting) so that
identical inputs produce byte-identical files; 17 significant digits round-trip
doubles exactly.  Infinities follow Python's json convention (Infinity), which
``json.loads`` accepts back.

Reading: ``loads`` returns what ``json.loads`` returns, except that on a text
longer than MATRIX_ROUTE_MIN_CHARS every array that is exactly a d x d matrix of
[re, im] number cells comes back as one float64 array of shape (d, d, 2), read
straight from the text by ``np.fromstring`` instead of through about 3 d^2
Python objects (``pairs_to_matrix`` takes either form).  Such an array must
match _MATRIX: JSON numbers and JSON whitespace only, in ASCII, and no integer
-0 (json reads it as +0.0, strtod as -0.0).  It must also be square, with
finite values.  Each one is replaced by a marker string and json parses what
is left, so keys, strings, ``dim``, ``label`` and every other array take the
json path.  If that parse fails, or a marker is not a value exactly once (a
matrix-like text inside a string, or in a key), the whole text goes to
``json.loads``.  Both conversions round correctly, so an accepted text gives
bit-identical numbers, and a rejected one raises json's own exception.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import numbers
import re
import sys

import numpy as np

from .linalg import DensityMatrix, SkewsharpError
from .skew import ObservableSet


class FormatError(SkewsharpError):
    pass


def _named_non_finite(text: str) -> str:
    # .17g writes no letter but "e" for a finite double: nan and inf are whole tokens
    if "n" in text:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _json_floats(text: str) -> str:
    """.17g text of a list of floats, brackets included, made JSON: nan, inf and -0.0
    as json reads them back."""
    text = _named_non_finite(text)
    # .17g writes -0.0 as "-0", which json reads as the integer 0; in a list every
    # value ends at "," or "]", and no other value ends in "-0" (an exponent has two digits)
    if "-0," in text or "-0]" in text:
        text = text.replace("-0,", "-0.0,").replace("-0]", "-0.0]")
    return text


def fmt_float(x: float) -> str:
    text = format(float(x), ".17g")
    return "-0.0" if text == "-0" else _named_non_finite(text)


def _fmt_number(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return fmt_float(v)


def _is_number_type(t: type) -> bool:
    return issubclass(t, (int, float, np.integer, np.floating))


def _float_rows(node: list, inner: str, pad: str) -> str | None:
    """Lists of equal length holding only floats (matrices of [re, im] cells), one
    line each, rendered with one format per call; None for any other list of lists."""
    widths = set(map(len, node))
    if len(widths) != 1 or not node[0] or type(node[0][0]) is not float:
        return None
    flat = tuple(itertools.chain.from_iterable(node))
    if set(map(type, flat)) != {float}:
        return None
    cell = inner + "[" + ", ".join(["%.17g"] * widths.pop()) + "]"
    return "[\n" + _json_floats(",\n".join([cell] * len(node)) % flat) + "\n" + pad + "]"


def dumps(obj, indent: int = 2) -> str:
    """Deterministic JSON text with fixed float formatting."""

    def render(node, depth):
        if isinstance(node, (list, tuple)):
            if len(node) == 0:
                return "[]"
            types = set(map(type, node))
            if types == {float}:
                return _json_floats("[" + ", ".join(["%.17g"] * len(node)) % tuple(node) + "]")
            if all(map(_is_number_type, types)):
                return "[" + ", ".join(map(_fmt_number, node)) + "]"
            inner = " " * (indent * (depth + 1))
            if types == {list}:
                rows = _float_rows(node, inner, " " * (indent * depth))
                if rows is not None:
                    return rows
            items = ",\n".join(inner + render(v, depth + 1) for v in node)
            return "[\n" + items + "\n" + " " * (indent * depth) + "]"
        if isinstance(node, dict):
            if not node:
                return "{}"
            inner = " " * (indent * (depth + 1))
            items = ",\n".join(
                f"{inner}{json.dumps(str(k))}: {render(v, depth + 1)}" for k, v in node.items()
            )
            return "{\n" + items + "\n" + " " * (indent * depth) + "}"
        if node is None:
            return "null"
        if isinstance(node, (bool, int, float, np.integer, np.floating)):
            return _fmt_number(node)
        if isinstance(node, str):
            return json.dumps(node)
        raise FormatError(f"cannot serialize {type(node).__name__}")

    return render(obj, 0) + "\n"


def matrix_to_pairs(A: np.ndarray) -> list:
    A = np.asarray(A, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in A]


def _is_real_number_type(t: type) -> bool:
    return issubclass(t, numbers.Real) and not issubclass(t, (bool, np.bool_))


def pairs_to_matrix(data, what: str = "matrix") -> np.ndarray:
    """Square complex matrix from d x d cells [re, im] of real, non-boolean numbers,
    or from the (d, d, 2) float64 array that ``loads`` makes of such cells."""
    error = FormatError(f"{what}: expected a square matrix of [re, im] number pairs")
    if isinstance(data, np.ndarray):
        d = data.shape[0] if data.ndim else 0
        if d == 0 or data.shape != (d, d, 2) or data.dtype != np.float64:
            raise error
        return np.ascontiguousarray(data).view(complex)[..., 0]
    cells = itertools.chain.from_iterable
    try:
        d = len(data)
        if d == 0 or set(map(len, data)) != {d} or set(map(len, cells(data))) != {2}:
            raise error
        flat = list(cells(cells(data)))
        if not all(map(_is_real_number_type, set(map(type, flat)))):
            raise error
        parts = np.array(flat, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error from exc
    return parts.reshape(d, d, 2).view(complex)[..., 0]


def real_matrix_to_lists(A: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.asarray(A, dtype=float)]


def state_to_dict(rho: DensityMatrix) -> dict:
    return {"dim": rho.dim, "matrix": matrix_to_pairs(rho.matrix)}


def _declared_dim(data: dict, what: str) -> int | None:
    if "dim" not in data:
        return None
    dim = data["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise FormatError(f"{what}: 'dim' must be an integer")
    return dim


def parse_state(data: dict, what: str = "state", build=DensityMatrix.from_matrix) -> DensityMatrix:
    """State from its JSON object: ``build`` takes the square complex matrix and
    returns the validated state.  A caller that needs more than
    ``DensityMatrix.from_matrix`` passes its own builder, e.g. one that checks the
    size before any eigh and gives the eigh a partition (``gaussian.fock_density``)."""
    if not isinstance(data, dict) or "matrix" not in data:
        raise FormatError(f"{what}: expected an object with a 'matrix' field")
    A = pairs_to_matrix(data["matrix"], what)
    dim = _declared_dim(data, what)
    if dim is not None and dim != A.shape[0]:
        raise FormatError(f"{what}: declared dim {dim} != matrix dim {A.shape[0]}")
    return build(A)


def observables_to_dict(X: ObservableSet) -> dict:
    return {"dim": X.dim, "observables": [matrix_to_pairs(M) for M in X.observables]}


def parse_observables(data: dict, what: str = "observables") -> ObservableSet:
    if not isinstance(data, dict) or "observables" not in data:
        raise FormatError(f"{what}: expected an object with an 'observables' field")
    obs = data["observables"]
    # one matrix in place of the list is an array after loads; its rows then fail
    # as matrices, as the rows of the nested list do
    if not isinstance(obs, (list, np.ndarray)) or len(obs) == 0:
        raise FormatError(f"{what}: 'observables' must be a non-empty list of matrices")
    mats = [pairs_to_matrix(m, f"{what}[{k}]") for k, m in enumerate(obs)]
    dim = _declared_dim(data, what)
    if dim is not None and any(dim != m.shape[0] for m in mats):
        raise FormatError(f"{what}: declared dim {dim} does not match every matrix")
    return ObservableSet.from_matrices(mats)


# Below this many characters json alone is as fast or faster: the route costs
# tens of microseconds per text, and both take about 1.5 ms at d = 32 (5 * 10^4
# characters).  The state and observables files of `check` at d <= 8 have at
# most about 10^4 characters.
MATRIX_ROUTE_MIN_CHARS = 1 << 17

_WS = r"[ \t\n\r]*+"
_NUMBER = r"(?:-(?:0(?=[.eE])|[1-9][0-9]*+)|0|[1-9][0-9]*+)(?:\.[0-9]++)?+(?:[eE][+-]?+[0-9]++)?+"
_CELL = rf"\[{_WS}{_NUMBER}{_WS},{_WS}{_NUMBER}{_WS}\]"
_ROW = rf"\[{_WS}{_CELL}(?:{_WS},{_WS}{_CELL})*+{_WS}\]"
# possessive quantifiers (Python 3.11) keep the scan linear; without them there is
# no route.  re compiles it on first use (3 ms) and caches it.
_MATRIX = rf"\[{_WS}{_ROW}(?:{_WS},{_WS}{_ROW})*+{_WS}\]" if sys.version_info >= (3, 11) else None
_NUMBER_AND_SPACE_BYTES = b"0123456789.eE+- \t\n\r"
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")
_MARK = "\0"


def _matrix_array(span: bytes) -> np.ndarray | None:
    """(d, d, 2) values of a text _MATRIX matched, or None unless it is square
    with finite values (json reads an integer beyond the float range as an int)."""
    skeleton = span.translate(None, _NUMBER_AND_SPACE_BYTES)
    d = skeleton.find(b"]]") // 4   # "[" then d cells "[,]" joined by ",": the first row ends at 4 d
    row = b"[" + b",".join([b"[,]"] * d) + b"]"
    if d < 1 or skeleton != b"[" + b",".join([row] * d) + b"]":
        return None
    values = np.fromstring(span.translate(_BRACKETS_TO_SPACES), dtype=float, sep=",")
    if values.size != 2 * d * d or not np.isfinite(values).all():
        return None
    return values.reshape(d, d, 2)


def _place(doc, arrays: dict):
    """doc with each marker string replaced by its array; KeyError unless every
    marker is a value (not in a key or a longer string) exactly once."""
    root = [doc]
    todo = [root]
    while todo:
        node = todo.pop()
        for k, v in (node.items() if isinstance(node, dict) else enumerate(node)):
            if isinstance(v, str):
                if v.startswith(_MARK):
                    node[k] = arrays.pop(v)
            elif isinstance(v, (list, dict)):
                todo.append(v)
    if arrays:
        raise KeyError("a matrix marker is not a value")
    return root[0]


def loads(text: str):
    """``json.loads(text)``, with each d x d matrix of [re, im] number cells as one
    (d, d, 2) float64 array on a text longer than MATRIX_ROUTE_MIN_CHARS."""
    if len(text) <= MATRIX_ROUTE_MIN_CHARS or _MATRIX is None:
        return json.loads(text)
    pieces, arrays, end = [], {}, 0
    for m in re.finditer(_MATRIX, text):
        values = _matrix_array(m.group().encode("ascii"))
        if values is not None:
            mark = f"{_MARK}{len(arrays)}"
            arrays[mark] = values
            pieces += (text[end:m.start()], json.dumps(mark))
            end = m.end()
    if not arrays:
        return json.loads(text)
    pieces.append(text[end:])
    try:
        return _place(json.loads("".join(pieces)), arrays)
    except (ValueError, KeyError):
        return json.loads(text)


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def sha256_of_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()
