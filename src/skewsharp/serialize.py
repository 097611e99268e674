"""JSON I/O: complex matrices as [re, im] pairs, floats at 17 significant digits.

The dumper is deterministic (insertion order, fixed float formatting) so that
identical inputs produce byte-identical files; 17 significant digits round-trip
doubles exactly.  Infinities follow Python's json convention (Infinity), which
``json.loads`` accepts back.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import numbers

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


def fmt_float(x: float) -> str:
    return _named_non_finite(format(float(x), ".17g"))


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
    return "[\n" + _named_non_finite(",\n".join([cell] * len(node)) % flat) + "\n" + pad + "]"


def dumps(obj, indent: int = 2) -> str:
    """Deterministic JSON text with fixed float formatting."""

    def render(node, depth):
        if isinstance(node, (list, tuple)):
            if len(node) == 0:
                return "[]"
            types = set(map(type, node))
            if types == {float}:
                return "[" + _named_non_finite(", ".join(["%.17g"] * len(node)) % tuple(node)) + "]"
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
    """Square complex matrix from d x d cells [re, im] of real, non-boolean numbers."""
    error = FormatError(f"{what}: expected a square matrix of [re, im] number pairs")
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


def state_to_dict(rho: DensityMatrix, label: str | None = None) -> dict:
    out = {"dim": rho.dim, "matrix": matrix_to_pairs(rho.matrix)}
    if label is not None:
        out["label"] = label
    return out


def parse_state(data: dict, what: str = "state") -> DensityMatrix:
    if not isinstance(data, dict) or "matrix" not in data:
        raise FormatError(f"{what}: expected an object with a 'matrix' field")
    A = pairs_to_matrix(data["matrix"], what)
    dim = data.get("dim")
    if dim is not None and int(dim) != A.shape[0]:
        raise FormatError(f"{what}: declared dim {dim} != matrix dim {A.shape[0]}")
    return DensityMatrix.from_matrix(A)


def observables_to_dict(X: ObservableSet, labels: list[str] | None = None) -> dict:
    out = {"dim": X.dim, "observables": [matrix_to_pairs(M) for M in X.observables]}
    if labels is not None:
        out["labels"] = list(labels)
    return out


def parse_observables(data: dict, what: str = "observables") -> ObservableSet:
    if not isinstance(data, dict) or "observables" not in data:
        raise FormatError(f"{what}: expected an object with an 'observables' field")
    mats = [pairs_to_matrix(m, f"{what}[{k}]") for k, m in enumerate(data["observables"])]
    dim = data.get("dim")
    if dim is not None and any(int(dim) != m.shape[0] for m in mats):
        raise FormatError(f"{what}: declared dim {dim} does not match every matrix")
    return ObservableSet.from_matrices(mats)


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def sha256_of_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()
