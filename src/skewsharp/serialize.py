"""JSON I/O: complex matrices as [re, im] pairs, floats at 17 significant digits.

The dumper is deterministic (insertion order, fixed float formatting) so that
identical inputs produce byte-identical files; 17 significant digits round-trip
doubles exactly.  Infinities follow Python's json convention (Infinity), which
``json.loads`` accepts back.

Reading: ``loads`` returns what ``json.loads`` returns, except that on a text
longer than MATRIX_ROUTE_MIN_CHARS every array that is exactly a d x d matrix of
[re, im] number cells comes back as one float64 array of shape (d, d, 2), read
from the text's bytes instead of through about 3 d^2 Python objects
(``pairs_to_matrix`` takes either form).  One pass over the text, chunk by chunk,
classifies every byte with a ``bytes.translate`` table and builds a skeleton: no
whitespace, and each number token (a run of 0-9 . e E + -) as one "n".  A matrix
is accepted only where the skeleton is exactly [[[n,n],...],...] for the d of its
first row, which proves that it is square with one token per slot.  A token that
is exactly 0.0 or 0 (``dumps`` writes a zero as 0) becomes +0.0 without
conversion.  Every other token must be a JSON number, and not an integer -0
(json reads it as +0.0, strtod as -0.0), with a finite value; ``np.fromstring``
converts them.  Each accepted matrix is replaced by a marker string and json
parses what is left, so keys, strings, ``dim``, ``label`` and every other array
take the json path.  If that parse fails, or a marker is not a value exactly once
(a matrix-like text inside a string, or in a key), the whole text goes to
``json.loads``.  Both conversions round correctly, so an accepted text gives
bit-identical numbers, and a rejected one raises json's own exception.
"""

from __future__ import annotations

import bisect
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

# Byte classes, a translate table: "n" for a number byte (0-9 . e E + -), " " for
# JSON whitespace, "[", "]" and "," as themselves, "?" for every other byte.
_CLASS = (b"?" * 9 + b"  ?? " + b"?" * 18 + b" " + b"?" * 10 + b"n,nn?" + b"n" * 10
          + b"?" * 11 + b"n" + b"?" * 21 + b"[?]" + b"?" * 7 + b"n" + b"?" * 154)
# The route reads a text in chunks of about this many characters, so that its
# per-byte masks exist for one chunk at a time and stay in cache.  With 2^20 the
# tracemalloc peak on a d = 300 Fock-diagonal file was 8.4 MiB (2.6 MiB at 2^16),
# and the d = 900 files read about 1.5 times slower.
_CHUNK_CHARS = 1 << 16
_MARK = "\0"


def _chunks(text: str, start: int, stop: int):
    """(offset, piece) of text[start:stop] in pieces of about _CHUNK_CHARS, each but
    the last ending in a byte that is not a number byte, so that no token
    straddles two (a token longer than a chunk is cut, and its pieces make no
    matrix)."""
    while start < stop:
        piece = text[start:min(start + _CHUNK_CHARS, stop)]
        if start + len(piece) < stop:
            piece = piece.rstrip("0123456789.eE+-") or piece
        yield start, piece
        start += len(piece)


def _token_starts(num: np.ndarray) -> np.ndarray:
    """The first byte of each run of number bytes."""
    first = num.copy()
    first[1:] &= ~num[:-1]
    return first


def _classify(piece: str) -> tuple:
    """The bytes of a piece and its _CLASS bytes, as arrays, with its number-byte mask
    and token starts."""
    raw = piece.encode("ascii", "replace")
    cls = np.frombuffer(raw.translate(_CLASS), np.uint8)
    num = cls == ord("n")
    return np.frombuffer(raw, np.uint8), cls, num, _token_starts(num)


def _skeleton_piece(cls: np.ndarray, num: np.ndarray, first: np.ndarray) -> bytes:
    """The skeleton of a piece: its _CLASS bytes without whitespace, each number
    token as one "n"."""
    tail = num & ~first
    return (cls - tail * np.uint8(ord("n") - ord(" "))).tobytes().translate(None, b" ")


def _other_tokens(chars: np.ndarray, num: np.ndarray, first: np.ndarray) -> tuple | None:
    """None if every token of a piece is exactly 0.0 or 0 ("0.0" or "0" then a byte
    that is not a number byte); else the piece with its number bytes kept and every
    other byte, and every 0.0 and 0 token, as a space, and which of its tokens that
    keeps (None for all)."""
    lead, end = first & (chars == ord("0")), ~num
    dotted = np.zeros_like(first)       # the starts of the 0.0 tokens
    dotted[:-3] = lead[:-3] & (chars[1:-2] == ord(".")) & (chars[2:-1] == ord("0")) & end[3:]
    if np.array_equal(dotted, first):   # json.dumps writes a zero as 0.0, ``dumps`` as 0
        return None
    zero = dotted.copy()
    zero[:-1] |= lead[:-1] & end[1:]
    if np.array_equal(zero, first):
        return None
    keep, kept = num, None
    if zero.any():
        # the bytes of the zero tokens: each start, and the two after a 0.0 start (none
        # in the last three bytes, so the roll wraps no start around)
        blank = zero | np.roll(dotted, 1) | np.roll(dotted, 2)
        keep, kept = num & ~blank, ~zero[first]
    # kept bytes, else a space (np.where takes several times longer)
    return (chars * keep + ~keep * np.uint8(ord(" "))).tobytes(), kept


def _json_numbers(spaced: np.ndarray) -> bool:
    """Whether every token of ``spaced`` (number bytes and spaces; it ends in a space)
    is a JSON number, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, other than the
    integer -0, which json reads as +0.0 and strtod as -0.0.  Checked array-wise:
    the bytes on either side of each sign, "." and exponent letter and of a leading
    0, and the order of the "." and exponent letters within each token."""
    t = np.full(len(spaced) + 4, ord(" "), np.uint8)   # two spaces on either side
    t[2:-2] = spaced
    at, before, after = slice(2, -2), slice(1, -3), slice(3, -1)
    low = t | 0x20
    space, digit, zero = t == ord(" "), (t - ord("0")) < 10, t == ord("0")
    minus, plus, dot, exp = t == ord("-"), t == ord("+"), t == ord("."), low == ord("e")
    sign = minus | plus
    bad = (sign | dot)[at] & ~digit[after]           # 1., -, 1e+
    bad |= exp[at] & ~(digit | sign)[after]          # 1e
    bad |= (dot | exp)[at] & ~digit[before]          # .5, 1.e5
    bad |= plus[at] & ~exp[before]                   # +1
    bad |= minus[at] & ~(space | exp)[before]        # 1-2, --1
    lead = space[before] | (minus[before] & space[:-4])
    bad |= zero[at] & lead & (digit[after] | (minus[before] & space[after]))   # 01, -01, -0
    if bad.any():
        return False
    # in the sequence of "." and exponent letters and token ends, two that are not
    # ends follow each other only as "." then exponent letter: no 1.5.5, 1e5e5, 1e5.5
    marks = low[at][np.flatnonzero((dot | exp)[at] | (space[at] & digit[before]))]
    one, two = marks[:-1], marks[1:]
    return not ((one != ord(" ")) & (two != ord(" ")) & ((one != ord(".")) | (two == ord(".")))).any()


def _converted(spaced: bytes, count: int) -> np.ndarray | None:
    """The values of the count tokens of ``spaced``, or None unless each is a JSON
    number (_json_numbers) with a finite value (json reads an integer beyond the
    float range as an int)."""
    if not _json_numbers(np.frombuffer(spaced, np.uint8)):
        return None
    values = np.fromstring(spaced, dtype=float, sep=" ")
    return values if values.size == count and np.isfinite(values).all() else None


def _matrix_size(skeleton: bytearray, i: int, e: int) -> int:
    """d when skeleton[i:] starts with the skeleton of a d x d matrix of [n,n] cells
    whose first row ends at e, the first "]]" after i; else 0."""
    d, rest = divmod(e - i, 6)   # "[" then the first row "[[n,n],...,[n,n]]": "]]" at 6 d
    if rest or d < 1:
        return 0
    row = b"[[n,n]" + b",[n,n]" * (d - 1) + b"]"
    rows = [row + b","] * (d - 1) + [row + b"]"]
    # row by row, so that the bytes compared beyond the matched rows stay one row
    at = i + 1
    for r in rows:
        if not skeleton.startswith(r, at):
            return 0
        at += len(r)
    return d


def _matrix_spans(text: str) -> tuple[list, list]:
    """One pass over the text, chunk by chunk: the (start, stop, d, first token,
    first chunk) of each text[start:stop] whose skeleton is exactly that of a d x d
    matrix of [re, im] cells, in text order; and per chunk its offset, the tokens
    before it and in it, and its _other_tokens."""
    skeleton, offsets, chunks, tokens = bytearray(), [], [], 0
    for start, piece in _chunks(text, 0, len(text)):
        chars, cls, num, first = _classify(piece)
        offsets.append(len(skeleton))
        skeleton += _skeleton_piece(cls, num, first)
        count = np.count_nonzero(first)
        chunks.append((start, tokens, count, _other_tokens(chars, num, first)))
        tokens += count

    def char_index(k):
        # of a bracket: the skeleton keeps every bracket of the text, in order
        c = bisect.bisect_right(offsets, k) - 1
        bracket = skeleton[k:k + 1]
        start, piece = next(_chunks(text, chunks[c][0], len(text)))
        at = np.flatnonzero(np.frombuffer(piece.encode("ascii", "replace"), np.uint8) == bracket[0])
        return start + int(at[skeleton.count(bracket, offsets[c], k)])

    spans, at = [], 0
    # a matrix starts at the last "[[[n" before the end of its first row: the row
    # holds no "[[[", so each "]]" has one candidate and the search is linear
    while (e := skeleton.find(b"]]", at)) >= 0:
        i = skeleton.rfind(b"[[[n", at, e)
        d = _matrix_size(skeleton, i, e) if i >= 0 else 0
        if d:
            end = i + 6 * d * d + 2 * d
            c = bisect.bisect_right(offsets, i) - 1
            first_token = chunks[c][1] + skeleton.count(b"n", offsets[c], i)
            spans.append((char_index(i), char_index(end) + 1, d, first_token, c))
            at = end + 1
        else:
            at = e + 2
    return spans, chunks


def _matrix_values(chunks: list, span: tuple) -> np.ndarray | None:
    """(d, d, 2) values of a matrix span, or None unless _converted takes each of its
    tokens.  A token that is exactly 0.0 or 0 is +0.0 without conversion."""
    start, stop, d, first_token, first_chunk = span
    values = np.zeros(2 * d * d)
    for lo, tokens_before, count, others in chunks[first_chunk:]:
        if lo >= stop:
            break
        if others is None:
            continue
        spaced, kept = others
        # the span's bytes and tokens of this chunk: a span starts at "[" and ends at "]"
        spaced = spaced[max(start - lo, 0):stop - lo]
        k0 = max(first_token - tokens_before, 0)
        k1 = min(first_token + 2 * d * d - tokens_before, count)
        kept = None if kept is None else kept[k0:k1]
        n = k1 - k0 if kept is None else np.count_nonzero(kept)
        if n == 0:
            continue
        converted = _converted(spaced, n)
        if converted is None:
            return None
        at = values[tokens_before + k0 - first_token:tokens_before + k1 - first_token]
        if kept is None:
            at[:] = converted
        else:
            at[kept] = converted
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
    if len(text) <= MATRIX_ROUTE_MIN_CHARS:
        return json.loads(text)
    spans, chunks = _matrix_spans(text)
    pieces, arrays, end = [], {}, 0
    for span in spans:
        values = _matrix_values(chunks, span)
        if values is not None:
            mark = f"{_MARK}{len(arrays)}"
            arrays[mark] = values
            pieces += (text[end:span[0]], json.dumps(mark))
            end = span[1]
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
