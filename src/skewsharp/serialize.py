"""JSON I/O: complex matrices as [re, im] pairs, floats at 17 significant digits.

The dumper is deterministic (insertion order, fixed float formatting) so that
identical inputs produce byte-identical files; 17 significant digits round-trip
doubles exactly.  Infinities follow Python's json convention (Infinity), which
``json.loads`` accepts back.  A 2-D float64 or complex128 array renders with one
format call on its values, to the bytes of its nested list (a complex entry as an
[re, im] cell), so reports hand over their matrices as arrays.  ``write_text``
writes a report over the old file in place, then cuts it at the new length.

Reading: ``load_json`` reads each file with one ``read`` and, when asked, hashes
the very bytes it parses (``check`` takes its input digests from there).  ``loads``
returns what ``json.loads`` returns, except that on a text longer than
MATRIX_ROUTE_MIN_CHARS every array that is exactly a d x d matrix of [re, im]
number cells comes back as one float64 array of shape (d, d, 2), read from the
text's UTF-8 bytes instead of through about 3 d^2 Python objects
(``pairs_to_matrix`` takes either form).  ``load_json`` hands a file above that
size to ``loads`` as its bytes when they are ASCII with no CR, and any other file
as the str a text-mode read gives (CRLF and lone CR as LF); ``loads`` encodes a
long str once.  One pass over the bytes, chunk by chunk, marks the number bytes
(0-9 . e E + -) by byte ranges and builds a skeleton with one ``bytes.translate``
per chunk: no whitespace, each number token (a run of number bytes) as one "n",
and each byte of a character beyond ASCII as "?".  Chunks
hold whole rows of the last matrix where a row is short enough, so in a stretch
of zero rows each chunk equals the one before it and takes that chunk's skeleton
and tokens without a second pass.  A matrix is accepted only where the skeleton
is exactly [[[n,n],...],...] for the d of its first row, which proves that it is
square with one token per slot.  A token that is exactly 0.0 or 0 (``dumps``
writes a zero as 0) becomes +0.0 without conversion.  Every other token must be
a JSON number, and not an integer -0 (json reads it as +0.0, strtod as -0.0),
with a finite value; ``np.fromstring`` converts them.  Each accepted matrix is
replaced by a marker string and json parses what is left, decoded as UTF-8, so
keys, strings, ``dim``, ``label`` and every other array take the json path.  If
that parse fails, or a marker is not a value exactly once (a matrix-like text
inside a string, or in a key), the whole text goes to ``json.loads`` as a str.
Both conversions round correctly, so an accepted text gives bit-identical
numbers, and a rejected one raises json's own exception.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import numbers
import os
import re
import stat
from json.encoder import encode_basestring_ascii

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


def _matrix_template(rows: int, cols: int, cell: int, pad: str) -> str:
    """The %.17g template of a rows x cols matrix under pad, as its nested list
    renders: rows of numbers (cell 1), or rows of [re, im] cells one per line (cell 2)."""
    inner = pad + "  "
    if cell == 1:
        row = inner + "[" + ", ".join(["%.17g"] * cols) + "]"
    else:
        row = inner + "[\n" + ",\n".join([inner + "  [%.17g, %.17g]"] * cols) + "\n" + inner + "]"
    return "[\n" + ",\n".join([row] * rows) + "\n" + pad + "]"


def dumps(obj) -> str:
    """Deterministic JSON text with fixed float formatting, indented by 2 spaces per level.

    A 2-D float64 or complex128 array renders as its nested list would (a complex
    entry as an [re, im] cell), with one format call on its values; keys and
    strings render as ``json.dumps`` of the str."""

    def render(node, pad):
        if isinstance(node, (list, tuple)):
            if len(node) == 0:
                return "[]"
            types = set(map(type, node))
            if types == {float}:
                return _json_floats("[" + ", ".join(["%.17g"] * len(node)) % tuple(node) + "]")
            if all(map(_is_number_type, types)):
                return "[" + ", ".join(map(_fmt_number, node)) + "]"
            inner = pad + "  "
            return "[\n" + ",\n".join(inner + render(v, inner) for v in node) + "\n" + pad + "]"
        if isinstance(node, dict):
            if not node:
                return "{}"
            inner = pad + "  "
            items = ",\n".join(f"{inner}{encode_basestring_ascii(str(k))}: {render(v, inner)}"
                               for k, v in node.items())
            return "{\n" + items + "\n" + pad + "}"
        if isinstance(node, np.ndarray) and node.ndim == 2 and node.dtype in (np.float64, np.complex128):
            if node.size == 0:
                return render([[]] * len(node), pad)
            template = _matrix_template(*node.shape, 2 if node.dtype == np.complex128 else 1, pad)
            return _json_floats(template % tuple(np.ascontiguousarray(node).view(np.float64).ravel().tolist()))
        if node is None:
            return "null"
        if isinstance(node, (bool, int, float, np.integer, np.floating)):
            return _fmt_number(node)
        if isinstance(node, str):
            return encode_basestring_ascii(node)
        raise FormatError(f"cannot serialize {type(node).__name__}")

    return render(obj, "") + "\n"


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


def state_to_dict(rho: DensityMatrix) -> dict:
    return {"dim": rho.dim, "matrix": np.asarray(rho.matrix, dtype=complex)}


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
    return {"dim": X.dim, "observables": [np.asarray(M, dtype=complex) for M in X.observables]}


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

# Byte classes, a translate table: "n" for a number byte (0-9 . e E + -), "[", "]"
# and "," as themselves, "?" for every other byte; the skeleton's translate deletes
# JSON whitespace instead.
_CLASS = (b"?" * 9 + b"  ?? " + b"?" * 18 + b" " + b"?" * 10 + b"n,nn?" + b"n" * 10
          + b"?" * 11 + b"n" + b"?" * 21 + b"[?]" + b"?" * 7 + b"n" + b"?" * 154)
# The route reads a text in chunks of at most this many bytes, so that its
# per-byte masks exist for one chunk at a time and stay in cache.  With 2^20 the
# tracemalloc peak on a d = 300 Fock-diagonal file was 8.4 MiB (2.6 MiB at 2^16),
# and the d = 900 files read about 1.5 times slower.  A chunk holds whole rows of
# the text's last matrix where a row is shorter (_chunk_chars), so that a stretch
# of zero rows gives chunks equal byte for byte, classified once.
_CHUNK_CHARS = 1 << 16
_MARK = "\0"
# A row separator of a matrix, "]" ws "]" ws "," ws "[" ws "[" (json.dumps and dumps
# lay rows out so), reversed: a search from the end of a text stops after two rows
_ROW_SEPARATOR_REVERSED = re.compile(rb"\[[ \t\n\r]*\[[ \t\n\r]*,[ \t\n\r]*\][ \t\n\r]*\]")


def _chunk_chars(data: bytes) -> int:
    """The largest whole multiple of the row length of the data's text that is at
    most _CHUNK_CHARS, the row length being the distance between the last two row
    separators in its last 2 _CHUNK_CHARS bytes; _CHUNK_CHARS if there are fewer
    than two, or the row is longer."""
    size = _CHUNK_CHARS
    tail = data[-2 * size:][::-1]
    ends = [m.end() for m in itertools.islice(_ROW_SEPARATOR_REVERSED.finditer(tail), 2)]
    if len(ends) < 2 or ends[1] - ends[0] > size:
        return size
    return size - size % (ends[1] - ends[0])


def _chunks(data: bytes, size: int):
    """(offset, bytes) of the data in pieces of about size bytes, each but the last
    ending in a byte that is not a number byte, so that no token straddles two (a
    token longer than a chunk is cut, and its pieces make no matrix)."""
    start, stop = 0, len(data)
    while start < stop:
        piece = data[start:start + size]
        if start + len(piece) < stop:
            piece = piece.rstrip(b"0123456789.eE+-") or piece
        yield start, piece
        start += len(piece)


def _classify(piece: bytes) -> tuple:
    """The bytes of a piece as an array, with its number-byte mask and token starts,
    and its skeleton: its _CLASS bytes without whitespace, each number token as one
    "n"."""
    chars = np.frombuffer(piece, np.uint8)
    low = chars - np.uint8(ord("+"))   # + , - . / 0-9 are 43-57
    num = (low < 15) & (low != 1) & (low != 4) | ((chars | 0x20) == ord("e"))
    tail = np.zeros_like(num)          # every byte of a token after its first
    np.logical_and(num[1:], num[:-1], out=tail[1:])
    # a token's tail as a space, which the translate deletes; number bytes are above 32
    skeleton = (chars - (chars - np.uint8(ord(" "))) * tail).tobytes().translate(_CLASS, b" \t\n\r")
    return chars, num, num ^ tail, skeleton


def _other_tokens(chars: np.ndarray, num: np.ndarray, first: np.ndarray, count: int) -> tuple | None:
    """None if every one of the count tokens of a piece is exactly 0.0 or 0 ("0.0" or
    "0" then a byte that is not a number byte); else the piece with its number bytes
    kept and every other byte, and every 0.0 and 0 token, as a space, and which of
    its tokens that keeps (None for all)."""
    digit0 = chars == ord("0")
    lead, end = first & digit0, ~num
    # the starts of the 0.0 tokens, none in the last three bytes; these and the 0
    # tokens are token starts, so all of them when as many
    dotted = lead[:-3] & (chars[1:-2] == ord(".")) & digit0[2:-1] & end[3:]
    if (dots := np.count_nonzero(dotted)) == count:   # json.dumps writes a zero as 0.0
        return None
    bare = lead[:-1] & end[1:]                         # the starts of the 0 tokens
    if dots + np.count_nonzero(bare) == count:         # ``dumps`` writes a zero as 0
        return None
    dotted = np.concatenate([dotted, np.zeros(min(3, len(first)), bool)])
    zero = dotted.copy()
    zero[:-1] |= bare
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


def _matrix_size(skeleton: bytes, i: int, e: int) -> int:
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


def _matrix_spans(data: bytes) -> tuple[list, list]:
    """One pass over the bytes, chunk by chunk: the (start, stop, d, first token,
    first chunk) of each data[start:stop] whose skeleton is exactly that of a d x d
    matrix of [re, im] cells, in text order; and per chunk its offset, the tokens
    before it and in it, and its _other_tokens.  A chunk equal to the one before
    it takes that chunk's skeleton, token count and _other_tokens, which depend on
    its bytes alone."""
    pieces, offsets, chunks, tokens, length, previous = [], [], [], 0, 0, None
    for start, piece in _chunks(data, _chunk_chars(data)):
        if piece != previous:
            chars, num, first, piece_skeleton = _classify(piece)
            count = np.count_nonzero(first)
            others = _other_tokens(chars, num, first, count)
            previous = piece
        pieces.append(piece_skeleton)
        offsets.append(length)
        length += len(piece_skeleton)
        chunks.append((start, tokens, count, others))
        tokens += count
    skeleton = b"".join(pieces)

    def char_index(k):
        # of a bracket: the skeleton keeps every bracket of the data, in order
        c = bisect.bisect_right(offsets, k) - 1
        bracket = skeleton[k:k + 1]
        start = chunks[c][0]
        piece = data[start:chunks[c + 1][0]] if c + 1 < len(chunks) else data[start:]
        at = np.flatnonzero(np.frombuffer(piece, np.uint8) == bracket[0])
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
    values = np.zeros((d, d, 2))
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
        at = values.reshape(-1)[tokens_before + k0 - first_token:tokens_before + k1 - first_token]
        if kept is None:
            at[:] = converted
        else:
            at[kept] = converted
    return values


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


def loads(text):
    """``json.loads(text)``, with each d x d matrix of [re, im] number cells as one
    (d, d, 2) float64 array on a text longer than MATRIX_ROUTE_MIN_CHARS.  The text
    is a str, or its UTF-8 bytes (``load_json`` passes ASCII bytes without CR).  The
    route reads bytes, encoding a long str once; json parses only str, the bytes
    outside the matrices decoded, or else the whole text."""
    arrays = {}
    if len(text) > MATRIX_ROUTE_MIN_CHARS:
        data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
        spans, chunks = _matrix_spans(data)
        pieces, end = [], 0
        for span in spans:
            values = _matrix_values(chunks, span)
            if values is not None:
                mark = f"{_MARK}{len(arrays)}"
                arrays[mark] = values
                pieces += (data[end:span[0]], json.dumps(mark).encode())
                end = span[1]
        if arrays:
            pieces.append(data[end:])
            try:
                return _place(json.loads(b"".join(pieces).decode("utf-8", "surrogatepass")), arrays)
            except (ValueError, KeyError):
                pass
    return json.loads(text if isinstance(text, str) else text.decode("utf-8", "surrogatepass"))


def _decoded(data) -> str:
    """data as a text-mode read decodes it: strict UTF-8, CRLF and lone CR as LF."""
    text = str(data, "utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def load_json(path: str, sha256=None):
    """``loads`` of a UTF-8 file's text as a text-mode read gives it, from one
    ``read`` of the file.  A file above MATRIX_ROUTE_MIN_CHARS whose bytes are ASCII
    with no CR goes to loads as those bytes, and every other file as its decoded
    text.  ``sha256``, a hashlib object, is updated with the very bytes read;
    without it nothing is hashed."""
    with open(path, "rb") as fh:
        data = fh.read()
    if sha256 is not None:
        sha256.update(data)
    if len(data) > MATRIX_ROUTE_MIN_CHARS and data.isascii() and b"\r" not in data:
        return loads(data)
    return loads(_decoded(data))


def write_text(path: str, text: str) -> None:
    """Write text as UTF-8 to path, over what the file held, then cut a regular file
    at the new length.  A new file gets the mode ``open(path, "w")`` gives it (0o666
    less the umask).  The file is not truncated first: on an ext4 root, truncating
    and rewriting a 30 KB file took 137-168 us (quartiles of 400 writes), writing
    over it 12-18 us.  Only a regular file is cut, so /dev/null and /dev/stdout
    work.  Nothing is synced.  A write that fails midway leaves the new text's
    prefix over the old bytes, where a truncating write would leave a short file;
    either way the OSError propagates, and the CLI exits 2."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def sha256_of_file(path: str) -> str:
    """Hex sha256 of a file's bytes, read again; ``check`` hashes through ``load_json``."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()
