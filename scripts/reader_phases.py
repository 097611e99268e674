"""Per-phase timings and the tracemalloc peak of ``serialize.load_json`` on large state files, the state step and the whole op.

Usage: PYTHONPATH=src python scripts/reader_phases.py [--fock-dim 900] [--dense-dim 300] [--repeat 7]

Three seeded files are written to a temporary directory: a Fock-diagonal state
(weights on the first 16 levels, every other entry 0.0, as in the files of the
benchmark's nongauss workload) and a dense state of random complex entries, both
with ``json.dumps`` (17-digit repr floats, zeros as 0.0), and the Fock-diagonal
state again with ``serialize.dumps``, as the program writes its own files (zeros
as 0).  Each run reads a file
with ``load_json`` while the reader's steps are timed with ``time.perf_counter``;
a phase is the self time of its steps (time in nested steps excluded), and
prints the best of --repeat runs in ms:

- read: ``load_json`` itself, the one ``read`` of the file (and the ASCII and CR test);
- classify+skeleton: ``_classify`` and ``_matrix_spans``, the number-byte mask,
  token starts and skeleton of each chunk, and the matrix search;
- zero fill: ``_other_tokens`` and ``_matrix_values``, the tokens other than 0.0 and 0 and the value array;
- grammar+conversion: ``_converted``, the JSON number check and ``np.fromstring``;
- json of the rest: ``loads`` and ``_place``, json on the text without the matrices.

``total`` is a separate timing of ``load_json``, and ``peak`` the tracemalloc peak
of one ``load_json`` call in MiB, the file's bytes included (the read returns them
as one bytes object).  ``chunks`` is the number of chunks that one
``_matrix_spans`` pass reads from the file's bytes, and ``classified`` how many of
them go through ``_classify``: the reader cuts its chunks at whole rows of the
matrix, so each chunk that equals the one before it (a stretch of zero rows)
takes that chunk's classification.  ``state`` is the best of --repeat timings of
``gaussian.fock_density`` on the parsed matrix of a Fock file, in ms: the finite,
Hermitian, trace and PSD checks and the eigensystems, on 2 modes when the size is
a square (cutoff 30 at d = 900, as in the benchmark's nongauss files) and else on
1 mode.  ``op`` is the best of --repeat timings of the whole command on a Fock
file, ``cli.main(["nongauss", FILE, "--modes", ..., "--cutoff", ...])`` with the
same modes and cutoff.  The dense file, which is no state, shows ``-`` for both.
So the table splits a ``nongauss`` op on a Fock file into read, parse (the other
phases; with read, ``total``), state and the rest of ``op``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import tempfile
import time
import tracemalloc

import numpy as np

from skewsharp import cli, gaussian, serialize

PHASES = {
    "read": ("load_json",),
    "classify+skeleton": ("_classify", "_matrix_spans"),
    "zero fill": ("_other_tokens", "_matrix_values"),
    "grammar+conversion": ("_converted",),
    "json of the rest": ("loads", "_place"),
}


def files(fock_dim: int, dense_dim: int) -> dict:
    """Label: the text of each file, and whether it holds a Fock state."""
    rng = np.random.default_rng(900)
    weights = np.zeros(fock_dim)
    weights[:16] = rng.uniform(0.2, 1.0, min(16, fock_dim))
    entries = rng.standard_normal((dense_dim, dense_dim)) + 1j * rng.standard_normal((dense_dim, dense_dim))
    diag = np.diag(weights / weights.sum()).astype(complex)
    fock = {"dim": fock_dim, "matrix": serialize.matrix_to_pairs(diag)}
    dense = {"dim": dense_dim, "matrix": serialize.matrix_to_pairs(entries)}
    return {f"fock d={fock_dim}": (json.dumps(fock), True), f"dense d={dense_dim}": (json.dumps(dense), False),
            f"fock d={fock_dim}, serialize.dumps": (serialize.dumps({**fock, "matrix": diag}), True)}


def best_seconds(fn, repeat: int) -> float:
    """Best of ``repeat`` timings of ``fn()``."""
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def fock_cells(path: str, repeat: int) -> str:
    """The state and op cells of a Fock file: best of ``repeat`` timings of
    ``gaussian.fock_density`` on its matrix, and of ``nongauss`` on the file, in ms."""
    A = serialize.pairs_to_matrix(serialize.load_json(path)["matrix"])
    root = math.isqrt(A.shape[0])
    modes, cutoff = (2, root) if root * root == A.shape[0] else (1, A.shape[0])
    state = best_seconds(lambda: gaussian.fock_density(A, modes, cutoff), repeat)
    argv = ["nongauss", path, "--modes", str(modes), "--cutoff", str(cutoff)]
    with contextlib.redirect_stdout(io.StringIO()):
        op = best_seconds(lambda: cli.main(argv), repeat)
    return f"{1e3 * state:.1f} | {1e3 * op:.1f}"


def chunk_counts(path: str) -> tuple[int, int]:
    """Chunks read and chunks classified by one ``_matrix_spans`` pass over the file's bytes."""
    classified, classify = [], serialize._classify
    serialize._classify = lambda piece: classified.append(len(piece)) or classify(piece)
    try:
        with open(path, "rb") as fh:
            chunks = serialize._matrix_spans(fh.read())[1]
    finally:
        serialize._classify = classify
    return len(chunks), len(classified)


def one_run(path: str) -> dict:
    """Self seconds per step name of one ``load_json`` call."""
    names = {name for steps in PHASES.values() for name in steps}
    saved = {name: getattr(serialize, name) for name in names}
    spent = dict.fromkeys(names, 0.0)
    stack = []   # [name, start, seconds in nested steps]

    def timed(name, fn):
        def call(*args):
            stack.append([name, time.perf_counter(), 0.0])
            try:
                return fn(*args)
            finally:
                _, start, nested = stack.pop()
                took = time.perf_counter() - start
                spent[name] += took - nested
                if stack:
                    stack[-1][2] += took
        return call

    for name, fn in saved.items():
        setattr(serialize, name, timed(name, fn))
    try:
        serialize.load_json(path)
    finally:
        for name, fn in saved.items():
            setattr(serialize, name, fn)
    return spent


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fock-dim", type=int, default=900, help="dimension of the Fock-diagonal state")
    parser.add_argument("--dense-dim", type=int, default=300, help="dimension of the dense state")
    parser.add_argument("--repeat", type=int, default=7, help="runs per file; each phase prints its best")
    args = parser.parse_args(argv)
    print(f"best of {args.repeat} runs, ms; peak in MiB")
    print("| file | chars | " + " | ".join(PHASES) + " | total | peak | chunks | classified | state | op |")
    print("|---" * (len(PHASES) + 8) + "|")
    with tempfile.TemporaryDirectory() as tmp:
        for label, (text, fock) in files(args.fock_dim, args.dense_dim).items():
            path = os.path.join(tmp, "state.json")
            serialize.write_text(path, text)
            runs = [one_run(path) for _ in range(args.repeat)]
            best = [min(sum(run[name] for name in steps) for run in runs) for steps in PHASES.values()]
            total = best_seconds(lambda: serialize.load_json(path), args.repeat)
            tracemalloc.start()
            try:
                serialize.load_json(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            cells = " | ".join(f"{1e3 * t:.1f}" for t in best + [total])
            read, classified = chunk_counts(path)
            fock_part = fock_cells(path, args.repeat) if fock else "- | -"
            print(f"| {label} | {os.path.getsize(path)} | {cells} | {peak / 2 ** 20:.1f} | {read} | {classified} "
                  f"| {fock_part} |")


if __name__ == "__main__":
    main()
