"""Per-phase timings and the tracemalloc peak of ``serialize.load_json`` on large state files.

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

- read: ``load_json`` itself, the file read and the UTF-8 decode;
- classify: ``_classify``, the byte classes and token starts of each chunk;
- skeleton: ``_skeleton_piece`` and ``_matrix_spans``, the skeleton and the matrix search;
- zero fill: ``_other_tokens`` and ``_matrix_values``, the tokens other than 0.0 and 0 and the value array;
- grammar+conversion: ``_converted``, the JSON number check and ``np.fromstring``;
- json of the rest: ``loads`` and ``_place``, json on the text without the matrices.

``total`` is a separate timing of ``load_json``, and ``peak`` the tracemalloc peak
of one ``load_json`` call in MiB.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
import tracemalloc

import numpy as np

from skewsharp import serialize

PHASES = {
    "read": ("load_json",),
    "classify": ("_classify",),
    "skeleton": ("_skeleton_piece", "_matrix_spans"),
    "zero fill": ("_other_tokens", "_matrix_values"),
    "grammar+conversion": ("_converted",),
    "json of the rest": ("loads", "_place"),
}


def files(fock_dim: int, dense_dim: int) -> dict:
    """Label: the text of each file."""
    rng = np.random.default_rng(900)
    weights = np.zeros(fock_dim)
    weights[:16] = rng.uniform(0.2, 1.0, min(16, fock_dim))
    dense = rng.standard_normal((dense_dim, dense_dim)) + 1j * rng.standard_normal((dense_dim, dense_dim))
    fock = {"dim": fock_dim, "matrix": serialize.matrix_to_pairs(np.diag(weights / weights.sum()))}
    return {f"fock d={fock_dim}": json.dumps(fock),
            f"dense d={dense_dim}": json.dumps({"dim": dense_dim, "matrix": serialize.matrix_to_pairs(dense)}),
            f"fock d={fock_dim}, serialize.dumps": serialize.dumps(fock)}


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
    print("| file | chars | " + " | ".join(PHASES) + " | total | peak |")
    print("|---" * (len(PHASES) + 4) + "|")
    with tempfile.TemporaryDirectory() as tmp:
        for label, text in files(args.fock_dim, args.dense_dim).items():
            path = os.path.join(tmp, "state.json")
            serialize.write_text(path, text)
            runs = [one_run(path) for _ in range(args.repeat)]
            best = [min(sum(run[name] for name in steps) for run in runs) for steps in PHASES.values()]
            total = []
            for _ in range(args.repeat):
                start = time.perf_counter()
                serialize.load_json(path)
                total.append(time.perf_counter() - start)
            tracemalloc.start()
            try:
                serialize.load_json(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            cells = " | ".join(f"{1e3 * t:.1f}" for t in best + [min(total)])
            print(f"| {label} | {os.path.getsize(path)} | {cells} | {peak / 2 ** 20:.1f} |")


if __name__ == "__main__":
    main()
