"""Write the outputs of a fixed set of CLI runs to a directory, so that two trees compare with ``diff -r``.

Usage: PYTHONPATH=src python scripts/output_corpus.py OUTDIR [--cutoff 30] [--trials 10000]

Every run is ``python -m skewsharp.cli ...`` in OUTDIR, with the environment's
PYTHONPATH (this repository's ``src`` appended), so one copy of the script
writes the outputs of any tree:

    PYTHONPATH=/path/to/parent/src python scripts/output_corpus.py out-parent
    PYTHONPATH=src python scripts/output_corpus.py out-change
    diff -r out-parent out-change

The runs:

- ``check`` on 12 instances x 5 flag sets (none, ``--two-obs``, ``--f wy``,
  ``--two-obs --f sld``, ``--two-obs --f wyd:0.3 --tol 1e-6``), each with
  ``--json-out``.  The instances are q1 = diag(3/4, 1/4) and |+> with (sx, sy),
  and 10 seeded ones of dimension 2 to 6, pure and mixed, two of them with 3
  observables; ``check --two-obs --f wy --json-out`` on a seeded dense
  instance of dimension 128 (a mixed state and two observables), the only
  ``check`` whose stack check pairs matrices larger than 6 x 6; and
  ``check --two-obs --json-out`` with the q1 observables on q1's state written
  by ``serialize.dumps`` with CRLF line endings, and on an empty state file (a
  JSON error, exit 2);
- ``fuzz --seed 20240501 --trials N --json-out``;
- ``gaussian --json-out`` on the 2-mode structures at --cutoff: uncoupled
  modes, photon-number shells (a beamsplitter coupling) and a coupled and
  squeezed generator; the README's 1-mode example at cutoff 60; and a squeezed
  mode (``--modes 1 --xi 0.3``) at cutoff 40;
- ``nongauss`` on 2-mode states at cutoffs 12 and --cutoff: Fock-diagonal states,
  each written by ``json.dumps`` (zeros as 0.0) and by ``serialize.dumps`` (zeros
  as 0); parity-breaking ones (the same weights and one |0,0>-|0,1> coherence);
  and, written by ``json.dumps``, a parity-keeping state that is not diagonal (a
  random state on the Fock states of fewer than 6 photons of each parity, so
  its parts are larger than 1 x 1) and four inputs planted on it: one entry
  off its Hermitian mirror by 3e-11, within TOL_HERM (exit 0), and three that
  exit 2: a one-sided entry of 1e-9 between |0,0> and |0,1> (beyond TOL_HERM),
  a trace off by 1e-6, and a state that is not positive semidefinite;
- ``nongauss --modes 1 --cutoff 12`` on a Fock-diagonal state and on one that
  breaks parity (a |0>-|1> coherence);
- ``nongauss --modes 2 --cutoff -2`` on a 4 x 4 state, an input error (exit 2):
  (-2)^2 = 4 matches its size, so the cutoff itself must be refused;
- ``nongauss --modes 2 --cutoff 12`` on the files the reader decodes instead of
  reading their bytes: the Fock-diagonal and parity-breaking states written by
  ``serialize.dumps`` with CRLF line endings, and the same states with a
  non-ASCII ``label`` (written by ``json.dumps`` without ASCII escapes); and on
  three variants of the Fock-diagonal ``json.dumps`` file that exit 2: the file
  cut three quarters of the way through its matrix, the file after one NUL byte,
  and the file with the byte 0xff as its ``label`` (not UTF-8).

Each run writes OUTDIR/<run>/ with ``stdout``, ``stderr``, ``exit`` (the exit
code) and, for the runs that write one, ``report.json``; the input files go to
OUTDIR/inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.append(str(SRC))

from skewsharp import serialize  # noqa: E402

FLAG_SETS = {"plain": [], "two-obs": ["--two-obs"], "f-wy": ["--f", "wy"],
             "two-obs-f-sld": ["--two-obs", "--f", "sld"],
             "two-obs-f-wyd-tol": ["--two-obs", "--f", "wyd:0.3", "--tol", "1e-6"]}
GAUSSIAN = {
    "uncoupled": ["--modes", "2", "--omega", "1", "--omega", "1.3"],
    "shells": ["--modes", "2", "--omega", "1", "--omega", "1.3", "--coupling", "0.2"],
    "coupled-squeezed": ["--modes", "2", "--omega", "1", "--omega", "1.3", "--coupling", "0.2", "--xi", "0.1"],
}
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def pairs(M: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


def hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    B = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (B + B.conj().T) / 2


def seeded_instance(k: int, d: int, pure: bool, n: int) -> tuple[np.ndarray, list]:
    """A state of dimension d, pure or of full rank, and n observables, drawn from seed (20240501, k)."""
    rng = np.random.default_rng([20240501, k])
    A = rng.standard_normal((d, 1 if pure else d)) + 1j * rng.standard_normal((d, 1 if pure else d))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real, [hermitian(rng, d) for _ in range(n)]


def check_instances() -> dict:
    """Name: (state matrix, observable matrices, flag sets)."""
    plus = np.full((2, 2), 0.5, dtype=complex)
    out = {"q1": (np.diag([0.75, 0.25]).astype(complex), [SX, SY], FLAG_SETS), "plus": (plus, [SX, SY], FLAG_SETS)}
    for k in range(10):
        d, pure, n = 2 + k % 5, k % 2 == 1, 3 if k in (3, 8) else 2
        out[f"seed{k}-d{d}-{'pure' if pure else 'mixed'}"] = (*seeded_instance(k, d, pure, n), FLAG_SETS)
    # a dense instance whose stack check pairs three 128 x 128 matrices (49,152 entries) in one product
    out["seed10-d128-mixed"] = (*seeded_instance(10, 128, False, 2), {"two-obs-f-wy": ["--two-obs", "--f", "wy"]})
    return out


def fock_states(cutoff: int) -> dict:
    """Name: 2-mode state matrix at this cutoff (index n_1 cutoff + n_2 holds |n_1, n_2>)."""
    rng = np.random.default_rng(cutoff)
    weights = np.zeros(cutoff**2)
    weights[:16] = rng.uniform(0.2, 1.0, 16)
    diag = np.diag(weights / weights.sum()).astype(complex)
    breaking = diag.copy()
    # |0,0> is index 0 and |0,1> index 1: a coherence between even and odd photon number
    breaking[0, 1] = breaking[1, 0] = 0.1 * min(diag[0, 0].real, diag[1, 1].real)
    photons = np.add.outer(np.arange(cutoff), np.arange(cutoff)).ravel()
    low = np.zeros_like(diag)
    for parity in (0, 1):
        r = np.flatnonzero((photons < 6) & (photons % 2 == parity))
        G = rng.standard_normal((r.size, r.size)) + 1j * rng.standard_normal((r.size, r.size))
        low[np.ix_(r, r)] = G @ G.conj().T
    low /= np.trace(low).real
    planted = {name: low.copy() for name in ("within-tol", "one-sided", "trace-off", "not-psd")}
    planted["within-tol"][0, 2] += 3e-11        # |0,0> and |0,2>: both even
    planted["one-sided"][0, 1] = 1e-9
    planted["trace-off"][0, 0] += 1e-6
    planted["not-psd"][0, 0] -= 0.5             # |0,6> lies outside the low state's support
    planted["not-psd"][6, 6] += 0.5
    return {"diagonal": diag, "breaking": breaking, "low-photon": low, **planted}


def one_mode_states(cutoff: int) -> dict:
    """Name: 1-mode state matrix at this cutoff: a Fock-diagonal mixture and the same with a |0>-|1> coherence."""
    weights = np.random.default_rng([cutoff, 1]).uniform(0.2, 1.0, cutoff) * (np.arange(cutoff) < 6)
    diag = np.diag(weights / weights.sum()).astype(complex)
    breaking = diag.copy()
    breaking[0, 1] = breaking[1, 0] = 0.1 * min(diag[0, 0].real, diag[1, 1].real)
    return {"diagonal": diag, "breaking": breaking}


def write_inputs(outdir: Path, cutoff: int) -> tuple[list, list]:
    """Write every input file to OUTDIR/inputs; the names and arguments of the check and nongauss runs."""
    inputs = outdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    checks, nongauss = [], []
    for name, (rho, obs, flag_sets) in check_instances().items():
        d = rho.shape[0]
        (inputs / f"{name}.state.json").write_text(json.dumps({"dim": d, "matrix": pairs(rho)}))
        (inputs / f"{name}.obs.json").write_text(json.dumps({"dim": d, "observables": [pairs(X) for X in obs]}))
        for flags, extra in flag_sets.items():
            checks.append((f"check-{name}-{flags}", ["check", f"inputs/{name}.state.json",
                                                     f"inputs/{name}.obs.json", *extra]))
    q1_crlf = serialize.dumps({"dim": 2, "matrix": check_instances()["q1"][0]}).replace("\n", "\r\n")
    (inputs / "q1-crlf.state.json").write_bytes(q1_crlf.encode())
    (inputs / "empty.state.json").write_bytes(b"")
    for name in ("q1-crlf", "empty"):
        checks.append((f"check-{name}-two-obs", ["check", f"inputs/{name}.state.json", "inputs/q1.obs.json",
                                                 "--two-obs"]))
    for K in sorted({12, cutoff}):
        for kind, M in fock_states(K).items():
            texts = {"json": json.dumps({"dim": K * K, "matrix": pairs(M)})}
            if kind == "diagonal":
                texts["serialize"] = serialize.dumps({"dim": K * K, "matrix": M})
            for writer, text in texts.items():
                name = f"fock-{kind}-c{K}-{writer}"
                (inputs / f"{name}.json").write_text(text)
                nongauss.append((f"nongauss-{name}", ["nongauss", f"inputs/{name}.json", "--modes", "2",
                                                      "--cutoff", str(K)]))
    for kind, M in one_mode_states(12).items():
        name = f"fock1-{kind}-c12"
        (inputs / f"{name}.json").write_text(json.dumps({"dim": 12, "matrix": pairs(M)}))
        nongauss.append((f"nongauss-{name}", ["nongauss", f"inputs/{name}.json", "--modes", "1", "--cutoff", "12"]))
    states = fock_states(12)
    for kind in ("diagonal", "breaking"):
        doc = {"dim": 144, "matrix": pairs(states[kind])}
        files = {f"fock-{kind}-c12-crlf": serialize.dumps({**doc, "matrix": states[kind]}).replace("\n", "\r\n"),
                 f"fock-{kind}-c12-label": json.dumps({**doc, "label": "\u03c8"}, ensure_ascii=False)}
        files = {name: text.encode("utf-8") for name, text in files.items()}
        if kind == "diagonal":
            data = json.dumps(doc).encode()
            files["fock-diagonal-c12-truncated"] = data[:3 * len(data) // 4]
            files["fock-diagonal-c12-leading-nul"] = b"\0" + data
            files["fock-diagonal-c12-invalid-utf8"] = json.dumps({**doc, "label": "?"}).encode().replace(b'"?"', b'"\xff"')
        for name, data in files.items():
            (inputs / f"{name}.json").write_bytes(data)
            nongauss.append((f"nongauss-{name}", ["nongauss", f"inputs/{name}.json", "--modes", "2", "--cutoff", "12"]))
    (inputs / "vacuum-d4.json").write_text(json.dumps({"dim": 4, "matrix": pairs(np.diag([1.0, 0, 0, 0]))}))
    nongauss.append(("nongauss-vacuum-d4-cutoff-minus-2", ["nongauss", "inputs/vacuum-d4.json", "--modes", "2",
                                                          "--cutoff", "-2"]))
    return checks, nongauss


def run(outdir: Path, name: str, argv: list, report: bool, env: dict) -> None:
    target = outdir / name
    target.mkdir(parents=True, exist_ok=True)
    extra = ["--json-out", f"{name}/report.json"] if report else []
    proc = subprocess.run([sys.executable, "-m", "skewsharp.cli", *argv, *extra], cwd=outdir,
                          capture_output=True, text=True, env=env)
    (target / "stdout").write_text(proc.stdout)
    (target / "stderr").write_text(proc.stderr)
    (target / "exit").write_text(f"{proc.returncode}\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", type=Path)
    ap.add_argument("--cutoff", type=int, default=30, help="cutoff of the 2-mode gaussian runs and larger nongauss files")
    ap.add_argument("--trials", type=int, default=10000, help="fuzz trials")
    args = ap.parse_args()
    outdir = args.outdir.resolve()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (os.environ.get("PYTHONPATH"), str(SRC)) if p)}
    checks, nongauss = write_inputs(outdir, args.cutoff)
    runs = [(name, argv, True) for name, argv in checks]
    runs.append(("fuzz", ["fuzz", "--seed", "20240501", "--trials", str(args.trials)], True))
    runs += [(f"gaussian-{name}", ["gaussian", *argv, "--cutoff", str(args.cutoff)], True)
             for name, argv in GAUSSIAN.items()]
    runs.append(("gaussian-readme", ["gaussian", "--modes", "1", "--omega", "1", "--beta", "1.3863",
                                     "--cutoff", "60"], True))
    runs.append(("gaussian-squeezed-1m", ["gaussian", "--modes", "1", "--xi", "0.3", "--cutoff", "40"], True))
    runs += [(name, argv, False) for name, argv in nongauss]
    for name, argv, report in runs:
        run(outdir, name, argv, report, env)
    codes = [int((outdir / name / "exit").read_text()) for name, _, _ in runs]
    print(f"{len(runs)} runs in {outdir}: exit codes " +
          ", ".join(f"{c}: {codes.count(c)}" for c in sorted(set(codes))))


if __name__ == "__main__":
    main()
