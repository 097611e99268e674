"""Per-phase timings of ``gaussian.saturation_check`` on the 2-mode Fock structures.

Usage: PYTHONPATH=src python scripts/fock_phases.py [--cutoff 30] [--repeat 7]

The structures are the thermal states of ``two_mode_generator`` whose parts (the
connected components of the truncated H) are 1 x 1 (uncoupled modes, the CLI
default), the photon-number shells (a beamsplitter coupling) and the two parity
classes (coupling plus squeezing).  A fourth row takes the coupled and squeezed
state rebuilt by ``DensityMatrix.from_matrix(rho.matrix)``, which records no
parts, so that its stack is built whole (the full route of ``skew``); its
``state`` phase includes forming the dense matrix from the parts and that dense
eigh.  Each run rebuilds the state, the quadratures
and the spectral context and times the steps of ``saturation_check`` one after
another with ``time.perf_counter``; a phase prints the best of --repeat runs in ms.
``fock_truncate_thermal`` is cut at the returns of its two steps: ``H triples``
(``_fock_hamiltonian``, the nonzeros of the truncated H), ``guard+parts`` (the
cross-parity check on the triples and ``part_eigensystems``) and ``state`` (the
checks of the parts' eigensystems, the ordered and clipped spectrum of the state
kept as its parts, and the tail mass); ``total`` is a separate timing
of the whole ``saturation_check`` (on the fourth row: the truncation, the
rebuild and ``check_refined_rs``).
"""

from __future__ import annotations

import argparse
import time

from skewsharp import gaussian, skew
from skewsharp.linalg import DensityMatrix

STRUCTURES = {     # (omega1, omega2, coupling, xi, rebuilt without parts)
    "uncoupled": (1.0, 1.0, 0.0, 0.0, False),
    "shells": (1.0, 1.3, 0.2, 0.0, False),
    "coupled/squeezed": (1.0, 1.3, 0.2, 0.1, False),
    "coupled/squeezed, no parts": (1.0, 1.3, 0.2, 0.1, True),
}
PHASES = ("H triples", "guard+parts", "state", "quadratures", "stack", "P+skew", "stack check", "probe", "Gram",
          "total")
STEPS = ("_fock_hamiltonian", "part_eigensystems")     # the steps of fock_truncate_thermal cut at their returns


def whole(H: gaussian.QuadraticHamiltonian, cutoff: int, no_parts: bool) -> None:
    """``saturation_check``, or with ``no_parts`` its truncated side on the rebuilt state."""
    if not no_parts:
        gaussian.saturation_check(H, cutoff)
        return
    rho = DensityMatrix.from_matrix(gaussian.fock_truncate_thermal(H, cutoff).rho.matrix)
    skew.check_refined_rs(rho, gaussian.quadrature_observables(H.n_modes, cutoff))


def one_run(H: gaussian.QuadraticHamiltonian, cutoff: int, no_parts: bool) -> list[float]:
    """Seconds per phase of one run, in the order of PHASES."""
    saved, marks = [getattr(gaussian, name) for name in STEPS], []

    def stamped(fn):
        def call(*args):
            out = fn(*args)
            marks.append(time.perf_counter())
            return out
        return call

    for name, fn in zip(STEPS, saved):
        setattr(gaussian, name, stamped(fn))
    try:
        marks.append(time.perf_counter())
        rho = gaussian.fock_truncate_thermal(H, cutoff).rho
    finally:
        for name, fn in zip(STEPS, saved):
            setattr(gaussian, name, fn)
    if no_parts:
        rho = DensityMatrix.from_matrix(rho.matrix)
    marks.append(time.perf_counter())
    X = gaussian.quadrature_observables(H.n_modes, cutoff)
    marks.append(time.perf_counter())
    ctx = skew.SpectralContext(rho, X)
    ctx.stack
    marks.append(time.perf_counter())
    ctx.P, ctx.skew
    marks.append(time.perf_counter())
    skew._check_stack(ctx)
    marks.append(time.perf_counter())
    skew._probe_stack(ctx)
    marks.append(time.perf_counter())
    skew._eigenbasis_gram(ctx.stack, ctx.lam, ctx.entries)
    marks.append(time.perf_counter())
    whole(H, cutoff, no_parts)
    marks.append(time.perf_counter())
    return [b - a for a, b in zip(marks, marks[1:])]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cutoff", type=int, default=30, help="Fock levels per mode (at least 8)")
    parser.add_argument("--repeat", type=int, default=7, help="runs per structure; each phase prints its best")
    args = parser.parse_args(argv)
    print(f"best of {args.repeat} runs, ms; 2 modes, cutoff {args.cutoff} (d = {args.cutoff ** 2})")
    print("| state | " + " | ".join(PHASES) + " |")
    print("|---" * (len(PHASES) + 1) + "|")
    for name, (omega1, omega2, coupling, xi, no_parts) in STRUCTURES.items():
        H = gaussian.two_mode_generator(omega1, omega2, coupling=coupling, xi=xi)
        best = [min(col) for col in zip(*(one_run(H, args.cutoff, no_parts) for _ in range(args.repeat)))]
        print(f"| {name} | " + " | ".join(f"{1e3 * t:.1f}" for t in best) + " |")


if __name__ == "__main__":
    main()
