"""Per-phase timings of ``gaussian.saturation_check`` on the three 2-mode Fock structures.

Usage: PYTHONPATH=src python scripts/fock_phases.py [--cutoff 30] [--repeat 7]

The structures are the thermal states of ``two_mode_generator`` whose parts (the
connected components of the truncated H) are 1 x 1 (uncoupled modes, the CLI
default), the photon-number shells (a beamsplitter coupling) and the two parity
classes (coupling plus squeezing).  Each run rebuilds the state, the quadratures
and the spectral context and times the steps of ``saturation_check`` one after
another with ``time.perf_counter``; a phase prints the best of --repeat runs in ms.
``H`` is the build of the truncated H inside ``fock_truncate_thermal`` and
``truncation`` the rest of that call; ``total`` is a separate timing of the
whole ``saturation_check``.
"""

from __future__ import annotations

import argparse
import time

from skewsharp import gaussian, skew

STRUCTURES = {
    "uncoupled": (1.0, 1.0, 0.0, 0.0),
    "shells": (1.0, 1.3, 0.2, 0.0),
    "coupled/squeezed": (1.0, 1.3, 0.2, 0.1),
}
PHASES = ("H", "truncation", "quadratures", "stack", "P+skew", "stack check", "probe", "Gram", "total")


def one_run(H: gaussian.QuadraticHamiltonian, cutoff: int) -> list[float]:
    """Seconds per phase of one run, in the order of PHASES."""
    build, spent = gaussian._fock_hamiltonian, []

    def timed_build(*args):
        start = time.perf_counter()
        out = build(*args)
        spent.append(time.perf_counter() - start)
        return out

    gaussian._fock_hamiltonian = timed_build
    try:
        marks = [time.perf_counter()]
        rho = gaussian.fock_truncate_thermal(H, cutoff).rho
    finally:
        gaussian._fock_hamiltonian = build
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
    gaussian.saturation_check(H, cutoff)
    marks.append(time.perf_counter())
    times = [b - a for a, b in zip(marks, marks[1:])]
    return [spent[0], times[0] - spent[0], *times[1:]]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cutoff", type=int, default=30, help="Fock levels per mode (at least 8)")
    parser.add_argument("--repeat", type=int, default=7, help="runs per structure; each phase prints its best")
    args = parser.parse_args(argv)
    print(f"best of {args.repeat} runs, ms; 2 modes, cutoff {args.cutoff} (d = {args.cutoff ** 2})")
    print("| state | " + " | ".join(PHASES) + " |")
    print("|---" * (len(PHASES) + 1) + "|")
    for name, (omega1, omega2, coupling, xi) in STRUCTURES.items():
        H = gaussian.two_mode_generator(omega1, omega2, coupling=coupling, xi=xi)
        best = [min(col) for col in zip(*(one_run(H, args.cutoff) for _ in range(args.repeat)))]
        print(f"| {name} | " + " | ".join(f"{1e3 * t:.1f}" for t in best) + " |")


if __name__ == "__main__":
    main()
