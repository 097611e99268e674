#!/usr/bin/env python3
"""Compare the lower bounds the two-observable relations place on |L+||L-|.

Everything is read from the relation registry ``skewsharp.fuzz.RELATIONS``.
``run_fuzz`` judges the two-observable relations (eq9a, eq9b, eq10, furuichi)
and wy-strongest on random two-observable instances, and ``context_margins``
judges them on the saturating qubit fixture.  The bound table reads delta, A
and B of each instance from the batched two-observable report of its group
(``draw_groups``): the squared-commutator bound delta^4 (eq3) and the
discriminant-derived bound delta^2 (2A - delta^2) (eq9a).  The eq9a bound must
dominate; that ordering is judged by ``violated`` on eq9a's scale, so a NaN
fails it.  The script exits 1 on any violation.
"""

import argparse

import numpy as np

from skewsharp.fuzz import FuzzConfig, context_margins, draw_groups, run_fuzz, violated
from skewsharp.gcov import resolve_monotone
from skewsharp.linalg import DensityMatrix
from skewsharp.skew import ObservableSet, SpectralContext

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
GROUPS = ("two-obs", "wy-strongest")


def qubit_fixture() -> SpectralContext:
    """rho = diag(3/4, 1/4) with sigma_x, sigma_y: every two-observable bound equals B = 1/16."""
    rho = DensityMatrix.from_matrix(np.diag([0.75, 0.25]).astype(complex))
    return SpectralContext(rho, ObservableSet.from_matrices([SX, SY]))


def bound_table(cfg: FuzzConfig, fixture: SpectralContext) -> dict[str, np.ndarray]:
    """Per instance, the fixture first (trial -1) and then the trials in order: B, both
    bounds, eq9a's margin, and whether the eq9a bound falls below the eq3 bound."""
    groups = draw_groups(cfg, range(cfg.trials))
    trials = np.concatenate([[-1], *(g.trials for g in groups)])
    reports = [fixture.two_obs, *(g.ctx.two_obs for g in groups)]
    order = np.argsort(trials, kind="stable")

    def column(read):
        return np.concatenate([read(r) for r in reports])[order]

    d2, A = column(lambda r: r.delta_scalar) ** 2, column(lambda r: r.A)
    eq3, eq9a = d2**2, d2 * (2 * A - d2)
    return {"trial": trials[order], "B": column(lambda r: r.B), "bound_eq3": eq3, "bound_eq9a": eq9a,
            "margin_eq9a": column(lambda r: r.margins["eq9a"]),
            "eq9a_below_eq3": violated(eq9a - eq3, column(lambda r: r.scales["eq9a"]), cfg.tol)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=20240501)
    ap.add_argument("--rows", type=int, default=10, help="sample rows to print")
    args = ap.parse_args(argv)

    cfg = FuzzConfig(dims=(2, 3, 4, 5, 6), n_obs=(2,), trials=args.trials, seed=args.seed,
                     relations=GROUPS, f_labels=("wy", "sld"))
    fixture = qubit_fixture()
    fs = [resolve_monotone(label) for label in cfg.f_labels]
    fixture_bad = [(rid, f_label) for rid, f_label, margin, scale in context_margins(fixture, GROUPS, fs)
                   if violated(margin, scale, cfg.tol)]
    stats = run_fuzz(cfg)
    table = bound_table(cfg, fixture)

    print(f"{'trial':>5s} {'B=|L+||L-|':>13s} {'bound eq3':>13s} {'bound eq9a':>13s} {'eq9a slack':>12s}")
    for k in range(min(args.rows, table["trial"].size)):
        trial = table["trial"][k]
        print(f"{'q1' if trial < 0 else trial:>5} {table['B'][k]:13.4e} {table['bound_eq3'][k]:13.4e} "
              f"{table['bound_eq9a'][k]:13.4e} {table['margin_eq9a'][k]:12.3e}")
    print(f"\nregistry verdicts ({stats.total_trials} trials, f in {', '.join(cfg.f_labels)}):")
    for rid, rel in stats.per_relation.items():
        print(f"  {rid:13s} samples={rel.trials} violations={rel.violations} "
              f"min_rel_margin={rel.min_rel_margin:.3e}")
    print(f"  q1 fixture: violations={len(fixture_bad)}", *fixture_bad)
    print(f"\nbounds over {table['trial'].size} instances (fixture included):")
    for b in ("bound_eq3", "bound_eq9a"):
        print(f"  {b}: mean={table[b].mean():.6g} min={table[b].min():.6g} max={table[b].max():.6g}")
    ordering = int(table["eq9a_below_eq3"].sum())
    print(f"eq9a bound below eq3 bound: {ordering} of {table['trial'].size}")
    return 0 if stats.total_violations == 0 and not fixture_bad and ordering == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
