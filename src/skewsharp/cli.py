"""Command-line front end.

Exit codes: 0 = all requested relations hold or saturate, 1 = a relation is
violated (or fuzz found violations, or a Gaussian gap exceeds tolerance),
2 = input or configuration error.  SKEWSHARP_TOL overrides the violation
tolerance (relative, default 1e-8); the saturation verdict band is 1e-7.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .fuzz import RELATION_GROUPS, FuzzConfig, context_margins, run_fuzz, violated
from .gaussian import (
    fock_density,
    nongaussianity,
    saturation_check,
    single_mode_generator,
    two_mode_generator,
)
from .gcov import big_F, lambda_f, resolve_monotone
from .linalg import SkewsharpError
from .serialize import (
    FormatError,
    dumps,
    load_json,
    observables_to_dict,
    parse_observables,
    parse_state,
    real_matrix_to_lists,
    sha256_of_file,
    state_to_dict,
    write_text,
)
from .skew import SpectralContext, instance

SAT_TOL = 1e-7


def _violation_tol(override: float | None) -> float:
    if override is not None:
        return override
    env = os.environ.get("SKEWSHARP_TOL")
    return float(env) if env else 1e-8


def _verdict(margin: float, scale: float, tol: float) -> str:
    if violated(margin, scale, tol):
        return "violated"
    if margin <= SAT_TOL * scale:
        return "saturated"
    return "holds"


def cmd_check(args) -> int:
    tol = _violation_tol(args.tol)
    rho = parse_state(load_json(args.state))
    X = parse_observables(load_json(args.observables))
    if rho.dim != X.dim:
        raise FormatError(f"dim mismatch: state dim {rho.dim} != observables dim {X.dim}")

    groups = ["rs", "refined", "weak-chain"]
    if args.two_obs:
        if X.n != 2:
            raise FormatError(f"--two-obs needs exactly 2 observables, got {X.n}")
        groups.append("two-obs")
    fs = []
    if args.f is not None:
        fs.append(resolve_monotone(args.f))
        groups += ["g-psd", "eq18", "eq19", "wy-strongest"]

    ctx = SpectralContext(rho, X)
    rows = context_margins(ctx, groups, fs)
    rep = instance(ctx.refined)
    margins = {rid: margin for rid, _, margin, _ in rows}
    scales = {rid: scale for rid, _, _, scale in rows}
    notes = [f"{rid}: not evaluated, its precondition fails for f '{args.f}'"
             for g in groups for rid in RELATION_GROUPS[g] if rid not in margins]

    verdicts = {k: _verdict(margins[k], scales[k], tol) for k in margins}
    report = {
        "version": __version__,
        "inputs": {
            "state_sha256": sha256_of_file(args.state),
            "observables_sha256": sha256_of_file(args.observables),
        },
        "state": state_to_dict(rho),
        "observables": observables_to_dict(X),
        "matrices": {
            "sigma": real_matrix_to_lists(rep.sigma),
            "delta": real_matrix_to_lists(rep.delta),
            "skew": real_matrix_to_lists(rep.skew),
            "classical": real_matrix_to_lists(rep.classical),
            "L_re": real_matrix_to_lists(rep.L.real),
            "L_im": real_matrix_to_lists(rep.L.imag),
        },
        "dets": rep.dets,
        "delta_G": rep.delta_G,
        "rank_L": rep.rank_L,
        "margins": margins,
        "scales": scales,
        "verdicts": verdicts,
        "tolerances": {"violation": tol, "saturation": SAT_TOL},
        "notes": notes,
    }
    if args.json_out:
        write_text(args.json_out, dumps(report))
    for key in margins:
        print(f"{key}: margin={margins[key]:.6e} verdict={verdicts[key]}")
    print(f"delta_G={rep.delta_G:#.12g}")
    for note in notes:
        print(f"note: {note}")
    return 1 if any(v == "violated" for v in verdicts.values()) else 0


def cmd_lambda(args) -> int:
    f = resolve_monotone(args.f)
    res = lambda_f(f)
    if args.grid_dump:
        xs = np.logspace(-8, 8, 4097)
        Fs = big_F(f, xs)
        lines = ["x,F"] + [f"{x:.17g},{v:.17g}" for x, v in zip(xs, Fs)]
        write_text(args.grid_dump, "\n".join(lines) + "\n")
    flag = "true" if res.conjecture_match else "false"
    print(f"lambda={res.lam:.17g} lower={res.lower_bound:.17g} "
          f"upper={res.upper_bound:.17g} conjecture_match={flag}")
    return 0


def _build_generator(args):
    omegas = args.omega if args.omega else [1.0]
    if args.modes == 1:
        if len(omegas) != 1:
            raise FormatError("one --omega expected for --modes 1")
        return single_mode_generator(omegas[0], xi=args.xi, beta=args.beta)
    if args.modes == 2:
        if len(omegas) == 1:
            omegas = omegas * 2
        if len(omegas) != 2:
            raise FormatError("one or two --omega values expected for --modes 2")
        return two_mode_generator(omegas[0], omegas[1], coupling=args.coupling,
                                  xi=args.xi, beta=args.beta)
    raise FormatError(f"--modes must be 1 or 2, got {args.modes}")


def cmd_gaussian(args) -> int:
    H = _build_generator(args)
    sat = saturation_check(H, args.cutoff)
    dg_exact, dg_numeric = sat.delta_G_exact, sat.delta_G_numeric

    tol_exact = 1e-8
    tol_numeric = max(1e-6, 1e3 * sat.tail_mass)
    ok = abs(dg_exact) <= tol_exact and abs(dg_numeric) <= tol_numeric
    report = {
        "version": __version__,
        "generator": {
            "modes": H.n_modes, "beta": H.beta,
            "S_re": real_matrix_to_lists(H.S.real),
            "S_im": real_matrix_to_lists(H.S.imag),
        },
        "exact": {
            "sigma": real_matrix_to_lists(sat.moments.sigma),
            "classical": real_matrix_to_lists(sat.moments.c),
            "delta_G": dg_exact,
            "perturbed": sat.moments.perturbed,
        },
        "numeric": {
            "cutoff": args.cutoff,
            "tail_mass": sat.tail_mass,
            "sigma": real_matrix_to_lists(sat.refined.sigma),
            "classical": real_matrix_to_lists(sat.refined.classical),
            "delta_G": dg_numeric,
        },
        "tolerances": {"exact": tol_exact, "numeric": tol_numeric},
        "saturated": ok,
    }
    if args.json_out:
        write_text(args.json_out, dumps(report))
    print(f"delta_G_exact={dg_exact:#.12g}")
    print(f"delta_G_numeric={dg_numeric:#.12g}")
    print(f"tail_mass={sat.tail_mass:.6e}")
    print(f"saturated={'true' if ok else 'false'}")
    return 0 if ok else 1


def cmd_nongauss(args) -> int:
    rho = parse_state(load_json(args.state), build=functools.partial(
        fock_density, n_modes=args.modes, cutoff=args.cutoff))
    dg = nongaussianity(rho, args.modes, args.cutoff)
    print(f"delta_G={dg:#.12g}")
    return 0


def _csv_ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t)


def cmd_fuzz(args) -> int:
    ranks = tuple("full" if t == "full" else int(t) for t in args.ranks.split(",") if t)
    config = FuzzConfig(
        dims=_csv_ints(args.dims),
        n_obs=_csv_ints(args.n_obs),
        ranks=ranks,
        trials=args.trials,
        seed=args.seed,
        relations=tuple(args.relations.split(",")) if args.relations else FuzzConfig.relations,
        f_labels=tuple(args.f.split(",")) if args.f else ("wy", "sld", "wyd:0.3"),
        tol=_violation_tol(args.tol),
        reproducer_dir=args.reproducer_dir,
    )
    stats = run_fuzz(config)
    if args.json_out:
        write_text(args.json_out, dumps(stats.to_dict()))
    for rid, rel in sorted(stats.per_relation.items()):
        print(f"{rid}: trials={rel.trials} violations={rel.violations} "
              f"min_margin={rel.min_margin:.6e}")
    print(f"total: trials={stats.total_trials} violations={stats.total_violations}")
    return 0 if stats.total_violations == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once: parse_args leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="skewsharp",
        description="Uncertainty-matrix analysis: covariance vs skew information, "
                    "determinant inequalities, and Gaussian saturation gaps.",
    )
    p.add_argument("--version", action="version", version=f"skewsharp {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="verify the determinant relations for a state and observables")
    c.add_argument("state", help="state JSON file (dim, matrix of [re, im] pairs)")
    c.add_argument("observables", help="observables JSON file")
    c.add_argument("--f", help="monotone-function label (wy, wyd:<alpha>, sld) "
                               "to add the metric-adjusted relations")
    c.add_argument("--two-obs", action="store_true", help="add the scalar two-observable relations")
    c.add_argument("--json-out", help="write the machine-readable report here")
    c.add_argument("--tol", type=float, help="violation tolerance (relative)")

    l = sub.add_parser("lambda", help="minimize F(x) for a monotone-function label")
    l.add_argument("--f", required=True, help="monotone-function label")
    l.add_argument("--grid-dump", help="write an x,F CSV of the search grid")

    g = sub.add_parser("gaussian", help="thermal-state saturation check, exact vs truncated Fock")
    g.add_argument("--modes", type=int, default=1)
    g.add_argument("--omega", type=float, action="append", help="mode frequency (repeatable)")
    g.add_argument("--xi", type=complex, default=0j, help="squeezing coefficient, e.g. 0.3 or 0.2+0.1j")
    g.add_argument("--coupling", type=float, default=0.0, help="beamsplitter coupling (2 modes)")
    g.add_argument("--beta", type=float, default=1.0, help="inverse temperature")
    g.add_argument("--cutoff", type=int, default=60, help="Fock-space cutoff (>= 8)")
    g.add_argument("--json-out")

    n = sub.add_parser("nongauss", help="non-Gaussianity gap of a truncated-Fock state")
    n.add_argument("state", help="state JSON file on the truncated Fock space")
    n.add_argument("--modes", type=int, required=True)
    n.add_argument("--cutoff", type=int, required=True)

    z = sub.add_parser("fuzz", help="randomized verification across all relations")
    z.add_argument("--seed", type=int, default=20240501)
    z.add_argument("--trials", type=int, default=1000)
    z.add_argument("--dims", default="2,3,4,5,6")
    z.add_argument("--n-obs", default="1,2,3,4")
    z.add_argument("--ranks", default="full,1")
    z.add_argument("--relations", help="comma-separated relation groups (default: all)")
    z.add_argument("--f", help="comma-separated monotone-function labels")
    z.add_argument("--tol", type=float)
    z.add_argument("--json-out")
    z.add_argument("--reproducer-dir", help="directory for violation reproducer files")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # looked up per call, not stored in the cached parser, so a cmd_* function
    # rebound on this module (a patch, a timing wrapper) is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (SkewsharpError, json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
