"""Reproducible randomized verification of every determinant relation.

Each trial derives its own generator from (master seed, trial index), so runs
are deterministic at any parallelism and any subset of trials can be replayed.
Relation groups select what gets checked per trial:

    rs          ->  rs
    refined     ->  eq3, eq7-psd, eq8-schur
    weak-chain  ->  eq4a, eq4b
    two-obs     ->  eq9a, eq9b, eq10, furuichi      (only when n = 2 is drawn)
    g-psd       ->  eq16 (one sample per f label), eq17
    eq18 / eq19 ->  metric-adjusted relations, one sample per f label
    wy-strongest -> wy-strongest, for sld only: it needs f <= f(0)(1+sqrt x)^2
                    (in the catalog: sld and wy), and wy against itself is 0

``RELATIONS`` is the one table of relations, for this harness and ``skewsharp
check`` alike.  A margin that fails ``violated`` dumps a reproducer file in the
CLI state/observables JSON format (plus the relation and f label) so the
instance replays through the command line.  Observable counts are drawn with n <= dim^2 - 1: beyond that every
determinant is exactly zero and the fractional-power margins carry no information.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .gcov import (
    build_Lg,
    check_g_triple,
    check_metric_adjusted,
    eps_kernel,
    mean_kernel,
    resolve_monotone,
    wy_strongest_check,
)
from .linalg import DensityMatrix, SkewsharpError, mat_scale
from .serialize import dumps, observables_to_dict, state_to_dict, write_text
from .skew import ObservableSet, SpectralContext

RELATION_GROUPS = {
    "rs": ("rs",),
    "refined": ("eq3", "eq7-psd", "eq8-schur"),
    "weak-chain": ("eq4a", "eq4b"),
    "two-obs": ("eq9a", "eq9b", "eq10", "furuichi"),
    "g-psd": ("eq16", "eq17"),
    "eq18": ("eq18",),
    "eq19": ("eq19",),
    "wy-strongest": ("wy-strongest",),
}

DEFAULT_GROUPS = tuple(RELATION_GROUPS)


def violated(margin: float, scale: float, tol: float) -> bool:
    """The one violation predicate: NaN and -inf fail, +inf (VACUOUS) passes."""
    return not margin >= -tol * scale


def _refined(rid):
    return lambda ctx, f: (ctx.refined.margins[rid], ctx.refined.scales[rid])


def _two_obs(*keys):
    def relation(ctx, f):
        if ctx.X.n != 2:
            return None
        return min(ctx.two_obs.margins[k] for k in keys), ctx.two_obs.scales["eq9a"]
    return relation


def _eq16(ctx, f):
    L = build_Lg.ctx(ctx, *f.gram_kernels)
    return float(np.linalg.eigvalsh(L)[0]), mat_scale(L)


def _eq17(ctx, f):
    margin = check_g_triple.ctx(ctx, mean_kernel(), mean_kernel(), eps_kernel())
    return margin, max(1.0, ctx.dets["sigma"] ** 2)


def _metric_adjusted(eq):
    def relation(ctx, f):
        mar = check_metric_adjusted.ctx(ctx, f)
        return getattr(mar, f"margin{eq}"), getattr(mar, f"scale{eq}")
    return relation


def _wy_strongest(ctx, f):
    if not f.wy_dominated:
        return None
    dets = ctx.dets
    return wy_strongest_check.ctx(ctx, f), max(1.0, dets["sigma_plus_c"] * dets["sigma_minus_c"])


# id -> relation(ctx, f) -> (margin, scale), or None where it does not apply
RELATIONS = {
    **{rid: _refined(rid) for rid in ("rs", "eq3", "eq4a", "eq4b", "eq7-psd", "eq8-schur")},
    "eq9a": _two_obs("eq9a"),
    "eq9b": _two_obs("eq9b_1", "eq9b_2"),
    "eq10": _two_obs("eq10"),
    "furuichi": _two_obs("furuichi"),
    "eq16": _eq16,
    "eq17": _eq17,
    "eq18": _metric_adjusted(18),
    "eq19": _metric_adjusted(19),
    "wy-strongest": _wy_strongest,
}
PER_F = frozenset({"eq16", "eq18", "eq19", "wy-strongest"})  # sampled once per f label

HIST_EDGES = (-math.inf, -1e-8, -1e-10, -1e-12, 0.0, 1e-12, 1e-10, 1e-8,
              1e-6, 1e-4, 1e-2, 1.0, math.inf)


class ConfigError(SkewsharpError):
    pass


@dataclass(eq=False)
class FuzzConfig:
    dims: tuple[int, ...] = (2, 3, 4, 5, 6)
    n_obs: tuple[int, ...] = (1, 2, 3, 4)
    ranks: tuple = ("full", 1)
    trials: int = 1000
    seed: int = 20240501
    relations: tuple[str, ...] = DEFAULT_GROUPS
    f_labels: tuple[str, ...] = ("wy", "sld", "wyd:0.3")
    tol: float = 1e-8
    reproducer_dir: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not all(2 <= d <= 8 for d in self.dims):
            raise ConfigError(f"dims must lie in 2..8, got {self.dims}")
        if not all(1 <= n <= 5 for n in self.n_obs):
            raise ConfigError(f"n_obs must lie in 1..5, got {self.n_obs}")
        for r in self.ranks:
            if r != "full" and (not isinstance(r, int) or r < 1):
                raise ConfigError(f"ranks entries must be 'full' or positive ints, got {r!r}")
        unknown = [g for g in self.relations if g not in RELATION_GROUPS]
        if unknown:
            raise ConfigError(f"unknown relation groups {unknown}; valid: {sorted(RELATION_GROUPS)}")
        if not any(n <= d * d - 1 for d in self.dims for n in self.n_obs):
            raise ConfigError("no admissible (dim, n) combination (need n <= dim^2 - 1)")

    def to_dict(self) -> dict:
        return {
            "dims": list(self.dims), "n_obs": list(self.n_obs),
            "ranks": [str(r) for r in self.ranks], "trials": self.trials,
            "seed": self.seed, "relations": list(self.relations),
            "f_labels": list(self.f_labels), "tol": self.tol,
        }


def random_density(dim: int, rank, rng: np.random.Generator) -> DensityMatrix:
    """Ginibre-induced state: G G^dag / Tr with G complex standard normal dim x rank."""
    k = dim if rank == "full" else min(int(rank), dim)
    G = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    M = G @ G.conj().T
    return DensityMatrix.from_matrix(M / np.trace(M).real)


def random_observables(dim: int, n: int, rng: np.random.Generator) -> ObservableSet:
    """GUE observables (G + G^dag)/2."""
    mats = []
    for _ in range(n):
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mats.append((G + G.conj().T) / 2)
    return ObservableSet.from_matrices(mats)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


@dataclass(eq=False)
class RelationStats:
    trials: int = 0
    violations: int = 0
    min_margin: float = math.inf
    min_rel_margin: float = math.inf
    histogram: list[int] = field(default_factory=lambda: [0] * (len(HIST_EDGES) - 1))

    def record(self, margin: float, scale: float, tol: float) -> bool:
        """File one sample (a NaN in the lowest bin); returns and counts a violation."""
        self.trials += 1
        rel = margin / scale if math.isfinite(margin) else margin
        self.min_margin = float(np.minimum(self.min_margin, margin))  # keeps a NaN
        self.min_rel_margin = float(np.minimum(self.min_rel_margin, rel))
        top = len(HIST_EDGES) - 2  # [1, inf], so +inf lands here
        self.histogram[0 if math.isnan(rel) else min(bisect_right(HIST_EDGES, rel) - 1, top)] += 1
        bad = violated(margin, scale, tol)
        self.violations += bad
        return bad

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "violations": self.violations,
            "min_margin": self.min_margin,
            "min_rel_margin": self.min_rel_margin,
            "histogram_edges": list(HIST_EDGES),
            "histogram": list(self.histogram),
        }


@dataclass(eq=False)
class FuzzStats:
    seed: int
    config: dict
    per_relation: dict[str, RelationStats]
    total_trials: int = 0
    total_violations: int = 0
    reproducers: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "version": __version__,
            "seed": self.seed,
            "config": self.config,
            "total_trials": self.total_trials,
            "total_violations": self.total_violations,
            "per_relation": {k: v.to_dict() for k, v in sorted(self.per_relation.items())},
            "reproducers": list(self.reproducers),
        }


def context_margins(ctx: SpectralContext, groups, fs) -> list[tuple[str, str | None, float, float]]:
    """All (relation, f_label, margin, scale) samples of the groups for one context."""
    wanted = {rid for g in groups for rid in RELATION_GROUPS[g]}
    out = []
    for rid, relation in RELATIONS.items():
        if rid not in wanted:
            continue
        for f in fs if rid in PER_F else (None,):
            sample = relation(ctx, f)
            if sample is not None:
                out.append((rid, f and f.label, *sample))
    return out


def trial_margins(rho: DensityMatrix, X: ObservableSet, groups, fs) -> list[tuple[str, str | None, float, float]]:
    """All (relation, f_label, margin, scale) samples for one instance."""
    return context_margins(SpectralContext(rho, X), groups, fs)


def run_fuzz(config: FuzzConfig) -> FuzzStats:
    fs = [resolve_monotone(lbl) for lbl in config.f_labels]
    combos = [(d, n) for d in config.dims for n in config.n_obs if n <= d * d - 1]
    stats = FuzzStats(seed=config.seed, config=config.to_dict(), per_relation={})
    for trial in range(config.trials):
        rng = _trial_rng(config.seed, trial)
        dim, n = combos[int(rng.integers(len(combos)))]
        rank = config.ranks[int(rng.integers(len(config.ranks)))]
        rho = random_density(dim, rank, rng)
        X = random_observables(dim, n, rng)
        stats.total_trials += 1
        for rid, f_label, margin, scale in trial_margins(rho, X, config.relations, fs):
            if rid == "wy-strongest" and f_label == "wy":
                continue  # wy against itself: identically 0
            rel = stats.per_relation.setdefault(rid, RelationStats())
            if rel.record(margin, scale, config.tol):
                stats.total_violations += 1
                if config.reproducer_dir is not None:
                    path = os.path.join(
                        config.reproducer_dir, f"violation_{rid}_{trial}.json"
                    )
                    write_text(path, dumps({
                        "relation": rid,
                        "f": f_label,
                        "trial": trial,
                        "seed": config.seed,
                        "margin": margin,
                        "scale": scale,
                        "state": state_to_dict(rho),
                        "observables": observables_to_dict(X),
                    }))
                    stats.reproducers.append(path)
    return stats


# ------------------------------------------------------------ strength study

@dataclass(eq=False)
class StrengthStudy:
    rows: list[dict]
    summary: dict


def strength_study(config: FuzzConfig, fixed_instances=None) -> StrengthStudy:
    """Per-trial lower bounds on |L+||L-| for two observables, plus eq19 across f.

    Asserted orderings are counted, never silently dropped: the eq9a-derived
    bound dominates the squared-commutator bound, and within the admissible
    class the plain skew-information relation has the smallest left side.
    Everything else is reported as empirical frequencies only.
    """
    if any(n != 2 for n in config.n_obs):
        raise ConfigError("strength_study requires n_obs = (2,)")
    fs = [resolve_monotone(lbl) for lbl in config.f_labels]
    rows = []
    ordering_violations = {"eq9a_vs_eq3": 0, "wy_strongest": 0}
    instances = list(fixed_instances or [])

    def make_instance(trial):
        rng = _trial_rng(config.seed, trial)
        dim = config.dims[int(rng.integers(len(config.dims)))]
        rank = config.ranks[int(rng.integers(len(config.ranks)))]
        return random_density(dim, rank, rng), random_observables(dim, 2, rng)

    instances += [make_instance(t) for t in range(config.trials)]
    for idx, (rho, X) in enumerate(instances):
        ctx = SpectralContext(rho, X)
        two = ctx.two_obs
        d2 = two.delta_scalar**2
        bound_eq3 = d2**2
        bound_eq9a = d2 * (2 * two.A - d2)
        tol = config.tol * two.scales["eq9a"]
        dominates = bound_eq9a >= bound_eq3 - tol
        if not dominates:
            ordering_violations["eq9a_vs_eq3"] += 1
        row = {
            "instance": idx,
            "B": two.B,
            "bound_eq3": bound_eq3,
            "bound_eq9a": bound_eq9a,
            "eq9a_dominates": dominates,
            "margin_eq9a": two.margins["eq9a"],
            "margin_furuichi": two.margins["furuichi"],
        }
        for f in fs:
            mar = check_metric_adjusted.ctx(ctx, f)
            row[f"eq19_lhs[{f.label}]"] = mar.margin19 + (4 * mar.lam * f.f0) ** 2 * mar.dets["delta"] ** 2
            row[f"eq19_rhs[{f.label}]"] = (4 * mar.lam * f.f0) ** 2 * mar.dets["delta"] ** 2
            if f.label == "sld":
                wm = wy_strongest_check.ctx(ctx, f)
                row["wy_strongest_margin"] = wm
                if wm < -tol:
                    ordering_violations["wy_strongest"] += 1
        rows.append(row)

    bounds = ["bound_eq3", "bound_eq9a"]
    summary = {
        "instances": len(rows),
        "ordering_violations": ordering_violations,
        "bounds": {
            b: {
                "mean": float(np.mean([r[b] for r in rows])),
                "min": float(np.min([r[b] for r in rows])),
                "max": float(np.max([r[b] for r in rows])),
            }
            for b in bounds
        },
        "eq9a_dominates_fraction": float(np.mean([r["eq9a_dominates"] for r in rows])),
    }
    return StrengthStudy(rows=rows, summary=summary)
