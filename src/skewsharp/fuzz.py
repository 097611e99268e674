"""Reproducible randomized verification of every determinant relation.

Each trial derives its own generator from (master seed, trial index), so runs
are deterministic at any parallelism and any subset of trials can be replayed
(``replay_trial``).  ``RELATIONS`` is the one table of relations, for this
harness, ``skewsharp check`` and the bound-strength study
(``scripts/strength_compare.py``) alike: one record per relation id, in the
order of the ``check`` report and of the reproducers, naming its group (what
``FuzzConfig.relations`` and ``check`` select), its evaluator, whether it is
sampled once per f label, and the ``check`` option that selects it.  The study
judges its instances through ``run_fuzz`` and ``context_margins`` and reads its
bounds from the groups' batched two-observable reports (``draw_groups``); this
module computes no bound of its own.

Evaluation is grouped.  ``run_fuzz`` draws a chunk of trials, each from its own
generator exactly as a lone trial would, and groups them by (dim, n); the rank
only changes the draw.  Each group is validated and evaluated as one batched
:class:`~skewsharp.skew.SpectralContext`, so every relation gives one margin
and one scale per trial from a few array operations (the two-observable
relations finish their few scalars per trial).  Every tolerance (state
and observable validation, PSD clips, construction self-checks, relation
scales) is taken per trial, never across a group, and every check runs on
every trial.  A failed check is replayed trial by trial, and the error names
the first failing trial with its (dim, n, rank).  ``trial_margins`` and
``context_margins`` are the one-trial case of the same code.

A margin that fails ``violated`` dumps a reproducer file in the
CLI state/observables JSON format (plus the relation and f label) so the
instance replays through the command line; each relation's stats also name the
trial of its smallest relative margin.  Observable counts are drawn with
n <= dim^2 - 1: beyond that every determinant is exactly zero and the
fractional-power margins carry no information.
"""

from __future__ import annotations

import math
import numbers
import os
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from . import __version__
from .gcov import (
    check_g_triple,
    check_metric_adjusted,
    eps_kernel,
    f_skew_pairing,
    mean_kernel,
    resolve_monotone,
    wy_strongest_check,
)
from .linalg import DensityMatrix, SkewsharpError, hermitian_parts, mat_scale, validate_states
from .serialize import dumps, observables_to_dict, state_to_dict, write_text
from .skew import TOL_INEQ, ObservableSet, SpectralContext, instance, relation_scale

CHUNK_TRIALS = 500   # trials drawn, grouped and evaluated together


def violated(margin, scale, tol: float):
    """The one violation predicate, elementwise: NaN and -inf fail, +inf (VACUOUS) passes."""
    return np.logical_not(margin >= -tol * scale)


def _refined(rid):
    return lambda ctx, f: (ctx.refined.margins[rid], ctx.refined.scales[rid])


def _two_obs(*keys):
    def relation(ctx, f):
        if ctx.n != 2:
            return None
        return reduce(np.minimum, (ctx.two_obs.margins[k] for k in keys)), ctx.two_obs.scales["eq9a"]
    return relation


def _eq16(ctx, f):
    """L^g of ``f.gram_kernels`` from the pairings eq17 and eq18 make:
    [[cov(m_f), cov(eps)], [cov(eps)^H, P_If / (2 f(0))]], P_If the f-skew pairing."""
    n, c = ctx.n, ctx.cov(eps_kernel())
    L = np.empty((ctx.size, 2 * n, 2 * n), dtype=complex)
    L[:, :n, :n], L[:, :n, n:] = ctx.cov(f.mean_kernel), c
    L[:, n:, :n], L[:, n:, n:] = np.conj(c).swapaxes(1, 2), f_skew_pairing(ctx, f) / (2 * f.f0)
    L = hermitian_parts(L, tol=1e-8, what="L^g")
    return np.linalg.eigvalsh(L)[:, 0], mat_scale(L)


def _eq17(ctx, f):
    margin = check_g_triple.ctx(ctx, mean_kernel(), mean_kernel(), eps_kernel())
    return margin, relation_scale(ctx.dets["sigma"] ** 2)


def _metric_adjusted(eq):
    def relation(ctx, f):
        mar = check_metric_adjusted.ctx(ctx, f)
        return getattr(mar, f"margin{eq}"), getattr(mar, f"scale{eq}")
    return relation


def _wy_strongest(ctx, f):
    """Only for f <= f(0)(1+sqrt x)^2: sld and wy in the catalog; the harness skips wy, 0 against itself."""
    if not f.wy_dominated:
        return None
    dets = ctx.dets
    return wy_strongest_check.ctx(ctx, f), relation_scale(dets["sigma_plus_c"] * dets["sigma_minus_c"])


@dataclass(frozen=True)
class Relation:
    """One determinant relation: everything ``check`` and the fuzz harness need to know of it."""

    rid: str
    group: str          # the unit that ``FuzzConfig.relations`` and ``check`` select
    evaluate: Callable  # (ctx, f) -> (margins, scales), one entry per instance, or None where it does not apply
    per_f: bool = False         # sampled once per f label
    check: str | None = None    # the ``check`` option that selects it; None: always


# the one relation table, in report and reproducer order
RELATIONS = (
    Relation("rs", "rs", _refined("rs")),
    Relation("eq3", "refined", _refined("eq3")),
    Relation("eq4a", "weak-chain", _refined("eq4a")),
    Relation("eq4b", "weak-chain", _refined("eq4b")),
    Relation("eq7-psd", "refined", _refined("eq7-psd")),
    Relation("eq8-schur", "refined", _refined("eq8-schur")),
    Relation("eq9a", "two-obs", _two_obs("eq9a"), check="--two-obs"),
    Relation("eq9b", "two-obs", _two_obs("eq9b_1", "eq9b_2"), check="--two-obs"),
    Relation("eq10", "two-obs", _two_obs("eq10"), check="--two-obs"),
    Relation("furuichi", "two-obs", _two_obs("furuichi"), check="--two-obs"),
    Relation("eq16", "g-psd", _eq16, per_f=True, check="--f"),
    Relation("eq17", "g-psd", _eq17, check="--f"),
    Relation("eq18", "eq18", _metric_adjusted(18), per_f=True, check="--f"),
    Relation("eq19", "eq19", _metric_adjusted(19), per_f=True, check="--f"),
    Relation("wy-strongest", "wy-strongest", _wy_strongest, per_f=True, check="--f"),
)
DEFAULT_GROUPS = tuple(dict.fromkeys(r.group for r in RELATIONS))

HIST_EDGES = (-math.inf, -1e-8, -1e-10, -1e-12, 0.0, 1e-12, 1e-10, 1e-8,
              1e-6, 1e-4, 1e-2, 1.0, math.inf)
_EDGES = np.array(HIST_EDGES)


class ConfigError(SkewsharpError):
    pass


def require_violation_tol(tol: float) -> float:
    """tol, if it is a finite number >= 0 (NaN would violate everything, inf nothing)."""
    if not 0 <= tol < math.inf:
        raise ConfigError(f"violation tolerance must be finite and >= 0, got {tol}")
    return tol


def _is_int(x) -> bool:
    """An integer that is not a bool (True would pass for 1)."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


@dataclass(eq=False)
class FuzzConfig:
    dims: tuple[int, ...] = (2, 3, 4, 5, 6)
    n_obs: tuple[int, ...] = (1, 2, 3, 4)
    ranks: tuple = ("full", 1)
    trials: int = 1000
    seed: int = 20240501
    relations: tuple[str, ...] = DEFAULT_GROUPS
    f_labels: tuple[str, ...] = ("wy", "sld", "wyd:0.3")
    tol: float = TOL_INEQ
    reproducer_dir: str | None = None

    def __post_init__(self):
        require_violation_tol(self.tol)
        if not _is_int(self.trials) or self.trials < 1:
            raise ConfigError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not all(_is_int(d) and 2 <= d <= 8 for d in self.dims):
            raise ConfigError(f"dims must be integers in 2..8, got {self.dims}")
        if not all(_is_int(n) and 1 <= n <= 5 for n in self.n_obs):
            raise ConfigError(f"n_obs must be integers in 1..5, got {self.n_obs}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        for r in self.ranks:
            if r != "full" and (not _is_int(r) or r < 1):
                raise ConfigError(f"ranks entries must be 'full' or positive ints, got {r!r}")
        unknown = [g for g in self.relations if g not in DEFAULT_GROUPS]
        if unknown:
            raise ConfigError(f"unknown relation groups {unknown}; valid: {sorted(DEFAULT_GROUPS)}")
        if not self.combos:
            raise ConfigError("no admissible (dim, n) combination (need n <= dim^2 - 1)")
        if self.reproducer_dir is not None and not os.path.isdir(self.reproducer_dir):
            raise ConfigError(f"reproducer_dir {self.reproducer_dir!r} is not an existing directory")

    @cached_property
    def combos(self) -> list[tuple[int, int]]:
        """The (dim, n) pairs a trial draws from."""
        return [(d, n) for d in self.dims for n in self.n_obs if n <= d * d - 1]

    def to_dict(self) -> dict:
        return {
            "dims": list(self.dims), "n_obs": list(self.n_obs),
            "ranks": [str(r) for r in self.ranks], "trials": self.trials,
            "seed": self.seed, "relations": list(self.relations),
            "f_labels": list(self.f_labels), "tol": self.tol,
        }


def _ginibre(dim: int, rank, rng: np.random.Generator) -> np.ndarray:
    """G G^dag / Tr with G complex standard normal dim x rank."""
    k = dim if rank == "full" else min(int(rank), dim)
    G = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    M = G @ G.conj().T
    return M / np.trace(M).real


def _gue(z: np.ndarray) -> np.ndarray:
    """(G + G^dag)/2 for normal draws z (..., 2, d, d), the real and imaginary parts of G."""
    G = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    return (G + np.conj(G).swapaxes(-2, -1)) / 2


def random_density(dim: int, rank, rng: np.random.Generator) -> DensityMatrix:
    """Ginibre-induced state: G G^dag / Tr with G complex standard normal dim x rank."""
    return DensityMatrix.from_matrix(_ginibre(dim, rank, rng))


def random_observables(dim: int, n: int, rng: np.random.Generator) -> ObservableSet:
    """GUE observables (G + G^dag)/2."""
    return ObservableSet.from_matrices(_gue(rng.standard_normal((n, 2, dim, dim))))


def _trial_draw(config: FuzzConfig, trial: int) -> tuple[int, int, object, np.random.Generator]:
    """A trial's (dim, n, rank), and its generator positioned at the state draw."""
    rng = np.random.default_rng([config.seed, trial])
    combos = config.combos
    dim, n = combos[int(rng.integers(len(combos)))]
    rank = config.ranks[int(rng.integers(len(config.ranks)))]
    return dim, n, rank, rng


def replay_trial(config: FuzzConfig, trial: int) -> tuple[DensityMatrix, ObservableSet]:
    """The instance of one trial, drawn exactly as ``run_fuzz`` draws it."""
    dim, n, rank, rng = _trial_draw(config, trial)
    rho = random_density(dim, rank, rng)
    return rho, random_observables(dim, n, rng)


@dataclass(eq=False)
class TrialGroup:
    """Trials of one (dim, n), in trial order, evaluated as one batched context."""

    dim: int
    n: int
    trials: np.ndarray       # (B,) trial indices
    ranks: list
    ctx: SpectralContext

    def describe(self, i: int) -> dict:
        return {"trial": int(self.trials[i]), "dim": self.dim, "n": self.n, "rank": self.ranks[i]}


def draw_groups(config: FuzzConfig, trials) -> list[TrialGroup]:
    """Draw the trials, group them by (dim, n), and validate each group as one stack."""
    drawn: dict[tuple[int, int], list] = {}
    for trial in trials:
        dim, n, rank, rng = _trial_draw(config, trial)
        state = _ginibre(dim, rank, rng)
        drawn.setdefault((dim, n), []).append((trial, rank, state, rng.standard_normal((n, 2, dim, dim))))
    groups = []
    for (dim, n), items in drawn.items():
        ts, ranks, states, z = zip(*items)
        rho, lam, V = validate_states(np.stack(states))
        obs = hermitian_parts(_gue(np.stack(z)), what="observable")
        groups.append(TrialGroup(dim, n, np.array(ts), list(ranks),
                                 SpectralContext.from_arrays(rho, lam, V, obs)))
    return groups


@dataclass(eq=False)
class RelationStats:
    trials: int = 0
    violations: int = 0
    min_margin: float = math.inf
    min_rel_margin: float = math.inf
    argmin: dict | None = None    # the sample of min_rel_margin: trial, dim, n, rank, f
    histogram: list[int] = field(default_factory=lambda: [0] * (len(HIST_EDGES) - 1))

    def record(self, margins, scales, tol: float, case=None) -> np.ndarray:
        """File samples given in trial order; returns and counts their violations.

        A NaN lands in the lowest bin and is kept as the minimum.  ``case(i)``
        describes sample i; it is kept for a new smallest relative margin (the
        first NaN, else the first smallest), so ties go to the earliest trial.
        """
        margins = np.atleast_1d(np.asarray(margins, dtype=float))
        scales = np.asarray(scales, dtype=float)
        rel = np.divide(margins, scales, out=margins.copy(), where=np.isfinite(margins))
        self.trials += margins.size
        self.min_margin = float(np.minimum(self.min_margin, margins.min()))  # keeps a NaN
        nan = np.isnan(rel)
        i = int(nan.argmax()) if nan.any() else int(rel.argmin())
        new_min = rel[i] < self.min_rel_margin or (nan[i] and not math.isnan(self.min_rel_margin))
        self.min_rel_margin = float(np.minimum(self.min_rel_margin, rel[i]))
        if case is not None and (new_min or self.argmin is None):
            self.argmin = case(i)
        top = len(HIST_EDGES) - 2  # [1, inf], so +inf lands here
        bins = np.minimum(np.searchsorted(_EDGES, rel, side="right") - 1, top)
        bins[nan] = 0
        self.histogram = [h + int(c) for h, c in zip(self.histogram, np.bincount(bins, minlength=top + 1))]
        bad = violated(margins, scales, tol)
        self.violations += int(bad.sum())
        return bad

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "violations": self.violations,
            "min_margin": self.min_margin,
            "min_rel_margin": self.min_rel_margin,
            "argmin": self.argmin,
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


def group_margins(ctx: SpectralContext, groups, fs) -> list[tuple[str, str | None, np.ndarray, np.ndarray]]:
    """All (relation, f_label, margins, scales) rows of the groups, one entry per instance of ctx."""
    out = []
    for r in RELATIONS:
        if r.group not in groups:
            continue
        for f in fs if r.per_f else (None,):
            sample = r.evaluate(ctx, f)
            if sample is not None:
                out.append((r.rid, f and f.label, *sample))
    return out


def context_margins(ctx: SpectralContext, groups, fs) -> list[tuple[str, str | None, float, float]]:
    """All (relation, f_label, margin, scale) samples of the groups for a one-instance context."""
    return [(rid, f_label, instance(m), instance(s)) for rid, f_label, m, s in group_margins(ctx, groups, fs)]


def trial_margins(rho: DensityMatrix, X: ObservableSet, groups, fs) -> list[tuple[str, str | None, float, float]]:
    """All (relation, f_label, margin, scale) samples for one instance."""
    return context_margins(SpectralContext(rho, X), groups, fs)


def write_reproducer(config: FuzzConfig, rid: str, f_label: str | None, trial: int,
                     margin: float, scale: float, rho: DensityMatrix, X: ObservableSet) -> str:
    """The trial as a reproducer file in ``config.reproducer_dir``, in the CLI input format,
    named ``violation_{rid}_{trial}.json``, or ``violation_{rid}_{f_label}_{trial}.json``
    for a relation sampled per f label."""
    tag = rid if f_label is None else f"{rid}_{f_label}"
    path = os.path.join(config.reproducer_dir, f"violation_{tag}_{trial}.json")
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
    return path


def _located(config: FuzzConfig, fs, trials, exc: SkewsharpError) -> SkewsharpError:
    """The error of the first trial of a failed chunk that fails alone, naming it and its (dim, n, rank)."""
    for trial in trials:
        dim, n, rank, _ = _trial_draw(config, trial)
        try:
            trial_margins(*replay_trial(config, trial), config.relations, fs)
        except SkewsharpError as alone:
            return type(alone)(f"trial {trial} (dim {dim}, n {n}, rank {rank}): {alone}")
    return type(exc)(f"trials {trials[0]}-{trials[-1]}: {exc}; no trial fails alone")


def _record_chunk(stats: FuzzStats, config: FuzzConfig, fs, groups, rows) -> None:
    """File a chunk's samples, one array per relation in (trial, f) order, and its violations."""
    f_order = {None: -1, **{f.label: k for k, f in enumerate(fs)}}
    samples: dict[str, list] = {r.rid: [] for r in RELATIONS}   # in table order
    for group, group_rows in zip(groups, rows):
        for rid, f_label, margins, scales in group_rows:
            if rid == "wy-strongest" and f_label == "wy":
                continue  # wy against itself: identically 0
            samples[rid].append((group, f_label, margins, scales))
    violations = []
    for rid, parts in samples.items():
        if not parts:
            continue
        # one key per sample: (trial, f position, group, index in the group, f label)
        keys = [(int(t), f_order[f_label], group, i, f_label)
                for group, f_label, _, _ in parts for i, t in enumerate(group.trials)]
        order = sorted(range(len(keys)), key=lambda k: keys[k][:2])
        keys = [keys[k] for k in order]
        margins, scales = (np.concatenate([part[c] for part in parts])[order] for c in (2, 3))

        def case(j):
            _, _, group, i, f_label = keys[j]
            return {**group.describe(i), "f": f_label}

        bad = stats.per_relation.setdefault(rid, RelationStats()).record(margins, scales, config.tol, case)
        violations += [(keys[j], rid, margins[j], scales[j]) for j in np.flatnonzero(bad)]
    stats.total_violations += len(violations)
    if config.reproducer_dir is not None:
        # by trial; a stable sort keeps table order, then f order, within a trial
        for (trial, _, _, _, f_label), rid, margin, scale in sorted(violations, key=lambda v: v[0][0]):
            stats.reproducers.append(write_reproducer(config, rid, f_label, trial, float(margin), float(scale),
                                                      *replay_trial(config, trial)))


def run_fuzz(config: FuzzConfig) -> FuzzStats:
    fs = [resolve_monotone(lbl) for lbl in config.f_labels]
    stats = FuzzStats(seed=config.seed, config=config.to_dict(), per_relation={})
    for start in range(0, config.trials, CHUNK_TRIALS):
        trials = range(start, min(start + CHUNK_TRIALS, config.trials))
        try:
            groups = draw_groups(config, trials)
            rows = [group_margins(group.ctx, config.relations, fs) for group in groups]
        except SkewsharpError as exc:
            raise _located(config, fs, trials, exc) from exc
        stats.total_trials += len(trials)
        _record_chunk(stats, config, fs, groups, rows)
    return stats

