"""The grouped (batched) evaluation against one instance at a time."""

import math

import numpy as np
import pytest

import skewsharp.skew as skew_mod
from skewsharp.cli import _verdict
from skewsharp.fuzz import (
    DEFAULT_GROUPS,
    FuzzConfig,
    RelationStats,
    draw_groups,
    group_margins,
    random_density,
    random_observables,
    replay_trial,
    run_fuzz,
    trial_margins,
    write_reproducer,
)
from skewsharp.gcov import resolve_monotone
from skewsharp.serialize import load_json, parse_observables, parse_state
from skewsharp.skew import ConstructionMismatch, ObservableSet, SpectralContext


def _batch(instances) -> SpectralContext:
    return SpectralContext.from_arrays(
        np.stack([rho.matrix for rho, _ in instances]),
        np.stack([rho.eigenvalues for rho, _ in instances]),
        np.stack([rho.eigenvectors for rho, _ in instances]),
        np.stack([np.stack(X.observables) for _, X in instances]),
    )


def _same_sample(m, s, m1, s1):
    if math.isinf(m1):
        return m == m1 and abs(s - s1) <= 1e-12 * s1
    return abs(m - m1) <= 1e-12 * s1 and abs(s - s1) <= 1e-12 * s1


@pytest.mark.parametrize("seed", [20240501, 7, 99])
def test_grouped_margins_match_one_trial_at_a_time(seed):
    cfg = FuzzConfig(trials=200, seed=seed)       # the acceptance configuration
    fs = [resolve_monotone(label) for label in cfg.f_labels]
    groups = draw_groups(cfg, range(cfg.trials))
    assert max(len(g.trials) for g in groups) > 1
    seen = []
    for group in groups:
        rows = group_margins(group.ctx, cfg.relations, fs)
        for i, trial in enumerate(group.trials):
            rho, X = replay_trial(cfg, int(trial))
            assert np.array_equal(group.ctx.matrix[i], rho.matrix)
            assert all(np.array_equal(a[i], b) for a, b in zip(group.ctx.observables, X.observables))
            alone = trial_margins(rho, X, cfg.relations, fs)
            assert [row[:2] for row in rows] == [row[:2] for row in alone]
            for (rid, f_label, m, s), (_, _, m1, s1) in zip(rows, alone):
                assert _same_sample(m[i], s[i], m1, s1), (int(trial), rid, f_label, m[i], m1)
            seen.append(int(trial))
    assert sorted(seen) == list(range(cfg.trials))


def _scaled_pair():
    rng = np.random.default_rng(5)
    out = []
    for a in (1e4, 1e-4):
        rho, X = random_density(3, "full", rng), random_observables(3, 2, rng)
        out.append((rho, ObservableSet.from_matrices([a * M for M in X.observables])))
    return out


def test_mixed_scales_get_per_trial_verdicts():
    instances = _scaled_pair()
    fs = [resolve_monotone(label) for label in ("wy", "sld", "wyd:0.3")]
    rows = group_margins(_batch(instances), DEFAULT_GROUPS, fs)
    for i, (rho, X) in enumerate(instances):
        alone = trial_margins(rho, X, DEFAULT_GROUPS, fs)
        assert [row[:2] for row in rows] == [row[:2] for row in alone]
        for (rid, f_label, m, s), (_, _, m1, s1) in zip(rows, alone):
            assert _same_sample(m[i], s[i], m1, s1), (i, rid, f_label)
            assert _verdict(m[i], s[i], 1e-8) == _verdict(m1, s1, 1e-8), (i, rid, f_label)


def _corrupt_skew(ctx, i, shift):
    skew = ctx.skew.copy()
    skew[i, 0, 0] -= shift
    ctx.skew = skew


def _raises_mismatch(ctx) -> bool:
    try:
        ctx.refined
    except ConstructionMismatch:
        return True
    return False


def test_mixed_scales_get_per_trial_construction_checks():
    # a 1e-6 change of one skew entry is far outside the Gram check's tolerance
    # for the 1e-4-scaled trial and far inside it for the 1e4-scaled one
    instances = _scaled_pair()
    outcomes = []
    for i in range(2):
        alone = SpectralContext(*instances[i])
        _corrupt_skew(alone, 0, 1e-6)
        group = _batch(instances)
        _corrupt_skew(group, i, 1e-6)
        outcomes.append(_raises_mismatch(alone))
        assert _raises_mismatch(group) == outcomes[-1], i
    assert outcomes == [False, True]


def test_error_inside_group_names_trial(monkeypatch):
    cfg = FuzzConfig(dims=(3,), n_obs=(2,), trials=12, seed=3)
    groups = draw_groups(cfg, range(cfg.trials))
    assert len(groups) == 1 and len(groups[0].trials) == 12
    # a mixed state: its spectrum singles it out (pure states share (1, 0, 0))
    target = next(t for t in range(5, cfg.trials) if groups[0].ranks[t] == "full")
    lam = replay_trial(cfg, target)[0].eigenvalues
    real = skew_mod._eigenbasis_gram

    def corrupted(A, spectra, *block_cols):
        G = real(A, spectra, *block_cols)
        G[np.abs(spectra - lam).max(axis=1) <= 1e-14] *= 1.5
        return G

    monkeypatch.setattr(skew_mod, "_eigenbasis_gram", corrupted)
    with pytest.raises(ConstructionMismatch, match=rf"^trial {target} \(dim 3, n 2, rank full\): Gram"):
        run_fuzz(cfg)


def test_argmin_replays_through_reproducer(tmp_path):
    cfg = FuzzConfig(dims=(2, 3, 4), n_obs=(1, 2, 3), trials=60, seed=11, reproducer_dir=str(tmp_path))
    stats = run_fuzz(cfg)
    fs = [resolve_monotone(label) for label in cfg.f_labels]
    for rid, rel in stats.per_relation.items():
        worst = rel.argmin
        rho, X = replay_trial(cfg, worst["trial"])
        assert (rho.dim, X.n) == (worst["dim"], worst["n"]), rid
        margin, scale = next((m, s) for r, f, m, s in trial_margins(rho, X, cfg.relations, fs)
                             if r == rid and f == worst["f"])
        path = write_reproducer(cfg, rid, worst["f"], worst["trial"], margin, scale, rho, X)
        payload = load_json(path)
        rho_r, X_r = parse_state(payload["state"]), parse_observables(payload["observables"])
        m_r, s_r = next((m, s) for r, f, m, s in trial_margins(rho_r, X_r, cfg.relations, fs)
                        if r == rid and f == worst["f"])
        assert abs(m_r / s_r - rel.min_rel_margin) <= 1e-12, rid
        assert stats.to_dict()["per_relation"][rid]["argmin"] == worst


def test_record_keeps_nan_first_and_counts_non_finite():
    rel = RelationStats()
    cases = ["a", "b", "c", "d", "e"]
    bad = rel.record([0.5, -math.inf, math.nan, math.inf, math.nan], [1.0] * 5, 1e-8, cases.__getitem__)
    assert list(bad) == [False, True, True, False, True]
    assert rel.violations == 3 and rel.trials == 5
    assert math.isnan(rel.min_margin) and math.isnan(rel.min_rel_margin)
    assert rel.argmin == "c"                  # the first NaN
    assert rel.histogram[0] == 3 and rel.histogram[-1] == 1 and sum(rel.histogram) == 5
    rel.record([-1.0], [1.0], 1e-8, lambda i: "later")
    assert rel.argmin == "c" and math.isnan(rel.min_rel_margin)


def test_record_ties_go_to_the_earliest_sample():
    rel = RelationStats()
    rel.record([0.2, -0.1, -0.1], [1.0, 1.0, 1.0], 1e-8, lambda i: i)
    assert rel.argmin == 1
    rel.record([-0.1], [1.0], 1e-8, lambda i: "later")
    assert rel.argmin == 1 and rel.min_rel_margin == -0.1


def test_two_obs_relations_match_batched_report():
    rng = np.random.default_rng(5)
    instances = [(random_density(3, rank, rng), random_observables(3, 2, rng)) for rank in ("full", 1, "full")]
    batched = _batch(instances).two_obs
    for i, (rho, X) in enumerate(instances):
        alone = skew_mod.two_obs_relations(rho, *X.observables)
        picked = skew_mod.instance(batched, i)
        for field in ("delta_scalar", "A", "B", "U1", "U2"):
            assert getattr(alone, field) == getattr(picked, field)
        assert np.array_equal(alone.Lp, picked.Lp) and np.array_equal(alone.Lm, picked.Lm)
        assert alone.margins == picked.margins and alone.scales == picked.scales
        assert all(type(v) is float for v in alone.margins.values())
