import json
import math

import numpy as np
import pytest

from skewsharp.fuzz import (
    ConfigError,
    FuzzConfig,
    random_density,
    random_observables,
    run_fuzz,
    strength_study,
    trial_margins,
)
from skewsharp.gcov import resolve_monotone
from skewsharp.serialize import dumps
from skewsharp.skew import ObservableSet

from conftest import SX


def test_random_density_rank_and_validity():
    rng = np.random.default_rng(7)
    rho = random_density(5, "full", rng)
    assert rho.rank() == 5
    pure = random_density(5, 1, np.random.default_rng(7))
    assert pure.rank() == 1
    assert abs(np.trace(pure.matrix).real - 1) <= 1e-12


def test_random_density_deterministic():
    a = random_density(3, "full", np.random.default_rng([42, 0]))
    b = random_density(3, "full", np.random.default_rng([42, 0]))
    assert np.array_equal(a.matrix, b.matrix)


def test_random_observables_hermitian():
    X = random_observables(4, 3, np.random.default_rng(3))
    assert X.n == 3 and X.dim == 4
    for M in X.observables:
        assert np.abs(M - M.conj().T).max() <= 1e-14


def test_config_validation():
    with pytest.raises(ConfigError):
        FuzzConfig(trials=0)
    with pytest.raises(ConfigError):
        FuzzConfig(dims=(9,))
    with pytest.raises(ConfigError):
        FuzzConfig(relations=("nope",))
    with pytest.raises(ConfigError):
        FuzzConfig(ranks=("half",))


def test_small_fuzz_no_violations(tmp_path):
    cfg = FuzzConfig(dims=(2, 3, 4), n_obs=(1, 2, 3), trials=60, seed=11,
                     reproducer_dir=str(tmp_path))
    stats = run_fuzz(cfg)
    assert stats.total_trials == 60
    assert stats.total_violations == 0
    assert not list(tmp_path.iterdir())
    for rid in ("rs", "eq3", "eq4a", "eq4b", "eq7-psd", "eq8-schur", "eq17", "eq18", "eq19"):
        assert rid in stats.per_relation, rid
        assert stats.per_relation[rid].violations == 0
    # two-obs relations appear for the n = 2 draws
    assert stats.per_relation["eq9a"].trials > 0
    assert stats.per_relation["eq16"].trials > 0
    assert stats.per_relation["wy-strongest"].trials > 0


def test_fuzz_deterministic():
    cfg = FuzzConfig(dims=(2, 3), n_obs=(1, 2), trials=25, seed=99,
                     relations=("rs", "refined", "two-obs"))
    s1, s2 = run_fuzz(cfg), run_fuzz(cfg)
    assert dumps(s1.to_dict()) == dumps(s2.to_dict())


def test_trial_margins_odd_count_zero_quantum_part(q1_state):
    # a single observable: the commutator determinant vanishes, rs margin = |sigma|
    X = ObservableSet.from_matrices([SX])
    fs = [resolve_monotone("wy")]
    rows = dict()
    for rid, flabel, margin, scale in trial_margins(q1_state, X, ("rs", "refined"), fs):
        rows[rid] = margin
    assert rows["rs"] == pytest.approx(1.0)  # var(sx) = 1, det delta = 0
    assert rows["eq3"] >= -1e-10


def test_pure_rank_one_draws_saturate_chain():
    cfg = FuzzConfig(dims=(3,), n_obs=(2,), ranks=(1,), trials=20, seed=5,
                     relations=("rs", "refined", "weak-chain"))
    stats = run_fuzz(cfg)
    assert stats.total_violations == 0
    # pure states: classical part vanishes so eq4b is a tight 0 within noise
    assert abs(stats.per_relation["eq4b"].min_margin) <= 1e-7


def test_reproducer_written_on_forced_violation(tmp_path, monkeypatch):
    # force a fake violation by replacing one margin inside trial_margins:
    # a negative margin, and the non-finite ones that must never pass
    import skewsharp.fuzz as fz

    real = fz.trial_margins
    for bad in (-1.0, math.nan, -math.inf):
        def broken(rho, X, groups, fs):
            rows = real(rho, X, groups, fs)
            return [(rid, fl, bad, sc) if rid == "rs" else (rid, fl, m, sc)
                    for rid, fl, m, sc in rows]

        monkeypatch.setattr(fz, "trial_margins", broken)
        out = tmp_path / repr(bad)
        out.mkdir()
        cfg = FuzzConfig(dims=(2,), n_obs=(2,), trials=3, seed=1,
                         relations=("rs",), reproducer_dir=str(out))
        stats = fz.run_fuzz(cfg)
        assert stats.total_violations == 3, bad
        rs = stats.per_relation["rs"]
        assert rs.violations == 3 and rs.histogram[0] == 3, bad
        assert repr(rs.min_margin) == repr(bad)  # a NaN is kept, not dropped
        files = sorted(out.iterdir())
        assert len(files) == 3
        payload = json.loads(files[0].read_text())
        assert payload["relation"] == "rs"
        assert payload["state"]["dim"] == 2
        assert len(payload["observables"]["observables"]) == 2


def test_strength_study_orderings(q1_state, q1_obs):
    cfg = FuzzConfig(dims=(2, 3, 4), n_obs=(2,), trials=40, seed=17,
                     f_labels=("wy", "sld"))
    study = strength_study(cfg, fixed_instances=[(q1_state, q1_obs)])
    assert study.summary["ordering_violations"] == {"eq9a_vs_eq3": 0, "wy_strongest": 0}
    assert study.summary["eq9a_dominates_fraction"] == 1.0
    q1_row = study.rows[0]
    assert abs(q1_row["margin_eq9a"]) <= 1e-10
    assert abs(q1_row["margin_furuichi"]) <= 1e-10
    assert abs(q1_row["B"] - 1 / 16) <= 1e-12
    # saturating fixture: every bound coincides with B
    assert abs(q1_row["bound_eq9a"] - q1_row["B"]) <= 1e-10
    assert abs(q1_row["bound_eq3"] - q1_row["B"]) <= 1e-10


def test_strength_study_requires_two_observables():
    with pytest.raises(ConfigError):
        strength_study(FuzzConfig(n_obs=(1, 2)))
