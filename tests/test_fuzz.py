import dataclasses
import hashlib
import json
import math
import os
import pathlib

import numpy as np
import pytest

from skewsharp.fuzz import (
    DEFAULT_GROUPS,
    RELATIONS,
    ConfigError,
    FuzzConfig,
    draw_groups,
    group_margins,
    random_density,
    random_observables,
    replay_trial,
    run_fuzz,
    trial_margins,
)
from skewsharp.cli import main
from skewsharp.gcov import build_Lg, eps_kernel, mean_kernel, resolve_monotone
from skewsharp.serialize import dumps, matrix_to_pairs
from skewsharp.skew import ObservableSet, SpectralContext, check_refined_rs

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
    assert FuzzConfig(seed=np.int64(3), ranks=(np.int64(2),)).to_dict()["seed"] == 3


@pytest.mark.parametrize("field, value", [("seed", -1), ("seed", 1.5), ("seed", True), ("seed", "7"),
                                          ("ranks", (True,)), ("ranks", ("full", False))])
def test_config_refuses_bad_seed_and_bool_ranks(field, value):
    # NumPy would take True as 1 and fail a negative seed with a ValueError naming no field
    with pytest.raises(ConfigError, match=f"^{field}"):
        FuzzConfig(**{field: value})


@pytest.mark.parametrize("field, value", [("dims", (2.5,)), ("dims", (2, 3.0)), ("n_obs", (1.0,)),
                                          ("n_obs", (True,)), ("trials", 2.5), ("trials", True)])
def test_config_refuses_non_integer_sizes(field, value):
    # run_fuzz would fail a float size with a bare TypeError from NumPy, and run True as 1 trial
    with pytest.raises(ConfigError, match=f"^{field}"):
        FuzzConfig(**{field: value})
    config = FuzzConfig(dims=(np.int64(3),), n_obs=(np.int64(2),), trials=np.int64(5))
    assert config.combos == [(3, 2)]


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_config_rejects_out_of_range_tolerance(tol):
    with pytest.raises(ConfigError, match="violation tolerance must be finite and >= 0"):
        FuzzConfig(tol=tol)


def test_missing_reproducer_dir_fails_before_any_trial(tmp_path, monkeypatch, capsys):
    import skewsharp.fuzz as fz
    from skewsharp.cli import main

    missing, a_file = tmp_path / "missing", tmp_path / "file"
    a_file.write_text("")
    for path in (missing, a_file):
        with pytest.raises(ConfigError, match="is not an existing directory"):
            FuzzConfig(reproducer_dir=str(path))
    FuzzConfig(reproducer_dir=str(tmp_path))

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(fz, "draw_groups", no_trial)
    assert main(["fuzz", "--trials", "20", "--tol", "0", "--reproducer-dir", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: reproducer_dir {str(missing)!r} is not an existing directory\n"


def test_unknown_group_message():
    with pytest.raises(ConfigError) as err:
        FuzzConfig(relations=("rs", "nope"))
    assert str(err.value) == ("unknown relation groups ['nope']; valid: ['eq18', 'eq19', 'g-psd', "
                              "'refined', 'rs', 'two-obs', 'weak-chain', 'wy-strongest']")


def test_relation_table_order_and_groups():
    assert [r.rid for r in RELATIONS] == ["rs", "eq3", "eq4a", "eq4b", "eq7-psd", "eq8-schur", "eq9a", "eq9b",
                                          "eq10", "furuichi", "eq16", "eq17", "eq18", "eq19", "wy-strongest"]
    assert DEFAULT_GROUPS == ("rs", "refined", "weak-chain", "two-obs", "g-psd", "eq18", "eq19", "wy-strongest")
    # each group first appears at its place in DEFAULT_GROUPS
    assert DEFAULT_GROUPS == tuple(dict.fromkeys(r.group for r in RELATIONS))
    assert FuzzConfig().relations == DEFAULT_GROUPS


def test_every_group_shares_one_check_option():
    options = {}
    for r in RELATIONS:
        assert options.setdefault(r.group, r.check) == r.check, r.rid
    assert set(options.values()) == {None, "--two-obs", "--f"}
    # the options only add relations: every relation sampled per f needs --f
    assert all(r.check == "--f" for r in RELATIONS if r.per_f)


def test_reproducers_of_one_trial_in_table_order(tmp_path, monkeypatch):
    # alphabetical order would be eq4a, eq7-psd, rs; group order rs, eq7-psd, eq4a
    import dataclasses

    import skewsharp.fuzz as fz

    def failing(r):
        def evaluate(ctx, f):
            margins, scales = r.evaluate(ctx, f)
            return -np.ones_like(margins), scales
        return dataclasses.replace(r, evaluate=evaluate)

    forced = {"eq7-psd", "rs", "eq4a"}
    monkeypatch.setattr(fz, "RELATIONS", tuple(failing(r) if r.rid in forced else r for r in RELATIONS))
    cfg = FuzzConfig(dims=(3,), n_obs=(2,), trials=2, seed=3, relations=("weak-chain", "refined", "rs"),
                     reproducer_dir=str(tmp_path))
    stats = fz.run_fuzz(cfg)
    assert stats.total_violations == 6
    names = [p.rsplit("/", 1)[-1] for p in stats.reproducers]
    assert names == [f"violation_{rid}_{t}.json" for t in (0, 1) for rid in ("rs", "eq4a", "eq7-psd")]
    assert [json.loads((tmp_path / n).read_text())["relation"] for n in names[:3]] == ["rs", "eq4a", "eq7-psd"]


def test_forced_reproducers_are_distinct_files(tmp_path, monkeypatch):
    # per-f relations violated under several f labels on one trial once shared one path
    import skewsharp.fuzz as fz

    def shifted(r):
        def evaluate(ctx, f):
            sample = r.evaluate(ctx, f)
            return None if sample is None else (sample[0] - 0.4 * sample[1], sample[1])
        return dataclasses.replace(r, evaluate=evaluate)

    monkeypatch.setattr(fz, "RELATIONS", tuple(shifted(r) for r in RELATIONS))
    stats = fz.run_fuzz(FuzzConfig(trials=40, seed=77, reproducer_dir=str(tmp_path)))
    paths = stats.reproducers
    assert len(paths) == stats.total_violations == 341
    assert len(set(paths)) == len(paths)
    assert all(os.path.isfile(p) for p in paths)
    docs = [json.loads(pathlib.Path(p).read_text()) for p in paths]
    for p, doc in zip(paths, docs):
        tag = doc["relation"] if doc["f"] is None else f"{doc['relation']}_{doc['f']}"
        assert os.path.basename(p) == f"violation_{tag}_{doc['trial']}.json"
    assert any(doc["f"] == "wyd:0.3" for doc in docs)


# chunk seeds of the benchmark's fuzz gate that each read one eq8-schur margin
# below -1e-8 of its scale on a pure state when sigma - c was pseudo-inverted at 1e-9
GATE_SEEDS = (2215948119, 3144317113, 4131391086, 580175844, 3166480445)


@pytest.mark.parametrize("seed", GATE_SEEDS)
def test_gate_chunk_has_no_violation(seed):
    config = FuzzConfig(dims=(2, 3, 4, 5, 6), n_obs=(1, 2, 3, 4), ranks=("full", 1), trials=50,
                        seed=seed, relations=DEFAULT_GROUPS, f_labels=("wy", "sld", "wyd:0.3"))
    stats = run_fuzz(config)
    assert stats.total_trials == 50
    assert stats.total_violations == 0


@pytest.mark.parametrize("seed, trial", [(682627131, 45), (3359296794, 46), (1943606882, 14)])
def test_eq8_schur_pure_state_trials_saturate(seed, trial):
    # d = 3, n = 4, pure: eq3 and eq7-psd read about 1e-16 here, eq8-schur once -1.1e-8 to -2.8e-8
    rep = check_refined_rs(*replay_trial(FuzzConfig(trials=50, seed=seed), trial))
    assert abs(rep.margins["eq8-schur"]) <= 1e-12 * rep.scales["eq8-schur"]


def test_eq4a_root_of_a_zero_determinant():
    # d = 2, n = 3, pure: det sigma = det I = 0 exactly, computed as -2.7e-17 and 9.3e-16,
    # whose 1/n-th root once gave eq4a = -9.5e-11
    rep = check_refined_rs(*replay_trial(FuzzConfig(seed=20240501), 5822))
    assert abs(rep.margins["eq4a"]) <= 1e-12 * rep.scales["eq4a"]


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


# sha256 of every margin and scale but eq16's (float64 bits, in table and group order) on
# FuzzConfig(trials=200, seed=1729); a BLAS or LAPACK build that rounds differently changes it
PINNED_DIGEST = "50f7ff48866c0a23bc4a43785dbb2af13667573ac4d45555fdabade4e36fdfce"


def test_pinned_margins_and_eq16_against_the_generic_gram():
    config = FuzzConfig(trials=200, seed=1729)
    fs = [resolve_monotone(label) for label in config.f_labels]
    digest, drawn = hashlib.sha256(), set()
    for group in draw_groups(config, range(config.trials)):
        drawn.update((group.dim, rank) for rank in group.ranks)
        for rid, f_label, margins, scales in group_margins(group.ctx, config.relations, fs):
            if rid == "eq16":
                # eq16 reads L^g from the shared pairings; build_Lg pairs the Gram kernels anew
                L = build_Lg.ctx(group.ctx, *resolve_monotone(f_label).gram_kernels)
                assert np.all(np.abs(margins - np.linalg.eigvalsh(L)[:, 0]) <= 1e-13 * scales), f_label
                continue
            digest.update(f"{rid}|{f_label}|".encode())
            digest.update(np.asarray(margins, dtype=float).tobytes())
            digest.update(np.asarray(scales, dtype=float).tobytes())
    assert drawn == {(d, rank) for d in range(2, 7) for rank in ("full", 1)}
    assert digest.hexdigest() == PINNED_DIGEST


@pytest.fixture
def spied(monkeypatch):
    """Per context: [pairings, first-time kernel evaluations]."""
    counts = {}
    pair, weights = SpectralContext.pair, SpectralContext.weights

    def counted_pair(ctx, W):
        counts.setdefault(ctx, [0, 0])[0] += 1
        return pair(ctx, W)

    def counted_weights(ctx, g):
        if ("weights", g) not in ctx.memo:
            counts.setdefault(ctx, [0, 0])[1] += 1
        return weights(ctx, g)

    monkeypatch.setattr(SpectralContext, "pair", counted_pair)
    monkeypatch.setattr(SpectralContext, "weights", counted_weights)
    return counts


def test_each_kernel_is_paired_once_per_context(spied, tmp_path):
    # P, skew, cov(eps), and per f cov(m_f) and the f-skew pairing; kernels eps and m_f. The mean
    # kernel is sld's m_f, so eq17 and sld share its evaluation and its pairing
    fs = [resolve_monotone(label) for label in ("wy", "sld", "wyd:0.3")]
    assert mean_kernel() is resolve_monotone("sld").mean_kernel
    group = draw_groups(FuzzConfig(trials=20, seed=5), range(20))[0]
    group_margins(group.ctx, DEFAULT_GROUPS, fs)
    assert spied.pop(group.ctx) == [9, 4] and not spied

    rng = np.random.default_rng(3)
    rho, X = random_density(4, "full", rng), random_observables(4, 3, rng)
    (tmp_path / "state.json").write_text(dumps({"dim": 4, "matrix": matrix_to_pairs(rho.matrix)}))
    (tmp_path / "obs.json").write_text(dumps({"dim": 4, "observables": [matrix_to_pairs(M)
                                                                        for M in X.observables]}))
    assert main(["check", str(tmp_path / "state.json"), str(tmp_path / "obs.json"), "--f", "wyd:0.3"]) == 0
    [(ctx, counts)] = spied.items()
    f = resolve_monotone("wyd:0.3")
    paired = {key for key in ctx.memo if key[0] in ("cov", "f-skew")}
    assert paired == {("cov", mean_kernel()), ("cov", eps_kernel()), ("cov", f.mean_kernel), ("f-skew", f)}
    assert counts == [6, 3]   # the four above, P and skew; kernels mean, eps and m_f


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
    # force a fake violation by replacing one margin inside the group evaluator:
    # a negative margin, and the non-finite ones that must never pass
    import skewsharp.fuzz as fz

    real = fz.group_margins
    for bad in (-1.0, math.nan, -math.inf):
        def broken(ctx, groups, fs):
            rows = real(ctx, groups, fs)
            return [(rid, fl, np.full_like(m, bad), sc) if rid == "rs" else (rid, fl, m, sc)
                    for rid, fl, m, sc in rows]

        monkeypatch.setattr(fz, "group_margins", broken)
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


def test_run_fuzz_counts_a_nan_wy_strongest_margin(monkeypatch):
    # a NaN margin is a violation; wy against itself stays skipped, so only sld is counted
    import skewsharp.fuzz as fz

    monkeypatch.setattr(fz.wy_strongest_check, "ctx", lambda ctx, f: np.full(ctx.size, math.nan))
    cfg = FuzzConfig(dims=(2, 3), n_obs=(2,), trials=5, seed=17, relations=("two-obs", "wy-strongest"),
                     f_labels=("wy", "sld"))
    stats = run_fuzz(cfg)
    wy = stats.per_relation["wy-strongest"]
    assert (wy.trials, wy.violations) == (5, 5)
    assert math.isnan(wy.min_margin) and wy.argmin["f"] == "sld"
    assert stats.total_violations == 5
