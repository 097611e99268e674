"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np

from skewsharp.fuzz import FuzzConfig, random_density, run_fuzz
from skewsharp.gaussian import (
    exact_moments,
    fock_truncate_thermal,
    generator_from_covariance,
    moment_det_gap,
    nongaussianity,
    quadrature_observables,
    random_admissible_generator,
    single_mode_generator,
    to_quadrature,
)
from skewsharp.gcov import (
    alpha_inequality_check,
    check_metric_adjusted,
    eps_kernel,
    lambda_f,
    mean_kernel,
    g_covariance,
    resolve_monotone,
    wyd_function,
)
from skewsharp.linalg import DensityMatrix
from skewsharp.serialize import dumps
from skewsharp.skew import (
    ObservableSet,
    check_refined_rs,
    commutator_matrix,
    covariance_matrix,
    det_symmetric_psd,
    two_obs_relations,
    wy_skew_matrix,
)

from conftest import SX, SY, random_observables

Q = 0.25
BETA = math.log(1 / Q)


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid}: {detail}"


def q1():
    rho = DensityMatrix.from_matrix(np.diag([0.75, 0.25]).astype(complex))
    X = ObservableSet.from_matrices([SX, SY])
    return rho, X


def test_criterion_1_qubit_saturation():
    rho, X = q1()
    rep = check_refined_rs(rho, X)
    two = two_obs_relations(rho, X.observables[0], X.observables[1])
    prod = rep.dets["sigma_plus_c"] * rep.dets["sigma_minus_c"]
    checks = [
        abs(prod - 1 / 16) <= 1e-10,
        abs(rep.dets["delta"] ** 2 - 1 / 16) <= 1e-10,
        abs(rep.margins["eq3"]) <= 1e-10,
        abs(two.margins["eq9a"]) <= 1e-10,
        abs(two.margins["eq9b_1"]) <= 1e-10,
        abs(two.margins["eq9b_2"]) <= 1e-10,
        abs(two.margins["furuichi"]) <= 1e-10,
    ]
    best = math.inf
    for _ in range(50):
        t0 = time.perf_counter()
        check_refined_rs(rho, X)
        two_obs_relations(rho, X.observables[0], X.observables[1])
        best = min(best, time.perf_counter() - t0)
    checks.append(best < 1e-3)
    report("1", all(checks), f"|margin|<=1e-10 on all saturated relations, best runtime {best*1e3:.3f} ms")


def test_criterion_2_thermal_mode():
    t0 = time.perf_counter()
    H = single_mode_generator(omega=1.0, beta=BETA)
    exact = to_quadrature(exact_moments(H))
    dg_exact = moment_det_gap(exact)
    trunc = fock_truncate_thermal(H, cutoff=60)
    X = quadrature_observables(1, 60)
    sigma = covariance_matrix(trunc.rho, X)
    skew = wy_skew_matrix(trunc.rho, X)
    c = check_refined_rs(trunc.rho, X).classical
    dg_num = nongaussianity(trunc.rho, 1, 60)
    elapsed = time.perf_counter() - t0
    checks = [
        np.abs(sigma - np.diag([5 / 6, 5 / 6])).max() <= 1e-6,
        np.abs(skew - np.diag([1 / 6, 1 / 6])).max() <= 1e-6,
        np.abs(c - np.diag([2 / 3, 2 / 3])).max() <= 1e-6,
        abs(dg_exact) <= 1e-10,
        abs(dg_num) <= 1e-6,
        elapsed < 5.0,
    ]
    report("2", all(checks),
           f"sigma/skew/classical within 1e-6, dG_exact={dg_exact:.2e}, "
           f"dG_fock={dg_num:.2e}, {elapsed:.2f}s")


def test_criterion_3_fock_one():
    values = []
    for cutoff in (20, 32):
        rho = np.zeros((cutoff, cutoff), dtype=complex)
        rho[1, 1] = 1.0
        values.append(nongaussianity(DensityMatrix.from_matrix(rho), 1, cutoff))
    ok = all(abs(v - 5.0) <= 1e-8 for v in values)
    report("3", ok, f"delta_G = {values[0]:.12f} at cutoff 20")


def test_criterion_4_lambda_table():
    rows = []
    ok = True
    res = None
    for label in ("sld", "wyd:0.1", "wyd:0.2", "wyd:0.3", "wyd:0.4", "wyd:0.5", "wy"):
        f = resolve_monotone(label)
        t0 = time.perf_counter()
        res = lambda_f(f)
        dt = time.perf_counter() - t0
        ok &= dt < 1.0
        ok &= res.lower_bound - 1e-9 <= res.lam <= res.upper_bound + 1e-9
        if label == "sld":
            ok &= abs(res.lam - 0.5) <= 1e-9
        else:
            ok &= abs(res.lam - 1.0) <= 1e-6
        rows.append(f"{label}={res.lam:.9f}")
    report("4", ok, ", ".join(rows))


def test_criterion_5_fuzz_gate():
    t0 = time.perf_counter()
    cfg = FuzzConfig(dims=(2, 3, 4, 5, 6), n_obs=(1, 2, 3, 4), ranks=("full", 1),
                     trials=10_000, seed=20240501,
                     f_labels=("wy", "sld", "wyd:0.3"), tol=1e-8)
    stats = run_fuzz(cfg)
    elapsed = time.perf_counter() - t0
    probe = FuzzConfig(dims=(2, 3, 4, 5, 6), n_obs=(1, 2, 3, 4), ranks=("full", 1),
                       trials=200, seed=20240501,
                       f_labels=("wy", "sld", "wyd:0.3"), tol=1e-8)
    deterministic = dumps(run_fuzz(probe).to_dict()) == dumps(run_fuzz(probe).to_dict())
    expected = {"rs", "eq3", "eq4a", "eq4b", "eq7-psd", "eq8-schur", "eq9a", "eq9b",
                "eq10", "furuichi", "eq16", "eq17", "eq18", "eq19", "wy-strongest"}
    covered = expected <= set(stats.per_relation)
    ok = (stats.total_violations == 0 and stats.total_trials == 10_000
          and covered and deterministic and elapsed < 600)
    worst = min(rel.min_rel_margin for rel in stats.per_relation.values())
    report("5", ok,
           f"10^4 trials, 0 violations, worst relative margin {worst:.2e}, "
           f"{elapsed:.0f}s, deterministic={deterministic}")


def test_criterion_6_pure_states():
    worst_c = 0.0
    worst_gap = 0.0
    for trial in range(1000):
        rng = np.random.default_rng([606, trial])
        dim = int(rng.integers(2, 7))
        n = int(rng.integers(1, 5))
        rho = random_density(dim, 1, rng)
        X = random_observables(rng, dim, n)
        rep = check_refined_rs(rho, X)
        worst_c = max(worst_c, float(np.abs(rep.classical).max()))
        gap = abs(rep.delta_G - (rep.dets["sigma"] ** 2 - rep.dets["delta"] ** 2))
        worst_gap = max(worst_gap, gap / rep.scales["eq3"])
    ok = worst_c <= 1e-8 and worst_gap <= 1e-8
    report("6", ok, f"max|c| = {worst_c:.2e}, max refined-vs-RS^2 gap = {worst_gap:.2e}")


def test_criterion_7_concavity():
    worst = math.inf
    for trial in range(1000):
        rng = np.random.default_rng([707, trial])
        dim = int(rng.integers(2, 7))
        n = int(rng.integers(1, min(5, dim * dim)))
        t = float(rng.choice([0.25, 0.5, 0.75]))
        r1 = random_density(dim, "full", rng)
        r2 = random_density(dim, "full", rng)
        X = random_observables(rng, dim, n)
        mix = DensityMatrix.from_matrix(t * r1.matrix + (1 - t) * r2.matrix)

        def croot(rho):
            c = check_refined_rs(rho, X).classical
            return max(det_symmetric_psd(c), 0.0) ** (1 / n)

        slack = croot(mix) - t * croot(r1) - (1 - t) * croot(r2)
        worst = min(worst, slack)
    report("7", worst >= -1e-9, f"min concavity slack = {worst:.2e} over 10^3 triples")


def test_criterion_8_gaussian_exact_suite():
    worst_gap = 0.0
    worst_rt = 0.0
    for trial in range(100):
        rng = np.random.default_rng([808, trial])
        n_modes = int(rng.integers(1, 4))
        radius = float(rng.uniform(0.3, 3.0))
        H = random_admissible_generator(n_modes, rng, spectral_radius=radius)
        m = exact_moments(H)
        worst_gap = max(worst_gap, abs(moment_det_gap(m)))
        H2 = generator_from_covariance(m.C, n_modes)
        C2 = exact_moments(H2).C
        worst_rt = max(worst_rt, float(np.abs(C2 - m.C).max() / max(1.0, np.abs(m.C).max())))
    ok = worst_gap <= 1e-10 and worst_rt <= 1e-6
    report("8", ok, f"max |det gap| = {worst_gap:.2e}, max round-trip dev = {worst_rt:.2e}")


def test_criterion_9_reduction_identities():
    worst = 0.0
    wy = resolve_monotone("wy")
    for trial in range(100):
        rng = np.random.default_rng([909, trial])
        dim = int(rng.integers(2, 7))
        n = int(rng.integers(1, 5))
        rho = random_density(dim, "full", rng)
        X = random_observables(rng, dim, n)
        dev_cov = np.abs(g_covariance(rho, X, mean_kernel()) - covariance_matrix(rho, X)).max()
        dev_del = np.abs(g_covariance(rho, X, eps_kernel())
                         - np.imag(commutator_matrix(rho, X))).max()
        dev_skew = np.abs(g_covariance(rho, X, wy.skew_kernel) - wy_skew_matrix(rho, X)).max()
        worst = max(worst, float(dev_cov), float(dev_del), float(dev_skew))
    worst_coincide = 0.0
    for trial in range(100):
        rng = np.random.default_rng([910, trial])
        dim = int(rng.integers(2, 7))
        n = int(rng.integers(1, 5))
        rho = random_density(dim, "full", rng)
        X = random_observables(rng, dim, n)
        rep = check_refined_rs(rho, X)
        mar = check_metric_adjusted(rho, X, wyd_function(0.5))
        dev18 = abs(2**n * mar.margin18 - rep.margins["eq3"]) / rep.scales["eq3"]
        dev19 = abs(mar.margin19 - rep.margins["eq3"]) / rep.scales["eq3"]
        worst_coincide = max(worst_coincide, dev18, dev19)
    ok = worst <= 1e-10 and worst_coincide <= 1e-8
    report("9", ok, f"max reduction dev = {worst:.2e}, max eq18/eq19-vs-eq3 dev = {worst_coincide:.2e}")


def test_criterion_10_alpha_inequality():
    grid = np.logspace(-6, 6, 10_000)
    results = {a: alpha_inequality_check(a, grid, tol=1e-12) for a in (0.1, 0.25, 0.4, 0.5)}
    report("10", all(results.values()),
           f"|x^a - x^(1-a)| <= (1-2a)|1-x| on 10^4-point grid for a in {sorted(results)}")
