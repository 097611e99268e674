import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewsharp.fuzz import random_density
import skewsharp.gcov as gcov
from skewsharp.gcov import (
    BivariateKernel,
    KernelContractViolation,
    KernelDomainError,
    PreconditionViolation,
    UnknownLabel,
    alpha_inequality_check,
    big_F,
    build_Lg,
    check_g_triple,
    check_metric_adjusted,
    eps_kernel,
    f_skew_matrix,
    f_star,
    g_covariance,
    lambda_f,
    lowner_matrix,
    mean_kernel,
    product_kernels,
    quotient_kernel,
    resolve_monotone,
    sld_function,
    wy_strongest_check,
    wyd_function,
)
from skewsharp.linalg import DensityMatrix
from skewsharp.skew import (
    ObservableSet,
    commutator_matrix,
    covariance_matrix,
    wy_skew_matrix,
)

from conftest import random_observables


# -------------------------------------------------------------- reductions

def test_gcov_reduces_to_covariance(q1_state, q1_obs):
    got = g_covariance(q1_state, q1_obs, mean_kernel())
    want = covariance_matrix(q1_state, q1_obs)
    assert np.abs(got - want).max() <= 1e-12


def test_gcov_reduces_to_commutator(q1_state, q1_obs):
    got = g_covariance(q1_state, q1_obs, eps_kernel())
    want = np.imag(commutator_matrix(q1_state, q1_obs))
    assert np.abs(got - want).max() <= 1e-12


def test_gcov_reduces_to_wy_skew(q1_state, q1_obs):
    got = g_covariance(q1_state, q1_obs, wyd_function(0.5).skew_kernel)
    expect = (1 - math.sqrt(3) / 2) * np.eye(2)
    assert np.abs(got - expect).max() <= 1e-12
    assert np.abs(got - wy_skew_matrix(q1_state, q1_obs)).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 6), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_reductions_random(dim, n, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(dim, "full", rng)
    X = random_observables(rng, dim, n)
    assert np.abs(g_covariance(rho, X, mean_kernel()) - covariance_matrix(rho, X)).max() <= 1e-10
    assert np.abs(g_covariance(rho, X, eps_kernel())
                  - np.imag(commutator_matrix(rho, X))).max() <= 1e-10
    assert np.abs(g_covariance(rho, X, wyd_function(0.5).skew_kernel)
                  - wy_skew_matrix(rho, X)).max() <= 1e-10


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(2, 5), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_gcov_linear_and_psd(dim, n, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(dim, "full", rng)
    X = random_observables(rng, dim, n)
    g1, g2 = mean_kernel(), BivariateKernel("xy", lambda x, y: x * y, nonnegative=True, symmetric=True)
    s1 = g_covariance(rho, X, g1)
    s2 = g_covariance(rho, X, g2)
    comb = BivariateKernel("comb", lambda x, y: 2.5 * (x + y) / 2 + x * y)
    assert np.abs(g_covariance(rho, X, comb) - (2.5 * s1 + s2)).max() <= 1e-10 * max(1.0, np.abs(s1).max())
    # nonnegative kernels give PSD matrices; pointwise-dominated kernels give ordered ones
    for s in (s1, s2):
        assert np.linalg.eigvalsh((s + s.conj().T) / 2)[0] >= -1e-9 * max(1.0, np.abs(s).max())
    assert np.linalg.eigvalsh(((s1 - s2) + (s1 - s2).conj().T) / 2)[0] >= -1e-9 * max(
        1.0, np.abs(s1).max()
    )  # (x+y)/2 >= xy on [0,1]^2, the span of state spectra


# ------------------------------------------------------------ f functions

def test_wy_closed_form():
    f = wyd_function(0.5)
    x = np.linspace(0.0, 9.0, 50)
    assert np.abs(f(x) - (1 + np.sqrt(x)) ** 2 / 4).max() <= 1e-12


def test_wyd_values_match_direct_formula():
    for alpha in (0.1, 0.25, 0.3, 0.4):
        f = wyd_function(alpha)
        x = np.array([0.2, 0.5, 2.0, 7.3])
        direct = alpha * (1 - alpha) * (1 - x) ** 2 / ((1 - x**alpha) * (1 - x ** (1 - alpha)))
        assert np.abs(f(x) - direct).max() <= 1e-12
        assert np.isclose(float(f(np.array([1.0]))[0]), 1.0)


def test_wyd_alpha_domain():
    with pytest.raises(UnknownLabel):
        wyd_function(0.7)
    with pytest.raises(UnknownLabel):
        wyd_function(0.0)


def test_resolve_labels():
    assert resolve_monotone("wy").label == "wy"
    assert resolve_monotone("wyd:0.3").f0 == pytest.approx(0.21)
    assert resolve_monotone("sld").f0 == 0.5
    with pytest.raises(UnknownLabel):
        resolve_monotone("qfi")


# f proportional to 0.05(1 + x) + (1 - e^-x) + x(1 - e^(-1/x)): normalized, symmetric, concave
# and within the bounds, but not operator monotone
PLANTED_NORM = 0.1 + 2 * (1 - math.exp(-1))


def planted(x):
    x = np.asarray(x, dtype=float)
    tail = np.where(x == 0, 0.0, -x * np.expm1(-1 / np.where(x == 0, 1.0, x)))
    return (0.05 * (1 + x) - np.expm1(-x) + tail) / PLANTED_NORM


def lowner_reading(f):
    w = np.linalg.eigvalsh(lowner_matrix(f))
    return w[0] / w[-1]


def test_lowner_check_refuses_the_planted_function(monkeypatch):
    f0 = 0.05 / PLANTED_NORM
    assert lowner_reading(planted) == pytest.approx(-2.0e-2, abs=1e-3)
    with pytest.raises(PreconditionViolation, match="not operator monotone, its Löwner matrix"):
        gcov.MonotoneFunction("planted", f0, planted)
    monkeypatch.setattr(gcov, "LOWNER_TOL", math.inf)   # every other check passes it
    gcov.MonotoneFunction("planted", f0, planted)


@pytest.mark.parametrize("label", ["wy", "sld", "wyd:0.3", "wyd:0.1", "wyd:0.01"])
def test_lowner_check_passes_the_catalog(label):
    # operator monotone: a PSD Löwner matrix, read to rounding and the central difference on its diagonal
    assert lowner_reading(resolve_monotone(label)) >= -1.1e-9


def test_f_star_closed_forms():
    x = np.concatenate(([0.0], np.logspace(-4, 4, 41)))
    scale = np.maximum(1.0, x)
    fs_wy = f_star(wyd_function(0.5))
    assert (np.abs(fs_wy(x) - (1 - np.sqrt(x)) ** 2 / 2) / scale).max() <= 1e-12
    fs_sld = f_star(sld_function())
    assert (np.abs(fs_sld(x) - (1 - x) ** 2 / (2 * (1 + x))) / scale).max() <= 1e-12
    for f in (wyd_function(0.5), sld_function(), wyd_function(0.3)):
        fs = f_star(f)
        assert abs(fs(np.array([1.0]))[0]) <= 1e-15
        xg = np.logspace(-5, 5, 41)
        assert np.abs(xg * fs(1 / xg) - fs(xg)).max() <= 1e-10 * np.maximum(1, fs(xg)).max()


def test_m_star_kernel_limits():
    k = sld_function().skew_kernel
    x = np.array([0.3, 1.2, 0.0])
    assert np.abs(k(x, x)).max() <= 1e-15
    got = k(np.array([0.4]), np.array([0.0]))[0]
    assert np.isclose(got.real, 0.2)  # m_*(x, 0) = x/2 for every f
    xy = np.array([[0.3, 0.8]])
    direct = (0.3 - 0.8) ** 2 / (2 * (0.3 + 0.8))
    assert np.isclose(k(np.array([0.3]), np.array([0.8]))[0].real, direct)


# ------------------------------------------------------- f-skew information

def test_f_skew_wy_matches_skew_matrix(q1_state, q1_obs):
    got = f_skew_matrix(q1_state, q1_obs, wyd_function(0.5))
    assert np.abs(got - wy_skew_matrix(q1_state, q1_obs)).max() <= 1e-12


def test_f_skew_sld_q1(q1_state, q1_obs):
    got = f_skew_matrix(q1_state, q1_obs, sld_function())
    # 2x2 spectral sum: (l1-l2)^2/(l1+l2) = 1/4 per diagonal
    assert np.abs(got - np.diag([0.25, 0.25])).max() <= 1e-12


def test_f_skew_commuting_observable_vanishes():
    rho = DensityMatrix.from_matrix(np.diag([1.0, 0.0]).astype(complex))
    X = ObservableSet.from_matrices([np.diag([1.0, -1.0]).astype(complex)])
    for f in (wyd_function(0.5), sld_function(), wyd_function(0.3)):
        assert np.abs(f_skew_matrix(rho, X, f)).max() <= 1e-14


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(2, 5), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       label=st.sampled_from(("wy", "sld", "wyd:0.3")))
def test_f_skew_equals_gcov_of_mstar(dim, n, seed, label):
    rng = np.random.default_rng(seed)
    rho = random_density(dim, max(1, dim - 1), rng)
    X = random_observables(rng, dim, n)
    f = resolve_monotone(label)
    direct = f_skew_matrix(rho, X, f)
    via_gcov = g_covariance(rho, X, f.skew_kernel)
    assert np.abs(direct - via_gcov).max() <= 1e-10 * max(1.0, np.abs(direct).max())


# ----------------------------------------------------------------- lambda

def test_lambda_sld():
    res = lambda_f(sld_function())
    assert abs(res.lam - 0.5) <= 1e-9
    assert res.lower_bound == pytest.approx(0.5)
    assert res.upper_bound == pytest.approx(0.5)
    assert res.conjecture_match


def test_lambda_wy():
    res = lambda_f(wyd_function(0.5))
    assert abs(res.lam - 1.0) <= 1e-9  # F is identically 1 for this f
    assert res.conjecture_match


def test_lambda_wyd_03():
    res = lambda_f(wyd_function(0.3))
    assert abs(res.lam - 1.0) <= 1e-6
    assert res.upper_bound == 1.0
    assert res.lower_bound == pytest.approx(1 - 0.21)


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.02, 0.5))
def test_lambda_bounds_hold(alpha):
    f = wyd_function(alpha)
    res = lambda_f(f)
    assert res.lower_bound - 1e-9 <= res.lam <= res.upper_bound + 1e-9


def test_bigF_symmetry():
    x = np.logspace(-6, 6, 301)
    for label in ("wy", "sld", "wyd:0.3", "wyd:0.17"):
        f = resolve_monotone(label)
        Fx = big_F(f, x)
        Finv = big_F(f, 1 / x)
        assert np.abs(Fx - Finv).max() <= 1e-10 * max(1.0, Fx.max())


# ------------------------------------------------------------ inequalities

def test_build_Lg_duplicate_kernel(q1_state, q1_obs):
    g = mean_kernel()
    L = build_Lg(q1_state, q1_obs, g, g)
    S = g_covariance(q1_state, q1_obs, BivariateKernel("m2", lambda x, y: ((x + y) / 2) ** 2))
    assert np.abs(L[:2, :2] - S).max() <= 1e-12
    assert np.abs(L[:2, 2:] - S).max() <= 1e-12
    assert np.linalg.eigvalsh(L)[0] >= -1e-10


def test_build_Lg_wy_pair_saturates(q1_state, q1_obs):
    f = wyd_function(0.5)
    g1 = BivariateKernel("sqrt_m", lambda x, y: np.sqrt(np.maximum(f.mean_kernel.fn(x, y).real, 0.0)),
                         nonnegative=True, symmetric=True)
    g2 = quotient_kernel(eps_kernel(), g1)
    L = build_Lg(q1_state, q1_obs, g1, g2)
    w = np.linalg.eigvalsh(L)
    assert w[0] >= -1e-9
    assert abs(w[0]) <= 1e-9  # saturating fixture keeps the zero mode


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(2, 5), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_build_Lg_psd_random(dim, n, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(dim, "full", rng)
    X = random_observables(rng, dim, n)
    L = build_Lg(rho, X, mean_kernel(), eps_kernel())
    assert np.linalg.eigvalsh(L)[0] >= -1e-9 * max(1.0, np.abs(L).max())


def test_quotient_kernel_domain_error():
    # 1/(x - y) blows up on the diagonal: rejected already at construction
    num = BivariateKernel("one", lambda x, y: np.ones_like(x * y))
    den = BivariateKernel("diff", lambda x, y: x - y)
    with pytest.raises(KernelDomainError):
        quotient_kernel(num, den)


def test_g_triple_q1(q1_state, q1_obs):
    margin = check_g_triple(q1_state, q1_obs, mean_kernel(), mean_kernel(), eps_kernel())
    assert abs(margin - 15 / 16) <= 1e-12  # |sigma|^2 - |delta|^2 = 1 - 1/16


def test_g_triple_zero_kernel(q1_state, q1_obs):
    zero = BivariateKernel("zero", lambda x, y: np.zeros_like(x * y))
    margin = check_g_triple(q1_state, q1_obs, mean_kernel(), mean_kernel(), zero)
    assert margin >= 0.0
    assert abs(margin - 1.0) <= 1e-12  # |sigma|^2 for the fixture


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(2, 5), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_g_triple_modified_commutator(dim, n, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(dim, "full", rng)
    X = random_observables(rng, dim, n)
    # a = sqrt(x), b = x: g+ g- = (x+y)(sqrt x + sqrt y)^2 (sqrt x - sqrt y)^2 >= 8 xy >= g0^2 at mu=2
    gp, gm, g0 = product_kernels(np.sqrt, lambda x: x, mu=2.0)
    margin = check_g_triple(rho, X, gp, gm, g0)
    assert margin >= -1e-8 * max(1.0, abs(margin))


def test_g_triple_contract_violation(q1_state, q1_obs):
    big = BivariateKernel("big", lambda x, y: 10 * np.ones_like(x * y))
    small = BivariateKernel("tiny", lambda x, y: 1e-3 * np.ones_like(x * y),
                            nonnegative=True, symmetric=True)
    with pytest.raises(KernelContractViolation):
        check_g_triple(q1_state, q1_obs, small, small, big)


def test_metric_adjusted_sld_q1(q1_state, q1_obs):
    rep = check_metric_adjusted(q1_state, q1_obs, sld_function())
    assert abs(rep.margin18) <= 1e-10            # 1 * 1/16 = [2*(1/2)]^2 * 1/16
    assert abs(rep.margin19 - 33 / 256) <= 1e-10  # 49/256 - 16/256
    assert rep.lam == pytest.approx(0.5, abs=1e-9)


def test_metric_adjusted_wy_reduces_to_refined(q1_state, q1_obs):
    rep = check_metric_adjusted(q1_state, q1_obs, wyd_function(0.5))
    assert abs(rep.margin19) <= 1e-10  # saturating fixture
    n = q1_obs.n
    assert abs(2**n * rep.margin18) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(2, 5), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       label=st.sampled_from(("wy", "sld", "wyd:0.3")))
def test_metric_adjusted_margins_hold(dim, n, seed, label):
    rng = np.random.default_rng(seed)
    rho = random_density(dim, "full", rng)
    X = random_observables(rng, dim, n)
    rep = check_metric_adjusted(rho, X, resolve_monotone(label))
    assert rep.margin18 >= -1e-8 * rep.scale18
    assert rep.margin19 >= -1e-8 * rep.scale19


@settings(max_examples=25, deadline=None)
@given(dim=st.integers(2, 5), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       label=st.sampled_from(("wy", "sld", "wyd:0.3")))
def test_observation1_monotonicity(dim, n, seed, label):
    # 2 sigma - I^f - 2 lambda_f cov(m_f) is PSD: kernel dominance made matrix-level
    rng = np.random.default_rng(seed)
    rho = random_density(dim, "full", rng)
    X = random_observables(rng, dim, n)
    f = resolve_monotone(label)
    lam = f.lam
    sigma = covariance_matrix(rho, X)
    If = f_skew_matrix(rho, X, f)
    cov_mf = g_covariance(rho, X, f.mean_kernel).real
    M = 2 * sigma - If - 2 * lam * cov_mf
    assert np.linalg.eigvalsh((M + M.T) / 2)[0] >= -1e-9 * max(1.0, np.abs(sigma).max())


def test_wy_strongest_q1(q1_state, q1_obs):
    assert abs(wy_strongest_check(q1_state, q1_obs, sld_function()) - 33 / 256) <= 1e-10
    assert abs(wy_strongest_check(q1_state, q1_obs, wyd_function(0.5))) <= 1e-12


def test_wy_strongest_rejects_wyd03(q1_state, q1_obs):
    with pytest.raises(PreconditionViolation):
        wy_strongest_check(q1_state, q1_obs, wyd_function(0.3))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_wy_strongest_random(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(4, "full", rng)
    X = random_observables(rng, 4, 2)
    assert wy_strongest_check(rho, X, sld_function()) >= -1e-8


# ------------------------------------------------------------- alpha bound

def test_alpha_inequality():
    grid = np.logspace(-6, 6, 2001)
    assert alpha_inequality_check(0.5, grid)
    assert alpha_inequality_check(0.3, grid)
    assert alpha_inequality_check(0.3, np.array([1.0]))
    with pytest.raises(PreconditionViolation):
        alpha_inequality_check(0.6, grid)
