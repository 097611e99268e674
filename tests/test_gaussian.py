import copy
import dataclasses
import functools
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from skewsharp.gaussian import (
    AlreadyQuadrature,
    CutoffTooSmall,
    InvalidGenerator,
    LogBranchFailure,
    NonSymplectic,
    SingularM,
    UnsupportedModeCount,
    block_swap,
    exact_moments,
    fock_truncate_thermal,
    generator_from_covariance,
    moment_det_gap,
    nongaussianity,
    quadrature_observables,
    quadrature_transform,
    random_admissible_generator,
    saturation_check,
    single_mode_generator,
    symplectic_form,
    to_quadrature,
    two_mode_generator,
    validate_quadratic,
)
from skewsharp import gaussian, gcov, linalg, skew
from skewsharp.fuzz import random_density, random_observables as fuzz_observables
from skewsharp.skew import ConstructionMismatch, ObservableSet, SpectralContext, check_refined_rs
from skewsharp.linalg import DensityMatrix, InvalidState, NonHermitianInput

from conftest import random_unitary

Q = 0.25                      # e^(-beta omega) for the thermal fixture
BETA = math.log(1 / Q)        # omega = 1


def thermal_fixture():
    return single_mode_generator(omega=1.0, beta=BETA)


def destroy(cutoff):
    """The dense truncated annihilator a on one mode, <n-1|a|n> = sqrt(n) for n < cutoff: the
    tests' own reference for the index-built Fock operators."""
    return np.diag(np.sqrt(np.arange(1, cutoff)), 1).astype(complex)


def _parity_rows(n_modes, cutoff):
    """The indices of even and of odd total photon number, from the basis record's parity."""
    parity = gaussian.fock_basis(n_modes, cutoff).parity
    return [np.flatnonzero(parity == p) for p in (0, 1)]


# -------------------------------------------------------------- generators

def test_symplectic_form_identities():
    J = symplectic_form(2)
    assert np.abs(J @ J + np.eye(4)).max() == 0
    assert np.abs(J.T + J).max() == 0


def test_single_mode_generator_drift():
    H = single_mode_generator(omega=2.0, beta=1.0)
    assert np.abs(H.N - np.diag([2.0, -2.0])).max() <= 1e-15


def test_validate_rejects_nonsymmetric():
    with pytest.raises(InvalidGenerator, match="symmetric"):
        validate_quadratic(np.array([[0, 1.0], [2.0, 0]]), 1)


def test_validate_rejects_bad_reality():
    # S12 block must be Hermitian: i*omega violates Pi conj(S) Pi = S
    with pytest.raises(InvalidGenerator, match="Hermiticity"):
        validate_quadratic(np.array([[0, 1j], [1j, 0]]), 1)


def test_near_admissible_generator_gives_exactly_hermitian_triples():
    # an S 1e-11 off both constraints is accepted and stored projected onto them, so the
    # truncated H, which takes no Hermitian part of its own, is exactly Hermitian
    rng = np.random.default_rng(11)
    S = random_admissible_generator(2, rng).S
    noisy = S + 1e-11 * (rng.standard_normal(S.shape) + 1j * rng.standard_normal(S.shape))
    assert np.abs(noisy - noisy.T).max() > 1e-12
    H = validate_quadratic(noisy, 2)
    Pi = block_swap(2)
    assert np.array_equal(H.S, H.S.T) and np.array_equal(Pi @ H.S.conj() @ Pi, H.S)
    assert np.abs(H.S - S).max() <= 2e-11
    rows, cols, vals = gaussian._fock_hamiltonian(H, 10)
    M = _densify((rows, cols, vals), 100)
    assert np.array_equal(M, M.conj().T)
    assert np.array_equal(np.flatnonzero(M), np.flatnonzero(M.T))     # every entry has its mirror
    assert rows.size > 100 and np.all(vals[rows == cols].imag == 0)
    assert np.array_equal(validate_quadratic(S, 2).S, S)     # an exactly admissible S is kept as it is


@pytest.mark.parametrize("make, message", [
    (lambda: single_mode_generator(float("nan")), "S has non-finite entries"),
    (lambda: single_mode_generator(1.0, xi=complex("inf")), "S has non-finite entries"),
    (lambda: two_mode_generator(1.0, 1.0, coupling=float("inf")), "S has non-finite entries"),
    (lambda: single_mode_generator(1.0, beta=float("inf")), "beta must be positive and finite, got inf"),
    (lambda: validate_quadratic(np.eye(2), 1, beta=float("nan")), "beta must be positive and finite, got nan"),
])
def test_validate_rejects_non_finite_generators(make, message):
    with pytest.raises(InvalidGenerator) as err:
        make()
    assert str(err.value) == message


def test_two_mode_constructor_valid():
    H = two_mode_generator(1.0, 1.5, coupling=0.3, beta=0.7)
    assert H.S.shape == (4, 4)
    Pi = block_swap(2)
    assert np.abs(Pi @ H.S.conj() @ Pi - H.S).max() <= 1e-12


# ------------------------------------------------------------ exact moments

def test_thermal_correlations_geometric_series():
    m = exact_moments(thermal_fixture())
    nbar = Q / (1 - Q)           # geometric-series occupation
    assert abs(m.C[0, 1] - nbar) <= 1e-12          # <a^dag a>
    assert abs(m.C[1, 0] - (nbar + 1)) <= 1e-12    # <a a^dag>
    assert np.abs(m.C.T - m.C - symplectic_form(1)).max() <= 1e-12


def test_thermal_quadrature_closed_forms():
    mq = to_quadrature(exact_moments(thermal_fixture()))
    assert np.abs(mq.sigma - np.diag([5 / 6, 5 / 6])).max() <= 1e-12
    assert np.abs(mq.c - np.diag([2 / 3, 2 / 3])).max() <= 1e-12
    assert np.abs(mq.delta - np.array([[0, -0.5], [0.5, 0]])).max() <= 1e-12


def test_vacuum_limit():
    mq = to_quadrature(exact_moments(single_mode_generator(omega=1.0, beta=60.0)))
    assert np.abs(mq.sigma - 0.5 * np.eye(2)).max() <= 1e-12
    assert np.abs(mq.c).max() <= 1e-12


def test_extreme_beta_stable():
    mq = to_quadrature(exact_moments(single_mode_generator(omega=1.0, beta=1e9)))
    assert np.abs(mq.sigma - 0.5 * np.eye(2)).max() <= 1e-12
    assert np.abs(mq.c).max() <= 1e-12
    assert abs(moment_det_gap(mq)) <= 1e-12


def test_u_is_unitary():
    u = quadrature_transform(3)
    assert np.abs(u.conj().T @ u - np.eye(6)).max() <= 1e-15


def test_to_quadrature_rejects_double_transform():
    mq = to_quadrature(exact_moments(thermal_fixture()))
    with pytest.raises(AlreadyQuadrature):
        to_quadrature(mq)


def test_saturation_identity_exact():
    m = exact_moments(thermal_fixture())
    assert abs(moment_det_gap(m)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(n_modes=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       radius=st.floats(0.3, 3.0))
def test_saturation_identity_random_generators(n_modes, seed, radius):
    rng = np.random.default_rng(seed)
    H = random_admissible_generator(n_modes, rng, spectral_radius=radius)
    m = exact_moments(H)
    assert abs(moment_det_gap(m)) <= 1e-10
    mq = to_quadrature(m)
    assert abs(moment_det_gap(mq)) <= 1e-9          # congruence, |det u| = 1
    assert abs(moment_det_gap(mq) - moment_det_gap(m)) <= 1e-9


@pytest.mark.parametrize("radius", [20, 25, 29])
def test_exact_moments_on_random_generators_at_large_radius(radius):
    # an expm of -beta N with entries up to e^29 once failed 31, 66 and 71 of these draws
    for s in range(200):
        H = random_admissible_generator(1 + s % 2, np.random.default_rng(s), spectral_radius=radius)
        m = exact_moments(H)
        C, J = m.C, symplectic_form(H.n_modes)
        M = scipy.linalg.expm(-H.beta * H.N)
        scale = max(1.0, np.abs(C).max())
        assert np.abs(C.T - C - J).max() <= 1e-8 * scale, s
        assert np.abs(C.T - C @ M).max() <= 1e-8 * scale * np.abs(M).max(), s
        assert abs(moment_det_gap(to_quadrature(m))) <= 1e-10, s


@pytest.mark.parametrize("H, sigma, c", [
    (single_mode_generator(1.0, beta=1.3863), 0.8333308271761722, 0.6666635339675656),
    (two_mode_generator(1.0, 1.0, beta=1.0), 1.0819767068693262, 0.9595173756674718),
])
def test_benchmark_generator_moments_unchanged(H, sigma, c):
    # the quadrature moments of the two thermal benchmark workloads, as the expm route gave them
    mq = to_quadrature(exact_moments(H))
    eye = np.eye(2 * H.n_modes)
    assert np.abs(mq.sigma - sigma * eye).max() <= 1e-15 * sigma
    assert np.abs(mq.c - c * eye).max() <= 1e-15 * c


def test_cond_m_is_the_eigenvalue_ratio_of_m_minus_i():
    # squeezed mode: N has eigenvalues +-nu, nu = sqrt(omega^2 - |xi|^2), and M - I is not normal
    nu = math.sqrt(1 - 0.5**2)
    m = exact_moments(single_mode_generator(1.0, xi=0.5, beta=1.0))
    assert abs(m.cond_M - math.expm1(nu) / -math.expm1(-nu)) <= 1e-12 * m.cond_M
    assert abs(exact_moments(thermal_fixture()).cond_M - 4.0) <= 1e-12


@pytest.mark.parametrize("omega, beta", [(1e-11, 1.0), (1e-12, 1.0), (1e-300, 1.0), (1.0, 1e-15)])
def test_small_beta_omega_moments_match_the_closed_form(omega, beta):
    # sigma = coth(y/2)/2 I and c = I / (2 sinh(y/2)) at y = beta omega, exact for every y != 0;
    # the 1e-8 nudge this once fell back to read sigma_xx = 8.38e7 at omega = 1e-11 and 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mq = to_quadrature(exact_moments(single_mode_generator(omega, beta=beta)))
    sigma, c = 0.5 / math.tanh(beta * omega / 2), 0.5 / math.sinh(beta * omega / 2)
    assert np.abs(mq.sigma - sigma * np.eye(2)).max() <= 1e-12 * sigma
    assert np.abs(mq.c - c * np.eye(2)).max() <= 1e-12 * c


@pytest.mark.parametrize("omega", [0.0, 1e-310])
def test_zero_beta_omega_raises_singular_m_without_a_warning(omega):
    # omega = 0 has no thermal state, and at 1e-310 1/expm1(-y) overflows: no moments are made up
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularM, match="M - I singular to double precision"):
            exact_moments(single_mode_generator(omega))


# --------------------------------------------------------------- Fock space

def test_destroy_matrix_elements():
    a = destroy(4)
    assert np.abs(a - np.diag([1.0, math.sqrt(2), math.sqrt(3)], 1)).max() <= 1e-15
    # the basis record's link table of a^dag (o = 0) and a (o = 1) holds the same nonzeros
    rows, cols, level = gaussian.fock_basis(1, 4).links
    assert np.array_equal(np.flatnonzero(a), rows[0] * 4 + cols[0])
    assert np.array_equal(a[rows[0], cols[0]], np.sqrt(level[0] + 1)) and np.array_equal(rows[1], cols[0])


def test_thermal_truncation_is_geometric():
    out = fock_truncate_thermal(thermal_fixture(), cutoff=60)
    diag = np.real(np.diag(out.rho.matrix))
    expect = (1 - Q) * Q ** np.arange(60)
    assert np.abs(diag - expect).max() <= 1e-12
    assert np.abs(out.rho.matrix - np.diag(diag)).max() <= 1e-12
    assert out.tail_mass < 1e-30


def test_truncation_tail_report():
    out = fock_truncate_thermal(thermal_fixture(), cutoff=8)
    assert np.isclose(out.tail_mass, Q**8 / (1 - Q), rtol=1e-12)
    assert abs(np.trace(out.rho.matrix).real - 1.0) <= 1e-12


@pytest.mark.parametrize("H", [single_mode_generator(-1.0), single_mode_generator(0.0),
                               single_mode_generator(1.0, xi=1.5), two_mode_generator(1.0, -1.0)],
                         ids=["negative-mode", "zero-mode", "oversqueezed", "one-negative-of-two"])
def test_tail_mass_is_one_without_a_thermal_state(H):
    # the positive eigenvalues of N cannot tell a negative normal mode from a positive one
    assert gaussian.bogoliubov_floor(H) <= 0
    assert gaussian.thermal_tail_mass(H, 8) == 1.0
    assert fock_truncate_thermal(H, 8).tail_mass == 1.0


def test_bogoliubov_floor_of_a_thermal_generator():
    assert gaussian.bogoliubov_floor(single_mode_generator(1.0, xi=0.3)) == pytest.approx(0.7, rel=1e-14)
    assert gaussian.thermal_tail_mass(thermal_fixture(), 8) < 1.0


def test_zero_temperature_truncation():
    out = fock_truncate_thermal(single_mode_generator(omega=1.0, beta=200.0), cutoff=12)
    expect = np.zeros((12, 12))
    expect[0, 0] = 1.0
    assert np.abs(out.rho.matrix - expect).max() <= 1e-12


def test_truncation_guards():
    with pytest.raises(CutoffTooSmall):
        fock_truncate_thermal(thermal_fixture(), cutoff=4)
    with pytest.raises(UnsupportedModeCount):
        fock_truncate_thermal(
            validate_quadratic(np.zeros((6, 6)), 3, beta=1.0), cutoff=10
        )


def test_quadrature_observable_moments():
    X = quadrature_observables(1, cutoff=2)
    assert np.abs(X.observables[0] - np.array([[0, 1], [1, 0]]) / math.sqrt(2)).max() <= 1e-15
    for cutoff in (2, 3, 8):
        x = quadrature_observables(1, cutoff).observables[0]
        assert np.isclose((x @ x)[0, 0].real, 0.5)      # <0|x^2|0> = 1/2
    x = quadrature_observables(1, 3).observables[0]
    assert np.isclose((x @ x)[1, 1].real, 1.5)          # <1|x^2|1> = 3/2


def test_truncated_commutator_interior():
    X = quadrature_observables(1, cutoff=10)
    x, p = X.observables
    comm = x @ p - p @ x
    assert np.abs(comm[:9, :9] - 1j * np.eye(9)).max() <= 1e-12  # defect only at the corner


# ------------------------------------------------------------- saturation

def test_saturation_thermal_mode():
    rep = saturation_check(thermal_fixture(), cutoff=60)
    assert abs(rep.delta_G_exact) <= 1e-10
    assert abs(rep.delta_G_numeric) <= 1e-6
    assert rep.tail_mass < 1e-12


def test_saturation_vacuum():
    rep = saturation_check(single_mode_generator(omega=1.0, beta=80.0), cutoff=16)
    assert abs(rep.delta_G_exact) <= 1e-10
    assert abs(rep.delta_G_numeric) <= 1e-8


def test_saturation_squeezed_thermal():
    H = single_mode_generator(omega=1.0, xi=0.3, beta=BETA)
    rep = saturation_check(H, cutoff=60)
    assert abs(rep.delta_G_exact) <= 1e-10
    assert abs(rep.delta_G_numeric) <= 1e-6


def test_saturation_top_fock_level_energy():
    # beta = 1, cutoff 30: the top level carries weight ~1e-13 only if its
    # energy is the full omega * cutoff (a a^dag summed as a^dag a + 1)
    rep = saturation_check(single_mode_generator(omega=1.0, beta=1.0), cutoff=30)
    assert abs(rep.delta_G_numeric) <= 1e-10
    assert np.abs(rep.refined.sigma - rep.moments.sigma).max() <= 1e-9
    assert np.abs(rep.refined.classical - rep.moments.c).max() <= 1e-9


def test_truncation_convergence_monotone():
    gaps = [abs(saturation_check(thermal_fixture(), cutoff=c).delta_G_numeric)
            for c in (16, 24, 32, 48, 60)]
    floor = 1e-12
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + floor


# ---------------------------------------------------------- nongaussianity

def test_fock_one_nongaussianity():
    cutoff = 20
    rho = np.zeros((cutoff, cutoff), dtype=complex)
    rho[1, 1] = 1.0
    dg = nongaussianity(DensityMatrix.from_matrix(rho), 1, cutoff)
    assert abs(dg - 5.0) <= 1e-8            # (9/4)^2 - 1/16


def test_thermal_nongaussianity_vanishes():
    out = fock_truncate_thermal(thermal_fixture(), cutoff=60)
    assert abs(nongaussianity(out.rho, 1, 60)) <= 1e-6


def test_vacuum_nongaussianity_vanishes():
    cutoff = 16
    rho = np.zeros((cutoff, cutoff), dtype=complex)
    rho[0, 0] = 1.0
    assert abs(nongaussianity(DensityMatrix.from_matrix(rho), 1, cutoff)) <= 1e-10


# ------------------------------------------------- per-parity state route

def _fock_cat(n, cutoff):
    """(|0> + |1>)/sqrt(2) on the first mode: a state that breaks photon-number parity."""
    psi = np.zeros(cutoff**n, dtype=complex)
    psi[0] = psi[cutoff ** (n - 1)] = 1 / math.sqrt(2)
    return np.outer(psi, psi.conj())


PARITY_STATES = [pytest.param(kind, n, cutoff, id=f"{kind}-{n}m-cutoff{cutoff}")
                 for kind in ("fock-diagonal", "parity-block", "parity-breaking")
                 for n, cutoff in ((1, 10), (2, 5))]


def _parity_state(kind, n, cutoff):
    rng = np.random.default_rng(cutoff)
    if kind == "parity-breaking":
        return _fock_cat(n, cutoff)
    return _parity_state_matrix(n, cutoff, rng, diagonal=kind == "fock-diagonal")


@pytest.mark.parametrize("kind, n, cutoff", PARITY_STATES)
def test_per_parity_state_matches_dense_eigh(kind, n, cutoff):
    M = _parity_state(kind, n, cutoff)
    a, b = gaussian.fock_density(M, n, cutoff), DensityMatrix.from_matrix(M)
    assert np.array_equal(a.matrix, b.matrix) and b.parts is None
    assert (a.parts is None) == (kind == "parity-breaking")
    assert np.abs(a.eigenvalues - b.eigenvalues).max() <= 1e-14
    dg_a, dg_b = nongaussianity(a, n, cutoff), nongaussianity(b, n, cutoff)
    assert abs(dg_a - dg_b) <= 1e-12 * max(1.0, abs(dg_b))


def test_per_parity_route_needs_exactly_zero_cross_entries():
    M = _parity_state("parity-block", 1, 10)
    assert gaussian.fock_density(M, 1, 10).parts is not None
    M[0, 1] = M[1, 0] = 1e-300                  # |0> and |1> differ in parity
    rho = gaussian.fock_density(M, 1, 10)
    assert rho.parts is None
    assert np.array_equal(rho.eigenvectors, DensityMatrix.from_matrix(M).eigenvectors)


def _error(build, M):
    with pytest.raises(Exception) as info:
        build(M)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("n, cutoff", [(1, 10), (2, 5)])
def test_per_parity_route_raises_the_dense_route_errors(n, cutoff):
    M = _parity_state("parity-block", n, cutoff)
    bad_trace, non_hermitian, not_psd = 1.01 * M, M.copy(), M.copy()
    non_hermitian[0, 2] += 1e-3                 # both even: inside one parity block
    not_psd[0, 0] -= 0.5
    not_psd[2, 2] += 0.5
    for bad, kind, text in ((bad_trace, InvalidState, "trace"), (non_hermitian, NonHermitianInput, "non-Hermitian"),
                            (not_psd, InvalidState, "positive semidefinite")):
        expected = _error(DensityMatrix.from_matrix, bad)
        assert expected[0] is kind and text in expected[1]
        assert _error(lambda m: gaussian.fock_density(m, n, cutoff), bad) == expected


def _low_photon_state(n, cutoff, seed):
    """A parity-keeping state that is not diagonal: a random state on the Fock states of fewer
    than 6 photons of each parity, and 0 elsewhere."""
    rng = np.random.default_rng(seed)
    photons = np.ravel(functools.reduce(np.add.outer, [np.arange(cutoff)] * n))
    M = np.zeros((cutoff**n,) * 2, dtype=complex)
    for p in (0, 1):
        r = np.flatnonzero((photons < 6) & (photons % 2 == p))
        G = rng.standard_normal((r.size, r.size)) + 1j * rng.standard_normal((r.size, r.size))
        M[np.ix_(r, r)] = G @ G.conj().T
    return M / np.trace(M).real


def _reference_partition_route(A, parity):
    """The partition route on the dense Hermitian part, as ``np.nonzero`` finds its nonzeros:
    the parts of its pattern when it is exactly 0 across parities, else the dense state."""
    dense = DensityMatrix.from_matrix(A)
    rows, cols = np.nonzero(dense.matrix)
    if np.any(parity[rows] != parity[cols]):
        return dense
    return DensityMatrix._from_parts(linalg.part_eigensystems(rows, cols, dense.matrix[rows, cols], len(A)),
                                     dense.matrix)


def _plant(case, A, j):
    """Plant one input on a low-photon state A.  Indices 0 and 2 are even, 1 is odd, and j is an even
    index outside the state's support; 0 and 2 are linked in A, 0 and 1 and 0 and j are not."""
    A = A.copy()
    if case == "nan-in-part":
        A[0, 2] = np.nan
    elif case == "inf-in-part":
        A[2, 0] = complex(0.0, np.inf)
    elif case == "nan-across":
        A[1, 0] = complex(np.nan, 0.0)
    elif case == "inf-across":
        A[0, 1] = -np.inf
    elif case == "one-sided-in-part-linked-above":
        A[2, 0] = 0.0
    elif case.startswith("one-sided"):       # A[r, c] != 0 and A[c, r] == 0
        r, c = (0, 1) if "across" in case else (0, j)
        A[r, c] = 5e-11 if case.endswith("below") else 5e-10
    elif case == "anti-hermitian-across":    # the Hermitian part is exactly 0 there
        A[0, 1] = 2e-11 + 1e-11j
        A[1, 0] = -np.conj(A[0, 1])
    elif case == "negative-zero":
        A[0, 1] = A[1, 0] = A[j, 0] = complex(-0.0, -0.0)
        A[j, j] = A[2, j] = -0.0
    elif case == "trace-off-2e-9":
        A[0, 0] += 2e-9
    elif case == "not-psd":
        A[0, 0] -= 0.5
        A[j, j] += 0.5
    return A


# each plant and the outcome it is named for: the error class, or the route of the state
PLANTED = {
    "nan-in-part": "SkewsharpError", "inf-in-part": "SkewsharpError", "nan-across": "SkewsharpError",
    "inf-across": "SkewsharpError", "one-sided-across-below": "dense",
    "one-sided-across-above": "NonHermitianInput", "one-sided-in-part-below": "parts",
    "one-sided-in-part-above": "NonHermitianInput",
    "one-sided-in-part-linked-above": "NonHermitianInput", "anti-hermitian-across": "parts",
    "negative-zero": "parts", "trace-off-2e-9": "InvalidState", "not-psd": "InvalidState"}


@pytest.mark.parametrize("n, cutoff", [(2, 4), (2, 30)], ids=["d16", "d900"])
def test_partition_route_checks_on_the_nonzeros_match_the_dense_checks(n, cutoff):
    parity = gaussian.fock_basis(n, cutoff).parity
    base = _low_photon_state(n, cutoff, 24)
    j = int(np.flatnonzero(np.all(base == 0, axis=0) & (parity == 0))[0])
    outcomes = {}
    for case in PLANTED:
        A = _plant(case, base, j)
        try:
            oracle = DensityMatrix.from_matrix(A)     # the dense checks, no partition
        except Exception as exc:
            outcomes[case] = type(exc).__name__
            assert _error(lambda m: gaussian.fock_density(m, n, cutoff), A) == (type(exc), str(exc)), case
            continue
        rho, ref = gaussian.fock_density(A, n, cutoff), _reference_partition_route(A, parity)
        outcomes[case] = "dense" if rho.parts is None else "parts"
        hermitian = (A + A.conj().T) / 2
        rows, cols = np.nonzero(hermitian)
        assert np.array_equal(rho.matrix, hermitian), case
        assert (rho.parts is None) == bool(np.any(parity[rows] != parity[cols])), case
        assert np.array_equal(rho.eigenvalues, ref.eigenvalues), case
        assert np.abs(rho.eigenvalues - oracle.eigenvalues).max() <= 1e-14, case
    assert outcomes == PLANTED


def test_fock_density_memory_at_d900():
    # bound: the 12.4 MiB this call reads on the benchmark's Fock-diagonal state, almost all of it the
    # state's d x d matrix (the checked Hermitian part), plus 1.6 MiB; the dense checks read 24.9 MiB
    weights = np.zeros(900)
    weights[:16] = np.random.default_rng(900).uniform(0.2, 1.0, 16)
    M = np.diag(weights / weights.sum()).astype(complex)
    tracemalloc.start()
    try:
        rho = gaussian.fock_density(M, 2, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert rho.parts is not None


def test_nongaussianity_dim_guard():
    rho = np.eye(10, dtype=complex) / 10
    from skewsharp.linalg import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        nongaussianity(DensityMatrix.from_matrix(rho), 1, 20)


# ---------------------------------------------------------------- converse

def test_generator_roundtrip_thermal():
    H = single_mode_generator(omega=1.0, beta=1.0)   # beta = 1 so N is recoverable
    C = exact_moments(H).C
    H2 = generator_from_covariance(C, 1)
    C2 = exact_moments(H2).C
    assert np.abs(C2 - C).max() <= 1e-6
    assert np.abs(H2.N - np.diag([1.0, -1.0])).max() <= 1e-8


@settings(max_examples=25, deadline=None)
@given(n_modes=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_generator_roundtrip_random(n_modes, seed):
    rng = np.random.default_rng(seed)
    H = random_admissible_generator(n_modes, rng, spectral_radius=2.0)
    C = exact_moments(H).C
    H2 = generator_from_covariance(C, n_modes)
    C2 = exact_moments(H2).C
    assert np.abs(C2 - C).max() <= 1e-6 * max(1.0, np.abs(C).max())


def test_generator_rejects_nonsymplectic_input():
    C = np.eye(2, dtype=complex)    # C^T - C = 0 != J
    with pytest.raises(NonSymplectic):
        generator_from_covariance(C, 1)


def test_converse_near_vacuum_is_reported():
    # vacuum-limit C: M' = C^(-1) C^T has an eigenvalue ~ e^(+beta), log is fine,
    # but the vacuum C itself is singular -> reported, not repaired
    C = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises((NonSymplectic, LogBranchFailure)):
        generator_from_covariance(C, 1)


def _kronecker_hamiltonian(H, cutoff):
    """The truncated H summed from Kronecker products of cutoff-size factors, in normal order:
    each term Lambda_i Lambda_j (i <= j) with a mode hit by both ladder operators taking their product."""
    n = H.n_modes
    a = destroy(cutoff)
    local = [a.conj().T] * n + [a] * n      # Lambda_i on its own mode
    eye = np.eye(cutoff, dtype=complex)
    Hmat = np.zeros((cutoff**n, cutoff**n), dtype=complex)
    for i in range(2 * n):
        for j in range(i, 2 * n):
            s = 0.5 * (H.S[i, j] + H.S[j, i]) if i < j else 0.5 * H.S[i, i]
            if s == 0:
                continue
            factors = [eye] * n
            for k in (i, j):
                factors[k % n] = factors[k % n] @ local[k]
            Hmat += s * functools.reduce(np.kron, factors)
    return (Hmat + Hmat.conj().T) / 2


def _densify(triples, d):
    rows, cols, vals = triples
    M = np.zeros((d, d), dtype=complex)
    M[rows, cols] = vals
    return M


def _dense_hamiltonian(H, cutoff):
    """The index-built H of ``fock_truncate_thermal`` as a dense matrix."""
    return _densify(gaussian._fock_hamiltonian(H, cutoff), cutoff**H.n_modes)


def _dense_thermal(H, cutoff):
    """Thermal rho with H summed from dense products of product-space ladder matrices."""
    n = H.n_modes
    a, eye = destroy(cutoff), np.eye(cutoff)
    ops = []
    for k in range(n):
        factors = [eye] * n
        factors[k] = a
        op = factors[0]
        for f in factors[1:]:
            op = np.kron(op, f)
        ops.append(op)
    ladder = [op.conj().T for op in ops] + ops
    Hmat = sum(0.5 * H.S[i, j] * (ladder[min(i, j)] @ ladder[max(i, j)])
               for i in range(2 * n) for j in range(2 * n))
    w, V = np.linalg.eigh((Hmat + Hmat.conj().T) / 2)
    rho = (V * np.exp(-H.beta * (w - w.min()))) @ V.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("H, cutoff", [
    (single_mode_generator(0.9, xi=0.3, beta=1.2), 20),
    (two_mode_generator(1.0, 1.4, coupling=0.3, xi=0.2 + 0.1j, beta=0.9), 10),
    (two_mode_generator(1.0, 1.0, coupling=0.0, beta=1.0), 9),
])
def test_kronecker_hamiltonian_matches_dense_build(H, cutoff):
    rho = fock_truncate_thermal(H, cutoff).rho.matrix
    assert np.abs(rho - _dense_thermal(H, cutoff)).max() <= 1e-12


def test_refined_check_extra_memory_at_d900():
    # 2 modes, cutoff 30: the eigenbasis stack (n, d, d) holds 4 * 900^2 complex entries
    rho = fock_truncate_thermal(two_mode_generator(1.0, 1.3, coupling=0.2, xi=0.1), 30).rho
    X = quadrature_observables(2, 30)
    stack_bytes = X.n * rho.dim**2 * 16
    tracemalloc.start()
    try:
        check_refined_rs(rho, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * stack_bytes, f"extra peak {peak / 2**20:.0f} MiB"


def test_saturation_check_extra_memory_at_d900():
    # bound: the 1.7 MiB this call reads with H, the quadratures and the stack check's inputs
    # as nonzeros and the state kept as its 1 x 1 parts (no d x d array), plus 5 MiB
    H = two_mode_generator(1.0, 1.0)
    tracemalloc.start()
    try:
        rho = saturation_check(H, 30).truncation.rho
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.7 * 2**20, f"extra peak {peak / 2**20:.1f} MiB"
    assert rho.parts is not None and not {"matrix", "eigenvectors"} & set(vars(rho))


def _eager_assembly(rho):
    """Reference: the dense matrix, each part's V diag(w) V^dag made Hermitian at its rows, and
    the eigenvectors, each part's V at its rows and columns, assembled one part at a time."""
    M, E = np.zeros((rho.dim, rho.dim), dtype=complex), np.zeros((rho.dim, rho.dim), dtype=complex)
    for (rows, cols), (Vs, ws) in zip(rho.parts, rho.systems):
        for r, c, V, w in zip(rows, cols, Vs, ws):
            R = (V * w) @ V.conj().T
            M[np.ix_(r, r)] = (R + R.conj().T) / 2
            E[np.ix_(r, c)] = V
    return M, E


@pytest.mark.parametrize("kind", ["uncoupled", "shells", "coupled-squeezed", "from-blocks"])
def test_lazy_state_arrays_match_the_eager_assembly(kind):
    generators = {"uncoupled": (1.0, 1.0, 0.0, 0.0), "shells": (1.0, 1.3, 0.2, 0.0),
                  "coupled-squeezed": (1.0, 1.3, 0.2, 0.1)}
    if kind == "from-blocks":
        rng = np.random.default_rng(4)
        rows = np.split(rng.permutation(10), [3, 7])
        w = rng.uniform(0.1, 1.0, 10)
        rho = DensityMatrix.from_blocks([(r, random_unitary(rng, r.size), w[r] / w.sum()) for r in rows])
    else:
        omega1, omega2, coupling, xi = generators[kind]
        rho = fock_truncate_thermal(two_mode_generator(omega1, omega2, coupling=coupling, xi=xi), 10).rho
    assert not {"matrix", "eigenvectors"} & set(vars(rho))
    M, E = _eager_assembly(rho)
    assert np.array_equal(rho.matrix, M) and np.array_equal(rho.eigenvectors, E)
    assert rho.matrix is rho.matrix and rho.eigenvectors is rho.eigenvectors     # formed once


# ------------------------------------------- parity blocks and ladder stack

def _full_eigh_thermal(H, cutoff):
    """The thermal state from one eigh of the whole truncated H."""
    w, V = np.linalg.eigh(_dense_hamiltonian(H, cutoff))
    weights = np.exp(-H.beta * (w - w.min()))
    return DensityMatrix.from_blocks([(np.arange(V.shape[0]), V, weights / weights.sum())])


PARITY_CASES = [pytest.param(random_admissible_generator(n, np.random.default_rng(seed)), cutoff,
                             id=f"random-{n}m-seed{seed}-cutoff{cutoff}")
                for n in (1, 2) for seed in range(3) for cutoff in (8, 20, 30)]
PARITY_CASES.append(pytest.param(two_mode_generator(1.0, 1.0), 30, id="cli-default"))


@pytest.mark.parametrize("H, cutoff", PARITY_CASES)
def test_parity_blocks_match_full_eigh(H, cutoff):
    out = fock_truncate_thermal(H, cutoff)
    assert out.rho.parts is not None
    assert np.abs(out.rho.matrix - _full_eigh_thermal(H, cutoff).matrix).max() <= 1e-13
    assert out.tail_mass == gaussian.thermal_tail_mass(H, cutoff)


def test_parity_guard_rejects_cross_parity_entries(monkeypatch):
    build = gaussian._fock_hamiltonian

    def coupled(H, cutoff):
        rows, cols, vals = build(H, cutoff)     # |0> and |1> differ in parity
        return np.r_[rows, 0, 1], np.r_[cols, 1, 0], np.r_[vals, 1e-300, 1e-300]

    monkeypatch.setattr(gaussian, "_fock_hamiltonian", coupled)
    with pytest.raises(ConstructionMismatch, match="odd photon numbers at 2 entries"):
        fock_truncate_thermal(thermal_fixture(), 10)


@settings(max_examples=30, deadline=None)
@given(n_modes=st.integers(1, 2), cutoff=st.integers(8, 12), seed=st.integers(0, 2**32 - 1))
def test_index_built_hamiltonian_matches_the_kronecker_sum(n_modes, cutoff, seed):
    H = random_admissible_generator(n_modes, np.random.default_rng(seed))
    rows, cols, vals = gaussian._fock_hamiltonian(H, cutoff)
    ref = _kronecker_hamiltonian(H, cutoff)
    assert np.all(vals != 0) and np.all(np.diff(rows * ref.shape[0] + cols) > 0)   # each nonzero once, row-major
    assert np.array_equal(np.flatnonzero(ref), rows * ref.shape[0] + cols)
    assert np.abs(_densify((rows, cols, vals), ref.shape[0]) - ref).max() <= 1e-15 * np.abs(ref).max()


# sha256 of the bytes of (rows, cols, values) of the truncated H of the output corpus's 2-mode
# generators at cutoff 30 and of a squeezed mode at cutoff 60, as the Kronecker-order index build
# of earlier releases wrote them
PINNED_TRIPLES = {
    "uncoupled": (two_mode_generator(1.0, 1.3), 30,
                  "8f200ee40f48f507654337f6799b15f6285d72b959de0a3a113a2319f98117a5"),
    "shells": (two_mode_generator(1.0, 1.3, coupling=0.2), 30,
               "20abd4f1d3c3d1385778adebada007c1f5dcee9e80e3a58f1fd2f29a73f460a7"),
    "coupled-squeezed": (two_mode_generator(1.0, 1.3, coupling=0.2, xi=0.1), 30,
                         "901e77a45a53504998039edc0351ddb1a8ec3d69e4efd24218277fa5107fe3a5"),
    "single-mode-squeezed": (single_mode_generator(0.9, xi=0.3), 60,
                             "ad5b1e318965f097024726561bdd3a440789398c87e067471e8670df90604f0b"),
}


def test_hamiltonian_triples_are_pinned_and_the_basis_is_built_once(monkeypatch):
    built, init = [], gaussian.FockBasis.__init__
    monkeypatch.setattr(gaussian.FockBasis, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    gaussian.fock_basis.cache_clear()
    for name, (H, cutoff, digest) in PINNED_TRIPLES.items():
        for _ in range(2):
            triples = gaussian._fock_hamiltonian(H, cutoff)
            assert hashlib.sha256(b"".join(x.tobytes() for x in triples)).hexdigest() == digest, name
    assert built == [(2, 30), (1, 60)]
    b = gaussian.fock_basis(2, 30)
    assert b is gaussian.fock_basis(2, 30) and b.dim == 900 and len(built) == 2
    for x in (b.strides, b.levels, b.parity, b.links, *b.links, quadrature_observables(2, 30).nonzeros[1]):
        assert not x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0


@pytest.mark.parametrize("call", [lambda: gaussian.fock_density(np.eye(4) / 4, 2, 10**6),
                                  lambda: nongaussianity(DensityMatrix.from_matrix(np.eye(4) / 4), 2, 10**6)],
                         ids=["fock_density", "nongaussianity"])
def test_size_is_checked_before_the_basis_is_built(monkeypatch, call):
    # d = 10^12: a mistyped cutoff must build nothing of size d
    built = []
    monkeypatch.setattr(gaussian.FockBasis, "__init__", lambda self, *args: built.append(args))
    with pytest.raises(linalg.DimensionMismatch, match=r"state dim 4 != cutoff\^n_modes = 1000000000000$"):
        call()
    assert built == []


@pytest.mark.parametrize("n_modes, cutoff, dim, error", [
    (2, -1, 1, "cutoff must be >= 2, got -1"), (2, -2, 4, "cutoff must be >= 2, got -2"),
    (2, 0, 16, "cutoff must be >= 2, got 0"), (2, 1, 1, "cutoff must be >= 2, got 1"),
    (0, 5, 1, "need at least 1 mode, got 0")], ids=["cutoff-1", "cutoff-2", "cutoff0", "cutoff1", "modes0"])
def test_mode_count_and_cutoff_are_checked_before_the_size(n_modes, cutoff, dim, error):
    # (-1)^2 = 1 and 1^2 = 1 matched a 1 x 1 state, and (-2)^2 = 4 a 4 x 4 one
    for call in (lambda: gaussian.fock_density(np.eye(dim) / dim, n_modes, cutoff),
                 lambda: quadrature_observables(n_modes, cutoff)):
        with pytest.raises((CutoffTooSmall, UnsupportedModeCount), match=f"^{error}$"):
            call()


@pytest.mark.parametrize("n_modes, cutoff", [(1, 8), (2, 9)])
def test_zero_generator_has_no_triples_and_one_by_one_parts(n_modes, cutoff):
    H = validate_quadratic(np.zeros((2 * n_modes, 2 * n_modes)), n_modes)
    assert all(x.size == 0 for x in gaussian._fock_hamiltonian(H, cutoff))
    rho = fock_truncate_thermal(H, cutoff).rho
    assert _part_sizes(rho) == [1] and rho.parts[0][0].shape == (cutoff**n_modes, 1)
    assert np.array_equal(rho.matrix, np.eye(cutoff**n_modes) / cutoff**n_modes)


@pytest.mark.parametrize("n_modes, cutoff", [(1, 2), (1, 9), (1, 60), (2, 2), (2, 7), (2, 30)])
def test_quadratures_exactly_hermitian_with_ladder_origin(n_modes, cutoff):
    X = quadrature_observables(n_modes, cutoff)
    assert X.nonzeros is not None and X.n == 2 * n_modes
    for M in X.observables:
        assert np.array_equal(M, M.conj().T)
    # full validation returns the same matrices bit for bit, as a dense set
    checked = ObservableSet.from_matrices(X.observables)
    assert checked.nonzeros is None
    assert all(np.array_equal(a, b) for a, b in zip(X.observables, checked.observables))


@pytest.mark.parametrize("cutoff, n_modes", [(c, n) for c in (2, 8, 30) for n in (1, 2)] + [(60, 1)])
def test_index_filled_quadratures_equal_the_kronecker_build(n_modes, cutoff):
    a, eye = destroy(cutoff), np.eye(cutoff, dtype=complex)
    kron = []
    for q in ((a.conj().T + a) / math.sqrt(2), 1j * (a.conj().T - a) / math.sqrt(2)):
        for k in range(n_modes):
            factors = [eye] * n_modes
            factors[k] = q
            kron.append(functools.reduce(np.kron, factors))
    X = quadrature_observables(n_modes, cutoff)
    assert len(X.observables) == len(kron)
    assert all(np.array_equal(M, K) for M, K in zip(X.observables, kron))
    # array_equal takes -0.0 for 0.0: the sign bits of both parts must match too
    for part in (np.real, np.imag):
        assert all(np.array_equal(np.signbit(part(M)), np.signbit(part(K))) for M, K in zip(X.observables, kron))


def test_nonzeros_are_not_user_settable():
    X = quadrature_observables(1, 4)
    with pytest.raises(TypeError):
        ObservableSet(observables=X.observables, nonzeros=X.nonzeros)
    with pytest.raises(dataclasses.FrozenInstanceError):
        X.nonzeros = None


def _dense_twin(X):
    """The same observables as dense matrices: the dense stack route."""
    return ObservableSet.from_matrices(X.observables)


STACK_CASES = ([pytest.param("ginibre", n, cutoff, seed, id=f"ginibre-{n}m-cutoff{cutoff}-seed{seed}")
                for n, cutoff in ((1, 6), (1, 11), (2, 3), (2, 5)) for seed in range(2)]
               + [pytest.param("thermal", n, cutoff, seed, id=f"thermal-{n}m-cutoff{cutoff}-seed{seed}")
                  for n, cutoff in ((1, 12), (2, 8)) for seed in range(2)]
               + [pytest.param("parity", n, cutoff, seed, id=f"parity-{n}m-cutoff{cutoff}-seed{seed}")
                  for n, cutoff in ((1, 9), (2, 4), (2, 7)) for seed in range(2)])


def _parity_state_matrix(n, cutoff, rng, diagonal):
    """A state matrix that keeps photon-number parity, as a nongauss file holds it: a
    Fock-diagonal mixture with zero weights (diagonal) or a random state on each parity block."""
    d = cutoff**n
    if diagonal:
        p = rng.uniform(0.2, 1.0, d) * (rng.uniform(size=d) < 0.3)
        p[0] += 0.1
        return np.diag(p / p.sum()).astype(complex)
    M = np.zeros((d, d), dtype=complex)
    for rows in _parity_rows(n, cutoff):
        G = rng.standard_normal((rows.size, rows.size)) + 1j * rng.standard_normal((rows.size, rows.size))
        M[np.ix_(rows, rows)] = G @ G.conj().T
    return M / np.trace(M).real


def _stack_instance(kind, n, cutoff, seed):
    rng = np.random.default_rng(seed)
    if kind == "ginibre":
        rho = random_density(cutoff**n, "full" if seed % 2 else 1, rng)
    elif kind == "thermal":
        rho = fock_truncate_thermal(random_admissible_generator(n, rng, spectral_radius=2.0), cutoff).rho
    else:
        rho = gaussian.fock_density(_parity_state_matrix(n, cutoff, rng, seed % 2 == 0), n, cutoff)
    return rho, quadrature_observables(n, cutoff)


def _assert_close(a, b, rel):
    assert np.abs(a - b).max() <= rel * max(1.0, np.abs(b).max())


@pytest.mark.parametrize("kind, n, cutoff, seed", STACK_CASES)
def test_ladder_stack_matches_dense_stack(kind, n, cutoff, seed):
    rho, X = _stack_instance(kind, n, cutoff, seed)
    fast, dense = SpectralContext(rho, X), SpectralContext(rho, _dense_twin(X))
    assert fast.nonzeros is not None and dense.nonzeros is None
    # ginibre states carry no parts; the other kinds take the entry route
    assert (fast.entries is None) == (kind == "ginibre") and dense.entries is None
    scale = np.abs(dense.stack).max()
    A = fast.stack
    if fast.entries is not None:    # scatter the values X_k = A_k[a, b]: A_k[b, a] = conj(X_k), 0 elsewhere
        A = np.zeros_like(dense.stack)
        A[:, :, fast.entries.a, fast.entries.b] = fast.stack
        A[:, :, fast.entries.b, fast.entries.a] = np.conj(fast.stack)
    assert np.abs(A - dense.stack).max() <= 1e-13 * scale
    assert np.abs(fast.means - dense.means).max() <= 1e-13 * scale
    assert abs(fast.refined.delta_G - dense.refined.delta_G) <= 1e-12 * max(1.0, abs(dense.refined.delta_G))
    if kind != "ginibre":
        a, b = fast.entries.a, fast.entries.b
        assert fast.stack.shape == (1, X.n, a.size) == (1, X.n, b.size) and not fast.means.any()
        for name in ("P", "skew"):
            _assert_close(getattr(fast, name), getattr(dense, name), 1e-13)
        _assert_close(fast.refined.L, dense.refined.L, 1e-13)
        _assert_close(skew._eigenbasis_gram(fast.stack, fast.lam, fast.entries),
                      skew._eigenbasis_gram(dense.stack, dense.lam), 1e-13)


@pytest.mark.parametrize("kind, n, cutoff, seed", [("thermal", 1, 10, 0), ("parity", 2, 4, 1)])
def test_block_pairing_matches_dense_for_complex_weights(kind, n, cutoff, seed):
    rho, X = _stack_instance(kind, n, cutoff, seed)
    fast, dense = SpectralContext(rho, X), SpectralContext(rho, _dense_twin(X))
    assert fast.entries is not None
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((1, rho.dim, rho.dim)) + 1j * rng.standard_normal((1, rho.dim, rho.dim))
    _assert_close(fast.pair(W), dense.pair(W), 1e-13)
    _assert_close(fast.pair(W.swapaxes(1, 2)), dense.pair(W.swapaxes(1, 2)), 1e-13)
    f = gcov.sld_function()
    _assert_close(gcov.g_covariance.ctx(fast, gcov.eps_kernel()), gcov.g_covariance.ctx(dense, gcov.eps_kernel()), 1e-13)
    _assert_close(gcov.build_Lg.ctx(fast, *f.gram_kernels), gcov.build_Lg.ctx(dense, *f.gram_kernels), 1e-13)
    a, b = gcov.check_metric_adjusted.ctx(fast, f), gcov.check_metric_adjusted.ctx(dense, f)
    for key in ("margin18", "margin19"):
        _assert_close(getattr(a, key), getattr(b, key), 1e-12)


def _squeezed_mode0_generator():
    """Squeezing on mode 0 only and no coupling: the parts are the number levels of mode 1
    split by the parity of mode 0, so they mix the two parity halves and the number levels."""
    F = np.diag([0.3, 0.0]).astype(complex)
    W = np.diag([1.0, 1.3]).astype(complex)
    return validate_quadratic(np.block([[F, W], [W.T, F.conj()]]), 2)


ENTRY_STRUCTURES = {     # (n_modes, cutoff, state)
    "squeezed-1m": (1, 30, lambda: fock_truncate_thermal(single_mode_generator(1.0, xi=0.3), 30).rho),
    "squeezed-mode0": (2, 8, lambda: fock_truncate_thermal(_squeezed_mode0_generator(), 8).rho),
    "nongauss-parity": (2, 6, lambda: gaussian.fock_density(
        _parity_state_matrix(2, 6, np.random.default_rng(5), diagonal=False), 2, 6)),
}


@pytest.mark.parametrize("kind", ENTRY_STRUCTURES)
def test_entry_route_matches_dense_twin(kind):
    n, cutoff, state = ENTRY_STRUCTURES[kind]
    rho, X = state(), quadrature_observables(n, cutoff)
    fast, dense = SpectralContext(rho, X), SpectralContext(rho, _dense_twin(X))
    assert fast.entries is not None and dense.entries is None
    tol = 1e-13 * np.abs(dense.sigma).max()

    def close(a, b):
        assert np.abs(a - b).max() <= tol

    for name in ("P", "skew", "sigma", "classical"):
        close(getattr(fast, name), getattr(dense, name))
    close(fast.refined.L, dense.refined.L)
    close(fast.refined.delta_G, dense.refined.delta_G)
    rng = np.random.default_rng(1)
    W = rng.standard_normal((1, rho.dim, rho.dim)) + 1j * rng.standard_normal((1, rho.dim, rho.dim))
    close(fast.pair(W), dense.pair(W))
    f = gcov.sld_function()
    close(gcov.build_Lg.ctx(fast, *f.gram_kernels), gcov.build_Lg.ctx(dense, *f.gram_kernels))
    a, b = gcov.check_metric_adjusted.ctx(fast, f), gcov.check_metric_adjusted.ctx(dense, f)
    for key in ("margin18", "margin19"):
        close(getattr(a, key), getattr(b, key))


def test_squeezed_mode0_parts_mix_parity_halves_and_levels():
    rho = ENTRY_STRUCTURES["squeezed-mode0"][2]()
    (rows, _), = rho.parts                      # 2 * 8 parts of 4 rows: one n_2, one parity of n_1
    assert rows.shape == (16, 4)
    assert all(np.unique(r % 8).size == 1 and np.unique(r // 8 % 2).size == 1 for r in rows)
    assert {int(r[0] % 2) for r in rows} == {0, 1}       # both total parities occur


def test_uncoupled_entry_list_size():
    # the CLI default: 900 parts of one row; the a_k links give n (K - 1) K entries, not d^2 / 4
    rho = fock_truncate_thermal(two_mode_generator(1.0, 1.0), 30).rho
    ctx = SpectralContext(rho, quadrature_observables(2, 30))
    assert ctx.entries.a.size == ctx.entries.b.size == 2 * 29 * 30 == 1740 < 900**2 // 4
    assert ctx.stack.shape == (1, 4, 1740)


def test_entry_route_is_found_when_the_stack_is_built(monkeypatch):
    # constructing the context does no stack work; one pass then finds the route, its entries
    # and the stack from one index of the parts
    rho = fock_truncate_thermal(two_mode_generator(1.0, 1.0), 30).rho
    calls, index = [], skew._part_index
    monkeypatch.setattr(skew, "_part_index", lambda *args: calls.append(args) or index(*args))
    ctx = SpectralContext(rho, quadrature_observables(2, 30))
    assert not calls and "_stack" not in vars(ctx)
    ctx.refined
    assert len(calls) == 1 and ctx.entries is not None


def test_quadrature_nonzeros_are_cached_and_one_by_one_parts_build_no_row_table(monkeypatch):
    calls, build = [], skew._row_table
    monkeypatch.setattr(skew, "_row_table", lambda *args: calls.append(args[0]) or build(*args))
    gaussian._quadrature_nonzeros.cache_clear()
    H = two_mode_generator(1.0, 1.0)
    reports = [gaussian.saturation_check(H, 30) for _ in range(2)]
    assert reports[0].delta_G_numeric == reports[1].delta_G_numeric
    # 1 x 1 parts read each pair's value at its nonzero: the thermal and the nongauss states build no table
    for M in (_fock_mixture(2, 30, 8001), np.diag(np.eye(1, 900, 30)[0]).astype(complex)):
        gaussian.nongaussianity(gaussian.fock_density(M, 2, 30), 2, 30)
    assert calls == [] and gaussian._quadrature_nonzeros.cache_info().misses == 1
    # the shells' runs of larger parts build theirs once per call
    for k in (1, 2):
        gaussian.saturation_check(two_mode_generator(1.0, 1.3, coupling=0.2), 12)
        assert calls == [144] * k
    # each call a fresh set around the same read-only arrays
    X, Y = quadrature_observables(2, 30), quadrature_observables(2, 30)
    assert X is not Y
    for x, y in zip(X.nonzeros[1:], Y.nonzeros[1:]):
        assert x is y and not x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0
    # the dense matrices read on one set stay with it: the next call's set and the cache hold none
    assert len(X.observables) == 4
    Z = quadrature_observables(2, 30)
    assert "observables" not in vars(Z) and "observables" not in vars(Y)
    nonzeros = gaussian._quadrature_nonzeros(2, 30)
    assert all(x.size < 900**2 for x in nonzeros[1:]) and gaussian._quadrature_nonzeros.cache_info().misses == 2


@pytest.mark.parametrize("kind", ["uncoupled", "coupled-squeezed"])
def test_stack_check_inputs_from_the_nonzeros_match_the_dense_pairings(kind):
    # d = 900: the dense twin pairs its stacked matrices, the ladder set its nonzeros
    H = two_mode_generator(1.0, 1.0) if kind == "uncoupled" else two_mode_generator(1.0, 1.3, coupling=0.2, xi=0.1)
    rho, X = fock_truncate_thermal(H, 30).rho, quadrature_observables(2, 30)
    fast, dense = SpectralContext(rho, X), SpectralContext(rho, _dense_twin(quadrature_observables(2, 30)))
    assert fast.nonzeros is not None and fast.observables is None and dense.nonzeros is None
    (G, traces), (G_dense, traces_dense) = skew._input_pairings(fast), skew._input_pairings(dense)
    n = X.n
    _assert_close(G[:, :n, :n], G_dense[:, :n, :n], 1e-15)      # the Hilbert-Schmidt pairing
    _assert_close(G[:, :n, n], G_dense[:, :n, n], 1e-15)        # the means Tr(rho X_k)
    assert np.array_equal(traces, traces_dense) and not traces.any()
    skew._check_stack(fast)
    skew._check_stack(dense)
    fast.refined
    assert "observables" not in vars(X)                         # no dense matrix of the set was formed


def test_dense_stack_check_inputs_match_the_einsum_pairings():
    # a dense set at d = 96: the one product on the stacked inputs against Tr(Y_k Y_j) by einsum
    rng = np.random.default_rng(3)
    rho, X = random_density(96, "full", rng), fuzz_observables(96, 4, rng)
    ctx = SpectralContext(rho, X)
    G, traces = skew._input_pairings(ctx)
    Y = np.stack([*X.observables, rho.matrix])
    ref = np.einsum("kab,jba->kj", Y, Y).real
    _assert_close(G[0], ref, 1e-13)
    _assert_close(traces[0], np.trace(Y[:-1], axis1=1, axis2=2).real, 1e-13)
    skew._check_stack(ctx)


@pytest.mark.parametrize("kind", ["ginibre", "thermal", "parity"])
def test_corrupted_ladder_matrix_fails_stack_check(kind, monkeypatch):
    rho, X = _stack_instance(kind, 1, 9, 1)
    assert (SpectralContext(rho, X).entries is None) == (kind == "ginibre")
    build = skew._block_products

    def corrupted(*args):
        M = build(*args)    # the blocks of every quadrature, or on the full route of each pair x + i p
        at = np.unravel_index(np.argmax(np.abs(M)), M.shape)
        M[at] += 1e-6 * M[at] / abs(M[at])
        return M

    monkeypatch.setattr(skew, "_block_products", corrupted)
    with pytest.raises(ConstructionMismatch, match="eigenbasis stack changes"):
        check_refined_rs(rho, X)


# ------------------------------------------- parts of the exact zero pattern

def _matches_dense(rho, n, cutoff, reference):
    """sigma, c and delta_G of (rho, the ladder quadratures) against the reference state with
    the dense stack, within 1e-13 of max|sigma|."""
    rep = check_refined_rs(rho, quadrature_observables(n, cutoff))
    ref = check_refined_rs(reference, _dense_twin(quadrature_observables(n, cutoff)))
    tol = 1e-13 * np.abs(ref.sigma).max()
    assert np.abs(rep.sigma - ref.sigma).max() <= tol
    assert np.abs(rep.classical - ref.classical).max() <= tol
    assert abs(rep.delta_G - ref.delta_G) <= tol


def _part_sizes(rho):
    return [rows.shape[1] for rows, _ in rho.parts]


def _fock_mixture(n, cutoff, seed):
    """A Fock-diagonal mixture over the low photon numbers, as the benchmark's nongauss files hold it."""
    p = np.zeros((cutoff,) * n)
    p[(slice(0, 4),) * n] = np.random.default_rng(seed).uniform(0.2, 1.0, (4,) * n)
    return np.diag(p.ravel() / p.sum()).astype(complex)


def test_fock_diagonal_mixture_takes_one_by_one_parts():
    M = _fock_mixture(2, 30, 8001)
    rho = gaussian.fock_density(M, 2, 30)
    assert _part_sizes(rho) == [1] and rho.parts is not None
    # a 1 x 1 part's eigenvector is the unit vector at its row: V is a permutation matrix
    assert np.count_nonzero(rho.eigenvectors) == rho.dim
    _matches_dense(rho, 2, 30, DensityMatrix.from_matrix(M))


@pytest.mark.parametrize("H, cutoff", [(single_mode_generator(1.0), 60), (two_mode_generator(1.0, 1.0), 30)],
                         ids=["cli-default-1m60", "cli-default-2m30"])
def test_uncoupled_thermal_takes_one_by_one_parts(H, cutoff):
    rho = fock_truncate_thermal(H, cutoff).rho
    assert _part_sizes(rho) == [1]
    _matches_dense(rho, H.n_modes, cutoff, _full_eigh_thermal(H, cutoff))


def test_beamsplitter_thermal_parts_are_photon_number_shells():
    H, cutoff = two_mode_generator(1.0, 1.3, coupling=0.2), 12
    rho = fock_truncate_thermal(H, cutoff).rho
    shells = [np.unique(rows // cutoff + rows % cutoff, axis=1) for rows, _ in rho.parts]
    # each part is all of one shell n_1 + n_2 = N: one total photon number, so one parity
    assert all(s.shape[1] == 1 for s in shells)
    assert sorted(np.concatenate(shells).ravel()) == list(range(2 * cutoff - 1))
    assert len(_part_sizes(rho)) == cutoff                  # shell sizes 1..cutoff
    _matches_dense(rho, 2, cutoff, _full_eigh_thermal(H, cutoff))


def test_one_coherence_takes_the_dense_eigh():
    M = _fock_mixture(2, 12, 5)
    M[0, 12] = M[12, 0] = 0.5 * math.sqrt(M[0, 0].real * M[12, 12].real)     # |0,0> with |1,0>
    rho = gaussian.fock_density(M, 2, 12)
    assert rho.parts is None
    assert np.array_equal(rho.eigenvectors, DensityMatrix.from_matrix(M).eigenvectors)
    _matches_dense(rho, 2, 12, DensityMatrix.from_matrix(M))


def test_coupled_squeezed_parts_are_the_parity_classes():
    H, cutoff = two_mode_generator(1.0, 1.3, coupling=0.2, xi=0.1), 30
    rho = fock_truncate_thermal(H, cutoff).rho
    rows = _parity_rows(2, cutoff)
    assert len(rho.parts) == 1 and np.array_equal(rho.parts[0][0], np.stack(rows))
    # the same state, bit for bit, as one eigh per parity class
    Hmat = _dense_hamiltonian(H, cutoff)
    eig = [np.linalg.eigh(Hmat[np.ix_(r, r)]) for r in rows]
    weights = [np.exp(-H.beta * (w - min(w[0] for w, _ in eig))) for w, _ in eig]
    total = sum(w.sum() for w in weights)
    ref = DensityMatrix.from_blocks([(r, V, w / total) for r, (_, V), w in zip(rows, eig, weights)])
    for name in ("matrix", "eigenvalues", "eigenvectors"):
        assert np.array_equal(getattr(rho, name), getattr(ref, name))
    # and the stack holds the half-size products V_E^dag (X_k V_O) of that route, even to odd
    X, (cols_E, cols_O) = quadrature_observables(2, cutoff), rho.parts[0][1]
    V, stack = rho.eigenvectors, SpectralContext(rho, X).stack[0]
    halves = np.stack([(np.conj(V[np.ix_(rows[0], cols_E)].T) @ (M @ V[:, cols_O])[rows[0]]).ravel()
                       for M in X.observables])
    assert np.abs(stack - halves).max() <= 1e-13 * np.abs(halves).max()


def _corrupt_level(level, factor, cutoff):
    """``skew._nonzeros_stack`` on the set's nonzeros with the quadratures' ladder coefficients
    between photon numbers level and level + 1 of every mode scaled by factor, at both mirror
    positions.  The checks keep reading the set's own nonzeros."""
    build = skew._nonzeros_stack

    def corrupted(state, nonzeros):
        d, r, c, values = nonzeros
        # a nonzero links i and i + s_k, s_k the stride of its mode
        hit = np.minimum(r, c) // np.abs(r - c) % cutoff == level
        return build(state, (d, r, c, np.where(hit, factor * values, values)))
    return corrupted


PART_KINDS = {
    "one-by-one": lambda: fock_truncate_thermal(two_mode_generator(1.0, 1.0), 8).rho,
    "shells": lambda: fock_truncate_thermal(two_mode_generator(1.0, 1.3, coupling=0.2), 8).rho,
    "parity-classes": lambda: fock_truncate_thermal(two_mode_generator(1.0, 1.3, coupling=0.2, xi=0.1), 8).rho,
}


@pytest.mark.parametrize("kind", PART_KINDS)
@pytest.mark.parametrize("factor", [0.0, 1 + 1e-6])
def test_corrupted_ladder_coefficient_fails_stack_check(kind, factor, monkeypatch):
    rho = PART_KINDS[kind]()
    monkeypatch.setattr(skew, "_nonzeros_stack", _corrupt_level(2, factor, 8))
    with pytest.raises(ConstructionMismatch, match="eigenbasis stack changes"):
        check_refined_rs(rho, quadrature_observables(2, 8))


def test_flipped_eigenvector_phase_in_a_part_fails_stack_check(monkeypatch):
    # the full route builds B = V^dag (x + i p) V / 2 in one product from the state's dense
    # eigenvectors and takes x = B + B^dag: a phase flipped on the left side of one eigenvector
    # of a state with parts leaves the quadratures Hermitian but changes their Hilbert-Schmidt
    # pairing.  (The entry route builds each block once and implies its mirror, so there a
    # phase is a relabeling: the probe's case, ``test_probe_flags_stack_mutations``.)
    parity = PART_KINDS["parity-classes"]()
    rho = DensityMatrix.from_blocks([(np.arange(parity.dim), parity.eigenvectors, parity.eigenvalues)])
    X = quadrature_observables(2, 8)
    assert SpectralContext(rho, X).entries is None and rho.parts is not None
    build = skew._block_products

    def flipped(*args):
        out = build(*args)
        out[0, 0] *= -1         # the first eigenvector
        return out

    monkeypatch.setattr(skew, "_block_products", flipped)
    with pytest.raises(ConstructionMismatch, match="eigenbasis stack changes"):
        check_refined_rs(rho, X)


@pytest.mark.parametrize("kind", PART_KINDS)
def test_kernel_weights_pair_bit_for_bit_like_the_dense_weights(kind):
    # P and skew take their weights as functions of (l_a, l_b): at the entries alone on the
    # entry route, on the full (B, d, d) grid on the dense one; both pair as the array would
    rho, X = PART_KINDS[kind](), quadrature_observables(2, 8)
    for ctx in (SpectralContext(rho, X), SpectralContext(rho, _dense_twin(X))):
        s = np.sqrt(ctx.lam)
        assert np.array_equal(ctx.P, ctx.pair(ctx.lam[:, :, None] * np.ones(ctx.dim)))
        assert np.array_equal(ctx.skew, ctx.symmetric_pair((s[:, :, None] - s[:, None, :]) ** 2 / 2))


UNIT_RUN_STATES = {      # (n_modes, cutoff, state)
    **{kind: (2, 8, state) for kind, state in PART_KINDS.items()},
    "thermal-1m60": (1, 60, lambda: fock_truncate_thermal(single_mode_generator(1.0), 60).rho),
    "thermal-2m30": (2, 30, lambda: fock_truncate_thermal(two_mode_generator(1.0, 1.0), 30).rho),
    "nongauss-fock10": (2, 30, lambda: gaussian.fock_density(np.diag(np.eye(1, 900, 30)[0]).astype(complex), 2, 30)),
    "nongauss-mixed": (2, 30, lambda: gaussian.fock_density(_fock_mixture(2, 30, 8001), 2, 30)),
}


@pytest.mark.parametrize("kind", UNIT_RUN_STATES)
def test_one_by_one_runs_match_the_batched_product(kind, monkeypatch):
    # each run of 1 x 1 part pairs against the batched product on a row table built here, then the
    # whole stack and entry list against the stack with every run batched
    n, cutoff, state = UNIT_RUN_STATES[kind]
    rho, X = state(), quadrature_observables(n, cutoff)
    table, (_, part, place) = skew._row_table(*X.nonzeros), skew._part_index(rho.parts, rho.dim)
    runs, unit = [], skew._unit_products

    def batched(lead, rows, V_P, V_Q):
        _, r, c, _ = lead
        rows_Q = np.where(r == rows[:, 0], c, r)[:, None]      # j: the lead nonzero is at (i, j) or its mirror
        return skew._gathered_products(table, rows, V_P, rows_Q, V_Q, part, place)

    def checked(*args):
        out = unit(*args)
        assert np.array_equal(out, batched(*args))
        runs.append(out.shape[0])
        return out

    monkeypatch.setattr(skew, "_unit_products", checked)
    stack, entries = skew._nonzeros_stack(rho, X.nonzeros)
    monkeypatch.setattr(skew, "_unit_products", batched)
    batched_stack, batched_entries = skew._nonzeros_stack(rho, X.nonzeros)
    assert np.array_equal(stack, batched_stack)
    assert all(np.array_equal(u, v) for u, v in zip(entries, batched_entries))
    # every part is 1 x 1 but for the shells (sizes 1..8, no two 1 x 1 shells linked) and the parity classes
    assert sum(runs) == (0 if kind in ("shells", "parity-classes") else entries.a.size)


# ------------------------------------------- the random probe against the input basis

def _swap_two_columns(rho):
    """A copy of rho, read from its parts, with two eigenvector columns swapped: two of one
    part's (its V's first two columns), or with only 1 x 1 parts, the first two parts' (their rows)."""
    parts, systems = list(rho.parts), list(rho.systems)
    g = next((g for g, (rows, _) in enumerate(parts) if rows.shape[1] > 1), None)
    if g is not None:
        V = systems[g][0].copy()
        V[0][:, [0, 1]] = V[0][:, [1, 0]]
        systems[g] = (V, systems[g][1])
    else:
        rows = parts[0][0].copy()
        rows[[0, 1]] = rows[[1, 0]]
        parts[0] = (rows, parts[0][1])
    swapped = copy.copy(rho)
    for name in ("matrix", "eigenvectors"):    # formed again from the swapped parts if read
        vars(swapped).pop(name, None)
    vars(swapped).update(parts=tuple(parts), systems=tuple(systems))
    return swapped


def _probe_mutation(kind, rho, monkeypatch):
    """Plant one fault in the quadrature stack built for rho."""
    if kind == "level-2-sign":
        monkeypatch.setattr(skew, "_nonzeros_stack", _corrupt_level(2, -1.0, 8))
        return
    if kind == "swapped-columns":
        build, swapped = skew._nonzeros_stack, _swap_two_columns(rho)
        monkeypatch.setattr(skew, "_nonzeros_stack", lambda state, *args: build(swapped, *args))
        return
    # one whole part, on the left side of its blocks only: in the batched product of a block shape,
    # or of 1 x 1 parts in their scalar products (``_unit_products``)
    (part, _), *_ = rho.parts

    def flipping(build):
        def flipped(data, rows, *args):
            out = build(data, rows, *args)
            out[np.isin(rows, part[0])] *= -1
            return out
        return flipped

    for name in ("_block_products", "_unit_products"):
        monkeypatch.setattr(skew, name, flipping(getattr(skew, name)))


@pytest.mark.parametrize("mutation", ["level-2-sign", "swapped-columns", "part-phase-one-side"])
@pytest.mark.parametrize("kind", PART_KINDS)
def test_probe_flags_stack_mutations(kind, mutation, monkeypatch):
    rho, X = PART_KINDS[kind](), quadrature_observables(2, 8)
    skew._probe_stack(SpectralContext(rho, X))          # the unmutated stack passes
    _probe_mutation(mutation, rho, monkeypatch)
    with pytest.raises(ConstructionMismatch):
        check_refined_rs(rho, X)
    # the probe alone flags it, whatever the other checks see
    with pytest.raises(ConstructionMismatch, match="random probe"):
        skew._probe_stack(SpectralContext(rho, X))


def test_level_2_sign_flip_passes_the_pairing_checks(monkeypatch):
    # the blind spot the probe closes: a relabeling of the stack that keeps every pairing
    rho, X = PART_KINDS["parity-classes"](), quadrature_observables(2, 8)
    monkeypatch.setattr(skew, "_nonzeros_stack", _corrupt_level(2, -1.0, 8))
    ctx = SpectralContext(rho, X)
    skew._check_stack(ctx)
    L = np.block([[ctx.blocks[0][0], ctx.i_delta[0]], [ctx.i_delta[0], ctx.blocks[1][0]]])
    assert np.abs(L - skew._eigenbasis_gram(ctx.stack, ctx.lam, ctx.entries)[0]).max() <= 1e-12
    with pytest.raises(ConstructionMismatch, match="random probe"):
        ctx.refined


def test_probe_runs_only_on_a_stack_built_from_nonzeros(monkeypatch):
    calls = []
    monkeypatch.setattr(skew, "_probe_stack", lambda ctx: calls.append(ctx.nonzeros))
    rho, X = PART_KINDS["shells"](), quadrature_observables(2, 8)
    check_refined_rs(rho, X)
    check_refined_rs(rho, _dense_twin(X))
    assert len(calls) == 1 and calls[0] is X.nonzeros
