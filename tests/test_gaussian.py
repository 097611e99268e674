import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewsharp.gaussian import (
    AlreadyQuadrature,
    CutoffTooSmall,
    InvalidGenerator,
    LogBranchFailure,
    NonSymplectic,
    UnsupportedModeCount,
    block_swap,
    destroy,
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
from skewsharp.skew import check_refined_rs
from skewsharp.linalg import DensityMatrix

Q = 0.25                      # e^(-beta omega) for the thermal fixture
BETA = math.log(1 / Q)        # omega = 1


def thermal_fixture():
    return single_mode_generator(omega=1.0, beta=BETA)


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


def test_near_singular_perturbation_warns():
    # a zero-mode drift makes M - I singular; the 1e-8 nudge rescues it
    H = single_mode_generator(omega=1e-12, beta=1.0)
    with pytest.warns(UserWarning, match="perturbing"):
        m = exact_moments(H)
    assert m.perturbed


def test_hopelessly_singular_raises():
    from skewsharp.gaussian import SingularM

    H = single_mode_generator(omega=1.0, beta=1e-15)  # beta -> 0: nudging N cannot help
    with pytest.warns(UserWarning, match="perturbing"), pytest.raises(SingularM):
        exact_moments(H)


# --------------------------------------------------------------- Fock space

def test_destroy_matrix_elements():
    a = destroy(4)
    assert np.abs(a - np.diag([1.0, math.sqrt(2), math.sqrt(3)], 1)).max() <= 1e-15


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
