import dataclasses
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
from skewsharp import gaussian, gcov, skew
from skewsharp.fuzz import random_density
from skewsharp.skew import ConstructionMismatch, ObservableSet, SpectralContext, check_refined_rs
from skewsharp.linalg import DensityMatrix, InvalidState, NonHermitianInput

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
    assert np.array_equal(a.matrix, b.matrix) and b.blocks is None
    assert (a.blocks is None) == (kind == "parity-breaking")
    assert np.abs(a.eigenvalues - b.eigenvalues).max() <= 1e-14
    dg_a, dg_b = nongaussianity(a, n, cutoff), nongaussianity(b, n, cutoff)
    assert abs(dg_a - dg_b) <= 1e-12 * max(1.0, abs(dg_b))


def test_per_parity_route_needs_exactly_zero_cross_entries():
    M = _parity_state("parity-block", 1, 10)
    assert gaussian.fock_density(M, 1, 10).blocks is not None
    M[0, 1] = M[1, 0] = 1e-300                  # |0> and |1> differ in parity
    rho = gaussian.fock_density(M, 1, 10)
    assert rho.blocks is None
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


def test_saturation_check_extra_memory_at_d900():
    # bound: the 204 MiB this call read with one eigh of the whole H and the dense
    # stack, whose peak sat in the stack self-check (A and the input observables at once)
    H = two_mode_generator(1.0, 1.0)
    tracemalloc.start()
    try:
        saturation_check(H, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 204 * 2**20, f"extra peak {peak / 2**20:.0f} MiB"


# ------------------------------------------- parity blocks and ladder stack

def _full_eigh_thermal(H, cutoff):
    """The thermal state from one eigh of the whole truncated H."""
    w, V = np.linalg.eigh(gaussian._fock_hamiltonian(H, cutoff))
    weights = np.exp(-H.beta * (w - w.min()))
    return DensityMatrix.from_eigensystem(V, weights / weights.sum())


PARITY_CASES = [pytest.param(random_admissible_generator(n, np.random.default_rng(seed)), cutoff,
                             id=f"random-{n}m-seed{seed}-cutoff{cutoff}")
                for n in (1, 2) for seed in range(3) for cutoff in (8, 20, 30)]
PARITY_CASES.append(pytest.param(two_mode_generator(1.0, 1.0), 30, id="cli-default"))


@pytest.mark.parametrize("H, cutoff", PARITY_CASES)
def test_parity_blocks_match_full_eigh(H, cutoff):
    out = fock_truncate_thermal(H, cutoff)
    assert len(out.rho.blocks) == 2
    assert np.abs(out.rho.matrix - _full_eigh_thermal(H, cutoff).matrix).max() <= 1e-13
    assert out.tail_mass == gaussian.thermal_tail_mass(H, cutoff)


def test_parity_guard_rejects_cross_parity_entries(monkeypatch):
    build = gaussian._fock_hamiltonian

    def coupled(H, cutoff):
        Hmat = build(H, cutoff)
        Hmat[0, 1] = Hmat[1, 0] = 1e-300        # |0> and |1> differ in parity
        return Hmat

    monkeypatch.setattr(gaussian, "_fock_hamiltonian", coupled)
    with pytest.raises(ConstructionMismatch, match="odd photon numbers at 2 entries"):
        fock_truncate_thermal(thermal_fixture(), 10)


@pytest.mark.parametrize("n_modes, cutoff", [(1, 2), (1, 9), (1, 60), (2, 2), (2, 7), (2, 30)])
def test_quadratures_exactly_hermitian_with_ladder_origin(n_modes, cutoff):
    X = quadrature_observables(n_modes, cutoff)
    assert X.origin == gaussian.LadderOrigin(n_modes, cutoff) and X.n == 2 * n_modes
    for M in X.observables:
        assert np.array_equal(M, M.conj().T)
    # full validation returns the same matrices bit for bit, and no ladder origin
    checked = ObservableSet.from_matrices(X.observables)
    assert checked.origin is None
    assert all(np.array_equal(a, b) for a, b in zip(X.observables, checked.observables))


def test_ladder_origin_is_not_user_settable():
    X = quadrature_observables(1, 4)
    with pytest.raises(TypeError):
        ObservableSet(observables=X.observables, origin=gaussian.LadderOrigin(1, 4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        X.origin = None


def _dense_twin(X):
    """The same observables without the ladder origin: the dense stack route."""
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
    for rows in gaussian.parity_rows(n, cutoff):
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
    assert fast.origin == gaussian.LadderOrigin(n, cutoff) and dense.origin is None
    # ginibre states carry no parity blocks; the other kinds take the block route
    assert (fast.origin.parity_blocks(rho.blocks) is None) == (kind == "ginibre")
    assert (fast.block_cols is None) == (kind == "ginibre") and dense.block_cols is None
    scale = np.abs(dense.A).max()
    assert np.abs(fast.A - dense.A).max() <= 1e-13 * scale
    assert np.abs(fast.means - dense.means).max() <= 1e-13 * scale
    assert abs(fast.refined.delta_G - dense.refined.delta_G) <= 1e-12 * max(1.0, abs(dense.refined.delta_G))
    if kind != "ginibre":
        P, Q = fast.block_cols
        assert fast.stack.shape == (1, X.n, P.size, Q.size) and not fast.means.any()
        for name in ("P", "skew"):
            _assert_close(getattr(fast, name), getattr(dense, name), 1e-13)
        _assert_close(fast.refined.L, dense.refined.L, 1e-13)
        _assert_close(skew._eigenbasis_gram(fast.stack, fast.lam, fast.block_cols),
                      skew._eigenbasis_gram(dense.stack, dense.lam), 1e-13)


@pytest.mark.parametrize("kind, n, cutoff, seed", [("thermal", 1, 10, 0), ("parity", 2, 4, 1)])
def test_block_pairing_matches_dense_for_complex_weights(kind, n, cutoff, seed):
    rho, X = _stack_instance(kind, n, cutoff, seed)
    fast, dense = SpectralContext(rho, X), SpectralContext(rho, _dense_twin(X))
    assert fast.block_cols is not None
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


@pytest.mark.parametrize("kind", ["ginibre", "thermal", "parity"])
def test_corrupted_ladder_matrix_fails_stack_check(kind, monkeypatch):
    rho, X = _stack_instance(kind, 1, 9, 1)
    assert (SpectralContext(rho, X).block_cols is None) == (kind == "ginibre")
    build = gaussian._ladder_matrix

    def corrupted(*args):
        M, M_back = build(*args)    # the dense M twice, or on the block route its two nonzero blocks
        a, b = np.unravel_index(np.argmax(np.abs(M)), M.shape)
        M[a, b] += 1e-6 * M[a, b] / abs(M[a, b])
        return M, M_back

    monkeypatch.setattr(gaussian, "_ladder_matrix", corrupted)
    with pytest.raises(ConstructionMismatch, match="eigenbasis stack changes"):
        check_refined_rs(rho, X)
