import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from skewsharp.fuzz import random_density
from skewsharp.linalg import (
    DensityMatrix,
    DimensionMismatch,
    NonHermitianInput,
    SkewsharpError,
    hermitian_parts,
    mat_scale,
)
from skewsharp.skew import (
    TOL_INEQ,
    _det_root,
    _schur_margin,
    ConstructionMismatch,
    ObservableSet,
    SpectralContext,
    check_refined_rs,
    commutator_matrix,
    covariance_matrix,
    det_delta,
    det_symmetric_psd,
    two_obs_relations,
    wy_skew_matrix,
)

from conftest import SX, SY, SZ, random_hermitian, random_observables, random_unitary


# ---------------------------------------------------------------- oracles

def oracle_covariance(rho: np.ndarray, mats) -> np.ndarray:
    """Plain trace arithmetic, entry by entry."""
    n = len(mats)
    out = np.empty((n, n))
    means = [np.trace(rho @ m).real for m in mats]
    for k in range(n):
        for j in range(n):
            sym = np.trace(rho @ (mats[k] @ mats[j] + mats[j] @ mats[k])) / 2
            out[k, j] = sym.real - means[k] * means[j]
    return out


def oracle_i_delta(rho: np.ndarray, mats) -> np.ndarray:
    n = len(mats)
    out = np.empty((n, n), dtype=complex)
    for k in range(n):
        for j in range(n):
            out[k, j] = -0.5 * np.trace(rho @ (mats[k] @ mats[j] - mats[j] @ mats[k]))
    return out


def oracle_wy(rho: np.ndarray, mats) -> np.ndarray:
    """Commutator-trace form with an independent sqrtm."""
    R = scipy.linalg.sqrtm(rho)
    n = len(mats)
    out = np.empty((n, n))
    for k in range(n):
        for j in range(n):
            ck = R @ mats[k] - mats[k] @ R
            cj = R @ mats[j] - mats[j] @ R
            out[k, j] = (-0.5 * np.trace(ck @ cj)).real
    return (out + out.T) / 2


# ------------------------------------------------------- fixture Q1 values

def test_q1_covariance_is_identity(q1_state, q1_obs):
    sigma = covariance_matrix(q1_state, q1_obs)
    assert np.abs(sigma - np.eye(2)).max() <= 1e-12
    assert np.abs(sigma - oracle_covariance(q1_state.matrix, q1_obs.observables)).max() <= 1e-12


def test_q1_commutator(q1_state, q1_obs):
    i_delta = commutator_matrix(q1_state, q1_obs)
    delta = np.imag(i_delta)
    assert np.isclose(delta[0, 1], -0.5)  # (i/2)<[sx, sy]> = -<sz> = -1/2
    assert np.isclose(det_delta(i_delta), 0.25)
    assert np.abs(i_delta - oracle_i_delta(q1_state.matrix, q1_obs.observables)).max() <= 1e-12


def test_q1_skew_closed_form(q1_state, q1_obs):
    # I = 1 - 2 sqrt(p(1-p)) per diagonal for rho = diag(p, 1-p), X in {sx, sy}
    skew = wy_skew_matrix(q1_state, q1_obs)
    expect = 1 - 2 * math.sqrt(0.75 * 0.25)
    assert np.abs(skew - np.diag([expect, expect])).max() <= 1e-12
    assert np.abs(skew - oracle_wy(q1_state.matrix, q1_obs.observables)).max() <= 1e-10


def test_q1_classical(q1_state, q1_obs):
    c = check_refined_rs(q1_state, q1_obs).classical
    assert np.abs(c - np.diag([np.sqrt(3) / 2, np.sqrt(3) / 2])).max() <= 1e-12


def test_q1_L_saturates(q1_state, q1_obs):
    L = check_refined_rs(q1_state, q1_obs).L
    root3 = np.sqrt(3) / 2
    assert np.abs(L[:2, :2] - np.diag([1 + root3, 1 + root3])).max() <= 1e-12
    assert np.abs(L[2:, 2:] - np.diag([1 - root3, 1 - root3])).max() <= 1e-12
    assert np.abs(L[:2, 2:] - np.array([[0, -0.5j], [0.5j, 0]])).max() <= 1e-12
    w = np.linalg.eigvalsh(L)
    assert abs(w[0]) <= 1e-10  # saturation: L singular
    assert w[0] >= -1e-9 * mat_scale(L)  # PSD within TOL_PSD of its scale


def test_q1_report_margins(q1_state, q1_obs):
    rep = check_refined_rs(q1_state, q1_obs)
    assert abs(rep.dets["sigma_plus_c"] * rep.dets["sigma_minus_c"] - 1 / 16) <= 1e-12
    assert abs(rep.dets["delta"] - 0.25) <= 1e-12
    assert abs(rep.margins["eq3"]) <= 1e-10
    assert abs(rep.delta_G) <= 1e-10
    assert abs(rep.margins["rs"] - 0.75) <= 1e-12
    assert abs(rep.margins["eq4a"]) <= 1e-10
    assert abs(rep.margins["eq4b"]) <= 1e-10
    assert abs(rep.margins["eq7-psd"]) <= 1e-10
    assert abs(rep.margins["eq8-schur"]) <= 1e-10
    assert rep.rank_L == 2


# ------------------------------------------------------------ other pins

def test_pure_eigenstate_zero_variance():
    rho = DensityMatrix.from_matrix(np.diag([1.0, 0.0]).astype(complex))
    sigma = covariance_matrix(rho, ObservableSet.from_matrices([SZ]))
    assert abs(sigma[0, 0]) <= 1e-14


def test_maximally_mixed_pauli(pauli):
    sx, _, sz = pauli
    rho = DensityMatrix.from_matrix(np.eye(2, dtype=complex) / 2)
    X = ObservableSet.from_matrices([sx, sz])
    assert np.abs(covariance_matrix(rho, X) - np.eye(2)).max() <= 1e-14
    assert np.abs(wy_skew_matrix(rho, X)).max() <= 1e-14
    # delta vanishes: Tr[X_k, X_j] = 0, so L = blockdiag(2 sigma, 0)
    L = check_refined_rs(rho, X).L
    assert np.abs(L - np.block([[2 * np.eye(2), np.zeros((2, 2))],
                                [np.zeros((2, 2)), np.zeros((2, 2))]])).max() <= 1e-12


def test_commuting_observables_zero_delta():
    rho = DensityMatrix.from_matrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
    poly = np.diag([1.0, 2.0, 3.0]).astype(complex)
    X = ObservableSet.from_matrices([np.diag([1.0, -1.0, 0.0]).astype(complex), poly])
    assert np.abs(commutator_matrix(rho, X)).max() <= 1e-14


def test_single_observable_delta_zero(q1_state):
    i_delta = commutator_matrix(q1_state, ObservableSet.from_matrices([SX]))
    assert i_delta.shape == (1, 1) and abs(i_delta[0, 0]) <= 1e-15
    assert det_delta(i_delta) == 0.0


def test_pure_state_L_blocks(pauli):
    # For pure states skew = sigma, classical = 0: both diagonal blocks equal sigma.
    sx, _, _ = pauli
    rho = DensityMatrix.from_matrix(np.array([[1.0, 0], [0, 0]], dtype=complex))
    X = ObservableSet.from_matrices([sx])
    L = check_refined_rs(rho, X).L
    assert np.abs(L - np.eye(2)).max() <= 1e-12  # sigma = 1, delta = 0


def test_dimension_mismatch(q1_state):
    with pytest.raises(DimensionMismatch):
        covariance_matrix(q1_state, ObservableSet.from_matrices([np.eye(3, dtype=complex)]))


# ------------------------------------------------------ observable validation

def _per_matrix_observables(mats):
    """Observable validation matrix by matrix: each one square, finite and Hermitian in
    turn, then the count and the common dimension; the Hermitian parts."""
    out = []
    for m in mats:
        m = np.asarray(m, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"observable must be square, got shape {m.shape}")
        out.append(hermitian_parts(m, what="observable"))
    if not out:
        raise DimensionMismatch("need at least one observable")
    for k, m in enumerate(out):
        if m.shape[0] != out[0].shape[0]:
            raise DimensionMismatch(f"observable {k} has dim {m.shape[0]}, expected {out[0].shape[0]}")
    return out


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 8), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_from_matrices_keeps_the_per_matrix_hermitian_parts(dim, n, seed):
    rng = np.random.default_rng(seed)
    # Hermitian within tolerance, not exactly: the Hermitian parts move the last bits
    mats = [random_hermitian(rng, dim) + 1e-12 * rng.standard_normal((dim, dim)) for _ in range(n)]
    want = _per_matrix_observables(mats)
    for got in (ObservableSet.from_matrices(mats), ObservableSet.from_matrices(m for m in mats)):
        assert len(got.observables) == n
        assert all(np.array_equal(g, w) for g, w in zip(got.observables, want))


def _single_faults():
    rng = np.random.default_rng(5)
    ok = [random_hermitian(rng, 3) for _ in range(4)]
    nan = ok[1].copy()
    nan[0, 2] = np.nan

    def skewed(m):
        return m + 1e-6 * np.triu(np.ones((3, 3)), 1)

    return {
        "non-square": (DimensionMismatch, [ok[0], np.ones((3, 2)), *ok[2:]]),
        "mismatched-dims": (DimensionMismatch, [*ok[:2], random_hermitian(rng, 4), ok[3]]),
        "nan": (SkewsharpError, [ok[0], nan, *ok[2:]]),
        "non-hermitian-first": (NonHermitianInput, [skewed(ok[0]), *ok[1:]]),
        "non-hermitian-last": (NonHermitianInput, [*ok[:3], skewed(ok[3])]),
        "empty": (DimensionMismatch, []),
    }


@pytest.mark.parametrize("fault", list(_single_faults()))
def test_from_matrices_single_fault_error_matches_per_matrix_validation(fault):
    error, mats = _single_faults()[fault]
    with pytest.raises(SkewsharpError) as want:
        _per_matrix_observables(mats)
    with pytest.raises(SkewsharpError) as got:
        ObservableSet.from_matrices(mats)
    assert type(got.value) is type(want.value) is error
    assert str(got.value) == str(want.value)


# ----------------------------------------------------- two-observable set

def test_q1_two_obs_all_saturated(q1_state):
    rep = two_obs_relations(q1_state, SX, SY)
    assert np.isclose(rep.delta_scalar, 0.5)
    assert abs(rep.A - 0.25) <= 1e-12
    assert abs(rep.B - 1 / 16) <= 1e-12
    assert abs(rep.margins["eq9a"]) <= 1e-10
    assert abs(rep.margins["eq9b_1"]) <= 1e-10
    assert abs(rep.margins["eq9b_2"]) <= 1e-10
    assert abs(rep.margins["furuichi"]) <= 1e-10
    assert np.isclose(rep.U1 * rep.U2, 0.25)


def test_plus_state_vacuous_branch():
    plus = np.full((2, 2), 0.5, dtype=complex)
    rho = DensityMatrix.from_matrix(plus)
    rep = two_obs_relations(rho, SX, SY)
    assert rep.margins["eq9b_1"] == math.inf  # var(sx) = 0 on |+>
    assert np.isclose(rep.delta_scalar, 0.0, atol=1e-14)  # <sz> = 0
    assert rep.margins["eq9a"] >= -1e-10
    assert rep.margins["eq10"] >= -1e-10


def test_mixed_zero_delta(pauli):
    sx, _, sz = pauli
    rho = DensityMatrix.from_matrix(np.eye(2, dtype=complex) / 2)
    rep = two_obs_relations(rho, sx, sz)
    assert abs(rep.delta_scalar) <= 1e-14
    for key in ("eq9a", "eq10"):
        assert rep.margins[key] >= -1e-10


# ------------------------------------------------------------- properties

dims = st.integers(2, 6)
counts = st.integers(1, 4)
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(dim=dims, n=counts, seed=seeds, full_rank=st.booleans())
def test_decomposition_and_psd(dim, n, seed, full_rank):
    rng = np.random.default_rng(seed)
    rho = random_density(dim, dim if full_rank else max(1, dim // 2), rng)
    X = random_observables(rng, dim, n)
    rep = check_refined_rs(rho, X)
    scale = max(1.0, np.abs(rep.sigma).max())
    assert np.abs(rep.sigma - rep.skew - rep.classical).max() <= 1e-10 * scale
    for M in (rep.sigma, rep.skew, rep.classical):
        assert np.linalg.eigvalsh((M + M.T) / 2)[0] >= -1e-9 * scale
    assert rep.margins["eq7-psd"] >= -1e-9 * rep.scales["eq7-psd"]
    # skew <= sigma in Loewner order
    assert np.linalg.eigvalsh(rep.sigma - rep.skew)[0] >= -1e-9 * scale


@settings(max_examples=60, deadline=None)
@given(dim=dims, n=counts, seed=seeds)
def test_margin_chain(dim, n, seed):
    # n beyond the d^2-1 independent centered directions makes every
    # determinant exactly 0 and the fractional-power margins pure noise
    assume(n <= dim * dim - 1)
    rng = np.random.default_rng(seed)
    rep = check_refined_rs(random_density(dim, "full", rng), random_observables(rng, dim, n))
    for key in ("rs", "eq3", "eq4a", "eq4b", "eq8-schur"):
        assert rep.margins[key] >= -1e-8 * rep.scales[key], key
    assert rep.schur_range_residual <= 1e-7


@settings(max_examples=40, deadline=None)
@given(dim=dims, n=counts, seed=seeds)
def test_pure_states_have_no_classical_part(dim, n, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(dim, 1, rng)
    X = random_observables(rng, dim, n)
    rep = check_refined_rs(rho, X)
    assert np.abs(rep.classical).max() <= 1e-8
    # refined relation collapses to squared RS
    assert abs(rep.delta_G - (rep.dets["sigma"] ** 2 - rep.dets["delta"] ** 2)) <= 1e-8 * rep.scales["eq3"]


@settings(max_examples=40, deadline=None)
@given(dim=dims, n=counts, seed=seeds, t=st.sampled_from((0.25, 0.5, 0.75)))
def test_classical_root_concavity(dim, n, seed, t):
    assume(n <= dim * dim - 1)
    rng = np.random.default_rng(seed)
    r1 = random_density(dim, "full", rng)
    r2 = random_density(dim, "full", rng)
    X = random_observables(rng, dim, n)
    mix = DensityMatrix.from_matrix(t * r1.matrix + (1 - t) * r2.matrix)

    def croot(rho):
        c = check_refined_rs(rho, X).classical
        return max(det_symmetric_psd(c), 0.0) ** (1 / n)

    assert croot(mix) >= t * croot(r1) + (1 - t) * croot(r2) - 1e-9


@settings(max_examples=40, deadline=None)
@given(dim=dims, seed=seeds)
def test_two_obs_stronger_than_refined(dim, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(dim, "full", rng)
    X = random_observables(rng, dim, 2)
    rep2 = two_obs_relations(rho, X.observables[0], X.observables[1])
    rep = check_refined_rs(rho, X)
    tol = 1e-8 * rep2.scales["eq9a"]
    assert rep2.margins["eq9a"] >= -tol
    # eq9a bound on B is at least the refined bound delta^4
    d2 = rep2.delta_scalar**2
    assert d2 * (2 * rep2.A - d2) >= d2**2 - tol
    assert rep.margins["eq3"] >= -tol
    assert rep2.margins["second_root"] >= rep2.margins["impossibility"] - tol


@settings(max_examples=30, deadline=None)
@given(dim=dims, n=counts, seed=seeds)
def test_basis_invariance(dim, n, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(dim, "full", rng)
    X = random_observables(rng, dim, n)
    U = random_unitary(rng, dim)
    rho_u = DensityMatrix.from_matrix(U @ rho.matrix @ U.conj().T)
    X_u = ObservableSet.from_matrices([U @ M @ U.conj().T for M in X.observables])
    rep, rep_u = check_refined_rs(rho, X), check_refined_rs(rho_u, X_u)
    for key, val in rep.dets.items():
        assert abs(val - rep_u.dets[key]) <= 1e-8 * max(1.0, abs(val)), key
    # fractional powers of an exactly-singular determinant amplify eigenvalue
    # noise beyond any fixed tolerance; compare eq4 only on nondegenerate draws
    degenerate = min(rep.dets["sigma"], rep.dets["skew"], rep.dets["classical"]) < 1e-12
    for key, val in rep.margins.items():
        if degenerate and key in ("eq4a", "eq4b"):
            continue
        assert abs(val - rep_u.margins[key]) <= 1e-8 * rep.scales[key], key


# ------------------------------------------------------------ self-checks

def _instance(seed=3, dim=4, n=3):
    rng = np.random.default_rng(seed)
    return rng, random_density(dim, "full", rng), random_observables(rng, dim, n)


def test_corrupted_skew_fails_gram_check():
    _, rho, X = _instance()
    ctx = SpectralContext(rho, X)
    ctx.skew = 0.99 * ctx.skew
    with pytest.raises(ConstructionMismatch, match="Gram"):
        ctx.refined


def test_stack_in_wrong_basis_fails_mean_check():
    rng, rho, X = _instance()
    U = random_unitary(rng, rho.dim)
    wrong = DensityMatrix(matrix=rho.matrix, eigenvalues=rho.eigenvalues,
                          eigenvectors=rho.eigenvectors @ U)
    with pytest.raises(ConstructionMismatch, match="means"):
        check_refined_rs(wrong, X)


def test_corrupted_stack_fails_hilbert_schmidt_check():
    _, rho, X = _instance()
    ctx = SpectralContext(rho, X)
    A, means = ctx._stack
    E = np.zeros_like(A[0])
    E[0, 1], E[1, 0] = 1e-3j, -1e-3j     # Hermitian, zero diagonal: the means stay
    ctx._stack = (A + E, means)
    with pytest.raises(ConstructionMismatch, match="Tr"):
        ctx.refined


@pytest.mark.parametrize("seed", range(4))
def test_eigenbasis_gram_matches_input_basis_gram(seed):
    _, rho, X = _instance(seed, dim=5, n=2)
    V, lam = rho.eigenvectors, rho.eigenvalues
    R = (V * np.sqrt(lam)) @ V.conj().T
    means = [np.trace(rho.matrix @ M).real for M in X.observables]
    Xc = [M - m * np.eye(rho.dim) for M, m in zip(X.observables, means)]
    ops = [(R @ M + s * M @ R) / math.sqrt(2) for s in (1, -1) for M in Xc]
    gram = np.array([[np.trace(a.conj().T @ b) for b in ops] for a in ops])
    assert np.abs(check_refined_rs(rho, X).L - gram).max() <= 1e-12


# ---------------------------------------- stacks of sets given by their nonzeros

def _block_state(rng, sizes):
    """A state from the eigensystems of blocks on a shuffled partition of the basis (``from_blocks``):
    one part per block, and each basis index's block."""
    rows = np.split(rng.permutation(sum(sizes)), np.cumsum(sizes)[:-1])
    weights = [rng.uniform(0.1, 1.0, r.size) for r in rows]
    total = sum(w.sum() for w in weights)
    rho = DensityMatrix.from_blocks([(r, random_unitary(rng, r.size), w / total) for r, w in zip(rows, weights)])
    block = np.empty(rho.dim, dtype=int)
    for b, r in enumerate(rows):
        block[r] = b
    return rho, block


def _sparse_set(rng, n, block, inside):
    """n random Hermitian matrices given by their nonzeros: random values, some 0, at a random half
    of the positions (i, j) that link two blocks, and their mirrors; with ``inside``, also a real
    diagonal entry, a nonzero inside one block."""
    i, j = np.triu_indices(block.size, 1)
    links = rng.permutation(np.flatnonzero(block[i] != block[j]))[:np.count_nonzero(block[i] != block[j]) // 2]
    values = (rng.standard_normal((n, links.size)) + 1j * rng.standard_normal((n, links.size))) \
        * (rng.uniform(size=(n, links.size)) < 0.7)
    rows, cols = np.r_[i[links], j[links]], np.r_[j[links], i[links]]
    values = np.concatenate([values, np.conj(values)], axis=1)
    if inside:
        rows, cols = np.r_[rows, 0], np.r_[cols, 0]
        values = np.concatenate([values, rng.standard_normal((n, 1))], axis=1)
    return ObservableSet._from_nonzeros(block.size, rows, cols, values)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("case", ["between-parts", "inside-a-part", "no-parts"])
def test_stack_from_nonzeros_matches_the_dense_stack(case, n, seed):
    rng = np.random.default_rng([seed, n])
    rho, block = _block_state(rng, [1, 3, 2, 1, 4, 2])
    X = _sparse_set(rng, n, block, inside=case == "inside-a-part")
    if case == "no-parts":
        rho = DensityMatrix.from_matrix(rho.matrix)
    fast, dense = SpectralContext(rho, X), SpectralContext(rho, ObservableSet.from_matrices(X.observables))
    # the entry route when every nonzero links two parts; else the full route, with or without parts
    assert (fast.entries is not None) == (case == "between-parts") and (rho.parts is None) == (case == "no-parts")
    A = fast.stack
    if fast.entries is not None:    # scatter the values X_k = A_k[a, b]: A_k[b, a] = conj(X_k), 0 elsewhere
        A = np.zeros_like(dense.stack)
        A[:, :, fast.entries.a, fast.entries.b] = fast.stack
        A[:, :, fast.entries.b, fast.entries.a] = np.conj(fast.stack)
    scale = np.abs(dense.stack).max()
    assert np.abs(A - dense.stack).max() <= 1e-13 * scale
    assert np.abs(fast.means - dense.means).max() <= 1e-13 * scale
    rep, ref = fast.refined, dense.refined
    for key, margin in ref.margins.items():
        assert abs(rep.margins[key] - margin) <= 1e-12 * max(1.0, abs(margin)), key


def test_one_by_one_pair_without_a_nonzero_in_its_first_row():
    # the 1 x 1 parts {2} and {3} are linked by a zero-valued position (3, 2) listed without its
    # mirror; row 2 holds a nonzero at column 0 but none at column 3, so their block is 0
    rng = np.random.default_rng(7)
    rho = DensityMatrix.from_blocks([([r], random_unitary(rng, 1), [w]) for r, w in enumerate([0.4, 0.3, 0.2, 0.1])])
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    values = np.array([[v[0], np.conj(v[0]), v[1], np.conj(v[1]), 0]])
    X = ObservableSet._from_nonzeros(4, np.array([0, 1, 0, 2, 3]), np.array([1, 0, 2, 0, 2]), values)
    fast, dense = SpectralContext(rho, X), SpectralContext(rho, ObservableSet.from_matrices(X.observables))
    (a, b), A = fast.entries, np.zeros_like(dense.stack)
    A[:, :, a, b], A[:, :, b, a] = fast.stack, np.conj(fast.stack)
    assert np.abs(A - dense.stack).max() <= 1e-15
    (c_2,), (c_3,) = rho.parts[2][1][0], rho.parts[3][1][0]      # one part per block, in order
    assert fast.stack[0, 0, np.flatnonzero((a == c_2) & (b == c_3))] == 0


# ------------------------------------------------- eq8 and eq4 routes

def _eq7_eq8_flags(Lp, Lm, delta):
    """(eq7-psd, eq8-schur) violation flags of L = [[Lp, i delta], [i delta, Lm]] at the
    violation tolerance, eq8 through the engine's pivoted elimination."""
    L = np.block([[Lp, 1j * delta], [1j * delta, Lm]])
    flag7 = np.linalg.eigvalsh(L)[0] < -TOL_INEQ * mat_scale(L)
    m8, _ = _schur_margin(Lp[None], Lm[None], delta[None])
    return flag7, m8[0] < -TOL_INEQ * mat_scale(Lp)


@pytest.mark.parametrize("seed", range(12))
def test_eq8_flags_planted_violations(seed):
    rng = np.random.default_rng(seed)
    dim, n = 4, 2 + seed % 3
    rank = "full" if seed % 2 else 1
    ctx = SpectralContext(random_density(dim, rank, rng), random_observables(rng, dim, n))
    (Lp,), (Lm,) = ctx.blocks
    delta = np.imag(ctx.i_delta[0])
    assert _eq7_eq8_flags(Lp, Lm, delta) == (False, False)
    L = np.block([[Lp, 1j * delta], [1j * delta, Lm]])
    eps = 1e-6 * mat_scale(L)
    lam, Z = np.linalg.eigh(L)
    w, V = np.linalg.eigh(Lm)
    # t I off the sigma + c block takes lam[0] + eps off the Rayleigh quotient of L's lowest eigenvector
    t = (lam[0] + eps) / np.sum(np.abs(Z[:n, 0]) ** 2)
    planted = [
        (Lp - t * np.eye(n), Lm),
        (Lp, Lm - (w[0] + eps) * np.outer(V[:, 0], V[:, 0])),         # an eigenvector of sigma - c
        (Lp, Lm - (w[-1] + eps) * np.outer(V[:, -1], V[:, -1])),
    ]
    for k, (P, M) in enumerate(planted):
        assert _eq7_eq8_flags(P, M, delta) == (True, True), k


@pytest.mark.parametrize("p, violated", [(0.0, True), (1e-6, False)])
def test_eq8_near_null_pivot_stays_in_the_trailing_matrix(p, violated):
    # sigma - c has eigenvalue w0 = 1e-7 of its scale, inside (1e-9, 1e-6], on v0, which
    # delta couples to e2 with weight b = 2e-7; after the other two pivots L reads
    # [[p, b], [b, w0]] on (e2, v0): a violation along v0 exactly when p < b^2 / w0 = 4e-7
    w0, b = 1e-7, 2e-7
    delta = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])   # delta x = e3 cross x
    V = np.array([[b, 0.0, math.sqrt(1 - b * b)], [0.0, 1.0, 0.0], [math.sqrt(1 - b * b), 0.0, -b]]).T
    Lm = (V * [w0, 1.0, 0.5]) @ V.T
    dV = delta @ V
    Lp = dV[:, 1:] / [1.0, 0.5] @ dV[:, 1:].T + np.diag([1.0, p, 1.0])
    assert abs(dV[1, 0] - b) <= 1e-20 and np.abs(dV[[0, 2], 0]).max() == 0
    assert _eq7_eq8_flags(Lp, Lm, delta) == (violated, violated)
    m8, _ = _schur_margin(Lp[None], Lm[None], delta[None])
    expected = min(0.0, (p + w0 - math.hypot(p - w0, 2 * b)) / 2)     # the 2x2 block's lower eigenvalue
    assert abs(min(m8[0], 0.0) - expected) <= 1e-12


def test_det_root_counts_rounding_zeros_as_zero():
    # a rank-2 sigma whose zero eigenvalue computes as 1e-17: the root is exactly 0, not 1e-17^(1/3)
    w = np.array([[1e-17, 0.4, 0.6], [0.2, 0.3, 0.5]])
    roots = _det_root(w, 1 / 3)
    assert roots[0] == 0.0
    assert abs(roots[1] - 0.03 ** (1 / 3)) <= 1e-15
