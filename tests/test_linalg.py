import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewsharp.linalg import (
    DensityMatrix,
    DimensionMismatch,
    InvalidState,
    NonHermitianInput,
    NotPSD,
    SkewsharpError,
    det_hermitian,
    is_psd,
    matrix_sqrt_psd,
    spectral_decompose,
)

from conftest import SX, random_hermitian, random_unitary


def test_spectral_identity():
    es = spectral_decompose(np.eye(2, dtype=complex))
    assert np.allclose(es.eigenvalues, [1.0, 1.0])
    assert np.allclose(es.eigenvectors.conj().T @ es.eigenvectors, np.eye(2))


def test_spectral_diagonal_descending():
    es = spectral_decompose(np.diag([0.25, 0.75]).astype(complex))
    assert np.allclose(es.eigenvalues, [0.75, 0.25])
    assert np.allclose(np.abs(es.eigenvectors), [[0, 1], [1, 0]])


def test_spectral_pauli_x():
    es = spectral_decompose(SX)
    assert np.allclose(es.eigenvalues, [1.0, -1.0])
    v = es.eigenvectors[:, 0]
    assert np.allclose(np.abs(v), [1 / np.sqrt(2)] * 2)


def test_spectral_rejects_nonhermitian():
    with pytest.raises(NonHermitianInput):
        spectral_decompose(np.array([[0, 1], [0, 0]], dtype=complex))


def test_sqrt_diagonal():
    assert np.allclose(matrix_sqrt_psd(np.diag([4.0, 9.0]).astype(complex)), np.diag([2.0, 3.0]))
    assert np.allclose(matrix_sqrt_psd(np.eye(3, dtype=complex)), np.eye(3))
    R = matrix_sqrt_psd(np.diag([0.75, 0.25]).astype(complex))
    assert np.allclose(R, np.diag([np.sqrt(3) / 2, 0.5]))


def test_sqrt_rejects_negative():
    with pytest.raises(NotPSD):
        matrix_sqrt_psd(np.diag([1.0, -0.1]).astype(complex))


def test_is_psd_reports_min_eigenvalue():
    chk = is_psd(np.eye(4, dtype=complex), tol=1e-9)
    assert chk.verdict and np.isclose(chk.min_eigenvalue, 1.0)
    chk = is_psd(np.diag([1.0, -0.1]).astype(complex), tol=1e-9)
    assert not chk.verdict and np.isclose(chk.min_eigenvalue, -0.1)


def test_det_examples():
    assert np.isclose(det_hermitian(np.diag([2.0, 3.0]).astype(complex)), 6.0)
    assert np.isclose(det_hermitian(np.eye(5, dtype=complex)), 1.0)
    # i*delta for the saturating qubit fixture: eigenvalues +-1/2
    i_delta = np.array([[0, -0.5j], [0.5j, 0]])
    assert np.isclose(det_hermitian(i_delta), -0.25)
    assert np.isclose(abs(det_hermitian(i_delta)), 0.25)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
def test_reconstruction_property(dim, seed):
    A = random_hermitian(np.random.default_rng(seed), dim)
    es = spectral_decompose(A)
    scale = max(1.0, np.abs(A).max())
    assert np.abs(es.reconstruct() - A).max() <= 1e-10 * scale
    assert np.abs(es.eigenvectors.conj().T @ es.eigenvectors - np.eye(dim)).max() <= 1e-10
    assert np.all(np.diff(es.eigenvalues) <= 1e-12)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_sqrt_squares_back(dim, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    A = G @ G.conj().T
    R = matrix_sqrt_psd(A)
    assert np.abs(R @ R - A).max() <= 1e-10 * max(1.0, np.abs(A).max())
    assert np.linalg.eigvalsh(R)[0] >= -1e-12 * max(1.0, np.abs(R).max())


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_det_matches_lu(dim, seed):
    A = random_hermitian(np.random.default_rng(seed), dim)
    d_eig = det_hermitian(A)
    d_lu = np.linalg.det(A)  # LU-based reference
    assert abs(d_lu.imag) <= 1e-10 * max(1.0, abs(d_lu))
    assert np.isclose(d_eig, d_lu.real, rtol=1e-10, atol=1e-13)


def test_density_matrix_validation():
    rho = DensityMatrix.from_matrix(np.diag([0.75, 0.25]).astype(complex))
    assert rho.dim == 2 and np.allclose(rho.eigenvalues, [0.75, 0.25])
    V = rho.eigenvectors
    assert np.allclose((V * np.sqrt(rho.eigenvalues)) @ V.conj().T, np.diag([np.sqrt(3) / 2, 0.5]))
    with pytest.raises(InvalidState, match="trace"):
        DensityMatrix.from_matrix(np.diag([0.7, 0.2]).astype(complex))
    with pytest.raises(InvalidState):
        DensityMatrix.from_matrix(np.diag([1.2, -0.2]).astype(complex))
    with pytest.raises(NonHermitianInput):
        DensityMatrix.from_matrix(np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex))


def test_density_clips_tiny_negative():
    rho = DensityMatrix.from_matrix(np.diag([1.0 + 5e-10, -5e-10]).astype(complex))
    assert rho.eigenvalues[-1] == 0.0
    assert rho.rank() == 1


def test_basis_freedom_in_degenerate_subspace():
    # formulas downstream only use the eigenprojections; reconstruct must match
    A = np.diag([2.0, 2.0, 1.0]).astype(complex)
    es = spectral_decompose(A)
    assert np.abs(es.reconstruct() - A).max() <= 1e-12


def _eigensystem(seed, dim=6):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 1.0, dim)
    w[-2:] = [1e-15, 0.0]        # zeroed by TOL_STATE_CLIP in both constructors
    return random_unitary(rng, dim), w / w.sum()


@pytest.mark.parametrize("seed", range(6))
def test_from_eigensystem_agrees_with_from_matrix(seed):
    V, w = _eigensystem(seed)
    order = np.random.default_rng(seed).permutation(len(w))   # unsorted input
    a = DensityMatrix.from_eigensystem(V[:, order], w[order])
    b = DensityMatrix.from_matrix((V * w) @ V.conj().T)
    assert np.abs(a.matrix - b.matrix).max() <= 1e-13
    assert np.abs(a.eigenvalues - b.eigenvalues).max() <= 1e-13
    assert np.all(np.diff(a.eigenvalues) <= 0) and a.rank() == b.rank() == len(w) - 2
    for rho in (a, b):
        P = (rho.eigenvectors * rho.eigenvalues) @ rho.eigenvectors.conj().T
        assert np.abs(P - b.matrix).max() <= 1e-13


def test_from_eigensystem_clips_tiny_negative_weight():
    V, w = _eigensystem(0)
    w[-1] = -5e-10
    rho = DensityMatrix.from_eigensystem(V, w / w.sum())
    assert rho.eigenvalues.min() == 0.0


def test_from_eigensystem_rejects_bad_input():
    V, w = _eigensystem(1)
    skewed = V.copy()
    skewed[:, 0] *= 1 + 1e-6
    with pytest.raises(InvalidState, match="orthonormal"):
        DensityMatrix.from_eigensystem(skewed, w)
    with pytest.raises(InvalidState, match="trace"):
        DensityMatrix.from_eigensystem(V, 1.01 * w)
    negative = w.copy()
    negative[0] += 1e-6
    negative[-1] = -1e-6
    with pytest.raises(InvalidState, match="positive"):
        DensityMatrix.from_eigensystem(V, negative)
    bad = w.copy()
    bad[0] = np.nan
    with pytest.raises(InvalidState, match="non-finite"):
        DensityMatrix.from_eigensystem(V, bad)
    bad = V.copy()
    bad[0, 0] = np.nan
    with pytest.raises(SkewsharpError, match="non-finite"):
        DensityMatrix.from_eigensystem(bad, w)


def _block_eigensystems(seed, sizes=(3, 4)):
    """Eigensystems of the blocks of a state on a shuffled partition of the basis."""
    rng = np.random.default_rng(seed)
    rows = np.split(rng.permutation(sum(sizes)), np.cumsum(sizes)[:-1])
    weights = [rng.uniform(0.0, 1.0, size) for size in sizes]
    total = sum(w.sum() for w in weights)
    return [(r, random_unitary(rng, r.size), w / total) for r, w in zip(rows, weights)]


@pytest.mark.parametrize("seed", range(4))
def test_from_blocks_agrees_with_from_matrix(seed):
    blocks = _block_eigensystems(seed)
    dense = np.zeros((7, 7), dtype=complex)
    for r, V, w in blocks:
        dense[np.ix_(r, r)] = (V * w) @ V.conj().T
    a, b = DensityMatrix.from_blocks(blocks), DensityMatrix.from_matrix(dense)
    assert np.abs(a.matrix - b.matrix).max() <= 1e-13
    assert np.abs(a.eigenvalues - b.eigenvalues).max() <= 1e-13
    assert np.all(np.diff(a.eigenvalues) <= 0)
    P = (a.eigenvectors * a.eigenvalues) @ a.eigenvectors.conj().T
    assert np.abs(P - b.matrix).max() <= 1e-13
    # each recorded block: its eigenvector columns live on its rows alone
    for (r, V, w), (rows, cols) in zip(blocks, a.blocks):
        assert np.array_equal(rows, r)
        assert np.array_equal(a.eigenvectors[np.ix_(r, cols)], V)
        assert np.abs(np.delete(a.eigenvectors[:, cols], r, axis=0)).max(initial=0.0) == 0.0
    assert b.blocks is None


def test_from_blocks_rejects_bad_input():
    blocks = _block_eigensystems(7)
    (r0, V0, w0), (r1, V1, w1) = blocks
    with pytest.raises(DimensionMismatch, match="partition"):
        DensityMatrix.from_blocks([(r0, V0, w0), (r0[:1].tolist() + r1[1:].tolist(), V1, w1)])
    with pytest.raises(DimensionMismatch, match="weights"):
        DensityMatrix.from_blocks([(r0, V0, w0), (r1[1:], V1, w1)])
    with pytest.raises(InvalidState, match="orthonormal"):
        DensityMatrix.from_blocks([(r0, V0, w0), (r1, V1 * (1 + 1e-6), w1)])
    with pytest.raises(InvalidState, match="trace"):
        DensityMatrix.from_blocks([(r0, V0, w0), (r1, V1, 1.01 * w1)])


@pytest.mark.parametrize("seed", range(4))
def test_from_matrix_partition_matches_dense_eigh(seed):
    blocks = _block_eigensystems(seed, sizes=(2, 3, 4))
    d = sum(r.size for r, _, _ in blocks)
    dense = np.zeros((d, d), dtype=complex)
    for r, V, w in blocks:
        dense[np.ix_(r, r)] = (V * w) @ V.conj().T
    rows = [r for r, _, _ in blocks]
    a, b = DensityMatrix.from_matrix(dense, partition=rows), DensityMatrix.from_matrix(dense)
    assert np.array_equal(a.matrix, b.matrix) and b.blocks is None
    assert np.abs(a.eigenvalues - b.eigenvalues).max() <= 1e-14
    P = (a.eigenvectors * a.eigenvalues) @ a.eigenvectors.conj().T
    assert np.abs(P - b.matrix).max() <= 1e-14
    for r, (rows_b, cols) in zip(rows, a.blocks):
        assert np.array_equal(rows_b, r)
        assert np.abs(np.delete(a.eigenvectors[:, cols], r, axis=0)).max(initial=0.0) == 0.0
    # a coupling of two parts, however small, takes the dense eigh and records no blocks
    coupled = dense.copy()
    coupled[rows[0][0], rows[2][0]] = coupled[rows[2][0], rows[0][0]] = 1e-300
    c = DensityMatrix.from_matrix(coupled, partition=rows)
    assert c.blocks is None
    assert np.array_equal(c.eigenvectors, DensityMatrix.from_matrix(coupled).eigenvectors)


def test_from_matrix_rejects_a_partition_that_is_not_one():
    rho = np.eye(4, dtype=complex) / 4
    for parts in ([[0, 1], [2]], [[0, 1], [1, 2, 3]], [[0, 1], [2, 3, 4]]):
        with pytest.raises(DimensionMismatch, match="partition"):
            DensityMatrix.from_matrix(rho, partition=parts)


def test_recorded_blocks_are_not_assignable():
    # the blocks select the parity route of the quadratures' stack: only from_blocks and a
    # from_matrix partition that holds set them
    rho = DensityMatrix.from_blocks(_block_eigensystems(3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        rho.blocks = None
    with pytest.raises(TypeError):
        DensityMatrix(matrix=rho.matrix, eigenvalues=rho.eigenvalues, eigenvectors=rho.eigenvectors,
                      blocks=rho.blocks)
