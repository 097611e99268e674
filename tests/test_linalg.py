import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skewsharp.linalg import (
    DensityMatrix,
    DimensionMismatch,
    InvalidState,
    NonHermitianInput,
    SkewsharpError,
    part_eigensystems,
)

from conftest import random_unitary


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


def _eigensystem(seed, dim=6):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 1.0, dim)
    w[-2:] = [1e-15, 0.0]        # zeroed by TOL_STATE_CLIP in both constructors
    return random_unitary(rng, dim), w / w.sum()


@pytest.mark.parametrize("seed", range(6))
def test_from_eigensystem_agrees_with_from_matrix(seed):
    V, w = _eigensystem(seed)
    order = np.random.default_rng(seed).permutation(len(w))   # unsorted input
    a = DensityMatrix.from_blocks([(np.arange(V.shape[0]), V[:, order], w[order])])
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
    rho = DensityMatrix.from_blocks([(np.arange(V.shape[0]), V, w / w.sum())])
    assert rho.eigenvalues.min() == 0.0


def test_from_eigensystem_rejects_bad_input():
    V, w = _eigensystem(1)
    skewed = V.copy()
    skewed[:, 0] *= 1 + 1e-6
    with pytest.raises(InvalidState, match="orthonormal"):
        DensityMatrix.from_blocks([(np.arange(skewed.shape[0]), skewed, w)])
    with pytest.raises(InvalidState, match="trace"):
        DensityMatrix.from_blocks([(np.arange(V.shape[0]), V, 1.01 * w)])
    negative = w.copy()
    negative[0] += 1e-6
    negative[-1] = -1e-6
    with pytest.raises(InvalidState, match="positive"):
        DensityMatrix.from_blocks([(np.arange(V.shape[0]), V, negative)])
    bad = w.copy()
    bad[0] = np.nan
    with pytest.raises(InvalidState, match="non-finite"):
        DensityMatrix.from_blocks([(np.arange(V.shape[0]), V, bad)])
    bad = V.copy()
    bad[0, 0] = np.nan
    with pytest.raises(SkewsharpError, match="non-finite"):
        DensityMatrix.from_blocks([(np.arange(bad.shape[0]), bad, w)])


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
    for (r, V, w), (rows, cols) in zip(blocks, a.parts):
        assert np.array_equal(rows[0], r)
        assert np.array_equal(a.eigenvectors[np.ix_(r, cols[0])], V)
        assert np.abs(np.delete(a.eigenvectors[:, cols[0]], r, axis=0)).max(initial=0.0) == 0.0
    assert b.parts is None


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
    nan = w1.copy()
    nan[0] = np.nan
    with pytest.raises(InvalidState, match="non-finite"):
        DensityMatrix.from_blocks([(r0, V0, w0), (r1, V1, nan)])
    # a state kept as its parts forms no dense array: each check above ran in from_blocks itself
    assert not {"matrix", "eigenvectors"} & set(vars(DensityMatrix.from_blocks(blocks)))


@pytest.mark.parametrize("seed", range(4))
def test_from_matrix_partition_matches_dense_eigh(seed):
    blocks = _block_eigensystems(seed, sizes=(2, 3, 4))
    d = sum(r.size for r, _, _ in blocks)
    dense = np.zeros((d, d), dtype=complex)
    for r, V, w in blocks:
        dense[np.ix_(r, r)] = (V * w) @ V.conj().T
    rows = [r for r, _, _ in blocks]
    a, b = DensityMatrix.from_matrix(dense, partition=rows), DensityMatrix.from_matrix(dense)
    assert np.array_equal(a.matrix, b.matrix) and b.parts is None
    assert np.abs(a.eigenvalues - b.eigenvalues).max() <= 1e-14
    P = (a.eigenvectors * a.eigenvalues) @ a.eigenvectors.conj().T
    assert np.abs(P - b.matrix).max() <= 1e-14
    # one part per block, in ascending size (2, 3, 4), its rows sorted
    for r, (rows_p, cols) in zip(rows, a.parts):
        assert np.array_equal(rows_p[0], np.sort(r))
        assert np.abs(np.delete(a.eigenvectors[:, cols[0]], r, axis=0)).max(initial=0.0) == 0.0
    # a coupling of two parts, however small, takes the dense eigh and records no parts
    coupled = dense.copy()
    coupled[rows[0][0], rows[2][0]] = coupled[rows[2][0], rows[0][0]] = 1e-300
    c = DensityMatrix.from_matrix(coupled, partition=rows)
    assert c.parts is None
    assert np.array_equal(c.eigenvectors, DensityMatrix.from_matrix(coupled).eigenvectors)


def test_from_matrix_rejects_a_partition_that_is_not_one():
    rho = np.eye(4, dtype=complex) / 4
    for parts in ([[0, 1], [2]], [[0, 1], [1, 2, 3]], [[0, 1], [2, 3, 4]]):
        with pytest.raises(DimensionMismatch, match="partition"):
            DensityMatrix.from_matrix(rho, partition=parts)


def test_recorded_blocks_are_not_assignable():
    # the parts select the entry route of the quadratures' stack: only from_blocks and a
    # from_matrix partition that holds set them
    rho = DensityMatrix.from_blocks(_block_eigensystems(3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        rho.parts = None
    with pytest.raises(TypeError):
        DensityMatrix(matrix=rho.matrix, eigenvalues=rho.eigenvalues, eigenvectors=rho.eigenvectors,
                      parts=rho.parts)


def _dense_pattern_parts(M):
    """Reference: the components of M's nonzero pattern by masked-min label propagation on the
    dense d x d pattern, and one eigh per part size of the parts' blocks gathered from M."""
    linked, labels, new = M != 0, None, np.arange(M.shape[0])
    while not np.array_equal(labels, new):
        labels = new[new]
        new = np.where(linked, labels, labels[:, None]).min(axis=1)
    rows = np.argsort(labels, kind="stable")
    size = np.bincount(labels)[labels[rows]]
    return [(r, *np.linalg.eigh(M[r[:, :, None], r[:, None, :]])[::-1])
            for r in (rows[size == m].reshape(-1, m) for m in np.flatnonzero(np.bincount(size)))]


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 40), density=st.floats(0.0, 0.2), seed=st.integers(0, 2**32 - 1))
def test_edge_list_parts_match_the_dense_pattern(d, density, seed):
    rng = np.random.default_rng(seed)
    G = np.where(rng.uniform(size=(d, d)) < density, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)), 0)
    M = G + G.conj().T
    M[rng.uniform(size=(d, d)) < np.eye(d) / 2] = 0     # some isolated indices carry no entry at all
    # the zeros are +0 (an edge list has no signed zeros), so the blocks are equal bit for bit
    assert not np.signbit(M.view(float)[M.view(float) == 0]).any()
    rows, cols = np.nonzero(M)
    got, ref = part_eigensystems(rows, cols, M[rows, cols], d), _dense_pattern_parts(M)
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))      # rows, eigenvectors, eigenvalues
