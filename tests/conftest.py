import numpy as np
import pytest

from skewsharp.linalg import DensityMatrix
from skewsharp.skew import ObservableSet

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


@pytest.fixture
def pauli():
    return SX, SY, SZ


@pytest.fixture
def q1_state():
    """Saturating qubit fixture: rho = diag(3/4, 1/4)."""
    return DensityMatrix.from_matrix(np.diag([0.75, 0.25]).astype(complex))


@pytest.fixture
def q1_obs():
    return ObservableSet.from_matrices([SX, SY])


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (G + G.conj().T) / 2


def random_observables(rng: np.random.Generator, dim: int, n: int) -> ObservableSet:
    return ObservableSet.from_matrices([random_hermitian(rng, dim) for _ in range(n)])


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))
