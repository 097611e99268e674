"""Dense complex Hermitian linear algebra with an explicit tolerance policy.

All tolerances are relative to max(1, max|entry|) of the matrix at hand:

* TOL_HERM / TOL_EIG = 1e-10  (Hermiticity deviation, eigen reconstruction)
* TOL_PSD            = 1e-9   (admissible negative-eigenvalue dip)
* TOL_TRACE          = 1e-9   (density-matrix trace deviation)

Eigenvalues in [-tol_psd, 0) are clipped to 0 before sqrt/ratio use; more
negative values are errors, never silently repaired.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TOL_HERM = 1e-10
TOL_EIG = 1e-10
TOL_PSD = 1e-9
TOL_TRACE = 1e-9
# Eigenvalues of a state below this (relative) floor are zeroed: sqrt(rho) of
# eigenvalue noise ~1e-16 would otherwise inject ~1e-8 spurious components.
TOL_STATE_CLIP = 1e-13


class SkewsharpError(Exception):
    """Base class for all validation and contract errors."""


class NonHermitianInput(SkewsharpError):
    pass


class NotPSD(SkewsharpError):
    pass


class DimensionMismatch(SkewsharpError):
    pass


class InvalidState(SkewsharpError):
    """Density-matrix validation failure (trace, positivity)."""


def mat_scale(A: np.ndarray):
    """Relative-tolerance scale max(1, max|entry|); for a stack (..., m, m), one per matrix.

    A NaN entry is skipped, as in Python's ``max(1.0, nan)``.
    """
    A = np.asarray(A)
    if A.size == 0:
        return 1.0
    scale = np.fmax(1.0, np.abs(A).max(axis=(-2, -1)))
    return float(scale) if scale.ndim == 0 else scale


def raise_first(bad, error, *values) -> None:
    """Raise ``error(*v)``, each value v taken at the first instance flagged in ``bad``.

    A check on a stack runs on every instance at once with each instance's own
    scale; the error reports the first failing instance's values.
    """
    if np.count_nonzero(bad):
        i = int(np.argmax(bad))
        raise error(*(np.ravel(v)[i] for v in values))


def _square(A: np.ndarray, what: str) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got shape {A.shape}")
    return A


def require_square(A: np.ndarray, what: str = "matrix") -> np.ndarray:
    A = _square(A, what)
    if not np.all(np.isfinite(A)):
        raise SkewsharpError(f"{what} has non-finite entries")
    return A


def require_hermitian(A: np.ndarray, tol: float = TOL_HERM, what: str = "matrix") -> np.ndarray:
    """Validate A = A^dagger within tol * max(1, max|A|) and return the Hermitian part."""
    return hermitian_parts(_square(A, what), tol, what)


def hermitian_parts(A: np.ndarray, tol: float = TOL_HERM, what: str = "matrix") -> np.ndarray:
    """(A + A^dag)/2 for a matrix or a stack (..., m, m), checked matrix by matrix:
    finite entries and max|A - A^dag| within tol * mat_scale of that matrix."""
    if not np.isfinite(A).all():
        raise_first(~np.isfinite(A).all(axis=(-2, -1)), lambda: SkewsharpError(f"{what} has non-finite entries"))
    # A^dag is formed twice so that no matrix-sized temporary outlives its line (peak memory at d = 900)
    dev = np.abs(A - np.conj(A).swapaxes(-2, -1)).max(axis=(-2, -1))
    raise_first(dev > tol * mat_scale(A), lambda d: NonHermitianInput(
        f"{what} is non-Hermitian: max|A - A^dag| = {d:.3e} exceeds tol {tol:.1e} (relative)"
    ), dev)
    return (A + np.conj(A).swapaxes(-2, -1)) / 2


@dataclass(eq=False)
class EigenSystem:
    """Spectral decomposition with eigenvalues sorted in descending order."""

    eigenvalues: np.ndarray   # real, descending
    eigenvectors: np.ndarray  # orthonormal columns, eigenvectors[:, k] <-> eigenvalues[k]

    def reconstruct(self) -> np.ndarray:
        V = self.eigenvectors
        return (V * self.eigenvalues) @ V.conj().T


def spectral_decompose(A: np.ndarray, tol: float = TOL_HERM) -> EigenSystem:
    """Eigendecompose a Hermitian matrix; raises NonHermitianInput on bad input."""
    A = require_hermitian(A, tol)
    w, V = np.linalg.eigh(A)
    return EigenSystem(eigenvalues=w[::-1].copy(), eigenvectors=V[:, ::-1].copy())


def clip_psd_eigenvalues(w: np.ndarray, scale, tol: float = TOL_PSD) -> np.ndarray:
    """Clip eigenvalues in [-tol*scale, 0) to 0; raise NotPSD below that.

    A stack of spectra (..., m) takes one scale per spectrum.
    """
    lo = w.min(axis=-1, initial=np.inf)
    raise_first(lo < -tol * scale, lambda m, s: NotPSD(f"min eigenvalue {m:.3e} below -{tol:.1e} * {s:.3e}"),
                lo, scale)
    return np.maximum(w, 0.0)


def matrix_sqrt_psd(A: np.ndarray, tol_psd: float = TOL_PSD) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix via eigendecomposition."""
    es = spectral_decompose(A)
    w = clip_psd_eigenvalues(es.eigenvalues, mat_scale(A), tol_psd)
    V = es.eigenvectors
    R = (V * np.sqrt(w)) @ V.conj().T
    return (R + R.conj().T) / 2


@dataclass(eq=False)
class PsdCheck:
    verdict: bool
    min_eigenvalue: float


def is_psd(A: np.ndarray, tol: float = TOL_PSD) -> PsdCheck:
    """PSD verdict against -tol * max(1, max|A|); reports the raw min eigenvalue."""
    A = require_hermitian(A)
    w = np.linalg.eigvalsh(A)
    lo = float(w[0]) if w.size else 0.0
    return PsdCheck(verdict=lo >= -tol * mat_scale(A), min_eigenvalue=lo)


def det_hermitian(A: np.ndarray) -> float:
    """Determinant of a Hermitian matrix as the product of its eigenvalues."""
    A = require_hermitian(A)
    w = np.linalg.eigvalsh(A)
    return float(np.prod(w)) if w.size else 1.0


@dataclass(eq=False, frozen=True)
class DensityMatrix:
    """Validated quantum state with cached eigensystem.

    Eigenvalues are clipped to [0, ...] after the positivity check, so rank
    deficient (pure) states are safe inputs to sqrt/log-style maps.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(repr=False)   # clipped, descending
    eigenvectors: np.ndarray = field(repr=False)
    # (rows, eigenvector columns) of each invariant block; set by ``from_blocks``, and by
    # ``from_matrix`` when its partition holds, only
    blocks: tuple | None = field(default=None, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, rho: np.ndarray, tol_trace: float = TOL_TRACE,
                    tol_psd: float = TOL_PSD, partition=None) -> "DensityMatrix":
        """State from its matrix: finite entries, Hermitian part, unit trace, PSD spectrum.

        ``partition``, if given, is a sequence of index arrays that partition the
        basis.  When every entry of the Hermitian part between two parts is
        exactly 0, each part gets its own eigh and ``blocks`` is recorded as by
        ``from_blocks``; any other state gets the one dense eigh and no blocks.
        """
        M = _square(rho, "state")[None]
        if partition is None:
            rho, w, V = validate_states(M, tol_trace, tol_psd)
            return cls(matrix=rho[0], eigenvalues=w[0], eigenvectors=V[0])
        rho = _unit_trace_hermitian(M, tol_trace)
        parts = _partition(partition, rho.shape[-1])
        # the Hermitian part is exactly Hermitian: the parts above the diagonal suffice
        if any(np.count_nonzero(rho[0][np.ix_(r, s)]) for i, r in enumerate(parts) for s in parts[i + 1:]):
            w, V = _spectra(rho, tol_psd)
            return cls(matrix=rho[0], eigenvalues=w[0], eigenvectors=V[0])
        rho = rho[0]
        eig = [np.linalg.eigh(rho[np.ix_(r, r)]) for r in parts]
        w, V, record = _embed([(r, Vb, wb) for r, (wb, Vb) in zip(parts, eig)])
        return cls._with_blocks(rho, _clip_spectrum(rho, w, tol_psd), V, record)

    @classmethod
    def from_eigensystem(cls, V: np.ndarray, weights: np.ndarray) -> "DensityMatrix":
        """State V diag(weights) V^dag from a known eigensystem, with no second eigh: one block."""
        V = require_square(V, "eigenvector matrix")
        return cls.from_blocks([(np.arange(V.shape[0]), V, weights)])

    @classmethod
    def from_blocks(cls, blocks) -> "DensityMatrix":
        """Block-diagonal state from the eigensystem of each block, with no eigh.

        ``blocks`` holds (rows, V_b, weights_b): the basis indices ``rows`` of the
        block, its eigenvectors V_b (orthonormal columns, max|V_b^dag V_b - I|
        within TOL_EIG) and their weights.  The rows partition the basis, all
        weights together sum to 1 within TOL_TRACE and get the same PSD clip and
        zeroing as ``from_matrix``.  Each block of rho is V_b diag(weights_b) V_b^dag; the
        eigenvectors are the V_b embedded in the full basis, in descending weight
        order, and ``blocks`` records each block's (rows, eigenvector columns).
        """
        checked = []
        for r, V, w in blocks:
            r, V, w = np.asarray(r), require_square(V, "eigenvector matrix"), np.asarray(w, dtype=float)
            if w.shape != V.shape[:1] or w.shape != r.shape:
                raise DimensionMismatch(f"{w.shape} weights for {V.shape[0]} eigenvectors on {r.size} rows")
            if not np.all(np.isfinite(w)):
                raise InvalidState("state weights have non-finite entries")
            dev = float(np.abs(V.conj().T @ V - np.eye(V.shape[0])).max())
            if dev > TOL_EIG:
                raise InvalidState(f"eigenvectors not orthonormal: max|V^dag V - I| = {dev:.3e}")
            checked.append((r, V, w))
        d = sum(r.size for r, _, _ in checked)
        _partition([r for r, _, _ in checked], d)
        tr = float(np.concatenate([w for _, _, w in checked]).sum())
        if abs(tr - 1.0) > TOL_TRACE:
            raise InvalidState(f"state trace = {tr:.12g}, expected 1 within {TOL_TRACE:.1e}")
        rho = np.zeros((d, d), dtype=complex)
        for r, V, w in checked:
            R = (V * w) @ V.conj().T
            rho[np.ix_(r, r)] = (R + R.conj().T) / 2
        w, V, record = _embed(checked)
        return cls._with_blocks(rho, _clip_spectrum(rho, w, TOL_PSD), V, record)

    @classmethod
    def _with_blocks(cls, rho, eigenvalues, eigenvectors, record) -> "DensityMatrix":
        state = cls(matrix=rho, eigenvalues=eigenvalues, eigenvectors=eigenvectors)
        object.__setattr__(state, "blocks", record)
        return state

    def expectation(self, X: np.ndarray) -> float:
        return float(np.trace(self.matrix @ X).real)

    def rank(self, tol: float = TOL_PSD) -> int:
        return int(np.count_nonzero(self.eigenvalues > tol * mat_scale(self.matrix)))


def _partition(parts, d: int) -> list[np.ndarray]:
    """The index arrays ``parts`` as integer arrays; DimensionMismatch unless they partition range(d)."""
    parts = [np.asarray(r, dtype=int).ravel() for r in parts]
    if not np.array_equal(np.sort(np.concatenate(parts or [np.empty(0, dtype=int)])), np.arange(d)):
        raise DimensionMismatch("block rows must partition the basis indices")
    return parts


def _embed(blocks) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Descending spectrum, eigenvectors and block record of a block-diagonal state.

    ``blocks`` holds (rows, V_b, weights_b) on a partition of the basis.  Each
    V_b is embedded at its rows, in the columns its weights take in descending
    (stable) order; the record holds each block's (rows, eigenvector columns).
    """
    w = np.concatenate([wb for _, _, wb in blocks])
    d = w.size
    order = np.argsort(-w, kind="stable")
    column = np.empty(d, dtype=int)
    column[order] = np.arange(d)                 # eigenvector i sits in column column[i]
    eigenvectors = np.zeros((d, d), dtype=complex)
    record, start = [], 0
    for r, V, _ in blocks:
        cols = column[start:start + r.size]
        start += r.size
        eigenvectors[np.ix_(r, cols)] = V
        record.append((r, cols))
    return w[order], eigenvectors, tuple(record)


def _unit_trace_hermitian(M: np.ndarray, tol_trace: float) -> np.ndarray:
    """Hermitian parts of a stack of states (B, d, d), each checked for finite entries,
    Hermiticity and unit trace with its own scale."""
    rho = hermitian_parts(M, what="state")
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    raise_first(np.abs(tr - 1.0) > tol_trace, lambda t: InvalidState(
        f"state trace = {t:.12g}, expected 1 within {tol_trace:.1e}"), tr)
    return rho


def _spectra(rho: np.ndarray, tol_psd: float) -> tuple[np.ndarray, np.ndarray]:
    """Clipped descending spectra and eigenvectors of checked states (B, d, d): one eigh each."""
    w, V = np.linalg.eigh(rho)
    return _clip_spectrum(rho, w[..., ::-1].copy(), tol_psd), V[..., ::-1].copy()


def validate_states(M: np.ndarray, tol_trace: float = TOL_TRACE,
                    tol_psd: float = TOL_PSD) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hermitian part, clipped descending spectrum and eigenvectors of each state in a stack (B, d, d).

    Every check (finite entries, Hermiticity, unit trace, PSD) runs on every
    state with that state's own scale; an error reports the first failing one.
    """
    rho = _unit_trace_hermitian(M, tol_trace)
    return (rho, *_spectra(rho, tol_psd))


def _clip_spectrum(rho: np.ndarray, w: np.ndarray, tol_psd: float) -> np.ndarray:
    """Descending spectra w of the states rho clipped to >= 0, zeroed below TOL_STATE_CLIP."""
    scale = mat_scale(rho)
    try:
        w = clip_psd_eigenvalues(w, scale, tol_psd)
    except NotPSD as exc:
        raise InvalidState(f"state not positive semidefinite: {exc}") from exc
    w[w < TOL_STATE_CLIP * np.expand_dims(scale, -1)] = 0.0
    return w
