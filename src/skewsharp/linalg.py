"""Complex Hermitian linear algebra with an explicit tolerance policy.

Matrix tolerances are relative to max(1, max|entry|) of the matrix at hand
(``mat_scale``); a state's spectrum is judged against max(1, max|w|) of that
spectrum (``spectrum_scale``), which bounds every entry of the state, so no
check of a spectrum reads the state's matrix:

* TOL_HERM / TOL_EIG = 1e-10  (Hermiticity deviation, eigenvector orthonormality)
* TOL_PSD            = 1e-9   (admissible negative-eigenvalue dip, rank cut)
* TOL_TRACE          = 1e-9   (density-matrix trace deviation)
* TOL_STATE_CLIP     = 1e-13  (state eigenvalues zeroed below it)

Eigenvalues in [-TOL_PSD, 0) are clipped to 0 before sqrt/ratio use; more
negative values are errors, never silently repaired.

A state checked against a partition (``DensityMatrix.from_matrix``) takes the
finite, Hermitian and trace checks on the nonzeros of A and A^T alone, with the
same tolerances, values and messages and no complex d x d temporary.
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


def spectrum_scale(w: np.ndarray):
    """Relative-tolerance scale max(1, max|w|) of a spectrum; for a stack (..., m), one per spectrum.

    For a Hermitian matrix max|w| is its spectral norm, which bounds every entry.
    """
    return np.fmax(1.0, np.abs(w).max(axis=-1, initial=0.0))


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


@dataclass(eq=False, frozen=True)
class DensityMatrix:
    """Validated quantum state with cached eigensystem.

    Eigenvalues are clipped to [0, ...] after the positivity check, so rank
    deficient (pure) states are safe inputs to sqrt/log-style maps.

    A state whose eigensystem was taken part by part is kept as its parts:
    ``parts`` holds per part size m one pair (rows, eigenvector columns) of
    (G, m) arrays for its G parts, the m eigenvectors of a part living on its m
    rows alone, and ``systems`` the matching pair (V (G, m, m), weights (G, m)),
    the weights as given, before the clip of ``eigenvalues``.
    Its dense ``matrix`` (unless it was the input) and ``eigenvectors`` are
    formed on their first read, from those parts.  A state from the one dense
    eigh records no parts.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(repr=False)   # clipped, descending
    eigenvectors: np.ndarray = field(repr=False)
    # set by ``_from_parts`` only: ``from_blocks``, and ``from_matrix`` when its partition holds
    parts: tuple | None = field(default=None, init=False, repr=False)
    systems: tuple | None = field(default=None, init=False, repr=False)

    def __getattr__(self, name):
        if name not in ("matrix", "eigenvectors") or self.parts is None:
            raise AttributeError(name)
        M = np.zeros((self.dim, self.dim), dtype=complex)
        for (r, c), (V, w) in zip(self.parts, self.systems):
            if name == "eigenvectors":
                M[r[:, :, None], c[:, None, :]] = V
            else:
                R = (V * w[:, None, :]) @ np.conj(V.swapaxes(1, 2))
                M[r[:, :, None], r[:, None, :]] = (R + np.conj(R.swapaxes(1, 2))) / 2
        return vars(self).setdefault(name, M)      # frozen: stored in the instance dict

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @classmethod
    def from_matrix(cls, rho: np.ndarray, partition=None) -> "DensityMatrix":
        """State from its matrix: finite entries, Hermitian part, unit trace, PSD spectrum.

        ``partition``, if given, is a sequence of index arrays that partition the
        basis.  Then the finite, Hermitian and trace checks run on the nonzeros of
        A and A^T alone (``_hermitian_nonzeros``), with the tolerances, values and
        messages of the dense checks, and the state's ``matrix`` is the Hermitian
        part scattered into zeros.  When every entry of the Hermitian part between
        two parts is exactly 0, the eigensystem is taken on the connected components
        of its nonzero pattern (``part_eigensystems``), and ``parts`` records them;
        any other state gets the one dense eigh and no record.
        """
        A = _square(rho, "state")[None]
        if partition is None:
            rho, w, V = validate_states(A)
        else:
            rows, cols, h = _hermitian_nonzeros(A[0])
            rho = np.zeros(A.shape, dtype=complex)
            rho[0, rows, cols] = h
            # the parts cover the basis: an edge leaves its part iff its ends carry different part labels
            label = np.empty(A.shape[-1], dtype=np.intp)
            for k, r in enumerate(_partition(partition, A.shape[-1])):
                label[r] = k
            if not np.any(label[rows] != label[cols]):
                return cls._from_parts(part_eigensystems(rows, cols, h, A.shape[-1]), rho[0])
            w, V = _spectra(rho)
        return cls(matrix=rho[0], eigenvalues=w[0], eigenvectors=V[0])

    @classmethod
    def from_blocks(cls, blocks) -> "DensityMatrix":
        """Block-diagonal state from the eigensystem of each block, with no eigh.

        ``blocks`` holds (rows, V_b, weights_b): the basis indices ``rows`` of the
        block, its eigenvectors V_b and their weights, checked as ``_from_parts``
        checks given eigensystems; each block is one part, recorded in ``parts`` with
        its eigenvector columns in the order of V_b.
        """
        return cls._from_parts([(np.asarray(r)[None], require_square(V, "eigenvector matrix")[None],
                                 np.asarray(w, dtype=float)[None]) for r, V, w in blocks], None)

    @classmethod
    def _from_parts(cls, parts, rho) -> "DensityMatrix":
        """The one constructor path of a state with an eigensystem per part.

        ``parts`` holds per part size m the eigensystems (rows (G, m), V (G, m, m),
        w (G, m)) of G parts.  ``rho`` is the state's checked Hermitian matrix, whose
        parts' eigh gave the eigensystems, or None when the eigensystems are the
        input: then the shapes agree, the weights are finite, each V is orthonormal
        within TOL_EIG, the parts' rows partition the basis and all weights sum to 1
        within TOL_TRACE, and no d x d array is formed.  The spectrum gets the PSD
        clip and zeroing of ``from_matrix``, its columns ordered by descending weight
        (stable in the order of ``parts``); ``parts`` records each part's (rows,
        columns) and ``systems`` its (V, w).
        """
        d = sum(r.size for r, _, _ in parts)
        if rho is None:
            for r, V, w in parts:
                if w.shape != r.shape or w.shape != V.shape[:2]:
                    raise DimensionMismatch(f"{w.shape} weights for {V.shape[-1]} eigenvectors on {r.shape} rows")
                raise_first(~np.isfinite(w).all(axis=-1), lambda: InvalidState("non-finite state weights"))
                dev = float(np.abs(np.conj(V.swapaxes(1, 2)) @ V - np.eye(V.shape[-1])).max())
                if dev > TOL_EIG:
                    raise InvalidState(f"eigenvectors not orthonormal: max|V^dag V - I| = {dev:.3e}")
            _partition([r for r, _, _ in parts], d)
            tr = float(sum(w.sum() for _, _, w in parts))
            if abs(tr - 1.0) > TOL_TRACE:
                raise InvalidState(f"state trace = {tr:.12g}, expected 1 within {TOL_TRACE:.1e}")
        w = np.concatenate([wp.ravel() for _, _, wp in parts])
        order = np.argsort(-w, kind="stable")
        # eigenvector i sits in column argsort(order)[i]: each part's columns, shaped as its rows
        columns = np.split(np.argsort(order), np.cumsum([r.size for r, _, _ in parts])[:-1])
        state = cls.__new__(cls)
        vars(state).update(eigenvalues=_clip_spectrum(w[order]), systems=tuple((V, wp) for _, V, wp in parts),
                           parts=tuple((r, c.reshape(r.shape)) for (r, _, _), c in zip(parts, columns)))
        if rho is not None:
            vars(state)["matrix"] = rho
        return state

    def rank(self) -> int:
        return int(np.count_nonzero(self.eigenvalues > TOL_PSD * spectrum_scale(self.eigenvalues)))

    def eigenvectors_times(self, t: np.ndarray) -> np.ndarray:
        """V t for eigenvector coefficients t (d,), part by part on a state with parts."""
        if self.parts is None:
            return self.eigenvectors @ t
        out = np.empty(t.shape, dtype=complex)      # every row lies in one part
        for (r, c), (V, _) in zip(self.parts, self.systems):
            out[r] = (V @ t[c][..., None])[..., 0]
        return out


def part_eigensystems(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, d: int) -> list[tuple]:
    """Eigensystems of a Hermitian d x d matrix M on its parts, the connected components of its
    nonzero pattern, from its nonzeros M[rows, cols] = values (each position once).

    One (rows (G, m), V (G, m, m), w (G, m)) per part size m: the G parts' rows
    in ascending order, and the eigenvectors and ascending eigenvalues of each
    M[rows, rows], filled from the nonzeros, from one batched eigh.  The components
    come from masked-min label propagation with pointer jumping on the edge list:
    each index takes the smallest label among itself and its neighbours, then its
    label's label, until nothing changes; then every index carries the smallest
    index of its component.
    """
    labels, new = None, np.arange(d)
    while not np.array_equal(labels, new):
        labels, new = new[new], new[new]
        np.minimum.at(new, rows, labels[cols])
    order = np.argsort(labels, kind="stable")       # one component after another
    size = np.bincount(labels)[labels]              # the size of each index's part
    slot, parts = np.empty(d, dtype=int), []
    for m in np.flatnonzero(np.bincount(size)):
        r = order[size[order] == m].reshape(-1, m)
        slot[r] = np.arange(r.size).reshape(r.shape)    # part p, place q: slot p m + q
        at = size[rows] == m
        block = np.zeros(r.size * m, dtype=complex)
        block[slot[rows[at]] * m + slot[cols[at]] % m] = values[at]
        parts.append((r, *np.linalg.eigh(block.reshape(-1, m, m))[::-1]))
    return parts


def _partition(parts, d: int) -> list[np.ndarray]:
    """The index arrays ``parts`` as integer arrays; DimensionMismatch unless they partition range(d)."""
    parts = [np.asarray(r, dtype=int).ravel() for r in parts]
    if not np.array_equal(np.sort(np.concatenate(parts or [np.empty(0, dtype=int)])), np.arange(d)):
        raise DimensionMismatch("block rows must partition the basis indices")
    return parts


def _hermitian_nonzeros(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros of the Hermitian part h = (A + A^dag)/2 of a state, as (rows, cols, h) in
    row-major order, checked as ``validate_states`` checks the dense matrix, with its values and
    messages: finite entries, max|A - A^dag| within TOL_HERM * ``mat_scale(A)``, and unit trace,
    summed over the d diagonal entries of h as ``np.trace`` sums them.

    The checks read A at the nonzero pattern of A and A^T, where a NaN or inf entry counts as
    nonzero; outside it A - A^dag and h are 0.  Of size d x d only a boolean mask is formed.
    """
    # the nonzero flags of an entry's real and imaginary part, read as one uint16
    nz = (np.ascontiguousarray(A).view(float) != 0).view(np.uint16) != 0
    k = np.flatnonzero(nz | nz.T)
    rows, cols = np.divmod(k, len(A))
    a, b = np.take(A, k), np.conj(np.take(A, cols * len(A) + rows))
    if not np.isfinite(a).all():
        raise SkewsharpError("state has non-finite entries")
    if (dev := np.abs(a - b).max(initial=0.0)) > TOL_HERM * mat_scale(a[None]):   # A's other entries are 0
        raise NonHermitianInput(f"state is non-Hermitian: max|A - A^dag| = {dev:.3e} "
                                f"exceeds tol {TOL_HERM:.1e} (relative)")
    tr = ((np.diagonal(A) + np.conj(np.diagonal(A))) / 2).sum().real
    if abs(tr - 1.0) > TOL_TRACE:
        raise InvalidState(f"state trace = {tr:.12g}, expected 1 within {TOL_TRACE:.1e}")
    h = (a + b) / 2
    return rows[h != 0], cols[h != 0], h[h != 0]


def _spectra(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clipped descending spectra and eigenvectors of checked states (B, d, d): one eigh each."""
    w, V = np.linalg.eigh(rho)
    return _clip_spectrum(w[..., ::-1].copy()), V[..., ::-1].copy()


def validate_states(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hermitian part, clipped descending spectrum and eigenvectors of each state in a stack (B, d, d).

    Every check (finite entries, Hermiticity, unit trace, PSD) runs on every
    state with that state's own scale; an error reports the first failing one.
    """
    rho = hermitian_parts(M, what="state")
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    raise_first(np.abs(tr - 1.0) > TOL_TRACE, lambda t: InvalidState(
        f"state trace = {t:.12g}, expected 1 within {TOL_TRACE:.1e}"), tr)
    return (rho, *_spectra(rho))


def _clip_spectrum(w: np.ndarray) -> np.ndarray:
    """Descending state spectra w (..., d), each against its own ``spectrum_scale``: eigenvalues
    in [-TOL_PSD * scale, 0) clipped to 0 (InvalidState below that), and zeroed below
    TOL_STATE_CLIP * scale."""
    scale, lo = spectrum_scale(w), w.min(axis=-1, initial=np.inf)
    raise_first(lo < -TOL_PSD * scale, lambda m, s: InvalidState(
        f"state not positive semidefinite: min eigenvalue {m:.3e} below -{TOL_PSD:.1e} * {s:.3e}"), lo, scale)
    w = np.maximum(w, 0.0)
    w[w < TOL_STATE_CLIP * np.expand_dims(scale, -1)] = 0.0
    return w
