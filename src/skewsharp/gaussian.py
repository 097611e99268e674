"""Bosonic machinery: quadratic generators, exact thermal moments, Fock-space truncation.

Ladder ordering is Lambda = (a1^dag..an^dag, a1..an) and the symplectic form is
J = [[0, I], [-I, 0]].  A quadratic generator is stored through the symmetric
matrix S (the quadratic-form coefficient of (1/2) Lambda S Lambda^T); the
drift matrix is N = -S J, and the thermal state at inverse temperature beta
has M = exp(-beta N) with

    C = J (M - I)^(-1),            C[k, j] = <Lambda_k Lambda_j>,
    sigma = (C^T + C) / 2,   c = C sqrt(M),   delta = J / 2.

These moments take one route for every beta and spectral radius: the
eigensystem N = P diag(w) P^(-1) of the drift (a near-defective P, cond above
1e10, is an InvalidGenerator), on which M - I, C, c and C M are scalar
functions of y = beta w, evaluated as arrays (``_moments_from_drift``).  Nothing
is exponentiated as a matrix, so large |beta w| neither overflows nor cancels,
and small |beta w| keeps its digits through expm1: the moments are exact for
every beta w that is not 0 to double precision, and where it is 0 (M - I
singular) they do not exist (SingularM).  The identities C^T - C = J and
C^T = C M are checked on every result.

Hermiticity of the generator is the reality constraint Pi conj(S) Pi = S with
Pi the block swap [[0, I], [I, 0]].  The product of the determinants of
sigma +- c equals det(J/2)^2 for every admissible generator: thermal states of
quadratic generators saturate the refined determinant relation, and any gap
reported downstream measures non-Gaussianity.

Quadrature observables are ordered X = (x_1..x_n, p_1..p_n) with
x = (a^dag + a)/sqrt(2), p = i(a^dag - a)/sqrt(2); in that basis the
commutator convention of :mod:`skewsharp.skew` gives the constant real
antisymmetric matrix [[0, -I/2], [I/2, 0]].

The truncated Fock space (cutoff levels per mode, Kronecker order) carries exact
structure that the d = cutoff^n numerics use.  It is stated once, in the basis
record ``FockBasis`` (built once per size by ``fock_basis``, which checks the
size): the dimension, the stride and the photon number of each mode at each
index, the parity of each index and the link table of every ladder operator.
Its operators are read from that record and kept as the (row, column, value)
triples of their nonzeros: a ladder operator moves one mode's digit of the
Kronecker index by +-1 with coefficient sqrt(n), so the truncated H
(``_fock_hamiltonian``, two link steps per term) has a few nonzeros per row.
The thermal state is kept as the eigensystems of its parts, so the thermal path
forms no d x d matrix: the state's dense matrix and eigenvectors are formed only
if a caller reads them.  A quadratic generator
changes the total photon number by 0 or +-2, so the truncated H has exactly zero
entries between even and odd n_1 + ... + n_n: ``fock_truncate_thermal`` checks
that triple by triple, and inside the two parity classes takes the connected
components of H's nonzero pattern as its parts (``linalg.part_eigensystems`` on
the triples as an edge list), one eigensystem each and one batched eigh per part
size: uncoupled modes give 1 x 1 parts (H is diagonal), a beamsplitter coupling
the photon-number shells, squeezing the two parity classes themselves.  The
state records the parts (``DensityMatrix.parts``, and their eigensystems in
``systems``).  A state read from a file gets the same structure through
``fock_density`` when its Hermitian part has exactly zero entries between the two
parities (``DensityMatrix.from_matrix`` partitioned by the record's parity); any
other state gets the dense eigh and no record.  The quadratures are linear in
the ladder operators, so ``quadrature_observables`` gives them by their nonzeros
at the record's links i -> i + s_k of every a_k (s_k the stride of mode k) and
their mirror images (``ObservableSet.nonzeros``), which are built once per size
(``_quadrature_nonzeros``) and wrapped in a fresh set on each call; the dense
matrices are formed only when a caller reads ``observables``.
:mod:`skewsharp.skew` builds their eigenbasis stack from those nonzeros and the
state's parts alone, as it would for any set so given: every quadrature flips
the photon-number parity, so on a state whose parts each have one parity the
stack lives on the blocks of the part pairs that a link joins (its entry
route), and on any other state it is built whole.  This module writes Fock operators as triples and records the state's
parts; it builds no eigenbasis stack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityMatrix,
    DimensionMismatch,
    SkewsharpError,
    mat_scale,
    part_eigensystems,
)
from .skew import (
    ConstructionMismatch,
    ObservableSet,
    UncertaintyReport,
    check_refined_rs,
)

MOMENT_TOL = 1e-8


class InvalidGenerator(SkewsharpError):
    pass


class SingularM(SkewsharpError):
    pass


class UnsupportedModeCount(SkewsharpError):
    pass


class CutoffTooSmall(SkewsharpError):
    pass


class AlreadyQuadrature(SkewsharpError):
    pass


class NonSymplectic(SkewsharpError):
    pass


class LogBranchFailure(SkewsharpError):
    pass


def symplectic_form(n_modes: int) -> np.ndarray:
    n, eye = n_modes, np.eye(n_modes)
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:], J[n:, :n] = eye, -eye
    return J


def block_swap(n_modes: int) -> np.ndarray:
    n, eye = n_modes, np.eye(n_modes)
    Pi = np.zeros((2 * n, 2 * n))
    Pi[:n, n:], Pi[n:, :n] = eye, eye
    return Pi


def quadrature_transform(n_modes: int) -> np.ndarray:
    """u with X = Lambda u: columns mix (a^dag, a) into (x, p)."""
    eye = np.eye(n_modes)
    return np.block([[eye, 1j * eye], [eye, -1j * eye]]) / math.sqrt(2)


@dataclass(eq=False)
class QuadraticHamiltonian:
    """Validated quadratic generator: S symmetric with Pi conj(S) Pi = S, beta > 0."""

    n_modes: int
    S: np.ndarray
    beta: float

    @property
    def N(self) -> np.ndarray:
        return -self.S @ symplectic_form(self.n_modes)


def validate_quadratic(S: np.ndarray, n_modes: int, beta: float = 1.0) -> QuadraticHamiltonian:
    """The generator of S, after checks that S is symmetric and meets Pi conj(S) Pi = S to 1e-10
    relative.  The stored S is (S + S^T)/2 projected by (S + Pi conj(S) Pi)/2, so it meets both
    exactly, and every consumer (the truncated H of ``_fock_hamiltonian`` above all) inherits
    exact Hermiticity; an S that meets them exactly is stored unchanged."""
    S = np.asarray(S, dtype=complex)
    d = 2 * n_modes
    if S.shape != (d, d):
        raise InvalidGenerator(f"S must be {d}x{d} for {n_modes} modes, got {S.shape}")
    if not 0 < beta < math.inf:
        raise InvalidGenerator(f"beta must be positive and finite, got {beta}")
    if not np.isfinite(S).all():
        raise InvalidGenerator("S has non-finite entries")
    scale = mat_scale(S)
    sym_dev = float(np.abs(S - S.T).max())
    if sym_dev > 1e-10 * scale:
        raise InvalidGenerator(f"S not symmetric: max|S - S^T| = {sym_dev:.3e}")
    swap = np.ix_(*[np.roll(np.arange(d), n_modes)] * 2)     # M[swap] = Pi M Pi, signed zeros kept
    real_dev = float(np.abs(S.conj()[swap] - S).max())
    if real_dev > 1e-10 * scale:
        raise InvalidGenerator(
            f"S violates the Hermiticity constraint Pi conj(S) Pi = S by {real_dev:.3e}"
        )
    S = (S + S.T) / 2
    return QuadraticHamiltonian(n_modes=n_modes, S=(S + S.conj()[swap]) / 2, beta=beta)


def single_mode_generator(omega: float, xi: complex = 0.0, beta: float = 1.0) -> QuadraticHamiltonian:
    """omega a^dag a plus the squeezing pair (xi a^dag a^dag + conj(xi) a a)/2."""
    S = np.array([[xi, omega], [omega, np.conj(xi)]], dtype=complex)
    return validate_quadratic(S, 1, beta)


def two_mode_generator(omega1: float, omega2: float, coupling: float = 0.0,
                       xi: complex = 0.0, beta: float = 1.0) -> QuadraticHamiltonian:
    """Two oscillators with a beamsplitter coupling and optional equal squeezing."""
    W = np.array([[omega1, coupling], [coupling, omega2]], dtype=complex)
    F = np.diag([xi, xi]).astype(complex)
    S = np.block([[F, W], [W.T, F.conj()]])
    return validate_quadratic(S, 2, beta)


def random_admissible_generator(n_modes: int, rng: np.random.Generator,
                                spectral_radius: float = 1.0, beta: float = 1.0) -> QuadraticHamiltonian:
    """Random S = [[F, W], [W^T, conj(F)]] rescaled so rho(beta N) hits the target."""
    G = rng.standard_normal((n_modes, n_modes)) + 1j * rng.standard_normal((n_modes, n_modes))
    F = (G + G.T) / 2
    H = rng.standard_normal((n_modes, n_modes)) + 1j * rng.standard_normal((n_modes, n_modes))
    W = (H + H.conj().T) / 2
    S = np.block([[F, W], [W.T, F.conj()]])
    N = -S @ symplectic_form(n_modes)
    radius = float(np.abs(np.linalg.eigvals(beta * N)).max())
    if radius == 0:
        raise InvalidGenerator("degenerate random draw with zero drift")
    S = S * (spectral_radius / radius)
    return validate_quadratic(S, n_modes, beta)


@dataclass(eq=False)
class GaussianMoments:
    """Second moments in the ladder or quadrature basis.

    In the ladder basis ``delta`` is J/2; in the quadrature basis it is the
    real antisymmetric commutator matrix of skewsharp.skew's convention.
    """

    n_modes: int
    basis: str  # "ladder" | "quadrature"
    C: np.ndarray
    sigma: np.ndarray
    c: np.ndarray
    delta: np.ndarray
    cond_M: float


def _moments_from_drift(N: np.ndarray, beta: float, J: np.ndarray):
    """(C, c) from the eigensystem N = P diag(w) P^(-1), and the cond of M - I.

    With y = beta w, M - I has eigenvalues expm1(-y), and C = J (M - I)^(-1),
    c = C sqrt(M) and C M are J P diag(f(y)) P^(-1) for f = 1/expm1(-y),
    -1/(2 sinh(y/2)) and -1/expm1(y): each finite at y -> +-inf and free of
    cancellation at y -> 0.  |Re y| is clipped at 700, where they sit at their limits.
    SingularM when an f is not finite: y is 0 to double precision (M - I singular),
    or 1/expm1(-y) overflows.
    """
    w, P = np.linalg.eig(N)
    condP = float(np.linalg.cond(P))
    if not np.isfinite(condP) or condP > 1e10:
        raise InvalidGenerator(
            f"drift matrix near-defective (eigenbasis condition {condP:.3e}); "
            "the moments need a diagonalizable drift"
        )
    y = np.clip((beta * w).real, -700, 700) + 1j * (beta * w).imag
    gap = np.expm1(-y)                          # the eigenvalues of M - I
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        fs = (1 / gap, -0.5 / np.sinh(y / 2), -1 / np.expm1(y))
    if not all(np.isfinite(f).all() for f in fs):
        raise SingularM(f"M - I singular to double precision: min |beta w| = {np.abs(y).min():.3e}")
    Pinv = np.linalg.inv(P)
    C, c, CM = (J @ (P * f) @ Pinv for f in fs)
    scale = mat_scale(C)
    for dev, identity in ((np.abs(C.T - C - J).max(), "C^T - C = J"), (np.abs(C.T - CM).max(), "C^T = C M")):
        if not dev <= MOMENT_TOL * scale:    # a NaN deviation (overflowed C) fails too
            raise SkewsharpError(f"moment identity {identity} violated by {dev:.3e}")
    return (C, c), float(np.abs(gap).max()) / float(np.abs(gap).min())


def exact_moments(H: QuadraticHamiltonian) -> GaussianMoments:
    """Closed-form ladder-basis moments of the thermal state of H.

    One route for every beta and spectral radius: scalar functions of the drift's
    eigenvalues (``_moments_from_drift``), exact for every beta w that is not 0 to
    double precision; ``cond_M`` is the largest over the smallest |eigenvalue of
    M - I|.  A drift with beta w = 0 (a zero mode, which has no thermal state) is
    a SingularM.
    """
    J = symplectic_form(H.n_modes)
    (C, c), cond = _moments_from_drift(-H.S @ J, H.beta, J)
    return GaussianMoments(
        n_modes=H.n_modes, basis="ladder", C=C, sigma=(C.T + C) / 2, c=c, delta=J / 2, cond_M=cond,
    )


def to_quadrature(m: GaussianMoments) -> GaussianMoments:
    """Congruence by u into the (x, p) basis; sigma and c become real symmetric."""
    if m.basis != "ladder":
        raise AlreadyQuadrature("moments already in the quadrature basis")
    u = quadrature_transform(m.n_modes)
    sigma, c, C = (u.T @ M @ u for M in (m.sigma, m.c, m.C))
    for name, mat in (("sigma", sigma), ("c", c)):
        dev = float(np.abs(mat.imag).max())
        if dev > MOMENT_TOL * mat_scale(mat):
            raise SkewsharpError(f"quadrature {name} has imaginary part {dev:.3e}")
    # (i/2)<[X_k, X_j]> = -i (u^T (J/2) u) = [[0, -I/2], [I/2, 0]]
    delta = np.real(-1j * (u.T @ (m.delta) @ u))
    return GaussianMoments(
        n_modes=m.n_modes, basis="quadrature", C=C,
        sigma=sigma.real, c=c.real, delta=delta,
        cond_M=m.cond_M,
    )


def moment_det_gap(m: GaussianMoments) -> float:
    """det(sigma+c) det(sigma-c) - det(delta)^2, real part after a residual check."""
    prod = np.linalg.det(m.sigma + m.c) * np.linalg.det(m.sigma - m.c)
    d_delta = np.linalg.det(m.delta)
    gap = prod - d_delta**2
    if abs(gap.imag) > MOMENT_TOL * max(1.0, abs(gap)):
        raise SkewsharpError(f"determinant gap has imaginary part {gap.imag:.3e}")
    return float(gap.real)


# ------------------------------------------------------------- Fock space

def bogoliubov_floor(H: QuadraticHamiltonian) -> float:
    """Smallest eigenvalue of the Hermitian S Pi = [[W, F], [conj(F), W^T]] (the Bogoliubov matrix).

    H has a thermal state (it is bounded below, with positive normal modes) exactly when
    this is positive; ``exact_moments`` and ``fock_truncate_thermal`` also take formal,
    indefinite generators.
    """
    return float(np.linalg.eigvalsh(H.S @ block_swap(H.n_modes))[0])


def thermal_tail_mass(H: QuadraticHamiltonian, cutoff: int) -> float:
    """Per-normal-mode geometric tail sum_k q_k^cutoff / (1 - q_k), q_k = e^(-beta w_k).

    Each term is the weight a mode's truncation drops, sum_{l >= cutoff} q^l,
    relative to its ground weight 1, not to the weight kept, so the value can
    exceed 1: from 1 upward the truncation may drop more than it keeps.
    1.0 for an H without a thermal state (``bogoliubov_floor`` at most 0), whose
    negative normal modes the positive eigenvalues of N do not tell apart.
    """
    if bogoliubov_floor(H) <= 0:
        return 1.0
    omegas = sorted(e.real for e in np.linalg.eigvals(H.N) if e.real > 0)
    tail = 0.0
    for w in omegas:
        q = math.exp(-H.beta * w) if H.beta * w < 700 else 0.0
        if q >= 1.0:
            return 1.0
        tail += q**cutoff / (1.0 - q)
    return tail


@dataclass(eq=False)
class ThermalTruncation:
    rho: DensityMatrix
    tail_mass: float


class FockBasis:
    """The truncated Fock space of n modes with cutoff levels each (the box), in Kronecker order.

    Index i holds |n_1, ..., n_n> with n_k = i // s_k % cutoff, s_k the stride of mode k (mode 1
    the slowest), so the dimension ``dim`` is d = cutoff^n.  Built once per size by
    ``fock_basis``; its arrays are read-only:

    - ``strides`` (n,): s_k;
    - ``levels`` (n, d): n_k at each index;
    - ``parity`` (d,): (n_1 + ... + n_n) mod 2 at each index;
    - ``links`` (3, 2n, L): the link table of the ladder operators Lambda_o, a_k^dag for
      o = k and a_k for o = n + k.  Lambda_o maps |links[0, o]> to sqrt(l + 1) |links[1, o]>,
      with l = links[2, o] the photon number of mode k at the lower end: a_k^dag steps from
      each of the L = d (cutoff - 1) / cutoff indices i below the top level of mode k to
      i + s_k, and a_k steps back, so a_k[i, i + s_k] = sqrt(l + 1).
    """

    def __init__(self, n_modes: int, cutoff: int):
        self.dim = d = FockBasis.size(n_modes, cutoff)
        self.strides = d // cutoff ** np.arange(1, n_modes + 1)
        self.levels = np.arange(d) // self.strides[:, None] % cutoff
        self.parity = self.levels.sum(axis=0) % 2
        i = np.nonzero(self.levels < cutoff - 1)[1].reshape(n_modes, -1)
        j, level = i + self.strides[:, None], np.take_along_axis(self.levels, i, 1)
        self.links = np.stack([np.r_[i, j], np.r_[j, i], np.r_[level, level]])
        for x in (self.strides, self.levels, self.parity, self.links):
            x.setflags(write=False)

    @staticmethod
    def size(n_modes: int, cutoff: int, dim: int | None = None) -> int:
        """d = cutoff^n_modes after the checks n_modes >= 1 and cutoff >= 2, and, given a dim, that
        dim = d: the one place d is derived, and nothing of size d is built here."""
        if n_modes < 1:
            raise UnsupportedModeCount(f"need at least 1 mode, got {n_modes}")
        if cutoff < 2:
            raise CutoffTooSmall(f"cutoff must be >= 2, got {cutoff}")
        if dim is not None and dim != cutoff**n_modes:
            raise DimensionMismatch(f"state dim {dim} != cutoff^n_modes = {cutoff**n_modes}")
        return cutoff**n_modes


fock_basis = functools.lru_cache(maxsize=16)(FockBasis)     # the record of each size, built once


def _summed(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, d: int) -> tuple[np.ndarray, ...]:
    """Triples with the values at one position summed in their order, row-major, exact zeros dropped."""
    key, at = np.unique(rows * d + cols, return_inverse=True)
    total = np.bincount(at, vals.real, key.size) + 1j * np.bincount(at, vals.imag, key.size)
    return key[total != 0] // d, key[total != 0] % d, total[total != 0]


def _fock_hamiltonian(H: QuadraticHamiltonian, cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(1/2) sum_ij S_ij Lambda_i Lambda_j on the truncated product space, in normal order, as
    the (rows, columns, values) of its nonzeros, row-major.

    Each term Lambda_i Lambda_j (i <= j, so creators first) is two steps read from the basis
    record (``fock_basis``): Lambda_j along its links, then Lambda_i from where it arrives, by
    the photon number of Lambda_i's mode there; each step has the coefficient sqrt(l + 1) of the
    link it takes, and a state that Lambda_i cannot move (a_k^dag at the top level, a_k at 0)
    drops out of the term.  The terms are summed position by position in term order.  Off the
    diagonal each position gets exactly one term, and its mirror the term of the conjugate
    coefficient (S is stored exactly symmetric and constrained, ``validate_quadratic``) with the
    same product of square roots, so the triples are exactly Hermitian as built; the diagonal
    sums the real a_k^dag a_k terms.  Normal order matters: the truncated a_k a_k^dag
    is 0 on the top Fock level, a_k^dag a_k is not; the dropped constant [a_k, a_k^dag] = 1
    leaves the state unchanged.
    """
    # the empty first term keeps the sums defined when S = 0 gives no term
    b, n, terms = fock_basis(H.n_modes, cutoff), H.n_modes, [(np.arange(0), np.arange(0), np.zeros(0, complex))]
    for i in range(2 * n):
        for j in range(i, 2 * n):
            s = H.S[i, j] if i < j else 0.5 * H.S[i, i]
            if s != 0:
                col, mid, l_j = b.links[:, j]                # Lambda_j: col -> mid
                # Lambda_i's link from mid has level n_k (a_k^dag) or n_k - 1 (a_k), n_k = the photon
                # number of its mode at mid; outside 0..cutoff - 2 there is no such link
                l_i = b.levels[i % n, mid] - (i >= n)
                moved = (l_i >= 0) & (l_i < cutoff - 1)
                row = mid[moved] + (1 if i < n else -1) * b.strides[i % n]
                terms.append((row, col[moved], s * (np.sqrt(l_i[moved] + 1) * np.sqrt(l_j[moved] + 1))))
    return _summed(*map(np.concatenate, zip(*terms)), b.dim)


def check_thermal_cutoff(cutoff: int) -> None:
    """The cutoff bound of ``fock_truncate_thermal``; the CLI checks it before any other step."""
    if cutoff < 8:
        raise CutoffTooSmall(f"cutoff must be >= 8, got {cutoff}")


def fock_truncate_thermal(H: QuadraticHamiltonian, cutoff: int) -> ThermalTruncation:
    """Normalized exp(-beta H) on the truncated Fock space, with the reported tail mass.

    A quadratic H changes the total photon number by 0 or +-2, so its truncation
    is block-diagonal by photon-number parity: that is checked on each of its
    nonzero triples against the basis record's parity (ConstructionMismatch
    otherwise).  Inside the parities each connected component of H's nonzero
    pattern gets its own eigensystem (``part_eigensystems`` on the triples), and
    the state records those parts.
    """
    if H.n_modes not in (1, 2):
        raise UnsupportedModeCount(f"Fock truncation supports 1 or 2 modes, got {H.n_modes}")
    check_thermal_cutoff(cutoff)
    rows, cols, vals = _fock_hamiltonian(H, cutoff)
    parity = fock_basis(H.n_modes, cutoff).parity
    if cross := np.count_nonzero(parity[rows] != parity[cols]):
        raise ConstructionMismatch(f"truncated H couples even and odd photon numbers at {cross} entries")
    parts = part_eigensystems(rows, cols, vals, parity.size)
    w_min = min(w.min() for _, _, w in parts)
    weights = [np.exp(-H.beta * (w - w_min)) for _, _, w in parts]
    # each part's sum first, so parts that are the parity classes sum as one sum per block
    total = sum(x.sum(axis=-1).sum() for x in weights)
    rho = DensityMatrix._from_parts([(r, V, x / total) for (r, V, _), x in zip(parts, weights)], None)
    return ThermalTruncation(rho=rho, tail_mass=thermal_tail_mass(H, cutoff))


@functools.lru_cache(maxsize=16)
def _quadrature_nonzeros(n_modes: int, cutoff: int) -> tuple:
    """The nonzeros (d, rows, cols, values) of the truncated (x_1..x_n, p_1..p_n), read-only and
    built once per size beside the basis record; arrays only, so that no set's dense matrices
    outlive the call that formed them."""
    b, k = fock_basis(n_modes, cutoff), np.arange(n_modes)
    a = np.sqrt(b.links[2, :n_modes] + 1).astype(complex)     # a_k at (i, i + s_k) and a_k^dag at the mirror
    values = np.zeros((2, n_modes, 2, *a.shape), dtype=complex)     # (x or p, mode; link or mirror, mode, link)
    # (a^dag + a) and i (a^dag - a) at the link (a^dag 0 there) and its mirror, each over sqrt(2) by complex division
    for v, link, mirror in zip(values, (a, 1j * -a), (a, 1j * a.conj())):
        v[k, 0, k], v[k, 1, k] = link / math.sqrt(2), mirror / math.sqrt(2)
    values = values.reshape(2 * n_modes, -1)
    values.setflags(write=False)
    return b.dim, b.links[0].ravel(), b.links[1].ravel(), values


def quadrature_observables(n_modes: int, cutoff: int) -> ObservableSet:
    """Truncated (x_1..x_n, p_1..p_n); the commutator defect sits at the top Fock level.

    x = (a^dag + a)/sqrt(2) and p = i(a^dag - a)/sqrt(2) of the real truncated a
    are exactly Hermitian, so the set is not re-validated.  It is given by their
    nonzeros at the links i -> i + s_k of every a_k and their mirror images (the
    basis record's ``links``), from which ``SpectralContext`` builds its stack:
    they are built once per size (``_quadrature_nonzeros``), and each call wraps
    them in a fresh set.
    """
    return ObservableSet._from_nonzeros(*_quadrature_nonzeros(n_modes, cutoff))


@dataclass(eq=False)
class SaturationReport:
    """Both saturation gaps, with the quadrature moments, truncation and report behind them."""

    delta_G_exact: float
    delta_G_numeric: float
    tail_mass: float
    moments: GaussianMoments          # exact, quadrature basis
    truncation: ThermalTruncation
    refined: UncertaintyReport        # of the truncated state and quadratures


def saturation_check(H: QuadraticHamiltonian, cutoff: int) -> SaturationReport:
    """Exact (symplectic) and truncated-Fock values of the saturation gap."""
    moments = to_quadrature(exact_moments(H))
    trunc = fock_truncate_thermal(H, cutoff)
    rep = check_refined_rs(trunc.rho, quadrature_observables(H.n_modes, cutoff))
    return SaturationReport(
        delta_G_exact=moment_det_gap(moments),
        delta_G_numeric=rep.delta_G,
        tail_mass=trunc.tail_mass,
        moments=moments,
        truncation=trunc,
        refined=rep,
    )


def fock_density(matrix: np.ndarray, n_modes: int, cutoff: int) -> DensityMatrix:
    """State on n_modes modes cut off at cutoff from its Fock-basis matrix.

    The size is checked first (``FockBasis.size``), before the basis record or
    any eigh is built.  A state that keeps photon-number parity gets one
    eigensystem per part, a connected component of its nonzero pattern, and
    records the parts (``DensityMatrix.from_matrix`` on the record's even and
    odd indices); any other gets the dense eigh.
    """
    FockBasis.size(n_modes, cutoff, np.shape(matrix)[0])
    parity = fock_basis(n_modes, cutoff).parity
    return DensityMatrix.from_matrix(matrix, partition=[np.flatnonzero(parity == p) for p in (0, 1)])


def nongaussianity(rho: DensityMatrix, n_modes: int, cutoff: int) -> float:
    """Saturation gap of an arbitrary truncated-Fock state: 0 exactly on Gaussian states."""
    FockBasis.size(n_modes, cutoff, rho.dim)
    return check_refined_rs(rho, quadrature_observables(n_modes, cutoff)).delta_G


def generator_from_covariance(C: np.ndarray, n_modes: int) -> QuadraticHamiltonian:
    """Recover a beta = 1 generator whose thermal moments reproduce C.

    M' = C^(-1) C^T must be symplectic; its principal logarithm (eigendecomposition
    route) must exist, so eigenvalues on the closed negative real axis or a
    near-defective eigenbasis are reported as LogBranchFailure, not repaired.
    """
    C = np.asarray(C, dtype=complex)
    d = 2 * n_modes
    if C.shape != (d, d):
        raise DimensionMismatch(f"C must be {d}x{d}, got {C.shape}")
    J = symplectic_form(n_modes)
    dev = float(np.abs(C.T - C - J).max())
    if dev > 1e-8 * mat_scale(C):
        raise NonSymplectic(f"C^T - C = J violated by {dev:.3e}")
    if abs(np.linalg.det(C)) < 1e-12 * mat_scale(C) ** d:
        raise NonSymplectic("C is numerically singular")
    Mp = np.linalg.solve(C, C.T)
    sympl_dev = float(np.abs(Mp.T @ J @ Mp - J).max())
    if sympl_dev > 1e-8 * mat_scale(Mp) ** 2:
        raise NonSymplectic(f"M' = C^(-1) C^T fails M'^T J M' = J by {sympl_dev:.3e}")
    w, V = np.linalg.eig(Mp)
    if np.any((w.real <= 0) & (np.abs(w.imag) <= 1e-12 * np.abs(w))):
        raise LogBranchFailure("M' has eigenvalues on the closed negative real axis")
    cond = float(np.linalg.cond(V))
    if not np.isfinite(cond) or cond > 1e10:
        raise LogBranchFailure(f"M' is near-defective (eigenbasis condition {cond:.3e})")
    Np = -(V * np.log(w)) @ np.linalg.inv(V)
    Sp = Np @ J
    Sp = (Sp + Sp.T) / 2
    Pi = block_swap(n_modes)
    Sp = (Sp + Pi @ Sp.conj() @ Pi) / 2
    return validate_quadratic(Sp, n_modes, beta=1.0)
