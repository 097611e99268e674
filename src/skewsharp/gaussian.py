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
and small |beta w| keeps its digits through expm1.  The identities
C^T - C = J and C^T = C M are checked on every result.

Hermiticity of the generator is the reality constraint Pi conj(S) Pi = S with
Pi the block swap [[0, I], [I, 0]].  The product of the determinants of
sigma +- c equals det(J/2)^2 for every admissible generator: thermal states of
quadratic generators saturate the refined determinant relation, and any gap
reported downstream measures non-Gaussianity.

Quadrature observables are ordered X = (x_1..x_n, p_1..p_n) with
x = (a^dag + a)/sqrt(2), p = i(a^dag - a)/sqrt(2); in that basis the
commutator convention of :mod:`skewsharp.skew` gives the constant real
antisymmetric matrix [[0, -I/2], [I/2, 0]].

The truncated Fock space (cutoff levels per mode, Kronecker order) carries
exact structure that the d = cutoff^n numerics use.  A quadratic generator
changes the total photon number by 0 or +-2, so the truncated H has exactly
zero entries between even and odd n_1 + ... + n_n: ``fock_truncate_thermal``
checks that, and inside the two parity classes takes the connected components
of H's nonzero pattern as its parts (``linalg.part_eigensystems``), one
eigensystem each and one batched eigh per part size: uncoupled modes give 1 x 1
parts (H is diagonal), a beamsplitter coupling the photon-number shells,
squeezing the two parity classes themselves.  The state records the parity
blocks and the parts (``DensityMatrix.blocks`` and ``.parts``).  A state read
from a file gets the same structure through ``fock_density`` when its matrix
has exactly zero entries between the two parities (``DensityMatrix.from_matrix``
with the ``parity_rows`` partition); any other state gets the dense eigh and no
record.  The quadratures are linear in the ladder operators:
``quadrature_observables`` fills their few nonzeros by index and records their
``LadderOrigin`` (n_modes, cutoff) on the ``ObservableSet``, and
``skew.SpectralContext`` asks that origin for the eigenbasis stack, which it
forms from M_k = V^dag (a_k V) per mode, part by part: a_k has one nonzero per
row, so a_k V is a scaled row shift of V, and a part with rows r and
eigenvector columns c gives the rows c of M_k as V[r, c]^dag (a_k V)[r].  When
each part has one photon-number parity, every quadrature maps an even part only
to the odd parts a_k or a_k^dag reaches, so its stack is zero but on the blocks
[c_E, c_O] (and their adjoints) of the linked part pairs (E, O): the origin
lists those pairs (``part_pairs``, from the links i -> i + s_k of a_k), grouped
by block shape, and builds per pair only M_k[c_E, c_O] and M_k[c_O, c_E], one
batched product per shape, flattened into the entry list that ``skew`` pairs
(its entry route).  1 x 1 parts give one entry per link, the shells their
shell-to-shell blocks, the parity classes the whole even-to-odd block.
Otherwise the origin builds the full stack, a state without parts being one
part.  This module alone knows the Fock basis layout; the relation engine sees
only the origin and the entry list.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

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
SINGULAR_TOL = 1e-10  # absolute: M - I singular means an eigenvalue of M sits at 1
PERTURB_SIZE = 1e-8   # spectral radius of the admissible nudge applied to N


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
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


def block_swap(n_modes: int) -> np.ndarray:
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [eye, zero]])


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
    S = np.asarray(S, dtype=complex)
    d = 2 * n_modes
    if S.shape != (d, d):
        raise InvalidGenerator(f"S must be {d}x{d} for {n_modes} modes, got {S.shape}")
    if not beta > 0:
        raise InvalidGenerator(f"beta must be positive, got {beta}")
    scale = mat_scale(S)
    sym_dev = float(np.abs(S - S.T).max())
    if sym_dev > 1e-10 * scale:
        raise InvalidGenerator(f"S not symmetric: max|S - S^T| = {sym_dev:.3e}")
    Pi = block_swap(n_modes)
    real_dev = float(np.abs(Pi @ S.conj() @ Pi - S).max())
    if real_dev > 1e-10 * scale:
        raise InvalidGenerator(
            f"S violates the Hermiticity constraint Pi conj(S) Pi = S by {real_dev:.3e}"
        )
    return QuadraticHamiltonian(n_modes=n_modes, S=S, beta=beta)


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
    perturbed: bool


def _moments_from_drift(N: np.ndarray, beta: float, J: np.ndarray):
    """(C, c) from the eigensystem N = P diag(w) P^(-1) and the cond of M - I, or
    (None, cond) when M - I is singular to SINGULAR_TOL.

    With y = beta w, M - I has eigenvalues expm1(-y), and C = J (M - I)^(-1),
    c = C sqrt(M) and C M are J P diag(f(y)) P^(-1) for f = 1/expm1(-y),
    -1/(2 sinh(y/2)) and -1/expm1(y): each finite at y -> +-inf and free of
    cancellation at y -> 0.  |Re y| is clipped at 700, where they sit at their limits.
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
    hi, lo = float(np.abs(gap).max()), float(np.abs(gap).min())
    cond = hi / lo if lo else math.inf
    if lo <= SINGULAR_TOL:
        return None, cond
    Pinv = np.linalg.inv(P)
    C, c, CM = (J @ (P * f) @ Pinv for f in (1 / gap, -0.5 / np.sinh(y / 2), -1 / np.expm1(y)))
    scale = mat_scale(C)
    for dev, identity in ((np.abs(C.T - C - J).max(), "C^T - C = J"), (np.abs(C.T - CM).max(), "C^T = C M")):
        if dev > MOMENT_TOL * scale:
            raise SkewsharpError(f"moment identity {identity} violated by {dev:.3e}")
    return (C, c), cond


def exact_moments(H: QuadraticHamiltonian, rng: np.random.Generator | None = None) -> GaussianMoments:
    """Closed-form ladder-basis moments of the thermal state of H.

    One route for every beta and spectral radius: scalar functions of the drift's
    eigenvalues (``_moments_from_drift``); ``cond_M`` is the largest over the
    smallest |eigenvalue of M - I|.  A nearly singular M - I is nudged by a 1e-8
    admissible perturbation of S (with a warning and the ``perturbed`` flag)
    before giving up.
    """
    n = H.n_modes
    J = symplectic_form(n)
    S = H.S
    perturbed = False
    for attempt in range(2):
        result, cond = _moments_from_drift(-S @ J, H.beta, J)
        if result is not None:
            break
        if attempt == 1:
            raise SingularM(f"M - I singular (cond {cond:.3e}) even after perturbation")
        warnings.warn("M - I nearly singular; perturbing the generator by 1e-8", stacklevel=2)
        gen = rng if rng is not None else np.random.default_rng(0)
        bump = random_admissible_generator(n, gen, spectral_radius=PERTURB_SIZE, beta=1.0)
        S = S + bump.S
        perturbed = True
    C, c = result
    sigma = (C.T + C) / 2
    return GaussianMoments(
        n_modes=n, basis="ladder", C=C, sigma=sigma, c=c, delta=J / 2,
        cond_M=cond, perturbed=perturbed,
    )


def to_quadrature(m: GaussianMoments) -> GaussianMoments:
    """Congruence by u into the (x, p) basis; sigma and c become real symmetric."""
    if m.basis != "ladder":
        raise AlreadyQuadrature("moments already in the quadrature basis")
    u = quadrature_transform(m.n_modes)
    sigma = u.T @ m.sigma @ u
    c = u.T @ m.c @ u
    C = u.T @ m.C @ u
    for name, mat in (("sigma", sigma), ("c", c)):
        dev = float(np.abs(mat.imag).max())
        if dev > MOMENT_TOL * mat_scale(mat):
            raise SkewsharpError(f"quadrature {name} has imaginary part {dev:.3e}")
    # (i/2)<[X_k, X_j]> = -i (u^T (J/2) u) = [[0, -I/2], [I/2, 0]]
    delta = np.real(-1j * (u.T @ (m.delta) @ u))
    return GaussianMoments(
        n_modes=m.n_modes, basis="quadrature", C=C,
        sigma=sigma.real, c=c.real, delta=delta,
        cond_M=m.cond_M, perturbed=m.perturbed,
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

def thermal_tail_mass(H: QuadraticHamiltonian, cutoff: int) -> float:
    """Per-normal-mode geometric tail sum_k q_k^cutoff / (1 - q_k), q_k = e^(-beta w_k)."""
    eigs = np.linalg.eigvals(H.N)
    omegas = sorted(e.real for e in eigs if e.real > 0)
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


def destroy(cutoff: int) -> np.ndarray:
    """Truncated annihilator a on one mode: <n-1|a|n> = sqrt(n) for n < cutoff."""
    return np.diag(np.sqrt(np.arange(1, cutoff)), 1).astype(complex)


def fock_parity(n_modes: int, cutoff: int) -> np.ndarray:
    """Photon-number parity (n_1 + ... + n_n) mod 2 of each truncated Fock basis state, in Kronecker order."""
    return np.ravel(functools.reduce(np.add.outer, [np.arange(cutoff)] * n_modes)) % 2


def parity_rows(n_modes: int, cutoff: int) -> list[np.ndarray]:
    """The basis indices of even and of odd total photon number: the partition that
    a state keeping photon-number parity is block-diagonal on."""
    parity = fock_parity(n_modes, cutoff)
    return [np.flatnonzero(parity == p) for p in (0, 1)]


@functools.lru_cache(maxsize=16)
def _ladder_links(n_modes: int, cutoff: int) -> tuple[np.ndarray, ...]:
    """Where the truncated annihilators a_k are nonzero, computed once per size (read-only arrays).

    Per mode k (the rows of (n_modes, L) arrays): the basis rows i below the top level of
    mode k, i + s_k (s_k the stride of mode k in the Kronecker order) and the photon number
    l of mode k in row i, so that a_k[i, i + s_k] = sqrt(l + 1).  Then the even and the odd
    end of every such link, flat, and the photon-number parity of every basis row.
    """
    d = cutoff**n_modes
    strides = (d // cutoff ** np.arange(1, n_modes + 1))[:, None]
    i = np.nonzero(np.arange(d) // strides % cutoff < cutoff - 1)[1].reshape(n_modes, -1)
    j, parity = i + strides, fock_parity(n_modes, cutoff)
    even = np.where(parity[i] == 0, i, j).ravel()
    links = (i, j, i // strides % cutoff, even, (i + j).ravel() - even, parity)
    for x in links:
        x.setflags(write=False)
    return links


def _destroy_rows(V: np.ndarray, rows: np.ndarray, cols: np.ndarray, mode: int, cutoff: int) -> np.ndarray:
    """(a V)[rows, cols] for the truncated annihilator a of one mode, ``cols`` broadcast against
    rows[..., None].  a has one nonzero per row: row i of a V is sqrt(n + 1) times row i + s of V,
    n the mode's photon number in row i and s its stride in the Kronecker order, or 0 when n is
    the top level."""
    stride = V.shape[0] // cutoff ** (mode + 1)
    level = rows // stride % cutoff
    # the row taken at the top level is arbitrary: its coefficient is 0
    coef = np.where(level < cutoff - 1, np.sqrt(level + 1), 0.0)[..., None]
    return coef * V[((rows + stride) % V.shape[0])[..., None], cols]


def _part_products(V: np.ndarray, rows: np.ndarray, cols: np.ndarray, into, mode: int, cutoff: int) -> np.ndarray:
    """V[r, c]^dag (a V)[r, into] for each of G parts with rows r and eigenvector columns c
    (both (G, m)): the rows c of V^dag a V, one batched product."""
    return np.conj(V[rows[..., None], cols[:, None, :]].swapaxes(1, 2)) @ _destroy_rows(V, rows, into, mode, cutoff)


class PartPairs(NamedTuple):
    """The entry list of a quadrature stack on a state whose parts each have one photon-number parity.

    ``groups`` holds per block shape (m_E, m_O) the part pairs (even part E, odd part O) that
    some a_k connects, as (rows_E, cols_E, rows_O, cols_O), (G, m_E) and (G, m_O) arrays;
    ``a`` and ``b`` are the eigenvector columns (even, odd) of every entry of their blocks
    [cols_E, cols_O], group by group, pair by pair, row-major.
    """

    a: np.ndarray
    b: np.ndarray
    groups: list


def _ladder_matrix(V: np.ndarray, parts, mode: int, cutoff: int, pairs) -> tuple[np.ndarray, np.ndarray]:
    """M = V^dag a V for the truncated annihilator a of one mode, V the state's eigenvectors,
    as a pair (M_out, M_back^dag) from which the quadratures take (M_back^dag +- M_out).

    Without ``pairs`` both are the full matrices M and M^dag, built part by part (``parts`` as
    ``DensityMatrix.parts``, a state without them being one part): a part with rows r and
    columns c gives the rows c of M as V[r, c]^dag (a V)[r], one batched product per part size,
    where (a V)[r] is a scaled row shift of V (``_destroy_rows``).  With ``pairs``
    (``PartPairs``) they are M and M^dag on its entries (a, b) alone: per part pair (E, O) the
    blocks M[c_E, c_O] = V[r_E, c_E]^dag (a V)[r_E, c_O] and M[c_O, c_E] likewise, one batched
    product per block shape; a 1 x 1 part pair is two scalar products.
    """
    if pairs is None:
        M = np.empty(V.shape, dtype=complex)
        for r, c in parts or ((np.arange(V.shape[0])[None],) * 2,):
            M[c] = _part_products(V, r, c, np.arange(V.shape[0]), mode, cutoff)
        return M, np.conj(M.T)
    out = [_part_products(V, r_E, c_E, c_O[:, None], mode, cutoff) for r_E, c_E, _, c_O in pairs.groups]
    back = [_part_products(V, r_O, c_O, c_E[:, None], mode, cutoff).swapaxes(1, 2)
            for _, c_E, r_O, c_O in pairs.groups]
    return np.concatenate([x.ravel() for x in out]), np.conj(np.concatenate([x.ravel() for x in back]))


@dataclass(frozen=True)
class LadderOrigin:
    """Origin of the truncated quadratures (x_1..x_n, p_1..p_n) of ``quadrature_observables``."""

    n_modes: int
    cutoff: int

    def part_pairs(self, state: DensityMatrix) -> PartPairs | None:
        """The entries on which the quadratures' eigenbasis stack can be nonzero, or None.

        Every quadrature flips the photon-number parity, and a_k links row i only to row
        i + s_k (s_k the stride of mode k).  So when each of the state's parts has one parity,
        the stack is zero but on the blocks [c_E, c_O] of the part pairs that those links join
        (and their adjoints).  A state without parts, or with a part of both parities, gets None.
        """
        if state.parts is None:
            return None
        parts = state.parts
        *_, even, odd, parity = _ladder_links(self.n_modes, self.cutoff)
        first = np.cumsum([0] + [r.shape[0] for r, _ in parts])    # part ids run group by group
        group = np.repeat(np.arange(len(parts)), np.diff(first))
        part = np.empty(state.dim, dtype=np.intp)
        for (r, _), start in zip(parts, first):
            part[r] = start + np.arange(r.shape[0])[:, None]
        if (parity != parity[np.concatenate([r[:, 0] for r, _ in parts])][part]).any():
            return None
        E, O = part[even], part[odd]
        # one sort by (size group of O, E, O): E's size group rises with E, so each block shape is one run
        P = first[-1]
        key = np.sort((group[O] * P + E) * P + O)
        E, O = np.divmod(key[np.diff(key, prepend=-1) != 0] % (P * P), P)    # each pair once
        cuts = [0, *(np.flatnonzero(np.diff(group[E]) | np.diff(group[O])) + 1).tolist(), E.size]
        groups = []
        for lo, hi in zip(cuts, cuts[1:]):
            (r_E, c_E), (r_O, c_O) = parts[group[E[lo]]], parts[group[O[lo]]]
            E_g, O_g = E[lo:hi] - first[group[E[lo]]], O[lo:hi] - first[group[O[lo]]]
            groups.append((r_E[E_g], c_E[E_g], r_O[O_g], c_O[O_g]))
        a = [np.broadcast_to(c_E[:, :, None], c_E.shape + c_O.shape[1:]).ravel() for _, c_E, _, c_O in groups]
        b = [np.broadcast_to(c_O[:, None, :], c_E.shape + c_O.shape[1:]).ravel() for _, c_E, _, c_O in groups]
        return PartPairs(np.concatenate(a), np.concatenate(b), groups)

    def eigenbasis_stack(self, state: DensityMatrix, pairs: PartPairs | None) -> np.ndarray:
        """Uncentered stack of x_k = (a_k^dag + a_k)/sqrt(2) and p_k = i(a_k^dag - a_k)/sqrt(2)
        in the state's eigenbasis V: (M_k^dag + M_k)/sqrt(2) and i(M_k^dag - M_k)/sqrt(2), one M_k at a time.

        The full stack (2n, d, d) without ``pairs``; with them (``part_pairs``), its values
        (2n, nnz) on their entries (a, b) alone.
        """
        n, V = self.n_modes, state.eigenvectors
        A = np.empty((2 * n, *(V.shape if pairs is None else pairs.a.shape)), dtype=complex)
        for k in range(n):
            M, M_dag = _ladder_matrix(V, state.parts, k, self.cutoff, pairs)
            A[k] = (M_dag + M) / math.sqrt(2)
            A[n + k] = (M_dag - M) * (1j / math.sqrt(2))
        return A


def _fock_hamiltonian(H: QuadraticHamiltonian, cutoff: int) -> np.ndarray:
    """(1/2) sum_ij S_ij Lambda_i Lambda_j on the truncated product space, in normal order.

    Each term Lambda_i Lambda_j (i <= j, so creators first) is a Kronecker product
    of cutoff-size factors; a mode hit by both ladder operators gets their product.
    Normal order matters: the truncated a_k a_k^dag is 0 on the top Fock level,
    a_k^dag a_k is not; the dropped constant [a_k, a_k^dag] = 1 leaves the state unchanged.
    """
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


def fock_truncate_thermal(H: QuadraticHamiltonian, cutoff: int) -> ThermalTruncation:
    """Normalized exp(-beta H) on the truncated Fock space, with the reported tail mass.

    A quadratic H changes the total photon number by 0 or +-2, so its truncation
    is block-diagonal by photon-number parity: that is checked entry by entry
    (ConstructionMismatch otherwise).  Inside the parities each connected
    component of H's nonzero pattern gets its own eigensystem
    (``part_eigensystems``), and the state records the parity blocks and those parts.
    """
    if H.n_modes not in (1, 2):
        raise UnsupportedModeCount(f"Fock truncation supports 1 or 2 modes, got {H.n_modes}")
    if cutoff < 8:
        raise CutoffTooSmall(f"cutoff must be >= 8, got {cutoff}")
    Hmat = _fock_hamiltonian(H, cutoff)
    rows = parity_rows(H.n_modes, cutoff)
    if cross := sum(np.count_nonzero(Hmat[np.ix_(r, s)]) for r, s in (rows, rows[::-1])):
        raise ConstructionMismatch(f"truncated H couples even and odd photon numbers at {cross} entries")
    parts = part_eigensystems(Hmat)
    w_min = min(w.min() for _, _, w in parts)
    weights = [np.exp(-H.beta * (w - w_min)) for _, _, w in parts]
    # each part's sum first, so parts that are the parity classes sum as one sum per block
    total = sum(x.sum(axis=-1).sum() for x in weights)
    rho = DensityMatrix._from_parts(rows, [(r, V, x / total) for (r, V, _), x in zip(parts, weights)], None)
    return ThermalTruncation(rho=rho, tail_mass=thermal_tail_mass(H, cutoff))


def quadrature_observables(n_modes: int, cutoff: int) -> ObservableSet:
    """Truncated (x_1..x_n, p_1..p_n); the commutator defect sits at the top Fock level.

    x = (a^dag + a)/sqrt(2) and p = i(a^dag - a)/sqrt(2) of the real truncated a
    are exactly Hermitian, so the set is not re-validated; it records its
    ``LadderOrigin``, from which ``SpectralContext`` builds its stack.
    """
    if cutoff < 2:
        raise CutoffTooSmall(f"cutoff must be >= 2, got {cutoff}")
    a, d = destroy(cutoff), cutoff**n_modes
    i, j, level, *_ = _ladder_links(n_modes, cutoff)
    mats = []
    for q in ((a.conj().T + a) / math.sqrt(2), 1j * (a.conj().T - a) / math.sqrt(2)):
        for i_k, j_k, l_k in zip(i, j, level):    # the single-mode q at mode k of the Kronecker order
            M = np.zeros((d, d), dtype=complex)
            M[i_k, j_k], M[j_k, i_k] = q[l_k, l_k + 1], q[l_k + 1, l_k]
            mats.append(M)
    return ObservableSet._with_origin(mats, LadderOrigin(n_modes, cutoff))


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


def check_fock_dim(dim: int, n_modes: int, cutoff: int) -> None:
    """Raise unless n_modes >= 1 and a dim x dim matrix lives on n_modes modes cut off at cutoff."""
    if n_modes < 1:
        raise UnsupportedModeCount(f"need at least 1 mode, got {n_modes}")
    if dim != cutoff**n_modes:
        raise DimensionMismatch(f"state dim {dim} != cutoff^n_modes = {cutoff**n_modes}")


def fock_density(matrix: np.ndarray, n_modes: int, cutoff: int) -> DensityMatrix:
    """State on n_modes modes cut off at cutoff from its Fock-basis matrix.

    The size is checked first (``check_fock_dim``), before any eigh.  A state
    that keeps photon-number parity gets one eigensystem per part, a connected
    component of its nonzero pattern, and records the parity blocks and the parts
    (``DensityMatrix.from_matrix`` on ``parity_rows``); any other gets the dense eigh.
    """
    check_fock_dim(np.shape(matrix)[0], n_modes, cutoff)
    return DensityMatrix.from_matrix(matrix, partition=parity_rows(n_modes, cutoff))


def nongaussianity(rho: DensityMatrix, n_modes: int, cutoff: int) -> float:
    """Saturation gap of an arbitrary truncated-Fock state: 0 exactly on Gaussian states."""
    check_fock_dim(rho.dim, n_modes, cutoff)
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
