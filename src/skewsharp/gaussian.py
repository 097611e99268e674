"""Bosonic machinery: quadratic generators, exact thermal moments, Fock-space truncation.

Ladder ordering is Lambda = (a1^dag..an^dag, a1..an) and the symplectic form is
J = [[0, I], [-I, 0]].  A quadratic generator is stored through the symmetric
matrix S (the quadratic-form coefficient of (1/2) Lambda S Lambda^T); the
drift matrix is N = -S J, and the thermal state at inverse temperature beta
has M = exp(-beta N) with

    C = J (M - I)^(-1),            C[k, j] = <Lambda_k Lambda_j>,
    sigma = (C^T + C) / 2,   c = C sqrt(M),   delta = J / 2.

Hermiticity of the generator is the reality constraint Pi conj(S) Pi = S with
Pi the block swap [[0, I], [I, 0]].  The product of the determinants of
sigma +- c equals det(J/2)^2 for every admissible generator: thermal states of
quadratic generators saturate the refined determinant relation, and any gap
reported downstream measures non-Gaussianity.

Quadrature observables are ordered X = (x_1..x_n, p_1..p_n) with
x = (a^dag + a)/sqrt(2), p = i(a^dag - a)/sqrt(2); in that basis the
commutator convention of :mod:`skewsharp.skew` gives the constant real
antisymmetric matrix [[0, -I/2], [I/2, 0]].

The truncated Fock space (cutoff levels per mode, Kronecker order) carries two
exact structures that the d = cutoff^n numerics use.  A quadratic generator
changes the total photon number by 0 or +-2, so the truncated H has exactly
zero entries between even and odd n_1 + ... + n_n: ``fock_truncate_thermal``
checks that, diagonalizes each parity block on its own and builds the state
with ``DensityMatrix.from_blocks``, which records the blocks.  A state read
from a file gets the same blocks through ``fock_density`` when its matrix has
exactly zero entries between the two parities (``DensityMatrix.from_matrix``
with the ``parity_rows`` partition); any other state gets the dense eigh and
no blocks.  The quadratures are linear in the ladder operators:
``quadrature_observables`` records their ``LadderOrigin`` (n_modes, cutoff)
on the ``ObservableSet``, and ``skew.SpectralContext`` asks that origin for
the eigenbasis stack, which it forms from M_k = V^dag (a_k V) per mode.  When
the state carries its parity blocks, each quadrature maps even to odd photon
numbers and back, so its stack is zero on both diagonal parity blocks: the
origin names the even and odd eigenvector columns (``stack_blocks``) and
builds only the block A_k[even, odd], from the two nonzero blocks of M_k,
each a half-size product; ``skew`` then pairs that block alone (its block
route).  Without parity blocks the origin builds the full stack.  This module
alone knows the Fock basis layout; the relation engine sees only the origin.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import (
    DensityMatrix,
    DimensionMismatch,
    SkewsharpError,
    mat_scale,
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
EXPM_RADIUS = 30.0    # beyond this beta*rho(N), exp(-beta N) amplifies error; use the eig route


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


def _moment_identities(C: np.ndarray, M: np.ndarray, J: np.ndarray) -> None:
    scale = mat_scale(C)
    dev_comm = float(np.abs(C.T - C - J).max())
    if dev_comm > MOMENT_TOL * scale:
        raise SkewsharpError(f"moment identity C^T - C = J violated by {dev_comm:.3e}")
    dev_m = float(np.abs(C.T - C @ M).max())
    if dev_m > MOMENT_TOL * scale * mat_scale(M):
        raise SkewsharpError(f"moment identity C^T = C M violated by {dev_m:.3e}")


def _moments_via_expm(N: np.ndarray, beta: float, J: np.ndarray):
    M = scipy.linalg.expm(-beta * N)
    gap = M - np.eye(N.shape[0])
    svals = np.linalg.svd(gap, compute_uv=False)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf
    if svals[-1] <= SINGULAR_TOL:
        return None, cond
    C = J @ np.linalg.inv(gap)
    _moment_identities(C, M, J)
    c = C @ scipy.linalg.expm(-beta * N / 2)
    return (C, c), cond


def _cexpm1(z: complex) -> complex:
    """exp(z) - 1 without cancellation for small |z|."""
    if abs(z) < 1e-4:
        return z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4)))
    return np.exp(z) - 1.0


def _stable_gap_funcs(y: complex) -> tuple[complex, complex]:
    """(1/(e^(-y) - 1), e^(-y/2)/(e^(-y) - 1)): the second equals -1/(2 sinh(y/2)).

    Both limits as Re(y) -> +-inf are finite (-1 or 0), so no overflow leaks out.
    """
    if y.real > 700:
        return -1.0 + 0j, 0.0 + 0j
    if y.real < -700:
        return 0.0 + 0j, 0.0 + 0j
    g = _cexpm1(-y)
    s = 2.0 * np.sinh(y / 2)
    inv_gap = math.inf if g == 0 else 1.0 / g
    inv_c = math.inf if s == 0 else -1.0 / s
    return inv_gap, inv_c


def _moments_via_eig(N: np.ndarray, beta: float, J: np.ndarray):
    """Overflow-free route for large beta: scalar functions of the drift spectrum."""
    w, P = np.linalg.eig(N)
    condP = float(np.linalg.cond(P))
    if not np.isfinite(condP) or condP > 1e10:
        raise InvalidGenerator(
            f"drift matrix near-defective (eigenbasis condition {condP:.3e}); "
            "large-beta moments need a diagonalizable drift"
        )
    pairs = [_stable_gap_funcs(complex(beta * lam)) for lam in w]
    inv_gap = np.array([p[0] for p in pairs])
    inv_c = np.array([p[1] for p in pairs])
    if (not np.all(np.isfinite(inv_gap))) or np.abs(inv_gap).max() > 1.0 / SINGULAR_TOL:
        return None, math.inf
    Pinv = np.linalg.inv(P)
    C = J @ (P * inv_gap) @ Pinv
    c = J @ (P * inv_c) @ Pinv
    scale = mat_scale(C)
    dev_comm = float(np.abs(C.T - C - J).max())
    if dev_comm > MOMENT_TOL * scale:
        raise SkewsharpError(f"moment identity C^T - C = J violated by {dev_comm:.3e}")
    # C^T = C M with the M eigenvalue folded in: e^(-y)/(e^(-y)-1) = -1/expm1(y)
    cm_eig = np.array([0.0 + 0j if y.real > 700 else -1.0 / _cexpm1(complex(y))
                       for y in beta * w])
    CM = J @ (P * cm_eig) @ Pinv
    dev_m = float(np.abs(C.T - CM).max())
    if dev_m > MOMENT_TOL * scale:
        raise SkewsharpError(f"moment identity C^T = C M violated by {dev_m:.3e}")
    return (C, c), float(np.abs(inv_gap).max())


def exact_moments(H: QuadraticHamiltonian, rng: np.random.Generator | None = None) -> GaussianMoments:
    """Closed-form ladder-basis moments of the thermal state of H.

    A nearly singular M - I is nudged by a 1e-8 admissible perturbation of S
    (with a warning and the ``perturbed`` flag) before giving up.
    """
    n = H.n_modes
    J = symplectic_form(n)
    S = H.S
    perturbed = False
    result = None
    for attempt in range(2):
        N = -S @ J
        radius = float(np.abs(np.linalg.eigvals(H.beta * N)).max())
        # small radius: forming M - I cancels; large radius: expm overflows/amplifies
        if 1e-3 <= radius <= EXPM_RADIUS:
            result, cond = _moments_via_expm(N, H.beta, J)
        else:
            result, cond = _moments_via_eig(N, H.beta, J)
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


def _apply_destroy(V: np.ndarray, mode: int, cutoff: int) -> np.ndarray:
    """a V for the truncated annihilator a of one mode, as a cutoff x cutoff product on that
    mode's tensor axis of the rows of V."""
    return (destroy(cutoff) @ V.reshape(cutoff**mode, cutoff, -1)).reshape(V.shape)


def _ladder_matrix(V: np.ndarray, mode: int, cutoff: int, parity) -> tuple[np.ndarray, np.ndarray]:
    """M = V^dag a V for the truncated annihilator a of one mode, V the state's eigenvectors,
    as a pair (M_out, M_back) from which the quadratures take (M_back^dag +- M_out).

    Without ``parity`` blocks both are M.  With blocks ((rows_E, cols_E), (rows_O,
    cols_O)) a maps each block into the other, so M is zero but on M[cols_E, cols_O]
    and M[cols_O, cols_E]: the pair is those two blocks, each a half-size product
    V_out^dag (a V_in) of the blocks of V.
    """
    if parity is None:
        M = np.conj(V.T) @ _apply_destroy(V, mode, cutoff)
        return M, M
    return tuple(np.conj(V[np.ix_(rows_out, cols_out)].T) @ _apply_destroy(V[:, cols_in], mode, cutoff)[rows_out]
                 for (rows_out, cols_out), (_, cols_in) in (parity, parity[::-1]))


@dataclass(frozen=True)
class LadderOrigin:
    """Origin of the truncated quadratures (x_1..x_n, p_1..p_n) of ``quadrature_observables``."""

    n_modes: int
    cutoff: int

    def parity_blocks(self, blocks):
        """A state's invariant blocks, the even one first, when they are the two
        photon-number parity classes of this Fock basis (so each eigenvector has
        one parity), else None."""
        if blocks is None or len(blocks) != 2:
            return None
        parity = fock_parity(self.n_modes, self.cutoff)
        kinds = [tuple(np.unique(parity[rows])) for rows, _ in blocks]
        if sorted(kinds) != [(0,), (1,)]:
            return None
        return tuple(blocks) if kinds[0] == (0,) else tuple(blocks[::-1])

    def stack_blocks(self, blocks):
        """The eigenvector columns (even, odd) of a state's parity blocks, or None.

        Every quadrature flips the parity, so its eigenbasis stack is exactly zero
        on those two diagonal blocks, and ``eigenbasis_stack`` gives only the block
        from even to odd columns.
        """
        parity = self.parity_blocks(blocks)
        return None if parity is None else tuple(cols for _, cols in parity)

    def eigenbasis_stack(self, V: np.ndarray, blocks) -> np.ndarray:
        """Uncentered stack of x_k = (a_k^dag + a_k)/sqrt(2) and p_k = i(a_k^dag - a_k)/sqrt(2)
        in the eigenbasis V: (M_k^dag + M_k)/sqrt(2) and i(M_k^dag - M_k)/sqrt(2), one M_k at a time.

        The full stack (2n, d, d) without parity blocks; with them, only its block
        A_k[cols_E, cols_O] (2n, d_E, d_O), built from the two nonzero blocks of M_k.
        """
        n = self.n_modes
        parity = self.parity_blocks(blocks)
        shape = V.shape if parity is None else tuple(cols.size for _, cols in parity)
        A = np.empty((2 * n, *shape), dtype=complex)
        for k in range(n):
            M, M_back = _ladder_matrix(V, k, self.cutoff, parity)
            x, p = A[k], A[n + k]
            np.conjugate(M_back.T, out=x)
            np.subtract(x, M, out=p)
            x += M
            x /= math.sqrt(2)
            p *= 1j / math.sqrt(2)
            del M, M_back                       # before the next M_k is built (13 MB each at d = 900)
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
    (ConstructionMismatch otherwise), and each parity block gets its own eigh.
    """
    if H.n_modes not in (1, 2):
        raise UnsupportedModeCount(f"Fock truncation supports 1 or 2 modes, got {H.n_modes}")
    if cutoff < 8:
        raise CutoffTooSmall(f"cutoff must be >= 8, got {cutoff}")
    Hmat = _fock_hamiltonian(H, cutoff)
    rows = parity_rows(H.n_modes, cutoff)
    cross = sum(np.count_nonzero(Hmat[np.ix_(r, s)]) for r, s in (rows, rows[::-1]))
    if cross:
        raise ConstructionMismatch(f"truncated H couples even and odd photon numbers at {cross} entries")
    blocks = [Hmat[np.ix_(r, r)] for r in rows]
    del Hmat                                  # the two blocks hold every nonzero entry
    eig = [np.linalg.eigh(Hb) for Hb in blocks]
    w_min = min(w[0] for w, _ in eig)
    weights = [np.exp(-H.beta * (w - w_min)) for w, _ in eig]
    total = sum(w.sum() for w in weights)
    return ThermalTruncation(
        rho=DensityMatrix.from_blocks([(r, V, w / total) for r, (_, V), w in zip(rows, eig, weights)]),
        tail_mass=thermal_tail_mass(H, cutoff),
    )


def quadrature_observables(n_modes: int, cutoff: int) -> ObservableSet:
    """Truncated (x_1..x_n, p_1..p_n); the commutator defect sits at the top Fock level.

    x = (a^dag + a)/sqrt(2) and p = i(a^dag - a)/sqrt(2) of the real truncated a
    are exactly Hermitian, so the set is not re-validated; it records its
    ``LadderOrigin``, from which ``SpectralContext`` builds its stack.
    """
    if cutoff < 2:
        raise CutoffTooSmall(f"cutoff must be >= 2, got {cutoff}")
    a = destroy(cutoff)
    eye = np.eye(cutoff, dtype=complex)
    mats = []
    for q in ((a.conj().T + a) / math.sqrt(2), 1j * (a.conj().T - a) / math.sqrt(2)):
        for k in range(n_modes):
            factors = [eye] * n_modes
            factors[k] = q
            mats.append(functools.reduce(np.kron, factors))
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
    X = quadrature_observables(H.n_modes, cutoff)
    rep = check_refined_rs(trunc.rho, X)
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
    that keeps photon-number parity gets one eigh per parity block and records
    them (``DensityMatrix.from_matrix`` on ``parity_rows``); any other gets the
    dense eigh.
    """
    check_fock_dim(np.shape(matrix)[0], n_modes, cutoff)
    return DensityMatrix.from_matrix(matrix, partition=parity_rows(n_modes, cutoff))


def nongaussianity(rho: DensityMatrix, n_modes: int, cutoff: int) -> float:
    """Saturation gap of an arbitrary truncated-Fock state: 0 exactly on Gaussian states."""
    check_fock_dim(rho.dim, n_modes, cutoff)
    rep = check_refined_rs(rho, quadrature_observables(n_modes, cutoff))
    return rep.delta_G


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
