"""Uncertainty matrices of a state and observable set, and their determinant relations.

Conventions
-----------
For observables X_1..X_n (centered internally, X'_k = X_k - <X_k>):

* sigma[k, j] = Re <X'_k X'_j>                      (covariance, real symmetric PSD)
* delta[k, j] = (i/2) <[X_k, X_j]>                  (real antisymmetric; i*delta is Hermitian)
* skew[k, j]  = sum_ab (sqrt(l_a)-sqrt(l_b))^2/2 * Re <a|X_k|b><b|X_j|a>
* classical   = sigma - skew                        (vanishes on pure states)

``det_delta`` denotes |det(i*delta)|, which equals det(delta) for even n and
0 for odd n (antisymmetry).  The 2n x 2n matrix L is the Gram matrix of the
operators (sqrt(rho) X'_k +/- X'_k sqrt(rho))/sqrt(2) under <A, B> = Tr A^dag B;
its off-diagonal blocks both equal i*delta, which is Hermitian, so L is built
as [[sigma+c, i*delta], [i*delta, sigma-c]], and checked against the Gram route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np

from .linalg import (
    TOL_PSD,
    DensityMatrix,
    DimensionMismatch,
    NotPSD,
    SkewsharpError,
    mat_scale,
    require_hermitian,
)

TOL_INEQ = 1e-8
CONSTRUCTION_TOL = 1e-8

VACUOUS = math.inf  # sentinel margin for relations whose denominator vanishes


class ConstructionMismatch(SkewsharpError):
    """Gram-matrix and block assembly of L disagree: implementation bug."""


@dataclass(eq=False)
class ObservableSet:
    """Ordered list of Hermitian observables with a common dimension."""

    observables: tuple[np.ndarray, ...]

    @classmethod
    def from_matrices(cls, mats) -> "ObservableSet":
        mats = tuple(require_hermitian(np.asarray(m, dtype=complex), what="observable") for m in mats)
        if not mats:
            raise DimensionMismatch("need at least one observable")
        d = mats[0].shape[0]
        for k, m in enumerate(mats):
            if m.shape[0] != d:
                raise DimensionMismatch(f"observable {k} has dim {m.shape[0]}, expected {d}")
        return cls(observables=mats)

    @property
    def n(self) -> int:
        return len(self.observables)

    @property
    def dim(self) -> int:
        return self.observables[0].shape[0]


class KernelDomainError(SkewsharpError):
    """A kernel is non-finite where it must be evaluated."""


def _centered(rho: DensityMatrix, X: ObservableSet) -> np.ndarray:
    """Stack of X_k - <X_k>, shape (n, d, d); feeds the Gram route only."""
    stack = np.stack(X.observables)
    means = np.einsum("ba,kab->k", rho.matrix, stack).real
    return stack - means[:, None, None] * np.eye(rho.dim)


def classical_matrix(sigma: np.ndarray, skew: np.ndarray, tol_psd: float = TOL_PSD) -> np.ndarray:
    """sigma - skew; raises NotPSD if the difference dips below -tol (upstream failure)."""
    if sigma.shape != skew.shape:
        raise DimensionMismatch(f"shape mismatch {sigma.shape} vs {skew.shape}")
    c = sigma - skew
    lo = float(np.linalg.eigvalsh((c + c.T) / 2)[0]) if c.size else 0.0
    if lo < -tol_psd * mat_scale(c):
        raise NotPSD(f"classical matrix has eigenvalue {lo:.3e}; upstream numerical failure")
    return c


def _gram_L(rho: DensityMatrix, Xc: np.ndarray) -> np.ndarray:
    R = rho.sqrt
    left, right = R @ Xc, Xc @ R
    ops = np.concatenate([left + right, left - right]) / math.sqrt(2)
    return np.einsum("aij,bij->ab", ops.conj(), ops)


class SpectralContext:
    """One (rho, X) instance: clipped spectrum ``lam``, centered eigenbasis stack ``A``.

    Every matrix is ``pair(W)`` for its own weight matrix W on the spectrum.  A
    is built once; matrices and reports are cached, and ``memo`` holds further
    per-instance results keyed by their producer (e.g. one per monotone function).
    """

    def __init__(self, rho: DensityMatrix, X: ObservableSet):
        if rho.dim != X.dim:
            raise DimensionMismatch(f"state dim {rho.dim} != observable dim {X.dim}")
        self.rho = rho
        self.X = X
        self.lam = rho.eigenvalues
        self.memo: dict = {}

    @cached_property
    def A(self) -> np.ndarray:
        V = self.rho.eigenvectors
        A = V.conj().T @ np.stack(self.X.observables) @ V
        diag = np.arange(self.rho.dim)
        A[:, diag, diag] -= np.einsum("kaa,a->k", A, self.lam).real[:, None]
        return A

    def weights(self, g) -> np.ndarray:
        """Kernel g(l_a, l_b) on the spectrum; non-finite values are a KernelDomainError."""
        G = g(self.lam[:, None], self.lam[None, :])
        if not np.all(np.isfinite(G)):
            raise KernelDomainError(f"kernel '{g.label}' non-finite on the state's spectrum")
        return G

    def pair(self, W: np.ndarray) -> np.ndarray:
        """M[k, j] = sum_ab W[a, b] A_k[a, b] A_j[b, a], complex n x n."""
        return np.einsum("kab,ab,jba->kj", self.A, W, self.A)

    def symmetric_pair(self, W: np.ndarray) -> np.ndarray:
        M = self.pair(W)
        return np.real(M + M.T) / 2

    @cached_property
    def P(self) -> np.ndarray:
        """P[k, j] = Tr(rho X'_k X'_j): the pairing with W[a, b] = l_a."""
        return self.pair(np.broadcast_to(self.lam[:, None], self.A.shape[1:]))

    sigma = cached_property(lambda self: np.real(self.P + self.P.T) / 2)
    # i*delta[k,j] = -(P[k,j] - P[j,k])/2 = -i Im P[k,j]
    i_delta = cached_property(lambda self: -1j * np.imag(self.P))
    classical = cached_property(lambda self: classical_matrix(self.sigma, self.skew))
    refined = cached_property(lambda self: _refined_report(self))
    two_obs = cached_property(lambda self: _two_obs_report(self, TOL_INEQ))

    @cached_property
    def skew(self) -> np.ndarray:
        s = np.sqrt(self.lam)
        return self.symmetric_pair((s[:, None] - s[None, :]) ** 2 / 2)

    @cached_property
    def dets(self) -> dict[str, float]:
        sigma, c = self.sigma, self.classical
        return {
            "sigma": det_symmetric_psd(sigma),
            "delta": det_delta(self.i_delta),
            "skew": det_symmetric_psd(self.skew),
            "classical": det_symmetric_psd(c),
            "sigma_plus_c": det_symmetric_psd(sigma + c),
            "sigma_minus_c": det_symmetric_psd(sigma - c),
        }


def on_context(fn):
    """Public form fn(rho, X, ...) of fn(ctx, ...); the context form stays reachable as ``.ctx``."""

    @wraps(fn)
    def public(rho: DensityMatrix, X: ObservableSet, *args, **kwargs):
        return fn(SpectralContext(rho, X), *args, **kwargs)

    public.ctx = fn
    return public


def covariance_matrix(rho: DensityMatrix, X: ObservableSet) -> np.ndarray:
    """Symmetrized second moments of the centered observables."""
    return SpectralContext(rho, X).sigma


def commutator_matrix(rho: DensityMatrix, X: ObservableSet) -> np.ndarray:
    """Hermitian matrix i*delta with delta[k, j] = (i/2) <[X_k, X_j]>."""
    return SpectralContext(rho, X).i_delta


def delta_antisymmetric(i_delta: np.ndarray) -> np.ndarray:
    """Real antisymmetric delta extracted from the Hermitian i*delta."""
    return np.imag(i_delta)


def wy_skew_matrix(rho: DensityMatrix, X: ObservableSet) -> np.ndarray:
    """Skew-information matrix: the pairing with weight (sqrt(l_a) - sqrt(l_b))^2 / 2."""
    return SpectralContext(rho, X).skew


def build_L(rho: DensityMatrix, X: ObservableSet) -> np.ndarray:
    """2n x 2n Gram matrix of the (anti)commutators of sqrt(rho) with centered X.

    Built both as an explicit Gram matrix and by block assembly from
    sigma, classical and i*delta; disagreement beyond CONSTRUCTION_TOL is a
    permanent self-check failure (ConstructionMismatch).
    """
    return SpectralContext(rho, X).refined.L


def det_symmetric_psd(A: np.ndarray) -> float:
    """Determinant of a real symmetric (nominally PSD) matrix via eigenvalues."""
    if A.size == 0:
        return 1.0
    w = np.linalg.eigvalsh((A + A.T) / 2)
    return float(np.prod(w))


def det_delta(i_delta: np.ndarray) -> float:
    """|det(i*delta)|: equals det(delta) >= 0 for even n, exactly 0 for odd n."""
    n = i_delta.shape[0]
    if n % 2 == 1:
        return 0.0
    w = np.linalg.eigvalsh(i_delta)
    return abs(float(np.prod(w)))


def _pow_det(d: float, p: float) -> float:
    return max(d, 0.0) ** p


@dataclass(eq=False)
class UncertaintyReport:
    """All derived matrices, determinants and signed inequality margins."""

    sigma: np.ndarray
    delta: np.ndarray        # real antisymmetric
    i_delta: np.ndarray      # Hermitian
    skew: np.ndarray
    classical: np.ndarray
    L: np.ndarray
    dets: dict[str, float]
    margins: dict[str, float]
    scales: dict[str, float]
    delta_G: float
    schur_range_residual: float
    rank_L: int


def _schur_margin(sigma_plus: np.ndarray, sigma_minus: np.ndarray,
                  delta: np.ndarray) -> tuple[float, float]:
    """Min eigenvalue of (sigma+c) - delta^T (sigma-c)^+ delta, pseudo-inverted on the range.

    Returns (margin, range_residual) where the residual measures how far delta
    falls outside the range of sigma-c.
    """
    w, V = np.linalg.eigh((sigma_minus + sigma_minus.T) / 2)
    cut = TOL_PSD * mat_scale(sigma_minus)
    keep = w > cut
    Pi = V[:, keep]
    inv_w = 1.0 / w[keep]
    residual = float(np.abs(delta - Pi @ (Pi.T @ delta)).max()) if delta.size else 0.0
    pinv = (Pi * inv_w) @ Pi.T
    schur = sigma_plus - delta.T @ pinv @ delta
    lo = float(np.linalg.eigvalsh((schur + schur.T) / 2)[0])
    return lo, residual


def _refined_report(ctx: SpectralContext) -> UncertaintyReport:
    # the Gram route first: on a fresh context its temporaries are freed before A exists
    gram = _gram_L(ctx.rho, _centered(ctx.rho, ctx.X))
    n = ctx.X.n
    sigma, skew, c, i_delta = ctx.sigma, ctx.skew, ctx.classical, ctx.i_delta
    delta = delta_antisymmetric(i_delta)
    L = np.block([[sigma + c, i_delta], [i_delta, sigma - c]])
    dev = float(np.abs(L - gram).max())
    if dev > CONSTRUCTION_TOL * mat_scale(L):
        raise ConstructionMismatch(f"Gram and block constructions of L differ by {dev:.3e}")

    dets = ctx.dets
    d_sigma, d_skew, d_class, d_delta = dets["sigma"], dets["skew"], dets["classical"], dets["delta"]
    d_plus, d_minus = dets["sigma_plus_c"], dets["sigma_minus_c"]
    delta_G = d_plus * d_minus - d_delta**2

    p = 1.0 / n
    root_gap = (_pow_det(d_sigma, p) - _pow_det(d_skew, p)) ** 2
    m4a = (_pow_det(d_sigma, 2 * p) - _pow_det(d_delta, 2 * p)) - root_gap
    m4b = root_gap - _pow_det(d_class, 2 * p)

    w_L = np.linalg.eigvalsh(L)
    m7 = float(w_L[0])
    rank_L = int(np.count_nonzero(w_L > TOL_PSD * mat_scale(L)))

    m8, residual = _schur_margin(sigma + c, sigma - c, delta)

    margins = {
        "rs": d_sigma - d_delta,
        "eq3": delta_G,
        "eq4a": m4a,
        "eq4b": m4b,
        "eq7-psd": m7,
        "eq8-schur": m8,
    }
    scales = {
        "rs": max(1.0, abs(d_sigma), abs(d_delta)),
        "eq3": max(1.0, abs(d_plus * d_minus), d_delta**2),
        "eq4a": max(1.0, _pow_det(d_sigma, 2 * p)),
        "eq4b": max(1.0, _pow_det(d_sigma, 2 * p)),
        "eq7-psd": mat_scale(L),
        "eq8-schur": mat_scale(sigma + c),
    }
    return UncertaintyReport(
        sigma=sigma, delta=delta, i_delta=i_delta, skew=skew, classical=c, L=L,
        dets=dets, margins=margins, scales=scales, delta_G=delta_G,
        schur_range_residual=residual, rank_L=rank_L,
    )


def check_refined_rs(rho: DensityMatrix, X: ObservableSet) -> UncertaintyReport:
    """Assemble every matrix and the margins of the determinant relations.

    Margin keys: ``rs`` (|sigma| - |delta|), ``eq3`` (|sigma+c||sigma-c| - |delta|^2,
    identical to delta_G), ``eq4a``/``eq4b`` (the Minkowski chain), ``eq7-psd``
    (min eigenvalue of L), ``eq8-schur`` (min eigenvalue of the Schur complement).
    """
    return SpectralContext(rho, X).refined


@dataclass(eq=False)
class TwoObsReport:
    """Scalar two-observable relations derived from the 2x2 blocks of L.

    ``delta_scalar`` is <[X1, X2]>/(2i), a real number; A = |sigma| - |c|;
    B = |L+||L-|; U_a = sqrt(L_a+ L_a-).  Margins with no finite content
    (vanishing denominators) carry the VACUOUS (+inf) sentinel.
    """

    delta_scalar: float
    Lp: np.ndarray
    Lm: np.ndarray
    A: float
    B: float
    U1: float
    U2: float
    margins: dict[str, float]
    scales: dict[str, float]


def _guarded_sqrt(val: float, scale: float, tol: float, what: str) -> float:
    if val < -tol * scale:
        raise SkewsharpError(f"{what} = {val:.3e} is negative beyond tolerance")
    return math.sqrt(max(val, 0.0))


def _clipped_sqrt(val: float, scale: float, tol: float, what: str) -> float:
    """sqrt with a two-sided clip: |val| <= tol*scale counts as exact 0.

    Near saturation the difference under the root is a cancellation of equal
    products; sqrt would amplify its eps-level noise to sqrt(eps).
    """
    if abs(val) <= tol * scale:
        return 0.0
    if val < 0:
        raise SkewsharpError(f"{what} = {val:.3e} is negative beyond tolerance")
    return math.sqrt(val)


def _two_obs_report(ctx: SpectralContext, tol_ineq: float) -> TwoObsReport:
    sigma, c, i_delta = ctx.sigma, ctx.classical, ctx.i_delta
    # <[X1,X2]>/(2i) = -delta[0,1] in the (i/2)<[.,.]> convention
    delta = -float(np.imag(i_delta[0, 1]))

    Lp = sigma + c
    Lm = sigma - c
    d_m = ctx.dets["sigma_minus_c"]
    A = ctx.dets["sigma"] - ctx.dets["classical"]
    B = ctx.dets["sigma_plus_c"] * d_m
    scale = max(1.0, abs(A) ** 2, abs(B), delta**2)

    L1p, L2p = float(Lp[0, 0]), float(Lp[1, 1])
    L1m, L2m = float(Lm[0, 0]), float(Lm[1, 1])
    L12p, L12m = float(Lp[0, 1]), float(Lm[0, 1])

    U1 = _guarded_sqrt(L1p * L1m, scale, tol_ineq, "L1+ L1-")
    U2 = _guarded_sqrt(L2p * L2m, scale, tol_ineq, "L2+ L2-")

    disc = _clipped_sqrt(A**2 - B, scale, tol_ineq, "A^2 - B")
    m9a = A - disc - delta**2

    vac = TOL_PSD * mat_scale(sigma)
    m9b = []
    for La_p, La_m in ((L1p, L1m), (L2p, L2m)):
        if La_m <= vac:
            m9b.append(VACUOUS)
        else:
            m9b.append((La_p / La_m) * d_m - delta**2)

    m10 = U1 * U2 - _guarded_sqrt(B, scale, tol_ineq, "B") - abs(L12p * L12m)

    if L1m <= vac or L2m <= vac:
        m_fur = VACUOUS
    else:
        m_fur = U1 * U2 - delta**2 - math.sqrt((L1p * L2p) / (L1m * L2m)) * L12m**2

    margins = {
        "eq9a": m9a,
        "eq9b_1": m9b[0],
        "eq9b_2": m9b[1],
        "eq10": m10,
        "furuichi": m_fur,
        # impossibility branch guard: A >= delta^2, hence A + sqrt(A^2-B) >= delta^2
        "impossibility": A - delta**2,
        "second_root": A + disc - delta**2,
    }
    scales = {k: scale for k in margins}
    return TwoObsReport(
        delta_scalar=delta, Lp=Lp, Lm=Lm, A=A, B=B, U1=U1, U2=U2,
        margins=margins, scales=scales,
    )


def two_obs_relations(rho: DensityMatrix, X1: np.ndarray, X2: np.ndarray,
                      tol_ineq: float = TOL_INEQ) -> TwoObsReport:
    """Margins of the scalar relations equivalent to L >= 0 for two observables."""
    return _two_obs_report(SpectralContext(rho, ObservableSet.from_matrices([X1, X2])), tol_ineq)
