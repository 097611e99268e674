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
as [[sigma+c, i*delta], [i*delta, sigma-c]].

A :class:`SpectralContext` holds B instances of one shape (dimension d, n
observables) along a leading batch axis; every matrix, determinant and margin
is an array over that axis, and every tolerance scale is taken per instance.
The public (rho, X) functions are its B = 1 case, unwrapped by ``instance``.

The eigenbasis stack A_k = V^dag X'_k V is built on one of two routes, chosen
from the inputs.  Every observable set takes the dense products of V^dag, the
stacked X_k and V, except a set that records its ``origin``: an object whose
``eigenbasis_stack(V, blocks)`` gives the uncentered stack V^dag X_k V from
the state's eigenvectors and its invariant blocks (``DensityMatrix.blocks``).
The truncated quadratures of ``gaussian.quadrature_observables`` are the one
such set; their origin builds the stack from the ladder operators (see
:mod:`skewsharp.gaussian`).  Both routes are centered alike and pass the same
two self-checks.

The block route.  An origin's ``stack_blocks(blocks)`` may name the
eigenvector columns (P, Q) of two of the state's blocks on whose diagonal
blocks every A_k is exactly zero: the quadratures flip photon-number parity,
so they do so when the state carries its two parity blocks.  The context then
stores only X_k = A_k[P, Q] (``ctx.stack``); A_k[Q, P] = X_k^dag, the rest is
0 and so is every mean.  The pairing, the Gram check and the stack check each
take a form of matrix products on the flattened X_k, e.g.
sum_ab W[a, b] A_k[a, b] A_j[b, a] = sum_{a in P, b in Q} (W[a, b] X_k conj(X_j)
+ W[b, a] conj(X_k) X_j) for any complex W.  The route is chosen from the
inputs alone, an observable set with such an origin and a state with such
blocks; every other instance, among them every batch of the fuzz harness,
keeps the dense einsum bit for bit.  ``ctx.A`` stays available on the block
route, assembled on demand; the engine itself reads ``ctx.stack``.

Two self-checks guard that assembly (ConstructionMismatch on failure).  The
Gram route forms L again from the eigenbasis stack A_k = V^dag X'_k V, where
those operators are elementwise, (s_a +/- s_b) A_k[a, b] / sqrt(2) with
s = sqrt(lam): each block is one product of A with a weighted copy of A, apart
from the pairing that builds sigma, c and delta.  The stack check ties A to the
input basis in O(n^2 d^2): the means Tr(rho X_k) from the state matrix against
the means A was centered with, and the Hilbert-Schmidt pairing Tr(X'_k X'_j)
of the input observables against the same pairing of A.  It reads the dense
X_k on either route, so a stack built by an origin is checked against the
plain definition of the observables.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import reduce, wraps

import numpy as np

from .linalg import (
    TOL_PSD,
    DensityMatrix,
    DimensionMismatch,
    NotPSD,
    SkewsharpError,
    mat_scale,
    raise_first,
    require_hermitian,
)

TOL_INEQ = 1e-8
CONSTRUCTION_TOL = 1e-8

VACUOUS = math.inf  # sentinel margin for relations whose denominator vanishes


class ConstructionMismatch(SkewsharpError):
    """A self-check of the matrix construction failed: implementation bug."""


@dataclass(eq=False, frozen=True)
class ObservableSet:
    """Ordered list of Hermitian observables with a common dimension.

    ``origin`` is None, or the construction the observables came from when it
    gives their eigenbasis stack without the dense products: an object with
    ``eigenbasis_stack(V, blocks)``.  Only a module's own constructor sets it
    (``gaussian.quadrature_observables``), through ``_with_origin``.
    """

    observables: tuple[np.ndarray, ...]
    origin: object | None = field(default=None, init=False, repr=False)

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

    @classmethod
    def _with_origin(cls, mats, origin) -> "ObservableSet":
        """Observables built exactly Hermitian by their constructor, recorded with
        their origin and not re-validated."""
        X = cls(observables=tuple(mats))
        object.__setattr__(X, "origin", origin)
        return X

    @property
    def n(self) -> int:
        return len(self.observables)

    @property
    def dim(self) -> int:
        return self.observables[0].shape[0]


class KernelDomainError(SkewsharpError):
    """A kernel is non-finite where it must be evaluated."""


class cached:
    """A computed attribute stored on first use: functools.cached_property without its lock."""

    def __init__(self, fn):
        self.fn = fn

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def _sym(M: np.ndarray) -> np.ndarray:
    return (M + M.swapaxes(-2, -1)) / 2


def relation_scale(*terms):
    """max(1, terms...) per instance; a NaN term is skipped, as in Python's ``max(1.0, nan)``."""
    return reduce(np.fmax, terms, 1.0)


def _require_classical_psd(lo, c: np.ndarray, tol_psd: float = TOL_PSD) -> None:
    raise_first(lo < -tol_psd * mat_scale(c), lambda m: NotPSD(
        f"classical matrix has eigenvalue {m:.3e}; upstream numerical failure"), lo)


def classical_matrix(sigma: np.ndarray, skew: np.ndarray, tol_psd: float = TOL_PSD) -> np.ndarray:
    """sigma - skew; raises NotPSD if the difference dips below -tol (upstream failure)."""
    if sigma.shape != skew.shape:
        raise DimensionMismatch(f"shape mismatch {sigma.shape} vs {skew.shape}")
    c = sigma - skew
    if c.size:
        _require_classical_psd(np.linalg.eigvalsh(_sym(c))[..., 0], c, tol_psd)
    return c


def _eigenbasis_gram(S: np.ndarray, lam: np.ndarray, block_cols=None) -> np.ndarray:
    """Gram matrices of the operators (s_a +/- s_b) A_k[a, b] / sqrt(2), s = sqrt(lam).

    Block (u, v) is G[p, q] = sum_ab w_uv[a, b] conj(A_p[a, b]) A_q[a, b] with
    w_uv = t_u t_v for t_+/- = (s_a +/- s_b) / sqrt(2): one product per
    instance on one weighted copy of the stored stack S at a time.  On the
    block route (S holds X_k = A_k[P, Q], ``block_cols`` = (P, Q)) the (Q, P)
    terms are the (P, Q) ones conjugated, with the sign of w_uv[b, a] = +/- w_uv[a, b]
    (t_+ is symmetric, t_- antisymmetric).
    """
    B, n = S.shape[:2]
    s = np.sqrt(lam / 2)
    s_rows, s_cols = (s, s) if block_cols is None else (s[:, c] for c in block_cols)
    t_plus, t_minus = s_rows[:, :, None] + s_cols[:, None, :], s_rows[:, :, None] - s_cols[:, None, :]
    flat = S.reshape(B, n, -1)
    G = np.empty((B, 2 * n, 2 * n), dtype=complex)
    wS = np.empty_like(S)
    for u, v, t_u, t_v, sign in ((0, 0, t_plus, t_plus, 1), (0, n, t_plus, t_minus, -1),
                                 (n, n, t_minus, t_minus, 1)):
        np.multiply((t_u * t_v)[:, None], S, out=wS)
        np.conjugate(wS, out=wS)
        T = wS.reshape(B, n, -1) @ flat.swapaxes(1, 2)
        G[:, u:u + n, v:v + n] = T if block_cols is None else T + sign * np.conj(T)
    G[:, n:, :n] = np.conj(G[:, :n, n:]).swapaxes(1, 2)
    return G


def _check_stack(ctx: "SpectralContext") -> None:
    """The eigenbasis stack against the input basis: means and Hilbert-Schmidt pairing."""
    B, n, d = ctx.size, ctx.n, ctx.dim
    # Re Tr(Y^dag Z) = Tr(Y Z) for Hermitian Y, Z is the dot product of their float views
    rows = np.empty((B, n + 1, d, d), dtype=complex)
    for k, X in enumerate(ctx.observables):
        rows[:, k] = X
    rows[:, n] = ctx.matrix
    flat = rows.reshape(B, n + 1, -1).view(float)
    G = flat @ flat.swapaxes(1, 2)
    scale = mat_scale(G[:, :n, :n])             # max_k Tr(X_k^2) >= |Tr(rho X_k)|^2
    means = G[:, :n, n].copy()                  # Tr(rho X_k)
    # the identity's pairings Tr(X_k 1) = Tr(X_k) and Tr(1 1) = d replace the rho column;
    # a stored identity row would cost one more d x d copy at the peak of a d = 900 check
    G[:, :n, n] = G[:, n, :n] = np.einsum("zkaa->zk", rows[:, :n]).real
    G[:, n, n] = d
    dev = np.abs(means - ctx.means).max(axis=-1)
    raise_first(dev > CONSTRUCTION_TOL * np.sqrt(scale), lambda e: ConstructionMismatch(
        f"eigenbasis means differ from Tr(rho X_k) by {e:.3e}"), dev)
    C = np.zeros((B, n, n + 1))                 # X'_k = X_k - m_k 1
    C[:, :, :n], C[:, :, n] = np.eye(n), -means
    # on the block route Re Tr(A_k^dag A_j) is twice the pairing of the (P, Q) blocks
    flat_S = ctx.stack.reshape(B, n, -1).view(float)
    HS = flat_S @ flat_S.swapaxes(1, 2) * (1 if ctx.block_cols is None else 2)
    dev = np.abs(C @ G @ C.swapaxes(1, 2) - HS).max(axis=(1, 2))
    raise_first(dev > CONSTRUCTION_TOL * scale, lambda e: ConstructionMismatch(
        f"eigenbasis stack changes Tr(X'_k X'_j) by {e:.3e}"), dev)


class SpectralContext:
    """B instances (rho, X) of one shape: clipped spectra ``lam`` (B, d), centered
    eigenbasis stacks ``A`` (B, n, d, d), stored as ``stack``: A itself, or on the
    block route (``block_cols`` set) its blocks A_k[P, Q].

    Every matrix is ``pair(W)`` for its own weight W (B, d, d) on the spectra.  A
    is built once; matrices, kernel weights and reports are cached, and ``memo``
    holds further results keyed by their producer (e.g. one per monotone function).
    ``SpectralContext(rho, X)`` is one instance (B = 1); ``from_arrays`` takes a batch.
    """

    def __init__(self, rho: DensityMatrix, X: ObservableSet):
        if rho.dim != X.dim:
            raise DimensionMismatch(f"state dim {rho.dim} != observable dim {X.dim}")
        self._setup(rho.matrix[None], rho.eigenvalues[None], rho.eigenvectors[None],
                    [M[None] for M in X.observables], X.origin, rho.blocks)

    @classmethod
    def from_arrays(cls, matrix: np.ndarray, lam: np.ndarray, V: np.ndarray,
                    obs: np.ndarray) -> "SpectralContext":
        """A batch of validated instances: states (B, d, d) with their clipped
        descending spectra and eigenvectors, and Hermitian observables (B, n, d, d)."""
        ctx = cls.__new__(cls)
        ctx._setup(matrix, lam, V, [obs[:, k] for k in range(obs.shape[1])])
        return ctx

    def _setup(self, matrix, lam, V, observables, origin=None, state_blocks=None) -> None:
        self.matrix, self.lam, self.V = matrix, lam, V
        self.origin, self.state_blocks = origin, state_blocks    # B = 1: the set's origin, the state's blocks
        self.observables = observables      # n arrays (B, d, d)
        self.size, self.dim = lam.shape
        self.n = len(observables)
        # the block route: eigenbasis columns (P, Q) of two blocks on whose diagonal
        # blocks every A_k is exactly zero, as the origin finds them in the state's blocks
        self.block_cols = None if origin is None else origin.stack_blocks(state_blocks)
        self.memo: dict = {}
        self._weights: dict = {}

    @cached
    def _stack(self) -> tuple[np.ndarray, np.ndarray]:
        if self.origin is None:
            V = self.V[:, None]
            A = np.conj(V).swapaxes(2, 3) @ np.stack(self.observables, axis=1) @ V
        else:
            A = self.origin.eigenbasis_stack(self.V[0], self.state_blocks)[None]
        if self.block_cols is not None:
            return A, np.zeros((self.size, self.n))     # a zero diagonal: every mean is 0
        diag = np.einsum("zkaa->zka", A)           # a view: centering writes into A
        means = np.einsum("zka,za->zk", diag, self.lam).real
        diag -= means[:, :, None]
        return A, means

    # the stored stack: the centered A_k = V^dag X'_k V, or on the block route their
    # blocks X_k = A_k[P, Q] (B, n, |P|, |Q|); and the means <X_k> A was centered with
    stack = property(lambda self: self._stack[0])
    means = property(lambda self: self._stack[1])

    @property
    def A(self) -> np.ndarray:
        """The centered stacks (B, n, d, d); on the block route assembled on each call
        from X_k (A_k[Q, P] = X_k^dag, zero elsewhere).  The engine reads ``stack``."""
        if self.block_cols is None:
            return self.stack
        P, Q = self.block_cols
        A = np.zeros((self.size, self.n, self.dim, self.dim), dtype=complex)
        A[:, :, P[:, None], Q] = self.stack
        A[:, :, Q[:, None], P] = np.conj(self.stack).swapaxes(2, 3)
        return A

    def weights(self, g) -> np.ndarray:
        """Kernel g(l_a, l_b) on each spectrum, once per kernel; non-finite values are a KernelDomainError.

        A kernel combined from others (``gcov.combined_kernel``) combines its bases' values.
        """
        if g not in self._weights:
            if g.bases:
                G = np.asarray(g.combine(*map(self.weights, g.bases)), dtype=complex)
            else:
                G = g(self.lam[:, :, None], self.lam[:, None, :])
            raise_first(~np.isfinite(G).all(axis=(1, 2)), lambda: KernelDomainError(
                f"kernel '{g.label}' non-finite on the state's spectrum"))
            self._weights[g] = G
        return self._weights[g]

    def pair(self, W: np.ndarray) -> np.ndarray:
        """M[z, k, j] = sum_ab W[z, a, b] A_k[a, b] A_j[b, a] for each instance z, complex (B, n, n).

        On the block route the sum runs over a in P, b in Q only, as
        W[a, b] X_k conj(X_j) + W[b, a] conj(X_k) X_j: two matrix products on the
        flattened blocks, for any complex W.
        """
        if self.block_cols is None:
            return np.einsum("zkab,zab,zjba->zkj", self.A, W, self.A)
        P, Q = self.block_cols
        X = self.stack.reshape(self.size, self.n, -1)
        Xc = np.conj(X)
        W_pq = W[:, P[:, None], Q].reshape(self.size, 1, -1)
        W_qp = W.swapaxes(1, 2)[:, P[:, None], Q].reshape(self.size, 1, -1)    # W[b, a]
        return (X * W_pq) @ Xc.swapaxes(1, 2) + (Xc * W_qp) @ X.swapaxes(1, 2)

    def symmetric_pair(self, W: np.ndarray) -> np.ndarray:
        return np.real(_sym(self.pair(W)))

    @cached
    def P(self) -> np.ndarray:
        """P[k, j] = Tr(rho X'_k X'_j): the pairing with W[a, b] = l_a."""
        return self.pair(self.lam[:, :, None] * np.ones(self.dim))

    sigma = cached(lambda self: np.real(_sym(self.P)))
    # i*delta[k,j] = -(P[k,j] - P[j,k])/2 = -i Im P[k,j]
    i_delta = cached(lambda self: -1j * np.imag(self.P))
    delta_det = cached(lambda self: det_delta(self.i_delta))   # |det(i delta)|
    classical = cached(lambda self: self.sigma - self.skew)
    # the diagonal blocks sigma + c and sigma - c of L
    blocks = cached(lambda self: (self.sigma + self.classical, self.sigma - self.classical))
    refined = cached(lambda self: _refined_report(self))
    two_obs = cached(lambda self: _two_obs_report(self, TOL_INEQ))

    @cached
    def skew(self) -> np.ndarray:
        s = np.sqrt(self.lam)
        return self.symmetric_pair((s[:, :, None] - s[:, None, :]) ** 2 / 2)

    @cached
    def dets(self) -> dict[str, np.ndarray]:
        """The determinants, from one eigvalsh of the sigma family; checks c >= 0 on the way.

        sigma and skew are symmetrized pairings, so all five matrices are exactly symmetric.
        """
        c = self.classical
        w = np.linalg.eigvalsh(np.stack([self.sigma, self.skew, c, *self.blocks]))
        _require_classical_psd(w[2, :, 0], c)
        d = np.prod(w, axis=-1)
        return {"sigma": d[0], "delta": self.delta_det, "skew": d[1], "classical": d[2],
                "sigma_plus_c": d[3], "sigma_minus_c": d[4]}


def instance(value, i: int = 0):
    """Instance i of a batched result: arrays lose the batch axis (1-d ones give
    Python numbers); dicts and report dataclasses are taken field by field."""
    kind = type(value)
    if kind is np.ndarray:
        return value.item(i) if value.ndim == 1 else value[i]
    if kind is dict:
        return {k: instance(v, i) for k, v in value.items()}
    if dataclasses.is_dataclass(kind):
        return type(value)(**{k: instance(v, i) for k, v in vars(value).items()})
    return value


def on_context(fn):
    """Public form fn(rho, X, ...) of fn(ctx, ...) on one instance; the batched
    context form stays reachable as ``.ctx``."""

    @wraps(fn)
    def public(rho: DensityMatrix, X: ObservableSet, *args, **kwargs):
        return instance(fn(SpectralContext(rho, X), *args, **kwargs))

    public.ctx = fn
    return public


@on_context
def covariance_matrix(ctx: SpectralContext) -> np.ndarray:
    """Symmetrized second moments of the centered observables."""
    return ctx.sigma


@on_context
def commutator_matrix(ctx: SpectralContext) -> np.ndarray:
    """Hermitian matrix i*delta with delta[k, j] = (i/2) <[X_k, X_j]>."""
    return ctx.i_delta


def delta_antisymmetric(i_delta: np.ndarray) -> np.ndarray:
    """Real antisymmetric delta extracted from the Hermitian i*delta."""
    return np.imag(i_delta)


@on_context
def wy_skew_matrix(ctx: SpectralContext) -> np.ndarray:
    """Skew-information matrix: the pairing with weight (sqrt(l_a) - sqrt(l_b))^2 / 2."""
    return ctx.skew


@on_context
def build_L(ctx: SpectralContext) -> np.ndarray:
    """2n x 2n Gram matrix of the (anti)commutators of sqrt(rho) with centered X.

    Built both as an explicit Gram matrix and by block assembly from
    sigma, classical and i*delta; disagreement beyond CONSTRUCTION_TOL is a
    permanent self-check failure (ConstructionMismatch).
    """
    return ctx.refined.L


def det_symmetric_psd(A: np.ndarray):
    """Determinant of a real symmetric (nominally PSD) matrix via eigenvalues; one per matrix of a stack."""
    if A.shape[-1] == 0:
        return 1.0
    d = np.prod(np.linalg.eigvalsh(_sym(A)), axis=-1)
    return float(d) if d.ndim == 0 else d


def det_delta(i_delta: np.ndarray):
    """|det(i*delta)|: equals det(delta) >= 0 for even n, exactly 0 for odd n; one per matrix of a stack."""
    n = i_delta.shape[-1]
    d = np.zeros(i_delta.shape[:-2]) if n % 2 == 1 else np.abs(np.prod(np.linalg.eigvalsh(i_delta), axis=-1))
    return float(d) if d.ndim == 0 else d


def _pow_det(d, p: float):
    return np.maximum(d, 0.0) ** p


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
                  delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min eigenvalue of (sigma+c) - delta^T (sigma-c)^+ delta, pseudo-inverted on the range.

    Returns (margin, range_residual) per instance, where the residual measures
    how far delta falls outside the range of sigma-c.  Eigenvectors outside
    each instance's own range are zeroed, not dropped, so instances keep one shape.
    """
    w, V = np.linalg.eigh(sigma_minus)             # exactly symmetric (see dets)
    keep = w > TOL_PSD * mat_scale(sigma_minus)[:, None]
    Pi = V * keep[:, None, :]
    inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=keep)
    residual = np.abs(delta - Pi @ (Pi.swapaxes(1, 2) @ delta)).max(axis=(1, 2))
    pinv = (Pi * inv_w[:, None, :]) @ Pi.swapaxes(1, 2)
    schur = sigma_plus - delta.swapaxes(1, 2) @ pinv @ delta
    return np.linalg.eigvalsh(_sym(schur))[:, 0], residual


def _refined_report(ctx: SpectralContext) -> UncertaintyReport:
    n = ctx.n
    sigma, skew, c, i_delta = ctx.sigma, ctx.skew, ctx.classical, ctx.i_delta
    dets = ctx.dets
    Lp, Lm = ctx.blocks
    delta = delta_antisymmetric(i_delta)
    L = np.empty((ctx.size, 2 * n, 2 * n), dtype=complex)    # [[sigma+c, i delta], [i delta, sigma-c]]
    L[:, :n, :n], L[:, n:, n:] = Lp, Lm
    L[:, :n, n:] = L[:, n:, :n] = i_delta
    scale_L = mat_scale(L)
    _check_stack(ctx)
    dev = np.abs(L - _eigenbasis_gram(ctx.stack, ctx.lam, ctx.block_cols)).max(axis=(1, 2))
    raise_first(dev > CONSTRUCTION_TOL * scale_L, lambda e: ConstructionMismatch(
        f"Gram and block constructions of L differ by {e:.3e}"), dev)

    d_sigma, d_skew, d_class, d_delta = dets["sigma"], dets["skew"], dets["classical"], dets["delta"]
    d_plus, d_minus = dets["sigma_plus_c"], dets["sigma_minus_c"]
    delta_G = d_plus * d_minus - d_delta**2

    p = 1.0 / n
    root_gap = (_pow_det(d_sigma, p) - _pow_det(d_skew, p)) ** 2
    chain_top = _pow_det(d_sigma, 2 * p)
    m4a = (chain_top - _pow_det(d_delta, 2 * p)) - root_gap
    m4b = root_gap - _pow_det(d_class, 2 * p)

    w_L = np.linalg.eigvalsh(L)
    rank_L = (w_L > TOL_PSD * scale_L[:, None]).sum(axis=1)

    m8, residual = _schur_margin(Lp, Lm, delta)

    margins = {
        "rs": d_sigma - d_delta,
        "eq3": delta_G,
        "eq4a": m4a,
        "eq4b": m4b,
        "eq7-psd": w_L[:, 0],
        "eq8-schur": m8,
    }
    scales = {
        "rs": relation_scale(np.abs(d_sigma), np.abs(d_delta)),
        "eq3": relation_scale(np.abs(d_plus * d_minus), d_delta**2),
        "eq4a": relation_scale(chain_top),
        "eq4b": relation_scale(chain_top),
        "eq7-psd": scale_L,
        "eq8-schur": mat_scale(Lp),
    }
    return UncertaintyReport(
        sigma=sigma, delta=delta, i_delta=i_delta, skew=skew, classical=c, L=L,
        dets=dets, margins=margins, scales=scales, delta_G=delta_G,
        schur_range_residual=residual, rank_L=rank_L,
    )


@on_context
def check_refined_rs(ctx: SpectralContext) -> UncertaintyReport:
    """Assemble every matrix and the margins of the determinant relations.

    Margin keys: ``rs`` (|sigma| - |delta|), ``eq3`` (|sigma+c||sigma-c| - |delta|^2,
    identical to delta_G), ``eq4a``/``eq4b`` (the Minkowski chain), ``eq7-psd``
    (min eigenvalue of L), ``eq8-schur`` (min eigenvalue of the Schur complement).
    """
    return ctx.refined


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


def _two_obs_scalars(d_sigma: float, d_class: float, d_plus: float, d_minus: float, delta: float,
                     Lp: list, Lm: list, vac: float, tol_ineq: float) -> tuple:
    """One instance's (delta, A, B, U1, U2, scale, margins...) from its determinants,
    its delta and its 2x2 blocks L+ and L- (flattened), in Python floats."""
    A = d_sigma - d_class
    B = d_plus * d_minus
    d2 = delta * delta
    scale = max(1.0, A * A, abs(B), d2)

    L1p, L12p, _, L2p = Lp
    L1m, L12m, _, L2m = Lm
    U1 = _guarded_sqrt(L1p * L1m, scale, tol_ineq, "L1+ L1-")
    U2 = _guarded_sqrt(L2p * L2m, scale, tol_ineq, "L2+ L2-")
    U12 = U1 * U2
    disc = _clipped_sqrt(A * A - B, scale, tol_ineq, "A^2 - B")

    # a vanishing L_a- makes the relations through it VACUOUS
    m9b = [VACUOUS if La_m <= vac else (La_p / La_m) * d_minus - d2
           for La_p, La_m in ((L1p, L1m), (L2p, L2m))]
    m10 = U12 - _guarded_sqrt(B, scale, tol_ineq, "B") - abs(L12p * L12m)
    if L1m <= vac or L2m <= vac:
        m_fur = VACUOUS
    else:
        ratio = (L1p * L2p) / (L1m * L2m)
        m_fur = U12 - d2 - (math.sqrt(ratio) if ratio >= 0 else math.nan) * (L12m * L12m)
    # impossibility branch guard: A >= delta^2, hence A + sqrt(A^2-B) >= delta^2
    return (delta, A, B, U1, U2, scale,
            A - disc - d2, m9b[0], m9b[1], m10, m_fur, A - d2, A + disc - d2)


TWO_OBS_MARGINS = ("eq9a", "eq9b_1", "eq9b_2", "eq10", "furuichi", "impossibility", "second_root")


def _two_obs_rows(ctx: SpectralContext, tol_ineq: float) -> list[tuple]:
    """``_two_obs_scalars`` of each instance.  The matrices and determinants come
    batched from the context; the few scalars per instance are evaluated in Python
    floats, which at B = 1 cost a fraction of the same arithmetic on (1,)-arrays."""
    dets = ctx.dets
    Lp, Lm = ctx.blocks
    # <[X1,X2]>/(2i) = -delta[0,1] = Im P[0,1] in the (i/2)<[.,.]> convention
    delta = ctx.P.imag[:, 0, 1]
    vac = TOL_PSD * mat_scale(ctx.sigma)
    per_instance = zip(dets["sigma"].tolist(), dets["classical"].tolist(), dets["sigma_plus_c"].tolist(),
                       dets["sigma_minus_c"].tolist(), delta.tolist(), Lp.reshape(-1, 4).tolist(),
                       Lm.reshape(-1, 4).tolist(), vac.tolist())
    return [_two_obs_scalars(*args, tol_ineq) for args in per_instance]


def _pack_two_obs(Lp, Lm, values) -> TwoObsReport:
    delta, A, B, U1, U2, scale, *margins = values
    return TwoObsReport(
        delta_scalar=delta, Lp=Lp, Lm=Lm, A=A, B=B, U1=U1, U2=U2,
        margins=dict(zip(TWO_OBS_MARGINS, margins)), scales=dict.fromkeys(TWO_OBS_MARGINS, scale),
    )


def _two_obs_report(ctx: SpectralContext, tol_ineq: float) -> TwoObsReport:
    columns = zip(*_two_obs_rows(ctx, tol_ineq))
    return _pack_two_obs(*ctx.blocks, [np.array(col) for col in columns])


def two_obs_relations(rho: DensityMatrix, X1: np.ndarray, X2: np.ndarray,
                      tol_ineq: float = TOL_INEQ) -> TwoObsReport:
    """Margins of the scalar relations equivalent to L >= 0 for two observables."""
    ctx = SpectralContext(rho, ObservableSet.from_matrices([X1, X2]))
    (row,) = _two_obs_rows(ctx, tol_ineq)
    Lp, Lm = ctx.blocks
    return _pack_two_obs(Lp[0], Lm[0], row)     # the one row as it is, not through batch arrays
