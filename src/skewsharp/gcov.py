"""Generalized covariance engine: kernel superoperators and metric-adjusted skew information.

A bivariate kernel g(x, y) acts on an operator Z through the eigensystem of the
state: in the eigenbasis, entry (j, k) of Z is multiplied by g(l_j, l_k).  The
g-covariance of centered observables,

    cov_g[k, j] = Tr X'_k J_g(X'_j),

reproduces the covariance matrix for g = (x+y)/2, the commutator matrix for
g = i(y-x)/2, and the skew-information matrix for the kernel derived from the
square-root mean.  Kernels are only ever evaluated on eigenvalue pairs of the
given state; 0/0 points of quotient kernels are defined as 0.

Observables are centered before the trace pairing so the canonical reductions
hold exactly (the uncentered variant differs by mean terms).  Every matrix here
is a pairing of one :class:`~skewsharp.skew.SpectralContext` with its own
weight matrix, made once per context: a kernel's pairing by ``ctx.cov``, the
f-skew pairing by ``f_skew_pairing``.  The public (rho, X, ...) functions build
a fresh one-instance context, and their ``.ctx`` forms take a shared, possibly
batched one and return one result per instance.

Monotone-function catalog labels: "wy" (= "wyd:0.5"), "wyd:<alpha>" with
alpha in (0, 1/2], "sld".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable

import numpy as np

from .linalg import (
    SkewsharpError,
    hermitian_parts,
    mat_scale,
    raise_first,
)
from .skew import (
    KernelDomainError,
    SpectralContext,
    _sym,
    det_symmetric_psd,
    on_context,
    relation_scale,
)

VALIDATION_GRID = np.concatenate(([0.0], np.logspace(-6, 6, 121)))


class KernelContractViolation(SkewsharpError):
    pass


class PreconditionViolation(SkewsharpError):
    pass


class UnknownLabel(SkewsharpError):
    pass


# --------------------------------------------------------------- kernels

@dataclass(eq=False)
class BivariateKernel:
    """Vectorized kernel g(x, y) on [0, inf)^2 with declared structure flags."""

    label: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    nonnegative: bool = False
    symmetric: bool = False

    def __post_init__(self):
        xs, ys = np.meshgrid(VALIDATION_GRID, VALIDATION_GRID)
        vals = np.asarray(self.fn(xs, ys), dtype=complex)
        if not np.all(np.isfinite(vals)):
            raise KernelDomainError(f"kernel '{self.label}' non-finite on the validation grid")
        if self.nonnegative:
            if np.abs(vals.imag).max() > 1e-12 or vals.real.min() < -1e-12:
                raise KernelContractViolation(f"kernel '{self.label}' flagged nonnegative but is not")
        if self.symmetric and np.abs(vals - vals.T).max() > 1e-10 * max(1.0, np.abs(vals).max()):
            raise KernelContractViolation(f"kernel '{self.label}' flagged symmetric but is not")

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float)), dtype=complex)


def mean_kernel() -> BivariateKernel:
    """The arithmetic mean (x + y)/2, as the sld function's matrix-mean kernel: one kernel object,
    so a context evaluates and pairs it once for eq17 and for sld."""
    return resolve_monotone("sld").mean_kernel


@cache
def eps_kernel() -> BivariateKernel:
    return BivariateKernel("eps", lambda x, y: 0.5j * (y - x))


def quotient_kernel(num: BivariateKernel, den: BivariateKernel) -> BivariateKernel:
    """num/den with the 0/0 := 0 convention; other zero denominators are domain errors."""
    label = f"{num.label}/{den.label}"

    def fn(x, y):
        n, d = num(x, y), den(x, y)
        zero = np.abs(d) == 0
        if np.any(zero & (np.abs(n) != 0)):
            raise KernelDomainError(
                f"kernel '{label}': denominator vanishes where numerator does not"
            )
        return np.where(zero, 0.0, n / np.where(zero, 1.0, d))

    return BivariateKernel(label, fn)


def product_kernels(a: Callable[[np.ndarray], np.ndarray],
                    b: Callable[[np.ndarray], np.ndarray],
                    mu: float,
                    label: str = "product") -> tuple[BivariateKernel, BivariateKernel, BivariateKernel]:
    """Modified-commutator family: g+- = (a_x +- a_y)(b_x +- b_y), g0 = mu (a_x b_y - a_y b_x)."""
    gp = BivariateKernel(f"{label}+", lambda x, y: (a(x) + a(y)) * (b(x) + b(y)),
                         nonnegative=True, symmetric=True)
    gm = BivariateKernel(f"{label}-", lambda x, y: (a(x) - a(y)) * (b(x) - b(y)),
                         nonnegative=True, symmetric=True)
    g0 = BivariateKernel(f"{label}0", lambda x, y: mu * (a(x) * b(y) - a(y) * b(x)))
    return gp, gm, g0


# ------------------------------------------------- monotone function family

MONOTONE_GRID = np.logspace(-6, 6, 121)
LOWNER_POINTS = np.logspace(-3, 3, 25)
LOWNER_STEP = 1e-5   # relative step of the central difference f'(x) on the Löwner diagonal
# lowest Löwner eigenvalue allowed, relative to the largest: the catalog reads at most
# 4e-11 (rounding); an f that is monotone but not operator monotone can read -2e-2
LOWNER_TOL = 1e-6


def lowner_matrix(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray = LOWNER_POINTS) -> np.ndarray:
    """Löwner matrix of f on the points x: divided differences (f(x_i) - f(x_j)) / (x_i - x_j),
    with f'(x_i) (a central difference of relative step ``LOWNER_STEP``) on the diagonal."""
    fx = f(x)
    diag = np.eye(x.size, dtype=bool)
    D = (fx[:, None] - fx[None, :]) / np.where(diag, 1.0, x[:, None] - x[None, :])
    D[diag] = (f(x * (1 + LOWNER_STEP)) - f(x * (1 - LOWNER_STEP))) / (2 * LOWNER_STEP * x)
    return D


@dataclass(eq=False)
class MonotoneFunction:
    """Normalized symmetric operator-monotone function with f(0) > 0.

    Validated on a grid: f(1) = 1, x f(1/x) = f(x), midpoint concavity and the
    two-sided bound f(0)(1+x) <= f(x) <= (1+x)/2.  Operator monotonicity is
    checked through Löwner's theorem (Math. Z. 38, 1934) on one point set: the
    Löwner matrix on ``LOWNER_POINTS`` must be PSD, its lowest eigenvalue at least
    -``LOWNER_TOL`` times its largest.  That is a necessary condition only; a
    finite sample cannot prove operator monotonicity.

    ``lam`` and the derived kernels are computed once per instance.  A
    concurrent first use recomputes identical values, so sharing instances
    across threads is safe.
    """

    label: str
    f0: float
    fn: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if not self.f0 > 0:
            raise PreconditionViolation(f"f '{self.label}': f(0) = {self.f0} must be positive")
        one = float(self(np.array([1.0]))[0])
        if abs(one - 1.0) > 1e-12:
            raise PreconditionViolation(f"f '{self.label}': f(1) = {one}, expected 1")
        x = MONOTONE_GRID
        fx = self(x)
        scale = np.maximum(1.0, (1 + x) / 2)
        if np.any(np.abs(x * self(1.0 / x) - fx) > 1e-10 * scale):
            raise PreconditionViolation(f"f '{self.label}': x f(1/x) != f(x) on the grid")
        mid_scale = np.maximum(scale[:-1], scale[1:])
        mid = self((x[:-1] + x[1:]) / 2)
        if np.any(mid - (fx[:-1] + fx[1:]) / 2 < -1e-10 * mid_scale):
            raise PreconditionViolation(f"f '{self.label}': midpoint concavity fails on the grid")
        if np.any(fx - self.f0 * (1 + x) < -1e-10 * scale):
            raise PreconditionViolation(f"f '{self.label}': lower bound f(0)(1+x) fails")
        if np.any(fx - (1 + x) / 2 > 1e-10 * scale):
            raise PreconditionViolation(f"f '{self.label}': upper bound (1+x)/2 fails")
        fz = float(self(np.array([0.0]))[0])
        if abs(fz - self.f0) > 1e-12:
            raise PreconditionViolation(f"f '{self.label}': f(0) evaluates to {fz}, declared {self.f0}")
        w = np.linalg.eigvalsh(lowner_matrix(self))
        if w[0] < -LOWNER_TOL * w[-1]:
            raise PreconditionViolation(
                f"f '{self.label}': not operator monotone, its Löwner matrix has eigenvalue "
                f"{w[0] / w[-1]:.2e} of its largest (tol {LOWNER_TOL:.0e})")

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)

    @cached_property
    def lam(self) -> float:
        """lambda_f = min F (see lambda_f)."""
        return lambda_f(self).lam

    @cached_property
    def mean_kernel(self) -> BivariateKernel:
        """Matrix-mean kernel m_f(x, y) = y f(x/y), evaluated scale-symmetrically."""
        return BivariateKernel(f"m[{self.label}]", _mean_like(self), nonnegative=True, symmetric=True)

    @cached_property
    def skew_kernel(self) -> BivariateKernel:
        """Kernel of the f-skew information: m_{f*}(x, y) = y f_*(x/y); vanishes on the diagonal."""
        return BivariateKernel(
            f"m*[{self.label}]", _mean_like(f_star(self)), nonnegative=True, symmetric=True
        )

    @cached_property
    def gram_kernels(self) -> tuple[BivariateKernel, BivariateKernel]:
        """The pair (g1, g2) = (sqrt(m_f), eps/sqrt(m_f)) whose Gram matrix L^g hosts the f-relations.

        Its blocks are pairings a context already makes: |g1|^2 = m_f, conj(g1) g2 = eps and
        |g2|^2 = the f-skew coefficient / (2 f(0)), so eq16 assembles L^g from ``ctx.cov`` and
        ``f_skew_pairing``; ``build_Lg`` on these kernels is the generic route to the same matrix.
        """
        m = self.mean_kernel
        g1 = BivariateKernel(f"sqrt_m[{self.label}]", lambda x, y: np.sqrt(np.maximum(m(x, y).real, 0.0)),
                             nonnegative=True, symmetric=True)
        return g1, quotient_kernel(eps_kernel(), g1)

    @cached_property
    def wy_dominated(self) -> bool:
        """f(x) <= f(0)(1+sqrt x)^2 on the grid: the class where WY gives the strongest eq19."""
        x = MONOTONE_GRID
        gap = self.f0 * (1 + np.sqrt(x)) ** 2 - self(x)
        return bool(gap.min() >= -1e-10 * max(1.0, float(self(x).max())))


def wyd_function(alpha: float) -> MonotoneFunction:
    """f_alpha(x) = alpha(1-alpha)(1-x)^2 / ((1-x^alpha)(1-x^(1-alpha))), alpha in (0, 1/2]."""
    if not 0 < alpha <= 0.5:
        raise UnknownLabel(f"wyd alpha must lie in (0, 1/2], got {alpha}")
    a, b = alpha, 1.0 - alpha

    def fn(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        zero = x == 0
        one = x == 1.0
        rest = ~(zero | one)
        out[zero] = a * b
        out[one] = 1.0
        t = np.log(x[rest])
        # 1 - x^p = -expm1(p log x): cancellation-free near x = 1
        out[rest] = a * b * np.expm1(t) ** 2 / (np.expm1(a * t) * np.expm1(b * t))
        return out

    label = "wy" if alpha == 0.5 else f"wyd:{alpha:g}"
    return MonotoneFunction(label=label, f0=a * b, fn=fn)


def sld_function() -> MonotoneFunction:
    return MonotoneFunction(label="sld", f0=0.5, fn=lambda x: (1 + np.asarray(x, dtype=float)) / 2)


@cache
def resolve_monotone(label: str) -> MonotoneFunction:
    """The catalog function for a label; one shared instance per label."""
    if label == "wy":
        return wyd_function(0.5)
    if label == "sld":
        return sld_function()
    if label.startswith("wyd:"):
        try:
            alpha = float(label.split(":", 1)[1])
        except ValueError as exc:
            raise UnknownLabel(f"unparseable wyd alpha in '{label}'") from exc
        return wyd_function(alpha)
    raise UnknownLabel(f"unknown f label '{label}' (expected wy, wyd:<alpha>, sld)")


def f_star(f: MonotoneFunction) -> Callable[[np.ndarray], np.ndarray]:
    """The transform f_*(x) = f(0)(1-x)^2 / (2 f(x)); symmetric with f_*(1) = 0, f_*(0) = 1/2."""

    def fn(x):
        x = np.asarray(x, dtype=float)
        return f.f0 * (1 - x) ** 2 / (2 * f(x))

    return fn


def _mean_like(scalar: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """Lift h on [0, 1] to the symmetric kernel max(x,y) * h(min/max), 0 at (0, 0)."""

    def fn(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        big = np.maximum(x, y)
        small = np.minimum(x, y)
        safe = np.where(big == 0, 1.0, big)
        return np.where(big == 0, 0.0, big * scalar(small / safe))

    return fn


# --------------------------------------------------------------- pairings

@on_context
def g_covariance(ctx: SpectralContext, g: BivariateKernel) -> np.ndarray:
    """cov_g[k, j] = Tr X'_k J_g(X'_j) over the centered observables; complex n x n."""
    return ctx.cov(g)


def f_skew_pairing(ctx: SpectralContext, f: MonotoneFunction) -> np.ndarray:
    """The complex pairing of the f-skew coefficients f(0)(l_a - l_b)^2 / (2 m_f(l_a, l_b)),
    coincident (and doubly-zero) eigenvalue pairs contributing 0; once per (context, f)."""
    key = ("f-skew", f)
    if key not in ctx.memo:
        lam = ctx.lam
        mf = ctx.weights(f.mean_kernel).real
        diff2 = (lam[:, :, None] - lam[:, None, :]) ** 2
        safe = np.where(mf == 0, 1.0, mf)
        ctx.memo[key] = ctx.pair(np.where(mf == 0, 0.0, f.f0 * diff2 / (2 * safe)))
    return ctx.memo[key]


@on_context
def f_skew_matrix(ctx: SpectralContext, f: MonotoneFunction) -> np.ndarray:
    """Metric-adjusted skew-information matrix I^f: the symmetrized real part of
    ``f_skew_pairing``; agrees with the g-covariance of the m_{f*} kernel."""
    return np.real(_sym(f_skew_pairing(ctx, f)))


# --------------------------------------------------------------- lambda_f

LAMBDA_GRID = np.logspace(-8, 8, 4097)   # the search grid of lambda_f; ``lambda --grid-dump`` writes F on it


@dataclass(eq=False)
class LambdaResult:
    lam: float
    argmin_x: float
    lower_bound: float
    upper_bound: float
    conjecture_match: bool


def big_F(f: MonotoneFunction, x) -> np.ndarray:
    """F(x) = (1 + x - f_*(x)) / (2 f(x)); F(0+) = F(inf) = 1/(4 f(0))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    fs = f_star(f)
    return (1 + x - fs(x)) / (2 * f(x))


def _F1(f: MonotoneFunction, x: float) -> float:
    return float(big_F(f, np.array([x]))[0])


def lambda_f(f: MonotoneFunction) -> LambdaResult:
    """Minimize F over [0, inf): ``LAMBDA_GRID`` plus the analytic endpoints,
    then golden-section refinement (in log x, to 1e-10) around the best grid cell."""
    xs = LAMBDA_GRID
    Fs = big_F(f, xs)
    i = int(np.argmin(Fs))
    lo = math.log(xs[max(i - 1, 0)])
    hi = math.log(xs[min(i + 1, xs.size - 1)])

    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc = _F1(f, math.exp(c))
    fd = _F1(f, math.exp(d))
    while (b - a) > 1e-10:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = _F1(f, math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = _F1(f, math.exp(d))
    x_best = math.exp((a + b) / 2)
    f_best = _F1(f, x_best)

    endpoint = 1.0 / (4 * f.f0)  # F(0+) = F(inf)
    candidates = [(f_best, x_best), (float(Fs[i]), float(xs[i])), (endpoint, 0.0)]
    lam, argmin_x = min(candidates, key=lambda t: t[0])

    lower = 1.0 - f.f0
    upper = min(1.0, endpoint)
    return LambdaResult(
        lam=lam, argmin_x=argmin_x, lower_bound=lower, upper_bound=upper,
        conjecture_match=abs(lam - upper) <= 1e-6,
    )


# ------------------------------------------------------------- inequalities

@on_context
def build_Lg(ctx: SpectralContext, g1: BivariateKernel, g2: BivariateKernel) -> np.ndarray:
    """Gram matrix of (J_{g1}(X'_k), J_{g2}(X'_k)): blocks cov(|g1|^2), cov(g1* g2), ..."""
    n = ctx.n
    G = (ctx.weights(g1), ctx.weights(g2))
    L = np.empty((ctx.size, 2 * n, 2 * n), dtype=complex)
    for a, Ga in enumerate(G):
        for b, Gb in enumerate(G):
            L[:, a * n:(a + 1) * n, b * n:(b + 1) * n] = ctx.pair((np.conj(Ga) * Gb).swapaxes(1, 2))
    return hermitian_parts(L, tol=1e-8, what="L^g")


@on_context
def check_g_triple(ctx: SpectralContext, g_plus: BivariateKernel, g_minus: BivariateKernel,
                   g0: BivariateKernel) -> np.ndarray:
    """Margin |cov(g+)| |cov(g-)| - |cov(g0)|^2 for a dominated kernel triple."""
    if not (g_plus.nonnegative and g_minus.nonnegative):
        raise PreconditionViolation("g+ and g- must be flagged nonnegative")
    Gp, Gm, G0 = ctx.weights(g_plus), ctx.weights(g_minus), ctx.weights(g0)
    gpm = Gp.real * Gm.real
    slack = (gpm - np.abs(G0) ** 2).min(axis=(1, 2))
    raise_first(slack < -1e-10 * mat_scale(gpm), lambda m: KernelContractViolation(
        f"g+ g- >= |g0|^2 fails on the state's spectrum (min slack {m:.3e})"), slack)
    dp = det_symmetric_psd(ctx.cov(g_plus).real)
    dm = dp if g_minus is g_plus else det_symmetric_psd(ctx.cov(g_minus).real)
    d0 = np.linalg.det(ctx.cov(g0))
    return dp * dm - np.abs(d0) ** 2


@dataclass(eq=False)
class MetricAdjustedReport:
    margin18: float
    margin19: float
    scale18: float
    scale19: float
    lam: float
    dets: dict[str, float]


@on_context
def check_metric_adjusted(ctx: SpectralContext, f: MonotoneFunction) -> MetricAdjustedReport:
    """Margins of the two metric-adjusted determinant relations.

    margin18: |cov(m_f)| |I^f| - [2 f(0)]^n |delta|^2
    margin19: |sigma - c^f| |sigma + c^f| - [4 lambda_f f(0)]^n |delta|^2
    with c^f = sigma - I^f.  Computed once per (context, f); the three
    determinants come from one eigvalsh.
    """
    key = ("metric-adjusted", f)
    if key in ctx.memo:
        return ctx.memo[key]
    n = ctx.n
    If = f_skew_matrix.ctx(ctx, f)
    cov_mf = g_covariance.ctx(ctx, f.mean_kernel).real
    # |cov(m_f)|, |I^f| = |sigma - c^f|, |sigma + c^f|
    d_mf, d_lo, d_hi = det_symmetric_psd(np.stack([cov_mf, If, 2 * ctx.sigma - If]))
    d_delta = ctx.delta_det
    rhs18 = (2 * f.f0) ** n * d_delta**2
    rhs19 = (4 * f.lam * f.f0) ** n * d_delta**2
    ctx.memo[key] = MetricAdjustedReport(
        margin18=d_mf * d_lo - rhs18,
        margin19=d_hi * d_lo - rhs19,
        scale18=relation_scale(np.abs(d_mf * d_lo), rhs18),
        scale19=relation_scale(np.abs(d_hi * d_lo), rhs19),
        lam=f.lam,
        dets={"cov_mf": d_mf, "skew_f": d_lo, "sigma_plus_cf": d_hi,
              "sigma_minus_cf": d_lo, "delta": d_delta},
    )
    return ctx.memo[key]


@on_context
def wy_strongest_check(ctx: SpectralContext, f: MonotoneFunction) -> np.ndarray:
    """Margin |sigma-c^f||sigma+c^f| - |sigma-c||sigma+c| for f with f <= f(0)(1+sqrt x)^2."""
    if not f.wy_dominated:
        raise PreconditionViolation(
            f"f '{f.label}' violates f(x) <= f(0)(1+sqrt x)^2; not in the strongest-comparison class"
        )
    dets_f, dets = check_metric_adjusted.ctx(ctx, f).dets, ctx.dets
    return dets_f["sigma_plus_cf"] * dets_f["sigma_minus_cf"] - dets["sigma_plus_c"] * dets["sigma_minus_c"]


def alpha_inequality_check(alpha: float, grid: np.ndarray, tol: float = 1e-12) -> bool:
    """|x^a - x^(1-a)| <= (1-2a)|1-x| at every grid point (within tol, relative)."""
    if not 0 < alpha <= 0.5:
        raise PreconditionViolation(f"alpha must lie in (0, 1/2], got {alpha}")
    x = np.asarray(grid, dtype=float)
    lhs = np.abs(x**alpha - x ** (1 - alpha))
    rhs = (1 - 2 * alpha) * np.abs(1 - x)
    return bool(np.all(lhs <= rhs + tol * np.maximum(1.0, rhs)))
