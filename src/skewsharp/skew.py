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
from the inputs.  A set of dense matrices takes the dense products of V^dag,
the stacked X_k and V.  A set given by its nonzeros (``ObservableSet.nonzeros``:
the (row, column, value) triples of every X_k, as
``gaussian.quadrature_observables`` builds the truncated quadratures) takes
products that read the nonzeros row by row (``_nonzeros_stack``), from a table
of each row's nonzeros: row i of X_k V is the sum of a few rows of V.  On a
state whose eigensystem was taken part by part (``DensityMatrix.parts``: the
eigenvectors of a part live on its rows r_P alone, in its columns c_P) the
block A_k[c_P, c_Q] is V[r_P, c_P]^dag (X_k V)[r_P, c_Q], and it is zero unless
some nonzero of X_k links a row of P with a row of Q.

The entry route.  When no nonzero lies inside one part, every A_k is zero but
on the blocks [c_P, c_Q] of the part pairs that some nonzero links, and their
mirrors [c_Q, c_P]; its diagonal, and so every mean, is 0.  ``_entries`` lists
each such pair once, grouped by block shape, as index arrays ``a`` and ``b`` of
eigenvector columns, no entry on the diagonal or twice, and each block is one
batched product per shape.  That route reads the state as its parts alone
(``DensityMatrix.systems``: each part's eigenvectors V_P), so it forms neither
the state's dense matrix nor its eigenvectors: V[r_P, c_P] is V_P itself, and
V[i, c_Q] is the row of V_Q at i's place when i lies in Q, else 0.  The
truncated quadratures flip photon-number parity, so on a state whose parts each
have one parity the list holds 1740 entries at the CLI default (2 modes, cutoff
30, 1 x 1 parts) and all d^2/4 even-to-odd entries when the parts are the two
parity classes.  The context then stores only the values X_k = A_k[a, b]
(``ctx.stack``, (B, n, nnz));
A_k[b, a] = conj(X_k).  The pairing, the Gram check and the stack check each
take a form of matrix products on the values, e.g.
sum_ab W[a, b] A_k[a, b] A_j[b, a] = sum over the entries of (W[a, b] X_k conj(X_j)
+ W[b, a] conj(X_k) X_j) for any complex W.  A state without parts, or a
nonzero inside a part, gives the full route: the whole stack, two observables
per product, B = V^dag (X_j + i X_{j+1}) V split into the Hermitian
(B + B^dag)/2 and (B - B^dag)/2i, part by part, from the state's dense
eigenvectors (formed on that first read for a state kept as its parts).  Every
dense set, among them every batch of the fuzz harness and every ``check``, keeps
the dense einsum bit for bit.

Three self-checks guard that assembly (ConstructionMismatch on failure).  The
Gram route forms L again from the eigenbasis stack A_k = V^dag X'_k V, where
those operators are elementwise, (s_a +/- s_b) A_k[a, b] / sqrt(2) with
s = sqrt(lam): each block is one product of A with a weighted copy of A, apart
from the pairing that builds sigma, c and delta.  The stack check ties A to the
input basis in O(n^2 d^2): the means Tr(rho X_k) from the state matrix against
the means A was centered with, and the Hilbert-Schmidt pairing Tr(X'_k X'_j)
of the input observables against the same pairing of A.  It reads the input
X_k, not the stack, so a stack built from the nonzeros is checked against the
plain definition of the observables: on a set given by its nonzeros the check
reads them in O(nnz), as Tr(X_k X_j) and Tr X_k from the values and
Tr(rho X_k) as the sum of v rho[c, r] over the triples (r, c, v), rho[c, r]
being 0 on the entry route, where every nonzero links two parts.  The input
pairings are dot products of float views: on the nonzeros, of the values beside
rho at their positions; for a dense set one product on a stacked copy while
that copy is small (every fuzz batch, every ``check``), pair by pair above
STACK_CHECK_ENTRIES, so a large check copies no d x d matrix.  Neither check
sees a unitary relabeling U X_k U^dag of every observable, which keeps all
Hilbert-Schmidt pairings; so a stack built from the nonzeros also passes a
random probe (``_probe_stack``), which compares it with the input X_k along
random vectors, X_k (V t) a scatter-add of the nonzeros over their rows, apart
from the table the stack was built from, and V t formed part by part
(``DensityMatrix.eigenvectors_times``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce, wraps
from typing import NamedTuple

import numpy as np

from .linalg import (
    TOL_PSD,
    DensityMatrix,
    DimensionMismatch,
    NotPSD,
    SkewsharpError,
    _square,
    hermitian_parts,
    mat_scale,
    raise_first,
)

TOL_INEQ = 1e-8
CONSTRUCTION_TOL = 1e-8
SCHUR_PIVOT_CUT = 1e-6  # eq8: pivots of sigma - c at most this fraction of its scale are not eliminated
STACK_CHECK_ENTRIES = 1 << 15  # the stack check's Gram matrix: one product on a copy up to this many entries

VACUOUS = math.inf  # sentinel margin for relations whose denominator vanishes


class ConstructionMismatch(SkewsharpError):
    """A self-check of the matrix construction failed: implementation bug."""


@dataclass(eq=False, frozen=True)
class ObservableSet:
    """Ordered list of Hermitian observables with a common dimension.

    A set may instead be given by its ``nonzeros``: (d, rows (K,), cols (K,),
    values (n, K)), every observable's entries at one list of K distinct positions,
    zero off them.  Only a module's own constructor gives them
    (``gaussian.quadrature_observables``), through ``_from_nonzeros``, for
    observables it builds exactly Hermitian.  ``SpectralContext`` builds the
    eigenbasis stack of such a set from its nonzeros, and the set forms its dense
    matrices only on the first read of ``observables``.
    """

    observables: tuple[np.ndarray, ...]
    nonzeros: tuple | None = field(default=None, init=False, repr=False)

    @classmethod
    def from_matrices(cls, mats) -> "ObservableSet":
        """The Hermitian parts of matrices from any iterable: each square and of one
        dimension, then the stacked set checked for finite entries and Hermiticity."""
        mats = [_square(m, "observable") for m in mats]
        if not mats:
            raise DimensionMismatch("need at least one observable")
        d = mats[0].shape[0]
        for k, m in enumerate(mats):
            if m.shape[0] != d:
                raise DimensionMismatch(f"observable {k} has dim {m.shape[0]}, expected {d}")
        return cls(observables=tuple(hermitian_parts(np.stack(mats), what="observable")))

    @classmethod
    def _from_nonzeros(cls, d: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> "ObservableSet":
        """Observables built exactly Hermitian by their constructor, given by their
        nonzeros X_k[rows, cols] = values[k] and not re-validated."""
        X = cls.__new__(cls)
        vars(X)["nonzeros"] = (d, rows, cols, values)     # frozen: set in the instance dict, as ``cached`` sets
        return X

    def __getattr__(self, name):
        if name != "observables" or self.nonzeros is None:
            raise AttributeError(name)
        mats = np.zeros((self.n, self.dim, self.dim), dtype=complex)
        mats[:, self.nonzeros[1], self.nonzeros[2]] = self.nonzeros[3]
        return vars(self).setdefault("observables", tuple(mats))    # stored as ``cached`` stores

    @property
    def n(self) -> int:
        return len(self.observables) if self.nonzeros is None else self.nonzeros[3].shape[0]

    @property
    def dim(self) -> int:
        return self.observables[0].shape[0] if self.nonzeros is None else self.nonzeros[0]


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


def _require_classical_psd(lo, c: np.ndarray) -> None:
    raise_first(lo < -TOL_PSD * mat_scale(c), lambda m: NotPSD(
        f"classical matrix has eigenvalue {m:.3e}; upstream numerical failure"), lo)


def classical_matrix(sigma: np.ndarray, skew: np.ndarray) -> np.ndarray:
    """sigma - skew; raises NotPSD if the difference dips below -TOL_PSD (upstream failure)."""
    if sigma.shape != skew.shape:
        raise DimensionMismatch(f"shape mismatch {sigma.shape} vs {skew.shape}")
    c = sigma - skew
    if c.size:
        _require_classical_psd(np.linalg.eigvalsh(_sym(c))[..., 0], c)
    return c


def _eigenbasis_gram(S: np.ndarray, lam: np.ndarray, entries=None) -> np.ndarray:
    """Gram matrices of the operators (s_a +/- s_b) A_k[a, b] / sqrt(2), s = sqrt(lam).

    Block (u, v) is G[p, q] = sum_ab w_uv[a, b] conj(A_p[a, b]) A_q[a, b] with
    w_uv = t_u t_v for t_+/- = (s_a +/- s_b) / sqrt(2): one product per
    instance on one weighted copy of the stored stack S at a time.  On the
    entry route (S holds X_k = A_k[a, b] on the ``entries`` (a, b)) the (b, a)
    terms are the (a, b) ones conjugated, with the sign of w_uv[b, a] = +/- w_uv[a, b]
    (t_+ is symmetric, t_- antisymmetric).
    """
    B, n = S.shape[:2]
    s = np.sqrt(lam / 2)
    s_a, s_b = (s[:, :, None], s[:, None, :]) if entries is None else (s[:, entries.a], s[:, entries.b])
    t_plus, t_minus = s_a + s_b, s_a - s_b
    flat = S.reshape(B, n, -1)
    G = np.empty((B, 2 * n, 2 * n), dtype=complex)
    wS = np.empty_like(S)
    for u, v, t_u, t_v, sign in ((0, 0, t_plus, t_plus, 1), (0, n, t_plus, t_minus, -1),
                                 (n, n, t_minus, t_minus, 1)):
        np.multiply((t_u * t_v)[:, None], S, out=wS)
        np.conjugate(wS, out=wS)
        T = wS.reshape(B, n, -1) @ flat.swapaxes(1, 2)
        G[:, u:u + n, v:v + n] = T if entries is None else T + sign * np.conj(T)
    G[:, n:, :n] = np.conj(G[:, :n, n:]).swapaxes(1, 2)
    return G


def _input_pairings(ctx: "SpectralContext") -> tuple[np.ndarray, np.ndarray]:
    """Re Tr(Y_k Y_j) over (X_1..X_n, rho) as G (B, n + 1, n + 1), and the traces Tr X_k (B, n)."""
    B, n, d = ctx.size, ctx.n, ctx.dim
    # Re Tr(Y^dag Z) = Tr(Y Z) for Hermitian Y, Z is the dot product of their float views: on a
    # set's nonzeros, the values at its positions (r, c) beside rho[r, c]; else one product on a
    # stacked copy while that copy is small, else pair by pair (at d = 900 the copy of the n + 1
    # matrices would take 65 MB and most of the check's time)
    if ctx.nonzeros is not None:
        _, r, c, values = ctx.nonzeros
        # rho at the nonzeros: on the entry route each links two parts, where the state is 0
        rho_rc = np.zeros((1, r.size), dtype=complex) if ctx.entries is not None else ctx.matrix[:, r, c]
        flat = np.concatenate([values, rho_rc]).view(float)[None]
        G, traces = flat @ flat.swapaxes(1, 2), values[:, r == c].real.sum(axis=-1)[None]
    elif B * (n + 1) * d * d <= STACK_CHECK_ENTRIES:
        rows = np.empty((B, n + 1, d, d), dtype=complex)
        for k, Y in enumerate((*ctx.observables, ctx.matrix)):
            rows[:, k] = Y
        flat = rows.reshape(B, n + 1, -1).view(float)
        G, traces = flat @ flat.swapaxes(1, 2), np.einsum("zkaa->zk", rows[:, :n]).real
    else:
        flat = [np.reshape(Y, (B, -1)).view(float) for Y in (*ctx.observables, ctx.matrix)]
        G = np.empty((B, n + 1, n + 1))
        for k in range(n + 1):
            for j in range(k, n + 1):
                G[:, k, j] = G[:, j, k] = np.vecdot(flat[k], flat[j])
        traces = np.stack([f[:, ::2 * d + 2].sum(axis=-1) for f in flat[:n]], axis=1)   # real diagonals
    return G, traces


def _check_stack(ctx: "SpectralContext") -> None:
    """The eigenbasis stack against the input basis: means and Hilbert-Schmidt pairing."""
    (G, traces), B, n = _input_pairings(ctx), ctx.size, ctx.n
    scale = mat_scale(G[:, :n, :n])             # max_k Tr(X_k^2) >= |Tr(rho X_k)|^2
    means = G[:, :n, n].copy()                  # Tr(rho X_k)
    # the identity's pairings Tr(X_k 1) = Tr(X_k) and Tr(1 1) = d replace the rho column
    G[:, :n, n] = G[:, n, :n] = traces
    G[:, n, n] = ctx.dim
    dev = np.abs(means - ctx.means).max(axis=-1)
    raise_first(dev > CONSTRUCTION_TOL * np.sqrt(scale), lambda e: ConstructionMismatch(
        f"eigenbasis means differ from Tr(rho X_k) by {e:.3e}"), dev)
    C = np.zeros((B, n, n + 1))                 # X'_k = X_k - m_k 1
    C[:, :, :n], C[:, :, n] = np.eye(n), -means
    # on the entry route Re Tr(A_k^dag A_j) is twice the pairing of the entries (a, b)
    flat_S = ctx.stack.reshape(B, n, -1).view(float)
    HS = flat_S @ flat_S.swapaxes(1, 2) * (1 if ctx.entries is None else 2)
    dev = np.abs(C @ G @ C.swapaxes(1, 2) - HS).max(axis=(1, 2))
    raise_first(dev > CONSTRUCTION_TOL * scale, lambda e: ConstructionMismatch(
        f"eigenbasis stack changes Tr(X'_k X'_j) by {e:.3e}"), dev)


class Entries(NamedTuple):
    """The entry list of a stack: the eigenvector columns ``a`` and ``b`` of every entry,
    and per block shape the linked part pairs (P, Q) as (size group of P, places of P in
    it, size group of Q, places of Q), indices into ``DensityMatrix.parts``, the entries
    of their blocks [cols_P, cols_Q] listed group by group, pair by pair, row-major."""

    a: np.ndarray
    b: np.ndarray
    groups: list


def _part_index(parts: tuple, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Of a state's ``parts``, numbered size group by size group: each group's first part id
    (and the count of parts last), and per basis row the id of its part and its place there."""
    first = np.cumsum([0] + [rows.shape[0] for rows, _ in parts])
    part, place = np.empty(d, dtype=np.intp), np.empty(d, dtype=np.intp)
    for (rows, _), start in zip(parts, first):
        part[rows] = start + np.arange(rows.shape[0])[:, None]
        place[rows] = np.arange(rows.shape[1])
    return first, part, place


def _entries(nonzeros: tuple, parts: tuple) -> Entries | None:
    """The entries on which the stack of a set given by its ``nonzeros`` can be nonzero, on a
    state with ``parts`` (``DensityMatrix.parts``), or None when a nonzero lies inside one part.

    A_k[c_P, c_Q] is zero unless a nonzero of X_k links a row of P with a row of Q, so the list
    holds each linked pair {P, Q} once, P before Q in the order of ``parts``.
    """
    d, r, c, _ = nonzeros
    first, part, _ = _part_index(parts, d)
    group = np.repeat(np.arange(len(parts)), np.diff(first))
    P, Q = np.minimum(part[r], part[c]), np.maximum(part[r], part[c])
    if not P.size or (P == Q).any():
        return None
    # one sort by (size group of Q, P, Q): P's size group rises with P, so each block shape is one run
    N = first[-1]
    key = np.sort((group[Q] * N + P) * N + Q)
    P, Q = np.divmod(key[np.diff(key, prepend=-1) != 0] % (N * N), N)     # each pair once
    cuts = [0, *(np.flatnonzero(np.diff(group[P]) | np.diff(group[Q])) + 1).tolist(), P.size]
    groups = []
    for lo, hi in zip(cuts, cuts[1:]):
        g_P, g_Q = group[P[lo]], group[Q[lo]]
        groups.append((g_P, P[lo:hi] - first[g_P], g_Q, Q[lo:hi] - first[g_Q]))
    cols = [(parts[g_P][1][P_g], parts[g_Q][1][Q_g]) for g_P, P_g, g_Q, Q_g in groups]
    a = [np.broadcast_to(c_P[:, :, None], c_P.shape + c_Q.shape[1:]).ravel() for c_P, c_Q in cols]
    b = [np.broadcast_to(c_Q[:, None, :], c_P.shape + c_Q.shape[1:]).ravel() for c_P, c_Q in cols]
    return Entries(np.concatenate(a), np.concatenate(b), groups)


def _row_table(d: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nonzeros of the matrices M_k[rows, cols] = values[k] (values (h, K)): their
    columns (d, w) and values (d, w, h), w the most nonzeros a row holds, padded with column 0
    and value 0."""
    order = np.argsort(rows, kind="stable")
    count = np.bincount(rows, minlength=d)
    w, place = count.max(initial=0), np.empty_like(order)
    # each nonzero's flat slot row * w + its place among its row's nonzeros
    place[order] = rows[order] * w + np.arange(rows.size) - np.repeat(np.cumsum(count) - count, count)
    at, vals = np.zeros(d * w, dtype=np.intp), np.zeros((d * w, values.shape[0]), dtype=complex)
    at[place], vals[place] = cols, values.T
    return at.reshape(d, w), vals.reshape(d, w, -1)


def _block_products(vals: np.ndarray, rows: np.ndarray, V_P: np.ndarray, V_at: np.ndarray) -> np.ndarray:
    """V_P^dag (M_k V)[rows, q columns] for each of G parts with rows (G, m) and eigenvectors
    V_P (G, m, m), and every M_k of a ``_row_table`` with values ``vals``, as (G, m, h, q).

    Row i of M_k V, for every k at once, is the product of the values of row i (w, h),
    transposed, with the rows of V at their columns on the q columns, V_at (G, m, w, q); one
    batched product per part then takes every k.
    """
    MV = vals[rows].swapaxes(2, 3) @ V_at
    G, m, h, q = MV.shape
    return (np.conj(V_P).swapaxes(1, 2) @ MV.reshape(G, m, h * q)).reshape(MV.shape)


def _nonzeros_stack(state: DensityMatrix, nonzeros: tuple, entries: Entries | None) -> np.ndarray:
    """The uncentered stack V^dag X_k V of a set given by its ``nonzeros`` on a ``state``: its
    values (n, nnz) on the ``entries``, from the eigensystems of the state's parts alone, or
    without them the full stack (n, d, d) from its eigenvectors, two observables per product."""
    d, r, c, values = nonzeros
    if entries is not None:
        (at, vals), A = _row_table(d, r, c, values), np.empty((values.shape[0], entries.a.size), dtype=complex)
        (first, part, place), parts, systems = _part_index(state.parts, d), state.parts, state.systems
        sizes = np.cumsum([P.size * parts[g_P][0].shape[1] * parts[g_Q][0].shape[1]
                           for g_P, P, g_Q, _ in entries.groups])
        for out, (g_P, P, g_Q, Q) in zip(np.split(A, sizes[:-1], axis=1), entries.groups):
            rows = parts[g_P][0][P]
            i, V_Q = at[rows], systems[g_Q][0][Q]       # the columns of each row's nonzeros; Q's V
            # V[i, c_Q] is row place(i) of Q's V where i lies in Q, else 0
            in_Q = part[i] == (first[g_Q] + Q)[:, None, None]
            V_at = np.where(in_Q[..., None], V_Q[np.arange(Q.size)[:, None, None], place[i] * in_Q], 0)
            out[:] = _block_products(vals, rows, systems[g_P][0][P], V_at).transpose(2, 0, 1, 3).reshape(out.shape)
        return A
    # B = V^dag (X_j + i X_{j+1}) V / 2 per pair: X_j = B + B^dag and X_{j+1} = -i (B - B^dag) in the eigenbasis
    n = values.shape[0]
    Y = values[0::2] / 2
    Y[:n // 2] += 0.5j * values[1::2]
    (at, vals), B, V = _row_table(d, r, c, Y), np.empty((d, Y.shape[0], d), dtype=complex), state.eigenvectors
    for rows, cols in state.parts or ((np.arange(d)[None],) * 2,):
        B[cols] = _block_products(vals, rows, V[rows[..., None], cols[:, None, :]], V[at[rows]])
    A = np.empty((n, d, d), dtype=complex)
    for h in range(Y.shape[0]):
        B_dag = np.conj(B[:, h].T)
        np.add(B[:, h], B_dag, out=A[2 * h])
        if 2 * h + 1 < n:
            np.multiply(B[:, h] - B_dag, -1j, out=A[2 * h + 1])
    return A


@lru_cache(maxsize=16)
def _probe_vectors(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The probe's complex vectors (s, t) for instances of dimension d with n observables,
    drawn once from a generator seeded by (d, n) (read-only)."""
    re, im = np.random.default_rng([d, n]).standard_normal((2, 2, d))
    s_t = re + 1j * im
    s_t.setflags(write=False)
    return s_t[0], s_t[1]


def _probe_stack(ctx: "SpectralContext") -> None:
    """Freivalds' check of a stack built from a set's nonzeros (one instance), read along a
    second random vector: (V s)^dag X_k (V t) against s^dag (A_k + m_k) t for complex s and t
    drawn from a generator seeded by the instance's size (``_probe_vectors``).

    In O(n d^2) (V t and V s; X_k (V t) a scatter-add of the nonzeros over their rows in
    O(nnz), apart from the row table the stack was built from) it ties each A_k to the input
    matrix X_k itself, where the stack check and the Gram check see only pairings and so miss
    a relabeling U X_k U^dag.  On the entry route s^dag A_k t is two dot products on the
    values, over the same entries (a, b) the pairing reads.  It fails (ConstructionMismatch)
    when, for some k, the two differ by more than CONSTRUCTION_TOL |s| |X_k V t|, their
    Cauchy-Schwarz bound.
    """
    s, t = _probe_vectors(ctx.dim, ctx.n)
    Vt, Vs = (ctx.state.eigenvectors_times(v) for v in (t, s))
    # X_k (V t) from the set's nonzeros: each value times (V t) at its column, summed into its row
    d, r, c, values = ctx.nonzeros
    XVt = np.stack([np.bincount(r, w.real, d) + 1j * np.bincount(r, w.imag, d) for w in values * Vt[c]])
    lhs = XVt @ np.conj(Vs)
    X = ctx.stack[0]
    if ctx.entries is None:
        rhs = X @ t @ np.conj(s)
    else:       # s^dag A_k t = sum over the entries of conj(s_a) X_k t_b + conj(s_b) conj(X_k) t_a
        a, b = ctx.entries.a, ctx.entries.b
        rhs = X @ (np.conj(s[a]) * t[b]) + np.conj(X @ (s[b] * np.conj(t[a])))
    dev = np.abs(lhs - rhs - ctx.means[0] * (np.conj(s) @ t))
    scale = np.linalg.norm(s) * np.linalg.norm(XVt, axis=1)
    raise_first(dev > CONSTRUCTION_TOL * scale, lambda e, m: ConstructionMismatch(
        f"random probe: eigenbasis stack misses X_k by {e:.3e} against |s| |X_k V t| = {m:.3e}"), dev, scale)


class SpectralContext:
    """B instances (rho, X) of one shape: clipped spectra ``lam`` (B, d) and centered
    eigenbasis stacks A (B, n, d, d), stored as ``stack``: A itself, or on the entry
    route (``entries`` set) its values A_k[a, b] (B, n, nnz) on the entries (a, b).

    Every matrix is ``pair(W)`` for its own weight W (B, d, d) on the spectra.  The
    stack is built once; matrices, kernel weights and reports are cached, and ``memo``
    holds further results keyed by their producer (e.g. one per monotone function).
    ``SpectralContext(rho, X)`` is one instance (B = 1); ``from_arrays`` takes a batch.
    """

    def __init__(self, rho: DensityMatrix, X: ObservableSet):
        if rho.dim != X.dim:
            raise DimensionMismatch(f"state dim {rho.dim} != observable dim {X.dim}")
        # a set given by its nonzeros is read through them alone: its dense matrices stay unformed
        dense = None if X.nonzeros is not None else [M[None] for M in X.observables]
        self._setup(rho, rho.eigenvalues[None], dense, X.nonzeros)

    @classmethod
    def from_arrays(cls, matrix: np.ndarray, lam: np.ndarray, V: np.ndarray,
                    obs: np.ndarray) -> "SpectralContext":
        """A batch of validated instances: states (B, d, d) with their clipped
        descending spectra and eigenvectors, and Hermitian observables (B, n, d, d)."""
        ctx = cls.__new__(cls)
        ctx.matrix, ctx.V = matrix, V
        ctx._setup(None, lam, [obs[:, k] for k in range(obs.shape[1])])
        return ctx

    def _setup(self, state, lam, observables, nonzeros=None) -> None:
        # n arrays (B, d, d), or B = 1 and a set given by its nonzeros, on a state with or without parts
        self.state, self.lam, self.observables, self.nonzeros = state, lam, observables, nonzeros
        self.size, self.dim = lam.shape
        self.n = len(observables) if nonzeros is None else nonzeros[3].shape[0]
        # the entry route: the eigenvector-column pairs (a, b) off which every A_k is exactly
        # zero, A_k[b, a] being conj(A_k[a, b]), as the nonzeros link the state's parts
        parts = None if nonzeros is None else self.state.parts
        self.entries = None if parts is None else _entries(nonzeros, parts)
        self.memo, self._weights = {}, {}

    # the states (B, d, d) and eigenvectors (B, d, d), read by every route but the entry route:
    # a state kept as its parts forms them on this first read
    matrix = cached(lambda self: self.state.matrix[None])
    V = cached(lambda self: self.state.eigenvectors[None])

    @cached
    def _stack(self) -> tuple[np.ndarray, np.ndarray]:
        if self.nonzeros is None:
            V = self.V[:, None]
            A = np.conj(V).swapaxes(2, 3) @ np.stack(self.observables, axis=1) @ V
        else:
            A = _nonzeros_stack(self.state, self.nonzeros, self.entries)[None]
        if self.entries is not None:
            return A, np.zeros((self.size, self.n))     # no diagonal entry: every mean is 0
        diag = np.einsum("zkaa->zka", A)           # a view: centering writes into A
        means = np.einsum("zka,za->zk", diag, self.lam).real
        diag -= means[:, :, None]
        return A, means

    # the stored stack: the centered A_k = V^dag X'_k V, or on the entry route their
    # values X_k = A_k[a, b] (B, n, nnz); and the means <X_k> A was centered with
    stack = property(lambda self: self._stack[0])
    means = property(lambda self: self._stack[1])

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

    def pair(self, W) -> np.ndarray:
        """M[z, k, j] = sum_ab W[z, a, b] A_k[a, b] A_j[b, a] for each instance z, complex (B, n, n).

        W is an array (B, d, d), or a function w, elementwise in the spectra, with
        W[a, b] = w(l_a, l_b).  On the entry route the sum runs over the entries (a, b)
        only, as W[a, b] X_k conj(X_j) + W[b, a] conj(X_k) X_j: two matrix products on
        the values, for any complex W, and w is taken at the entries alone.
        """
        if self.entries is None:
            W = W(self.lam[:, :, None], self.lam[:, None, :]) if callable(W) else W
            return np.einsum("zkab,zab,zjba->zkj", self.stack, W, self.stack)
        (a, b), lam = self.entries[:2], self.lam
        W_ab, W_ba = (W(lam[:, a], lam[:, b]), W(lam[:, b], lam[:, a])) if callable(W) else (W[:, a, b], W[:, b, a])
        X, Xc = self.stack, np.conj(self.stack)
        return (X * W_ab[:, None]) @ Xc.swapaxes(1, 2) + (Xc * W_ba[:, None]) @ X.swapaxes(1, 2)

    def symmetric_pair(self, W) -> np.ndarray:
        return np.real(_sym(self.pair(W)))

    @cached
    def P(self) -> np.ndarray:
        """P[k, j] = Tr(rho X'_k X'_j): the pairing with W[a, b] = l_a."""
        return self.pair(lambda l_a, l_b: l_a * np.ones_like(l_b))

    sigma = cached(lambda self: np.real(_sym(self.P)))
    # i*delta[k,j] = -(P[k,j] - P[j,k])/2 = -i Im P[k,j]
    i_delta = cached(lambda self: -1j * np.imag(self.P))
    delta_det = cached(lambda self: det_delta(self.i_delta))   # |det(i delta)|
    classical = cached(lambda self: self.sigma - self.skew)
    # the diagonal blocks sigma + c and sigma - c of L
    blocks = cached(lambda self: (self.sigma + self.classical, self.sigma - self.classical))
    refined = cached(lambda self: _refined_report(self))
    two_obs = cached(lambda self: _two_obs_report(self))

    @cached
    def skew(self) -> np.ndarray:
        return self.symmetric_pair(lambda l_a, l_b: (np.sqrt(l_a) - np.sqrt(l_b)) ** 2 / 2)

    @cached
    def spectra(self) -> np.ndarray:
        """Ascending eigenvalues (5, B, n) of sigma, skew, c, sigma + c and sigma - c, from
        one eigvalsh; checks c >= 0 on the way.

        sigma and skew are symmetrized pairings, so all five matrices are exactly symmetric.
        """
        c = self.classical
        w = np.linalg.eigvalsh(np.stack([self.sigma, self.skew, c, *self.blocks]))
        _require_classical_psd(w[2, :, 0], c)
        return w

    @cached
    def dets(self) -> dict[str, np.ndarray]:
        """The determinants: products of ``spectra``."""
        d = np.prod(self.spectra, axis=-1)
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


@on_context
def wy_skew_matrix(ctx: SpectralContext) -> np.ndarray:
    """Skew-information matrix: the pairing with weight (sqrt(l_a) - sqrt(l_b))^2 / 2."""
    return ctx.skew


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


def _det_root(w: np.ndarray, p: float) -> np.ndarray:
    """det^p of PSD matrices from their eigenvalues w (..., n); eigenvalues at or below
    n eps max|w| count as 0, so the rounding of a zero determinant is not lifted to
    its p-th root."""
    cut = w.shape[-1] * np.finfo(float).eps * np.abs(w).max(axis=-1, keepdims=True)
    return (w * (w > cut)).prod(axis=-1) ** p


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
    """Min eigenvalue of L after eliminating the pivots of sigma - c above SCHUR_PIVOT_CUT.

    In the eigenbasis (w, V) of sigma - c, L is similar to the real symmetric
    [[sigma+c, delta V], [(delta V)^T, diag(w)]].  Eliminating the pivots w_k above
    the cut leaves the trailing matrix [[sigma+c - sum_k (delta v_k)(delta v_k)^T / w_k,
    delta V_Z], [(delta V_Z)^T, diag(w_Z)]], Z the pivots kept: the Schur complement
    when Z is empty, else it still holds the near-null directions, so a violation
    along them stays visible and their rounding is not divided by w.  An eliminated
    slot stays as a decoupled diagonal entry max(sigma+c), at least the lowest
    eigenvalue of the trailing matrix (at most its diagonal), so instances keep one shape.

    Returns (margin, range_residual) per instance, where the residual measures
    how far delta falls outside the range of sigma-c (eigenvalues above TOL_PSD).
    """
    w, V = np.linalg.eigh(sigma_minus)             # exactly symmetric (see spectra)
    scale = mat_scale(sigma_minus)[:, None]
    Pi = V * (w > TOL_PSD * scale)[:, None, :]
    residual = np.abs(delta - Pi @ (Pi.swapaxes(1, 2) @ delta)).max(axis=(1, 2))
    pivot = w > SCHUR_PIVOT_CUT * scale
    dV = delta @ V
    n = w.shape[1]
    T = np.zeros((w.shape[0], 2 * n, 2 * n))    # eigvalsh reads its lower triangle
    inv_w = pivot / np.where(pivot, w, 1.0)
    T[:, :n, :n] = sigma_plus - (dV * inv_w[:, None, :]) @ dV.swapaxes(1, 2)
    T[:, n:, :n] = (dV * ~pivot[:, None, :]).swapaxes(1, 2)
    diag = np.einsum("zii->zi", T[:, n:, n:])   # a view
    diag[:] = w
    np.copyto(diag, sigma_plus.max(axis=(1, 2))[:, None], where=pivot)
    return np.linalg.eigvalsh(T)[:, 0], residual


def _refined_report(ctx: SpectralContext) -> UncertaintyReport:
    n = ctx.n
    sigma, skew, c, i_delta = ctx.sigma, ctx.skew, ctx.classical, ctx.i_delta
    dets = ctx.dets
    Lp, Lm = ctx.blocks
    delta = np.imag(i_delta)     # real antisymmetric, from the Hermitian i*delta
    L = np.empty((ctx.size, 2 * n, 2 * n), dtype=complex)    # [[sigma+c, i delta], [i delta, sigma-c]]
    L[:, :n, :n], L[:, n:, n:] = Lp, Lm
    L[:, :n, n:] = L[:, n:, :n] = i_delta
    scale_L = mat_scale(L)
    _check_stack(ctx)
    dev = np.abs(L - _eigenbasis_gram(ctx.stack, ctx.lam, ctx.entries)).max(axis=(1, 2))
    raise_first(dev > CONSTRUCTION_TOL * scale_L, lambda e: ConstructionMismatch(
        f"Gram and block constructions of L differ by {e:.3e}"), dev)
    if ctx.nonzeros is not None:
        _probe_stack(ctx)

    d_sigma, d_skew, d_class, d_delta = dets["sigma"], dets["skew"], dets["classical"], dets["delta"]
    d_plus, d_minus = dets["sigma_plus_c"], dets["sigma_minus_c"]
    delta_G = d_plus * d_minus - d_delta**2

    root_sigma, root_skew, root_class = _det_root(ctx.spectra[:3], 1.0 / n)
    root_gap = (root_sigma - root_skew) ** 2
    chain_top = root_sigma ** 2
    m4a = (chain_top - d_delta ** (2 / n)) - root_gap      # d_delta >= 0: an absolute value or 0
    m4b = root_gap - root_class ** 2

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
    identical to delta_G), ``eq4a``/``eq4b`` (the Minkowski chain, its n-th roots from
    the eigenvalues, ``_det_root``), ``eq7-psd`` (min eigenvalue of L), ``eq8-schur``
    (min eigenvalue of the Schur complement, with the near-null pivots of sigma - c
    kept in the trailing matrix, ``_schur_margin``).
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


def _guarded_sqrt(val: float, scale: float, what: str) -> float:
    if val < -TOL_INEQ * scale:
        raise SkewsharpError(f"{what} = {val:.3e} is negative beyond tolerance")
    return math.sqrt(max(val, 0.0))


def _clipped_sqrt(val: float, scale: float, what: str) -> float:
    """sqrt with a two-sided clip: |val| <= TOL_INEQ*scale counts as exact 0.

    Near saturation the difference under the root is a cancellation of equal
    products; sqrt would amplify its eps-level noise to sqrt(eps).
    """
    if abs(val) <= TOL_INEQ * scale:
        return 0.0
    if val < 0:
        raise SkewsharpError(f"{what} = {val:.3e} is negative beyond tolerance")
    return math.sqrt(val)


def _two_obs_scalars(d_sigma: float, d_class: float, d_plus: float, d_minus: float, delta: float,
                     Lp: list, Lm: list, vac: float) -> tuple:
    """One instance's (delta, A, B, U1, U2, scale, margins...) from its determinants,
    its delta and its 2x2 blocks L+ and L- (flattened), in Python floats."""
    A = d_sigma - d_class
    B = d_plus * d_minus
    d2 = delta * delta
    scale = max(1.0, A * A, abs(B), d2)

    L1p, L12p, _, L2p = Lp
    L1m, L12m, _, L2m = Lm
    U1 = _guarded_sqrt(L1p * L1m, scale, "L1+ L1-")
    U2 = _guarded_sqrt(L2p * L2m, scale, "L2+ L2-")
    U12 = U1 * U2
    disc = _clipped_sqrt(A * A - B, scale, "A^2 - B")

    # a vanishing L_a- makes the relations through it VACUOUS
    m9b = [VACUOUS if La_m <= vac else (La_p / La_m) * d_minus - d2
           for La_p, La_m in ((L1p, L1m), (L2p, L2m))]
    m10 = U12 - _guarded_sqrt(B, scale, "B") - abs(L12p * L12m)
    if L1m <= vac or L2m <= vac:
        m_fur = VACUOUS
    else:
        ratio = (L1p * L2p) / (L1m * L2m)
        m_fur = U12 - d2 - (math.sqrt(ratio) if ratio >= 0 else math.nan) * (L12m * L12m)
    # impossibility branch guard: A >= delta^2, hence A + sqrt(A^2-B) >= delta^2
    return (delta, A, B, U1, U2, scale,
            A - disc - d2, m9b[0], m9b[1], m10, m_fur, A - d2, A + disc - d2)


TWO_OBS_MARGINS = ("eq9a", "eq9b_1", "eq9b_2", "eq10", "furuichi", "impossibility", "second_root")


def _two_obs_rows(ctx: SpectralContext) -> list[tuple]:
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
    return [_two_obs_scalars(*args) for args in per_instance]


def _pack_two_obs(Lp, Lm, values) -> TwoObsReport:
    delta, A, B, U1, U2, scale, *margins = values
    return TwoObsReport(
        delta_scalar=delta, Lp=Lp, Lm=Lm, A=A, B=B, U1=U1, U2=U2,
        margins=dict(zip(TWO_OBS_MARGINS, margins)), scales=dict.fromkeys(TWO_OBS_MARGINS, scale),
    )


def _two_obs_report(ctx: SpectralContext) -> TwoObsReport:
    columns = zip(*_two_obs_rows(ctx))
    return _pack_two_obs(*ctx.blocks, [np.array(col) for col in columns])


def two_obs_relations(rho: DensityMatrix, X1: np.ndarray, X2: np.ndarray) -> TwoObsReport:
    """Margins of the scalar relations equivalent to L >= 0 for two observables."""
    ctx = SpectralContext(rho, ObservableSet.from_matrices([X1, X2]))
    (row,) = _two_obs_rows(ctx)
    Lp, Lm = ctx.blocks
    return _pack_two_obs(Lp[0], Lm[0], row)     # the one row as it is, not through batch arrays
