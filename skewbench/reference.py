"""Computations made apart from skewsharp: input writers, a JSON matrix decoder,
the trace formulas for sigma, delta and skew, and the Fock-space closed forms.

Nothing here imports skewsharp, so a fault in the program cannot hide in the
reference it is checked against.
"""

from __future__ import annotations

import math

import numpy as np


# ------------------------------------------------------------------ file I/O

def _pairs_text(M: np.ndarray) -> str:
    """Row-major [[re, im], ...] rows; repr floats round-trip exactly."""
    re = M.real.tolist()
    im = M.imag.tolist()
    rows = (
        "[" + ", ".join(f"[{a!r}, {b!r}]" for a, b in zip(r_re, r_im)) + "]"
        for r_re, r_im in zip(re, im)
    )
    return "[" + ",\n".join(rows) + "]"


def write_state(path: str, M: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"dim": {M.shape[0]}, "matrix": {_pairs_text(M)}}}\n')


def write_observables(path: str, mats) -> None:
    body = ",\n".join(_pairs_text(M) for M in mats)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"dim": {mats[0].shape[0]}, "observables": [{body}]}}\n')


def decode_pairs(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


# ----------------------------------------------------------- random inputs

def ginibre_state(dim: int, pure: bool, rng: np.random.Generator) -> np.ndarray:
    """Exactly Hermitian unit-trace state: a normalized pure state or G G^dag / Tr."""
    k = 1 if pure else dim
    G = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    M = G @ G.conj().T
    M = (M + M.conj().T) / 2   # products may use FMA, leaving Im M[i, i] ~ 1e-17
    return M / np.trace(M).real


def gue(dim: int, rng: np.random.Generator) -> np.ndarray:
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (G + G.conj().T) / 2


# ------------------------------------------------------- uncertainty matrices

def psd_sqrt(rho: np.ndarray, pure: bool) -> np.ndarray:
    """sqrt(rho); for a pure state rho itself, since rho^2 = rho exactly in theory
    and the square root of ~1e-16 eigenvalue noise would add ~1e-8 errors."""
    if pure:
        return rho
    w, V = np.linalg.eigh(rho)
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T


def uncertainty_matrices(rho: np.ndarray, mats, pure: bool):
    """(sigma, delta, skew) by their trace definitions.

    sigma = Re Tr rho X'_k X'_j, delta[k, j] = (i/2) Tr rho [X_k, X_j] = -Im Tr rho X'_k X'_j,
    skew = -1/2 Tr [sqrt(rho), X_k][sqrt(rho), X_j].
    """
    n = len(mats)
    eye = np.eye(rho.shape[0])
    Xc = [X - np.trace(rho @ X).real * eye for X in mats]
    R = psd_sqrt(rho, pure)
    comms = [R @ X - X @ R for X in Xc]
    sigma = np.empty((n, n))
    delta = np.empty((n, n))
    skew = np.empty((n, n))
    for k in range(n):
        for j in range(n):
            P = np.trace(rho @ Xc[k] @ Xc[j])
            sigma[k, j] = P.real
            delta[k, j] = -P.imag
            skew[k, j] = -0.5 * np.trace(comms[k] @ comms[j]).real
    return sigma, delta, skew


# ------------------------------------------------------------- Fock space

def thermal_quadrature_moments(omega: float, beta: float, n_modes: int):
    """Closed forms for uncoupled oscillators: sigma = coth(b w/2)/2 I, c = csch(b w/2)/2 I."""
    h = beta * omega / 2
    eye = np.eye(2 * n_modes)
    return eye / (2 * math.tanh(h)), eye / (2 * math.sinh(h))


def thermal_tail(omega: float, beta: float, n_modes: int, cutoff: int) -> float:
    """Geometric tail mass n_modes * q^K / (1 - q) with q = exp(-beta omega)."""
    q = math.exp(-beta * omega)
    return n_modes * q**cutoff / (1 - q)


def thermal_tolerance(omega: float, beta: float, n_modes: int, cutoff: int) -> float:
    """Allowed |numeric - closed form| of a truncated-Fock second moment.

    Truncating p_n ~ q^n at K shifts <n> by K q^K / (1 - q^K); the factor 10 and
    1/(1-q)^2 cover c and the mode sum, 1e-9 covers rounding of the d-dim numerics.
    """
    q = math.exp(-beta * omega)
    return 1e-9 + 10 * n_modes * cutoff * q**cutoff / (1 - q) ** 2


def fock_diagonal_gap(p: np.ndarray) -> float:
    """delta_G of the two-mode Fock-diagonal state sum p[n1, n2] |n1 n2><n1 n2|.

    For quadratures (x1, x2, p1, p2) sigma, skew and c are diagonal with
    sigma_k = <n_k> + 1/2 and skew_k = sum (sqrt p_a - sqrt p_b)^2 (n+1)/2 over
    the pairs a, b that the ladder operator of mode k joins; |delta| = 1/16.
    Needs p = 0 on the top Fock level, where the truncated commutator is defective.
    """
    n1 = np.arange(p.shape[0])[:, None]
    n2 = np.arange(p.shape[1])[None, :]
    s = np.sqrt(p)
    factors = []
    for mode, occ in ((0, n1), (1, n2)):
        sigma = float((p * occ).sum()) + 0.5
        diff = np.diff(s, axis=mode) ** 2
        weight = (np.arange(1, p.shape[mode]) / 2)
        weight = weight[:, None] if mode == 0 else weight[None, :]
        skew = float((diff * weight).sum())
        factors.append(((2 * sigma - skew) * skew) ** 2)
    return factors[0] * factors[1] - (1 / 16) ** 2
