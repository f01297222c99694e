"""Dirac bracket engine and the conserved quantities of the degenerate system.

The canonical bracket on R^{2n+2} is modified so that C1 = <x,x> and
C2 = <x,y> become Casimirs:

    {f, g} = [f, g] + ([f,C1][C2,g] - [f,C2][C1,g]) / (2 C1).

Conserved quantities: intra-block angular momenta L_ik, the per-block
Casimirs W_sigma = sum_{i<k} L_ik^2, the degenerate integrals F_sigma, and
for a non-degenerate eigenvalue list the classical integrals of the generic
system.  The quadratic ones all come from the matrix of all L_kl on
(..., n+1) arrays: the Uhlenbeck terms x_k^2 + sum L_kl^2 / (a_k - a_l) over
a_l != a_k are the generic integrals, and their block sums are the F_sigma.
The total angular momentum J generates a 2*pi-periodic flow.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NumericalFailure
from .model import PhasePoint, SpectrumSpec, potential_gradient


class Observable:
    """Scalar function of a phase point together with its phase-space gradient.

    The gradient is returned as a single array of length 2(n+1), the x-part
    first.  When no analytic gradient is supplied, central finite differences
    with step h_fd = 1e-6 * (1 + |p|) are used.
    """

    def __init__(self, value: Callable[[PhasePoint], float],
                 gradient: Optional[Callable[[PhasePoint], np.ndarray]] = None,
                 name: str = ""):
        self._value = value
        self._gradient = gradient
        self.name = name

    def value(self, p: PhasePoint) -> float:
        return float(self._value(p))

    def __call__(self, p: PhasePoint) -> float:
        return self.value(p)

    def gradient(self, p: PhasePoint) -> np.ndarray:
        if self._gradient is not None:
            return np.asarray(self._gradient(p), dtype=float)
        return self._fd_gradient(p)

    def _fd_gradient(self, p: PhasePoint) -> np.ndarray:
        z = np.concatenate([p.x, p.y])
        h = 1e-6 * (1.0 + np.linalg.norm(z))
        n1 = p.dim
        grad = np.empty(2 * n1)
        for k in range(2 * n1):
            zp, zm = z.copy(), z.copy()
            zp[k] += h
            zm[k] -= h
            fp = self._value(PhasePoint(zp[:n1], zp[n1:]))
            fm = self._value(PhasePoint(zm[:n1], zm[n1:]))
            grad[k] = (fp - fm) / (2 * h)
        return grad


# -- the quadratic integrals, on (..., n+1) arrays ------------------------------

def _l_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """All angular momenta L_kl = x_k y_l - x_l y_k, shape (..., n+1, n+1)."""
    xy = x[..., :, None] * y[..., None, :]
    return xy - np.swapaxes(xy, -1, -2)


def _inverse_gaps(a: np.ndarray) -> np.ndarray:
    """1 / (a_k - a_l) where a_k != a_l, and 0 where they are equal."""
    gaps = a[:, None] - a[None, :]
    return np.divide(1.0, gaps, out=np.zeros_like(gaps), where=gaps != 0.0)


def _uhlenbeck(a: np.ndarray, x: np.ndarray, L: np.ndarray) -> np.ndarray:
    """``uhlenbeck_terms`` from an L already formed."""
    return x * x + np.einsum("...kl,kl->...k", L * L, _inverse_gaps(a))


def _block_casimirs(spec: SpectrumSpec, L: np.ndarray) -> np.ndarray:
    """W_sigma = (1/2) sum_{k,l in sigma} L_kl^2 for every block, shape (..., ell+1)."""
    same = (spec.a_vec[:, None] == spec.a_vec).astype(float)
    rows = np.einsum("...kl,kl->...k", L * L, same)
    return 0.5 * np.add.reduceat(rows, spec.block_starts, axis=-1)


def uhlenbeck_terms(a, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """F~_k = x_k^2 + sum_{a_l != a_k} L_kl^2 / (a_k - a_l) on (..., n+1) arrays.

    For distinct a these are the Uhlenbeck integrals of the non-degenerate
    system; the terms with a_l = a_k, the intra-block ones, are dropped.
    """
    return _uhlenbeck(np.asarray(a, dtype=float), x, _l_matrix(x, y))


# -- built-in observables with analytic gradients -------------------------------

def coordinate_observable(kind: str, nu: int) -> Observable:
    if kind not in ("x", "y"):
        raise ConfigError("coordinate kind must be 'x' or 'y'")

    def value(p):
        return (p.x if kind == "x" else p.y)[nu]

    def grad(p):
        g = np.zeros(2 * p.dim)
        g[nu if kind == "x" else p.dim + nu] = 1.0
        return g

    return Observable(value, grad, name=f"{kind}_{nu}")


def c1_observable() -> Observable:
    return Observable(lambda p: np.dot(p.x, p.x),
                      lambda p: np.concatenate([2 * p.x, np.zeros(p.dim)]),
                      name="C1")


def c2_observable() -> Observable:
    return Observable(lambda p: np.dot(p.x, p.y),
                      lambda p: np.concatenate([p.y, p.x]),
                      name="C2")


def hamiltonian_observable(spec: SpectrumSpec) -> Observable:
    def value(p):
        return 0.5 * np.dot(p.y, p.y) + 0.5 * np.sum(spec.a_vec * p.x ** 2)

    def grad(p):
        return np.concatenate([potential_gradient(spec, p.x), p.y])

    return Observable(value, grad, name="H")


def angular_momentum(p: PhasePoint, i: int, k: int) -> float:
    """L_ik = x_i y_k - x_k y_i."""
    return float(p.x[i] * p.y[k] - p.x[k] * p.y[i])


def angular_momentum_observable(i: int, k: int) -> Observable:
    def grad(p):
        g = np.zeros(2 * p.dim)
        g[i] = p.y[k]
        g[k] = -p.y[i]
        g[p.dim + k] = p.x[i]
        g[p.dim + i] = -p.x[k]
        return g

    return Observable(lambda p: angular_momentum(p, i, k), grad, name=f"L_{i}{k}")


def _quadratic_observable(c: np.ndarray, m: np.ndarray, name: str) -> Observable:
    """Q = sum_k c_k x_k^2 + sum_kl m_kl L_kl^2 with its analytic gradient.

    With w = 2 m o L the gradient is (2 c o x + (w - w^T) y, (w^T - w) x).
    """
    def value(p):
        L = _l_matrix(p.x, p.y)
        return np.dot(c, p.x * p.x) + np.sum(m * L * L)

    def grad(p):
        w = 2.0 * m * _l_matrix(p.x, p.y)
        return np.concatenate([2.0 * c * p.x + (w - w.T) @ p.y, (w.T - w) @ p.x])

    return Observable(value, grad, name=name)


def casimir_w_observable(spec: SpectrumSpec, sigma: int) -> Observable:
    c = (spec.a_vec == spec.b[sigma]).astype(float)
    return _quadratic_observable(np.zeros_like(c), 0.5 * np.outer(c, c), f"W_{sigma}")


def integral_f_observable(spec: SpectrumSpec, sigma: int) -> Observable:
    c = (spec.a_vec == spec.b[sigma]).astype(float)
    return _quadratic_observable(c, c[:, None] * _inverse_gaps(spec.a_vec), f"F_{sigma}")


# -- brackets -------------------------------------------------------------------

def dirac_bracket(f: Observable, g: Observable, p: PhasePoint) -> float:
    """Canonical bracket corrected so that C1 and C2 are Casimirs."""
    c1 = float(np.dot(p.x, p.x))
    if abs(c1) < 1e-300:
        raise NumericalFailure("Dirac bracket undefined at C1 = 0")
    gf, gg = f.gradient(p), g.gradient(p)
    n1 = p.dim
    gc1 = np.concatenate([2 * p.x, np.zeros(n1)])
    gc2 = np.concatenate([p.y, p.x])

    def cb(a, b):
        return np.dot(a[:n1], b[n1:]) - np.dot(a[n1:], b[:n1])

    return float(cb(gf, gg) + (cb(gf, gc1) * cb(gc2, gg) - cb(gf, gc2) * cb(gc1, gg)) / (2 * c1))


# -- momentum map and integrals --------------------------------------------------

@dataclass(frozen=True)
class MomentumValue:
    """Blockwise angular momentum data: matrices mu_sigma, Casimirs W_sigma.

    ``mu`` maps sigma -> antisymmetric m_sigma x m_sigma matrix for blocks
    with m_sigma >= 2.  ``w`` holds W_sigma for every block (0 for m=1), and
    ``j_signed`` holds the signed value L_ik (i < k) for m_sigma = 2 blocks.
    """

    mu: dict
    w: np.ndarray
    j_signed: dict

    @property
    def j(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.w, 0.0))


def momentum_map(spec: SpectrumSpec, p: PhasePoint) -> MomentumValue:
    L = _l_matrix(p.x, p.y)
    mu, j_signed = {}, {}
    for sigma in spec.degenerate_blocks:
        mu[sigma] = L[spec.block_slice(sigma), spec.block_slice(sigma)]
        if spec.m[sigma] == 2:
            j_signed[sigma] = mu[sigma][0, 1]
    return MomentumValue(mu=mu, w=_block_casimirs(spec, L), j_signed=j_signed)


def integral_f(spec: SpectrumSpec, p: PhasePoint, sigma: int) -> float:
    """Degenerate-case integral F_sigma; see ``integrals_f``."""
    return float(integrals_f(spec, p)[sigma])


def integrals_f(spec: SpectrumSpec, p: PhasePoint) -> np.ndarray:
    """F_sigma for every block: the block sums of the Uhlenbeck terms.

    F_sigma = sum_{i in I_sigma} x_i^2
            + sum_{tau != sigma} sum_{k in I_sigma, l in I_tau} L_kl^2 / (b_sigma - b_tau).
    """
    return np.add.reduceat(uhlenbeck_terms(spec.a_vec, p.x, p.y), spec.block_starts, axis=-1)


def generic_integral(a: np.ndarray, p: PhasePoint, nu: int) -> float:
    """Uhlenbeck integral F~_nu of the non-degenerate system; see ``generic_integrals``."""
    return float(generic_integrals(a, p)[nu])


def generic_integrals(a: np.ndarray, p: PhasePoint) -> np.ndarray:
    """Uhlenbeck integrals of the non-degenerate system with eigenvalues ``a``.

    F~_nu = x_nu^2 + sum_{mu != nu} L_{nu mu}^2 / (a_nu - a_mu); requires the
    a_nu to be pairwise distinct.
    """
    a = np.asarray(a, dtype=float)
    if a.size != p.dim:
        raise ConfigError("generic integral needs one eigenvalue per coordinate")
    if np.unique(a).size != a.size:
        raise ConfigError("generic integrals require pairwise distinct eigenvalues")
    return uhlenbeck_terms(a, p.x, p.y)


# -- total angular momentum and its periodic flow --------------------------------

def j_total(p: PhasePoint) -> float:
    """J = sqrt(|x|^2 |y|^2 - <x,y>^2), the total angular momentum."""
    val = np.dot(p.x, p.x) * np.dot(p.y, p.y) - np.dot(p.x, p.y) ** 2
    return float(np.sqrt(max(val, 0.0)))


def j_flow(p: PhasePoint, t: float) -> PhasePoint:
    """Time-t map of the 2*pi-periodic flow generated by J.

    Each pair (x_i, y_i) is rotated by cos(t) id + sin(t) SM where
    M = [[|y|^2, -<x,y>], [-<x,y>, |x|^2]] / J and S is the standard
    symplectic 2x2 matrix; SM is a complex structure, so the flow is exactly
    2*pi-periodic and preserves |x|, |y|, <x,y> and every L_ik.
    """
    J = j_total(p)
    if J <= 0.0:
        raise NumericalFailure("J-flow undefined: total angular momentum vanishes")
    xx, yy, xy = np.dot(p.x, p.x), np.dot(p.y, p.y), np.dot(p.x, p.y)
    sm = np.array([[-xy, xx], [-yy, xy]]) / J
    rot = np.cos(t) * np.eye(2) + np.sin(t) * sm
    stacked = np.vstack([p.x, p.y])
    out = rot @ stacked
    return PhasePoint(out[0], out[1])
