"""Dirac bracket engine and the conserved quantities of the degenerate system.

The canonical bracket on R^{2n+2} is modified so that C1 = <x,x> and
C2 = <x,y> become Casimirs:

    {f, g} = [f, g] + ([f,C1][C2,g] - [f,C2][C1,g]) / (2 C1).

Conserved quantities: intra-block angular momenta L_ik, the per-block
Casimirs W_sigma = sum_{i<k} L_ik^2, the degenerate integrals F_sigma, and
for a non-degenerate eigenvalue list the classical integrals of the generic
system.  The total angular momentum J generates a 2*pi-periodic flow.
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


def _block_l_matrix(p: PhasePoint, idx: np.ndarray) -> np.ndarray:
    xb, yb = p.x[idx], p.y[idx]
    return np.outer(xb, yb) - np.outer(yb, xb)


def casimir_w_observable(spec: SpectrumSpec, sigma: int) -> Observable:
    idx = spec.block_indices(sigma)

    def value(p):
        L = _block_l_matrix(p, idx)
        return 0.5 * np.sum(L * L)

    def grad(p):
        L = _block_l_matrix(p, idx)
        g = np.zeros(2 * p.dim)
        g[idx] = 2.0 * L @ p.y[idx]
        g[p.dim + idx] = -2.0 * L @ p.x[idx]
        return g

    return Observable(value, grad, name=f"W_{sigma}")


def integral_f_observable(spec: SpectrumSpec, sigma: int) -> Observable:
    def grad(p):
        n1 = p.dim
        g = np.zeros(2 * n1)
        idx_s = spec.block_indices(sigma)
        g[idx_s] += 2.0 * p.x[idx_s]
        for tau in range(spec.ell + 1):
            if tau == sigma:
                continue
            idx_t = spec.block_indices(tau)
            denom = spec.b[sigma] - spec.b[tau]
            # L restricted to rows in sigma, columns in tau
            L = np.outer(p.x[idx_s], p.y[idx_t]) - np.outer(p.y[idx_s], p.x[idx_t])
            g[idx_s] += 2.0 * (L @ p.y[idx_t]) / denom
            g[n1 + idx_s] += -2.0 * (L @ p.x[idx_t]) / denom
            g[idx_t] += -2.0 * (L.T @ p.y[idx_s]) / denom
            g[n1 + idx_t] += 2.0 * (L.T @ p.x[idx_s]) / denom
        return g

    return Observable(lambda p: integral_f(spec, p, sigma), grad, name=f"F_{sigma}")


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
    mu, j_signed = {}, {}
    w = np.zeros(spec.ell + 1)
    for sigma in range(spec.ell + 1):
        if spec.m[sigma] < 2:
            continue
        L = _block_l_matrix(p, spec.block_indices(sigma))
        mu[sigma] = L
        w[sigma] = 0.5 * np.sum(L * L)
        if spec.m[sigma] == 2:
            j_signed[sigma] = L[0, 1]
    return MomentumValue(mu=mu, w=w, j_signed=j_signed)


def integral_f(spec: SpectrumSpec, p: PhasePoint, sigma: int) -> float:
    """Degenerate-case integral F_sigma.

    F_sigma = sum_{i in I_sigma} x_i^2
            + sum_{tau != sigma} sum_{k in I_sigma, l in I_tau} L_kl^2 / (b_sigma - b_tau).
    """
    idx_s = spec.block_indices(sigma)
    total = float(np.sum(p.x[idx_s] ** 2))
    for tau in range(spec.ell + 1):
        if tau == sigma:
            continue
        idx_t = spec.block_indices(tau)
        L = np.outer(p.x[idx_s], p.y[idx_t]) - np.outer(p.y[idx_s], p.x[idx_t])
        total += float(np.sum(L * L)) / (spec.b[sigma] - spec.b[tau])
    return total


def integrals_f(spec: SpectrumSpec, p: PhasePoint) -> np.ndarray:
    return np.array([integral_f(spec, p, s) for s in range(spec.ell + 1)])


def generic_integral(a: np.ndarray, p: PhasePoint, nu: int) -> float:
    """Uhlenbeck integral of the non-degenerate system with eigenvalues ``a``.

    F~_nu = x_nu^2 + sum_{mu != nu} L_{nu mu}^2 / (a_nu - a_mu); requires the
    a_nu to be pairwise distinct.
    """
    a = np.asarray(a, dtype=float)
    if a.size != p.dim:
        raise ConfigError("generic integral needs one eigenvalue per coordinate")
    diffs = a[nu] - np.delete(a, nu)
    if np.any(diffs == 0.0):
        raise ConfigError("generic integrals require pairwise distinct eigenvalues")
    total = float(p.x[nu] ** 2)
    for mu in range(a.size):
        if mu == nu:
            continue
        L = p.x[nu] * p.y[mu] - p.x[mu] * p.y[nu]
        total += L * L / (a[nu] - a[mu])
    return total


def generic_integrals(a: np.ndarray, p: PhasePoint) -> np.ndarray:
    return np.array([generic_integral(a, p, nu) for nu in range(p.dim)])


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
