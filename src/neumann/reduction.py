"""Symmetry reduction: invariants, reduced brackets, and the Rosochatius system.

The block-orthogonal symmetry is divided out in two ways.  Singular
reduction maps a phase point to the blockwise invariants
(V, T, S) = (|Px|^2/2, |Py|^2/2, <Px,Py>), valid on every stratum; the
reduced Poisson brackets close on these and have Casimirs C1, C2 and
W_sigma = 4 V T - S^2.  On the regular stratum (all W_sigma > 0 where
m_sigma >= 2) the coordinates (xi, eta) = (|Px|, <Px,Py>/|Px|) realize the
reduced space as an open subset of T*S^ell, carrying the Rosochatius
Hamiltonian with inverse-square coupling constants w_sigma.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SingularStratumError
from .model import PhasePoint, SpectrumSpec, constrained_field, integrate_projected

#: below this, a Casimir value W_sigma counts as singular (stratum boundary)
SINGULAR_W_TOL = 1e-12


@dataclass(frozen=True)
class ReducedState:
    """Blockwise invariants (V, T, S); w = 4VT - S^2 per block."""

    v: np.ndarray
    t: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        for name in ("v", "t", "s"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), float)))

    @property
    def w(self) -> np.ndarray:
        return 4.0 * self.v * self.t - self.s ** 2

    @property
    def c1(self) -> float:
        return 2.0 * float(np.sum(self.v))

    @property
    def c2(self) -> float:
        return float(np.sum(self.s))


@dataclass(frozen=True)
class RegularCoordinates:
    """Reduced sphere coordinates xi (radii, signed for m=1 blocks) and eta."""

    xi: np.ndarray
    eta: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        for name in ("xi", "eta", "w"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), float)))


def hilbert_map(spec: SpectrumSpec, p: PhasePoint) -> ReducedState:
    """Blockwise invariants V = |Px|^2/2, T = |Py|^2/2, S = <Px,Py>."""
    ell1 = spec.ell + 1
    v, t, s = np.zeros(ell1), np.zeros(ell1), np.zeros(ell1)
    for sigma in range(ell1):
        sl = spec.block_slice(sigma)
        xb, yb = p.x[sl], p.y[sl]
        v[sigma] = 0.5 * np.dot(xb, xb)
        t[sigma] = 0.5 * np.dot(yb, yb)
        s[sigma] = np.dot(xb, yb)
    return ReducedState(v, t, s)


# -- reduced bracket table ---------------------------------------------------------

_KINDS = ("V", "T", "S")


def reduced_bracket(a: tuple, b: tuple, state: ReducedState) -> float:
    """Reduced Dirac bracket of two invariant coordinates at a reduced state.

    ``a`` and ``b`` are pairs (kind, sigma) with kind in {"V","T","S"}.  The
    closed table:

        {V_s, T_t} =  S_t (d_st - 2 V_s / C1)
        {V_s, S_t} =  2 V_s (d_st - 2 V_t / C1)
        {T_s, S_t} = -2 T_s (d_st - 2 V_t / C1)
        {T_s, T_t} =  2 (T_s S_t - T_t S_s) / C1
        {V, V} = {S, S} = 0
    """
    ka, sa = a
    kb, sb = b
    if ka not in _KINDS or kb not in _KINDS:
        raise ConfigError(f"unknown reduced observable kinds {a}, {b}")
    c1 = state.c1
    if c1 == 0.0:
        raise SingularStratumError("reduced bracket undefined at C1 = 0")
    v, t, s = state.v, state.t, state.s

    def d(i, j):
        return 1.0 if i == j else 0.0

    if ka == kb == "V" or ka == kb == "S":
        return 0.0
    if ka == "V" and kb == "T":
        return s[sb] * (d(sa, sb) - 2 * v[sa] / c1)
    if ka == "T" and kb == "V":
        return -reduced_bracket(b, a, state)
    if ka == "V" and kb == "S":
        return 2 * v[sa] * (d(sa, sb) - 2 * v[sb] / c1)
    if ka == "S" and kb == "V":
        return -reduced_bracket(b, a, state)
    if ka == "T" and kb == "S":
        return -2 * t[sa] * (d(sa, sb) - 2 * v[sb] / c1)
    if ka == "S" and kb == "T":
        return -reduced_bracket(b, a, state)
    # T,T
    return 2 * (t[sa] * s[sb] - t[sb] * s[sa]) / c1


def bracket_matrix(state: ReducedState) -> np.ndarray:
    """Antisymmetric matrix of all pairwise brackets in (V0,T0,S0,V1,...) order."""
    ell1 = state.v.size
    coords = [(k, s) for s in range(ell1) for k in _KINDS]
    n = len(coords)
    B = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            B[i, j] = reduced_bracket(coords[i], coords[j], state)
            B[j, i] = -B[i, j]
    return B


def casimir_gradients(state: ReducedState) -> np.ndarray:
    """Gradients of C1, C2 and each W_sigma in (V0,T0,S0,...) coordinates, as rows."""
    ell1 = state.v.size
    rows = []
    g = np.zeros(3 * ell1)
    g[0::3] = 2.0
    rows.append(g)
    g = np.zeros(3 * ell1)
    g[2::3] = 1.0
    rows.append(g)
    for sigma in range(ell1):
        g = np.zeros(3 * ell1)
        g[3 * sigma + 0] = 4.0 * state.t[sigma]
        g[3 * sigma + 1] = 4.0 * state.v[sigma]
        g[3 * sigma + 2] = -2.0 * state.s[sigma]
        rows.append(g)
    return np.array(rows)


# -- regular stratum ----------------------------------------------------------------

def regular_coordinates(spec: SpectrumSpec, p: PhasePoint,
                        w_tol: float = SINGULAR_W_TOL) -> RegularCoordinates:
    """Radial coordinates (xi, eta) per block; signed (x, y) for m=1 blocks.

    Rejects points on a singular stratum (a block with m >= 2 and W = 0),
    where the radial chart degenerates; those belong to hilbert_map.
    """
    ell1 = spec.ell + 1
    xi, eta = np.zeros(ell1), np.zeros(ell1)
    state = hilbert_map(spec, p)
    w = state.w
    for sigma in range(ell1):
        sl = spec.block_slice(sigma)
        if spec.m[sigma] == 1:
            xi[sigma] = p.x[sl][0]
            eta[sigma] = p.y[sl][0]
            continue
        r = np.sqrt(2.0 * state.v[sigma])
        if r == 0.0 or (w[sigma] <= w_tol and r < 1e-8):
            raise SingularStratumError(
                f"block {sigma} sits on the singular stratum (W={w[sigma]:.3e}); "
                "use hilbert_map / (V,T,S) variables instead"
            )
        xi[sigma] = r
        eta[sigma] = state.s[sigma] / r
    return RegularCoordinates(xi, eta, w)


def embed_regular(spec: SpectrumSpec, xi: np.ndarray, eta: np.ndarray,
                  w: np.ndarray) -> PhasePoint:
    """A phase point mapping to the given regular data (one point per fibre).

    Block with m >= 2: x = xi e1, y = eta e1 + (sqrt(w)/xi) e2, which realizes
    blockwise angular momentum L_12 = sqrt(w_sigma).  Block with m = 1: the
    signed (xi, eta) are used directly.
    """
    xi, eta, w = (np.asarray(v, float) for v in (xi, eta, w))
    x = np.zeros(spec.n_coords)
    y = np.zeros(spec.n_coords)
    for sigma in range(spec.ell + 1):
        start = spec.block_starts[sigma]
        if spec.m[sigma] == 1:
            x[start] = xi[sigma]
            y[start] = eta[sigma]
            continue
        if xi[sigma] <= 0:
            raise SingularStratumError(f"embed_regular needs xi_{sigma} > 0")
        x[start] = xi[sigma]
        y[start] = eta[sigma]
        y[start + 1] = np.sqrt(max(w[sigma], 0.0)) / xi[sigma]
    return PhasePoint(x, y)


def reduced_hamiltonian(spec: SpectrumSpec, w, xi, eta) -> float:
    """Rosochatius Hamiltonian (1/2) sum eta^2 + b xi^2 + w / xi^2."""
    xi, eta, w = (np.asarray(v, float) for v in (xi, eta, w))
    b = np.asarray(spec.b)
    mask = w != 0.0
    if np.any(mask & (xi == 0.0)):
        raise SingularStratumError("reduced Hamiltonian singular: xi = 0 with w != 0")
    inv = np.zeros_like(xi)
    inv[mask] = w[mask] / xi[mask] ** 2
    return 0.5 * float(np.sum(eta ** 2) + np.sum(b * xi ** 2) + np.sum(inv))


def rosochatius_invariants(spec: SpectrumSpec, w, xi, eta) -> ReducedState:
    """Hilbert map of the reflection symmetry of the Rosochatius system.

    V = xi^2/2, T = eta^2/2 + w/(2 xi^2), S = xi eta; satisfies the same
    bracket table as the blockwise invariants and recovers 4VT - S^2 = w
    exactly.
    """
    xi, eta, w = (np.asarray(v, float) for v in (xi, eta, w))
    mask = w != 0.0
    if np.any(mask & (xi == 0.0)):
        raise SingularStratumError("invariants singular: xi = 0 with w != 0")
    inv = np.zeros_like(xi)
    inv[mask] = w[mask] / (2.0 * xi[mask] ** 2)
    return ReducedState(v=xi ** 2 / 2.0, t=eta ** 2 / 2.0 + inv, s=xi * eta)


def amended_gradient(spec: SpectrumSpec, w):
    """Callback xi -> grad V_w = b xi - w / xi^3 of the amended potential.

    Blocks with w_sigma = 0 (multiplicity 1) keep only b xi, so their signed
    xi_sigma may pass through zero.
    """
    b = np.asarray(spec.b)
    w = np.asarray(w, float)
    mask = w != 0.0
    if mask.all():
        # bitwise the same as the masked form below, without its np.where per call
        return lambda xi: b * xi - w / xi ** 3

    def gradient(xi):
        return b * xi - w / np.where(mask, xi, 1.0) ** 3
    return gradient


def amended_potential_gradient(spec: SpectrumSpec, w, xi) -> np.ndarray:
    """grad V_w at xi; see ``amended_gradient``."""
    return amended_gradient(spec, w)(np.asarray(xi, float))


def reduced_vector_field(spec: SpectrumSpec, w, xi, eta) -> tuple:
    """Hamiltonian vector field of the Rosochatius system on T*S^ell.

    The full field's ``constrained_field`` with the amended potential V_w:
    xidot = eta and etadot = -grad V_w + (<xi, grad V_w> - |eta|^2) xi.
    Negative w_sigma is admitted (study runs); the flow then blows up in
    finite time near xi_sigma = 0.
    """
    xi, eta = np.asarray(xi, float), np.asarray(eta, float)
    return constrained_field(amended_potential_gradient(spec, w, xi), xi, eta)


@dataclass(frozen=True)
class ReducedTrajectory:
    t: np.ndarray
    xi: np.ndarray
    eta: np.ndarray

    def state(self, k: int) -> tuple:
        return self.xi[k], self.eta[k]


def integrate_reduced(spec: SpectrumSpec, w, xi0, eta0, t_end: float,
                      dt: float = 1e-3, save_every: int = 10,
                      blowup_threshold: float = 1e8) -> ReducedTrajectory:
    """Rosochatius flow by the full flow's projected RK4 (onto |xi| = 1, <xi, eta> = 0).

    Raises BlowUpDetected when the unprojected state exceeds
    ``blowup_threshold`` or stops being finite (possible for negative w_sigma).
    """
    t, xi, eta = integrate_projected(amended_gradient(spec, w), np.asarray(xi0, float),
                                     np.asarray(eta0, float), t_end, dt, save_every,
                                     blowup_threshold)
    return ReducedTrajectory(t, xi, eta)
