"""Phase space, spectrum bookkeeping, Hamiltonian, and equations of motion.

The configuration space is the unit sphere S^n embedded in R^{n+1} through
C1 = <x,x> = 1, with tangency constraint C2 = <x,y> = 0.  The potential is
the quadratic form (1/2)<x, A x> where A is diagonal with eigenvalue b_sigma
repeated m_sigma times; equal eigenvalues are stored as consecutive blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BlowUpDetected, ConfigError, NumericalFailure, OffManifoldError

#: default tolerance for |C1 - 1| and |C2| when a point must lie on T*S^n
ON_MANIFOLD_TOL = 1e-9


@dataclass(frozen=True)
class SpectrumSpec:
    """Distinct eigenvalues ``b`` with multiplicities ``m``, blockwise.

    Blocks are consecutive index ranges: block sigma covers the m_sigma
    coordinates with eigenvalue b_sigma, and b is strictly increasing.
    """

    b: tuple
    m: tuple

    def __post_init__(self):
        b = tuple(float(v) for v in self.b)
        m = tuple(int(v) for v in self.m)
        if len(b) == 0 or len(b) != len(m):
            raise ConfigError("spectrum: b and m must be nonempty lists of equal length")
        if any(mu < 1 for mu in m):
            raise ConfigError("spectrum: all multiplicities must be >= 1")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ConfigError("spectrum: eigenvalues b must be strictly increasing")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "m", m)

    # -- derived bookkeeping -------------------------------------------------

    @property
    def ell(self) -> int:
        """Number of distinct eigenvalues minus one."""
        return len(self.b) - 1

    @property
    def n_coords(self) -> int:
        """Ambient dimension n+1 = sum of multiplicities."""
        return int(sum(self.m))

    @property
    def n(self) -> int:
        return self.n_coords - 1

    @property
    def ell_tilde(self) -> int:
        """Count of blocks with multiplicity >= 2, minus one."""
        return sum(1 for mu in self.m if mu >= 2) - 1

    @property
    def degenerate_blocks(self) -> tuple:
        """Indices sigma with m_sigma >= 2 (the blocks carrying a momentum map)."""
        return tuple(s for s, mu in enumerate(self.m) if mu >= 2)

    @property
    def block_starts(self) -> tuple:
        starts, acc = [], 0
        for mu in self.m:
            starts.append(acc)
            acc += mu
        return tuple(starts)

    def block_indices(self, sigma: int) -> np.ndarray:
        start = self.block_starts[sigma]
        return np.arange(start, start + self.m[sigma])

    def block_slice(self, sigma: int) -> slice:
        start = self.block_starts[sigma]
        return slice(start, start + self.m[sigma])

    @property
    def a_vec(self) -> np.ndarray:
        """Per-coordinate eigenvalues: b_sigma repeated m_sigma times."""
        return np.repeat(np.asarray(self.b), np.asarray(self.m))

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {"b": list(self.b), "m": list(self.m)}

    @classmethod
    def from_dict(cls, d: dict) -> "SpectrumSpec":
        try:
            return cls(tuple(d["b"]), tuple(d["m"]))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"spectrum: missing/invalid field ({exc})") from exc


def validate_spectrum(b: Sequence[float], m: Sequence[int]) -> SpectrumSpec:
    """Build a SpectrumSpec, rejecting non-increasing b or bad multiplicities."""
    return SpectrumSpec(tuple(b), tuple(m))


def spectrum_from_eigenvalues(a: Sequence[float], tol: float = 0.0) -> tuple:
    """Canonicalize per-coordinate eigenvalues given in any order.

    Groups values equal within ``tol`` into blocks sorted increasingly and
    returns (spec, perm) where perm maps canonical coordinate positions to
    the caller's positions (x_canonical[k] = x_user[perm[k]]).
    """
    a = [float(v) for v in a]
    if not a:
        raise ConfigError("spectrum: empty eigenvalue list")
    perm = sorted(range(len(a)), key=lambda k: a[k])
    b, m = [a[perm[0]]], [1]
    for k in perm[1:]:
        if a[k] - b[-1] <= tol:
            m[-1] += 1
        else:
            b.append(a[k])
            m.append(1)
    return SpectrumSpec(tuple(b), tuple(m)), tuple(perm)


def torus_dimension(spec: SpectrumSpec) -> int:
    """Dimension ell + ell_tilde + 1 of the regular invariant tori."""
    return spec.ell + spec.ell_tilde + 1


@dataclass(frozen=True)
class PhasePoint:
    """A point (x, y) of R^{2n+2}; on-manifold means C1 = 1, C2 = 0."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if x.shape != y.shape or x.ndim != 1:
            raise ConfigError("phase point: x and y must be 1-d arrays of equal length")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def dim(self) -> int:
        return self.x.size


def constraint_values(p: PhasePoint) -> tuple:
    """(C1, C2) = (<x,x>, <x,y>)."""
    return float(np.dot(p.x, p.x)), float(np.dot(p.x, p.y))


def check_on_manifold(p: PhasePoint, tol: float = ON_MANIFOLD_TOL) -> None:
    c1, c2 = constraint_values(p)
    if abs(c1 - 1.0) > tol or abs(c2) > tol:
        raise OffManifoldError(
            f"point off T*S^n: |C1-1|={abs(c1 - 1.0):.3e}, |C2|={abs(c2):.3e}, tol={tol:.1e}"
        )


def project_to_manifold(x: np.ndarray, y: np.ndarray) -> tuple:
    """Radial projection x -> x/|x| followed by tangential projection of y."""
    # method-form reductions: same bits as np.linalg.norm / np.sum, less call overhead
    x = x / np.sqrt((x * x).sum(-1, keepdims=True))
    y = y - (x * y).sum(-1, keepdims=True) * x
    return x, y


def constrained_field(grad_v: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple:
    """Constrained flow of a potential V on T*S^k, given grad V at x.

    xdot = y,  ydot = -grad V + (<x, grad V> - |y|^2) x, on arrays of shape
    (..., k+1).  The full Neumann flow has grad V = A x; the Rosochatius flow
    on the reduced sphere has the same form with the amended potential.
    """
    lam = (x * grad_v).sum(-1, keepdims=True) - (y * y).sum(-1, keepdims=True)
    return y, lam * x - grad_v


def rk4_step(gradient, x: np.ndarray, y: np.ndarray, dt: float) -> tuple:
    """One classical RK4 step of ``constrained_field``; ``gradient`` maps x to grad V."""
    k1x, k1y = constrained_field(gradient(x), x, y)
    x2, y2 = x + 0.5 * dt * k1x, y + 0.5 * dt * k1y
    k2x, k2y = constrained_field(gradient(x2), x2, y2)
    x3, y3 = x + 0.5 * dt * k2x, y + 0.5 * dt * k2y
    k3x, k3y = constrained_field(gradient(x3), x3, y3)
    x4, y4 = x + dt * k3x, y + dt * k3y
    k4x, k4y = constrained_field(gradient(x4), x4, y4)
    x = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
    y = y + dt / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y)
    return x, y


def rk4_projected_step(gradient, x: np.ndarray, y: np.ndarray, dt: float) -> tuple:
    """``rk4_step`` followed by ``project_to_manifold``.

    Off the manifold the field does not keep the constraints
    (d/dt C2 = (C1 - 1)(<x, grad V> - |y|^2)), so the projection is what
    holds C1 = 1 and C2 = 0 along a discrete trajectory.
    """
    return project_to_manifold(*rk4_step(gradient, x, y, dt))


def integrate_projected(gradient, x: np.ndarray, y: np.ndarray, t_end: float, dt: float,
                        save_every: int, blowup_threshold: float = math.inf) -> tuple:
    """Fixed-step ``rk4_projected_step`` from (x, y) at t = 0 to exactly ``t_end``.

    The step is shrunk so that a whole number of steps lands on ``t_end``.
    Returns arrays (t, x, y) holding the start, every ``save_every``-th step
    and the end.  Raises BlowUpDetected once the RK4 state, before it is
    projected, stops being finite or has an entry above ``blowup_threshold``:
    projection would hide an overshoot (x snaps to a unit vector and y loses
    its part along x).
    """
    if dt <= 0:
        raise NumericalFailure("step size underflow")
    nsteps = max(1, int(round(t_end / dt)))
    dt = t_end / nsteps
    ts, xs, ys = [0.0], [x], [y]
    for k in range(1, nsteps + 1):
        x, y = rk4_step(gradient, x, y, dt)
        # np.maximum, unlike max(), propagates a NaN from either argument
        peak = np.maximum(np.abs(x).max(), np.abs(y).max())
        if not (math.isfinite(peak) and peak <= blowup_threshold):
            raise BlowUpDetected(k * dt)
        x, y = project_to_manifold(x, y)
        if k % save_every == 0 or k == nsteps:
            ts.append(k * dt)
            xs.append(x)
            ys.append(y)
    return np.array(ts), np.array(xs), np.array(ys)


def potential(spec: SpectrumSpec, x: np.ndarray) -> float:
    a = spec.a_vec
    return 0.5 * float(np.sum(a * np.asarray(x) ** 2, axis=-1))


def potential_gradient(spec: SpectrumSpec, x: np.ndarray) -> np.ndarray:
    return spec.a_vec * np.asarray(x)


def hamiltonian(spec: SpectrumSpec, p: PhasePoint) -> float:
    """Total energy (1/2)<y,y> + (1/2)<x, A x>, defined on all of R^{2n+2}."""
    if p.dim != spec.n_coords:
        raise ConfigError(f"phase point has {p.dim} coordinates, spectrum needs {spec.n_coords}")
    return 0.5 * float(np.dot(p.y, p.y)) + potential(spec, p.x)


def vector_field(spec: SpectrumSpec, p: PhasePoint, tol: float = ON_MANIFOLD_TOL) -> tuple:
    """Constrained Hamiltonian vector field on T*S^n.

    xdot = y,  ydot = -grad V + (<x, grad V> - 2T) x.  Equivalent to Newton's
    equation with constraint multiplier lambda = 2V - 2T.
    """
    if p.dim != spec.n_coords:
        raise ConfigError(f"phase point has {p.dim} coordinates, spectrum needs {spec.n_coords}")
    check_on_manifold(p, tol)
    return constrained_field(spec.a_vec * p.x, p.x, p.y)


def random_phase_point(spec: SpectrumSpec, rng: np.random.Generator,
                       momentum_scale: float = 1.0) -> PhasePoint:
    """Random on-manifold point: x uniform on S^n, y Gaussian projected tangent."""
    x = rng.normal(size=spec.n_coords)
    y = momentum_scale * rng.normal(size=spec.n_coords)
    x, y = project_to_manifold(x, y)
    return PhasePoint(x, y)
