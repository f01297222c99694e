"""Phase space, spectrum bookkeeping, Hamiltonian, and equations of motion.

The configuration space is the unit sphere S^n embedded in R^{n+1} through
C1 = <x,x> = 1, with tangency constraint C2 = <x,y> = 0.  The potential is
the quadratic form (1/2)<x, A x> where A is diagonal with eigenvalue b_sigma
repeated m_sigma times; equal eigenvalues are stored as consecutive blocks.

Both the full flow and the reduced Rosochatius flow are stepped by one
projected RK4 step (``rk4_projected_step``) of one ``Potential``.  The step
has two kernels that give the same bits: a list of Python floats for a
single state of at most ``FLOAT_KERNEL_MAX_COORDS`` = 7 coordinates, where
numpy's per-call cost would be the whole cost, and numpy arrays for a batch,
a column of step sizes or a longer state.  ``kernel_state`` picks the kernel
from the state's shape.  The float kernel does numpy's products and
quotients in numpy's order, and its sums run left to right from 0.0 as
numpy's do below 8 terms; from 8 terms on numpy sums pairwise.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BlowUpDetected, ConfigError, NumericalFailure, OffManifoldError

#: default tolerance for |C1 - 1| and |C2| when a point must lie on T*S^n
ON_MANIFOLD_TOL = 1e-9

#: Largest single state that the float kernel steps.  numpy sums fewer than 8
#: terms left to right from 0.0, as ``_dot`` does, so up to 7 coordinates the
#: two kernels agree bit for bit.  From 8 terms on numpy sums pairwise in
#: unrolled partial sums: at k = 8 only about half of random 8-term sums matched
#: a left-to-right sum, so a state of 8 or more coordinates takes the numpy kernel.
FLOAT_KERNEL_MAX_COORDS = 7


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
        if not all(map(math.isfinite, b)):
            raise ConfigError("spectrum: eigenvalues b must be finite")
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


def check_on_manifold(p: PhasePoint, tol: float = ON_MANIFOLD_TOL, space: str = "T*S^n") -> None:
    c1, c2 = constraint_values(p)
    if not (abs(c1 - 1.0) <= tol and abs(c2) <= tol):
        raise OffManifoldError(
            f"point off {space}: |C1-1|={abs(c1 - 1.0):.3e}, |C2|={abs(c2):.3e}, tol={tol:.1e}"
        )


def check_reduced_state(xi, eta, tol: float = ON_MANIFOLD_TOL) -> None:
    """Raise OffManifoldError unless |xi|^2 = 1 and <xi, eta> = 0 within ``tol``.

    The reduced state (xi, eta) of the Rosochatius system lives on T*S^ell.
    """
    check_on_manifold(PhasePoint(xi, eta), tol, "T*S^ell")


class Potential:
    """V = (1/2) sum a_i x_i^2 + (1/2) sum_{w_i != 0} w_i / x_i^2, with grad V in both kernels.

    grad_i V = a_i x_i - w_i / (x_i x_i x_i).  The full Neumann flow has
    a = ``spec.a_vec`` and w = 0; the reduced Rosochatius flow has a = b and
    w the couplings, and a block with w_sigma = 0 keeps only b x, so its
    signed x_sigma may pass through zero.  The cube is a product, not a
    power: numpy's power loop and libm ``pow`` disagree on some cubes.
    """

    def __init__(self, a, w=None):
        self.a = np.asarray(a, float)
        self.w = np.zeros_like(self.a) if w is None else np.asarray(w, float)
        if self.w.shape != self.a.shape:
            raise ConfigError(f"need {self.a.size} couplings, got shape {self.w.shape}")
        self._mask = self.w != 0.0
        self._a, self._w = self.a.tolist(), self.w.tolist()
        self._coupled = np.flatnonzero(self._mask).tolist()

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """grad V on an array of shape (..., k): the numpy kernel."""
        g = self.a * x
        if not self._coupled:
            return g
        if len(self._coupled) < self.a.size:
            x = np.where(self._mask, x, 1.0)
        return g - self.w / (x * x * x)

    def gradient_floats(self, x: list) -> list:
        """grad V on a list of k floats: the float kernel, bit for bit ``gradient``."""
        g = [a * v for a, v in zip(self._a, x)]
        for i in self._coupled:
            v = x[i]
            g[i] -= self._w[i] / (v * v * v)
        return g


def kernel_state(x: np.ndarray):
    """``x`` in the form its kernel steps: a list of floats or the array itself.

    A single state (1-D) of at most ``FLOAT_KERNEL_MAX_COORDS`` coordinates
    takes the float kernel; a batch (rows of states), a column of step sizes
    or a longer state takes the numpy kernel.
    """
    if x.ndim == 1 and x.size <= FLOAT_KERNEL_MAX_COORDS:
        return x.tolist()
    return x


def _dot(u: list, v: list) -> float:
    """Left-to-right sum from 0.0 of the products: numpy's sum of fewer than 8 terms."""
    s = 0.0
    for a, b in zip(u, v):
        s += a * b
    return s


def project_to_manifold(x, y) -> tuple:
    """Radial projection x -> x/|x| followed by tangential projection of y."""
    if type(x) is list:
        norm = math.sqrt(_dot(x, x))
        x = [v / norm for v in x]
        s = _dot(x, y)
        return x, [b - s * a for a, b in zip(x, y)]
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


def _accel_floats(potential: Potential, x: list, y: list) -> list:
    """ydot of ``constrained_field`` in the float kernel."""
    g = potential.gradient_floats(x)
    lam = _dot(x, g) - _dot(y, y)
    return [lam * a - b for a, b in zip(x, g)]


def _rk4_step_floats(potential: Potential, x: list, y: list, dt: float) -> tuple:
    """``rk4_step`` on lists, term by term in numpy's order (xdot = y is not recomputed)."""
    h = 0.5 * dt
    a1 = _accel_floats(potential, x, y)
    x2, y2 = [p + h * q for p, q in zip(x, y)], [p + h * q for p, q in zip(y, a1)]
    a2 = _accel_floats(potential, x2, y2)
    x3, y3 = [p + h * q for p, q in zip(x, y2)], [p + h * q for p, q in zip(y, a2)]
    a3 = _accel_floats(potential, x3, y3)
    x4, y4 = [p + dt * q for p, q in zip(x, y3)], [p + dt * q for p, q in zip(y, a3)]
    a4 = _accel_floats(potential, x4, y4)
    c = dt / 6.0
    return ([p + c * (q1 + 2 * q2 + 2 * q3 + q4) for p, q1, q2, q3, q4 in zip(x, y, y2, y3, y4)],
            [p + c * (q1 + 2 * q2 + 2 * q3 + q4) for p, q1, q2, q3, q4 in zip(y, a1, a2, a3, a4)])


def rk4_step(potential: Potential, x, y, dt) -> tuple:
    """One classical RK4 step of ``constrained_field`` for ``potential``.

    Lists of floats take the float kernel and arrays the numpy kernel
    (``kernel_state``); both give the same bits.
    """
    if type(x) is list:
        return _rk4_step_floats(potential, x, y, dt)
    gradient = potential.gradient
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


def rk4_projected_step(potential: Potential, x, y, dt) -> tuple:
    """``rk4_step`` followed by ``project_to_manifold``.

    Off the manifold the field does not keep the constraints
    (d/dt C2 = (C1 - 1)(<x, grad V> - |y|^2)), so the projection is what
    holds C1 = 1 and C2 = 0 along a discrete trajectory.
    """
    return project_to_manifold(*rk4_step(potential, x, y, dt))


def _within(x, y, limit: float) -> bool:
    """Every entry of x and y is at most ``limit`` in size; False on a NaN."""
    if type(x) is list:
        # limit >= NaN is False, so a NaN anywhere fails (max() would skip it)
        return all(map(limit.__ge__, map(abs, x))) and all(map(limit.__ge__, map(abs, y)))
    # np.maximum, unlike max(), propagates a NaN from either argument
    return bool(np.maximum(np.abs(x).max(), np.abs(y).max()) <= limit)


def integrate_projected(potential: Potential, x: np.ndarray, y: np.ndarray, t_end: float,
                        dt: float, save_every: int, blowup_threshold: float = math.inf) -> tuple:
    """Fixed-step ``rk4_projected_step`` from (x, y) at t = 0 to exactly ``t_end``.

    The step is shrunk so that a whole number of steps lands on ``t_end``.
    The kernel follows ``kernel_state``: floats for a single state of at
    most ``FLOAT_KERNEL_MAX_COORDS`` coordinates, numpy for a batch.
    Returns arrays (t, x, y) holding the start, every ``save_every``-th step
    and the end.  Raises BlowUpDetected once the RK4 state, before it is
    projected, stops being finite or has an entry above ``blowup_threshold``:
    projection would hide an overshoot (x snaps to a unit vector and y loses
    its part along x).
    """
    if dt <= 0:
        raise NumericalFailure("step size underflow")
    nsteps = max(1, int(round(t_end / dt)))
    dt = float(t_end / nsteps)
    # an infinite entry is above every finite limit
    limit = min(blowup_threshold, sys.float_info.max)
    x, y = kernel_state(x), kernel_state(y)
    ts, xs, ys = [0.0], [x], [y]
    try:
        for k in range(1, nsteps + 1):
            x, y = rk4_step(potential, x, y, dt)
            if not _within(x, y, limit):
                raise BlowUpDetected(k * dt)
            x, y = project_to_manifold(x, y)
            if k % save_every == 0 or k == nsteps:
                ts.append(k * dt)
                xs.append(x)
                ys.append(y)
    except ZeroDivisionError:
        # the float kernel's v / 0.0, where numpy would give an infinite state
        raise BlowUpDetected(k * dt) from None
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
