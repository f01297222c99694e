"""Trajectory integration with constraint control, equilibria, and periods.

The integrator is the projected RK4 step of ``model``: a classical
4th-order step followed by projection onto T*S^n (x normalized, y made
tangent).  The projection is what holds C1 = 1 and C2 = 0: off the manifold
the field gives d/dt C2 = (C1 - 1)(<x, grad V> - |y|^2), so errors in the
constraints would otherwise grow.  The same step drives the reduced
Rosochatius flow and the period measurement, whose section crossings
``bracketed_roots`` solves.  An adaptive mode estimates its error by step doubling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import BlowUpDetected, ConfigError, NumericalFailure, OffManifoldError
from .model import (PhasePoint, SpectrumSpec, check_on_manifold, constrained_field,
                    integrate_projected, rk4_projected_step)
from .poisson import _block_casimirs, _l_matrix, _uhlenbeck
from .reduction import amended_gradient, reduced_vector_field
from .separation import bracketed_roots


@dataclass
class Trajectory:
    """Sampled trajectory; arrays have shape (N, ..., n+1) (batch dims allowed)."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return self.t.size

    def point(self, k: int, batch: int | None = None) -> PhasePoint:
        if self.x.ndim == 3:
            if batch is None:
                raise ConfigError("batched trajectory: give a batch index")
            return PhasePoint(self.x[k, batch], self.y[k, batch])
        return PhasePoint(self.x[k], self.y[k])


def _full_gradient(spec: SpectrumSpec):
    """grad V = A x as a callback for the projected stepper."""
    return partial(np.multiply, spec.a_vec)


def _integrate_adaptive(spec, x, y, t_end, dt0, rtol, save_every):
    gradient = _full_gradient(spec)
    t, dt = 0.0, dt0
    ts, xs, ys = [0.0], [x.copy()], [y.copy()]
    accepted = 0
    while t < t_end - 1e-14:
        dt = min(dt, t_end - t)
        if dt < 1e-14:
            raise NumericalFailure("step size underflow in adaptive integration")
        x1, y1 = rk4_projected_step(gradient, x, y, dt)
        xh, yh = rk4_projected_step(gradient, x, y, 0.5 * dt)
        x2, y2 = rk4_projected_step(gradient, xh, yh, 0.5 * dt)
        err = max(np.max(np.abs(x2 - x1)), np.max(np.abs(y2 - y1))) / 15.0
        scale = rtol * (1.0 + max(np.max(np.abs(x)), np.max(np.abs(y))))
        if err <= scale:
            t += dt
            x, y = x2, y2
            accepted += 1
            if accepted % save_every == 0 or t >= t_end - 1e-14:
                ts.append(t)
                xs.append(x.copy())
                ys.append(y.copy())
        ratio = (scale / err) ** 0.2 if err > 0 else 5.0
        dt *= min(5.0, max(0.2, 0.9 * ratio))
    return np.array(ts), np.array(xs), np.array(ys)


def integrate(spec: SpectrumSpec, p0: PhasePoint, t_end: float, dt: float = 1e-3,
              save_every: int = 10, adaptive: bool = False, rtol: float = 1e-10,
              on_manifold_tol: float = 1e-9) -> Trajectory:
    """Integrate the constrained flow from an on-manifold initial point."""
    check_on_manifold(p0, on_manifold_tol)
    if adaptive:
        t, x, y = _integrate_adaptive(spec, p0.x, p0.y, t_end, dt, rtol, save_every)
    else:
        t, x, y = integrate_projected(_full_gradient(spec), p0.x, p0.y, t_end, dt, save_every)
    return Trajectory(t, x, y, meta={"dt": dt, "adaptive": adaptive})


def integrate_batch(spec: SpectrumSpec, x0: np.ndarray, y0: np.ndarray, t_end: float,
                    dt: float = 1e-3, save_every: int = 10,
                    on_manifold_tol: float = 1e-9) -> Trajectory:
    """Fixed-step integration of several trajectories at once (rows of x0, y0)."""
    x0 = np.atleast_2d(np.asarray(x0, float))
    y0 = np.atleast_2d(np.asarray(y0, float))
    c1 = np.sum(x0 * x0, axis=-1)
    c2 = np.sum(x0 * y0, axis=-1)
    if np.max(np.abs(c1 - 1)) > on_manifold_tol or np.max(np.abs(c2)) > on_manifold_tol:
        raise OffManifoldError("batch initial conditions off T*S^n")
    t, x, y = integrate_projected(_full_gradient(spec), x0, y0, t_end, dt, save_every)
    return Trajectory(t, x, y, meta={"dt": dt, "adaptive": False})


# -- conserved-quantity monitoring -------------------------------------------------

def conserved_series(spec: SpectrumSpec, traj: Trajectory) -> dict:
    """Time series of every monitored quantity, keyed by name.

    Quantities: H, C1, C2, F_sigma for every block, intra-block L_ik, and
    W_sigma for blocks with m >= 2.  Values have shape (N, ...) matching any
    batch dimensions of the trajectory.
    """
    x, y = traj.x, traj.y
    a = spec.a_vec
    out = {}
    out["H"] = 0.5 * np.sum(y * y, axis=-1) + 0.5 * np.sum(a * x * x, axis=-1)
    out["C1"] = np.sum(x * x, axis=-1)
    out["C2"] = np.sum(x * y, axis=-1)
    # all pairwise angular momenta, shape (N, ..., n+1, n+1)
    L = _l_matrix(x, y)
    f = np.add.reduceat(_uhlenbeck(a, x, L), spec.block_starts, axis=-1)
    w = _block_casimirs(spec, L)
    for sigma in range(spec.ell + 1):
        out[f"F_{sigma}"] = f[..., sigma]
        if spec.m[sigma] >= 2:
            idx = spec.block_indices(sigma)
            out[f"W_{sigma}"] = w[..., sigma]
            for ai in range(len(idx)):
                for bi in range(ai + 1, len(idx)):
                    out[f"L_{idx[ai]}{idx[bi]}"] = L[..., idx[ai], idx[bi]]
    return out


def drift_report(spec: SpectrumSpec, traj: Trajectory) -> dict:
    """max_t |Q(t) - Q(0)| / max(1, |Q(0)|) for every monitored quantity."""
    if traj.n_samples == 0:
        raise ConfigError("empty trajectory")
    series = conserved_series(spec, traj)
    report = {}
    for name, q in series.items():
        q0 = q[0]
        drift = np.abs(q - q0[None, ...]) / np.maximum(1.0, np.abs(q0))[None, ...]
        report[name] = float(np.max(drift))
    return report


# -- relative equilibria -------------------------------------------------------------

@dataclass(frozen=True)
class RelativeEquilibrium:
    """Critical point of the amended potential at momentum j.

    ``h`` is the critical value of the Energy-Casimir mapping in the form
    sum_sigma j_sigma (omega_sigma + b_sigma / omega_sigma), which equals
    twice the Hamiltonian value at the equilibrium; the latter is exposed
    as ``energy``.
    """

    xi: np.ndarray
    beta: float
    omega: np.ndarray
    h: float
    j: np.ndarray

    @property
    def energy(self) -> float:
        return 0.5 * self.h


def relative_equilibrium(spec: SpectrumSpec, j) -> RelativeEquilibrium:
    """Solve sum_sigma j_sigma / sqrt(b_sigma - beta) = 1 for beta < b.

    Blocks with m_sigma = 1 must carry j_sigma = 0 and get xi_sigma = 0;
    blocks with m_sigma >= 2 need j_sigma > 0.  The left side is monotone
    increasing in beta and spans (0, infinity), so a root always exists; it
    lies in (b_min - (sum j)^2, b_min).  ``bracketed_roots`` solves for
    t = b_min - beta on (0, (sum j)^2), and omega = sqrt((b - b_min) + t).
    A stack j of shape (N, ell+1) is solved in one call: every field gains an axis of N.
    """
    j = np.asarray(j, dtype=float)
    if j.ndim not in (1, 2) or j.shape[-1] != spec.ell + 1:
        raise ConfigError("need one momentum value per block")
    rows = np.atleast_2d(j)
    b = np.asarray(spec.b)
    nonzero, nonpositive = (rows != 0.0).any(axis=0), (rows <= 0.0).any(axis=0)
    for sigma in range(spec.ell + 1):
        if spec.m[sigma] == 1 and nonzero[sigma]:
            raise ConfigError(f"block {sigma} has multiplicity 1: j_{sigma} must be 0")
        if spec.m[sigma] >= 2 and nonpositive[sigma]:
            raise ConfigError(f"block {sigma} needs j_{sigma} > 0 in the regular range")
    # valid momenta are active (j > 0) on exactly the blocks with m >= 2
    active = np.asarray(spec.m) >= 2
    if not np.any(active):
        raise ConfigError("no block carries momentum: no relative equilibrium in this stratum")
    b_min = float(np.min(b[active]))
    # solve for t = b_min - beta > 0, so that b - beta = (b - b_min) + t keeps
    # the digits of t however far b_min is from 0; an inactive block enters
    # every sum as the term 0 / sqrt(1 + t)
    gap = np.where(active, b - b_min, 1.0)
    eps = 1e-14 * (1.0 + abs(b_min))
    # a root closer to the pole than eps is not resolved: raise rather than guess
    if (np.sum(rows / np.sqrt(gap + eps), axis=1) < 1.0).any():
        raise NumericalFailure("root bracket failed at the singular end")

    def fdf(t, ja):
        root = np.sqrt(gap + t[:, None])
        return 1.0 - (ja / root).sum(axis=1), 0.5 * (ja / root ** 3).sum(axis=1)

    # at t = (sum j)^2 every term is at most j / sum j, so the sum is <= 1
    t = bracketed_roots(fdf, eps, rows.sum(axis=1) ** 2, True, 0.0, rows)
    beta = b_min - t
    omega = np.sqrt(np.maximum((b - b_min) + t[:, None], 0.0))
    om = np.where(active, omega, 1.0)
    xi = np.sqrt(rows / om)
    h = np.sum(rows * (om + b / om), axis=1)
    if j.ndim == 1:
        xi, beta, omega, h = xi[0], float(beta[0]), omega[0], float(h[0])
    return RelativeEquilibrium(xi=xi, beta=beta, omega=omega, h=h, j=j)


def critical_energy_hessian(spec: SpectrumSpec, j) -> tuple:
    """Gradient 2*omega and rank-1 Hessian of the critical value h(j).

    Hessian entries: (2 / (omega_s omega_t)) / sum_nu j_nu / omega_nu^3 on
    the active blocks (j > 0).  h is not defined off j_sigma = 0 for an
    inactive block, so its gradient entry, Hessian row and column are 0.
    """
    eq = relative_equilibrium(spec, j)
    # omega = inf on an inactive block zeroes its terms
    om = np.where(eq.j > 0, eq.omega, np.inf)
    hess = 2.0 / np.outer(om, om) / float(np.sum(eq.j / om ** 3))
    return np.where(eq.j > 0, 2.0 * eq.omega, 0.0), hess


def equilibrium_phase_point(spec: SpectrumSpec, eq: RelativeEquilibrium) -> PhasePoint:
    """Full-system initial condition realizing the relative equilibrium.

    Each active block rotates in its first two axes with angular velocity
    omega_sigma: x = xi (e1), y = xi omega (e2), giving L_12 = j_sigma.
    """
    x = np.zeros(spec.n_coords)
    y = np.zeros(spec.n_coords)
    for sigma in range(spec.ell + 1):
        if eq.xi[sigma] == 0.0:
            continue
        if spec.m[sigma] < 2:
            raise ConfigError("only blocks with m >= 2 can carry a rotating equilibrium")
        start = spec.block_starts[sigma]
        x[start] = eq.xi[sigma]
        y[start + 1] = eq.xi[sigma] * eq.omega[sigma]
    return PhasePoint(x, y)


# -- period measurement ----------------------------------------------------------------

def measure_period(spec: SpectrumSpec, w, xi0, eta0, section_index: int = 0,
                   t_max: float = 200.0, dt: float = 1e-3) -> float:
    """Return time of the reduced oscillation through a Poincare section.

    The section is the upward zero crossing of eta[section_index]; the period
    is the time between two consecutive same-direction crossings.  In a step
    that crosses, ``bracketed_roots`` solves to 1e-12 for the tau in (0, dt]
    at which a projected step of length tau lands on the section (Newton
    slope: the field's d eta_k/dt).  A non-finite state raises BlowUpDetected.
    """
    gradient = amended_gradient(spec, w)
    k = section_index

    def fdf(tau, xi, eta):
        x, y = rk4_projected_step(gradient, xi, eta, tau[:, None])
        return y[:, k], constrained_field(gradient(x), x, y)[1][:, k]

    xi = np.asarray(xi0, float)
    eta = np.asarray(eta0, float)
    t = 0.0
    crossings = []
    while t < t_max and len(crossings) < 2:
        xi_new, eta_new = rk4_projected_step(gradient, xi, eta, dt)
        if not math.isfinite(eta_new[k]):
            raise BlowUpDetected(t + dt)
        if eta[k] < 0.0 <= eta_new[k]:
            crossings.append(t + float(bracketed_roots(fdf, 0.0, dt, True, 1e-12, xi, eta)))
        xi, eta, t = xi_new, eta_new, t + dt
    if len(crossings) < 2:
        raise NumericalFailure(f"no section return within t_max={t_max}")
    return crossings[1] - crossings[0]


def linearized_frequency(spec: SpectrumSpec, w, xi_eq, fd_step: float = 1e-6) -> float:
    """Oscillation frequency from the Jacobian of the reduced field at an equilibrium."""
    xi_eq = np.asarray(xi_eq, float)
    m = xi_eq.size
    z0 = np.concatenate([xi_eq, np.zeros(m)])

    def f(z):
        return np.concatenate(reduced_vector_field(spec, w, z[:m], z[m:]))

    J = np.empty((2 * m, 2 * m))
    for k in range(2 * m):
        zp, zm = z0.copy(), z0.copy()
        zp[k] += fd_step
        zm[k] -= fd_step
        J[:, k] = (f(zp) - f(zm)) / (2 * fd_step)
    eig = np.linalg.eigvals(J)
    return float(np.max(np.abs(eig.imag)))
