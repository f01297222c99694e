"""Branch points, action integrals, and the period lattice of the curve.

For bounded motion with every coupling w_sigma > 0 the degree-(2*ell+1)
polynomial R has 2*ell+1 real roots: one left of b_0 and one pair inside
each gap (b_{sigma-1}, b_sigma).  R >= 0 exactly on the paired segments,
which carry the oscillation of the separated coordinates.  The nontrivial
actions are

    I_i = (1/4 pi) oint_{gamma_i} zeta / A dz,

where gamma_i doubles the segment cycle exactly when an endpoint sits at an
eigenvalue (possible only on w_sigma = 0 strata).  The circle around the
pole z = b_sigma yields the trivial action sqrt(w_sigma) by the residue
sqrt(-R(b_sigma)) / |A'(b_sigma)|.

Each derivative of an action is a period of an explicit differential:

    dI_i/dp = flag (1/2 pi) int_seg (dR/dp) / (2 sqrt(R) |A|) dz,
    dR/drho_k = -2 z^{ell-k} A,    dR/dw_sigma = -A'(b_sigma) A / (z - b_sigma),

with d/dh = d/drho_1 and d/dJ_sigma = 2 J_sigma d/dw_sigma, the latter only for
w_sigma > 0 (at w_sigma = 0, b_sigma is a branch point and the pole a segment end).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalFailure
from .model import SpectrumSpec
from .reduction import SINGULAR_W_TOL
from .separation import (HyperellipticCurve, a_prime_values, bracketed_roots,
                         curve_from_energy, poly_der, poly_divide, poly_eval)

#: pairwise root gap (times scale) below which the curve counts as near-critical
NEAR_CRITICAL_GAP = 1e-8
#: endpoint-to-eigenvalue distance (times scale) that, at w_sigma <= SINGULAR_W_TOL,
#: triggers cycle doubling
DOUBLING_TOL = 1e-9


class NearCriticalWarning(UserWarning):
    """Curve has a nearly-double root: discriminant-locus proximity."""


def _curve_scale(curve: HyperellipticCurve) -> float:
    return float(np.max(np.abs(curve.b)) + 1.0)


def _roots_structured(curve: HyperellipticCurve) -> np.ndarray:
    """Real roots for the generic stratum (all w > 0): isolate, then one solver.

    Every root gets a bracket with one sign change of R: the spectator root
    in (b_0 - span, b_0), with span doubled until R > 0 at its left end, and
    each pair root between neighbouring nodes of a grid on its gap.  A pair
    the grid does not resolve is split at the interior maximum of R, itself
    the root of R' between the grid neighbours of the largest node value.
    ``bracketed_roots`` takes those maxima in one call and every root of R
    in a second.
    """
    b = curve.b
    ell = curve.ell
    scale = _curve_scale(curve)
    tol = 1e-14 * scale
    dr = poly_der(curve.r)

    # spectator root left of b_0 (R -> +inf as z -> -inf)
    span = max(1.0, float(b[-1] - b[0]))
    while float(poly_eval(curve.r, b[0] - span)) <= 0.0:
        span *= 2.0
        if span > 1e12 * scale:
            raise NumericalFailure("no spectator root found left of the spectrum")
    brackets = [(b[0] - span, b[0], False)]

    split = []  # (gap ends, grid neighbours of the largest node value)
    for sigma in range(1, ell + 1):
        a, c = float(b[sigma - 1]), float(b[sigma])
        # include near-endpoint nodes: R < 0 at the eigenvalues when w > 0,
        # so pairs hugging an endpoint still produce sign changes
        tiny = 1e-12 * (c - a)
        grid = np.concatenate([[a + tiny],
                               np.linspace(a, c, 128 * max(1, ell))[1:-1],
                               [c - tiny]])
        vals = poly_eval(curve.r, grid)
        changes = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        if changes.size >= 2:
            brackets += [(grid[k], grid[k + 1], vals[k] < 0) for k in (changes[0], changes[-1])]
            continue
        k = int(np.argmax(vals))
        zl, zr = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
        if poly_eval(dr, zl) <= 0.0 or poly_eval(dr, zr) >= 0.0:
            raise NumericalFailure(
                f"branch structure violated in ({a:.6g}, {c:.6g}): no interior maximum"
            )
        split.append((a, c, zl, zr))

    roots = []
    if split:
        a, c, zl, zr = np.array(split).T
        d2r = poly_der(dr)
        zmax = bracketed_roots(lambda z: (poly_eval(dr, z), poly_eval(d2r, z)),
                               zl, zr, False, tol)
        for k, rmax in enumerate(poly_eval(curve.r, zmax)):
            if rmax < -NEAR_CRITICAL_GAP * scale:
                raise NumericalFailure(
                    f"complex root pair in ({a[k]:.6g}, {c[k]:.6g}): R_max = {rmax:.3e} < 0 "
                    "(near-critical or unbounded parameters)"
                )
            if rmax <= NEAR_CRITICAL_GAP * scale:
                roots += [zmax[k], zmax[k]]
            else:
                brackets += [(zl[k], zmax[k], True), (zmax[k], zr[k], False)]
    lo, hi, rising = (np.array(v) for v in zip(*brackets))
    roots += list(bracketed_roots(lambda z: (poly_eval(curve.r, z), poly_eval(dr, z)),
                                  lo, hi, rising, tol))
    return np.sort(np.array(roots))


def _roots_with_zero_couplings(curve: HyperellipticCurve, zero_idx) -> np.ndarray:
    """Roots when some w_sigma = 0: those b_sigma are roots; deflate and fall back."""
    poly = curve.r.copy()
    fixed = []
    for sigma in zero_idx:
        poly, _ = poly_divide(poly, (1.0, -float(curve.b[sigma])))
        fixed.append(float(curve.b[sigma]))
    other = np.roots(poly)
    scale = _curve_scale(curve)
    real = other[np.abs(other.imag) < 1e-7 * scale].real
    return np.sort(np.concatenate([np.array(fixed), real]))


def branch_points(curve: HyperellipticCurve, w_tol: float = SINGULAR_W_TOL) -> np.ndarray:
    """All real roots of R, sorted ascending; validates count and placement.

    Raises when a real pair is missing (complex roots where the bounded-motion
    structure requires real ones); warns when two roots nearly coincide.
    """
    ell = curve.ell
    zero_idx = [s for s in range(ell + 1) if curve.w[s] <= w_tol]
    if zero_idx:
        roots = _roots_with_zero_couplings(curve, zero_idx)
    else:
        roots = _roots_structured(curve)
    if roots.size != 2 * ell + 1:
        raise NumericalFailure(
            f"expected {2 * ell + 1} real branch points, found {roots.size} "
            f"(roots: {roots}); parameters may not describe bounded motion"
        )
    scale = _curve_scale(curve)
    if not zero_idx:
        b = curve.b
        if roots[0] >= b[0]:
            raise NumericalFailure("spectator branch point not left of the spectrum")
        for sigma in range(1, ell + 1):
            pair = roots[2 * sigma - 1: 2 * sigma + 1]
            if np.any(pair < b[sigma - 1]) or np.any(pair > b[sigma]):
                raise NumericalFailure(f"branch pair {sigma} escaped its spectral gap")
    gaps = np.diff(roots)
    if gaps.size and float(np.min(gaps)) < NEAR_CRITICAL_GAP * scale:
        warnings.warn("nearly coincident branch points: discriminant-locus proximity",
                      NearCriticalWarning)
    return roots


def branch_segments(curve: HyperellipticCurve, roots: np.ndarray | None = None) -> list:
    """The ell closed segments [z_{2i-1}, z_{2i}] (ascending, spectator excluded)."""
    if roots is None:
        roots = branch_points(curve)
    return [(float(roots[2 * i + 1]), float(roots[2 * i + 2])) for i in range(curve.ell)]


def _cosine_nodes(zlo: float, zhi: float, n: int) -> tuple:
    """Midpoint nodes z = m - r cos(theta), theta = (k + 1/2) pi / n, and sin(theta)."""
    m, r = 0.5 * (zlo + zhi), 0.5 * (zhi - zlo)
    theta = (np.arange(n) + 0.5) * np.pi / n
    return m - r * np.cos(theta), np.sin(theta)


def sqrt_weight_quadrature(f, zlo: float, zhi: float, n: int):
    """Midpoint rule for int_zlo^zhi sqrt((z-zlo)(zhi-z)) f(z) dz via z = m - r cos(theta).

    Exact to machine precision for constant f at any n >= 1; spectrally
    convergent for smooth f.  ``f`` may return rows (last axis over the
    nodes); the result then holds one integral per row.
    """
    r = 0.5 * (zhi - zlo)
    z, sin_theta = _cosine_nodes(zlo, zhi, n)
    vals = sin_theta ** 2 * np.asarray(f(z))
    return r * r * np.pi / n * np.sum(vals, axis=-1)


def _self_converge(quad, tol: float, max_nodes: int, what: str):
    """quad(n) with n doubled from 16 until successive values agree to ``tol``."""
    n = 16
    prev = quad(n)
    while n < max_nodes:
        n *= 2
        cur = quad(n)
        if np.all(np.abs(cur - prev) < tol * np.maximum(1.0, np.abs(cur))):
            return cur
        prev = cur
    raise NumericalFailure(f"{what} quadrature failed to self-converge")


def _segment(curve: HyperellipticCurve, roots: np.ndarray | None, i: int) -> tuple:
    """(zlo, zhi, flag, quotient) of the i-th segment, quotient = R / ((z-zlo)(z-zhi))."""
    segments = branch_segments(curve, roots)
    if not 0 <= i < len(segments):
        raise ConfigError(f"segment index {i} out of range for genus {curve.ell}")
    zlo, zhi = segments[i]
    scale = _curve_scale(curve)
    # the cycle doubles only where an end sits at an eigenvalue whose coupling vanishes
    at_b = np.abs(np.array([zlo, zhi])[:, None] - curve.b[None, :]) < DOUBLING_TOL * scale
    flag = 2 if bool(np.any(at_b & (curve.w <= SINGULAR_W_TOL))) else 1
    inside = (curve.b > zlo + DOUBLING_TOL * scale) & (curve.b < zhi - DOUBLING_TOL * scale)
    if np.any(inside):
        raise NumericalFailure("an eigenvalue lies strictly inside a branch segment")
    quotient, _ = poly_divide(curve.r, (1.0, -zlo))
    quotient, _ = poly_divide(quotient, (1.0, -zhi))
    return zlo, zhi, flag, quotient


def action_integral(curve: HyperellipticCurve, i: int, tol: float = 1e-11,
                    max_nodes: int = 1 << 14, roots: np.ndarray | None = None) -> tuple:
    """(I_i, doubling flag) for the i-th branch segment (0-based, ascending).

    I_i = flag * (1/2 pi) int_seg sqrt(R(z)) / |A(z)| dz with flag = 2 exactly
    when a segment endpoint coincides with an eigenvalue whose coupling
    vanishes (w_sigma <= SINGULAR_W_TOL).  The square-root
    endpoint behaviour is absorbed by the cosine substitution; node count is
    doubled until self-convergence below ``tol``.  ``roots`` are the curve's
    branch points, isolated here when not given.
    """
    zlo, zhi, flag, quotient = _segment(curve, roots, i)
    if zhi - zlo < NEAR_CRITICAL_GAP * _curve_scale(curve):
        return 0.0, flag
    a_coeffs = curve.a_coeffs

    def integrand(z):
        # R(z) = (z - zlo)(z - zhi) * quotient(z); on the segment quotient <= 0
        q = np.maximum(-poly_eval(quotient, z), 0.0)
        return np.sqrt(q) / np.abs(poly_eval(a_coeffs, z))

    total = _self_converge(lambda n: sqrt_weight_quadrature(integrand, zlo, zhi, n),
                           tol, max_nodes, "action")
    return flag * total / (2.0 * np.pi), flag


def action_integrals(curve: HyperellipticCurve, tol: float = 1e-11) -> tuple:
    """(I, flags) over all segments, with the branch points isolated once."""
    roots = branch_points(curve)
    pairs = [action_integral(curve, i, tol=tol, roots=roots) for i in range(curve.ell)]
    return np.array([v for v, _ in pairs]), np.array([f for _, f in pairs], dtype=int)


def _action_gradient(curve: HyperellipticCurve, roots: np.ndarray, i: int, w_blocks,
                     tol: float, max_nodes: int = 1 << 14) -> tuple:
    """(dI_i/d(rho_1, ..., rho_ell, w_sigma for sigma in w_blocks), flag) on segment i.

    In theta, dz / sqrt((z-zlo)(zhi-z)) = dtheta leaves (dR/dp) / (2 sqrt(-q) |A|)
    with q = R / ((z-zlo)(z-zhi)), so the endpoint factor is never formed at the
    rounded nodes.  The pole of a w_sigma row at b = b_sigma, which nears the
    segment as w_sigma -> 0, is split off: int_0^pi dtheta / (z-b) is
    sign(m-b) pi / sqrt((zlo-b)(zhi-b)), and the rest, (1/sqrt(-q) - 1/sqrt(-q(b))) / (z-b),
    is rewritten through D = (q - q(b)) / (z-b) so that nothing cancels.
    """
    zlo, zhi, flag, quotient = _segment(curve, roots, i)
    m = 0.5 * (zlo + zhi)
    sign_a = float(np.prod(np.sign(m - curve.b)))  # sign of A on the segment
    b = curve.b[list(w_blocks)]
    c = -0.5 * a_prime_values(curve.b)[list(w_blocks), None]
    root_qb = np.sqrt(-poly_eval(quotient, b))[:, None]
    d_coeffs = [poly_divide(quotient, (1.0, -bs))[0] for bs in b]
    pole = np.sign(m - b) * np.pi / np.sqrt((zlo - b) * (zhi - b))

    def quad(n):
        z, _ = _cosine_nodes(zlo, zhi, n)
        root_q = np.sqrt(-poly_eval(quotient, z))
        smooth = np.array([poly_eval(d, z) for d in d_coeffs]).reshape(b.size, n)
        rows = np.vstack([-np.vander(z, curve.ell).T / root_q,
                          c * smooth / (root_q * root_qb * (root_q + root_qb))])
        return np.pi / n * np.sum(rows, axis=-1)

    total = _self_converge(quad, tol, max_nodes, "action-derivative")
    total[curve.ell:] += (c / root_qb)[:, 0] * pole
    return flag * sign_a * total / (2.0 * np.pi), flag


def trivial_action_residue(curve: HyperellipticCurve, sigma: int,
                           w_tol: float = 1e-12) -> float:
    """sqrt(w_sigma) as the residue modulus sqrt(-R(b_sigma)) / |A'(b_sigma)|."""
    val = curve.evaluate_exact(curve.b[sigma])
    a_prime = curve.a_prime(sigma)
    resid_sq = -val / a_prime ** 2
    if resid_sq <= w_tol * w_tol:
        raise NumericalFailure(
            f"no pole at b_{sigma}: coupling w_{sigma} vanishes (residue = 0)"
        )
    return float(np.sqrt(resid_sq))


# -- period lattice ---------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodLattice:
    """T = [[dI/dH, dI/dJ], [0, id]] and its inverse (the frequency matrix)."""

    t: np.ndarray
    omega: np.ndarray
    param_names: tuple
    j_blocks: tuple
    flags: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def frequency_ratios(self) -> np.ndarray:
        """dI/dJ entries; for one reduced degree of freedom these are the ratios."""
        ell = self.t.shape[0] - len(self.j_blocks)
        return self.t[:ell, ell:]


def period_lattice(spec: SpectrumSpec, w, h: float, extra_rho=(),
                   quad_tol: float = 1e-12) -> PeriodLattice:
    """Assemble the action-derivative matrix T and frequencies Omega = T^{-1}.

    Parameters are (h, rho_2, ..., rho_ell, J_sigma for w_sigma > SINGULAR_W_TOL); the
    derivatives are the periods of the module docstring on one curve, whose
    branch points are isolated once.  Near-discriminant curves (tiny branch
    gaps) are rejected as ill-conditioned.
    """
    w = np.asarray(w, float)
    ell = spec.ell
    j_blocks = tuple(s for s in range(ell + 1) if w[s] > SINGULAR_W_TOL)
    extra = tuple(float(v) for v in extra_rho)
    curve = curve_from_energy(spec, w, h, extra)
    roots = branch_points(curve)
    if float(np.min(np.diff(roots))) < 1e-6 * _curve_scale(curve):
        raise NumericalFailure("near-discriminant parameters: period lattice ill-conditioned")
    names = ("h", *[f"rho_{k}" for k in range(2, ell + 1)],
             *[f"J_{s}" for s in j_blocks])

    t_mat = np.eye(ell + len(j_blocks))
    flags = np.empty(ell, dtype=int)
    for i in range(ell):
        t_mat[i], flags[i] = _action_gradient(curve, roots, i, j_blocks, quad_tol)
    t_mat[:ell, ell:] *= 2.0 * np.sqrt(w[list(j_blocks)])  # d/dJ = 2 J d/dw
    omega = np.linalg.inv(t_mat)
    return PeriodLattice(t=t_mat, omega=omega, param_names=names, j_blocks=j_blocks,
                         flags=flags, meta={"h": h, "extra_rho": extra})
