"""Branch points, action integrals, and the period lattice of the curve.

For bounded motion with every coupling w_sigma > 0 the degree-(2*ell+1)
polynomial R has 2*ell+1 real roots: one left of b_0 and one pair inside
each gap (b_{sigma-1}, b_sigma).  With c_sigma = w_sigma A'(b_sigma),
R / A = -(Q(z) + sum c_sigma / (z - b_sigma)), so the roots are the eigenvalues
of the companion of Q bordered by diag(b) (G. H. Golub, SIAM Rev. 15, 1973;
Amiraslani, Corless & Lancaster, IMA J. Numer. Anal. 29, 2009), and every
integrand is a product over them, R = -prod (z - e_j).  R >= 0 exactly on the
paired segments, which carry the oscillation of the separated coordinates.
The nontrivial actions are

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
                         curve_from_energy, poly_der, poly_eval, spectrum_scale)

#: pairwise root gap (times scale) below which the curve counts as near-critical
NEAR_CRITICAL_GAP = 1e-8
#: endpoint-to-eigenvalue distance (times scale) that, at w_sigma <= SINGULAR_W_TOL,
#: triggers cycle doubling
DOUBLING_TOL = 1e-9


class NearCriticalWarning(UserWarning):
    """Curve has a nearly-double root: discriminant-locus proximity."""


def _bordered_matrix(q: np.ndarray, c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """M with det(zI - M) = A(z) (Q(z) + sum c / (z - b)) = -R(z): the companion of Q
    (coefficients ``q``) with -1 in the b columns of row ell - 1, c in column 0
    of the b rows and diag(b).  LAPACK's balancing isolates a b row with c = 0,
    so that b_sigma comes back as an exact eigenvalue."""
    ell = q.size - 1
    m = np.diag(np.concatenate([np.zeros(ell), b])) + np.diag(np.arange(2 * ell) < ell - 1, 1)
    m[ell - 1, :ell] = -q[:0:-1]
    m[ell - 1, ell:] = -1.0
    m[ell:, 0] = c
    return m


def branch_points(curve: HyperellipticCurve, w_tol: float = SINGULAR_W_TOL) -> np.ndarray:
    """All real roots of R, sorted ascending; validates count and placement.

    The eigenvalues of ``_bordered_matrix``, with c_sigma = 0 where w_sigma <=
    ``w_tol`` (b_sigma is then an exact root), polished by ``_polish``.  A pair
    that M finds complex, or whose midpoint value of R is at most
    B = NEAR_CRITICAL_GAP max |R(gap ends)|, is judged by the maximum R_max of R:
    below -B it is complex (raises), up to B a double root at the maximum,
    above B two roots, one on each side.  Warns when two roots nearly coincide.
    A coupling below -SINGULAR_W_TOL is a ConfigError: R then has no real meaning.
    """
    b, ell = curve.b, curve.ell
    if np.any(curve.w < -SINGULAR_W_TOL):
        raise ConfigError(f"couplings w = {curve.w} must be >= 0 on the spectral path")
    a_prime = a_prime_values(b)
    q = np.concatenate([[1.0], 2.0 * curve.rho])
    c = np.where(curve.w > w_tol, curve.w * a_prime, 0.0)
    ev = np.linalg.eigvals(_bordered_matrix(q, c, b))
    ev = ev[np.argsort(ev.real, kind="stable")]
    pair = ev[1:].reshape(ell, 2)
    complex_pair = (pair[:, 0].imag != 0) & (pair[:, 0] == np.conj(pair[:, 1]))
    if ev[0].imag != 0 or np.any((pair.imag != 0).any(axis=1) & ~complex_pair):
        raise NumericalFailure(f"expected {2 * ell + 1} real branch points, found roots {ev}; "
                               "parameters may not describe bounded motion")
    scale = spectrum_scale(curve.b)
    roots = ev.real.copy()
    mid = 0.5 * (pair[:, 0].real + pair[:, 1].real)
    r_ends = np.abs(c * a_prime)  # |R(b_sigma)| = w_sigma A'(b_sigma)^2
    bound = NEAR_CRITICAL_GAP * np.maximum(r_ends[:-1], r_ends[1:])
    split = np.flatnonzero(complex_pair | (poly_eval(curve.r, mid) <= bound))
    judged, double = np.zeros((2, roots.size), bool)
    if split.size:
        dr = poly_der(curve.r)
        half = np.where(complex_pair, 2.0 * abs(pair[:, 0].imag), pair[:, 1].real - mid)
        zmax = bracketed_roots(lambda z: (poly_eval(dr, z), poly_eval(poly_der(dr), z)),
                               (mid - half)[split], (mid + half)[split], False, 1e-14 * scale)
        for sigma, z, rmax in zip(split, zmax, poly_eval(curve.r, zmax)):
            if rmax < -bound[sigma]:
                raise NumericalFailure(f"complex root pair in gap {sigma + 1}: R_max = {rmax:.3e}"
                                       " < 0 (near-critical or unbounded parameters)")
            at = slice(2 * sigma + 1, 2 * sigma + 3)
            roots[at], judged[at], double[at] = z, True, rmax <= bound[sigma]
    zero = curve.w <= w_tol
    live = ~judged & ~np.isin(roots, b[zero])
    roots = _polish(curve, roots, q, c, live, judged & ~double, scale)
    if not zero.any() and (roots[0] >= b[0] or np.any(roots[1:] < np.repeat(b[:-1], 2))
                           or np.any(roots[1:] > np.repeat(b[1:], 2))):
        raise NumericalFailure(f"branch points {roots} not one left of b_0 and a pair in "
                               "each spectral gap")
    if float(np.min(np.diff(roots))) < NEAR_CRITICAL_GAP * scale:
        warnings.warn("nearly coincident branch points: discriminant-locus proximity",
                      NearCriticalWarning)
    return roots


def _horner(coeffs, z: float) -> tuple:
    """p(z) and its rounding scale sum |a_k| |z|^k, by Horner on Python floats."""
    value = size = 0.0
    for a in coeffs:
        value, size = value * z + a, size * abs(z) + abs(a)
    return value, size


def _polish(curve: HyperellipticCurve, roots, q, c, live, forced, scale) -> np.ndarray:
    """Two Newton steps on each ``live`` root, on g = Q + sum c / (z - b) = -R / A or on R,
    whichever has the smaller rounding scale over |derivative|: g where the roots
    spread, R (exactly rounded coefficients) where one root lies far from the rest.
    A root that leaves its bracket (halfway to its neighbours, never past a pole),
    or is ``forced``, is solved on R in that bracket by ``bracketed_roots``."""
    poles = curve.b[c != 0.0]
    ql, dql, rl, drl = (a.tolist() for a in (q, poly_der(q), curve.r, poly_der(curve.r)))
    fractions = list(zip(poles.tolist(), c[c != 0.0].tolist()))

    def newton(z):
        try:
            (g, g_size), dg = _horner(ql, z), _horner(dql, z)[0]
            for pole, weight in fractions:
                t = weight / (z - pole)
                g, dg, g_size = g + t, dg - t / (z - pole), g_size + abs(t)
            (rz, r_size), drz = _horner(rl, z), _horner(drl, z)[0]
            return z - (rz / drz if r_size * abs(dg) < g_size * abs(drz) else g / dg)
        except ZeroDivisionError:  # on a pole or a flat g: left to the bracket
            return float("nan")

    out = roots.copy()
    for k in np.flatnonzero(live):
        out[k] = newton(newton(float(roots[k])))
    pad = np.concatenate([[2.0 * roots[0] - roots[1]], roots, [2.0 * roots[-1] - roots[-2]]])
    walls = np.concatenate([[-np.inf], poles, [np.inf]])
    k = np.searchsorted(walls, roots)
    lo = np.maximum(0.5 * (pad[:-2] + roots), walls[k - 1])
    hi = np.minimum(0.5 * (roots + pad[2:]), walls[k])
    redo = np.flatnonzero(forced | (live & ~((lo < out) & (out < hi))))
    if redo.size:  # R > 0 left of all roots and changes sign at each
        out[redo] = bracketed_roots(lambda z: (poly_eval(curve.r, z), poly_eval(drl, z)),
                                    lo[redo], hi[redo], redo % 2 == 1, 1e-14 * scale)
    return out


def branch_segments(curve: HyperellipticCurve, roots: np.ndarray | None = None) -> list:
    """The ell closed segments [z_{2i-1}, z_{2i}] (ascending, spectator excluded)."""
    if roots is None:
        roots = branch_points(curve)
    return [(float(roots[2 * i + 1]), float(roots[2 * i + 2])) for i in range(curve.ell)]


def _cosine_nodes(zlo: float, zhi: float, n: int) -> tuple:
    """Nodes z = m - r cos(theta), theta = (k + 1/2) pi / n, with z - zlo and zhi - z
    taken as 2r sin^2(theta/2) and 2r cos^2(theta/2): relatively exact at the ends."""
    m, r = 0.5 * (zlo + zhi), 0.5 * (zhi - zlo)
    half = (np.arange(n) + 0.5) * np.pi / (2 * n)
    return m - r * np.cos(2.0 * half), 2.0 * r * np.sin(half) ** 2, 2.0 * r * np.cos(half) ** 2


def sqrt_weight_quadrature(f, zlo: float, zhi: float, n: int):
    """Midpoint rule for int_zlo^zhi sqrt((z-zlo)(zhi-z)) f(z) dz via z = m - r cos(theta).

    Exact to machine precision for constant f at any n >= 1; spectrally
    convergent for smooth f.  ``f`` may return rows (last axis over the
    nodes); the result then holds one integral per row.
    """
    z, to_lo, to_hi = _cosine_nodes(zlo, zhi, n)
    return np.pi / n * np.sum(to_lo * to_hi * np.asarray(f(z)), axis=-1)


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
    """(zlo, zhi, flag, others, at_end) of segment i: R = (z-zlo)(zhi-z) prod (z - others),
    and at_end[k, sigma] marks end k (zlo, zhi) at b_sigma with w_sigma = 0."""
    if roots is None:
        roots = branch_points(curve)
    segments = branch_segments(curve, roots)
    if not 0 <= i < len(segments):
        raise ConfigError(f"segment index {i} out of range for genus {curve.ell}")
    zlo, zhi = segments[i]
    scale = spectrum_scale(curve.b)
    # the cycle doubles only where an end sits at an eigenvalue whose coupling vanishes
    at_end = ((np.abs(np.array([zlo, zhi])[:, None] - curve.b) < DOUBLING_TOL * scale)
              & (curve.w <= SINGULAR_W_TOL))
    flag = 2 if bool(np.any(at_end)) else 1
    inside = (curve.b > zlo + DOUBLING_TOL * scale) & (curve.b < zhi - DOUBLING_TOL * scale)
    if np.any(inside):
        raise NumericalFailure("an eigenvalue lies strictly inside a branch segment")
    return zlo, zhi, flag, np.delete(np.asarray(roots, float), [2 * i + 1, 2 * i + 2]), at_end


def action_integral(curve: HyperellipticCurve, i: int, tol: float = 1e-11,
                    max_nodes: int = 1 << 14, roots: np.ndarray | None = None) -> tuple:
    """(I_i, doubling flag) for the i-th branch segment (0-based, ascending).

    I_i = flag * (1/2 pi) int_seg sqrt(R(z)) / |A(z)| dz with flag = 2 exactly
    when a segment endpoint coincides with an eigenvalue whose coupling
    vanishes (w_sigma <= SINGULAR_W_TOL).  Over the weight sqrt((z-zlo)(zhi-z)) the
    integrand is sqrt(prod (z - others)) / |prod (z - b)|, where a factor z - b_sigma
    at a segment end is the exact end distance of ``_cosine_nodes``.  Nodes double
    until self-convergence below ``tol``; ``roots`` are isolated when not given.
    """
    zlo, zhi, flag, others, at_end = _segment(curve, roots, i)
    if zhi - zlo < NEAR_CRITICAL_GAP * spectrum_scale(curve.b):
        return 0.0, flag
    poles, end_pole = curve.b[~at_end.any(axis=0)], at_end.any(axis=1)

    def integrand(z):
        # prod (z - others) > 0 on the segment: an even number of the others lie above it
        ends = np.array(_cosine_nodes(zlo, zhi, z.size)[1:] if flag == 2 else (1.0, 1.0))
        den = np.prod(ends[end_pole], axis=0) * np.abs(np.prod(z[:, None] - poles, axis=1))
        return np.sqrt(np.prod(z[:, None] - others, axis=1)) / den

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
    with -q = prod (z - others) = R / ((z-zlo)(zhi-z)), so the endpoint factor is
    never formed at the rounded nodes.  The pole of a w_sigma row at b = b_sigma,
    which nears the segment as w_sigma -> 0, is split off: int_0^pi dtheta / (z-b)
    is sign(m-b) pi / sqrt((zlo-b)(zhi-b)), and the rest,
    (1/sqrt(-q) - 1/sqrt(-q(b))) / (z-b), is rewritten through the telescoping
    D = (q - q(b)) / (z-b) = -sum_k prod_{j<k} (z - e_j) prod_{j>k} (b - e_j)
    over the others e, so that nothing cancels.
    """
    zlo, zhi, flag, others, _ = _segment(curve, roots, i)
    m = 0.5 * (zlo + zhi)
    sign_a = float(np.prod(np.sign(m - curve.b)))  # sign of A on the segment
    b = curve.b[list(w_blocks)]
    c = -0.5 * a_prime_values(curve.b)[list(w_blocks), None]
    root_qb = np.sqrt(np.prod(b[:, None] - others, axis=1))[:, None]
    pole = np.sign(m - b) * np.pi / np.sqrt((zlo - b) * (zhi - b))
    after = np.cumprod(np.hstack([np.ones((b.size, 1)), b[:, None] - others[:0:-1]]),
                       axis=1)[:, ::-1]  # prod_{j>k} (b - e_j)

    def quad(n):
        z = _cosine_nodes(zlo, zhi, n)[0]
        root_q = np.sqrt(np.prod(z[:, None] - others, axis=1))
        before = np.cumprod(np.hstack([np.ones((n, 1)), z[:, None] - others[:-1]]), axis=1)
        rows = np.vstack([-np.vander(z, curve.ell).T / root_q,
                          -c * (after @ before.T) / (root_q * root_qb * (root_q + root_qb))])
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
    if float(np.min(np.diff(roots))) < 1e-6 * spectrum_scale(curve.b):
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
