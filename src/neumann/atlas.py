"""Critical-value geometry: discriminant loci, boundary strata, convexity.

Critical values of the integral map are parameter points where the curve
acquires double roots.  With every coupling positive the only collisions are
within the root pairs bounding each oscillation interval; freezing k pairs
gives the corank-k stratum.  The corank-ell stratum consists of the relative
equilibria and bounds the image of the Casimir mapping at fixed energy.

Two energy-like conventions appear here.  ``h_ec`` is the Energy-Casimir
critical value sum j (omega + b / omega) shared with
dynamics.relative_equilibrium.  The boundary parameter ``h`` used by the
stratum formulas (omega^2 = h + b - 2 t_1) equals h_ec - 2 B with
B = sum b_sigma; the convexity threshold in that convention is
h* = -2 (B - b_ell) - b_0.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import relative_equilibrium
from .errors import ConfigError, NumericalFailure
from .model import SpectrumSpec
from .separation import (HyperellipticCurve, a_prime_values, build_polynomials, gap_products,
                         poly_der, poly_eval, poly_from_roots, qtilde_coeffs, spectrum_scale)

#: two roots closer than this (times scale) count as a double root
DOUBLE_ROOT_GAP = 1e-6


def convexity_threshold(spec: SpectrumSpec) -> float:
    """h* = -2 (B - b_ell) - b_0 in the boundary-parameter convention."""
    b = np.asarray(spec.b)
    return float(-2.0 * (np.sum(b) - b[-1]) - b[0])


def boundary_h_from_ec(spec: SpectrumSpec, h_ec: float) -> float:
    return h_ec - 2.0 * float(np.sum(spec.b))


def ec_from_boundary_h(spec: SpectrumSpec, h: float) -> float:
    return h + 2.0 * float(np.sum(spec.b))


# -- double-root oracle -------------------------------------------------------------

def double_root_check(curve: HyperellipticCurve, location: float,
                      gap_tol: float = DOUBLE_ROOT_GAP) -> tuple:
    """(ok, gap, location_error): does the curve have a double root at ``location``?

    Uses companion-matrix roots; a double root split by rounding appears as a
    close real or complex-conjugate pair.
    """
    roots = np.roots(curve.r)
    scale = spectrum_scale(curve.b)
    order = np.argsort(np.abs(roots - location))
    pair = roots[order[:2]]
    gap = float(np.abs(pair[0] - pair[1]))
    loc_err = float(np.abs(0.5 * (pair[0] + pair[1]) - location))
    return (gap < gap_tol * scale and loc_err < 1e-5 * scale), gap, loc_err


# -- explicit ell = 2 locus -----------------------------------------------------------

def locus_l2_closed_form(spec: SpectrumSpec, w, s: float, exponent: int) -> tuple:
    """Corank-1 locus branch for ell = 2, couplings entering as w^exponent.

    rho_1(s) = -s + (1/2) sum w^e A'(b) / (s-b)^2
    rho_2(s) = s^2/2 - sum w^e A'(b) [1/(s-b) + b / (2 (s-b)^2)]
    """
    if spec.ell != 2:
        raise ConfigError("explicit locus formula requires exactly three eigenvalue blocks")
    b = np.asarray(spec.b)
    if np.any(np.abs(s - b) == 0.0):
        raise ConfigError("locus parameter s must avoid the eigenvalues")
    we = np.asarray(w, float) ** exponent
    a_prime = a_prime_values(b)
    d = s - b
    rho1 = -s + 0.5 * float(np.sum(we * a_prime / d ** 2))
    rho2 = 0.5 * s * s - float(np.sum(we * a_prime * (1.0 / d + b / (2.0 * d ** 2))))
    return rho1, rho2


def locus_l2_exact(spec: SpectrumSpec, w, s: float) -> tuple:
    """(rho_1, rho_2) from the linear system R(s) = R'(s) = 0 (any convention typos
    in the closed form are bypassed; used as the independent cross-check)."""
    if spec.ell != 2:
        raise ConfigError("requires exactly three eigenvalue blocks")
    b = np.asarray(spec.b)
    a = poly_from_roots(b)
    qt = qtilde_coeffs(spec, w)
    a_s, da_s = float(poly_eval(a, s)), float(poly_eval(poly_der(a), s))
    qt_s, dqt_s = float(poly_eval(qt, s)), float(poly_eval(poly_der(qt), s))
    if a_s == 0.0:
        raise ConfigError("locus parameter s must avoid the eigenvalues")
    mat = np.array([[2 * s * a_s, 2 * a_s],
                    [2 * a_s + 2 * s * da_s, 2 * da_s]])
    rhs = np.array([qt_s - s * s * a_s,
                    dqt_s - 2 * s * a_s - s * s * da_s])
    rho = np.linalg.solve(mat, rhs)
    return float(rho[0]), float(rho[1])


@dataclass(frozen=True)
class LocusVariantReport:
    exponent: int
    max_gap: dict
    samples: tuple


def resolve_locus_exponent(spec: SpectrumSpec, w, s_samples=None) -> LocusVariantReport:
    """Select the coupling exponent empirically via the double-root oracle."""
    b = np.asarray(spec.b)
    if s_samples is None:
        s_samples = (0.25 * b[0] + 0.75 * b[1], 0.6 * b[1] + 0.4 * b[2])
    gaps = {1: 0.0, 2: 0.0}
    for exponent in (1, 2):
        for s in s_samples:
            rho = locus_l2_closed_form(spec, w, float(s), exponent)
            _, gap, loc_err = double_root_check(build_polynomials(spec, w, rho), float(s))
            gaps[exponent] = max(gaps[exponent], gap + loc_err)
    selected = 1 if gaps[1] <= gaps[2] else 2
    return LocusVariantReport(exponent=selected, max_gap=gaps, samples=tuple(s_samples))


def locus_l2(spec: SpectrumSpec, w, s: float) -> tuple:
    """(rho_1, rho_2) on the corank-1 branch through the double root s, couplings as w^1."""
    return locus_l2_closed_form(spec, w, s, 1)


def locus_l2_zero_lines(spec: SpectrumSpec, w, w_tol: float = 1e-12) -> list:
    """For each vanishing coupling, the line Q(b_sigma) = 0 joins the locus.

    Returned as coefficient triples (c0, c1, c2) of c0 + c1 rho_1 + c2 rho_2 = 0.
    """
    lines = []
    for sigma, ws in enumerate(np.asarray(w, float)):
        if ws <= w_tol:
            bs = float(spec.b[sigma])
            lines.append((bs ** spec.ell, 2.0 * bs ** (spec.ell - 1), 2.0))
    return lines


# -- relative-equilibrium stratum -----------------------------------------------------

@dataclass(frozen=True)
class StratumSample:
    """Corank-ell critical point: double roots s_k, single root r = beta."""

    s: np.ndarray
    r: float
    j: np.ndarray
    omega: np.ndarray
    rho: np.ndarray
    h_ec: float
    h_boundary: float

    @property
    def w(self) -> np.ndarray:
        return self.j ** 2


def _boundary_j(b: np.ndarray, s, r) -> tuple:
    """(j, omega) on the corank-ell stratum: omega = sqrt(b - r) and
    j = omega prod_k (b - s_k) / A'(b), for one (s, r) or stacks (..., ell), (...)."""
    omega = np.sqrt(b - np.asarray(r, float)[..., None])
    return omega * gap_products(b, s) / a_prime_values(b), omega


def equilibrium_stratum(spec: SpectrumSpec, s, r: float) -> StratumSample:
    """Relative equilibrium with frozen coordinates s_k and spectator root r.

    j_sigma = sqrt(b_sigma - r) prod_k (b_sigma - s_k) / A'(b_sigma), r = beta; rho is the
    float quotient of P = -R = (z - r) prod (z - s_k)^2 by A in powers of z - mean(b) (raw
    monomials lose a wide spectrum's digits), its remainder -Qt checked at the eigenvalues.
    """
    s = np.atleast_1d(np.asarray(s, float))
    b = np.asarray(spec.b)
    if s.size != spec.ell:
        raise ConfigError(f"need {spec.ell} frozen coordinates")
    if np.any(s < b[:-1]) or np.any(s > b[1:]):
        raise ConfigError("frozen coordinates must interlace the eigenvalues")
    if np.any(b - r < 0.0):
        raise ConfigError("spectator root r must satisfy r <= b_sigma")
    j, omega = _boundary_j(b, s, r)
    # Laurent series of P / A = prod (z - s_k) prod (1 + d_sigma / (z - b_sigma)), d = b - (r, s)
    bbar, ell = float(np.mean(b)), spec.ell
    laurent = np.r_[1.0, np.zeros(ell)]
    for d_sigma, x_sigma in zip(b - np.r_[r, s], b - bbar):
        laurent = np.convolve(laurent, np.r_[1.0, d_sigma * x_sigma ** np.arange(ell)])[:ell + 1]
    q = np.convolve(np.poly(s - bbar), laurent)[:ell + 1]
    for k in range(1, ell + 1):  # Taylor shift to powers of z
        q[1:k + 1] -= bbar * q[:k]
    qt = qtilde_coeffs(spec, j ** 2)
    mismatch = (b - r) * gap_products(b, s) ** 2 + poly_eval(qt, b)  # P(b) + Qt(b)
    if np.max(np.abs(mismatch)) > 1e-12 * np.max(poly_eval(np.abs(qt), np.abs(b))):
        raise NumericalFailure("stratum construction inconsistent: remainder at the eigenvalues")
    rho = q[1:] / 2.0
    h_boundary = float(-2.0 * np.sum(s) - r)
    h_ec = float(np.sum(j * (omega + b / omega)))
    return StratumSample(s=s, r=float(r), j=j, omega=omega, rho=rho,
                         h_ec=h_ec, h_boundary=h_boundary)


def equilibrium_stratum_at_energy(spec: SpectrumSpec, h: float, s) -> StratumSample:
    """Stratum sample on the fixed-energy boundary (h in the boundary convention)."""
    r = -h - 2.0 * float(np.sum(s))
    return equilibrium_stratum(spec, s, r)


# -- convexity of the Casimir-image boundary ------------------------------------------

@dataclass
class BoundaryReport:
    h: float
    h_star: float
    threshold_met: bool
    margin: float
    samples_s: np.ndarray = field(default=None)
    samples_j: np.ndarray = field(default=None)
    omegas: np.ndarray = field(default=None)
    p_values: np.ndarray = field(default=None)
    o_values: np.ndarray = field(default=None)
    grad_max_err: float = np.nan
    hessian_second_eig_ratio: float = np.nan
    eigvec_max_err: float = np.nan
    hessian_form_max_diff: float = np.nan
    midpoint_pairs: int = 0
    midpoint_violations: int = 0
    midpoint_max_slack: float = np.nan
    convex_verdict: bool = False


def p_factor(spec: SpectrumSpec, h: float, s):
    """P = prod_i (h + s_i + 2 S), S = sum s_i, for one s or a stack (..., ell);
    positive above the threshold."""
    s = np.atleast_1d(np.asarray(s, float))
    return np.prod(h + s + 2.0 * np.sum(s, axis=-1, keepdims=True), axis=-1)


def convexity_check(spec: SpectrumSpec, h: float, n_samples: int = 64,
                    seed: int = 0, n_pairs: int = 200,
                    fd_rel: float = 1e-6) -> BoundaryReport:
    """Verify the convexity apparatus on the fixed-energy boundary.

    Per sample: gradient of the critical value equals 2 omega (finite
    differences through relative_equilibrium), the Hessian
    2 (O/P) / (omega_s omega_t) is rank one and positive with eigenvector
    proportional to 1/omega, and midpoint convexity holds over sampled pairs.
    Every critical value comes from one of two stacked relative_equilibrium calls.
    """
    h_star = convexity_threshold(spec)
    report = BoundaryReport(h=h, h_star=h_star, threshold_met=h > h_star,
                            margin=h - h_star)
    if not report.threshold_met:
        return report
    rng = np.random.default_rng(seed)
    b = np.asarray(spec.b)
    lo, hi = b[:-1] + 0.01 * np.diff(b), b[1:] - 0.01 * np.diff(b)
    svals = lo + (hi - lo) * rng.random((n_samples, spec.ell))
    ell1 = spec.ell + 1
    js, oms = _boundary_j(b, svals, -h - 2.0 * np.sum(svals, axis=1))
    pvals = p_factor(spec, h, svals)
    ovals = np.prod(oms ** 2, axis=1)

    # centred differences: row (k, sigma) moves j_sigma of sample k by +-step
    step = fd_rel * np.maximum(1.0, js)
    shift = np.eye(ell1) * step[:, :, None]
    h_fd = relative_equilibrium(spec, np.concatenate(
        [js[:, None, :] + shift, js[:, None, :] - shift]).reshape(-1, ell1)).h
    hp, hm = h_fd.reshape(2, n_samples, ell1)
    grad_fd = (hp - hm) / (2 * step)
    grad_err = np.max(np.abs(grad_fd - 2.0 * oms) / np.maximum(1.0, 2.0 * oms), initial=0.0)

    outer = oms[:, :, None] * oms[:, None, :]
    hess = 2.0 * (ovals / pvals)[:, None, None] / outer
    denom = np.sum(js / oms ** 3, axis=1)
    hess_eq = 2.0 / outer / denom[:, None, None]
    form_diff = np.max(np.max(np.abs(hess - hess_eq), axis=(1, 2))
                       / np.maximum(1.0, np.max(np.abs(hess), axis=(1, 2))), initial=0.0)
    eig, vec = np.linalg.eigh(hess)
    second_ratio = np.max(np.max(np.abs(eig[:, :-1]), axis=1) / eig[:, -1], initial=0.0)
    inv = 1.0 / oms
    # |1/omega| by matmul, which sums like the dot product of a single norm
    ref = inv / np.sqrt(inv[:, None, :] @ inv[:, :, None])[:, 0]
    eigvec_err = np.max(np.minimum(np.max(np.abs(vec[:, :, -1] - ref), axis=1),
                                   np.max(np.abs(vec[:, :, -1] + ref), axis=1)), initial=0.0)

    pairs = rng.integers(0, n_samples, size=(n_pairs, 2))
    ja, jb = js[pairs[:, 0]], js[pairs[:, 1]]
    h_mid, h_a, h_b = relative_equilibrium(
        spec, np.concatenate([0.5 * (ja + jb), ja, jb])).h.reshape(3, n_pairs)
    slack = h_mid - 0.5 * (h_a + h_b)
    violations = int(np.sum(slack > 1e-9))

    report.samples_s = svals
    report.samples_j = js
    report.omegas = oms
    report.p_values = pvals
    report.o_values = ovals
    report.grad_max_err = float(grad_err)
    report.hessian_second_eig_ratio = float(second_ratio)
    report.eigvec_max_err = float(eigvec_err)
    report.hessian_form_max_diff = float(form_diff)
    report.midpoint_pairs = n_pairs
    report.midpoint_violations = violations
    report.midpoint_max_slack = float(np.max(slack, initial=-np.inf))
    report.convex_verdict = (violations == 0 and bool(np.all(pvals > 0.0)))
    return report


# -- polyhedron limit --------------------------------------------------------------------

@dataclass(frozen=True)
class PolyhedronReport:
    h_values: np.ndarray
    deviations: np.ndarray
    samples_s: np.ndarray
    rescaled_j: np.ndarray
    model_j: np.ndarray
    ruled_second_diff: float


def polyhedron_model(spec: SpectrumSpec, s) -> np.ndarray:
    """Limit boundary j_sigma = prod_k (b_sigma - s_k) / A'(b_sigma) (omega -> 1)."""
    return gap_products(spec.b, s) / a_prime_values(spec.b)


def polyhedron_limit(spec: SpectrumSpec, h_values, n_samples: int = 101) -> PolyhedronReport:
    """Rescale the boundary by 1/sqrt(h) and compare with the linear model.

    The same deterministic s-grid is used at every h so deviations are
    directly comparable; they shrink like 1/h.  On the boundary
    j = sqrt(b - r) * polyhedron_model(s) with spectator root r = -h - 2 sum s,
    in closed form for every sample and energy at once.  For ell = 2 the
    report also carries the largest second difference of j along the last
    symmetric parameter (ruled-surface check; exact linearity up to rounding).
    """
    b = np.asarray(spec.b)
    h_values = np.asarray(h_values, float)
    h_star = convexity_threshold(spec)
    if np.any(h_values <= h_star):
        raise ConfigError("polyhedron limit needs every h above the convexity threshold")
    grids = [np.linspace(b[k] + 0.01 * (b[k + 1] - b[k]), b[k + 1] - 0.01 * (b[k + 1] - b[k]),
                         n_samples) for k in range(spec.ell)]
    svals = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, spec.ell) \
        if spec.ell > 1 else grids[0][:, None]
    if svals.shape[0] > 4096:
        svals = svals[:: max(1, svals.shape[0] // 4096)]
    model = polyhedron_model(spec, svals)
    j, _ = _boundary_j(b, svals, -h_values[:, None] - 2.0 * np.sum(svals, axis=1))
    rescaled = j / np.sqrt(h_values)[:, None, None]
    devs = np.max(np.abs(rescaled - model), axis=(1, 2))

    ruled = 0.0
    if spec.ell == 2:
        h = float(h_values[-1])
        mid = 0.5 * (b[:-1] + b[1:])
        t1 = -float(np.sum(mid))
        t2_mid = float(np.prod(mid))
        t2_grid = np.linspace(0.9 * t2_mid, 1.1 * t2_mid, 21)
        omega = np.sqrt(h + b - 2.0 * t1)
        jline = omega * (b ** 2 + t1 * b + t2_grid[:, None]) / a_prime_values(b)
        second = np.abs(jline[2:] - 2 * jline[1:-1] + jline[:-2])
        ruled = float(np.max(second))
    return PolyhedronReport(h_values=h_values, deviations=devs, samples_s=svals,
                            rescaled_j=rescaled, model_j=model,
                            ruled_second_diff=ruled)
