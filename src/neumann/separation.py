"""Elliptical-spherical coordinates, the separated Hamiltonian, and the curve.

Coordinates u_1 <= ... <= u_ell are the roots of f(z) = sum xi_sigma^2 / (z - b_sigma),
interlacing the eigenvalues.  With A(z) = prod (z - b_sigma), U(z) = prod (z - u_i)
and conjugate momenta p_i, the motion lives on the genus-ell hyperelliptic curve

    zeta^2 = R(z) = -Q(rho; z) A(z) + Qt(b, w; z),
    Q(rho; z) = z^ell + 2 rho_1 z^{ell-1} + ... + 2 rho_ell,
    Qt(b, w; z) = - sum_sigma w_sigma A'(b_sigma) prod_{tau != sigma} (z - b_tau),

with zeta_i = 2 A(u_i) p_i, so that R(u_i) = zeta_i^2 >= 0 along real motion and
R(b_sigma) = -w_sigma A'(b_sigma)^2.  rho_1 is the energy shifted by
c = (1/2) sum b_sigma.  The sign of Qt is fixed by requiring R >= 0 between the
turning points of the actual motion (turning points are roots of R).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericalFailure, SingularStratumError
from .model import SpectrumSpec

#: |u_i - b_sigma| below this (times the spectral scale) degenerates the chart
CHART_TOL = 1e-10


class NearSingularChartWarning(UserWarning):
    """A separated coordinate approaches an eigenvalue: chart degeneracy."""


# -- exact polynomial arithmetic (coefficients highest degree first) ----------------
# Float inputs are dyadic: ``_scaled`` writes them as ints X / 2**E at one common E.
# With z weighted by 2**E, coefficient m of A, QA, Qt and R is an int N_m at scale
# 2**(m*E), built exactly and rounded once by CPython's correctly rounded N_m / 2**(m*E).

def _scaled(*groups) -> tuple:
    """(E, ints of each group): every float v of the groups as the int v * 2**E, with
    E >= 0 the smallest exponent common to all of them."""
    try:
        ratios = [[float(v).as_integer_ratio() for v in g] for g in groups]
    except (OverflowError, ValueError) as exc:
        raise ConfigError(f"curve inputs must be finite: {exc}") from exc
    e = max((d.bit_length() - 1 for g in ratios for _, d in g), default=0)
    return (e, *([n << (e + 1 - d.bit_length()) for n, d in g] for g in ratios))


def _int_from_roots(roots, poly=(1,)) -> list:
    """Coefficients of poly(z) prod (z - r) over int roots r, as ints."""
    out = list(poly)
    for r in roots:
        out = [hi - r * lo for hi, lo in zip(out + [0], [0] + out)]
    return out


def _unscaled(coeffs, e: int, first: int = 0) -> np.ndarray:
    """Floats N_m / 2**((first + m) * e), each correctly rounded."""
    return np.array([n / (1 << ((first + m) * e)) for m, n in enumerate(coeffs)])


def a_prime_values(b) -> np.ndarray:
    """A'(b_sigma) = prod_{tau != sigma} (b_sigma - b_tau) for every sigma, in floats;
    on the separated coordinates, U'(u_i)."""
    b = np.asarray(b, float)
    return np.prod(np.where(np.eye(b.size, dtype=bool), 1.0, b[:, None] - b), axis=1)


def gap_products(b, u) -> np.ndarray:
    """U(b_sigma) = prod_k (b_sigma - u_k) for every sigma (last axis), for one u or a
    stack (..., ell)."""
    u = np.atleast_1d(np.asarray(u, float))
    return np.prod(np.asarray(b, float)[:, None] - u[..., None, :], axis=-1)


def spectrum_scale(b) -> float:
    """max |b_sigma| + 1: the length that chart and curve tolerances are relative to."""
    return float(np.max(np.abs(b)) + 1.0)


def poly_from_roots(roots) -> np.ndarray:
    e, ints = _scaled(np.asarray(roots, float))
    return _unscaled(_int_from_roots(ints), e)


def poly_der(a) -> np.ndarray:
    a = np.asarray(a, float)
    n = a.size - 1
    if n == 0:
        return np.zeros(1)
    return a[:-1] * np.arange(n, 0, -1)


def poly_eval(a, z):
    """Horner evaluation; accepts scalars or arrays, real or complex z."""
    a = np.asarray(a, float)
    z = np.asarray(z)
    result = np.zeros(z.shape, dtype=np.result_type(z.dtype, float)) + a[0]
    for c in a[1:]:
        result = result * z + c
    return result


# -- one root per bracket ----------------------------------------------------------------

def bracketed_roots(fdf, lo, hi, rising, tol, *data) -> np.ndarray:
    """One root of f in each bracket (lo, hi), all brackets at once.

    ``fdf(z)`` returns (f, df) at an array of points; f(z) / df(z) is the
    Newton step, and the sign of f, which changes once in each bracket
    (from - to + where ``rising``), keeps the bracket.  f is never evaluated
    at a bracket end, so the ends may be poles.  A Newton step is taken
    only strictly inside the current bracket, otherwise the bracket is
    halved (safeguarded Newton, as in secular-equation solvers); after 50
    iterations the live brackets are only halved, so a poor slope cannot
    stall them.  A root is
    done when the Newton step or the bracket is at most ``tol``, or the
    bracket reaches float resolution; ``tol = 0`` runs to float resolution.
    Each array in ``data`` holds one row per bracket (leading axes the shape
    of the brackets); ``fdf(z, *data)`` gets the rows of the live brackets.
    """
    shape = np.broadcast(lo, hi, rising, tol).shape
    lo, hi, tol = (np.full(shape, a, float).ravel() for a in (lo, hi, tol))
    rising = np.full(shape, rising, bool).ravel()
    data = [np.reshape(d, (lo.size,) + np.shape(d)[len(shape):]) for d in data]
    idx = np.arange(lo.size)
    roots = np.empty(lo.size)
    z = 0.5 * (lo + hi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(200):
            if idx.size == 0:
                return roots.reshape(shape)
            f, df = fdf(z, *data)
            znew = z - f / df
            right = (f > 0) == rising
            lo = np.where(right, lo, z)
            hi = np.where(right, z, hi)
            mid = 0.5 * (lo + hi)
            # convergence first: a converged Newton iterate may sit on the end just moved
            done = ((f == 0) | (abs(znew - z) <= tol) | (hi - lo <= tol)
                    | (mid == lo) | (mid == hi))
            if done.any():
                # fmax/fmin drop a NaN step, so every root is finite and in its bracket
                roots[idx[done]] = np.where(f == 0, z, np.fmin(np.fmax(znew, lo), hi))[done]
                keep = ~done
                z, znew, lo, hi, mid, rising, tol, idx = (
                    a[keep] for a in (z, znew, lo, hi, mid, rising, tol, idx))
                data = [d[keep] for d in data]
            z = np.where((lo < znew) & (znew < hi), znew, mid) if it < 50 else mid
    raise NumericalFailure("bracketed Newton iteration did not converge")


# -- the curve ------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperellipticCurve:
    """zeta^2 = R(z) with R of degree 2*ell+1 and negative leading coefficient.

    ``r`` is the float coefficient list (highest degree first); ``r_exact``
    keeps the rational coefficients from the exact construction so that
    identity checks at the eigenvalues are free of evaluation rounding.
    """

    r: np.ndarray
    rho: np.ndarray
    w: np.ndarray
    b: np.ndarray
    r_exact: tuple

    def __post_init__(self):
        for name in ("r", "rho", "w", "b"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), float))

    @property
    def ell(self) -> int:
        return self.b.size - 1

    def evaluate(self, z):
        return poly_eval(self.r, z)

    def evaluate_exact(self, z: float) -> float:
        """R(z) by Horner on ``r_exact`` in rational arithmetic, rounded once."""
        acc, zf = Fraction(0), Fraction(float(z))
        for c in self.r_exact:
            acc = acc * zf + c
        return float(acc)

    def a_prime(self, sigma: int) -> float:
        return float(a_prime_values(self.b)[sigma])

    def to_dict(self) -> dict:
        return {
            "coefficients": list(self.r),
            "rho": list(self.rho),
            "w": list(self.w),
            "b": list(self.b),
        }


@lru_cache(maxsize=256)
def _qtilde_exact(b: tuple, w: tuple) -> tuple:
    """(E, N): coefficient k of Qt is N[k] / 2**((k + ell + 1) * E), with E from (b, w)."""
    e, b_int, w_int = _scaled(b, w)
    out = [0] * len(b)
    for sigma, (b_s, w_s) in enumerate(zip(b_int, w_int)):
        others = b_int[:sigma] + b_int[sigma + 1:]
        coeff = -w_s * math.prod(b_s - o for o in others)
        for k, c in enumerate(_int_from_roots(others)):
            out[k] += coeff * c
    return e, tuple(out)


def qtilde_coeffs(spec: SpectrumSpec, w) -> np.ndarray:
    """Coefficients of Qt(b, w; z) = - sum_sigma w_sigma A'(b_sigma) A(z)/(z - b_sigma)."""
    w = np.asarray(w, float)
    if w.size != len(spec.b):
        raise ConfigError("need one coupling w per block")
    e, qt = _qtilde_exact(spec.b, tuple(map(float, w)))
    return _unscaled(qt, e, len(qt))


def build_polynomials(spec: SpectrumSpec, w, rho) -> HyperellipticCurve:
    """Assemble R = -Q A + Qt by exact integer convolution (see ``_scaled``).

    R has degree 2*ell+1, leading coefficient -1, and satisfies
    R(b_sigma) = -w_sigma A'(b_sigma)^2 for every sigma.
    """
    rho = np.atleast_1d(np.asarray(rho, float))
    if rho.size != spec.ell:
        raise ConfigError(f"need {spec.ell} separation constants, got {rho.size}")
    w = np.asarray(w, float)
    e, b_int, _, rho_int = _scaled(spec.b, w, rho)
    e_qt, qt = _qtilde_exact(spec.b, tuple(map(float, w)))
    # -Q A, with Q's coefficient 2 rho_k moved from rho's scale 2**E to 2**(k*E)
    r = _int_from_roots(b_int, [-1] + [-2 * v << (k * e) for k, v in enumerate(rho_int)])
    for m, c in enumerate(qt, len(qt)):  # Qt fills the ell + 1 lowest coefficients
        r[m] += c << (m * (e - e_qt))
    return HyperellipticCurve(r=_unscaled(r, e), rho=rho, w=w, b=np.asarray(spec.b),
                              r_exact=tuple(Fraction(c, 1 << (m * e)) for m, c in enumerate(r)))


def energy_shift(spec: SpectrumSpec) -> float:
    """c = (1/2) sum b_sigma; the energy equals rho_1 + c."""
    return 0.5 * float(np.sum(spec.b))


def curve_from_energy(spec: SpectrumSpec, w, h: float, extra_rho=()) -> HyperellipticCurve:
    """Curve at energy h: rho_1 = h - c, remaining constants supplied explicitly."""
    extra = tuple(extra_rho)
    if len(extra) != max(spec.ell - 1, 0):
        raise ConfigError(f"need {spec.ell - 1} additional separation constants")
    rho = np.array([h - energy_shift(spec), *extra])
    return build_polynomials(spec, w, rho)


# -- coordinate changes ------------------------------------------------------------------

@dataclass(frozen=True)
class SeparatedState:
    u: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", np.atleast_1d(np.asarray(self.u, float)))
        object.__setattr__(self, "p", np.atleast_1d(np.asarray(self.p, float)))


def to_separated(spec: SpectrumSpec, w, xi, eta) -> SeparatedState:
    """Separated coordinates u_i (roots of f interlacing b) and momenta p_i.

    The u_i, one in each gap (b_i, b_{i+1}), come from one ``bracketed_roots``
    call: f = sum xi_sigma^2 / (z - b_sigma) falls from +inf to -inf across the
    gap and gives the sign, while the Newton steps are those of U = A f, which
    has no poles: U / U' = f / (f sum 1/(z - b) - sum xi^2/(z - b)^2).
    p_i = (1/2) sum_sigma xi_sigma eta_sigma / (u_i - b_sigma), which agrees
    with udot_i U'(u_i) / (-4 A(u_i)) along the reduced flow.  Requires every
    xi_sigma nonzero so that f keeps a pole at each eigenvalue.
    """
    xi = np.asarray(xi, float)
    eta = np.asarray(eta, float)
    b = np.asarray(spec.b)
    if np.any(xi == 0.0):
        raise SingularStratumError("separated chart needs xi_sigma != 0 for every block")
    xi2 = xi ** 2

    def fdf(z):
        inv = 1.0 / (z[:, None] - b)
        f = inv @ xi2
        return f, f * inv.sum(axis=1) - (inv * inv) @ xi2

    u = bracketed_roots(fdf, b[:-1], b[1:], False, 1e-15 * np.diff(b))
    for i in np.flatnonzero(np.minimum(u - b[:-1], b[1:] - u) < CHART_TOL * spectrum_scale(b)):
        warnings.warn(
            f"u_{i + 1} within {CHART_TOL:g}*scale of an eigenvalue: chart degenerate",
            NearSingularChartWarning,
        )
    p = np.array([
        0.5 * math.fsum(xi[s] * eta[s] / (u[i] - b[s]) for s in range(b.size))
        for i in range(spec.ell)
    ])
    return SeparatedState(u, p)


def check_interlacing(spec: SpectrumSpec, u) -> None:
    u = np.atleast_1d(np.asarray(u, float))
    b = np.asarray(spec.b)
    if u.size != spec.ell:
        raise ConfigError(f"need {spec.ell} separated coordinates")
    if np.any(u[:-1] > u[1:]) or np.any(u < b[:-1]) or np.any(u > b[1:]):
        raise ConfigError("separated coordinates must interlace the eigenvalues")


def from_separated(spec: SpectrumSpec, u) -> np.ndarray:
    """xi_sigma^2 = U(b_sigma) / A'(b_sigma); the values sum to 1 automatically."""
    check_interlacing(spec, u)
    return gap_products(spec.b, u) / a_prime_values(spec.b)


def _chart_terms(spec: SpectrumSpec, w, u) -> tuple:
    """(A(u_i), U'(u_i), Qt(u_i) / A(u_i)) from the differences u_i - b_sigma and
    u_i - u_j, with Qt / A = -sum_sigma c_sigma / (u_i - b_sigma) in partial fractions,
    c_sigma = w_sigma A'(b_sigma).  Raises SingularStratumError where the chart degenerates."""
    b = np.asarray(spec.b)
    d = u[:, None] - b
    scale = spectrum_scale(b)
    if u.size > 1 and np.min(np.diff(np.sort(u))) < CHART_TOL * scale:
        raise SingularStratumError("chart singular: repeated separated coordinates")
    if np.min(np.abs(d)) < CHART_TOL * scale:
        raise SingularStratumError("chart singular: u_i equals an eigenvalue")
    w = np.asarray(w, float)
    if w.size != b.size:
        raise ConfigError("need one coupling w per block")
    return np.prod(d, axis=1), a_prime_values(u), -(1.0 / d) @ (w * a_prime_values(b))


def hamiltonian_separated(spec: SpectrumSpec, w, u, p) -> float:
    """Energy T + V + V_w in the separated chart.

    T = -2 sum_i A(u_i) p_i^2 / U'(u_i)   (metric factor 1/g_i = -4 A/U' > 0),
    V = (1/2) sum b - (1/2) sum u,
    V_w = sum_i Qt(u_i) / (2 A(u_i) U'(u_i)).
    """
    u = np.atleast_1d(np.asarray(u, float))
    p = np.atleast_1d(np.asarray(p, float))
    a_u, u_prime, qt_a = _chart_terms(spec, w, u)
    kinetic_plus_vw = math.fsum([*(-2.0 * a_u * p ** 2 / u_prime), *(0.5 * qt_a / u_prime)])
    v = energy_shift(spec) - 0.5 * float(np.sum(u))
    return kinetic_plus_vw + v


def separation_constants(spec: SpectrumSpec, w, u, p) -> np.ndarray:
    """Constants rho from the separated one-degree-of-freedom relations.

    Each pair (u_i, p_i) pins P(u_i) = -2 A(u_i) p_i^2 - u_i^ell / 2
    + Qt(u_i) / (2 A(u_i)); interpolating P (degree ell-1) through the ell
    values yields rho = (rho_1, ..., rho_ell), with rho_1 = energy - c.
    """
    u = np.atleast_1d(np.asarray(u, float))
    p = np.atleast_1d(np.asarray(p, float))
    if u.size != spec.ell:
        raise ConfigError(f"need {spec.ell} separated coordinates")
    a_u, _, qt_a = _chart_terms(spec, w, u)
    vals = -2.0 * a_u * p ** 2 - 0.5 * u ** spec.ell + 0.5 * qt_a
    try:
        return np.linalg.solve(np.vander(u, N=spec.ell), vals)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("repeated separated coordinates: Vandermonde singular") from exc


def momentum_from_curve(curve: HyperellipticCurve, u, signs=None) -> np.ndarray:
    """|p_i| = sqrt(R(u_i)) / |2 A(u_i)| on the curve; ``signs`` picks sign(p_i)."""
    u = np.atleast_1d(np.asarray(u, float))
    signs = np.ones(u.size) if signs is None else np.asarray(signs, float)
    a_u = np.prod(u[:, None] - curve.b, axis=1)
    return signs * np.sqrt(np.maximum(curve.evaluate(u), 0.0)) / np.abs(2.0 * a_u)


# -- partial-fraction identities ------------------------------------------------------

def jacobi_identities(u, p_coeffs) -> tuple:
    """Scaled residuals of the power-sum and interpolation identities.

    For U(z) = prod (z - u_i) with distinct roots:
        sum u_i        = sum u_i^ell / U'(u_i)
        rho_1          = sum P(u_i) / U'(u_i)      (P of degree ell-1)
        1              = sum u_i^{ell-1} / U'(u_i)
    Returns the three residuals, each divided by the magnitude of the terms
    entering its sum (so values are relative).
    """
    u = np.atleast_1d(np.asarray(u, float))
    p_coeffs = np.atleast_1d(np.asarray(p_coeffs, float))
    ell = u.size
    if np.unique(u).size != ell:
        raise ConfigError("power-sum identities need distinct roots")
    uprime = a_prime_values(u)

    def scaled(target, terms):
        s = math.fsum(terms)
        scale = max(1.0, abs(target), max((abs(t) for t in terms), default=0.0))
        return abs(target - s) / scale

    r_power = scaled(math.fsum(u), [u[i] ** ell / uprime[i] for i in range(ell)])
    rho1 = p_coeffs[0] if p_coeffs.size == ell else 0.0
    r_interp = scaled(float(rho1),
                      [float(poly_eval(p_coeffs, u[i])) / uprime[i] for i in range(ell)])
    r_norm = scaled(1.0, [u[i] ** (ell - 1) / uprime[i] for i in range(ell)])
    return r_power, r_interp, r_norm
