"""Test-side references: slow exact constructions that library results are checked against.

The curve reference is the rational construction of R = -Q A + Qt: every float
input converted to ``Fraction``, coefficient lists convolved in ``Fraction``, and
each coefficient rounded once by ``float``.  It is what ``separation`` computed
before its integer builder, so the two must agree bit for bit.
"""
from fractions import Fraction


def _conv(a, b) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def from_roots(roots) -> list:
    """prod (z - r) over the float roots, in Fraction (highest degree first)."""
    out = [Fraction(1)]
    for r in roots:
        out = _conv(out, [Fraction(1), -Fraction(float(r))])
    return out


def qtilde(b, w) -> list:
    """Qt(b, w; z) = - sum_sigma w_sigma A'(b_sigma) prod_{tau != sigma} (z - b_tau)."""
    out = [Fraction(0)] * len(b)
    for sigma in range(len(b)):
        others = [b[t] for t in range(len(b)) if t != sigma]
        a_prime = Fraction(1)
        for o in others:
            a_prime *= Fraction(float(b[sigma])) - Fraction(float(o))
        coeff = -Fraction(float(w[sigma])) * a_prime
        for k, c in enumerate(from_roots(others)):
            out[k] += coeff * c
    return out


def curve(b, w, rho) -> list:
    """The coefficients of R = -Q A + Qt, Q = z^ell + 2 rho_1 z^{ell-1} + ... + 2 rho_ell."""
    q = [Fraction(1)] + [2 * Fraction(float(v)) for v in rho]
    r = [-c for c in _conv(q, from_roots(b))]
    qt = qtilde(b, w)
    for k, c in enumerate(qt):
        r[k + len(r) - len(qt)] += c
    return r


def evaluate(coeffs, z) -> Fraction:
    """Horner evaluation in Fraction, with no rounding."""
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * z + c
    return acc
