"""The curve's exact coefficients: integer construction against the rational reference."""
import math
from fractions import Fraction

import numpy as np
import pytest

from neumann import build_polynomials, validate_spectrum
from neumann.errors import ConfigError
from neumann.model import SpectrumSpec
from neumann.separation import poly_from_roots, qtilde_coeffs

import reference

SPECTRA = {
    "unit": lambda ell: np.arange(ell + 1.0),
    "offset_1e3": lambda ell: np.arange(ell + 1.0) + 1e3,
    "decades": lambda ell: np.array([0.0, 0.1, 1.0, 10.0, 100.0, 1000.0, 1e4][:ell + 1]),
}


def _floats(coeffs) -> bytes:
    return np.array([float(c) for c in coeffs]).tobytes()


@pytest.mark.parametrize("kind", SPECTRA)
@pytest.mark.parametrize("ell", range(1, 7))
def test_r_exact_at_eigenvalues_is_minus_w_a_prime_squared(ell, kind):
    rng = np.random.default_rng(ell)
    b = SPECTRA[kind](ell)
    spec = validate_spectrum(tuple(b), (2,) * (ell + 1))
    w = rng.uniform(1e-3, 0.5, ell + 1)
    w[ell // 2] = 0.0
    curve = build_polynomials(spec, w, rng.normal(size=ell) * 10.0 ** rng.uniform(-3, 3, ell))
    bf = [Fraction(v) for v in b]
    for sigma, b_s in enumerate(bf):
        a_prime = math.prod(b_s - b_t for t, b_t in enumerate(bf) if t != sigma)
        assert reference.evaluate(curve.r_exact, b_s) == -Fraction(w[sigma]) * a_prime ** 2


def _extreme_draw(rng):
    """(b, w, rho) over genus 1..6 with offsets, wide and clustered spectra, couplings
    from subnormal to 50 and constants up to 1e+-5."""
    ell = int(rng.integers(1, 7))
    kind = int(rng.integers(4))
    if kind == 0:
        b = np.arange(ell + 1.0) + rng.choice([0.0, -30.0, 1e3, 1e6])
    elif kind == 1:
        b = np.array([0.0, 0.1, 1.0, 10.0, 100.0, 1000.0, 1e4][:ell + 1])
    elif kind == 2:
        b = np.cumsum(rng.uniform(0.3, 1.5, ell + 1)) - 1.0
        b[1] = b[0] + 1e-7
    else:
        b = np.sort(rng.normal(size=ell + 1)) * rng.choice([1e-3, 1.0, 1e3])
    w = rng.uniform(0.0, 1.0, ell + 1) * 10.0 ** rng.uniform(-12, math.log10(50.0), ell + 1)
    w[rng.random(ell + 1) < 0.2] = 0.0
    w[rng.random(ell + 1) < 0.2] = rng.choice([5e-324, 1e-310, 2.2e-308])
    rho = rng.normal(size=ell) * 10.0 ** rng.uniform(-5, 5, ell)
    return b, w, rho


def test_integer_builder_matches_fraction_reference_bitwise():
    rng = np.random.default_rng(36)
    for _ in range(300):
        b, w, rho = _extreme_draw(rng)
        spec = validate_spectrum(tuple(b), (2,) * b.size)
        curve = build_polynomials(spec, w, rho)
        exact = reference.curve(b, w, rho)
        assert curve.r_exact == tuple(exact), (b, w, rho)
        assert curve.r.tobytes() == _floats(exact), (b, w, rho)
        assert qtilde_coeffs(spec, w).tobytes() == _floats(reference.qtilde(b, w)), (b, w)
        assert poly_from_roots(b).tobytes() == _floats(reference.from_roots(b)), b


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_is_config_error(spec222, bad):
    with pytest.raises(ConfigError, match="finite"):
        SpectrumSpec((0.0, bad, 2.0), (2, 2, 2))
    with pytest.raises(ConfigError, match="finite"):
        build_polynomials(spec222, (0.1, bad, 0.2), (0.3, 0.4))
    with pytest.raises(ConfigError, match="finite"):
        build_polynomials(spec222, (0.1, 0.1, 0.2), (0.3, bad))
