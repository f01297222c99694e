import math
from fractions import Fraction

import numpy as np
import pytest

from neumann import (build_polynomials, from_separated, hamiltonian_separated,
                     jacobi_identities, reduced_hamiltonian, separation_constants,
                     to_separated)
from neumann.errors import ConfigError, SingularStratumError
from neumann.model import validate_spectrum
from neumann.reduction import integrate_reduced
from neumann.separation import (NearSingularChartWarning, bracketed_roots, energy_shift,
                                momentum_from_curve, poly_eval, poly_from_roots,
                                qtilde_coeffs)

from conftest import random_regular_reduced


def test_build_polynomials_l1_closed_form(spec22):
    # R = -(z + 2 rho1) z (z-1) + Qt with Qt = (w0 - w1) z - w0 here
    rho1 = 0.37
    w = (0.25, 0.25)
    curve = build_polynomials(spec22, w, [rho1])
    expect = np.array([-1.0, 1 - 2 * rho1, 2 * rho1 + (w[0] - w[1]), -w[0]])
    assert np.allclose(curve.r, expect, atol=1e-15)
    # degree and leading coefficient
    assert curve.r.size == 2 * spec22.ell + 2
    assert curve.r[0] == -1.0


def test_qtilde_collapses_to_constant_for_equal_w(spec22):
    qt = qtilde_coeffs(spec22, (0.25, 0.25))
    assert np.allclose(qt, [0.0, -0.25], atol=1e-16)


def test_curve_value_at_eigenvalues_random(rng):
    # R(b_sigma) = -w_sigma A'(b_sigma)^2, by coefficient arithmetic
    for _ in range(50):
        ell = int(rng.integers(1, 7))
        gaps = 0.4 + 0.4 * rng.random(ell)
        b = np.sort(rng.normal() * 0.5 + np.concatenate([[0.0], np.cumsum(gaps)]))
        spec = validate_spectrum(tuple(b), (2,) * (ell + 1))
        w = 0.1 + rng.random(ell + 1)
        rho = rng.normal(size=ell)
        curve = build_polynomials(spec, w, rho)
        for sigma in range(ell + 1):
            a_prime = curve.a_prime(sigma)
            # exact coefficient arithmetic: identity at machine precision
            val = curve.evaluate_exact(b[sigma])
            assert val == pytest.approx(-w[sigma] * a_prime ** 2, rel=1e-13)
            # the rounded float coefficient list stays conditioning-accurate
            val_f = float(curve.evaluate(b[sigma]))
            cond = float(np.sum(np.abs(curve.r) * max(1.0, abs(b[sigma]))
                                ** np.arange(curve.r.size - 1, -1, -1)))
            assert abs(val_f + w[sigma] * a_prime ** 2) < 100 * 1.1e-16 * cond


def test_curve_with_zero_couplings_has_eigenvalue_roots(spec22):
    curve = build_polynomials(spec22, (0.0, 0.0), [0.2])
    for b in spec22.b:
        assert abs(float(curve.evaluate(b))) < 1e-14
    # w = 0 reduces R to -QA
    a = poly_from_roots(spec22.b)
    q = np.array([1.0, 2 * 0.2])
    assert np.allclose(curve.r, -np.convolve(q, a), atol=1e-15)


def test_to_separated_l1_closed_form(spec22):
    xi = np.array([2 ** -0.5, 2 ** -0.5])
    st = to_separated(spec22, (0.25, 0.25), xi, np.zeros(2))
    assert st.u[0] == pytest.approx(0.5, abs=1e-13)
    assert st.p[0] == pytest.approx(0.0, abs=1e-15)

    rng = np.random.default_rng(5)
    for _ in range(20):
        xi2 = rng.random(2) + 0.05
        xi2 /= xi2.sum()
        xi = np.sqrt(xi2)
        st = to_separated(spec22, (0.1, 0.1), xi, np.zeros(2))
        # u = xi0^2 b1 + xi1^2 b0 in closed form
        assert st.u[0] == pytest.approx(xi2[0] * 1.0, rel=1e-12)


def test_separated_roundtrip(spec212, rng):
    spec6 = validate_spectrum(tuple(float(k) for k in range(7)), (2,) * 7)
    for spec in (spec212, spec6):
        for _ in range(30):
            rc = random_regular_reduced(spec, rng)
            st = to_separated(spec, rc.w, rc.xi, rc.eta)
            xi2 = from_separated(spec, st.u)
            assert np.allclose(xi2, rc.xi ** 2, atol=1e-10)
            assert np.sum(xi2) == pytest.approx(1.0, abs=1e-14)
            assert np.all(xi2 >= 0)


def _newton_calls(fdf):
    """fdf that also records every point it is evaluated at."""
    seen = []

    def wrapped(z):
        seen.append(np.array(z))
        return fdf(z)
    return wrapped, seen


def test_bracketed_roots_rising_and_falling():
    # sin has a rising root at 0 and falling roots at pi and 3 pi in these brackets
    fdf, seen = _newton_calls(lambda z: (np.sin(z), np.cos(z)))
    roots = bracketed_roots(fdf, [-1.0, 2.0, 8.0], [1.5, 4.0, 11.0], [True, False, False],
                            1e-15)
    assert roots == pytest.approx([0.0, np.pi, 3 * np.pi], abs=4e-15)
    assert len(seen) <= 10


def test_bracketed_roots_poles_at_both_ends(rng):
    # f = sum xi^2 / (z - b) has poles at every bracket end; its roots are those of
    # U = sum_sigma xi_sigma^2 prod_{tau != sigma} (z - b_tau)
    b = np.array([0.0, 0.4, 1.1, 2.0, 2.3])
    for _ in range(10):
        xi2 = rng.random(b.size) + 1e-3
        u_poly = sum(x * poly_from_roots(np.delete(b, k)) for k, x in enumerate(xi2))
        expect = np.sort(np.roots(u_poly).real)

        def fdf(z):
            d = z[:, None] - b
            return np.sum(xi2 / d, axis=1), -np.sum(xi2 / d ** 2, axis=1)
        fdf, seen = _newton_calls(fdf)
        roots = bracketed_roots(fdf, b[:-1], b[1:], False, 1e-15)
        assert roots == pytest.approx(expect, abs=1e-12)
        assert np.all(np.concatenate(seen)[:, None] != b)


def test_bracketed_roots_zero_tolerance_stops_at_float_resolution():
    roots = bracketed_roots(lambda z: (z * z - 2.0, 2.0 * z), [0.0, -3.0], [3.0, 0.0],
                            [True, False], 0.0)
    assert roots == pytest.approx([np.sqrt(2.0), -np.sqrt(2.0)], rel=2.3e-16)


def test_bracketed_roots_survive_newton_cycle():
    # unguarded Newton on z^3 - 2z + 2 from 0 cycles 0 -> 1 -> 0
    fdf = lambda z: (z ** 3 - 2.0 * z + 2.0, 3.0 * z ** 2 - 2.0)
    newton = lambda z: z - fdf(z)[0] / fdf(z)[1]
    assert newton(0.0) == 1.0 and newton(1.0) == 0.0
    root = bracketed_roots(fdf, -3.0, 2.0, True, 1e-15)
    expect = np.roots([1.0, 0.0, -2.0, 2.0])
    assert root == pytest.approx(expect[np.abs(expect.imag) < 1e-12].real[0], abs=1e-14)


def test_bracketed_roots_never_step_onto_an_end():
    # from the midpoint 1 the first Newton step lands exactly on the end 0, a
    # pole in the callers' use; it must be rejected, not evaluated
    fdf, seen = _newton_calls(lambda z: (np.log(z) - np.log(0.5), np.log(z) - np.log(0.5)))
    root = bracketed_roots(fdf, 0.0, 2.0, True, 1e-15)
    assert root == pytest.approx(0.5, abs=1e-15)
    seen = np.concatenate(seen)
    assert np.all((seen > 0.0) & (seen < 2.0))


def test_bracketed_roots_zero_derivative_falls_back():
    # a callback whose derivative is 0 gives no Newton step: bisection must still
    # return a finite root
    for df in (np.zeros_like, lambda z: np.full_like(z, np.nan)):
        root = bracketed_roots(lambda z: (z - 0.3, df(z)), 0.0, 1.0, True, 1e-13)
        assert np.isfinite(root)
        assert root == pytest.approx(0.3, abs=1e-13)


def test_bracketed_roots_per_bracket_data():
    # root c^(1/p) of z^p - c, with c and p per bracket; the brackets finish at
    # different iterations, so the data must be compacted with them
    c = np.array([[2.0, 1e-6, 30.0], [0.5, 7.0, 1e3]])
    p = np.array([[2.0, 3.0, 5.0], [2.0, 4.0, 3.0]])
    coef = np.stack([c, p], axis=-1)
    live = []

    def fdf(z, coef):
        assert coef.shape == (z.size, 2)
        live.append(z.size)
        c, p = coef.T
        return z ** p - c, p * z ** (p - 1)
    roots = bracketed_roots(fdf, 0.0, np.maximum(1.0, c), True, 0.0, coef)
    assert roots.shape == c.shape
    assert roots == pytest.approx(c ** (1.0 / p), rel=4.5e-16)
    assert len(set(live)) >= 3


def test_bracketed_roots_terminate_on_poor_slopes():
    # Newton creeps on a root of multiplicity 51 and under a slope 1e3 times too
    # steep; after 50 iterations the brackets are only halved
    for fdf, tol in (((lambda z: ((z - 0.3) ** 51, 51.0 * (z - 0.3) ** 50)), 1e-6),
                     ((lambda z: (z - 0.3, np.full_like(z, 1e3))), 1e-9)):
        fdf, seen = _newton_calls(fdf)
        assert bracketed_roots(fdf, 0.0, 1.0, True, 1e-12) == pytest.approx(0.3, abs=tol)
        assert len(seen) < 100


def _exact_rho(b, w, u, p):
    """rho solved in rational arithmetic from the float (b, w, u, p): the values
    P(u_i) with Qt / A = -sum w_sigma A'(b_sigma) / (u_i - b_sigma), then the
    Vandermonde system by Gauss-Jordan elimination, rounded once at the end."""
    b, w, u, p = ([Fraction(float(x)) for x in v] for v in (b, w, u, p))
    ell = len(u)
    c = [w[s] * math.prod(b[s] - bt for t, bt in enumerate(b) if t != s)
         for s in range(len(b))]
    rows = []
    for ui, pi in zip(u, p):
        a_u = math.prod(ui - bs for bs in b)
        qt_a = -sum(cs / (ui - bs) for cs, bs in zip(c, b))
        rows.append([ui ** (ell - 1 - k) for k in range(ell)]
                    + [-2 * a_u * pi ** 2 - ui ** ell / 2 + qt_a / 2])
    for col in range(ell):
        for r in range(ell):
            if r != col:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return np.array([float(rows[k][ell] / rows[k][k]) for k in range(ell)])


@pytest.mark.parametrize("b", [(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
                               (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 100.0)])
def test_separation_constants_match_exact_rho(b):
    # Qt / A in partial fractions keeps rho near the exact solve; monomial Qt,
    # evaluated at u, loses digits to cancellation (1.6e-11 on the second spectrum)
    spec = validate_spectrum(b, (2,) * len(b))
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        rc = random_regular_reduced(spec, rng)
        while np.min(rc.w) < 1e-3:
            rc = random_regular_reduced(spec, rng)
        st = to_separated(spec, rc.w, rc.xi, rc.eta)
        exact = _exact_rho(spec.b, rc.w, st.u, st.p)
        rho = separation_constants(spec, rc.w, st.u, st.p)
        worst = max(worst, np.max(np.abs(rho - exact)) / max(1.0, np.max(np.abs(exact))))
    assert worst < 1e-12


def test_from_separated_examples(spec22):
    xi2 = from_separated(spec22, [0.5])
    assert np.allclose(xi2, 0.5)
    # touching a coordinate hyperplane
    xi2 = from_separated(spec22, [1.0])
    assert xi2[1] == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ConfigError):
        from_separated(spec22, [1.5])


def test_from_separated_random_interlacing(rng):
    spec = validate_spectrum((0.0, 0.7, 1.3, 2.9), (2, 2, 2, 2))
    b = np.asarray(spec.b)
    for _ in range(50):
        u = b[:-1] + rng.random(3) * np.diff(b)
        xi2 = from_separated(spec, np.sort(u))
        assert np.all(xi2 >= 0)
        assert math.fsum(xi2) == pytest.approx(1.0, abs=1e-14)


def test_energy_match_through_separation(spec22, spec212, rng):
    for spec in (spec22, spec212):
        for _ in range(50):
            rc = random_regular_reduced(spec, rng)
            st = to_separated(spec, rc.w, rc.xi, rc.eta)
            h_sep = hamiltonian_separated(spec, rc.w, st.u, st.p)
            h_red = reduced_hamiltonian(spec, rc.w, rc.xi, rc.eta)
            assert h_sep == pytest.approx(h_red, rel=1e-10)


def test_hamiltonian_separated_hand_value(spec22):
    # w = 0, u = 1/2, p = 0: energy is the pure potential value 1/4
    assert hamiltonian_separated(spec22, (0.0, 0.0), [0.5], [0.0]) == pytest.approx(0.25)


def test_metric_positivity(rng):
    spec = validate_spectrum((0.0, 1.0, 2.5), (2, 2, 2))
    b = np.asarray(spec.b)
    for _ in range(100):
        u = np.sort(b[:-1] + rng.random(2) * np.diff(b) * 0.98 + 0.01 * np.diff(b))
        for i in range(2):
            a_u = np.prod(u[i] - b)
            u_prime = np.prod(u[i] - np.delete(u, i))
            assert -4 * a_u / u_prime > 0


def test_separation_constants_curve_membership(spec212, rng):
    for _ in range(20):
        rc = random_regular_reduced(spec212, rng)
        st = to_separated(spec212, rc.w, rc.xi, rc.eta)
        rho = separation_constants(spec212, rc.w, st.u, st.p)
        curve = build_polynomials(spec212, rc.w, rho)
        for i in range(spec212.ell):
            a_u = np.prod(st.u[i] - np.asarray(spec212.b))
            zeta_sq = (2 * a_u * st.p[i]) ** 2
            assert float(curve.evaluate(st.u[i])) == pytest.approx(
                zeta_sq, rel=1e-9, abs=1e-9)
        # energy recovery through rho_1
        h = rho[0] + energy_shift(spec212)
        assert h == pytest.approx(hamiltonian_separated(spec212, rc.w, st.u, st.p),
                                  rel=1e-10)


def test_turning_points_are_branch_points(spec22, rng):
    # p = 0 makes each u_i a root of the curve
    for _ in range(10):
        rc = random_regular_reduced(spec22, rng)
        st = to_separated(spec22, rc.w, rc.xi, np.zeros(2))
        rho = separation_constants(spec22, rc.w, st.u, np.zeros(1))
        curve = build_polynomials(spec22, rc.w, rho)
        assert abs(float(curve.evaluate(st.u[0]))) < 1e-12


def test_momentum_from_curve_roundtrip(spec22, rng):
    for _ in range(10):
        rc = random_regular_reduced(spec22, rng)
        st = to_separated(spec22, rc.w, rc.xi, rc.eta)
        rho = separation_constants(spec22, rc.w, st.u, st.p)
        curve = build_polynomials(spec22, rc.w, rho)
        p_back = momentum_from_curve(curve, st.u, signs=np.sign(st.p))
        assert np.allclose(p_back, st.p, atol=1e-8)


def test_curve_invariant_along_flow(spec22, rng):
    rc = random_regular_reduced(spec22, rng)
    rho0 = None
    traj = integrate_reduced(spec22, rc.w, rc.xi, rc.eta, t_end=50.0, dt=5e-4,
                             save_every=4000)
    for k in range(traj.t.size):
        st = to_separated(spec22, rc.w, traj.xi[k], traj.eta[k])
        rho = separation_constants(spec22, rc.w, st.u, st.p)
        if rho0 is None:
            rho0 = rho
        assert np.max(np.abs(rho - rho0)) < 1e-8


def test_interlacing_preserved_along_flow(spec212, rng):
    b = np.asarray(spec212.b)
    for _ in range(3):
        rc = random_regular_reduced(spec212, rng)
        if np.any(rc.w < 1e-4):  # keep strictly regular for this check
            continue
        traj = integrate_reduced(spec212, rc.w, rc.xi, rc.eta, t_end=20.0, dt=1e-3,
                                 save_every=500)
        for k in range(traj.t.size):
            st = to_separated(spec212, rc.w, traj.xi[k], traj.eta[k])
            assert np.all(st.u > b[:-1]) and np.all(st.u < b[1:])


def test_chart_degeneracy_warning(spec22):
    xi = np.array([1e-11, 1.0])
    xi /= np.linalg.norm(xi)
    with pytest.warns(NearSingularChartWarning):
        to_separated(spec22, (0.0, 0.0), xi, np.zeros(2))


def test_to_separated_rejects_zero_xi(spec22):
    with pytest.raises(SingularStratumError):
        to_separated(spec22, (0.0, 0.25), np.array([0.0, 1.0]), np.zeros(2))


def test_hamiltonian_separated_chart_errors(spec212):
    with pytest.raises(SingularStratumError):
        hamiltonian_separated(spec212, (0.1, 0.0, 0.1), [1.0, 1.5], [0.0, 0.0])
    with pytest.raises(SingularStratumError):
        hamiltonian_separated(spec212, (0.1, 0.0, 0.1), [0.5, 0.5], [0.0, 0.0])


def test_chart_rejects_wrong_number_of_couplings(spec212):
    # a single w would broadcast over the blocks without the check
    for w in ((0.1,), (0.1, 0.2)):
        with pytest.raises(ConfigError, match="one coupling w per block"):
            hamiltonian_separated(spec212, w, [0.5, 1.5], [0.0, 0.0])
        with pytest.raises(ConfigError, match="one coupling w per block"):
            separation_constants(spec212, w, [0.5, 1.5], [0.0, 0.0])


def test_jacobi_identities_hand_case():
    # U = (z-1)(z-2): power sum 1/(-1) + 4/1 = 3 = 1 + 2; linear sum -1 + 2 = 1
    r_power, r_interp, r_norm = jacobi_identities([1.0, 2.0], [1.0, 0.0])
    assert r_power < 1e-15
    assert r_norm < 1e-15
    # rho_1 = 1: P(z) = z: sum P(u)/U' = 1/(-1) + 2/1 = 1
    assert r_interp < 1e-15


def test_jacobi_identities_random(rng):
    for _ in range(200):
        ell = int(rng.integers(1, 7))
        u = np.sort(rng.normal(size=ell) * 2)
        if ell > 1 and np.min(np.diff(u)) < 1e-3:
            continue
        coeffs = rng.normal(size=ell)
        r_power, r_interp, r_norm = jacobi_identities(u, coeffs)
        assert r_power < 1e-12
        assert r_interp < 1e-12
        assert r_norm < 1e-12


def test_jacobi_identity_contour_oracle(rng):
    # residue evaluation of (1/2 pi i) oint z^ell / U(z) dz on a large circle
    for _ in range(10):
        ell = int(rng.integers(2, 5))
        u = np.sort(rng.normal(size=ell))
        if np.min(np.diff(u)) < 0.05:
            continue
        radius = 10.0 * (1 + np.max(np.abs(u)))
        n = 4096
        theta = 2 * np.pi * (np.arange(n) + 0.5) / n
        z = radius * np.exp(1j * theta)
        upoly = poly_from_roots(u)
        vals = z ** ell / poly_eval(upoly, z)
        # contour integral = (1/2 pi i) oint = mean of z * integrand over the circle
        contour = np.mean(z * vals).real
        assert contour == pytest.approx(np.sum(u), rel=1e-10, abs=1e-10)
