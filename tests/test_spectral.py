import warnings
from fractions import Fraction

import numpy as np
import pytest

from neumann import (build_polynomials, curve_from_energy, measure_period,
                     momentum_map, period_lattice, separation_constants,
                     to_separated, trivial_action_residue, validate_spectrum)
from neumann.errors import ConfigError, NumericalFailure
from neumann.separation import a_prime_values, energy_shift
from neumann.spectral import (NearCriticalWarning, _bordered_matrix, action_integral,
                              action_integrals, branch_points, branch_segments,
                              sqrt_weight_quadrature)

from conftest import random_regular_reduced


def reference_curve(spec22, h=0.9):
    return curve_from_energy(spec22, (0.25, 0.25), h)


def test_branch_points_l1_structure(spec22):
    curve = reference_curve(spec22)
    roots = branch_points(curve)
    assert roots.size == 3
    assert roots[0] < 0 < roots[1] <= roots[2] < 1
    # agreement with the companion-matrix oracle
    oracle = np.sort(np.roots(curve.r).real)
    assert np.allclose(roots, oracle, atol=1e-10)


def test_branch_points_match_companion_oracle(spec222, rng):
    for _ in range(10):
        rc = random_regular_reduced(spec222, rng)
        if np.any(rc.w < 1e-3):
            continue
        st = to_separated(spec222, rc.w, rc.xi, rc.eta)
        rho = separation_constants(spec222, rc.w, st.u, st.p)
        curve = build_polynomials(spec222, rc.w, rho)
        roots = branch_points(curve)
        oracle = np.roots(curve.r)
        assert np.max(np.abs(oracle.imag)) < 1e-8
        assert np.allclose(roots, np.sort(oracle.real), atol=1e-8)
        # the separated coordinates oscillate inside their segments
        for i, (zlo, zhi) in enumerate(branch_segments(curve, roots)):
            assert zlo - 1e-10 <= st.u[i] <= zhi + 1e-10


def test_branch_points_zero_coupling(spec22):
    curve = build_polynomials(spec22, (0.0, 0.0), [0.2])
    roots = branch_points(curve)
    for b in spec22.b:
        assert np.min(np.abs(roots - b)) < 1e-12


def test_branch_points_near_double_warns(spec22):
    # relative equilibrium collapses the segment: construct nearby curve
    from neumann.dynamics import relative_equilibrium
    eq = relative_equilibrium(spec22, [0.5, 0.5])
    h = eq.energy + 1e-12
    curve = curve_from_energy(spec22, eq.j ** 2, h)
    with pytest.warns(NearCriticalWarning):
        branch_points(curve)


def test_branch_points_complex_pair_error(spec22):
    # energy below the equilibrium energy: no real motion, pair goes complex
    from neumann.dynamics import relative_equilibrium
    eq = relative_equilibrium(spec22, [0.5, 0.5])
    curve = curve_from_energy(spec22, eq.j ** 2, eq.energy - 0.05)
    with pytest.raises(NumericalFailure):
        branch_points(curve)


def test_quadrature_exact_for_pure_sqrt_weight():
    for (a, b) in [(-1.0, 1.0), (0.3, 2.7)]:
        exact = np.pi * ((b - a) / 2) ** 2 / 2
        for n in (2, 8, 64):
            val = sqrt_weight_quadrature(lambda z: np.ones_like(z), a, b, n)
            assert val == pytest.approx(exact, rel=1e-15)
            # a two-row integrand gives one integral per row
            rows = sqrt_weight_quadrature(lambda z: np.vstack([np.ones_like(z),
                                                               -3.0 * np.ones_like(z)]),
                                          a, b, n)
            assert rows.shape == (2,)
            assert rows == pytest.approx([exact, -3.0 * exact], rel=1e-15)


def test_action_integral_convergence_and_positivity(spec22):
    curve = reference_curve(spec22)
    i1, flag = action_integral(curve, 0)
    assert flag == 1
    assert i1 > 0
    i1_tight, _ = action_integral(curve, 0, tol=1e-13)
    assert abs(i1 - i1_tight) < 1e-10


def test_action_flags_doubling_on_zero_stratum(spec22):
    # w_0 = 0: the inner segment reaches b_0, the cycle doubles
    curve = curve_from_energy(spec22, (0.0, 0.25), 0.9)
    vals, flags = action_integrals(curve)
    assert flags[0] == 2

    curve = reference_curve(spec22)
    _, flags = action_integrals(curve)
    assert np.all(flags == 1)


def test_action_zero_on_collapsed_segment(spec22):
    from neumann.dynamics import relative_equilibrium
    import warnings
    eq = relative_equilibrium(spec22, [0.5, 0.5])
    curve = curve_from_energy(spec22, eq.j ** 2, eq.energy + 1e-13)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearCriticalWarning)
        val, _ = action_integral(curve, 0)
    assert val == pytest.approx(0.0, abs=1e-8)


def test_action_monotone_in_energy(spec22):
    vals = []
    for h in (0.85, 0.95, 1.05, 1.2):
        curve = curve_from_energy(spec22, (0.25, 0.25), h)
        vals.append(action_integral(curve, 0)[0])
    assert np.all(np.diff(vals) > 0)


def test_trivial_action_residue(spec22, rng):
    curve = curve_from_energy(spec22, (0.25, 0.25), 0.9)
    assert trivial_action_residue(curve, 0) == pytest.approx(0.5, rel=1e-13)
    assert trivial_action_residue(curve, 1) == pytest.approx(0.5, rel=1e-13)
    with pytest.raises(NumericalFailure):
        trivial_action_residue(curve_from_energy(spec22, (0.0, 0.25), 0.9), 0)
    # cross-module: residue equals the momentum-map value of a generating point
    for _ in range(5):
        rc = random_regular_reduced(spec22, rng)
        st = to_separated(spec22, rc.w, rc.xi, rc.eta)
        rho = separation_constants(spec22, rc.w, st.u, st.p)
        curve = build_polynomials(spec22, rc.w, rho)
        from neumann.reduction import embed_regular
        p = embed_regular(spec22, rc.xi, rc.eta, rc.w)
        mv = momentum_map(spec22, p)
        for sigma in range(2):
            assert trivial_action_residue(curve, sigma) == pytest.approx(
                np.sqrt(mv.w[sigma]), rel=1e-12)


def test_period_lattice_structure(spec22):
    lat = period_lattice(spec22, (0.25, 0.25), 0.9)
    assert lat.t.shape == (3, 3)
    assert np.allclose(lat.t[1:, :1], 0.0)
    assert np.allclose(lat.t[1:, 1:], np.eye(2))
    assert np.allclose(lat.omega @ lat.t, np.eye(3), atol=1e-8)
    assert lat.t[0, 0] > 0
    assert lat.frequency_ratios.shape == (1, 2)


def test_period_lattice_rejects_near_discriminant(spec22):
    from neumann.dynamics import relative_equilibrium
    import warnings
    eq = relative_equilibrium(spec22, [0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearCriticalWarning)
        with pytest.raises(NumericalFailure):
            period_lattice(spec22, eq.j ** 2, eq.energy + 1e-10)


def test_second_derivative_symmetry(spec22):
    # d^2 I / dh dJ agrees in either differencing order
    w = (0.25, 0.25)
    h0, j0 = 0.9, 0.5
    step_h, step_j = 1e-4, 1e-4

    def action(h, j):
        curve = curve_from_energy(spec22, (j ** 2, 0.25), h)
        return action_integral(curve, 0, tol=1e-13)[0]

    d_dh = lambda j: (action(h0 + step_h, j) - action(h0 - step_h, j)) / (2 * step_h)
    d_dj = lambda h: (action(h, j0 + step_j) - action(h, j0 - step_j)) / (2 * step_j)
    mixed_1 = (d_dh(j0 + step_j) - d_dh(j0 - step_j)) / (2 * step_j)
    mixed_2 = (d_dj(h0 + step_h) - d_dj(h0 - step_h)) / (2 * step_h)
    assert mixed_1 == pytest.approx(mixed_2, abs=1e-5)


def test_frequency_against_measured_period(spec22):
    # 2 pi dI/dh equals the reduced oscillation period, to 1e-4 relative
    w = (0.25, 0.25)
    xi0 = np.array([np.sqrt(0.5), np.sqrt(0.5)])
    eta0 = np.zeros(2)
    from neumann.reduction import reduced_hamiltonian
    h = reduced_hamiltonian(spec22, w, xi0, eta0)
    lat = period_lattice(spec22, w, h)
    period_pred = 2 * np.pi * lat.t[0, 0]
    period_meas = measure_period(spec22, w, xi0, eta0, dt=5e-4)
    assert period_meas == pytest.approx(period_pred, rel=1e-4)


def test_period_lattice_genus_two(spec222, rng):
    # two nontrivial actions plus three trivial ones: 5x5 lattice
    rc = random_regular_reduced(spec222, rng)
    st = to_separated(spec222, rc.w, rc.xi, rc.eta)
    rho = separation_constants(spec222, rc.w, st.u, st.p)
    h = float(rho[0]) + energy_shift(spec222)
    lat = period_lattice(spec222, rc.w, h, extra_rho=(float(rho[1]),))
    assert lat.t.shape == (5, 5)
    assert np.allclose(lat.t[2:, :2], 0.0)
    assert np.allclose(lat.t[2:, 2:], np.eye(3))
    assert np.allclose(lat.omega @ lat.t, np.eye(5), atol=1e-7)


def _lattice_by_differences(spec, w, h, extra, j_blocks, quad_tol):
    """dI/d(h, rho_2.., J) by centred differences plus one Richardson step."""
    ell = spec.ell
    theta = np.array([h, *extra, *np.sqrt(w[list(j_blocks)])])

    def actions(t):
        ww = w.copy()
        ww[list(j_blocks)] = t[ell:] ** 2
        curve = curve_from_energy(spec, ww, t[0], tuple(t[1:ell]))
        return action_integrals(curve, tol=quad_tol)[0]

    columns = []
    for k in range(theta.size):
        step = 2e-4 * max(1.0, abs(theta[k]))

        def central(delta):
            tp, tm = theta.copy(), theta.copy()
            tp[k] += delta
            tm[k] -= delta
            return (actions(tp) - actions(tm)) / (2 * delta)

        columns.append((4.0 * central(0.5 * step) - central(step)) / 3.0)
    return np.array(columns).T


@pytest.mark.parametrize("b, m, quad_tol", [
    ((0.0, 1.0), (2, 2), 1e-14),
    ((0.0, 1.0, 2.0), (2, 2, 2), 1e-14),
    ((0.0, 1.0, 2.0, 3.0), (2, 2, 2, 2), 1e-14),
    # the 1-dimensional block has w = 0, so one segment ends at b_1 (flag 2);
    # such segments self-converge only to about 1e-13
    ((0.0, 1.0, 2.0), (2, 1, 2), 1e-12),
], ids=["spec22", "spec222", "spec2222", "spec212"])
def test_period_lattice_matches_action_differences(b, m, quad_tol, rng):
    spec = validate_spectrum(b, m)
    single = np.asarray(m) == 1
    checked, flags = 0, []
    while checked < 3:
        rc = random_regular_reduced(spec, rng)
        # a 1-dimensional block carries no angular momentum: w = 0 up to rounding
        w = np.where(single, 0.0, rc.w)
        if np.any(w[~single] < 1e-3):
            continue  # the differences step J by 2e-4 and must keep w > 0
        st = to_separated(spec, w, rc.xi, rc.eta)
        rho = separation_constants(spec, w, st.u, st.p)
        h = float(rho[0]) + energy_shift(spec)
        lat = period_lattice(spec, w, h, extra_rho=tuple(rho[1:]))
        assert lat.j_blocks == tuple(np.nonzero(~single)[0])
        ref = _lattice_by_differences(spec, w, h, tuple(rho[1:]), lat.j_blocks, quad_tol)
        top = lat.t[:spec.ell]
        assert np.max(np.abs(top - ref)) < 1e-7 * np.max(np.abs(ref))
        flags.extend(lat.flags)
        checked += 1
    assert (2 in flags) == bool(np.any(single))


def test_period_lattice_small_coupling(spec222):
    # as w_2 -> 0 the eigenvalue b_2 closes onto a branch point; the pole of
    # dR/dw_2 is split off in closed form, so dI_2/dJ_2 stays finite and tends
    # to -1/2 while the other columns converge
    xi = np.array([0.5, 0.5, np.sqrt(0.5)])
    eta = np.array([0.3, -0.2, 0.0])
    eta -= xi * (xi @ eta)
    w = np.array([0.05, 0.05, 0.0])
    st = to_separated(spec222, w, xi, eta)
    rho = separation_constants(spec222, w, st.u, st.p)
    h = float(rho[0]) + energy_shift(spec222)
    assert list(action_integrals(curve_from_energy(spec222, w, h, (rho[1],)))[1]) == [1, 2]
    previous = None
    for w2 in (1e-4, 1e-6, 1e-8, 1e-9):
        w[2] = w2
        lat = period_lattice(spec222, w, h, extra_rho=(float(rho[1]),))
        assert np.all(lat.flags == 1)
        assert abs(lat.t[1, 4] + 0.5) < np.sqrt(w2)
        if previous is not None:
            assert np.max(np.abs(lat.t[:2, :4] - previous)) < 1e-3
        previous = lat.t[:2, :4]


def test_actions_require_bounded_parameters(spec22):
    curve = reference_curve(spec22)
    with pytest.raises(ConfigError):
        action_integral(curve, 5)


# -- the eigenvalue root path and the product-form integrands ----------------------------

def _refined(curve, z):
    """z moved by Newton steps on the exact rational R until it stops moving."""
    coeffs = list(curve.r_exact)
    deriv = [a * (len(coeffs) - 1 - k) for k, a in enumerate(coeffs[:-1])]

    def exact(cs, x):
        acc = Fraction(0)
        for a in cs:
            acc = acc * x + a
        return acc

    for _ in range(10):
        step = float(exact(coeffs, Fraction(z)) / exact(deriv, Fraction(z)))
        if z - step == z:
            break
        z -= step
    return z


def _regular_curves(spec, seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rc = random_regular_reduced(spec, rng)
        st = to_separated(spec, rc.w, rc.xi, rc.eta)
        yield build_polynomials(spec, rc.w, separation_constants(spec, rc.w, st.u, st.p))


@pytest.mark.parametrize("ell", range(1, 7))
@pytest.mark.parametrize("zero_block", [None, 1])
def test_bordered_matrix_has_characteristic_polynomial_minus_r(ell, zero_block):
    rng = np.random.default_rng(100 + ell)
    b = np.cumsum(rng.uniform(0.3, 1.5, ell + 1)) - 1.0
    w = rng.uniform(0.01, 0.5, ell + 1)
    if zero_block is not None:
        w[zero_block] = 0.0
    curve = build_polynomials(validate_spectrum(tuple(b), (2,) * (ell + 1)), w,
                              rng.normal(size=ell))
    m = _bordered_matrix(np.concatenate([[1.0], 2.0 * curve.rho]), w * a_prime_values(b), b)
    assert m.shape == (2 * ell + 1, 2 * ell + 1)
    for z in np.concatenate([b + 0.37, [b[0] - 2.0, b[-1] + 1.5]]):
        size = np.sum(np.abs(curve.r) * abs(z) ** np.arange(curve.r.size)[::-1])
        det = np.linalg.det(z * np.eye(m.shape[0]) - m)
        assert abs(det + curve.evaluate_exact(z)) < 1e-12 * size
    if zero_block is not None:
        assert b[zero_block] in np.linalg.eigvals(m)


@pytest.mark.parametrize("b", [tuple(range(7)), (30.0, 31.0, 32.0)],
                         ids=["unit_l6", "spec222_plus_30"])
def test_branch_points_match_exactly_refined_roots(b):
    spec = validate_spectrum(tuple(map(float, b)), (2,) * len(b))
    scale = max(abs(v) for v in b) + 1.0
    for curve in _regular_curves(spec, 5, 10):
        roots = branch_points(curve)
        exact = np.array([_refined(curve, z) for z in roots])
        assert np.max(np.abs(roots - exact)) < 1e-12 * scale


def test_branch_points_resolve_clustered_pairs():
    # pairs in the gap (1, 1.001) are close in absolute terms but far from double
    spec = validate_spectrum((0.0, 1.0, 1.001, 2.0, 3.0), (2,) * 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NearCriticalWarning)
        for curve in _regular_curves(spec, 14, 200):
            roots = branch_points(curve)
            assert np.all(np.diff(roots) > 0)
            assert np.all(roots[1::2] > curve.b[:-1]) and np.all(roots[2::2] < curve.b[1:])


def test_branch_points_small_coupling_exact(spec222):
    # the state of test_period_lattice_small_coupling: b_2 closes onto a root as w_2 -> 0
    xi = np.array([0.5, 0.5, np.sqrt(0.5)])
    eta = np.array([0.3, -0.2, 0.0])
    eta -= xi * (xi @ eta)
    w = np.array([0.05, 0.05, 0.0])
    st = to_separated(spec222, w, xi, eta)
    rho = separation_constants(spec222, w, st.u, st.p)
    h = float(rho[0]) + energy_shift(spec222)
    for w2 in (1e-4, 1e-6, 1e-8, 1e-10, 2e-12):
        w[2] = w2
        curve = curve_from_energy(spec222, w, h, (rho[1],))
        roots = branch_points(curve)
        assert np.max(np.abs(roots - [_refined(curve, z) for z in roots])) <= 1e-14


def test_flag_two_actions_self_converge_tightly(spec212):
    # a segment ending at b_1 (w_1 = 0) cancels its factor z - b_1 exactly
    rng = np.random.default_rng(3)
    flags = []
    for _ in range(12):
        rc = random_regular_reduced(spec212, rng)
        w = np.array([rc.w[0], 0.0, rc.w[2]])
        st = to_separated(spec212, w, rc.xi, rc.eta)
        curve = build_polynomials(spec212, w, separation_constants(spec212, w, st.u, st.p))
        assert 1.0 in branch_points(curve)  # b_1 exactly
        flags.extend(action_integrals(curve, tol=1e-14)[1])
    assert 2 in flags


@pytest.mark.xfail(strict=True, raises=NumericalFailure,
                   reason="a branch point within O(w_1) of the pole at b_1 makes the action "
                          "integrand peak like 1/|z - b_1| and it does not self-converge; "
                          "ROADMAP item 11 makes the action quadrature uniform in the couplings")
def test_actions_self_converge_at_small_coupling(spec222):
    # the period lattice already splits this pole off (test_period_lattice_small_coupling)
    rng = np.random.default_rng(3)
    for _ in range(10):
        rc = random_regular_reduced(spec222, rng)
        w = np.array(rc.w, float)
        w[1] = 1e-8
        st = to_separated(spec222, w, rc.xi, rc.eta)
        curve = build_polynomials(spec222, w, separation_constants(spec222, w, st.u, st.p))
        action_integrals(curve, tol=1e-11)


@pytest.mark.parametrize("b", [(0.0, 1.0, 2.0), (0.0, 1.0, 2.0, 3.0)],
                         ids=["spec222", "spec2222"])
def test_actions_do_not_amplify_root_rounding(b):
    spec = validate_spectrum(b, (2,) * len(b))
    for curve in _regular_curves(spec, 7, 100):
        roots = branch_points(curve)
        exact = np.array([_refined(curve, z) for z in roots])
        for i in range(spec.ell):
            assert abs(action_integral(curve, i, roots=roots)[0]
                       - action_integral(curve, i, roots=exact)[0]) <= 1e-13


def test_negative_coupling_is_config_error_on_the_spectral_path(spec222):
    # R(b_0) = -w_0 A'(b_0)^2 > 0 here: no bounded motion has these parameters
    w = (-0.04, 0.09, 0.0625)
    with pytest.raises(ConfigError, match="w"):
        branch_points(curve_from_energy(spec222, w, 1.5, (0.2,)))
    with pytest.raises(ConfigError, match="w"):
        period_lattice(spec222, w, 1.5, (0.2,))
    # a coupling within SINGULAR_W_TOL of zero still counts as zero
    xi, eta = np.array([0.6, 0.48, 0.64]), np.array([0.0, 0.8, -0.6])
    w = np.array([0.0, 0.09, 0.0625])
    st = to_separated(spec222, w, xi, eta)
    rho = separation_constants(spec222, w, st.u, st.p)
    w[0] = -1e-13
    assert 0.0 in branch_points(build_polynomials(spec222, w, rho))  # b_0 exactly
