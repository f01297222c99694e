import numpy as np
import pytest
from scipy.linalg import expm

from neumann import (PhasePoint, angular_momentum, dirac_bracket, generic_integral,
                     integral_f, j_flow, j_total, momentum_map)
from neumann.errors import ConfigError, NumericalFailure
from neumann.model import random_phase_point, validate_spectrum
from neumann.poisson import (Observable, angular_momentum_observable,
                             c1_observable, c2_observable,
                             casimir_w_observable, coordinate_observable,
                             generic_integrals, hamiltonian_observable,
                             integral_f_observable, integrals_f)

from conftest import reference_point


def all_conserved_observables(spec):
    obs = [c1_observable(), c2_observable()]
    obs += [integral_f_observable(spec, s) for s in range(spec.ell + 1)]
    for s in spec.degenerate_blocks:
        obs.append(casimir_w_observable(spec, s))
        idx = spec.block_indices(s)
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                obs.append(angular_momentum_observable(idx[a], idx[b]))
    return obs


def test_analytic_gradients_match_finite_differences(spec212, rng):
    spec3121 = validate_spectrum((0.0, 1.0, 2.5, 4.0), (3, 1, 2, 1))
    for spec in (spec212, spec3121):
        for _ in range(5):
            p = random_phase_point(spec, rng)
            for obs in all_conserved_observables(spec) + [hamiltonian_observable(spec)]:
                fd = Observable(obs._value)  # same value, FD gradient
                assert np.allclose(obs.gradient(p), fd.gradient(p), atol=1e-7), obs.name


def test_dirac_bracket_coordinate_table(spec22, rng):
    for _ in range(10):
        p = random_phase_point(spec22, rng)
        c1 = np.dot(p.x, p.x)
        for nu in range(4):
            for kappa in range(4):
                xk = coordinate_observable("x", kappa)
                xv = coordinate_observable("x", nu)
                yk = coordinate_observable("y", kappa)
                yv = coordinate_observable("y", nu)
                assert dirac_bracket(xv, xk, p) == pytest.approx(0.0, abs=1e-14)
                expected = (nu == kappa) - p.x[nu] * p.x[kappa] / c1
                assert dirac_bracket(xv, yk, p) == pytest.approx(expected, abs=1e-12)
                lnk = angular_momentum(p, nu, kappa)
                assert dirac_bracket(yv, yk, p) == pytest.approx(-lnk / c1, abs=1e-12)


def test_dirac_bracket_casimirs(spec22, rng):
    h = hamiltonian_observable(spec22)
    for _ in range(20):
        p = PhasePoint(rng.normal(size=4), rng.normal(size=4))
        for cas in (c1_observable(), c2_observable()):
            assert abs(dirac_bracket(cas, h, p)) < 1e-10
            assert abs(dirac_bracket(h, cas, p)) < 1e-10


def test_dirac_bracket_singular_origin():
    f = coordinate_observable("x", 0)
    g = coordinate_observable("y", 0)
    with pytest.raises(NumericalFailure):
        dirac_bracket(f, g, PhasePoint([0.0, 0.0], [1.0, 0.0]))


def test_angular_momentum_so_relations(spec22, rng):
    # {L_nu kappa, L_kappa lambda} = L_lambda nu with the shared middle index
    for _ in range(10):
        p = random_phase_point(spec22, rng)
        for (nu, ka, la) in [(0, 1, 2), (1, 2, 3), (0, 2, 3)]:
            lhs = dirac_bracket(angular_momentum_observable(nu, ka),
                                angular_momentum_observable(ka, la), p)
            assert lhs == pytest.approx(angular_momentum(p, la, nu), abs=1e-11)


def test_momentum_map_examples(spec22):
    p = PhasePoint([0, 0, 1, 0], [0, 1, 0, 0])
    mv = momentum_map(spec22, p)
    assert angular_momentum(p, 1, 2) == -1.0  # cross-block, not part of mu
    assert np.allclose(mv.w, 0.0)

    mv = momentum_map(spec22, reference_point())
    assert mv.j_signed[0] == pytest.approx(2 ** -0.5)
    assert mv.j_signed[1] == pytest.approx(-(2 ** -0.5))
    assert np.allclose(mv.w, 0.5)

    p = PhasePoint([0.5, 0.5, 0.5, 0.5], [1.0, 1.0, 1.0, 1.0])  # y parallel x
    assert np.allclose(momentum_map(spec22, p).w, 0.0)


def test_momentum_map_equivariance(spec212, rng):
    for _ in range(10):
        p = random_phase_point(spec212, rng)
        mv = momentum_map(spec212, p)
        x, y = p.x.copy(), p.y.copy()
        gs = {}
        for sigma in spec212.degenerate_blocks:
            sl = spec212.block_slice(sigma)
            g = np.linalg.qr(rng.normal(size=(spec212.m[sigma],) * 2))[0]
            gs[sigma] = g
            x[sl] = g @ x[sl]
            y[sl] = g @ y[sl]
        mv2 = momentum_map(spec212, PhasePoint(x, y))
        for sigma, g in gs.items():
            assert np.allclose(mv2.mu[sigma], g @ mv.mu[sigma] @ g.T, atol=1e-12)


def uhlenbeck_loop(a, p):
    """x_k^2 + sum_{a_l != a_k} L_kl^2 / (a_k - a_l), written out term by term."""
    out = np.empty(p.dim)
    for k in range(p.dim):
        out[k] = p.x[k] ** 2
        for l in range(p.dim):
            if a[l] != a[k]:
                out[k] += angular_momentum(p, k, l) ** 2 / (a[k] - a[l])
    return out


def test_integral_f_examples(spec22, rng):
    p = PhasePoint([0, 0, 1, 0], [0, 1, 0, 0])
    assert integral_f(spec22, p, 0) == pytest.approx(-1.0)
    assert integral_f(spec22, p, 1) == pytest.approx(2.0)

    for _ in range(20):
        q = random_phase_point(spec22, rng)
        f = integrals_f(spec22, q)
        ref = uhlenbeck_loop(spec22.a_vec, q)
        assert np.allclose(f, [ref[:2].sum(), ref[2:].sum()], rtol=1e-13, atol=1e-13)
        assert np.sum(f) == pytest.approx(np.dot(q.x, q.x), rel=1e-12)
        mv = momentum_map(spec22, q)
        h = 0.5 * np.sum(np.asarray(spec22.b) * f + mv.w)
        from neumann import hamiltonian
        assert h == pytest.approx(hamiltonian(spec22, q), rel=1e-12)

    p = random_phase_point(spec22, rng)
    p0 = PhasePoint(p.x, np.zeros(4))
    f = integrals_f(spec22, p0)
    assert f[0] == pytest.approx(np.sum(p0.x[:2] ** 2))
    assert f[1] == pytest.approx(np.sum(p0.x[2:] ** 2))


def test_conserved_under_flow(spec212, rng):
    h = hamiltonian_observable(spec212)
    for _ in range(50):
        p = random_phase_point(spec212, rng)
        for obs in all_conserved_observables(spec212):
            assert abs(dirac_bracket(obs, h, p)) < 1e-8, obs.name


def test_jacobi_identity_fd(spec22, rng):
    h = hamiltonian_observable(spec22)
    trips = [
        (coordinate_observable("x", 0), coordinate_observable("y", 0), h),
        (angular_momentum_observable(0, 1), coordinate_observable("y", 2),
         coordinate_observable("x", 3)),
        (c1_observable(), coordinate_observable("y", 1), h),
    ]
    for f, g, k in trips:
        for _ in range(5):
            p = random_phase_point(spec22, rng)
            inner_gh = Observable(lambda q, g=g, k=k: dirac_bracket(g, k, q))
            inner_kf = Observable(lambda q, f=f, k=k: dirac_bracket(k, f, q))
            inner_fg = Observable(lambda q, f=f, g=g: dirac_bracket(f, g, q))
            total = (dirac_bracket(f, inner_gh, p) + dirac_bracket(g, inner_kf, p)
                     + dirac_bracket(k, inner_fg, p))
            assert abs(total) < 1e-6


def test_generic_integrals_and_limits(rng):
    a = np.array([0.0, 1.0])
    p = PhasePoint([1, 0], [0, 0])
    assert generic_integral(a, p, 0) == 1.0 and generic_integral(a, p, 1) == 0.0

    a = rng.normal(size=5) + np.arange(5) * 2
    for _ in range(10):
        p = PhasePoint(rng.normal(size=5), rng.normal(size=5))
        assert np.sum(generic_integrals(a, p)) == pytest.approx(
            np.dot(p.x, p.x), rel=1e-10)
        assert np.allclose(generic_integrals(a, p), uhlenbeck_loop(a, p),
                           rtol=1e-12, atol=1e-12)

    with pytest.raises(ConfigError):
        generic_integral(np.array([0.0, 0.0, 1.0]), PhasePoint([1, 0, 0], [0, 1, 0]), 0)


def test_degenerate_limit_of_generic_integrals(spec212, rng):
    # (a_nu - a_mu) F~_nu -> L_mu nu^2 and the block sums -> F_sigma, linearly in the gap
    p = random_phase_point(spec212, rng)
    offsets = np.concatenate([np.arange(m, dtype=float) for m in spec212.m])
    base = spec212.a_vec
    errs_pair, errs_sum = [], []
    gaps = [1e-4, 1e-6, 1e-8]
    for gap in gaps:
        a = base + gap * offsets
        ft = generic_integrals(a, p)
        i, k = spec212.block_indices(0)
        l2 = angular_momentum(p, i, k) ** 2
        errs_pair.append(abs((a[k] - a[i]) * ft[k] - l2))
        s = sum(ft[j] for j in spec212.block_indices(2))
        errs_sum.append(abs(s - integral_f(spec212, p, 2)))
    # errors shrink in proportion to the gap (monotone by construction)
    assert errs_pair[0] > errs_pair[1] > errs_pair[2]
    assert errs_sum[0] > errs_sum[1]
    ratio = errs_pair[0] / errs_pair[1]
    assert 50 < ratio < 200  # one decade-squared gap ratio, slope 1


def test_j_flow_rotation_and_periodicity(rng):
    p = PhasePoint([1.0, 0.0], [0.0, 1.0])
    q = j_flow(p, np.pi / 2)
    assert np.allclose(q.x, [0, 1]) and np.allclose(q.y, [-1, 0])

    for _ in range(10):
        x = rng.normal(size=5)
        y = rng.normal(size=5)
        p = PhasePoint(x, y)
        if j_total(p) < 1e-3:
            continue
        q = j_flow(p, 2 * np.pi)
        assert np.max(np.abs(q.x - p.x)) < 1e-12
        assert np.max(np.abs(q.y - p.y)) < 1e-12
        # invariants preserved at every time
        q = j_flow(p, 0.731)
        assert np.dot(q.x, q.x) == pytest.approx(np.dot(x, x), rel=1e-12)
        assert np.dot(q.y, q.y) == pytest.approx(np.dot(y, y), rel=1e-12)
        assert np.dot(q.x, q.y) == pytest.approx(np.dot(x, y), abs=1e-12)


def test_j_flow_matches_matrix_exponential(rng):
    for _ in range(5):
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        p = PhasePoint(x, y)
        J = j_total(p)
        xx, yy, xy = np.dot(x, x), np.dot(y, y), np.dot(x, y)
        sm = np.array([[-xy, xx], [-yy, xy]]) / J
        t = 1.234
        rot = expm(t * sm)
        q = j_flow(p, t)
        expect = rot @ np.vstack([x, y])
        assert np.allclose(q.x, expect[0], atol=1e-12)
        assert np.allclose(q.y, expect[1], atol=1e-12)


def test_j_flow_half_turn_negates_unit_orthonormal():
    p = PhasePoint([1.0, 0.0, 0.0], [0.0, 0.6, 0.8])
    q = j_flow(p, np.pi)
    assert np.allclose(q.x, -p.x, atol=1e-13)
    assert np.allclose(q.y, -p.y, atol=1e-13)


def test_j_flow_zero_momentum_error():
    with pytest.raises(NumericalFailure):
        j_flow(PhasePoint([1.0, 0.0], [2.0, 0.0]), 0.3)


def test_bracket_antisymmetry(spec22, rng):
    h = hamiltonian_observable(spec22)
    obs = [h, c1_observable(), coordinate_observable("x", 1),
           coordinate_observable("y", 2), angular_momentum_observable(0, 3)]
    for _ in range(10):
        p = random_phase_point(spec22, rng)
        for f in obs:
            for g in obs:
                assert dirac_bracket(f, g, p) == pytest.approx(
                    -dirac_bracket(g, f, p), abs=1e-12)
