from fractions import Fraction

import numpy as np
import pytest

from neumann import (atlas, build_polynomials, convexity_check, convexity_threshold,
                     double_root_check, equilibrium_stratum,
                     equilibrium_stratum_at_energy, locus_l2, polyhedron_limit,
                     relative_equilibrium, resolve_locus_exponent,
                     separation_constants, to_separated, validate_spectrum)
from neumann.atlas import (boundary_h_from_ec, ec_from_boundary_h,
                           locus_l2_closed_form, locus_l2_exact,
                           locus_l2_zero_lines, p_factor)
from neumann.errors import ConfigError, NumericalFailure

from conftest import random_regular_reduced


W222 = (0.04, 0.09, 0.0625)


def test_locus_exponent_resolved_to_linear(spec222):
    report = resolve_locus_exponent(spec222, W222)
    assert report.exponent == 1
    assert report.max_gap[1] < 1e-6
    assert report.max_gap[2] > 1e-3


def test_locus_l2_matches_exact_solve(spec222):
    for s in (0.3, 0.7, 1.2, 1.9):
        closed = locus_l2_closed_form(spec222, W222, s, exponent=1)
        exact = locus_l2_exact(spec222, W222, s)
        assert closed == pytest.approx(exact, rel=1e-10)


def test_locus_l2_double_root_oracle(spec222):
    for s in np.linspace(0.05, 0.95, 9):
        rho = locus_l2(spec222, W222, float(s))
        ok, gap, loc_err = double_root_check(build_polynomials(spec222, W222, rho),
                                             float(s))
        assert ok, (s, gap, loc_err)
    for s in np.linspace(1.05, 1.95, 9):
        rho = locus_l2(spec222, W222, float(s))
        ok, _, _ = double_root_check(build_polynomials(spec222, W222, rho), float(s))
        assert ok


def test_locus_branches_meet_corank2_point(spec222):
    # the two branches approach the unique elliptic equilibrium of this w
    j = np.sqrt(np.asarray(W222))
    eq = relative_equilibrium(spec222, j)
    from neumann.separation import to_separated as tosep
    u_eq = tosep(spec222, W222, eq.xi, np.zeros(3)).u
    rho_a = np.array(locus_l2(spec222, W222, float(u_eq[0])))
    rho_b = np.array(locus_l2(spec222, W222, float(u_eq[1])))
    assert np.max(np.abs(rho_a - rho_b)) < 1e-9


def test_locus_zero_coupling_lines(spec222):
    lines = locus_l2_zero_lines(spec222, (0.0, 0.09, 0.0625))
    assert len(lines) == 1
    c0, c1, c2 = lines[0]
    assert (c0, c1, c2) == (0.0, 0.0, 2.0)  # Q(b_0) = 0 with b_0 = 0
    # a curve on that line has a root at b_0
    rho = (0.7, 0.0)  # 2 rho_2 = 0 satisfies the line
    curve = build_polynomials(spec222, (0.0, 0.09, 0.0625), rho)
    assert abs(curve.evaluate_exact(0.0)) < 1e-15


def test_locus_rejects_pole(spec222):
    with pytest.raises(ConfigError):
        locus_l2_closed_form(spec222, W222, 1.0, exponent=1)


def test_equilibrium_stratum_double_roots(spec222):
    sample = equilibrium_stratum(spec222, (0.4, 1.7), -0.5)
    curve = build_polynomials(spec222, sample.w, sample.rho)
    for s in sample.s:
        ok, gap, loc_err = double_root_check(curve, float(s))
        assert ok, (s, gap, loc_err)
    assert np.all(sample.j >= 0)


def test_equilibrium_stratum_matches_relative_equilibrium(spec222, spec22):
    for spec, s, r in [(spec222, (0.4, 1.7), -0.5), (spec22, (0.55,), -0.9)]:
        sample = equilibrium_stratum(spec, s, r)
        eq = relative_equilibrium(spec, sample.j)
        assert eq.beta == pytest.approx(r, abs=1e-10)
        assert eq.h == pytest.approx(sample.h_ec, rel=1e-10)
        assert np.allclose(eq.omega, sample.omega, rtol=1e-10)
    # rho_1 closed form: -sum(s) + B/2 - r/2
    sample = equilibrium_stratum(spec222, (0.4, 1.7), -0.5)
    assert sample.rho[0] == pytest.approx(-2.1 + 1.5 + 0.25, rel=1e-12)


def test_equilibrium_stratum_rejects_bad_r(spec222):
    with pytest.raises(ConfigError):
        equilibrium_stratum(spec222, (0.4, 1.7), 0.5)  # r > b_0
    with pytest.raises(ConfigError):
        equilibrium_stratum(spec222, (1.4, 0.7), -0.5)  # not interlacing


def _exact_stratum_rho(b, s, r):
    """rho from the rational long division of (z - r) prod (z - s_k)^2 by A(z)."""
    def from_roots(roots):
        out = [Fraction(1)]
        for root in map(Fraction, roots):
            out = [hi - root * lo for hi, lo in zip(out + [0], [0] + out)]
        return out
    num, den = from_roots([*s, *s, r]), from_roots(b)
    q = []
    for k in range(len(num) - len(den) + 1):
        q.append(num[k])  # den is monic
        for i, d in enumerate(den):
            num[k + i] -= q[-1] * d
    return np.array([float(c / 2) for c in q[1:]])


STRATUM_SPECTRA = {
    "spec22": (0.0, 1.0),
    "spec222": (0.0, 1.0, 2.0),
    "spec2222": (0.0, 1.0, 2.0, 3.0),
    "unit_l6": tuple(float(k) for k in range(7)),
    "spec222_plus_30": (30.0, 31.0, 32.0),
    "unit_l5_and_100": (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 100.0),
    "decades": (0.0, 0.1, 1.0, 10.0, 100.0, 1000.0),
}


def _stratum_points(b, seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield (np.array([rng.uniform(b[k], b[k + 1]) for k in range(len(b) - 1)]),
               b[0] - rng.uniform(0.1, 3.0))


# at b + 1e6 the remainder check must not fire on the rounding of Qt's raw monomials
@pytest.mark.parametrize("b", [*STRATUM_SPECTRA.values(), (1e6, 1e6 + 1.0, 1e6 + 2.0)],
                         ids=[*STRATUM_SPECTRA, "spec222_plus_1e6"])
def test_equilibrium_stratum_rho_matches_exact_quotient(b):
    spec = validate_spectrum(b, (2,) * len(b))
    for s, r in _stratum_points(b, 11, 60):
        exact = _exact_stratum_rho(b, s, r)
        rho = equilibrium_stratum(spec, s, r).rho
        assert np.max(np.abs(rho - exact)) <= 1e-13 * np.max(np.abs(exact)), (s, r)


@pytest.mark.parametrize("b", STRATUM_SPECTRA.values(), ids=list(STRATUM_SPECTRA))
def test_equilibrium_stratum_remainder_check_fires(b, monkeypatch):
    spec = validate_spectrum(b, (2,) * len(b))
    s, r = next(_stratum_points(b, 11, 1))
    qtilde = atlas.qtilde_coeffs
    monkeypatch.setattr(atlas, "qtilde_coeffs", lambda spec, w: qtilde(spec, w) * (1 + 1e-6))
    with pytest.raises(NumericalFailure, match="remainder"):
        equilibrium_stratum(spec, s, r)


def test_energy_conventions_roundtrip(spec222):
    assert boundary_h_from_ec(spec222, ec_from_boundary_h(spec222, 1.23)) == \
        pytest.approx(1.23)
    sample = equilibrium_stratum(spec222, (0.4, 1.7), -0.5)
    assert sample.h_boundary == pytest.approx(
        boundary_h_from_ec(spec222, sample.h_ec), rel=1e-10)


def test_convexity_threshold_values(spec22, spec222):
    assert convexity_threshold(spec22) == 0.0
    assert convexity_threshold(spec222) == -2.0


def test_convexity_check_below_threshold(spec22):
    report = convexity_check(spec22, -0.5)
    assert not report.threshold_met
    assert report.margin == pytest.approx(-0.5)


def test_convexity_check_passes(spec22):
    report = convexity_check(spec22, 1.0, n_samples=24, n_pairs=100, seed=3)
    assert report.threshold_met
    assert np.all(report.p_values > 0)
    assert report.grad_max_err < 1e-6
    assert report.hessian_second_eig_ratio < 1e-8
    assert report.eigvec_max_err < 1e-6
    assert report.hessian_form_max_diff < 1e-9
    assert report.midpoint_violations == 0
    assert report.convex_verdict


def convexity_reference(spec, h, n_samples, seed, n_pairs, fd_rel=1e-6):
    """convexity_check one sample at a time: scalar finite differences through
    relative_equilibrium, one eigh per Hessian, one rng draw per pair."""
    rng = np.random.default_rng(seed)
    b = np.asarray(spec.b)
    lo, hi = b[:-1] + 0.01 * np.diff(b), b[1:] - 0.01 * np.diff(b)
    svals = lo + (hi - lo) * rng.random((n_samples, spec.ell))
    out = {"grad_max_err": 0.0, "hessian_second_eig_ratio": 0.0, "eigvec_max_err": 0.0,
           "hessian_form_max_diff": 0.0, "samples_j": [], "omegas": [], "p_values": [],
           "o_values": []}
    h_c = lambda j: relative_equilibrium(spec, j).h
    for s in svals:
        sample = equilibrium_stratum_at_energy(spec, h, s)
        j, om = sample.j, sample.omega
        p = p_factor(spec, h, s)
        o = float(np.prod(om ** 2))
        for key, v in zip(("samples_j", "omegas", "p_values", "o_values"), (j, om, p, o)):
            out[key].append(v)
        for sigma in range(spec.ell + 1):
            step = fd_rel * max(1.0, j[sigma])
            jp, jm = j.copy(), j.copy()
            jp[sigma] += step
            jm[sigma] -= step
            grad_fd = (h_c(jp) - h_c(jm)) / (2 * step)
            out["grad_max_err"] = max(out["grad_max_err"], abs(grad_fd - 2.0 * om[sigma])
                                      / max(1.0, 2.0 * om[sigma]))
        hess = 2.0 * (o / p) / np.outer(om, om)
        hess_eq = 2.0 / np.outer(om, om) / float(np.sum(j / om ** 3))
        out["hessian_form_max_diff"] = max(out["hessian_form_max_diff"],
                                           float(np.max(np.abs(hess - hess_eq)))
                                           / max(1.0, float(np.max(np.abs(hess)))))
        eig, vec = np.linalg.eigh(hess)
        out["hessian_second_eig_ratio"] = max(out["hessian_second_eig_ratio"],
                                              float(np.max(np.abs(eig[:-1]))) / eig[-1])
        ref = (1.0 / om) / np.linalg.norm(1.0 / om)
        out["eigvec_max_err"] = max(out["eigvec_max_err"],
                                    min(np.max(np.abs(vec[:, -1] - ref)),
                                        np.max(np.abs(vec[:, -1] + ref))))
    violations, max_slack = 0, -np.inf
    for _ in range(n_pairs):
        ia, ib = rng.integers(0, n_samples, size=2)
        ja, jb = out["samples_j"][ia], out["samples_j"][ib]
        slack = h_c(0.5 * (ja + jb)) - 0.5 * (h_c(ja) + h_c(jb))
        max_slack = max(max_slack, slack)
        violations += slack > 1e-9
    out.update(samples_s=svals, midpoint_violations=violations, midpoint_max_slack=max_slack)
    return out


@pytest.mark.parametrize("dh, seed", [(1.0, 7), (10.0, 11)])
def test_convexity_check_matches_per_sample_reference(spec222, dh, seed):
    h = convexity_threshold(spec222) + dh
    report = convexity_check(spec222, h, n_samples=16, seed=seed, n_pairs=40)
    ref = convexity_reference(spec222, h, 16, seed, 40)
    assert abs(report.eigvec_max_err - ref.pop("eigvec_max_err")) <= 1e-15
    for key, value in ref.items():
        assert np.array_equal(getattr(report, key), np.asarray(value)), key
    assert report.midpoint_pairs == 40 and report.convex_verdict


def test_p_factor_identity(spec222):
    # P equals O * sum j / omega^3 on the stratum (two Hessian forms agree)
    sample = equilibrium_stratum_at_energy(spec222, 1.0, (0.5, 1.5))
    p = p_factor(spec222, 1.0, sample.s)
    o = float(np.prod(sample.omega ** 2))
    assert p == pytest.approx(o * float(np.sum(sample.j / sample.omega ** 3)),
                              rel=1e-10)


def test_no_double_roots_in_chamber_interior(spec222, rng):
    # regular values: every curve from an actual reduced state has simple roots
    for _ in range(200):
        rc = random_regular_reduced(spec222, rng)
        if np.any(rc.w < 1e-3):
            continue
        st = to_separated(spec222, rc.w, rc.xi, rc.eta)
        rho = separation_constants(spec222, rc.w, st.u, st.p)
        curve = build_polynomials(spec222, rc.w, rho)
        roots = np.roots(curve.r)
        gaps = np.abs(roots[:, None] - roots[None, :])[np.triu_indices(5, 1)]
        assert np.min(gaps) > 1e-5


def test_corank_rank_deficiency(spec222):
    # k frozen pairs (u at a double root, p = 0) kill exactly k singular
    # values of the map (u, p) -> separation constants
    from neumann.separation import momentum_from_curve
    sample = equilibrium_stratum(spec222, (0.4, 1.7), -0.5)

    def assemble(w, upairs):
        def rho_of(z):
            return separation_constants(spec222, w, z[:2], z[2:])
        jac = np.empty((2, 4))
        for col in range(4):
            zp, zm = upairs.copy(), upairs.copy()
            step = 1e-6
            zp[col] += step
            zm[col] -= step
            jac[:, col] = (rho_of(zp) - rho_of(zm)) / (2 * step)
        return np.linalg.svd(jac, compute_uv=False)

    # corank 2: the relative equilibrium (both pairs frozen)
    svals = assemble(sample.w, np.array([*sample.s, 0.0, 0.0]))
    assert int(np.sum(svals < 1e-4 * max(svals[0], 1.0))) == 2

    # corank 1: double root at s in (b_0, b_1); second pair moves on the curve
    s1 = 0.45
    rho = locus_l2(spec222, W222, s1)
    curve = build_polynomials(spec222, W222, rho)
    u2 = 1.5
    assert float(curve.evaluate(u2)) > 0  # inside the oscillation segment
    p2 = momentum_from_curve(curve, [u2])[0]
    svals = assemble(np.asarray(W222), np.array([s1, u2, 0.0, p2]))
    assert int(np.sum(svals < 1e-4 * max(svals[0], 1.0))) == 1


def test_polyhedron_limit_l1(spec22):
    report = polyhedron_limit(spec22, [1e2, 1e4], n_samples=101)
    # rescaled boundary approaches the segment j_0 + j_1 = 1
    sums = report.rescaled_j[-1].sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 5e-4
    # the model is exactly the segment
    assert np.allclose(report.model_j.sum(axis=1), 1.0, atol=1e-12)
    # deviations shrink proportionally to 1/h
    ratio = report.deviations[0] / report.deviations[1]
    assert 50 < ratio < 200


def test_polyhedron_limit_l2_ruled_facets(spec222):
    report = polyhedron_limit(spec222, [1e2, 1e4], n_samples=21)
    assert report.ruled_second_diff < 1e-9
    ratio = report.deviations[0] / report.deviations[1]
    assert 50 < ratio < 200


def test_polyhedron_limit_requires_threshold(spec22):
    with pytest.raises(ConfigError):
        polyhedron_limit(spec22, [-1.0, 1e2])
