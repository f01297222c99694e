import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from neumann import (PhasePoint, drift_report, hamiltonian, integrate,
                     integrate_batch, measure_period, relative_equilibrium)
from neumann.dynamics import (conserved_series, critical_energy_hessian,
                              equilibrium_phase_point, linearized_frequency)
from neumann.errors import BlowUpDetected, ConfigError, NumericalFailure, OffManifoldError
from neumann.model import random_phase_point, validate_spectrum
from neumann.poisson import integrals_f, momentum_map
from neumann.reduction import amended_potential_gradient, regular_coordinates

from conftest import random_regular_reduced


def scipy_reference(spec, p0, t_end, rtol=1e-12, atol=1e-14):
    a = spec.a_vec

    def rhs(_, z):
        n1 = a.size
        x, y = z[:n1], z[n1:]
        gv = a * x
        lam = np.dot(x, gv) - np.dot(y, y)
        return np.concatenate([y, -gv + lam * x])

    sol = solve_ivp(rhs, (0, t_end), np.concatenate([p0.x, p0.y]),
                    method="DOP853", rtol=rtol, atol=atol, dense_output=False)
    n1 = a.size
    return PhasePoint(sol.y[:n1, -1], sol.y[n1:, -1])


def test_constant_trajectory_at_equilibrium(spec22):
    p0 = PhasePoint([1, 0, 0, 0], [0, 0, 0, 0])
    traj = integrate(spec22, p0, 1.0, dt=1e-3)
    report = drift_report(spec22, traj)
    assert max(report.values()) == 0.0


def test_geodesic_great_circle_return():
    spec = validate_spectrum((1.0,), (4,))
    rng = np.random.default_rng(7)
    p0 = random_phase_point(spec, rng)
    y_unit = p0.y / np.linalg.norm(p0.y)
    p0 = PhasePoint(p0.x, y_unit)
    traj = integrate(spec, p0, 2 * np.pi, dt=1e-3, save_every=100)
    assert np.max(np.abs(traj.x[-1] - p0.x)) < 1e-8
    assert np.max(np.abs(traj.y[-1] - p0.y)) < 1e-8


def test_conservation_against_independent_integrator(spec212, rng):
    p0 = random_phase_point(spec212, rng)
    traj = integrate(spec212, p0, 10.0, dt=1e-3, save_every=100)
    report = drift_report(spec212, traj)
    assert max(report.values()) < 1e-8
    ref = scipy_reference(spec212, p0, 10.0)
    assert np.max(np.abs(traj.x[-1] - ref.x)) < 1e-7
    assert np.max(np.abs(traj.y[-1] - ref.y)) < 1e-7
    # the oracle run conserves too (independent route)
    ref_report = drift_report(spec212, integrate(spec212, p0, 10.0, dt=5e-4,
                                                 save_every=200))
    assert max(ref_report.values()) < 1e-9


def test_adaptive_integration_matches_fixed(spec22, rng):
    p0 = random_phase_point(spec22, rng)
    fixed = integrate(spec22, p0, 5.0, dt=5e-4, save_every=10_000)
    adaptive = integrate(spec22, p0, 5.0, dt=1e-3, adaptive=True, rtol=1e-12,
                         save_every=10_000)
    assert np.max(np.abs(fixed.x[-1] - adaptive.x[-1])) < 1e-8


def test_drift_scales_with_fourth_order(spec22, rng):
    # projection removes the constraint-normal error component, so conserved
    # quantities converge at least at the nominal order (often one better)
    p0 = random_phase_point(spec22, rng)
    drifts = []
    steps = [0.2, 0.1, 0.05]
    for dt in steps:
        traj = integrate(spec22, p0, 10.0, dt=dt, save_every=1)
        drifts.append(drift_report(spec22, traj)["H"])
    slope = np.polyfit(np.log(steps), np.log(drifts), 1)[0]
    assert 3.5 < slope < 5.5


def test_projection_keeps_constraints(spec212, rng):
    p0 = random_phase_point(spec212, rng)
    traj = integrate(spec212, p0, 20.0, dt=1e-3, save_every=50)
    c1 = np.sum(traj.x ** 2, axis=-1)
    c2 = np.sum(traj.x * traj.y, axis=-1)
    assert np.max(np.abs(c1 - 1)) < 1e-12
    assert np.max(np.abs(c2)) < 1e-12


def test_invariant_subspace_preserved(spec212, rng):
    # start inside block 0 + block 1: block 2 coordinates stay identically zero
    x = np.array([0.6, 0.0, 0.8, 0.0, 0.0])
    y = np.array([0.0, 1.1, 0.0, 0.0, 0.0])
    x, y = x / np.linalg.norm(x), y - np.dot(x, y) * x
    traj = integrate(spec212, PhasePoint(x, y), 10.0, dt=1e-3, save_every=100)
    assert np.max(np.abs(traj.x[:, 3:])) < 1e-10
    assert np.max(np.abs(traj.y[:, 3:])) < 1e-10


def test_integrate_rejects_off_manifold(spec22):
    with pytest.raises(OffManifoldError):
        integrate(spec22, PhasePoint([1.1, 0, 0, 0], [0, 0, 0, 0]), 1.0)


def test_batch_matches_single(spec22, rng):
    p1 = random_phase_point(spec22, rng)
    p2 = random_phase_point(spec22, rng)
    batch = integrate_batch(spec22, np.vstack([p1.x, p2.x]), np.vstack([p1.y, p2.y]),
                            5.0, dt=1e-3, save_every=1000)
    single = integrate(spec22, p2, 5.0, dt=1e-3, save_every=1000)
    assert np.allclose(batch.x[-1, 1], single.x[-1], atol=1e-14)
    report = drift_report(spec22, batch)
    assert max(report.values()) < 1e-8


def test_relative_equilibrium_reference_values(spec22):
    # independent root-finding oracle for the multiplier, then the stated formula
    j = np.array([0.5, 0.5])
    b = np.asarray(spec22.b)
    beta_ref = brentq(lambda be: np.sum(j / np.sqrt(b - be)) - 1.0, -50.0, -1e-12,
                      xtol=1e-14)
    om_ref = np.sqrt(b - beta_ref)
    h_ref = float(np.sum(j * (om_ref + b / om_ref)))
    eq = relative_equilibrium(spec22, j)
    assert eq.beta == pytest.approx(beta_ref, abs=1e-12)
    assert eq.h == pytest.approx(h_ref, rel=1e-12)
    assert eq.beta == pytest.approx(-0.666, abs=5e-4)
    assert eq.h == pytest.approx(1.441, abs=5e-4)
    assert np.sum(eq.xi ** 2) == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(eq.xi ** 2, j / eq.omega, rtol=1e-12)


def test_relative_equilibrium_is_critical_point(spec212):
    eq = relative_equilibrium(spec212, [0.4, 0.0, 0.7])
    grad = amended_potential_gradient(spec212, eq.j ** 2, np.where(eq.xi == 0, 1.0, eq.xi))
    resid = grad * (eq.xi != 0) - eq.beta * eq.xi
    assert np.max(np.abs(resid)) < 1e-10
    assert eq.xi[1] == 0.0  # m = 1 block stays on the axis
    assert np.all(eq.beta < np.asarray(spec212.b)[eq.j > 0])


def test_relative_equilibrium_gradient_scaling(spec22):
    # dh/dj = 2 omega by centered differences
    j = np.array([0.3, 0.8])
    eq = relative_equilibrium(spec22, j)
    for sigma in range(2):
        step = 1e-6
        jp, jm = j.copy(), j.copy()
        jp[sigma] += step
        jm[sigma] -= step
        fd = (relative_equilibrium(spec22, jp).h - relative_equilibrium(spec22, jm).h) \
            / (2 * step)
        assert fd == pytest.approx(2 * eq.omega[sigma], abs=1e-6)


def test_relative_equilibrium_rejections(spec212):
    with pytest.raises(ConfigError):
        relative_equilibrium(spec212, [0.5, 0.1, 0.5])  # m=1 block must carry 0
    with pytest.raises(ConfigError):
        relative_equilibrium(spec212, [0.5, 0.0, 0.0])  # m>=2 block needs j > 0
    with pytest.raises(NumericalFailure):
        # the sum stays below 1 up to b_min - eps: the root sits unresolved next to the pole
        relative_equilibrium(validate_spectrum((1.0, 2.0), (2, 2)), [1e-7, 1e-7])


def test_relative_equilibrium_single_block_at_bracket_end():
    # one active block: j / sqrt(-beta) = 1 puts the root exactly on the
    # closed-form left bracket end b_min - (sum j)^2
    spec = validate_spectrum((0.0, 1.0), (2, 1))
    eq = relative_equilibrium(spec, [0.5, 0.0])
    assert eq.beta == -0.25
    assert eq.omega[0] == 0.5


def test_relative_equilibrium_residual_over_scales(spec222):
    base = np.array([0.3, 0.5, 0.2])
    b = np.asarray(spec222.b)
    for scale in 10.0 ** np.arange(-3.0, 2.5, 0.5):
        j = scale * base
        eq = relative_equilibrium(spec222, j)
        assert abs(np.sum(j / np.sqrt(b - eq.beta)) - 1.0) <= 1e-14


def test_relative_equilibrium_far_from_zero():
    # b_min = 1e8: solving for t = b_min - beta keeps the digits of omega
    spec = validate_spectrum((1e8, 1e8 + 1.0), (2, 2))
    j = 1e-3 * np.array([1.0, 2.0])
    eq = relative_equilibrium(spec, j)
    assert abs(np.sum(j / eq.omega) - 1.0) <= 1e-14


@pytest.mark.parametrize("b, m, j", [
    ((0.0, 1.0), (2, 2), [[0.5, 0.5], [0.3, 0.8], [1e-3, 40.0]]),
    ((0.0, 1.0, 2.0), (2, 2, 2), [[0.3, 0.5, 0.2], [1e-4, 0.2, 3.0], [2.0, 2.0, 2.0]]),
    ((0.0, 1.0, 2.0), (2, 1, 2), [[0.4, 0.0, 0.7], [0.05, 0.0, 1e-3], [9.0, 0.0, 0.1]]),
    ((1e8, 1e8 + 1.0), (2, 2), [[1e-3, 2e-3], [0.5, 0.5], [3e-2, 1e-4]]),
])
def test_relative_equilibrium_stack_equals_rows(b, m, j):
    spec = validate_spectrum(b, m)
    j = np.array(j)
    stack = relative_equilibrium(spec, j)
    assert stack.beta.shape == stack.h.shape == (j.shape[0],)
    assert stack.xi.shape == stack.omega.shape == j.shape
    for k, row in enumerate(j):
        eq = relative_equilibrium(spec, row)
        assert type(eq.beta) is float and type(eq.h) is float
        assert eq.beta == stack.beta[k] and eq.h == stack.h[k]
        assert np.array_equal(eq.xi, stack.xi[k])
        assert np.array_equal(eq.omega, stack.omega[k])


def test_relative_equilibrium_stack_bad_row_raises_like_scalar(spec212):
    bad_rows = [(spec212, [0.5, 0.1, 0.5], ConfigError),
                (spec212, [0.5, 0.0, 0.0], ConfigError),
                (validate_spectrum((1.0, 2.0), (2, 2)), [1e-7, 1e-7], NumericalFailure)]
    for spec, bad, error in bad_rows:
        good = [0.4, 0.0, 0.7] if spec is spec212 else [0.5, 0.5]
        with pytest.raises(error) as scalar:
            relative_equilibrium(spec, bad)
        with pytest.raises(error) as stacked:
            relative_equilibrium(spec, [good, bad, good])
        assert str(stacked.value) == str(scalar.value)


def test_critical_energy_hessian_inactive_block(spec212):
    # h(j) is defined only on j_1 = 0 (m_1 = 1): the gradient entry, Hessian
    # row and column of block 1 are 0, the active block is the FD Hessian
    j = np.array([0.4, 0.0, 0.7])
    grad, hess = critical_energy_hessian(spec212, j)
    eq = relative_equilibrium(spec212, j)
    act = [0, 2]
    assert grad[1] == 0.0 and np.all(hess[1] == 0.0) and np.all(hess[:, 1] == 0.0)
    assert np.allclose(grad[act], 2 * eq.omega[act])
    step = 1e-4
    fd = np.empty((2, 2))
    for ia, a in enumerate(act):
        for ib, b in enumerate(act):
            vals = []
            for da, db in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
                jq = j.copy()
                jq[a] += da * step
                jq[b] += db * step
                vals.append(relative_equilibrium(spec212, jq).h)
            fd[ia, ib] = (vals[0] - vals[1] - vals[2] + vals[3]) / (4 * step ** 2)
    assert np.max(np.abs(fd - hess[np.ix_(act, act)])) < 1e-5


def test_critical_energy_hessian(spec22):
    j = np.array([0.5, 0.5])
    grad, hess = critical_energy_hessian(spec22, j)
    eq = relative_equilibrium(spec22, j)
    assert np.allclose(grad, 2 * eq.omega)
    # rank 1 with eigenvector along 1/omega
    eig, vec = np.linalg.eigh(hess)
    assert abs(eig[0]) < 1e-12 * eig[-1]
    v = vec[:, -1]
    ref = (1 / eq.omega) / np.linalg.norm(1 / eq.omega)
    assert min(np.max(np.abs(v - ref)), np.max(np.abs(v + ref))) < 1e-12
    lam = 2 * np.sum(1 / eq.omega ** 2) / np.sum(j / eq.omega ** 3)
    assert eig[-1] == pytest.approx(lam, rel=1e-12)
    # finite-difference Hessian of the critical value
    step = 1e-4
    fd = np.empty((2, 2))
    for a in range(2):
        for b in range(2):
            jj = j.copy()
            vals = []
            for da, db in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
                jq = j.copy()
                jq[a] += da * step
                jq[b] += db * step
                vals.append(relative_equilibrium(spec22, jq).h)
            fd[a, b] = (vals[0] - vals[1] - vals[2] + vals[3]) / (4 * step ** 2)
    assert np.max(np.abs(fd - hess)) < 1e-5


def test_equilibrium_trajectory_keeps_xi_constant(spec22):
    eq = relative_equilibrium(spec22, [0.5, 0.5])
    p0 = equilibrium_phase_point(spec22, eq)
    assert hamiltonian(spec22, p0) == pytest.approx(eq.energy, rel=1e-12)
    traj = integrate(spec22, p0, 50.0, dt=1e-3, save_every=200)
    for k in range(traj.n_samples):
        rc = regular_coordinates(spec22, traj.point(k))
        assert np.max(np.abs(rc.xi - eq.xi)) < 1e-6


def test_measure_period_section_independence(spec22, rng):
    rc = random_regular_reduced(spec22, rng)
    t0 = measure_period(spec22, rc.w, rc.xi, rc.eta, section_index=0)
    t1 = measure_period(spec22, rc.w, rc.xi, rc.eta, section_index=1)
    assert abs(t0 - t1) < 1e-8


def test_measure_period_harmonic_limit(spec22):
    # small oscillation around the elliptic relative equilibrium
    eq = relative_equilibrium(spec22, [0.5, 0.5])
    w = eq.j ** 2
    omega_lin = linearized_frequency(spec22, w, eq.xi)
    delta = 1e-3 * np.array([1.0, -1.0])
    xi0 = eq.xi + delta - np.dot(eq.xi, delta) * eq.xi
    xi0 /= np.linalg.norm(xi0)
    period = measure_period(spec22, w, xi0, np.zeros(2), dt=5e-4)
    assert period == pytest.approx(2 * np.pi / omega_lin, rel=1e-3)


def test_measure_period_fails_fast_on_blow_up(spec22):
    # a negative coupling drives xi_0 through 0: the state is NaN from t = 0.956 on
    xi0 = (np.cos(0.3), np.sin(0.3))
    with pytest.raises(NumericalFailure) as exc:
        measure_period(spec22, (-0.05, 0.25), xi0, np.zeros(2))
    assert "no section return" not in str(exc.value)
    # on section 1 no crossing comes first, so the non-finite state itself is caught
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpDetected) as exc:
        measure_period(spec22, (-0.05, 0.25), xi0, np.zeros(2), section_index=1)
    assert exc.value.time == pytest.approx(0.956)


def test_measure_period_no_return_within_t_max(spec22):
    xi0 = (np.cos(0.8), np.sin(0.8))
    with pytest.raises(NumericalFailure, match=r"no section return within t_max=1\.0"):
        measure_period(spec22, (0.25, 0.25), xi0, np.zeros(2), t_max=1.0)


def test_conserved_series_contains_all_columns(spec212, rng):
    p0 = random_phase_point(spec212, rng)
    traj = integrate(spec212, p0, 1.0, dt=1e-3, save_every=100)
    series = conserved_series(spec212, traj)
    assert {"H", "C1", "C2", "F_0", "F_1", "F_2", "W_0", "W_2",
            "L_01", "L_34"} <= set(series)
    for k in range(traj.n_samples):
        p = traj.point(k)
        f, w = integrals_f(spec212, p), momentum_map(spec212, p).w
        for sigma in range(spec212.ell + 1):
            assert series[f"F_{sigma}"][k] == pytest.approx(f[sigma], rel=1e-14, abs=1e-15)
        for sigma in spec212.degenerate_blocks:
            assert series[f"W_{sigma}"][k] == pytest.approx(w[sigma], rel=1e-14, abs=1e-15)
