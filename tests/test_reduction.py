import numpy as np
import pytest

from neumann import (PhasePoint, dirac_bracket, hamiltonian, hilbert_map,
                     reduced_bracket, reduced_hamiltonian, reduced_vector_field,
                     regular_coordinates, rosochatius_invariants)
from neumann.errors import BlowUpDetected, SingularStratumError
from neumann.model import random_phase_point
from neumann.poisson import Observable
from neumann.reduction import (ReducedState, bracket_matrix, casimir_gradients,
                               embed_regular, integrate_reduced)

from conftest import random_regular_reduced, reference_point


def test_hilbert_map_examples(spec22):
    st = hilbert_map(spec22, PhasePoint([0, 0, 1, 0], [0, 1, 0, 0]))
    assert np.allclose(st.v, [0, 0.5]) and np.allclose(st.t, [0.5, 0])
    assert np.allclose(st.s, 0) and np.allclose(st.w, 0)

    st = hilbert_map(spec22, reference_point())
    assert np.allclose(st.v, 0.25) and np.allclose(st.t, 0.5)
    assert np.allclose(st.s, 0) and np.allclose(st.w, 0.5)


def test_hilbert_map_global_casimirs(spec212, rng):
    for _ in range(20):
        p = PhasePoint(rng.normal(size=5), rng.normal(size=5))
        st = hilbert_map(spec212, p)
        assert st.c1 == pytest.approx(np.dot(p.x, p.x), rel=1e-13)
        assert st.c2 == pytest.approx(np.dot(p.x, p.y), rel=1e-13, abs=1e-13)
        # syzygy saturates for m=1 blocks
        assert st.w[1] == pytest.approx(0.0, abs=1e-14)


def test_reduced_bracket_value_example():
    state = ReducedState(v=[0.25, 0.25], t=[0.5, 0.5], s=[0.0, 0.0])
    assert state.c1 == pytest.approx(1.0)
    assert reduced_bracket(("V", 0), ("S", 0), state) == pytest.approx(0.25)
    assert reduced_bracket(("S", 0), ("S", 1), state) == 0.0
    assert reduced_bracket(("V", 0), ("V", 1), state) == 0.0


def test_reduced_bracket_casimirs(rng):
    # C1, C2 and each W_sigma annihilate every coordinate through the table
    for _ in range(10):
        v = rng.random(3) + 0.1
        t = rng.random(3) + 0.1
        s = rng.normal(size=3)
        state = ReducedState(v, t, s)
        B = bracket_matrix(state)
        for grad in casimir_gradients(state):
            assert np.max(np.abs(B @ grad)) < 1e-12


def test_bracket_matrix_rank(spec222, rng):
    # rank 2*ell with null space spanned by the Casimir gradients
    for _ in range(5):
        p = random_phase_point(spec222, rng)
        state = hilbert_map(spec222, p)
        B = bracket_matrix(state)
        svals = np.linalg.svd(B, compute_uv=False)
        rank = int(np.sum(svals > 1e-10 * svals[0]))
        assert rank == 2 * spec222.ell


def test_reduced_bracket_is_pushforward_of_dirac(spec22, rng):
    # {V_sigma, S_tau} etc. agree with the Dirac bracket of the lifted invariants
    kinds = {
        "V": lambda sl: Observable(lambda p: 0.5 * np.dot(p.x[sl], p.x[sl])),
        "T": lambda sl: Observable(lambda p: 0.5 * np.dot(p.y[sl], p.y[sl])),
        "S": lambda sl: Observable(lambda p: np.dot(p.x[sl], p.y[sl])),
    }
    for _ in range(5):
        p = random_phase_point(spec22, rng)
        state = hilbert_map(spec22, p)
        for ka in ("V", "T", "S"):
            for kb in ("V", "T", "S"):
                for sa in range(2):
                    for sb in range(2):
                        fa = kinds[ka](spec22.block_slice(sa))
                        fb = kinds[kb](spec22.block_slice(sb))
                        lhs = dirac_bracket(fa, fb, p)
                        rhs = reduced_bracket((ka, sa), (kb, sb), state)
                        assert lhs == pytest.approx(rhs, abs=5e-9)


def test_regular_coordinates_examples(spec22):
    rc = regular_coordinates(spec22, reference_point())
    assert np.allclose(rc.xi, 2 ** -0.5)
    assert np.allclose(rc.eta, 0.0)
    assert np.allclose(rc.w, 0.5)


def test_regular_coordinates_constraints_and_vts_relation(spec212, rng):
    for _ in range(20):
        rc = random_regular_reduced(spec212, rng)
        assert np.sum(rc.xi ** 2) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(rc.xi * rc.eta) == pytest.approx(0.0, abs=1e-12)
    for _ in range(10):
        p = random_phase_point(spec212, rng)
        st = hilbert_map(spec212, p)
        rc = regular_coordinates(spec212, p)
        for sigma in spec212.degenerate_blocks:
            assert rc.xi[sigma] == pytest.approx(np.sqrt(2 * st.v[sigma]), rel=1e-12)
            assert rc.eta[sigma] == pytest.approx(
                st.s[sigma] / np.sqrt(2 * st.v[sigma]), rel=1e-10, abs=1e-12)


def test_regular_coordinates_rejects_singular_stratum(spec22):
    # block 1 carries x = y = 0: W = 0 on an m >= 2 block
    p = PhasePoint([0.6, 0.8, 0, 0], [-0.8, 0.6, 0, 0])
    with pytest.raises(SingularStratumError):
        regular_coordinates(spec22, p)


def test_reduced_hamiltonian_matches_full(spec22, spec212, rng):
    rc = regular_coordinates(spec22, reference_point())
    assert reduced_hamiltonian(spec22, rc.w, rc.xi, rc.eta) == pytest.approx(1.25)
    for spec in (spec22, spec212):
        for _ in range(20):
            p = random_phase_point(spec, rng)
            try:
                rc = regular_coordinates(spec, p)
            except SingularStratumError:
                continue
            assert reduced_hamiltonian(spec, rc.w, rc.xi, rc.eta) == pytest.approx(
                hamiltonian(spec, p), rel=1e-12)


def test_reduced_hamiltonian_singular_form(spec212, rng):
    # equals sum T_sigma + b_sigma V_sigma on the image of the Hilbert map
    for _ in range(10):
        rc = random_regular_reduced(spec212, rng)
        st = rosochatius_invariants(spec212, rc.w, rc.xi, rc.eta)
        expect = float(np.sum(st.t + np.asarray(spec212.b) * st.v))
        assert reduced_hamiltonian(spec212, rc.w, rc.xi, rc.eta) == pytest.approx(
            expect, rel=1e-12)


def test_rosochatius_invariants_syzygy(spec22, rng):
    for _ in range(20):
        xi = rng.random(2) + 0.2
        eta = rng.normal(size=2)
        w = rng.random(2)
        st = rosochatius_invariants(spec22, w, xi, eta)
        assert np.allclose(st.w, w, rtol=0, atol=1e-14)
    st = rosochatius_invariants(spec22, [0.0, 0.0], [0.6, 0.8], [1.0, -0.75])
    assert np.allclose(st.v, [0.18, 0.32])
    assert np.allclose(st.t, [0.5, 0.28125])
    assert np.allclose(st.s, [0.6, -0.6])
    assert np.allclose(st.w, 0.0, atol=1e-15)


def test_rosochatius_bracket_pushforward(spec22, rng):
    # {T_sigma, T_tau} computed from (xi, eta) derivatives matches the table
    def t_obs(spec, w, sigma):
        def val(q):  # q packs (xi, eta) as a PhasePoint of dimension ell+1
            xi, eta = q.x, q.y
            return 0.5 * eta[sigma] ** 2 + 0.5 * w[sigma] / xi[sigma] ** 2
        return Observable(val)

    for _ in range(5):
        rc = random_regular_reduced(spec22, rng)
        q = PhasePoint(rc.xi, rc.eta)
        state = rosochatius_invariants(spec22, rc.w, rc.xi, rc.eta)
        for sa in range(2):
            for sb in range(2):
                lhs = dirac_bracket(t_obs(spec22, rc.w, sa), t_obs(spec22, rc.w, sb), q)
                rhs = reduced_bracket(("T", sa), ("T", sb), state)
                assert lhs == pytest.approx(rhs, abs=5e-9)


def test_covering_sign_invariance(spec212, rng):
    # negating xi on an m=1 block leaves all (V,T,S) unchanged
    rc = random_regular_reduced(spec212, rng)
    st1 = rosochatius_invariants(spec212, rc.w, rc.xi, rc.eta)
    xi2, eta2 = rc.xi.copy(), rc.eta.copy()
    xi2[1], eta2[1] = -xi2[1], -eta2[1]
    st2 = rosochatius_invariants(spec212, rc.w, xi2, eta2)
    assert np.allclose(st1.v, st2.v) and np.allclose(st1.t, st2.t)
    assert np.allclose(st1.s, st2.s)


def test_reduction_is_poisson_map(spec22, rng):
    # {f o R, g o R}_{2n+2} = {f, g}_{2l+2} o R for coordinate observables
    def lift_xi(spec, sigma):
        sl = spec.block_slice(sigma)
        return Observable(lambda p: np.linalg.norm(p.x[sl]))

    def lift_eta(spec, sigma):
        sl = spec.block_slice(sigma)
        return Observable(lambda p: np.dot(p.x[sl], p.y[sl]) / np.linalg.norm(p.x[sl]))

    def coord(kind, sigma):
        if kind == "xi":
            return Observable(lambda q: q.x[sigma])
        return Observable(lambda q: q.y[sigma])

    for _ in range(5):
        p = random_phase_point(spec22, rng)
        rc = regular_coordinates(spec22, p)
        q = PhasePoint(rc.xi, rc.eta)
        for ka, fa, la in [("xi", lift_xi, 0), ("xi", lift_xi, 1),
                           ("eta", lift_eta, 0), ("eta", lift_eta, 1)]:
            for kb, fb, lb in [("xi", lift_xi, 1), ("eta", lift_eta, 0),
                               ("eta", lift_eta, 1)]:
                lhs = dirac_bracket(fa(spec22, la), fb(spec22, lb), p)
                rhs = dirac_bracket(coord(ka, la), coord(kb, lb), q)
                assert lhs == pytest.approx(rhs, abs=1e-8)


def test_embed_regular_roundtrip(spec212, rng):
    for _ in range(10):
        rc = random_regular_reduced(spec212, rng)
        p = embed_regular(spec212, rc.xi, rc.eta, rc.w)
        back = regular_coordinates(spec212, p)
        assert np.allclose(back.xi, rc.xi, atol=1e-12)
        assert np.allclose(back.eta, rc.eta, atol=1e-12)
        assert np.allclose(back.w, rc.w, atol=1e-12)


def test_reduced_flow_commutes_with_reduction(spec22, spec212, rng):
    # spec212 has a multiplicity-1 block: w = 0 there and its signed xi may
    # pass through zero, the masked branch of the amended gradient
    from neumann.dynamics import integrate
    for spec in (spec22, spec212):
        rc = random_regular_reduced(spec, rng)
        p0 = embed_regular(spec, rc.xi, rc.eta, rc.w)
        t_end = 10.0
        full = integrate(spec, p0, t_end, dt=1e-3, save_every=10_000)
        red = integrate_reduced(spec, rc.w, rc.xi, rc.eta, t_end, dt=1e-3,
                                save_every=10_000)
        rc_end = regular_coordinates(spec, full.point(full.n_samples - 1))
        assert np.max(np.abs(rc_end.xi - red.xi[-1])) < 1e-7
        assert np.max(np.abs(rc_end.eta - red.eta[-1])) < 1e-7


def test_reduced_field_fixed_point_at_equilibrium(spec22):
    from neumann.dynamics import relative_equilibrium
    eq = relative_equilibrium(spec22, [0.5, 0.5])
    xid, etad = reduced_vector_field(spec22, eq.j ** 2, eq.xi, np.zeros(2))
    assert np.max(np.abs(xid)) < 1e-12
    assert np.max(np.abs(etad)) < 1e-10


def test_negative_coupling_blowup(spec22):
    # w_0 < 0 drives xi_0 through zero: finite-time blow-up is detected
    xi0 = np.array([0.4, np.sqrt(1 - 0.16)])
    eta0 = np.zeros(2)
    with pytest.raises(BlowUpDetected) as exc:
        integrate_reduced(spec22, [-0.25, 0.25], xi0, eta0, t_end=50.0, dt=1e-3)
    assert exc.value.time == pytest.approx(0.349)
    # step 348 jumps across xi_0 = 0: the unprojected state passes 1e4 there,
    # while the projected |eta| stays near 2.7e3 until the overflow a step later
    with pytest.raises(BlowUpDetected) as exc:
        integrate_reduced(spec22, [-0.25, 0.25], xi0, eta0, t_end=0.35, dt=1e-3,
                          blowup_threshold=1e4)
    assert exc.value.time == pytest.approx(0.348)


@pytest.mark.parametrize("xi, eta", [([0.7, 0.48, 0.64], [0.0, 0.8, -0.6]),
                                     ([0.6, 0.48, 0.64], [0.1, 0.8, -0.6]),
                                     ([0.624, 0.4992, 0.6656], [0.0, 0.8, -0.6])],
                         ids=["xi-off-sphere", "eta-not-tangent", "xi-scaled-1.04"])
def test_reduced_state_off_sphere_is_rejected(spec222, xi, eta):
    from neumann.dynamics import measure_period
    from neumann.errors import OffManifoldError
    from neumann.separation import to_separated
    w = [0.04, 0.09, 0.0625]
    for call in (lambda: integrate_reduced(spec222, w, xi, eta, 0.1),
                 lambda: measure_period(spec222, w, xi, eta, t_max=0.1),
                 lambda: to_separated(spec222, w, xi, eta)):
        with pytest.raises(OffManifoldError, match="T\\*S\\^ell"):
            call()
