"""The projected RK4 step's two kernels: Python floats and numpy give the same bits."""
import numpy as np
import pytest

from neumann import model, random_phase_point, validate_spectrum
from neumann.dynamics import integrate, integrate_batch, measure_period
from neumann.model import (Potential, integrate_projected, kernel_state, project_to_manifold,
                           rk4_step)
from neumann.reduction import integrate_reduced

from conftest import random_regular_reduced


def step_both(potential, x, y, dt, steps, limit=np.inf):
    """Step (x, y) by both kernels; assert equal bits after every step.

    Stops early at the first unprojected state with an entry above ``limit``,
    after asserting that both kernels reach it on the same step.  Returns the
    number of steps taken.
    """
    xf, yf = kernel_state(x), kernel_state(y)
    assert type(xf) is list
    for k in range(1, steps + 1):
        x, y = rk4_step(potential, x, y, dt)
        xf, yf = rk4_step(potential, xf, yf, dt)
        assert np.array_equal(x, xf) and np.array_equal(y, yf), f"unprojected, step {k}"
        within = model._within(x, y, limit)
        assert model._within(xf, yf, limit) == within
        if not within:
            return k
        x, y = project_to_manifold(x, y)
        xf, yf = project_to_manifold(xf, yf)
        assert np.array_equal(x, xf) and np.array_equal(y, yf), f"projected, step {k}"
    return steps


@pytest.mark.parametrize("k", range(2, 8))
def test_full_flow_kernels_bitwise(k):
    rng = np.random.default_rng(100 + k)
    potential = Potential(np.sort(rng.uniform(-2.0, 3.0, k)))
    for _ in range(3):
        x, y = project_to_manifold(rng.normal(size=k), rng.normal(size=k))
        assert step_both(potential, x, y, 1e-2, 300) == 300


@pytest.mark.parametrize("spec_name", ["spec22", "spec222", "spec2222"])
def test_reduced_flow_kernels_bitwise(spec_name, request):
    spec = (validate_spectrum((0.0, 1.0, 2.0, 3.0), (2, 2, 2, 2)) if spec_name == "spec2222"
            else request.getfixturevalue(spec_name))
    rng = np.random.default_rng(7)
    for _ in range(3):
        rc = random_regular_reduced(spec, rng)
        assert step_both(Potential(spec.b, rc.w), rc.xi, rc.eta, 1e-3, 300) == 300


def test_uncoupled_block_kernels_bitwise(spec212, rng):
    # the m = 1 block has w = 0: only b xi, and its signed xi may cross zero
    rc = random_regular_reduced(spec212, rng)
    assert rc.w[1] == 0.0
    assert step_both(Potential(spec212.b, rc.w), rc.xi, rc.eta, 1e-2, 400) == 400


def test_negative_coupling_kernels_bitwise_to_blow_up(spec22):
    xi0, eta0 = np.array([0.4, np.sqrt(1 - 0.16)]), np.zeros(2)
    with np.errstate(over="ignore", invalid="ignore"):
        steps = step_both(Potential(spec22.b, [-0.25, 0.25]), xi0, eta0, 1e-3, 1000, 1e8)
    # the blow-up time that test_negative_coupling_blowup pins, 0.349
    assert steps == 349


def test_within_catches_nan_anywhere():
    nan = float("nan")
    assert model._within([1.0, 2.0], [0.0, 0.0], 2.0)
    assert not model._within([1.0, 2.0], [0.0, 0.0], 1.5)
    assert not model._within([1.0, nan], [0.0, 0.0], 1e8)
    assert not model._within([1.0, 0.0], [0.0, nan], 1e8)
    assert not model._within(np.array([1.0, nan]), np.zeros(2), 1e8)


def test_integrate_equals_batch_row(spec212, rng):
    pts = [random_phase_point(spec212, rng) for _ in range(3)]
    batch = integrate_batch(spec212, np.array([p.x for p in pts]), np.array([p.y for p in pts]),
                            2.0, dt=1e-3, save_every=100)
    for r, p in enumerate(pts):
        single = integrate(spec212, p, 2.0, dt=1e-3, save_every=100)
        assert np.array_equal(single.t, batch.t)
        assert np.array_equal(single.x, batch.x[:, r]) and np.array_equal(single.y, batch.y[:, r])


def test_integrate_reduced_equals_batch_row(spec222, rng):
    states = [random_regular_reduced(spec222, rng) for _ in range(3)]
    w = states[0].w
    xi, eta = np.array([s.xi for s in states]), np.array([s.eta for s in states])
    t, xb, yb = integrate_projected(Potential(spec222.b, w), xi, eta, 2.0, 1e-3, 100, 1e8)
    for r in range(len(states)):
        single = integrate_reduced(spec222, w, xi[r], eta[r], 2.0, dt=1e-3, save_every=100)
        assert np.array_equal(single.t, t)
        assert np.array_equal(single.xi, xb[:, r]) and np.array_equal(single.eta, yb[:, r])


def test_measure_period_equals_numpy_kernel(spec22, monkeypatch):
    w, xi0, eta0 = (0.26, 0.24), np.array([np.cos(0.82), np.sin(0.82)]), np.zeros(2)
    floats = measure_period(spec22, w, xi0, eta0)
    monkeypatch.setattr(model, "FLOAT_KERNEL_MAX_COORDS", 0)
    assert measure_period(spec22, w, xi0, eta0) == floats


def test_kernel_follows_the_state_shape(monkeypatch):
    assert type(kernel_state(np.zeros(model.FLOAT_KERNEL_MAX_COORDS))) is list
    for x in (np.zeros(8), np.zeros((1, 2)), np.zeros((3, 1))):
        assert kernel_state(x) is x
    # at k = 8 numpy no longer sums left to right, so integrate keeps the numpy kernel
    spec = validate_spectrum((0.0, 1.0, 2.0, 3.0), (2, 2, 2, 2))
    p = random_phase_point(spec, np.random.default_rng(3))
    calls = []
    monkeypatch.setattr(model, "_rk4_step_floats", lambda *a: calls.append(a))
    traj = integrate(spec, p, 0.1, dt=1e-3)
    assert not calls and traj.x.shape == (11, 8)
