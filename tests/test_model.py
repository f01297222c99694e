import numpy as np
import pytest

from neumann import (PhasePoint, constraint_values, hamiltonian, torus_dimension,
                     validate_spectrum, vector_field)
from neumann.errors import ConfigError, OffManifoldError
from neumann.model import potential_gradient, random_phase_point

from conftest import reference_point


def test_validate_spectrum_bookkeeping():
    spec = validate_spectrum((0, 1), (2, 2))
    assert spec.n == 3 and spec.ell == 1 and spec.ell_tilde == 1
    assert list(spec.block_indices(0)) == [0, 1]
    assert list(spec.block_indices(1)) == [2, 3]

    spec = validate_spectrum((0, 1, 2), (2, 1, 2))
    assert spec.n == 4 and spec.ell == 2
    assert spec.ell_tilde == 1  # blocks 0 and 2 carry m >= 2
    assert spec.degenerate_blocks == (0, 2)


@pytest.mark.parametrize("b,m", [((1, 0), (1, 1)), ((0, 0), (1, 1)),
                                 ((0, 1), (0, 2)), ((), ()), ((0, 1), (1,))])
def test_validate_spectrum_rejects(b, m):
    with pytest.raises(ConfigError):
        validate_spectrum(b, m)


def test_spectrum_roundtrip_dict():
    from neumann.model import SpectrumSpec
    spec = validate_spectrum((0, 1, 2), (2, 1, 2))
    assert SpectrumSpec.from_dict(spec.to_dict()) == spec


def test_hamiltonian_examples():
    spec = validate_spectrum((0, 1), (2, 2))
    assert hamiltonian(spec, PhasePoint([1, 0, 0, 0], [0, 0, 0, 0])) == 0.0
    assert hamiltonian(spec, PhasePoint([0, 0, 1, 0], [0, 1, 0, 0])) == 1.0
    assert hamiltonian(spec, reference_point()) == pytest.approx(1.25, abs=1e-15)


def test_hamiltonian_block_rotation_invariance(rng):
    spec = validate_spectrum((0.0, 1.0, 2.0), (2, 1, 3))
    for _ in range(20):
        p = random_phase_point(spec, rng)
        x, y = p.x.copy(), p.y.copy()
        for sigma in range(spec.ell + 1):
            sl = spec.block_slice(sigma)
            g = np.linalg.qr(rng.normal(size=(spec.m[sigma], spec.m[sigma])))[0]
            x[sl] = g @ x[sl]
            y[sl] = g @ y[sl]
        assert hamiltonian(spec, PhasePoint(x, y)) == pytest.approx(
            hamiltonian(spec, p), rel=1e-13)


def test_vector_field_equilibrium_and_plane_case():
    spec = validate_spectrum((0, 1), (2, 2))
    xd, yd = vector_field(spec, PhasePoint([1, 0, 0, 0], [0, 0, 0, 0]))
    assert np.allclose(xd, 0) and np.allclose(yd, 0)

    # gradV = (0,0,1,0), <x,gradV> = 1, 2T = 1 -> ydot = -gradV
    xd, yd = vector_field(spec, PhasePoint([0, 0, 1, 0], [0, 1, 0, 0]))
    assert np.allclose(xd, [0, 1, 0, 0])
    assert np.allclose(yd, [0, 0, -1, 0])


def test_vector_field_geodesic_central_force(rng):
    spec = validate_spectrum((2.5,), (4,))
    for _ in range(5):
        p = random_phase_point(spec, rng)
        _, yd = vector_field(spec, p)
        two_t = np.dot(p.y, p.y)
        assert np.allclose(yd, -two_t * p.x, atol=1e-12)


def test_vector_field_rejects_off_manifold():
    spec = validate_spectrum((0, 1), (2, 2))
    with pytest.raises(OffManifoldError):
        vector_field(spec, PhasePoint([2, 0, 0, 0], [0, 0, 0, 0]))


def test_constraint_derivative_identities(rng):
    # d/dt C1 = 2 C2 everywhere; d/dt C2 = 0 on C1 = 1
    spec = validate_spectrum((0.0, 0.7, 2.0), (1, 2, 2))
    from neumann.model import constrained_field
    for _ in range(30):
        x = rng.normal(size=5)
        y = rng.normal(size=5)
        xd, yd = constrained_field(spec.a_vec * x, x, y)
        c1dot = 2 * np.dot(x, xd)
        assert c1dot == pytest.approx(2 * np.dot(x, y), rel=1e-12, abs=1e-12)
        x /= np.linalg.norm(x)
        xd, yd = constrained_field(spec.a_vec * x, x, y)
        c2dot = np.dot(xd, y) + np.dot(x, yd)
        assert abs(c2dot) < 1e-12 * (1 + np.dot(y, y))


def test_constraint_values_examples():
    assert constraint_values(PhasePoint([1, 0], [0, 0])) == (1.0, 0.0)
    c1, c2 = constraint_values(reference_point())
    assert c1 == pytest.approx(1.0) and c2 == pytest.approx(0.0)
    assert constraint_values(PhasePoint([2, 0], [1, 0])) == (4.0, 2.0)


def test_torus_dimension():
    assert torus_dimension(validate_spectrum((0, 1), (2, 2))) == 3
    assert torus_dimension(validate_spectrum((0,), (3,))) == 1
    # all multiplicities <= 2: the fibres are Lagrangian, dimension n
    spec = validate_spectrum((0, 1, 2), (1, 1, 1))
    assert torus_dimension(spec) == spec.n == 2
    spec = validate_spectrum((0, 1, 2), (2, 1, 2))
    assert torus_dimension(spec) == spec.n == 4


def test_spectrum_from_eigenvalues_permutation():
    from neumann.model import spectrum_from_eigenvalues
    a = [1.0, 0.0, 2.0, 0.0, 1.0]
    spec, perm = spectrum_from_eigenvalues(a)
    assert spec.b == (0.0, 1.0, 2.0) and spec.m == (2, 2, 1)
    assert [a[k] for k in perm] == sorted(a)
    spec2, _ = spectrum_from_eigenvalues([0.0, 1.0 - 1e-12, 1.0], tol=1e-9)
    assert spec2.m == (1, 2)


def test_potential_gradient_blockwise():
    spec = validate_spectrum((0, 1), (2, 2))
    g = potential_gradient(spec, np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(g, [0, 0, 3, 4])
