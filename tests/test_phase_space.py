import numpy as np
import pytest
from scipy.linalg import expm

from wignerhvm.phase_space import (ALGEBRAIC_TOL, Context, _expm, is_context,
                                   is_symplectic, observable_label, omega,
                                   plane_decomposition_vectors,
                                   planewise_decomposition_commutes,
                                   random_symplectic, symplectic_form)


def test_symplectic_form_examples():
    assert symplectic_form([1, 0], [0, 1]) == -1.0
    assert symplectic_form([3, 7], [3, 7]) == 0.0
    assert symplectic_form([1, 0, 0, 0], [0, 1, 0, 0]) == 0.0


def test_symplectic_form_antisymmetry_exact():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        u = rng.uniform(-10, 10, 2 * m)
        v = rng.uniform(-10, 10, 2 * m)
        assert symplectic_form(u, v) == -symplectic_form(v, u)


def test_symplectic_form_bilinearity():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        u, w, v = (rng.uniform(-10, 10, 2 * m) for _ in range(3))
        a, b = rng.uniform(-10, 10, 2)
        lhs = symplectic_form(a * u + b * w, v)
        rhs = a * symplectic_form(u, v) + b * symplectic_form(w, v)
        assert abs(lhs - rhs) < 1e-10


def test_symplectic_form_dimension_mismatch():
    with pytest.raises(ValueError):
        symplectic_form([1, 0], [1, 0, 0, 0])


def test_observable_label_needs_a_normal_squared_norm():
    for zeta in ([1e-300, 0], [1e160, 0], [1e300, 1e300], [1e-170, 1e-170]):
        with pytest.raises(ValueError, match="squared norm"):
            observable_label(zeta, 1)
    # labels far from unit size whose squared norm is still normal
    for zeta in ([1e-150, 0], [1e150, -1e150]):
        assert np.array_equal(observable_label(zeta, 1), zeta)


def test_is_context_examples():
    assert is_context([[1, 0, 0, 0], [0, 1, 0, 0]])
    assert not is_context([[1, 0], [0, 1]])
    assert not is_context([[1, 0, 0, 0], [2, 0, 0, 0]])


def test_context_rejects_degenerate():
    with pytest.raises(ValueError):
        Context([[1, 0], [2, 0]])


def test_plane_decomposition_examples():
    u, v, u2, v2 = plane_decomposition_vectors(1.0, 1.0, 0, 1, 2)
    assert planewise_decomposition_commutes(u, v, u2, v2)
    u, v, u2, v2 = plane_decomposition_vectors(0.0, 0.0, 0, 1, 2)
    assert planewise_decomposition_commutes(u, v, u2, v2)


def test_plane_decomposition_random():
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = 3
        i, j = rng.choice(m, size=2, replace=False)
        alpha, beta = rng.uniform(-10, 10, 2)
        vecs = plane_decomposition_vectors(alpha, beta, int(i), int(j), m)
        assert planewise_decomposition_commutes(*vecs, tol=ALGEBRAIC_TOL)


def test_assignment_additivity_and_decomposition():
    # phi . zeta is additive for every pair, and reconstructing the value of
    # u + v through the two-plane split returns the same linear functional
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = int(rng.integers(2, 5))
        phi = rng.uniform(-5, 5, 2 * m)
        z1, z2 = rng.uniform(-5, 5, (2, 2 * m))
        assert abs(phi @ (z1 + z2) - (phi @ z1 + phi @ z2)) < 1e-10
        i, j = rng.choice(m, size=2, replace=False)
        alpha, beta = rng.uniform(-10, 10, 2)
        u, v, u2, v2 = plane_decomposition_vectors(
            alpha, beta, int(i), int(j), m)
        direct = phi @ (u + v)
        split = 0.5 * (phi @ (u + v + u2 + v2) + phi @ (u + v - u2 - v2))
        assert abs(direct - split) < 1e-10


def test_random_symplectic_is_symplectic():
    rng = np.random.default_rng(6)
    for m in (1, 2, 3):
        assert is_symplectic(random_symplectic(m, rng), tol=1e-9)
        for scale in (0.15, 2.0):
            assert is_symplectic(random_symplectic(m, rng, scale=scale),
                                 tol=1e-9)


# At scale 2 scipy's expm itself is off by up to 2.5e-13 (relative, 1-norm)
# from a 40-digit reference, where the Taylor route stays within 1.2e-14
EXPM_TOLERANCE = {0.15: 1e-14, 0.5: 1e-14, 2.0: 1e-12}


@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("scale", sorted(EXPM_TOLERANCE))
def test_expm_matches_scipy_on_hamiltonian_matrices(m, scale):
    rng = np.random.default_rng(40 + m)
    for _ in range(20):
        g = rng.normal(scale=scale, size=(2 * m, 2 * m))
        a = -omega(m) @ (g + g.T) / 2
        want = expm(a)
        err = np.linalg.norm(_expm(a) - want, 1) / np.linalg.norm(want, 1)
        assert err <= EXPM_TOLERANCE[scale], err


def test_expm_of_zero_is_exact_identity():
    for n in (2, 4, 6):
        assert np.array_equal(_expm(np.zeros((n, n))), np.eye(n))
