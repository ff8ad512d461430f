import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from wignerhvm import fockspace
from wignerhvm.cli import _multiplicativity_cases
from wignerhvm.phase_space import random_symplectic
from wignerhvm.states import StateSpec, make_state
from wignerhvm.weyl import (default_observable_char_spec, quantize_linear,
                            quantize_terms)

from reference import displacement_matrix, full_depth_displacement_trace

ALPHAS = (0.0, 0.3, 1.5 + 0.7j, -2.2j, -1.1 - 1.9j, 3.0)


def closed_form_displacement(alpha: complex, cutoff: int) -> np.ndarray:
    """<m|D(alpha)|n> entry by entry from the generalized Laguerre closed form.

    <m|D|n> = sqrt(n!/m!) alpha^(m-n) e^(-|alpha|^2/2) L_n^(m-n)(|alpha|^2)
    for m >= n, and the conjugate-reflected form below the diagonal.
    """
    x = abs(alpha) ** 2
    env = np.exp(-x / 2)
    D = np.zeros((cutoff, cutoff), dtype=complex)
    for n in range(cutoff):
        for m in range(cutoff):
            lo, hi = min(m, n), max(m, n)
            k = hi - lo
            pref = np.exp(0.5 * (gammaln(lo + 1) - gammaln(hi + 1)))
            lag = eval_genlaguerre(lo, k, x)
            if m >= n:
                D[m, n] = pref * alpha ** k * env * lag
            else:
                D[m, n] = pref * (-np.conj(alpha)) ** k * env * lag
    return D


def test_displacement_matrix_matches_closed_form():
    for cutoff in (5, 30, 60):
        for alpha in ALPHAS:
            got = displacement_matrix(alpha, cutoff)
            want = closed_form_displacement(alpha, cutoff)
            assert got.shape == (cutoff, cutoff)
            assert np.max(np.abs(got - want)) < 1e-12, (cutoff, alpha)


def test_displacement_matrix_array_input_stacks_scalar_results():
    alphas = np.array([[0.3, 1.5 + 0.7j, -2.2j], [0.0, -1.1 - 1.9j, 3.0]])
    table = displacement_matrix(alphas, 12)
    assert table.shape == (12, 12, 2, 3)
    for idx in np.ndindex(alphas.shape):
        single = displacement_matrix(alphas[idx], 12)
        assert np.max(np.abs(table[(...,) + idx] - single)) < 1e-15


def test_displacement_matrix_matches_exponential():
    cutoff, block = 60, 20
    a = fockspace.annihilation(cutoff)
    for alpha in (0.4, 1.2 - 0.5j, -0.8j, 2.0):
        ref = expm(alpha * a.conj().T - np.conj(alpha) * a)
        got = displacement_matrix(alpha, cutoff)
        assert np.max(np.abs(got[:block, :block]
                             - ref[:block, :block])) < 1e-12, alpha


def test_displacement_trace_matches_table_contraction():
    rng = np.random.default_rng(7)
    cutoff = 15
    A = rng.normal(size=(cutoff, cutoff)) + 1j * rng.normal(size=(cutoff, cutoff))
    # exactly repeated radii: (q, p) <-> (p, q), sign flips, and the origin
    qp = np.array([[0.3, 1.1], [1.1, 0.3], [-0.3, 1.1], [0.3, -1.1],
                   [-1.1, -0.3], [2.0, 0.0], [-2.0, 0.0], [0.0, 2.0],
                   [0.0, 0.0], [0.7, -2.4]])
    alphas = ((qp[:, 0] + 1j * qp[:, 1]) / np.sqrt(2)).reshape(2, 5)
    assert np.unique(np.abs(alphas) ** 2).size < alphas.size
    got = fockspace.displacement_trace(A[None], alphas)[0]
    table = displacement_matrix(alphas, cutoff)
    want = np.einsum("ij,ji...->...", A, table)
    assert got.shape == alphas.shape
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def reference_displacement_trace(A, alphas):
    """The earlier displacement_trace loop: alpha^k by pow, conj for -k."""
    A = np.asarray(A, dtype=complex)
    alphas = np.asarray(alphas, dtype=complex)
    flat = alphas.reshape(-1)
    cutoff = A.shape[0]
    radii, where = np.unique(np.abs(flat) ** 2, return_inverse=True)
    out = np.zeros(flat.shape, dtype=complex)
    for k, n, value in fockspace._laguerre_diagonals(
            radii, range(cutoff, 0, -1)):
        if n == 0:
            upper = np.zeros(radii.shape, dtype=complex)  # A[n, n+k] terms
            lower = np.zeros(radii.shape, dtype=complex)  # A[n+k, n] terms
        if A[n, n + k]:
            upper += A[n, n + k] * value
        if k and A[n + k, n]:
            lower += A[n + k, n] * value
        if n == cutoff - 1 - k and (upper.any() or lower.any()):
            power = flat ** k
            out += upper[where] * power
            if k:
                out += lower[where] * ((-1) ** k * np.conj(power))
    return out.reshape(alphas.shape)


def test_displacement_trace_matches_reference_loop():
    grid = np.linspace(-6.0, 6.0, 61)
    vq, vp = np.meshgrid(grid, grid, indexing="ij")
    alphas = (vq + 1j * vp) / np.sqrt(2)
    rng = np.random.default_rng(11)
    cat = make_state(StateSpec("cat", {"alpha": 2.0}, 1, 30)).matrix
    gkp = make_state(StateSpec("gkp", {"delta": 0.3}, 1, 60)).matrix
    pss = make_state(StateSpec("photon_subtracted_squeezed", {"r": 0.5},
                               1, 30)).matrix
    parity = (-1.0) ** np.arange(30)[:, None]
    general = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
    gapped = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    gapped[np.arange(9), np.arange(3, 12)] = 0  # offset +3
    gapped[np.arange(3, 12), np.arange(9)] = 0  # offset -3
    # exactly repeated radii: (q, p) <-> (p, q), sign flips, and the origin
    qp = np.array([[0.3, 1.1], [1.1, 0.3], [-0.3, 1.1], [0.3, -1.1],
                   [-1.1, -0.3], [2.0, 0.0], [-2.0, 0.0], [0.0, 2.0],
                   [0.0, 0.0], [0.7, -2.4]])
    repeated = ((qp[:, 0] + 1j * qp[:, 1]) / np.sqrt(2)).reshape(2, 5)
    cases = [(cat, alphas), (gkp, alphas), (parity * pss, 2 * alphas),
             (general, alphas), (gapped, alphas), (general, repeated)]
    for A, points in cases:
        want = reference_displacement_trace(A, points)
        got = fockspace.displacement_trace(A[None], points)[0]
        assert got.shape == points.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_displacement_trace_stack_rows_match_reference_loop():
    """One call on an (r, c, c) stack gives each row's own trace."""
    grid = np.linspace(-6.0, 6.0, 61)
    vq, vp = np.meshgrid(grid, grid, indexing="ij")
    alphas = (vq + 1j * vp) / np.sqrt(2)
    rng = np.random.default_rng(5)
    c = 6
    general = rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c))
    gapped = rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c))
    gapped[np.arange(3), np.arange(3, 6)] = 0  # offset +3
    gapped[np.arange(3, 6), np.arange(3)] = 0  # offset -3
    # the matrix units kronecker_factors makes for a dense two-mode rho
    dim = c * c
    root = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = root @ root.conj().T
    units, blocks = fockspace.kronecker_factors(rho / np.trace(rho), 2)
    assert units.shape == (c * c, c, c)
    stack = np.concatenate([np.zeros((1, c, c)), general[None], gapped[None],
                            units, blocks])
    got = fockspace.displacement_trace(stack, alphas)
    assert got.shape == (len(stack),) + alphas.shape
    assert not got[0].any()
    for A, row in zip(stack[1:], got[1:]):
        want = reference_displacement_trace(A, alphas)
        assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))


def test_offset_skipping_keeps_every_bit_of_the_full_depth_loop(monkeypatch):
    """Unused offsets and diagonal tails are skipped, bit for bit."""
    depths = []
    real = fockspace._laguerre_diagonals

    def recorded(x, offsets):
        depths.append(list(offsets))
        return real(x, offsets)

    monkeypatch.setattr(fockspace, "_laguerre_diagonals", recorded)
    spec = default_observable_char_spec(2, 30)
    vq, vp = np.meshgrid(spec.axis, spec.axis, indexing="ij")
    alphas = (vq + 1j * vp) / np.sqrt(2)
    parity = (-1.0) ** np.arange(30)[:, None]

    def matrix(kind, params, cutoff=30):
        return make_state(StateSpec(kind, params, 1, cutoff)).matrix[None]

    pss = matrix("photon_subtracted_squeezed", {"r": 0.5})
    stacks = [(matrix("fock", {"n": 1}), alphas),
              (matrix("fock", {"n": 5}), alphas),
              (matrix("cat", {"alpha": 2.0}), alphas),
              (pss, alphas), (parity * pss, 2 * alphas),
              (matrix("gkp", {"delta": 0.3}, 60), alphas)]
    for _, obs in _multiplicativity_cases(30):
        stacks += [(stack, alphas) for stack in quantize_terms(obs, 30)]
    for A, points in stacks:
        got = fockspace.displacement_trace(A, points)
        assert np.array_equal(got, full_depth_displacement_trace(A, points))
    # |1><1| needs offset 0 to n = 1 only and |5><5| offset 0 to n = 5; the
    # even cat has no odd offsets and no odd level, so offset k stops at
    # n = 28 - k
    assert depths[0] == [2] + [0] * 29
    assert depths[1] == [6] + [0] * 29
    assert depths[2] == [29 - k if k % 2 == 0 else 0 for k in range(30)]


def test_metaplectic_two_mode_covariance_and_group_law():
    """M^dag R_hat M = S R_hat and M(S1) M(S2) = e^(i theta) M(S1 S2).

    Both hold exactly for the infinite operators; on a low block of a
    cutoff-16 truncation the only error is the truncated sum over
    intermediate levels.
    """
    cutoff, block = 16, 4
    low = np.arange(cutoff) < block
    sub = np.ix_(np.kron(low, low), np.kron(low, low))
    ops = [quantize_linear(e, cutoff).matrix for e in np.eye(4)]
    rng = np.random.default_rng(7)
    for _ in range(3):
        S1 = random_symplectic(2, rng, scale=0.1)
        S2 = random_symplectic(2, rng, scale=0.1)
        M1 = fockspace.metaplectic_operator(S1, cutoff)
        M2 = fockspace.metaplectic_operator(S2, cutoff)
        for row, op in zip(S1, ops):
            moved = M1.conj().T @ op @ M1
            want = quantize_linear(row, cutoff).matrix
            assert np.max(np.abs(moved[sub] - want[sub])) < 1e-6
        product = (M1 @ M2)[sub]
        direct = fockspace.metaplectic_operator(S1 @ S2, cutoff)[sub]
        phase = np.vdot(direct.ravel(), product.ravel())
        phase /= abs(phase)
        assert np.max(np.abs(product - phase * direct)) < 1e-9


def hermite_product(m: int, n: int, s: float) -> float:
    """psi_m(s) psi_n(s) from the scalar three-term recurrence."""
    psi = [math.pi ** -0.25 * math.exp(-s * s / 2)]
    for k in range(max(m, n)):
        prev = psi[k - 1] if k else 0.0
        psi.append(math.sqrt(2 / (k + 1)) * s * psi[k]
                   - math.sqrt(k / (k + 1)) * prev)
    return psi[m] * psi[n]


def test_hermite_overlap_cdf_matches_quad():
    xs = np.array([-9.0, -1.3, 0.2, 3.3, 8.0])
    for cutoff in (30, 60):
        F = fockspace.hermite_overlap_cdf(cutoff, xs)
        assert F.shape == (cutoff, cutoff, xs.size)
        assert np.array_equal(F, F.transpose(1, 0, 2))
        # every psi_n, n < cutoff, is below 1e-30 left of this point
        lo = -(np.sqrt(2 * cutoff + 1) + 12)
        top = cutoff - 1
        pairs = ((0, 0), (7, 7), (top, top), (4, 5), (top - 1, top),
                 (3, cutoff // 2), (0, top))
        for m, n in pairs:
            for x, got in zip(xs, F[m, n]):
                ref, _ = quad(lambda s: hermite_product(m, n, s), lo, x,
                              limit=400, epsabs=1e-14, epsrel=1e-13)
                assert abs(got - ref) < 1e-12, (cutoff, m, n, x)


def test_hermite_overlap_cdf_limits_are_exact():
    cutoff = 40
    F = fockspace.hermite_overlap_cdf(cutoff, [-np.inf, np.inf])
    assert np.array_equal(F[..., 0], np.zeros((cutoff, cutoff)))
    assert np.array_equal(F[..., 1], np.eye(cutoff))
    axis = np.concatenate([[-np.inf], np.linspace(-60, 60, 241), [np.inf]])
    F = fockspace.hermite_overlap_cdf(cutoff, axis)
    assert not np.any(np.isnan(F))
    diag = F[np.arange(cutoff), np.arange(cutoff)]
    assert np.all(np.diff(diag, axis=1) >= -1e-15)
    assert np.max(np.abs(F[..., -2] - np.eye(cutoff))) < 1e-15
    assert fockspace.hermite_overlap_cdf(3, np.zeros((2, 4))).shape == \
        (3, 3, 2, 4)
