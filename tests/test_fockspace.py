import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from wignerhvm import fockspace
from wignerhvm.phase_space import random_symplectic

from reference import (annihilation, displacement_matrix,
                       full_depth_displacement_trace, frexp_hermite_functions,
                       member_bargmann, member_metaplectic_operator,
                       quantize_linear, whole_table_hermite_functions)

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
    a = annihilation(cutoff)
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
    got = full_depth_displacement_trace(A[None], alphas)[0]
    table = displacement_matrix(alphas, cutoff)
    want = np.einsum("ij,ji...->...", A, table)
    assert got.shape == alphas.shape
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_metaplectic_covariance_and_group_law():
    """M^dag R_hat M = S R_hat and M(S1) M(S2) = e^(i theta) M(S1 S2).

    Both hold exactly for the infinite operators; on a low block of a
    cutoff-40 truncation the only error is the truncated sum over
    intermediate levels.
    """
    cutoff, block = 40, 8
    sub = slice(block), slice(block)
    ops = [quantize_linear(e, cutoff) for e in np.eye(2)]
    rng = np.random.default_rng(7)
    for _ in range(3):
        S1 = random_symplectic(1, rng, scale=0.3)
        S2 = random_symplectic(1, rng, scale=0.3)
        M1 = fockspace.metaplectic_operator(S1, cutoff)
        M2 = fockspace.metaplectic_operator(S2, cutoff)
        for row, op in zip(S1, ops):
            moved = M1.conj().T @ op @ M1
            want = quantize_linear(row, cutoff)
            assert np.max(np.abs(moved[sub] - want[sub])) < 1e-6
        product = (M1 @ M2)[sub]
        direct = fockspace.metaplectic_operator(S1 @ S2, cutoff)[sub]
        phase = np.vdot(direct.ravel(), product.ravel())
        phase /= abs(phase)
        assert np.max(np.abs(product - phase * direct)) < 1e-9


@pytest.mark.parametrize("modes, cutoff, stack",
                         [(1, 50, 1), (1, 50, 20), (1, 256, 2)])
def test_stacked_metaplectic_operators_keep_every_bit(modes, cutoff, stack):
    # one stacked recurrence gives each member the bits of its own
    rng = np.random.default_rng(17)
    symplectics = [random_symplectic(modes, rng, scale=0.3)
                   for _ in range(stack)]
    got = fockspace.metaplectic_operators(symplectics, cutoff)
    assert got.shape == (stack, cutoff ** modes, cutoff ** modes)
    for S, M in zip(symplectics, got):
        want = member_metaplectic_operator(S, cutoff).tobytes()
        assert M.tobytes() == want
        assert fockspace.metaplectic_operator(S, cutoff).tobytes() == want


@pytest.mark.parametrize("cutoff", [2, 20, 50])
def test_metaplectic_columns_are_the_whole_operators(cutoff):
    # column k of the recurrence reads only columns <= k
    rng = np.random.default_rng(cutoff)
    symplectics = [random_symplectic(1, rng, scale=0.3) for _ in range(20)]
    whole = fockspace.metaplectic_operators(symplectics, cutoff)
    for k in sorted({1, 2, 12, cutoff} & set(range(1, cutoff + 1))):
        got = fockspace.metaplectic_operators(symplectics, cutoff, k)
        assert got.tobytes() == np.ascontiguousarray(whole[..., :k]).tobytes()
        one = fockspace.metaplectic_operator(symplectics[0], cutoff, k)
        assert one.tobytes() == got[0].tobytes()


@pytest.mark.parametrize("axes, cutoff, stack",
                         [(2, 30, 1), (2, 30, 4)])
def test_stacked_bargmann_keeps_every_bit(axes, cutoff, stack):
    # a first-order term b and a general complex A, as gaussian_to_fock
    # passes them, on the two axes of one mode's (ket, bra)
    rng = np.random.default_rng(axes * cutoff + stack)

    def normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    A, b, g0 = (0.3 * normal(stack, axes, axes), normal(stack, axes),
                normal(stack))
    got = fockspace._bargmann(A, b, g0, cutoff)
    assert got.shape == (stack,) + (cutoff,) * axes
    for t in range(stack):
        want = member_bargmann(A[t], b[t], g0[t], cutoff)
        assert got[t].tobytes() == want.tobytes()


def test_metaplectic_operators_reject_a_non_symplectic_member():
    with pytest.raises(ValueError, match="not symplectic"):
        fockspace.metaplectic_operators([np.eye(2), 2 * np.eye(2)], 10)
    # a two-mode symplectic matrix is not a one-mode member
    with pytest.raises(ValueError, match="not symplectic"):
        fockspace.metaplectic_operators([np.eye(4)], 10)


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


@pytest.mark.parametrize("n_max", (0, 1, 2, 30, 60))
def test_hermite_functions_keep_the_whole_table_bits(n_max):
    # e^(-x^2/2) underflows past |x| = 37.64: there the rows are carried
    # scaled, and the plain table reads 0 where psi does not
    axis = np.linspace(-45.0, 45.0, 1801)
    grid = axis[:1800].reshape(40, 45)  # a 2-D x is read flattened
    empty = np.array([])  # hermite_overlap_cdf at infinite points only
    for x in (axis, grid, empty):
        got = fockspace.hermite_functions(n_max, x)
        want = whole_table_hermite_functions(n_max, x.ravel())
        assert got.shape == want.shape == (n_max + 1, x.size)
        plain = np.abs(x.ravel()) <= 37.64
        assert np.array_equal(got[:, plain].view(np.int64),
                              want[:, plain].view(np.int64))
        ref = frexp_hermite_functions(n_max, x.ravel()[~plain])
        tail = got[:, ~plain]
        resolved = np.abs(ref) > 1e-290
        assert np.all(np.abs(tail - ref)[resolved]
                      <= 1e-12 * np.abs(ref[resolved]))
        assert np.all(np.abs(tail - ref)[~resolved] <= 1e-300)


def test_hermite_rows_past_the_underflow_point():
    # psi_900 turns at sqrt(1801) = 42.4; e^(-x^2/2) is 0 there, but the
    # scaled rows keep the top rows' tails
    x = np.array([-50.0, -40.0, -38.0, 38.0, 40.0, 41.5, 43.0, 50.0])
    got = fockspace.hermite_functions(900, x)
    ref = frexp_hermite_functions(900, x)
    assert np.max(np.abs(got[900])) > 0.05
    resolved = np.abs(ref) > 1e-290
    assert np.all(np.abs(got - ref)[resolved]
                  <= 1e-10 * np.abs(ref[resolved]))
    assert np.all(np.abs(got - ref)[~resolved] <= 1e-300)
    # far past any row's support: 0, with no warning and no NaN
    far = fockspace.hermite_functions(30, np.array([1e3, 1e150, -1e153]))
    assert np.array_equal(far, np.zeros_like(far))
