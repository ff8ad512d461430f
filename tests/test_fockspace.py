import numpy as np
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from wignerhvm import fockspace

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
            got = fockspace.displacement_matrix(alpha, cutoff)
            want = closed_form_displacement(alpha, cutoff)
            assert got.shape == (cutoff, cutoff)
            assert np.max(np.abs(got - want)) < 1e-12, (cutoff, alpha)


def test_displacement_matrix_array_input_stacks_scalar_results():
    alphas = np.array([[0.3, 1.5 + 0.7j, -2.2j], [0.0, -1.1 - 1.9j, 3.0]])
    table = fockspace.displacement_matrix(alphas, 12)
    assert table.shape == (12, 12, 2, 3)
    for idx in np.ndindex(alphas.shape):
        single = fockspace.displacement_matrix(alphas[idx], 12)
        assert np.max(np.abs(table[(...,) + idx] - single)) < 1e-15


def test_displacement_matrix_matches_exponential():
    cutoff, block = 60, 20
    a = fockspace.annihilation(cutoff)
    for alpha in (0.4, 1.2 - 0.5j, -0.8j, 2.0):
        ref = expm(alpha * a.conj().T - np.conj(alpha) * a)
        got = fockspace.displacement_matrix(alpha, cutoff)
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
    got = fockspace.displacement_trace(A, alphas)
    table = fockspace.displacement_matrix(alphas, cutoff)
    want = np.einsum("ij,ji...->...", A, table)
    assert got.shape == alphas.shape
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
