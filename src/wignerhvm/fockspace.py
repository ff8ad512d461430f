"""Truncated-Fock-space matrix building blocks.

All operators use hbar = 1 with q = (a + a^dag)/sqrt(2) and
p = (a - a^dag)/(i sqrt(2)), so [q, p] = i below the truncation edge.
The Gaussian unitaries M(S) and the Bargmann recurrence behind them are
one-mode, as are a state's Hermite coefficients.  A quadrature is never
formed as a matrix: apply_quadrature acts with it on kets by two ladder
shifts.
"""

from __future__ import annotations

import numpy as np

from .phase_space import is_symplectic
from .special import ndtr

# nodes per block of the streamed grid routes: wigner_fock_direct forms a
# block of grid rows at a time, and wigner_to_csv dedupes a block of slabs
# (a 257^2 grid is one; its texts and np.unique arrays peak near 50 bytes a
# node when every value is distinct)
BLOCK_NODES = 2 ** 17
# hermite_rows scales a carried mantissa by 2^-RESCALE_BITS once it passes
# 2^RESCALE_BITS, far from both ends of float range
RESCALE_BITS = 256


def apply_quadrature(zeta, v: np.ndarray) -> np.ndarray:
    """(zeta_q q + zeta_p p) v on the truncated space, the Fock axis of v
    first.

    zeta_q q + zeta_p p = u a + conj(u) a^dag with u = (zeta_q - i
    zeta_p) / sqrt(2), and a v[n] = sqrt(n + 1) v[n + 1], so the product
    is two shifted slices of v weighted by sqrt(n): the truncated matrix
    product, with no matrix formed.
    """
    u = complex(zeta[0], -zeta[1]) / np.sqrt(2)
    roots = np.sqrt(np.arange(1, len(v))).reshape((-1,) + (1,) * (v.ndim - 1))
    out = np.zeros(v.shape, dtype=complex)
    out[:-1] = u * roots * v[1:]
    out[1:] += u.conjugate() * roots * v[:-1]
    return out


def coherent_amplitudes(alpha, cutoff: int) -> np.ndarray:
    """<n|alpha> = e^(-|alpha|^2/2) alpha^n / sqrt(n!) for n < cutoff, shape
    (cutoff, *alpha.shape), as a running product of alpha / sqrt(n): no
    alpha^n or n! is formed, so only e^(-|alpha|^2/2) can leave float range
    (it underflows to 0 past |alpha|^2 ~ 1490)."""
    alpha = np.asarray(alpha, dtype=complex)
    roots = np.sqrt(np.arange(1, cutoff)).reshape((-1,) + (1,) * alpha.ndim)
    with np.errstate(over="ignore"):  # |alpha|^2 = inf: every amplitude 0
        head = np.exp(-np.abs(alpha) ** 2 / 2)
    return np.cumprod(np.concatenate([head[None], alpha / roots]), axis=0)


def _bargmann(A: np.ndarray, b: np.ndarray, g0, cutoff: int,
              columns: int | None = None) -> np.ndarray:
    """Truncated two-axis Gaussian Bargmann arrays of a stack, k_0 < cutoff
    and k_1 < columns (default: cutoff).

    A is (T, 2, 2), b (T, 2) and g0 (T,) for T arrays; the result G is
    (T, cutoff, columns).  Exact elements from the recurrence (Quesada et
    al., PRA 100, 022341 (2019); Miatto & Quesada, Quantum 4, 366 (2020))
    G_(k+1_i) = (b_i G_k + sum_j A_ij sqrt(k_j) G_(k-1_j)) / sqrt(k_i + 1)
    from G_0 = g0.  Row 0, G[t, 0, :], is stepped along axis 1 one element
    at a time, member by member, in numpy scalar arithmetic, which rounds
    differently from array arithmetic.  The pass over axis 0
    then takes one array operation per level for the whole stack, each
    member's coefficient broadcast over its own row, so each element is
    rounded as the same operation on that member's row alone rounds it.
    Column k reads only columns <= k, so the first `columns` columns have
    the bits of the whole array's.
    """
    stack, columns = len(b), cutoff if columns is None else columns
    root = np.sqrt(np.arange(cutoff))
    G = np.zeros((stack, cutoff, columns), dtype=complex)
    for t in range(stack):
        line = G[t, 0]
        line[0] = g0[t]
        # root[0] = 0 zeroes the n = 0 term of the unset level -1
        for n in range(columns - 1):
            line[n + 1] = (b[t, 1] * line[n] + A[t, 1, 1] * root[n]
                           * line[n - 1]) / root[n + 1]
    first = b[:, 0, None]
    diagonal = A[:, 0, 0, None] * root  # A_00 sqrt(k_0), level by level
    later = A[:, 0, 1, None] * root[1:columns]  # A_01 sqrt(k_1), k_1 >= 1
    for n in range(cutoff - 1):
        row = G[:, n]
        step = first * row + diagonal[:, n, None] * G[:, n - 1]
        step[:, 1:] += later * row[:, :-1]
        G[:, n + 1] = step / root[n + 1]
    return G


def metaplectic_operators(S: np.ndarray, cutoff: int,
                          columns: int | None = None) -> np.ndarray:
    """The first `columns` columns (default: all) of metaplectic_operator
    of each of a (T, 2, 2) stack of one-mode symplectic matrices, as one
    (T, c, columns) array from one stacked `_bargmann`; ValueError if any
    member is not a 2 x 2 symplectic matrix."""
    S = np.asarray(S, dtype=float)
    if S.shape[1:] != (2, 2) or not all(is_symplectic(s, tol=1e-8)
                                        for s in S):
        raise ValueError("matrix is not symplectic on one mode")
    qq, qp, pq, pp = S[:, :1, :1], S[:, :1, 1:], S[:, 1:, :1], S[:, 1:, 1:]
    U = (qq + pp + 1j * (pq - qp)) / 2
    V = (qq - pp + 1j * (pq + qp)) / 2
    W = np.linalg.inv(U.conj().swapaxes(1, 2))
    A = np.block([[W @ V.swapaxes(1, 2), W],
                  [W.swapaxes(1, 2), -V.conj().swapaxes(1, 2) @ W]])
    g0 = [abs(det) ** -0.5 for det in np.linalg.det(U)]
    return _bargmann(A, np.zeros((len(S), 2), dtype=complex), g0, cutoff,
                     columns)


def metaplectic_operator(S: np.ndarray, cutoff: int,
                         columns: int | None = None) -> np.ndarray:
    """One-mode Fock-space unitary M with M^dag R_hat M = S R_hat, up to a
    global phase, for a 2 x 2 symplectic S; only its first `columns`
    columns (default: all), bit for bit those of the whole M.

    The b = 0 case of `_bargmann` over k = (out, in): with
    M^dag a M = U a + V a^dag and W = (U^dag)^-1,
    A = [[W V^T, W], [W^T, -V^dag W]] and G_0 = |det U|^(-1/2).
    """
    return metaplectic_operators(np.asarray(S, dtype=float)[None], cutoff,
                                 columns)[0]


def hermite_rows(n_max: int, x):
    """Yield psi_0..psi_n_max at x, one new array per row, by the upward
    recurrence on the normalized functions, whose O(1) rows never overflow.

    Where x^2/2 > -ln(tiny) (|x| > 37.64) e^(-x^2/2) would underflow, so
    there each row is carried as a mantissa times 2^e: e starts at
    floor(-x^2 / (2 ln 2)) and is raised by RESCALE_BITS whenever the
    mantissa passes 2^RESCALE_BITS, and the row is yielded as
    ldexp(mantissa, e).  Power-of-2 scaling is exact, and elsewhere e = 0,
    so the start and the recurrence there are those of the plain rows, bit
    for bit.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # an infinite x^2 starts rows of 0
        start = -x ** 2 / 2
    # below -2^30, where every row is 0, e stops and the mantissa underflows;
    # e then fits the int32 that np.ldexp takes without a slow cast
    exponent = np.zeros(x.shape, dtype=np.int32)
    tail = start < np.log(np.finfo(float).tiny)
    exponent[tail] = np.floor(np.maximum(start[tail], -2.0 ** 30) / np.log(2))
    start[tail] -= exponent[tail] * np.log(2)
    prev, row = 0.0, np.pi ** -0.25 * np.exp(start)
    yield np.ldexp(row, exponent)
    for n in range(n_max):  # the first step's prev term is exactly 0.0
        prev, row = row, (np.sqrt(2.0 / (n + 1)) * x * row
                          - np.sqrt(n / (n + 1)) * prev)
        big = np.abs(row) > 2.0 ** RESCALE_BITS
        row[big] *= 2.0 ** -RESCALE_BITS
        prev[big] *= 2.0 ** -RESCALE_BITS
        exponent[big] += RESCALE_BITS
        yield np.ldexp(row, exponent)


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """The (n_max + 1, x.size) table of the streamed hermite_rows on x.ravel();
    gkp_state's quadrature takes a row at a time: no cutoff-sized memory."""
    out = np.empty((n_max + 1, np.size(x)))
    for n, row in enumerate(hermite_rows(n_max, np.ravel(x))):
        out[n] = row
    return out


def _beam_splitter_bands(cutoff: int, top: int):
    """Yield (n, lo, B_n[:, lo:hi + 1]) for n = 0..top, the m in lo..hi
    being those with m, n - m < cutoff.

    B_n is the real orthogonal block of a 50:50 beam splitter on n photons,
    indexed by the photons in the first mode: psi_m(x) psi_(n-m)(y) =
    sum_a B_n[a, m] psi_a(u) psi_(n-a)(v) with u, v = (x +- y)/sqrt(2).
    Each level is P^T (B_1 (x) B_(n-1)) P, with P the isometric embedding
    of n photons into one photon beside n - 1 (Risbo's d-matrix recursion):

        n sqrt(2) B_n[a, m] = sqrt(a m) B[a-1, m-1] + sqrt(a (n-m)) B[a-1, m]
                    + sqrt((n-a) m) B[a, m-1] - sqrt((n-a)(n-m)) B[a, m]

    with B = B_(n-1) and B_0 = [[1]].  Columns m - 1 and m of B_(n-1) lie
    in its band or carry zero weight, so a level holds its band only, with
    a zero column on either side.  Every step is an isometry, so the
    columns stay orthonormal to rounding at any n.
    """
    band, first = np.array([[0.0, 1.0, 0.0]]), 0
    for n in range(top + 1):
        lo, hi = max(0, n - cutoff + 1), min(n, cutoff - 1)
        if n:
            width, shift = hi - lo + 1, lo - first  # shift 1 once it shrinks
            left = band[:, shift:shift + width]  # columns m - 1 of B_(n-1)
            right = band[:, shift + 1:shift + 1 + width]  # columns m
            a, m = np.arange(n + 1), np.arange(lo, hi + 1)
            up, down, mu, md = (np.sqrt(x) for x in (a, n - a, m, n - m))
            new = np.zeros((n + 1, width + 2))
            inner = new[:, 1:-1]
            term = np.empty((n, width))
            shifted, kept = slice(1, None), slice(None, -1)  # B[a-1], B[a]
            for rows, row_weight, column, weight in (
                    (shifted, up[1:], left, mu),
                    (shifted, up[1:], right, md),
                    (kept, down[:-1], left, mu),
                    (kept, -down[:-1], right, md)):
                np.multiply(column, weight, out=term)
                term *= row_weight[:, None]
                inner[rows] += term
            inner *= 1 / (n * np.sqrt(2))
            band, first = new, lo
        yield n, lo, band[:, 1:-1]


def hermite_coefficients(rho: np.ndarray) -> np.ndarray:
    """C with W(q, p) = sum_jk C_jk g_j(q) g_k(p) for a one-mode rho, over
    the orthonormal g_j(x) = 2^(1/4) psi_j(sqrt(2) x) (hermite_basis).  A
    state computes it once (FockDensityOperator.coefficients), and its
    Wigner grid and chi both read that C.

    W(q, p) = pi^-1 Int rho_H(q + y, q - y) e^(-2ipy) dy, rho_H = (rho +
    rho^dag)/2.  In u = sqrt(2) q and v = sqrt(2) y the kernel is the beam
    splitter's output, so antidiagonal m + n = N of rho_H maps to d = B_N
    rho_H[m, N - m] (_beam_splitter_bands), and the transform over y takes
    psi_b to sqrt(pi) (-i)^b psi_b: C[a, N - a] = Re((-i)^(N-a) d_a) /
    sqrt(2 pi), whose imaginary part vanishes for a Hermitian rho_H.  C is
    trimmed to (D + 1) square, D the largest m + n with rho[m, n] != 0,
    and rho_H is formed one antidiagonal at a time.  There is no alpha^k,
    and |C_jk| <= ||W||_2.  Beside rho it holds C and a few bands of
    about c^2 floats: tracemalloc reads 2.3 (2c - 1)^2 floats at c = 150
    and 300, below the three whose bytes states.STATE_BUILD_ARRAYS counts
    for the state's own build.  The band products are unoptimized
    np.einsum calls, which call no BLAS, so the bits do not depend on the
    thread count.
    """
    rho = np.asarray(rho, dtype=complex)
    top = int(np.max(np.add(*np.nonzero(rho)), initial=0))
    coef = np.zeros((top + 1, top + 1))
    for n, lo, band in _beam_splitter_bands(len(rho), top):
        m = np.arange(lo, lo + band.shape[1])
        level = (rho[m, n - m] + rho[n - m, m].conj()) / 2  # of rho_H
        if not level.any():
            continue
        b = n - np.arange(n + 1)  # photons in the second mode
        # Re((-i)^b d): d.real at even b, d.imag at odd, negated at b % 4 > 1
        part = np.where(b % 2, np.einsum("am,m->a", band, level.imag),
                        np.einsum("am,m->a", band, level.real))
        coef[n - b, b] = np.where(b % 4 < 2, part, -part) / np.sqrt(2 * np.pi)
    return coef


def hermite_basis(n_max: int, x) -> np.ndarray:
    """g_0..g_n_max at x, g_j(x) = 2^(1/4) psi_j(sqrt(2) x), the basis of
    hermite_coefficients, as an (n_max + 1, x.size) table."""
    table = hermite_functions(n_max, np.sqrt(2) * x)
    table *= 2 ** 0.25
    return table


def hermite_overlap_cdf(cutoff: int, x) -> np.ndarray:
    """F[m, n, ...] = int_{-inf}^x psi_m psi_n for m, n < cutoff, at each x.

    Off the diagonal the Wronskian identity gives
    F_mn = (psi_m psi_n' - psi_n psi_m') / (2 (m - n)); on it the ladder
    identity gives F_nn = F_(n-1)(n-1) - psi_(n-1) psi_n / sqrt(2n) from
    F_00 = ndtr(sqrt(2) x) (special.ndtr).  Infinite x take the limits 0
    and the identity.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    finite = ~np.isinf(flat)  # NaN points stay NaN
    out = np.zeros((cutoff, cutoff, flat.size))
    out[:, :, flat == np.inf] = np.eye(cutoff)[:, :, None]
    psi = hermite_functions(cutoff, flat[finite])
    n = np.arange(cutoff)
    k = n[:, None]
    # psi_n' = sqrt(n/2) psi_(n-1) - sqrt((n+1)/2) psi_(n+1); the rolled-in
    # row 0 gets zero weight
    dpsi = (np.sqrt(k / 2) * np.roll(psi, 1, axis=0)[:cutoff]
            - np.sqrt((k + 1) / 2) * psi[1:])
    psi = psi[:cutoff]
    F = ((psi[:, None] * dpsi - psi * dpsi[:, None])
         / (2.0 * (k - n) + np.eye(cutoff))[..., None])
    steps = np.cumsum(psi[:-1] * psi[1:] / np.sqrt(2 * k[1:]), axis=0)
    F[n, n] = (ndtr(np.sqrt(2) * flat[finite])
               - np.vstack([np.zeros(F.shape[2]), steps]))
    out[:, :, finite] = F
    return out.reshape(cutoff, cutoff, *x.shape)

