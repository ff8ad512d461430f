"""Truncated-Fock-space matrix building blocks.

All operators use hbar = 1 with q = (a + a^dag)/sqrt(2) and
p = (a - a^dag)/(i sqrt(2)), so [q, p] = i below the truncation edge.
Multimode operators act on the Kronecker product of per-mode spaces with
mode 0 as the leftmost factor.  In Kronecker-factored form an operator is
a list of per-mode stacks, one (r, cutoff, cutoff) array per mode, and
stands for sum_s factors[0][s] (x) factors[1][s] (x) ...
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


def annihilation(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff)), k=1).astype(complex)


def position_operator(cutoff: int) -> np.ndarray:
    a = annihilation(cutoff)
    return (a + a.conj().T) / np.sqrt(2)


def momentum_operator(cutoff: int) -> np.ndarray:
    a = annihilation(cutoff)
    return 1j * (a.conj().T - a) / np.sqrt(2)


def kronecker_sum(factors) -> np.ndarray:
    """The dense matrix of an operator given by its per-mode factor stacks."""
    m = len(factors)
    rows, cols = "abcdefgh"[:m], "ijklmnop"[:m]
    terms = ",".join(f"s{r}{c}" for r, c in zip(rows, cols))
    dense = np.einsum(f"{terms}->{rows}{cols}", *factors)
    dim = int(np.prod([f.shape[1] for f in factors]))
    return dense.reshape(dim, dim)


def kronecker_factors(matrix: np.ndarray, mode_count: int) -> list[np.ndarray]:
    """Exact per-mode factor stacks of a dense one- or two-mode operator.

    Two modes use the realignment A = sum_(i,j) |i><j| (x) A_ij with blocks
    A_ij[k, l] = <i k|A|j l>: the c^2 matrix units are the first factors.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if mode_count == 1:
        return [matrix[None]]
    if mode_count != 2:
        raise ValueError("Kronecker factors supported for m <= 2")
    c = round(matrix.shape[0] ** 0.5)
    units = np.eye(c * c, dtype=complex).reshape(c * c, c, c)
    blocks = matrix.reshape(c, c, c, c).transpose(0, 2, 1, 3)
    return [units, blocks.reshape(c * c, c, c)]


def _laguerre_diagonals(x, depths):
    """Yield (k, n, sqrt(n!/(n+k)!) e^(-x/2) L_n^k(x)) for n < depths[k].

    Offsets k come in increasing order, each with n = 0 .. depths[k]-1; an
    offset of depth 0 yields nothing.  Depths cutoff - k give every
    n + k < cutoff.  The stable three-term recurrence in n runs on the
    e^(-x/2)-scaled polynomials and carries the square-root prefactor
    multiplicatively, so no factorials appear and a shorter depth only
    drops the tail of the same values.  Each step
    ((2n + k + 1 - x) L_n - (n + k) L_(n-1)) / (n + 1) is taken in place on
    three rotating buffers, one IEEE operation at a time as the plain
    expression would round it; every yielded value is a new array.
    """
    env = np.exp(-x / 2)
    head = 1.0  # 1/sqrt(k!)
    lag, lag_prev, spare = (np.empty_like(env) for _ in range(3))
    for k, depth in enumerate(depths):
        if k:
            head /= np.sqrt(k)
        pref = head
        np.copyto(lag, env)
        lag_prev.fill(0.0)
        for n in range(depth):
            yield k, n, pref * lag
            if n + 1 < depth:
                np.subtract(2 * n + k + 1, x, out=spare)
                spare *= lag
                lag_prev *= n + k
                spare -= lag_prev
                spare /= n + 1
                lag_prev, lag, spare = lag, spare, lag_prev
            pref *= np.sqrt((n + 1) / (n + 1 + k))


def _offset_depths(used: np.ndarray) -> list[int]:
    """Per offset k, one past the last n with used[n, n+k] or used[n+k, n].

    One pass over the used entries: entry (i, j) sits on offset |j - i| at
    n = min(i, j).
    """
    rows, cols = np.nonzero(used)
    depths = np.zeros(len(used), dtype=int)
    np.maximum.at(depths, np.abs(cols - rows), np.minimum(rows, cols) + 1)
    return depths.tolist()


def displacement_trace(A: np.ndarray, alphas) -> np.ndarray:
    """Tr[A_s D(alpha)], shape (r, *alphas.shape), for an (r, c, c) stack A.

    Offset k adds u alpha^k + l conj(alpha^k) = (u + l) Re alpha^k
    + i (u - l) Im alpha^k, with u = sum_n A_s[n, n+k] v_n, l = (-1)^k
    sum_n A_s[n+k, n] v_n (0 for k = 0) and radial factors v_n(|alpha|^2).
    That is an identity for any complex u and l, so A need not be Hermitian.
    The recurrence runs once per distinct |alpha|^2 for the whole stack,
    and for offset k only up to the last n whose A_s[n, n+k] or
    A_s[n+k, n] is nonzero in some row; an offset with both diagonals zero
    is skipped.  alpha^k is a running product that takes one factor per
    offset, skipped or not, so it keeps the bits of the full loop; no
    cutoff-by-alphas array is held.  It serves the chi tables and the Weyl
    symbols; a Wigner grid takes hermite_coefficients, which has no alpha^k.
    """
    A = np.asarray(A, dtype=complex)
    alphas = np.asarray(alphas, dtype=complex)
    flat = alphas.reshape(-1)
    rows = len(A)
    radii, where = np.unique(np.abs(flat) ** 2, return_inverse=True)
    out = np.zeros((rows, flat.size), dtype=complex)
    power = np.ones(flat.shape, dtype=complex)  # alpha^k
    used = A.any(axis=0)  # entries nonzero in some row
    depths = _offset_depths(used)
    reached = 0  # power holds alpha^reached
    for k, n, value in _laguerre_diagonals(radii, depths):
        if n == 0:
            for _ in range(k - reached):
                power *= flat
            reached = k
            upper = np.zeros((rows, radii.size), dtype=complex)  # u_k
            lower = np.zeros((rows, radii.size), dtype=complex)  # l_k
        if used[n, n + k]:
            upper += A[:, n, n + k, None] * value
        if k and used[n + k, n]:
            lower += (-1) ** k * A[:, n + k, n, None] * value
        if n == depths[k] - 1:
            for s in np.flatnonzero(upper.any(axis=1) | lower.any(axis=1)):
                out[s] += (upper[s] + lower[s])[where] * power.real
                out[s] += (1j * (upper[s] - lower[s]))[where] * power.imag
    return out.reshape(rows, *alphas.shape)


def _bargmann(A: np.ndarray, b: np.ndarray, g0, cutoff: int) -> np.ndarray:
    """Truncated Gaussian Bargmann arrays of a stack, every index k_i < cutoff.

    A is (T, n, n), b (T, n) and g0 (T,) for T arrays; the result G is
    (T, cutoff, ..., cutoff).  Exact elements from the recurrence
    (Quesada et al., PRA 100, 022341 (2019); Miatto & Quesada, Quantum 4,
    366 (2020))
    G_(k+1_i) = (b_i G_k + sum_j A_ij sqrt(k_j) G_(k-1_j)) / sqrt(k_i + 1)
    from G_0 = g0.  Axes are filled last to first: the pass over axis i
    sets the contiguous slabs G[t, 0, .., 0, n, ...] with every earlier
    axis at level 0.  The last axis's pass steps single elements, member
    by member, in numpy scalar arithmetic, which rounds differently from
    array arithmetic.  Every earlier pass takes one array operation per
    level for the whole stack, each member's coefficient broadcast over
    its own slab, so each element is rounded as the same operation on
    that member's slab alone rounds it.
    """
    stack, n_axes = b.shape
    last = n_axes - 1
    root = np.sqrt(np.arange(cutoff))
    G = np.zeros((stack,) + (cutoff,) * n_axes, dtype=complex)
    for t in range(stack):
        line = G[(t,) + (0,) * last]
        line[0] = g0[t]
        # root[0] = 0 zeroes the n = 0 term of the unset level -1
        for n in range(cutoff - 1):
            line[n + 1] = (b[t, last] * line[n] + A[t, last, last] * root[n]
                           * line[n - 1]) / root[n + 1]
    for i in reversed(range(last)):
        head = (slice(None),) + (0,) * i
        member = (stack,) + (1,) * (last - i)  # one value per member's slab
        first = b[:, i].reshape(member)
        diagonal = A[:, i, i, None] * root  # A_ii sqrt(k_i), level by level
        # A_ij sqrt(k_j) along each later axis j, slab axis j - i; root[0]
        # = 0 zeroes the rolled-in level
        later = [(j - i, A[:, i, j].reshape(member)
                  * root.reshape((-1,) + (1,) * (last - j)))
                 for j in range(i + 1, n_axes)]
        for n in range(cutoff - 1):
            slab = G[head + (n,)]
            step = (first * slab
                    + diagonal[:, n].reshape(member) * G[head + (n - 1,)])
            for axis, weight in later:
                step = step + weight * np.roll(slab, 1, axis=axis)
            G[head + (n + 1,)] = step / root[n + 1]
    return G


def metaplectic_operators(S: np.ndarray, cutoff: int) -> np.ndarray:
    """metaplectic_operator of each of a (T, 2m, 2m) stack of symplectic
    matrices, as one (T, c^m, c^m) array from one stacked `_bargmann`;
    ValueError if any member is not symplectic."""
    S = np.asarray(S, dtype=float)
    stack, m = len(S), S.shape[-1] // 2
    if not all(is_symplectic(s, tol=1e-8) for s in S):
        raise ValueError("matrix is not symplectic")
    qq, qp, pq, pp = S[:, :m, :m], S[:, :m, m:], S[:, m:, :m], S[:, m:, m:]
    U = (qq + pp + 1j * (pq - qp)) / 2
    V = (qq - pp + 1j * (pq + qp)) / 2
    W = np.linalg.inv(U.conj().swapaxes(1, 2))
    A = np.block([[W @ V.swapaxes(1, 2), W],
                  [W.swapaxes(1, 2), -V.conj().swapaxes(1, 2) @ W]])
    g0 = [abs(det) ** -0.5 for det in np.linalg.det(U)]
    G = _bargmann(A, np.zeros((stack, 2 * m), dtype=complex), g0, cutoff)
    return G.reshape(stack, cutoff ** m, cutoff ** m)


def metaplectic_operator(S: np.ndarray, cutoff: int) -> np.ndarray:
    """Fock-space unitary M with M^dag R_hat M = S R_hat, up to a global phase.

    The b = 0 case of `_bargmann` over k = (out, in): with
    M^dag a M = U a + V a^dag and W = (U^dag)^-1,
    A = [[W V^T, W], [W^T, -V^dag W]] and G_0 = |det U|^(-1/2).
    """
    return metaplectic_operators(np.asarray(S, dtype=float)[None], cutoff)[0]


def hermite_rows(n_max: int, x):
    """Yield psi_0..psi_n_max at x, one new array per row, by the upward
    recurrence on the normalized functions, whose O(1) rows never overflow."""
    x = np.asarray(x, dtype=float)
    prev, row = 0.0, np.pi ** -0.25 * np.exp(-x ** 2 / 2)
    yield row
    for n in range(n_max):  # the first step's prev term is exactly 0.0
        prev, row = row, (np.sqrt(2.0 / (n + 1)) * x * row
                          - np.sqrt(n / (n + 1)) * prev)
        yield row


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
    the orthonormal g_j(x) = 2^(1/4) psi_j(sqrt(2) x).

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


def partial_trace_keep_first(rho: np.ndarray, cutoff: int,
                             mode_count: int) -> np.ndarray:
    """Trace out all modes except mode 0."""
    if mode_count == 1:
        return rho
    rest = cutoff ** (mode_count - 1)
    r4 = rho.reshape(cutoff, rest, cutoff, rest)
    return np.einsum("ikjk->ij", r4)
