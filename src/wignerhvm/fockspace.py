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
    dense = np.einsum(f"{terms}->{rows}{cols}", *factors, optimize=True)
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
    drops the tail of the same values.
    """
    env = np.exp(-x / 2)
    head = 1.0  # 1/sqrt(k!)
    for k, depth in enumerate(depths):
        if k:
            head /= np.sqrt(k)
        pref = head
        lag_prev = np.zeros_like(env)
        lag = env
        for n in range(depth):
            yield k, n, pref * lag
            lag_prev, lag = lag, (
                (2 * n + k + 1 - x) * lag - (n + k) * lag_prev) / (n + 1)
            pref *= np.sqrt((n + 1) / (n + 1 + k))


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
    cutoff-by-alphas array is held.
    """
    A = np.asarray(A, dtype=complex)
    alphas = np.asarray(alphas, dtype=complex)
    flat = alphas.reshape(-1)
    rows, cutoff = A.shape[:2]
    radii, where = np.unique(np.abs(flat) ** 2, return_inverse=True)
    out = np.zeros((rows, flat.size), dtype=complex)
    power = np.ones(flat.shape, dtype=complex)  # alpha^k
    used = A.any(axis=0)  # entries nonzero in some row
    depths = []
    for k in range(cutoff):
        hit = np.flatnonzero(np.diagonal(used, k) | np.diagonal(used, -k))
        depths.append(hit[-1] + 1 if hit.size else 0)
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


def _bargmann(A: np.ndarray, b: np.ndarray, g0: complex,
              cutoff: int) -> np.ndarray:
    """Truncated Gaussian Bargmann array G_k, every index k_i < cutoff.

    Exact elements from the recurrence (Quesada et al., PRA 100, 022341
    (2019); Miatto & Quesada, Quantum 4, 366 (2020))
    G_(k+1_i) = (b_i G_k + sum_j A_ij sqrt(k_j) G_(k-1_j)) / sqrt(k_i + 1)
    from G_0 = g0.  Axes are filled last to first: the pass over axis i
    sets the contiguous slabs G[0, .., 0, n, ...] with every earlier axis
    at level 0.
    """
    n_axes = len(b)
    root = np.sqrt(np.arange(cutoff))
    G = np.zeros((cutoff,) * n_axes, dtype=complex)
    G[(0,) * n_axes] = g0
    for i in reversed(range(n_axes)):
        head = (0,) * i
        # sqrt(k_j) along each later axis j; root[0] = 0 zeroes the
        # rolled-in level and, at n = 0, the k_i - 1 = -1 term
        later = [(j, j - i - 1, root.reshape((-1,) + (1,) * (n_axes - 1 - j)))
                 for j in range(i + 1, n_axes)]
        for n in range(cutoff - 1):
            slab = G[head + (n,)]
            step = b[i] * slab + A[i, i] * root[n] * G[head + (n - 1,)]
            for j, axis, weight in later:
                step = step + A[i, j] * weight * np.roll(slab, 1, axis=axis)
            G[head + (n + 1,)] = step / root[n + 1]
    return G


def metaplectic_operator(S: np.ndarray, cutoff: int) -> np.ndarray:
    """Fock-space unitary M with M^dag R_hat M = S R_hat, up to a global phase.

    The b = 0 case of `_bargmann` over k = (out, in): with
    M^dag a M = U a + V a^dag and W = (U^dag)^-1,
    A = [[W V^T, W], [W^T, -V^dag W]] and G_0 = |det U|^(-1/2).
    """
    S = np.asarray(S, dtype=float)
    m = S.shape[0] // 2
    if not is_symplectic(S, tol=1e-8):
        raise ValueError("matrix is not symplectic")
    qq, qp, pq, pp = S[:m, :m], S[:m, m:], S[m:, :m], S[m:, m:]
    U = (qq + pp + 1j * (pq - qp)) / 2
    V = (qq - pp + 1j * (pq + qp)) / 2
    W = np.linalg.inv(U.conj().T)
    A = np.block([[W @ V.T, W], [W.T, -V.conj().T @ W]])
    G = _bargmann(A, np.zeros(2 * m, dtype=complex),
                  abs(np.linalg.det(U)) ** -0.5, cutoff)
    return G.reshape(cutoff ** m, cutoff ** m)


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions psi_0..psi_n_max on the axis x.

    Upward recurrence on the normalized functions; the per-step square-root
    coefficients keep every row O(1), so no factorial overflow occurs.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((n_max + 1, x.size))
    out[0] = np.pi ** -0.25 * np.exp(-x ** 2 / 2)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = (np.sqrt(2.0 / (n + 1)) * x * out[n]
                      - np.sqrt(n / (n + 1)) * out[n - 1])
    return out


def hermite_overlap_cdf(cutoff: int, x) -> np.ndarray:
    """F[m, n, ...] = int_{-inf}^x psi_m psi_n for m, n < cutoff, at each x.

    Off the diagonal the Wronskian identity gives
    F_mn = (psi_m psi_n' - psi_n psi_m') / (2 (m - n)); on it the ladder
    identity gives F_nn = F_(n-1)(n-1) - psi_(n-1) psi_n / sqrt(2n) from
    F_00 = ndtr(sqrt(2) x).  Infinite x take the limits 0 and the identity.
    """
    from scipy.special import ndtr
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
