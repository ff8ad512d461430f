"""Dense reference routines used only by the tests.

`displacement_matrix` is the full <m|D(alpha)|n> table from the package's
Laguerre recurrence; the tests pin it against the closed form and the
matrix exponential, and use it as the reference for the stacked trace
`fockspace.displacement_trace`.  `full_depth_displacement_trace` is that
trace with the recurrence run to full depth on every offset, the loop the
package used before it learnt to skip unused offsets.  `grid_moment`
integrates a Wigner grid's one-axis marginal.
"""

import numpy as np

from wignerhvm.fockspace import _laguerre_diagonals
from wignerhvm.wigner import WignerGrid, position_marginal


def displacement_matrix(alpha, cutoff: int) -> np.ndarray:
    """Matrix elements <m|D(alpha)|n> of D(alpha) = exp(alpha a^dag - h.c.).

    alpha is a scalar or an array; the result d[m, n, ...] has shape
    (cutoff, cutoff, *alpha.shape).  Entrywise exact (Cahill & Glauber):
    <n+k|D|n> = sqrt(n!/(n+k)!) alpha^k e^(-|alpha|^2/2) L_n^k(|alpha|^2),
    and <n|D|n+k> carries (-conj(alpha))^k instead of alpha^k.
    """
    alpha = np.asarray(alpha, dtype=complex)
    out = np.zeros((cutoff, cutoff) + alpha.shape, dtype=complex)
    for k, n, value in _laguerre_diagonals(np.abs(alpha) ** 2,
                                           range(cutoff, 0, -1)):
        if n == 0:
            up = alpha ** k
            down = (-1) ** k * np.conj(up)
        out[n + k, n] = value * up
        out[n, n + k] = value * down
    return out


def full_depth_displacement_trace(A: np.ndarray, alphas) -> np.ndarray:
    """Tr[A_s D(alpha)] with every offset's recurrence run to n + k < c."""
    A = np.asarray(A, dtype=complex)
    alphas = np.asarray(alphas, dtype=complex)
    flat = alphas.reshape(-1)
    rows, cutoff = A.shape[:2]
    radii, where = np.unique(np.abs(flat) ** 2, return_inverse=True)
    out = np.zeros((rows, flat.size), dtype=complex)
    power = np.ones(flat.shape, dtype=complex)  # alpha^k
    used = A.any(axis=0)
    for k, n, value in _laguerre_diagonals(radii, range(cutoff, 0, -1)):
        if n == 0:
            if k:
                power *= flat
            upper = np.zeros((rows, radii.size), dtype=complex)
            lower = np.zeros((rows, radii.size), dtype=complex)
        if used[n, n + k]:
            upper += A[:, n, n + k, None] * value
        if k and used[n + k, n]:
            lower += (-1) ** k * A[:, n + k, n, None] * value
        if n == cutoff - 1 - k:
            for s in np.flatnonzero(upper.any(axis=1) | lower.any(axis=1)):
                out[s] += (upper[s] + lower[s])[where] * power.real
                out[s] += (1j * (upper[s] - lower[s]))[where] * power.imag
    return out.reshape(rows, *alphas.shape)


def grid_moment(grid: WignerGrid, axis_index: int, power: int) -> float:
    """Int W(z) z_i^k dz over the grid."""
    axis, density = position_marginal(grid, axis_index)
    return float((density * axis ** power).sum() * grid.spec.step)
