"""Dense reference routines used only by the tests.

`displacement_matrix` is the full <m|D(alpha)|n> table from the package's
Laguerre recurrence; the tests pin it against the closed form and the
matrix exponential, and use it as the reference for the stacked trace
`fockspace.displacement_trace`.  `grid_moment` integrates a Wigner grid's
one-axis marginal.
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
    for k, n, value in _laguerre_diagonals(np.abs(alpha) ** 2, cutoff):
        if n == 0:
            up = alpha ** k
            down = (-1) ** k * np.conj(up)
        out[n + k, n] = value * up
        out[n, n + k] = value * down
    return out


def grid_moment(grid: WignerGrid, axis_index: int, power: int) -> float:
    """Int W(z) z_i^k dz over the grid."""
    axis, density = position_marginal(grid, axis_index)
    return float((density * axis ** power).sum() * grid.spec.step)
