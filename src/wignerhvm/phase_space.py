"""Symplectic geometry on 2m-dimensional phase space.

Phase-space coordinates are ordered (q_1, ..., q_m, p_1, ..., p_m).  The
symplectic form is [u, v] = u^T omega v with

    omega = [[0, -1_m], [1_m, 0]],

so that [e_i, f_i] = -1 for the standard position/momentum unit vectors
e_i, f_i.  A coordinate vector doubles as the label of the homodyne
observable zeta . R_hat and as a hidden phase-space state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ALGEBRAIC_TOL = 1e-12
MATRIX_TOL = 1e-10


def omega(mode_count: int) -> np.ndarray:
    """Matrix of the symplectic form in (q-block, p-block) ordering."""
    eye = np.eye(mode_count)
    zero = np.zeros((mode_count, mode_count))
    return np.block([[zero, -eye], [eye, zero]])


def as_phase_vector(v, mode_count: int | None = None) -> np.ndarray:
    """Validate and return a finite phase-space vector of even length."""
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.size == 0 or arr.size % 2 != 0:
        raise ValueError(f"phase-space vector needs even length, got {arr.size}")
    if mode_count is not None and arr.size != 2 * mode_count:
        raise ValueError(
            f"expected {2 * mode_count} coordinates, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("phase-space vector has non-finite entries")
    return arr


def symplectic_form(u, v) -> float:
    """[u, v] = u^T omega v; antisymmetric and bilinear."""
    u = as_phase_vector(u)
    v = as_phase_vector(v)
    if u.size != v.size:
        raise ValueError("mode-count mismatch in symplectic form")
    m = u.size // 2
    return float(u[m:] @ v[:m] - u[:m] @ v[m:])


def is_symplectic(S: np.ndarray, tol: float = MATRIX_TOL) -> bool:
    S = np.asarray(S, dtype=float)
    n = S.shape[0]
    if S.shape != (n, n) or n % 2 != 0:
        return False
    w = omega(n // 2)
    return bool(np.max(np.abs(S.T @ w @ S - w)) <= tol)


def is_context(vectors) -> bool:
    """True iff the vectors pairwise commute and are linearly independent."""
    mat = np.array([as_phase_vector(v) for v in vectors], dtype=float)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise ValueError("need a nonempty list of vectors")
    # entry (i, j) of G omega G^T is the commutator [g_i, g_j]
    if np.max(np.abs(mat @ omega(mat.shape[1] // 2) @ mat.T)) > ALGEBRAIC_TOL:
        return False
    sv = np.linalg.svd(mat, compute_uv=False)
    return bool(sv[-1] > 1e-10 * sv[0])


def observable_label(zeta, mode_count: int) -> np.ndarray:
    """zeta as a float vector: finite, nonzero, with one entry per axis.

    Its squared norm must be finite and nonzero too, so that quadratic
    forms in zeta, such as the variance zeta . sigma . zeta, neither
    overflow nor underflow to zero on a state of ordinary size.
    """
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    if zeta.size != 2 * mode_count:
        raise ValueError(f"observable label needs {2 * mode_count} "
                         f"coefficients, got {zeta.size}")
    if not np.all(np.isfinite(zeta)):
        raise ValueError("observable label must be finite")
    if not np.any(zeta):
        raise ValueError("observable label must be nonzero")
    with np.errstate(over="ignore"):
        norm2 = float(zeta @ zeta)
    if not 0 < norm2 < np.inf:
        raise ValueError("observable label's squared norm overflows or "
                         "underflows to zero")
    return zeta


@dataclass(frozen=True)
class Context:
    """A set of pairwise-commuting, linearly independent observable labels."""

    generators: np.ndarray = field()

    def __init__(self, generators):
        mat = np.atleast_2d(np.array([as_phase_vector(g) for g in generators],
                                     dtype=float))
        if not is_context(mat):
            raise ValueError("generators do not form a context "
                             "(non-commuting or linearly dependent)")
        object.__setattr__(self, "generators", mat)

    @property
    def mode_count(self) -> int:
        return self.generators.shape[1] // 2

    @property
    def size(self) -> int:
        return self.generators.shape[0]


def decomposition_commutators(u, v, u2, v2) -> tuple:
    """The commutators behind the two-plane additivity decomposition.

    For u, v in one (q_i, p_i) plane and u2, v2 the cross-plane copies with
    swapped coefficients, u + v splits into two halves that commute, and the
    mixed sums u +/- v2, v +/- u2 commute as well: all three vanish.
    """
    u, v = as_phase_vector(u), as_phase_vector(v)
    u2, v2 = as_phase_vector(u2), as_phase_vector(v2)
    return (symplectic_form(u + v + u2 + v2, u + v - u2 - v2),
            symplectic_form(u + v2, v + u2),
            symplectic_form(u - v2, v - u2))


def planewise_decomposition_commutes(u, v, u2, v2,
                                     tol: float = ALGEBRAIC_TOL) -> bool:
    """Whether every decomposition commutator is within tol of zero."""
    return all(abs(c) <= tol for c in decomposition_commutators(u, v, u2, v2))


def plane_decomposition_vectors(alpha: float, beta: float, i: int, j: int,
                                mode_count: int):
    """Vectors (u, v, u2, v2) used by the additivity decomposition.

    u = alpha*e_i, v = beta*f_i live in plane i; u2 = beta*e_j, v2 = alpha*f_j
    carry the swapped coefficients into plane j != i.
    """
    if i == j:
        raise ValueError("planes must differ")
    e = np.eye(2 * mode_count)
    u = alpha * e[i]
    v = beta * e[mode_count + i]
    u2 = beta * e[j]
    v2 = alpha * e[mode_count + j]
    return u, v, u2, v2


def random_symplectic(mode_count: int, rng: np.random.Generator,
                      scale: float = 0.5) -> np.ndarray:
    """Random symplectic matrix exp(-omega G) with G symmetric Gaussian."""
    n = 2 * mode_count
    g = rng.normal(scale=scale, size=(n, n))
    g = (g + g.T) / 2
    return _expm(-omega(mode_count) @ g)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring a degree-18 Taylor sum.

    Dividing by 2^s brings ||a||_1 to at most 1/2, where the dropped tail
    is below 2^-19/19! ~ 1e-23 of the sum.  The zero matrix gives exactly
    the identity.
    """
    s = max(0, int(np.frexp(np.max(np.sum(np.abs(a), axis=0)))[1]) + 1)
    a = a / 2.0 ** s
    term = result = np.eye(len(a))
    for k in range(1, 19):
        term = term @ a / k
        result = result + term
    for _ in range(s):
        result = result @ result
    return result
