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


def is_context(vectors, comm_tol: float = ALGEBRAIC_TOL,
               rank_rtol: float = 1e-10) -> bool:
    """True iff the vectors pairwise commute and are linearly independent."""
    mat = np.array([as_phase_vector(v) for v in vectors], dtype=float)
    if mat.ndim != 2 or mat.shape[0] == 0:
        raise ValueError("need a nonempty list of vectors")
    if len({row.size for row in mat}) != 1:
        raise ValueError("mode-count mismatch")
    k = mat.shape[0]
    for i in range(k):
        for j in range(i + 1, k):
            if abs(symplectic_form(mat[i], mat[j])) > comm_tol:
                return False
    sv = np.linalg.svd(mat, compute_uv=False)
    return bool(sv[-1] > rank_rtol * sv[0])


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


def context_to_standard_basis(ctx: Context) -> np.ndarray:
    """Symplectic S mapping each generator onto a standard position axis.

    Returns S with generators[i] @ S = e_i and S^T omega S = omega.  The
    generators become the first columns of a full symplectic basis; their
    canonical partners are solved for, and the basis is completed by
    symplectic Gram-Schmidt over the standard basis vectors.
    """
    gens = ctx.generators
    m = ctx.mode_count
    k = ctx.size
    if k > m:
        raise ValueError("a context has at most one generator per mode")
    w = omega(m)

    a_cols = [gens[i].copy() for i in range(k)]
    b_cols: list[np.ndarray] = []
    # Partner of a_i: [a_j, b_i] = -delta_ij and [b_j, b_i] = 0 for j < i.
    for i in range(k):
        rows = [a @ w for a in a_cols]
        rhs = [-1.0 if j == i else 0.0 for j in range(k)]
        for b in b_cols:
            rows.append(b @ w)
            rhs.append(0.0)
        sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
        b_cols.append(sol)

    pairs = list(zip(a_cols, b_cols))

    def project(vec):
        out = vec.astype(float).copy()
        for a, b in pairs:
            out = out + symplectic_form(out, b) * a - symplectic_form(out, a) * b
        return out

    candidates = [np.eye(2 * m)[:, j] for j in range(2 * m)]
    while len(pairs) < m:
        base = None
        for idx, cand in enumerate(candidates):
            vec = project(cand)
            if np.linalg.norm(vec) > 1e-9:
                base = vec
                del candidates[idx]
                break
        if base is None:
            raise RuntimeError("failed to complete symplectic basis")
        best_val, best_idx = 0.0, None
        projected = [project(c) for c in candidates]
        for idx, cand in enumerate(projected):
            val = abs(symplectic_form(base, cand))
            if val > best_val:
                best_val, best_idx = val, idx
        if best_idx is None or best_val < 1e-9:
            raise RuntimeError("no symplectic partner found during completion")
        partner = projected[best_idx]
        del candidates[best_idx]
        partner = -partner / symplectic_form(base, partner)
        pairs.append((base, partner))

    basis = np.column_stack([p[0] for p in pairs] + [p[1] for p in pairs])
    if np.max(np.abs(basis.T @ w @ basis - w)) > MATRIX_TOL:
        raise RuntimeError("constructed basis is not symplectic")
    S = np.linalg.inv(basis).T
    if np.max(np.abs(gens @ S - np.eye(2 * m)[:k])) > MATRIX_TOL:
        raise RuntimeError("basis change does not map generators to e_i")
    return S


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
