"""Dense reference routines used only by the tests.

`allocating_laguerre_diagonals` is the displacement-element (Laguerre)
recurrence, the tests' only one: the package reads a Fock state's chi from
the Hermite coefficients of its Wigner function
(`wigner.characteristic_at_points`), and this recurrence is the
independent route that chi is pinned against.  `displacement_matrix` is
the full <m|D(alpha)|n> table, which runs on this recurrence; the tests
pin it against the closed form and the matrix exponential.
`full_depth_displacement_trace` is the stacked trace Tr[A_s D(alpha)] with
the recurrence run to full depth on every offset, pinned against
`displacement_matrix`; `kronecker_factors` splits a dense one- or two-mode
operator into per-mode factor stacks, `trace_tables` takes each stack's
traces, and `trace_characteristic_at_points` is a Fock state's chi at
points on them, for one or two modes: the package's Fock route before it
read chi from the Hermite coefficients.  `diagonal_offset_depths` reads
each offset's last used level from its two diagonals.
`whole_product_characteristic_deviations` is the hidden-variable model's
characteristic check with the first axis contracted by one cos and one
sin product spanning the grid, as the package contracted it before it
learnt to take those products on blocks of second-axis slabs.
`full_grid_event_probability` is the hidden-variable event probability
summed over every node of the full grid, the sum the package used before
it learnt to sum idle axes out first, and `serial_slab_event_probability`
is the marginal sum in one pass over the slabs, one kernel call per slab;
it is the package's sum for labels with no projection lattice, whose
kernel calls take blocks of slabs.  `lattice_event_probability`
is the sum for labels that have one, with every node's key written out
and each first-axis slab binned against it.  Every Si in them is the
package's own kernel, `special.sine_integral`, so they pin the order of
the package's sums bit for bit.  `searchsorted_sample`
draws the hidden-variable samples with one binary search per key, in key
order, as the package did before it learnt to search sorted keys.
`expression_wigner_gaussian` evaluates the Gaussian Wigner grid as one
expression, a new array per step, and `copying_hvm_measure` clamps and
normalizes a grid into a second copy: the package's forms before each
learnt to finish its grid in place; `pinned_gaussians` are the states
and grids on which the tests compare them bit for bit.
`complex_parity_wigner` is Royer's parity identity W(z) = pi^-m
Tr[P rho D(2 alpha(z))] formed in complex arithmetic from both diagonals
of every offset, for one or two modes: the two-mode Fock grid, which no
command builds, and the route one mode took before its real sums.
`full_grid_parity_trace` is that identity's real one-mode sum at every
node of the grid, with the running product alpha^k, as the package
summed it before the Hermite route (`fockspace.hermite_coefficients`)
replaced it; it is the reference the Hermite route must match to 1e-13
relative.  `_real_part` takes a complex grid's real part once its
imaginary residue is below `IMAG_RESIDUE` times its scale.
`whole_table_hermite_functions` is the Hermite recurrence written into one
(n_max + 1, x.size) table, and `whole_table_gkp_coefficients` is the GKP
state's quadrature over that whole table, scaled in place and integrated
along its rows by one 2-D `np.trapezoid`: the package's forms before it
learnt to stream the recurrence one row at a time.  Both start from
e^(-x^2/2), so their rows read 0 past |x| = 37.64.
`frexp_hermite_functions` is the same recurrence on Python floats with
each value renormalized by `math.frexp`, which does not underflow there,
and `frexp_fock_wigner` is a Fock state's W from the Laguerre closed form,
carried the same way.
`position_marginal` is a Wigner grid's one-axis marginal density and
`grid_moment` integrates it.
`characteristic_function` is a state's chi(v) = Tr[rho D(v)] on a grid,
held as per-mode tables (`CharacteristicGrid`, whose boundary residual is
read off the dense grid), whose value at the origin, `origin_value`, must
be 1, and `wigner_from_characteristic` is its windowed symplectic Fourier
transform under the boundary-decay, imaginary-residue and normalization
gates: the package's route from a state to its Wigner grid before the
parity identity replaced it, kept as the chi route that criterion 1
compares with the closed form and the Hermite route.  `symplectic_fourier`
is that transform as one dense complex grid.  `chi_route_symbol` is an
observable's vacuum-smoothed Weyl symbol by the same transform of
Tr[A D(v)] exp(-|v|^2/4) on the v-window of
`default_observable_char_spec`: lemma-check's route before it read the
symbol as the coherent-state expectation <alpha|A|alpha>.
`coherent_table_by_rows` is one dense factor stack's table of that
expectation, built one z_q row of kets at a time from the stack's nonzero
diagonals: the package's form before it applied quadratures to kets.
`coherent_symbol` is that expectation as one dense grid from it, and
`whole_grid_symbol_deviations` lemma-check's comparison of the package's
own coherent tables with the smoothed polynomial over the whole grid: the
package's form before it learnt to reduce the symbol one first-axis slab
at a time.
`member_bargmann` is the Bargmann recurrence for one array at a time, with
scalar coefficients on every pass, `member_metaplectic_operator` the
metaplectic operator built on it, and `trialwise_covariance_suite` the
metaplectic covariance suite that draws, builds and conjugates one trial
at a time: the package's forms before it learnt to run a stack of
recurrences at once, the suite's conjugation in its block-column,
ladder-shift form.
`member_bargmann` takes any number of axes, so
`member_metaplectic_operator` also gives two-mode M(S), and
`two_mode_gaussian_to_fock` a two-mode Gaussian state's truncated density
matrix; `TwoModeFock` holds it, or any two-mode density matrix.  The
package's Fock states are one-mode, and these are the tests' two-mode
references.
`dense_covariance_state` is a one-mode Fock state's first two moments
from dense quadrature products formed one level above the cutoff: the
package's form before it read them from three bands of rho.
`annihilation`, `position_operator` and `momentum_operator` are the
truncated ladder and quadrature matrices, `kronecker_sum` the dense
matrix sum_s factors[0][s] (x) factors[1][s] (x) ... of per-mode factor
stacks, and `quantize_linear` and `quantize_terms` the symmetric-ordering
quantization as such stacks: the package's forms before it applied each
quadrature to kets by two ladder shifts (`fockspace.apply_quadrature`),
and the dense references that route is compared with.
`monomial`, `quantize_polynomial` (the dense matrix of `quantize_terms`'
stacks), `trusted_block_mask` and `smoothed_polynomial` (the
package's vacuum-smoothed polynomial, evaluated in one call) are the Weyl
helpers that only the tests use, and `cell_probabilities` is a
hidden-variable model's normalized cell masses, the table its sampler
searches.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from wignerhvm import fockspace
from wignerhvm.phase_space import random_symplectic
from wignerhvm.special import sine_integral
from wignerhvm.states import GaussianState, StateSpec, make_state
from wignerhvm.weyl import (METAPLECTIC_MAX_SQUEEZE, PolynomialObservable,
                            _coherent_tables, _kronecker_grid, _require_real,
                            _smoothed, _smoothing_terms)
from wignerhvm.wigner import (BOUNDARY_DECAY, GridSpec, InadequateWindowError,
                              WignerGrid, _normalized_on_window,
                              characteristic_at_points)

IMAG_RESIDUE = 1e-8


def _real_part(raw: np.ndarray, tol: float) -> np.ndarray:
    """raw.real, unless max |imag| exceeds tol times max |real|."""
    _require_real(float(np.max(np.abs(raw.real))),
                  float(np.max(np.abs(raw.imag))), tol)
    return raw.real


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


def _linear_terms(zeta, cutoff: int) -> list[np.ndarray]:
    """Per-mode factor stacks of zeta . R_hat: one term per active mode."""
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    m = zeta.size // 2
    q = position_operator(cutoff)
    p = momentum_operator(cutoff)
    active = [k for k in range(m) if zeta[k] or zeta[m + k]]
    eye = np.eye(cutoff, dtype=complex)
    factors = [np.repeat(eye[None], len(active), axis=0) for _ in range(m)]
    for s, k in enumerate(active):
        factors[k][s] = zeta[k] * q + zeta[m + k] * p
    return factors


def quantize_linear(zeta, cutoff: int) -> np.ndarray:
    """Sum_i zeta_i R_hat_i from the standard ladder-operator matrices."""
    return kronecker_sum(_linear_terms(zeta, cutoff))


def quantize_terms(obs: PolynomialObservable, cutoff: int) -> list[np.ndarray]:
    """Symmetric-ordering quantization as per-mode factor stacks.

    Each generator zeta . R_hat is a sum of one term per mode it acts on,
    and operator products multiply the term lists mode by mode, left to
    right, so every symmetrized product stays a short sum of Kronecker
    products, sum_s factors[0][s] (x) factors[1][s] (x) ...
    """
    gens = [_linear_terms(z, cutoff) for z in obs.context.generators]
    m = obs.context.mode_count
    eye = np.eye(cutoff, dtype=complex)[None]
    parts = [[np.zeros((0, cutoff, cutoff), dtype=complex)] * m]
    for coef, expo in obs.terms:
        indices = tuple(i for i, e in enumerate(expo) for _ in range(e))
        # the average over all distinct orderings of the index multiset
        perms = sorted(set(itertools.permutations(indices)))
        for perm in perms:
            product = [eye] * m
            for i in perm:
                product = [
                    np.matmul(a[:, None], b[None]).reshape(-1, cutoff, cutoff)
                    for a, b in zip(product, gens[i])]
            first, *rest = product
            parts.append([coef / len(perms) * first] + rest)
    return [np.concatenate(stacks) for stacks in zip(*parts)]


def displacement_matrix(alpha, cutoff: int) -> np.ndarray:
    """Matrix elements <m|D(alpha)|n> of D(alpha) = exp(alpha a^dag - h.c.).

    alpha is a scalar or an array; the result d[m, n, ...] has shape
    (cutoff, cutoff, *alpha.shape).  Entrywise exact (Cahill & Glauber):
    <n+k|D|n> = sqrt(n!/(n+k)!) alpha^k e^(-|alpha|^2/2) L_n^k(|alpha|^2),
    and <n|D|n+k> carries (-conj(alpha))^k instead of alpha^k.
    """
    alpha = np.asarray(alpha, dtype=complex)
    out = np.zeros((cutoff, cutoff) + alpha.shape, dtype=complex)
    for k, n, value in allocating_laguerre_diagonals(np.abs(alpha) ** 2,
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
    for k, n, value in allocating_laguerre_diagonals(radii,
                                                     range(cutoff, 0, -1)):
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


def allocating_laguerre_diagonals(x, depths):
    """Yield (k, n, sqrt(n!/(n+k)!) e^(-x/2) L_n^k(x)) for n < depths[k].

    Offsets k come in increasing order, each with n = 0 .. depths[k]-1; an
    offset of depth 0 yields nothing.  Depths cutoff - k give every
    n + k < cutoff.  The stable three-term recurrence in n runs on the
    e^(-x/2)-scaled polynomials and carries the square-root prefactor
    multiplicatively, so no factorials appear; each step is a new array.
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


def diagonal_offset_depths(used: np.ndarray) -> list[int]:
    """Per offset k, one past the last n with used[n, n+k] or used[n+k, n]."""
    depths = []
    for k in range(len(used)):
        hit = np.flatnonzero(np.diagonal(used, k) | np.diagonal(used, -k))
        depths.append(int(hit[-1]) + 1 if hit.size else 0)
    return depths


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


def trace_tables(factors, alphas) -> list[np.ndarray]:
    """Per-mode tables t[k][s] = Tr[B_sk D(alpha)] over alphas[k].

    A = sum_s B_s0 (x) B_s1 is given by its per-mode factor stacks, and
    D(v) = D(v1) (x) D(v2), so Tr[A D(v)] = sum_s prod_k t[k][s] at each v.
    """
    return list(map(full_depth_displacement_trace, factors, alphas))


def trace_characteristic_at_points(state, points) -> np.ndarray:
    """A Fock state's chi(v) = Tr[rho D(v)] at points, one or two modes,
    from the displacement traces of its per-mode factor stacks."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = state.mode_count
    alphas = (pts[:, :m] + 1j * pts[:, m:]) / np.sqrt(2)
    tables = trace_tables(kronecker_factors(state.matrix, m), alphas.T)
    return np.prod(tables, axis=0).sum(axis=0)


def complex_parity_wigner(rho, spec: GridSpec) -> np.ndarray:
    """Re pi^-m Tr[P rho D(2 alpha(z))] from complex displacement traces."""
    parity = (-1.0) ** np.arange(rho.cutoff)
    factors = [parity[:, None] * f for f in
               kronecker_factors(rho.matrix, rho.mode_count)]
    vq, vp = np.meshgrid(spec.axis, spec.axis, indexing="ij")
    alphas = 2.0 * (vq + 1j * vp) / np.sqrt(2)
    raw = _kronecker_grid([full_depth_displacement_trace(f, alphas)
                           for f in factors])
    return (raw / np.pi ** rho.mode_count).real


def full_grid_parity_trace(rho, alphas) -> np.ndarray:
    """Re Tr[P rho D(alpha)] summed at every node of the grid.

    The one-mode real route as the package ran it before it learnt to sum
    one quadrant of a mirror-symmetric grid: the amplitudes, radii,
    alpha^k and every term span the whole grid, in one real buffer.  It
    takes any grid of amplitudes, mirrored or not.
    """
    rho = np.asarray(rho, dtype=complex)
    signs = (-1.0) ** np.arange(len(rho))
    upper = signs[:, None] * ((rho + rho.conj().T) / 2)  # P rho_H
    if not upper.imag.any():
        upper = upper.real
    alphas = np.asarray(alphas, dtype=complex)
    flat = alphas.reshape(-1)
    radii, where = np.unique(np.abs(flat) ** 2, return_inverse=True)
    out = np.zeros(alphas.shape)
    total = out.reshape(-1)  # a view: sums land in out
    term = np.empty(flat.shape)
    power = np.ones(flat.shape, dtype=complex)  # alpha^k
    depths = diagonal_offset_depths(upper != 0)
    reached = 0  # power holds alpha^reached
    for k, n, value in allocating_laguerre_diagonals(radii, depths):
        if n == 0:
            for _ in range(k - reached):
                power *= flat
            reached = k
            u = np.zeros(radii.size, dtype=upper.dtype)  # u_k
        if upper[n, n + k]:
            u += upper[n, n + k] * value
        if n == depths[k] - 1 and u.any():
            parts = [(u.real + u.real if k else u.real, power.real)]
            if k and np.iscomplexobj(u):
                parts.append((-(u.imag + u.imag), power.imag))
            for radial, factor in parts:
                np.take(radial, where, out=term, mode="clip")
                term *= factor
                total += term
    return out


@dataclass
class CharacteristicGrid:
    """chi on a GridSpec as per-mode (r, p, p) tables over each mode's
    (v_q, v_p) plane; the grid is sum_s tables[0][s] (x) tables[1][s]."""

    spec: GridSpec
    tables: list

    @property
    def values(self) -> np.ndarray:
        """The dense grid, axes (q_1..q_m, p_1..p_m)."""
        return _kronecker_grid(self.tables)

    def boundary_residual(self) -> float:
        """Largest |chi| over the faces of the box, relative to the max."""
        values = np.abs(self.values)
        edge = max(np.max(np.take(values, idx, axis=ax))
                   for ax in range(values.ndim) for idx in (0, -1))
        return float(edge) / float(np.max(values))


def characteristic_observable(factors, spec: GridSpec) -> CharacteristicGrid:
    """Tr[A D(v)] for an operator given by its per-mode factor stacks."""
    vq, vp = np.meshgrid(spec.axis, spec.axis, indexing="ij")
    alphas = (vq + 1j * vp) / np.sqrt(2)  # each mode's (v_q, v_p) plane
    return CharacteristicGrid(spec, trace_tables(
        factors, [alphas] * spec.mode_count))


def origin_value(chi: CharacteristicGrid) -> complex:
    """chi(0): the products of the per-mode tables at the centre node."""
    center = chi.spec.points // 2
    terms = np.prod([t[:, center, center] for t in chi.tables], axis=0)
    return complex(terms.sum())


def characteristic_function(rho, spec: GridSpec) -> CharacteristicGrid:
    """chi(v) = Tr[rho D(v)] from the exact displacement matrix elements."""
    grid = characteristic_observable(
        kronecker_factors(rho.matrix, rho.mode_count), spec)
    if abs(origin_value(grid) - 1.0) > 1e-6:
        raise ValueError("characteristic function origin deviates from 1")
    return grid


def symplectic_fourier(tables, v_spec: GridSpec,
                       out_spec: GridSpec) -> np.ndarray:
    """(2 pi)^(-2m) Int chi(v) exp(-i [v, z]) dv as one dense complex grid.

    exp(-i [v, z]) = prod_k exp(-i vp_k zq_k) exp(+i vq_k zp_k), so each
    mode's tables map from (v_q, v_p) to (z_q, z_p) on their own, by
    separable quadrature.
    """
    outer = np.outer(v_spec.axis, out_spec.axis)
    to_q = np.exp(-1j * outer) * v_spec.step
    to_p = np.exp(1j * outer) * v_spec.step
    mapped = [to_q.T @ (t.transpose(0, 2, 1) @ to_p) for t in tables]
    return _kronecker_grid(mapped) * (2 * np.pi) ** (-2 * len(tables))


def default_observable_char_spec(mode_count: int, cutoff: int) -> GridSpec:
    """v-grid resolving the cutoff-level Laguerre oscillation (~sqrt(2N) rad)."""
    if mode_count == 1:
        return GridSpec(1, 12.0, 241 if cutoff <= 60 else 321)
    return GridSpec(2, 10.0, 61)


def chi_route_symbol(obs: PolynomialObservable, cutoff: int,
                     z_spec: GridSpec,
                     char_spec: GridSpec | None = None) -> np.ndarray:
    """The vacuum-smoothed Weyl symbol on z_spec as (2 pi)^m times the
    windowed symplectic Fourier transform of Tr[A D(v)] exp(-|v|^2/4)."""
    m = obs.context.mode_count
    char_spec = char_spec or default_observable_char_spec(m, cutoff)
    chi = characteristic_observable(quantize_terms(obs, cutoff), char_spec)
    # exp(-|v|^2/4) is a product over modes, so it damps each mode's tables
    axis = char_spec.axis
    damp = np.exp(-(axis[:, None] ** 2 + axis[None, :] ** 2) / 4)
    tables = [table * damp for table in chi.tables]
    raw = symplectic_fourier(tables, char_spec, z_spec) * (2 * np.pi) ** m
    return _real_part(raw, 1e-6)


def coherent_table_by_rows(stack: np.ndarray, spec: GridSpec) -> np.ndarray:
    """T[s, i, j] = <alpha|B_s|alpha> at alpha = (axis[i] + i axis[j])/sqrt(2)
    for an (r, c, c) stack B, over spec's (z_q, z_p) plane.

    Built one z_q row at a time, so the ket is a (c, p) table.  Only the
    stack's nonzero diagonals are summed (quantize_terms' factors are
    banded, the bandwidth at most the degree), each by elementwise products
    and an unoptimized np.einsum, which call no BLAS.
    """
    rows, cutoff = stack.shape[:2]
    lower, upper = np.nonzero(stack.any(axis=0))
    offsets = np.unique(upper - lower).tolist()
    axis = spec.axis
    table = np.zeros((rows, spec.points, spec.points), dtype=complex)
    for i, zq in enumerate(axis):
        ket = fockspace.coherent_amplitudes((zq + 1j * axis) / np.sqrt(2),
                                            cutoff)
        bra = ket.conj()
        for d in offsets:
            # <a|B|a + d> pairs conj(<a|alpha>) with <a + d|alpha>
            n, a, b = cutoff - abs(d), max(0, -d), max(0, d)
            table[:, i] += np.einsum(
                "sa,ap->sp", np.diagonal(stack, d, axis1=1, axis2=2),
                bra[a:a + n] * ket[b:b + n])
    return table


def coherent_symbol(factors, z_spec: GridSpec) -> np.ndarray:
    """<alpha|A|alpha> on z_spec as one dense grid, A given by its stacks."""
    raw = _kronecker_grid([coherent_table_by_rows(f, z_spec)
                           for f in factors])
    return _real_part(raw, 1e-6)


def whole_grid_symbol_deviations(obs: PolynomialObservable, cutoff: int,
                                 z_spec: GridSpec | None = None) -> tuple:
    """check_wigner_multiplicativity's (sup_norm_deviation,
    inner_sup_deviation) from the whole symbol grid of the package's
    coherent tables."""
    m = obs.context.mode_count
    z_spec = z_spec or (GridSpec(1, 3.0, 41) if m == 1 else GridSpec(2, 3.0, 21))
    symbol = _real_part(_kronecker_grid(_coherent_tables(obs, cutoff, z_spec)),
                        1e-6)
    zblocks = z_spec.coordinate_blocks()
    target = smoothed_polynomial(obs, [sum(z * c for z, c in zip(gen, zblocks))
                                       for gen in obs.context.generators])
    deviation = np.abs(symbol - target)
    pts = z_spec.points
    inner = deviation[(slice(pts // 4, pts - pts // 4),) * (2 * m)]
    return float(np.max(deviation)), float(np.max(inner))


def wigner_from_characteristic(chi: CharacteristicGrid,
                               out_spec: GridSpec | None = None) -> WignerGrid:
    """State Wigner grid from its characteristic grid (windowed transform)."""
    out_spec = out_spec or chi.spec
    residual = chi.boundary_residual()
    if residual > BOUNDARY_DECAY:
        raise InadequateWindowError(
            f"characteristic function boundary residual {residual:.2e} "
            f"exceeds {BOUNDARY_DECAY:.0e}; widen the transform window")
    raw = symplectic_fourier(chi.tables, chi.spec, out_spec)
    return _normalized_on_window(
        WignerGrid(out_spec, _real_part(raw, IMAG_RESIDUE)))


def whole_product_characteristic_deviations(grid, points, state) -> list:
    """empirical_characteristic_check's deviations for the measure of a
    Wigner grid of any mode count, the first axis contracted by (points x
    grid / first axis) cos and sin products."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    spec = grid.spec
    m = spec.mode_count
    values = grid.values
    k = np.concatenate([pts[:, m:], -pts[:, :m]], axis=1)
    angles = k[:, :, None] * spec.axis
    phases = np.exp(1j * angles[:, 1:])
    flat = values.reshape(spec.points, -1)
    value = 0
    for unit, phase in ((1, np.cos), (1j, np.sin)):
        part = phase(angles[:, 0]) @ flat
        for d in range(phases.shape[1]):
            part = np.einsum("pjr,pj->pr",
                             part.reshape(len(pts), spec.points, -1),
                             phases[:, d])
        value = value + unit * part[:, 0]
    reference = characteristic_at_points(state, pts)
    return [float(d) for d in np.abs(value / values.sum() - reference)]


def full_grid_event_probability(grid, zeta, intervals) -> float:
    """Band-limited P(zeta . phi in the intervals) under the measure of a
    Wigner grid of any mode count, one node sum per interval.

    Every node of the full grid carries its normalized cell mass p_i and
    t_i = zeta . c_i, and adds p_i [Si(B(b - t_i)) - Si(B(a - t_i))]/pi.
    """
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    spec = grid.spec
    probs = cell_probabilities(grid).reshape(spec.shape)
    outcomes = sum(z * block for z, block in
                   zip(zeta, spec.coordinate_blocks()) if z)
    bandwidth = np.pi / (spec.step * np.max(np.abs(zeta)))

    def si(edge):
        if np.isinf(edge):
            return np.copysign(np.pi / 2, edge)
        return sine_integral(bandwidth * (edge - outcomes))

    total = 0.0
    for a, b in intervals:
        total += float(np.sum(probs * (si(b) - si(a)))) / np.pi
    return total


def factor_marginals(model, zeta) -> list:
    """(marginal, axes) per factor of a model (one-mode or a product) with
    a used axis of the label: the factor's weights with its idle axes
    summed out, and the label's indices of its used axes (q_k, then
    p_k)."""
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    m = model.mode_count
    out = []
    for k, factor in enumerate(model.factors):
        axes = [a for a in (k, m + k) if zeta[a]]
        idle = tuple(d for d, a in enumerate((k, m + k)) if not zeta[a])
        if axes:
            out.append((factor.measure.values.sum(axis=idle), axes))
    return out


def serial_slab_event_probability(model, zeta, intervals) -> float:
    """The same sum over the marginal on the used axes, slab by slab.

    The marginal is the outer product of the factors' marginals, its axes
    in factor order.  One Si kernel call per slab for all finite edges;
    the intervals' sums are added slab-major, in the order the blocked
    loop must reproduce, and divided by the product of the factors'
    masses.
    """
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    spec = model.factors[0].measure.spec
    marginals = factor_marginals(model, zeta)
    weights = functools.reduce(np.multiply.outer, [w for w, _ in marginals])
    used = zeta[[a for _, axes in marginals for a in axes]]
    lines = [(z * spec.axis).reshape((-1,) + (1,) * (used.size - 1 - d))
             for d, z in enumerate(used)]
    bandwidth = np.pi / (spec.step * np.max(np.abs(zeta)))
    flat = np.array(intervals, dtype=float).reshape(-1)
    finite = np.isfinite(flat)
    total = 0.0
    for w, outcomes in zip(weights, lines[0]):
        for line in lines[1:]:
            outcomes = outcomes + line
        column = flat[finite].reshape((-1,) + (1,) * w.ndim)
        si = iter(sine_integral(bandwidth * (column - outcomes)))
        si_at = [next(si) if f else np.copysign(np.pi / 2, e)
                 for e, f in zip(flat, finite)]
        for lower, upper in zip(si_at[::2], si_at[1::2]):
            total += np.sum(w * (upper - lower))
    mass = functools.reduce(np.multiply, [w.sum() for w, _ in marginals])
    return float(total / mass) / np.pi


def lattice_event_probability(model, zeta, intervals, n) -> float:
    """The same sum with the weights binned by each node's projection key.

    The used coefficients are n_k g (n in the label's axis order), with
    g = |zeta_k| / |n_k| on the first axis of smallest |zeta_k|, so node
    j of a factor's marginal sits at t = g step key, key = sum_k n_k (j_k
    - c) over its used axes, c = (points - 1) / 2.  Each factor's weights
    are binned by key, the factors' bins are convolved (their keys add),
    and each interval adds sum(bin * (Si(B(b - t)) - Si(B(a - t)))) over
    the keys; Si is evaluated at every edge, infinite ones included.
    """
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    spec = model.factors[0].measure.spec
    used = zeta[zeta != 0]
    first = np.argmin(np.abs(used))
    g = abs(used[first]) / abs(n[first])
    share = dict(zip(np.flatnonzero(zeta), n))
    half = (spec.points - 1) // 2
    marginals = factor_marginals(model, zeta)
    factor_bins = []
    for weights, axes in marginals:
        reach = half * sum(abs(share[a]) for a in axes)
        keys = reach
        for d, a in enumerate(axes):
            shape = [1] * len(axes)
            shape[d] = -1
            keys = keys + share[a] * np.arange(-half, half + 1).reshape(shape)
        factor_bins.append(np.bincount(keys.reshape(-1), weights.reshape(-1),
                                       minlength=2 * reach + 1))
    bins = functools.reduce(np.convolve, factor_bins)
    reach = len(bins) // 2
    outcomes = g * spec.step * np.arange(-reach, reach + 1)
    bandwidth = np.pi / (spec.step * np.max(np.abs(zeta)))
    total = 0.0
    for a, b in sorted(intervals):
        upper = sine_integral(bandwidth * (b - outcomes))
        lower = sine_integral(bandwidth * (a - outcomes))
        total += np.sum(bins * (upper - lower))
    mass = functools.reduce(np.multiply, [w.sum() for w, _ in marginals])
    return float(total / mass) / np.pi


def searchsorted_sample(model, n: int, seed: int,
                        chunk: int) -> np.ndarray:
    """n hidden states drawn chunk by chunk, one plain search per key."""
    spec = model.measure.spec
    probs = model.measure.values.reshape(-1) * model.measure.cell_volume
    cdf = np.cumsum(probs / probs.sum())
    phi = np.empty((n, 2 * spec.mode_count))
    for c, start in enumerate(range(0, n, chunk)):
        out = phi[start:start + chunk]
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([seed, c])))
        u = rng.random((out.shape[0], 1 + out.shape[1]))
        idx = np.searchsorted(cdf, u[:, 0] * cdf[-1], side="right")
        coords = np.unravel_index(idx, spec.shape)
        for d in range(out.shape[1]):
            out[:, d] = spec.axis[coords[d]] + (u[:, 1 + d] - 0.5) * spec.step
    return phi


def expression_wigner_gaussian(state, spec) -> np.ndarray:
    """(2 pi)^-m det(sigma)^-1/2 exp(-d . sigma^-1 d / 2) on the grid nodes."""
    prec = np.linalg.inv(state.covariance)
    d = [c - mu for c, mu in zip(spec.coordinate_blocks(), state.mean)]
    quad = 0.0
    for j in range(len(d)):
        cross = sum(prec[i, j] * d[i] for i in range(j))
        quad = quad + d[j] * (prec[j, j] * d[j] + 2 * cross)
    values = np.exp(-0.5 * quad)
    values *= ((2 * np.pi) ** (-spec.mode_count)
               / np.sqrt(np.linalg.det(state.covariance)))
    return values


def pinned_gaussians() -> dict:
    """name -> (Gaussian state, grid): one and two modes, one correlated."""
    rng = np.random.default_rng(25)
    S = random_symplectic(2, rng, scale=0.3)
    one_mode = GridSpec(1, 6.0, 257)
    return {
        "squeezed": (make_state(StateSpec("squeezed", {"r": 0.5})), one_mode),
        "thermal": (make_state(StateSpec("thermal", {"nbar": 1.0})),
                    one_mode),
        "two-mode coherent": (make_state(StateSpec(
            "coherent", {"alpha": [1.0, 0.5]}, 2)), GridSpec(2, 6.0, 25)),
        "correlated": (GaussianState(rng.uniform(-0.5, 0.5, size=4),
                                     0.5 * S @ S.T), GridSpec(2, 7.0, 25)),
    }


def copying_hvm_measure(grid: WignerGrid) -> np.ndarray:
    """The grid clamped at zero and scaled to unit mass, as a new array."""
    clamped = np.clip(grid.values, 0.0, None)
    return clamped / (clamped.sum() * grid.cell_volume)


def position_marginal(grid: WignerGrid, axis_index: int = 0):
    """Marginal density along one phase-space axis (integrating the rest)."""
    n = 2 * grid.spec.mode_count
    other = tuple(i for i in range(n) if i != axis_index)
    density = grid.values.sum(axis=other) * grid.spec.step ** (n - 1)
    return grid.spec.axis, density


def grid_moment(grid: WignerGrid, axis_index: int, power: int) -> float:
    """Int W(z) z_i^k dz over the grid."""
    axis, density = position_marginal(grid, axis_index)
    return float((density * axis ** power).sum() * grid.spec.step)


def whole_table_hermite_functions(n_max: int, x) -> np.ndarray:
    """psi_0..psi_n_max on x, each row written into one preallocated table."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((n_max + 1, x.size))
    out[0] = np.pi ** -0.25 * np.exp(-x ** 2 / 2)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = (np.sqrt(2.0 / (n + 1)) * x * out[n]
                      - np.sqrt(n / (n + 1)) * out[n - 1])
    return out


def frexp_hermite_functions(n_max: int, x) -> np.ndarray:
    """psi_0..psi_n_max on x by the recurrence on Python floats, each value
    a mantissa renormalized by math.frexp beside its binary exponent, so
    no row underflows before it is written out by math.ldexp."""
    out = np.zeros((n_max + 1, np.size(x)))
    for i, xi in enumerate(np.ravel(x).tolist()):
        # e^(-x^2/2) = 2^t, split into whole and fractional powers of 2
        t = -xi * xi / (2 * math.log(2))
        exp = math.floor(t)
        prev, row = 0.0, math.pi ** -0.25 * 2.0 ** (t - exp)
        out[0, i] = math.ldexp(row, exp)
        for n in range(n_max):
            prev, row = row, (math.sqrt(2 / (n + 1)) * xi * row
                              - math.sqrt(n / (n + 1)) * prev)
            row, shift = math.frexp(row)
            prev = math.ldexp(prev, -shift)
            exp += shift
            out[n + 1, i] = math.ldexp(row, exp)
    return out


def frexp_fock_wigner(n: int, q: float, p: float) -> float:
    """W of |n><n| at (q, p), (-1)^n e^(-r^2) L_n(2 r^2) / pi, from the
    Laguerre recurrence on Python floats with e^(-r^2) and the running
    polynomials carried as mantissas beside one math.frexp exponent."""
    r2 = q * q + p * p
    t = -r2 / math.log(2)  # e^(-r^2) = 2^t
    exp = math.floor(t)
    prev, row = 0.0, 2.0 ** (t - exp)  # L_(-1) = 0 and L_0 = 1, scaled
    for k in range(n):
        prev, row = row, ((2 * k + 1 - 2 * r2) * row - k * prev) / (k + 1)
        row, shift = math.frexp(row)
        prev = math.ldexp(prev, -shift)
        exp += shift
    return (-1) ** n * math.ldexp(row, exp) / math.pi


def whole_table_gkp_coefficients(delta: float, cutoff: int) -> np.ndarray:
    """The GKP state's Fock coefficients before truncation and renormalizing:
    psi(q) on the 8192-point axis, projected onto the whole basis table."""
    spacing = 2 * np.sqrt(np.pi)
    s_max = np.ceil(np.sqrt(45.0) / (delta * spacing)) + 1
    q_max = s_max * spacing + 10 * delta
    axis = np.linspace(-q_max, q_max, 8192)
    psi = np.zeros_like(axis)
    for s in range(-int(s_max), int(s_max) + 1):
        mu = s * spacing
        psi += np.exp(-0.5 * (delta * mu) ** 2) * np.exp(
            -((axis - mu) ** 2) / (2 * delta ** 2))
    psi /= np.sqrt(np.trapezoid(psi ** 2, axis))
    basis = whole_table_hermite_functions(cutoff - 1, axis)
    basis *= psi
    return np.trapezoid(basis, axis, axis=1)


def member_bargmann(A: np.ndarray, b: np.ndarray, g0: complex,
                    cutoff: int) -> np.ndarray:
    """One truncated Gaussian Bargmann array G_k, every index k_i < cutoff,
    from the recurrence of `fockspace._bargmann` for a single member: A is
    (n, n), b (n,), and every pass steps its own slabs with scalar
    coefficients and one shifted slice per later axis and level, which
    starts at index 1 of that axis, so no index reads a later one."""
    n_axes = len(b)
    root = np.sqrt(np.arange(cutoff))
    G = np.zeros((cutoff,) * n_axes, dtype=complex)
    G[(0,) * n_axes] = g0
    for i in reversed(range(n_axes)):
        head = (0,) * i
        later = [(j, j - i - 1, root.reshape((-1,) + (1,) * (n_axes - 1 - j)))
                 for j in range(i + 1, n_axes)]
        for n in range(cutoff - 1):
            slab = G[head + (n,)]
            step = b[i] * slab + A[i, i] * root[n] * G[head + (n - 1,)]
            for j, axis, weight in later:
                lead = (slice(None),) * axis
                step[lead + (slice(1, None),)] += (
                    A[i, j] * weight[1:] * slab[lead + (slice(None, -1),)])
            G[head + (n + 1,)] = step / root[n + 1]
    return G


def member_metaplectic_operator(S: np.ndarray, cutoff: int) -> np.ndarray:
    """`fockspace.metaplectic_operator` with its own setup and recurrence,
    one symplectic matrix at a time."""
    S = np.asarray(S, dtype=float)
    m = S.shape[0] // 2
    qq, qp, pq, pp = S[:m, :m], S[:m, m:], S[m:, :m], S[m:, m:]
    U = (qq + pp + 1j * (pq - qp)) / 2
    V = (qq - pp + 1j * (pq + qp)) / 2
    W = np.linalg.inv(U.conj().T)
    A = np.block([[W @ V.T, W], [W.T, -V.conj().T @ W]])
    G = member_bargmann(A, np.zeros(2 * m, dtype=complex),
                        abs(np.linalg.det(U)) ** -0.5, cutoff)
    return G.reshape(cutoff ** m, cutoff ** m)


@dataclass
class TwoModeFock:
    """A two-mode density matrix on the truncated Fock basis, mode 0 the
    leftmost Kronecker factor, with the attributes the references read."""

    matrix: np.ndarray
    cutoff: int
    mode_count: int = 2
    leakage: float = 0.0


def two_mode_gaussian_to_fock(state: GaussianState,
                              cutoff: int) -> TwoModeFock:
    """`states.gaussian_to_fock`'s construction for two modes, on
    `member_bargmann` over k = (ket modes, bra modes), renormalized; the
    leakage is 1 - Tr of the exact truncated matrix."""
    eye, zero = np.eye(2), np.zeros((2, 2))
    T = np.block([[eye, 1j * eye], [eye, -1j * eye]]) / np.sqrt(2)
    X = np.block([[zero, eye], [eye, zero]])
    Qinv = np.linalg.inv(T @ state.covariance @ T.conj().T + np.eye(4) / 2)
    gamma = T @ state.mean
    g0 = (np.exp(-0.5 * (gamma.conj() @ Qinv @ gamma).real)
          * np.sqrt(np.linalg.det(Qinv).real))
    G = member_bargmann(X @ (np.eye(4) - Qinv).conj(),
                        X @ (Qinv @ gamma).conj(), g0, cutoff)
    rho = G.reshape(cutoff ** 2, cutoff ** 2)
    tr = float(np.trace(rho).real)
    return TwoModeFock((rho + rho.conj().T) / 2 / tr, cutoff,
                       leakage=1.0 - tr)


def trialwise_covariance_suite(rng: np.random.Generator, trials: int = 20,
                               cutoff: int = 50, block: int = 12,
                               scale: float = 0.15) -> dict:
    """`weyl.metaplectic_covariance_suite` one trial at a time: each draw's
    whole operator is built, and its first `block` columns conjugate the
    draw's label, before the next draw.  An S whose largest singular value
    e^r passes e^METAPLECTIC_MAX_SQUEEZE is drawn again."""
    worst = 0.0
    for _ in range(trials):
        S = random_symplectic(1, rng, scale=scale)
        while np.linalg.norm(S, 2) > np.exp(METAPLECTIC_MAX_SQUEEZE):
            S = random_symplectic(1, rng, scale=scale)
        zeta = rng.uniform(-1.5, 1.5, size=2)
        if not np.any(zeta):
            zeta = np.array([1.0, 0.0])
        M = member_metaplectic_operator(S, cutoff)[:, :block]
        got = np.einsum("ia,ib->ab", M.conj(),
                        fockspace.apply_quadrature(zeta, M))
        want = fockspace.apply_quadrature(np.einsum("ij,i->j", S, zeta),
                                          np.eye(block))
        worst = max(worst, float(np.max(np.abs(got - want))))
    return {"trials": trials, "cutoff": cutoff, "block": block,
            "max_deviation": worst, "tolerance": 1e-6,
            "pass": bool(worst <= 1e-6)}


def dense_covariance_state(state) -> GaussianState:
    """`wigner.covariance_state` of a one-mode Fock state from dense
    quadrature products: mu_i = Tr[rho R_i] and sigma_ij = Tr[rho (R_i R_j
    + R_j R_i)/2] - mu_i mu_j, each product formed at cutoff + 1 and cut
    back, so the top level keeps its whole <n|R_i R_j|n>."""
    c = state.cutoff
    quads = (position_operator(c + 1), momentum_operator(c + 1))

    def moment(*axes):  # Re Tr[rho R_axes[0] R_axes[1] ...]
        F = np.eye(c + 1)
        for i in axes:
            F = F @ quads[i]
        return np.einsum("ai,ia->", state.matrix, F[:c, :c]).real

    mean = np.array([moment(i) for i in range(2)])
    second = np.array([[moment(i, j) for j in range(2)] for i in range(2)])
    return GaussianState(mean, (second + second.T) / 2 - np.outer(mean, mean))


def monomial(context, exponents) -> PolynomialObservable:
    return PolynomialObservable(context, [(1.0, tuple(exponents))])


def quantize_polynomial(obs: PolynomialObservable, cutoff: int) -> np.ndarray:
    """Symmetric-ordering quantization of f over its commuting context.

    For a genuine context the symmetrized product equals the plain product
    of the generator matrices on levels at least 2*degree below the cutoff.
    """
    return kronecker_sum(quantize_terms(obs, cutoff))


def trusted_block_mask(cutoff: int, mode_count: int, degree: int) -> np.ndarray:
    """Boolean mask of multi-indices with every mode level <= cutoff - 2*degree."""
    keep = np.arange(cutoff) <= cutoff - 2 * degree
    mask = keep.copy()
    for _ in range(mode_count - 1):
        mask = np.kron(mask, keep)
    return mask


def smoothed_polynomial(obs: PolynomialObservable, values: list):
    """The polynomial convolved with the vacuum-Wigner smoothing kernel, at
    the generator coordinates values[i] = zeta_i . z."""
    return _smoothed(_smoothing_terms(obs), values)


def cell_probabilities(grid) -> np.ndarray:
    """A Wigner grid's cell masses over their sum, flattened in C order."""
    probs = grid.values.reshape(-1) * grid.cell_volume
    probs /= probs.sum()
    return probs
