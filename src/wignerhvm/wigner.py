"""Wigner and characteristic functions on phase-space grids.

Conventions (hbar = 1): the displacement operator is D(zeta) =
exp(i zeta^T omega R_hat), the characteristic function is chi(v) =
Tr[rho D(v)], and the Wigner function is the symplectic Fourier transform

    W(z) = (2 pi)^(-2m) Int chi(v) exp(-i [v, z]) dv,

with the sign pairing chosen so that a displaced state's Wigner function
peaks at its mean and the transform of a quadrature operator is the linear
coordinate itself.  The (2 pi)^(-2m) constant makes Int W = 1 for every
mode count; the Weyl symbol of an observable carries an extra (2 pi)^m.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from . import fockspace
from .phase_space import omega
from .states import (GRID_BYTES_LIMIT, FockDensityOperator, GaussianState,
                     InadequateWindowError, gib, require_grid_modes,
                     short_int)

# largest |chi| on a transform window's boundary, relative to its max,
# for which a state's windowed Wigner transform is trusted
BOUNDARY_DECAY = 1e-8
IMAG_RESIDUE = 1e-8
NORMALIZATION_TOL = 1e-3
# negative W within this factor of max |W| is rounding (build_hvm, hudson)
NEGATIVITY_TOL_FACTOR = 1e-9
PURITY_TOL = 1e-6
# p^2-sized complex arrays the two-mode traces hold beside their tables:
# the amplitudes, alpha^k, the radii's sort and inverse, and two per-row
# products
PARITY_TEMPORARIES = 4
# real arrays per quadrant node, N = ((p + 1)/2)^2, that the one-mode route
# holds at its peak beside two per mirror-image sum: the amplitudes and
# alpha^k (2 each), the inverse, one term and about six per-radius buffers
# over at most N/2 + p distinct radii.  A sum counts twice because a
# complex rho_H, beside two more sums, holds a complex u_k, its products
# and a second radial part.  tracemalloc reads 11.2-12.3 N for a real rho_H
# (13 counted) and 14.8-16.1 N for a complex one (17) at 257-1,025 points
PARITY_QUADRANT_ARRAYS = 9
# nodes per block of first-axis slabs that wigner_to_csv dedupes at once;
# a 257^2 grid is one block, and the block's texts and np.unique arrays
# peak near 50 bytes a node when every value is distinct
CSV_BLOCK_NODES = 2 ** 17
# "%.18e\n" of a float64 is at most 27 bytes: the sign, 19 digits, the
# point, "e", a signed exponent of up to 3 digits and the newline
CSV_TEXT_WIDTH = 27
# values formatted per list before they are copied into the text array
CSV_FORMAT_CHUNK = 2 ** 10


class MixedStateError(ValueError):
    """Pure-state classification requested for a mixed state."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform symmetric grid over R^{2m}, one axis per phase-space axis."""

    mode_count: int
    halfwidth: float
    points: int

    def __post_init__(self):
        if self.points < 3 or self.points % 2 == 0:
            raise ValueError("points must be odd and at least 3")
        require_grid_modes(self.mode_count)  # before 3^(2m) is counted
        nbytes = 16 * self.points ** (2 * self.mode_count)
        try:
            float(self.points)
        except OverflowError:  # no step to check, and far above the limit
            raise self._oversized(nbytes) from None
        if not (self.halfwidth > 0 and np.isfinite(self.step)):
            raise ValueError("halfwidth must be positive with a finite step")
        with np.errstate(over="ignore"):
            volume = np.float64(self.step) ** (2 * self.mode_count)
        if not np.isfinite(volume):
            raise ValueError("the grid's cell volume overflows; use a "
                             "narrower window or more points")
        if nbytes > GRID_BYTES_LIMIT:
            raise self._oversized(nbytes)

    def _oversized(self, nbytes: int) -> InadequateWindowError:
        return InadequateWindowError(
            f"a {short_int(self.points)}-point {self.mode_count}-mode grid "
            f"needs {gib(nbytes)} GiB per array, above the "
            f"{GRID_BYTES_LIMIT / 2 ** 30:.0f} GiB limit; use fewer points")

    @property
    def axis(self) -> np.ndarray:
        """np.linspace's upper half, mirrored below a 0.0 centre.

        So axis[::-1] == -axis exactly; a node is within 3 ulp of the
        halfwidth of linspace's, and equal where linspace is mirrored.
        """
        axis = np.linspace(-self.halfwidth, self.halfwidth, self.points)
        half = self.points // 2
        axis[half] = 0.0
        axis[:half] = -axis[:half:-1]
        return axis

    @property
    def step(self) -> float:
        return 2 * self.halfwidth / (self.points - 1)

    @property
    def cell_volume(self) -> float:
        return self.step ** (2 * self.mode_count)

    @property
    def shape(self) -> tuple:
        return (self.points,) * (2 * self.mode_count)

    def coordinate_blocks(self):
        """Broadcastable coordinate arrays, one per phase-space axis."""
        return np.meshgrid(*[self.axis] * (2 * self.mode_count),
                           indexing="ij", sparse=True)

    def to_dict(self) -> dict:
        return {"mode_count": self.mode_count, "halfwidth": self.halfwidth,
                "points": self.points}


@dataclass
class WignerGrid:
    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.spec.shape:
            raise ValueError("values shape does not match the grid")
        # NaN propagates through min and max, so no boolean grid is needed
        if not (np.isfinite(self.values.min())
                and np.isfinite(self.values.max())):
            raise ValueError("grid contains non-finite values")

    @property
    def cell_volume(self) -> float:
        return self.spec.cell_volume

    @property
    def normalization(self) -> float:
        return float(self.values.sum() * self.cell_volume)


@dataclass
class CharacteristicGrid:
    """chi on a GridSpec, held as per-mode tables.

    tables[k] is an (r, p, p) stack over mode k's (v_q, v_p) axes, and the
    grid stands for sum_s tables[0][s] (x) tables[1][s], the factored form
    of fockspace.  The boundary residual is computed from the tables by
    slabs; `values` is the dense grid with axes (q_1..q_m, p_1..p_m), a view
    for references and tests.
    """

    spec: GridSpec
    tables: list

    def __post_init__(self):
        self.tables = [np.asarray(t, dtype=complex) for t in self.tables]
        shapes = [t.shape[1:] for t in self.tables]
        if shapes != [(self.spec.points,) * 2] * self.spec.mode_count:
            raise ValueError("tables do not match the grid")

    @property
    def values(self) -> np.ndarray:
        return _kronecker_grid(self.tables)

    def boundary_residual(self) -> float:
        """Largest |chi| on the grid boundary relative to the global max.

        Two modes are read from the tables a, b as (r, p^2) blocks; slab i
        is row i of mode-1 points, and the boundary is mode 1 or mode 2 on
        its (4p - 4)-point ring.  All three maxima follow one pruning rule
        over blocks of a^T b: the global max over the (p, p^2) slabs, mode
        1's face over each slab's ring points against all of b, and mode 2's
        face over each slab against b's ring points.  By Cauchy-Schwarz
        every |chi| in a block is at most the largest column norm of its
        columns of a times the largest of its columns of b; blocks are
        visited in decreasing bound, and one whose bound is below the
        maximum found so far is skipped.  The bound is widened by 8 (r + 2)
        units of relative rounding, for the r-term sums and the norms, and
        as many smallest subnormals, for products below the normal range;
        a NaN bound is never below anything.  Every block has at least two
        rows and the columns of a^T b or of a^T b[:, ring], so its elements
        keep the bits of those whole products; one row or column alone
        would be a matrix-vector product, which may round differently.
        """
        p = self.spec.points
        ring = np.ones((p, p), dtype=bool)
        ring[1:-1, 1:-1] = False
        flat = [t.reshape(len(t), p * p) for t in self.tables]
        if len(flat) == 1:
            mag = np.abs(flat[0].sum(axis=0))
            vmax, edge = np.max(mag), np.max(mag[ring.reshape(-1)])
        else:
            a, b = flat
            norm_a, norm_b = (np.hypot.reduce(np.abs(t), axis=0) for t in flat)
            slack = 8 * (len(a) + 2)

            def pruned_max(bounds, block):
                bounds = (bounds * (1 + slack * np.finfo(float).eps)
                          + slack * np.finfo(float).smallest_subnormal)
                top = 0.0
                for i in np.argsort(-bounds, kind="stable"):
                    if bounds[i] < top:
                        continue
                    # np.maximum, not max(): a NaN in any block must reach top
                    top = np.maximum(top, np.max(np.abs(block(i))))
                return top

            def slab(i):
                return a[:, i * p:(i + 1) * p]

            ring_b = np.flatnonzero(ring)
            slab_norm = np.max(norm_a.reshape(p, p), axis=1)
            ring_norm = np.max(np.where(ring, norm_a.reshape(p, p), 0), axis=1)
            vmax = pruned_max(slab_norm * np.max(norm_b),
                              lambda i: slab(i).T @ b)
            # candidates 0..p-1 are mode 1's face, p..2p-1 mode 2's
            edge = pruned_max(
                np.concatenate([ring_norm * np.max(norm_b),
                                slab_norm * np.max(norm_b[ring_b])]),
                lambda k: (slab(k)[:, ring[k]].T @ b if k < p
                           else slab(k - p).T @ b[:, ring_b]))
        if vmax == 0:
            return 0.0
        return float(edge) / float(vmax)


def _kronecker_grid(tables) -> np.ndarray:
    """sum_s tables[0][s] (x) tables[1][s] with axes (q_1..q_m, p_1..p_m)."""
    if len(tables) == 1:
        return tables[0].sum(axis=0)
    return np.tensordot(*tables, axes=([0], [0])).transpose(0, 2, 1, 3)


def wigner_gaussian(state: GaussianState, spec: GridSpec) -> WignerGrid:
    """Closed-form Gaussian Wigner function, strictly positive everywhere.

    Memory: one grid, the returned one.  The quadratic form is summed one
    axis at a time, so only its last term is grid-sized; that term is
    built in one buffer, which takes the earlier terms, the factor -1/2,
    the exponential and the normalization in place.  Each step is the same
    IEEE operation as in the plain expression, its operands commuted at
    most, so the grid has the same bits.
    """
    if spec.mode_count != state.mode_count:
        raise ValueError("grid/state mode mismatch")
    cov = state.covariance
    with np.errstate(over="ignore"):  # inf: no mass on the grid, exit 3 below
        det = np.linalg.det(cov)
    if det <= 0 or np.linalg.cond(cov) > 1e12:
        raise InadequateWindowError(
            "covariance is singular on this scale; the grid cannot "
            "resolve the state")
    prec = np.linalg.inv(cov)
    d = [c - mu for c, mu in zip(spec.coordinate_blocks(), state.mean)]
    # one axis at a time: term j spans axes 0..j, so only the last is
    # grid-sized; an overflow is an exponent of -inf, a node where W is 0
    quad = 0.0
    with np.errstate(over="ignore"):
        for j in range(len(d)):
            cross = sum(prec[i, j] * d[i] for i in range(j))
            term = prec[j, j] * d[j] + 2 * cross
            term *= d[j]
            term += quad
            quad = term
    quad *= -0.5
    values = np.exp(quad, out=quad)
    values *= (2 * np.pi) ** (-spec.mode_count) / np.sqrt(det)
    return _normalized_on_window(WignerGrid(spec, values))


def _normalized_on_window(grid: WignerGrid) -> WignerGrid:
    """The grid itself, unless the window misses too much of the mass."""
    if abs(grid.normalization - 1.0) > NORMALIZATION_TOL:
        raise InadequateWindowError(
            f"Wigner normalization {grid.normalization:.6f} misses 1 by more "
            f"than {NORMALIZATION_TOL}; widen the output window")
    return grid


def _trace_tables(factors, alphas) -> list[np.ndarray]:
    """Per-mode tables t[k][s] = Tr[B_sk D(alpha)] over alphas[k].

    A = sum_s B_s0 (x) B_s1 is given by its per-mode factor stacks, and
    D(v) = D(v1) (x) D(v2), so Tr[A D(v)] = sum_s prod_k t[k][s] at each v.
    """
    if len(factors) > 2:
        raise ValueError("phase-space grids supported for m <= 2")
    return list(map(fockspace.displacement_trace, factors, alphas))


def _amplitudes(axis: np.ndarray, scale: float) -> np.ndarray:
    """alpha = scale * (v_q + i v_p) / sqrt(2) over one mode's axes."""
    vq, vp = np.meshgrid(axis, axis, indexing="ij")
    return scale * (vq + 1j * vp) / np.sqrt(2)


def _grid_amplitudes(spec: GridSpec, scale: float) -> list[np.ndarray]:
    return [_amplitudes(spec.axis, scale)] * spec.mode_count


def characteristic_observable(factors, spec: GridSpec) -> CharacteristicGrid:
    """Tr[A D(v)] for an operator given by its per-mode factor stacks.

    No trace-one check; see fockspace for the factored form.
    """
    if len(factors) != spec.mode_count:
        raise ValueError("grid/observable mode mismatch")
    return CharacteristicGrid(spec, _trace_tables(
        factors, _grid_amplitudes(spec, 1.0)))


def characteristic_at_points(state, points: np.ndarray) -> np.ndarray:
    """chi(v) at arbitrary phase-space points (closed form or exact trace)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = state.mode_count
    if isinstance(state, GaussianState):
        k = -pts @ omega(m).T  # k = omega^T v
        phase = 1j * (k @ state.mean)
        damp = -0.5 * np.einsum("ij,jk,ik->i", k, state.covariance, k)
        return np.exp(phase + damp)
    factors = fockspace.kronecker_factors(state.matrix, m)
    alphas = (pts[:, :m] + 1j * pts[:, m:]) / np.sqrt(2)
    return np.prod(_trace_tables(factors, alphas.T), axis=0).sum(axis=0)


def _symplectic_fourier(tables, v_spec: GridSpec,
                        out_spec: GridSpec) -> np.ndarray:
    """(2 pi)^(-2m) Int chi(v) exp(-i [v, z]) dv by separable quadrature.

    exp(-i [v, z]) = prod_k exp(-i vp_k zq_k) exp(+i vq_k zp_k), so each
    mode's tables map from (v_q, v_p) to (z_q, z_p) on their own.
    """
    outer = np.outer(v_spec.axis, out_spec.axis)
    to_q = np.exp(-1j * outer) * v_spec.step
    to_p = np.exp(1j * outer) * v_spec.step
    out = _kronecker_grid([to_q.T @ (t.transpose(0, 2, 1) @ to_p)
                           for t in tables])
    return out * (2 * np.pi) ** (-2 * len(tables))


def _real_part(raw: np.ndarray, tol: float) -> np.ndarray:
    """raw.real, unless max |imag| exceeds tol times max |real|."""
    scale = float(np.max(np.abs(raw.real)))
    imag = float(np.max(np.abs(raw.imag)))
    if imag > tol * max(scale, 1e-300):
        raise ValueError(f"imaginary residue {imag:.2e} too large")
    return raw.real


def weyl_symbol_from_characteristic(chi: CharacteristicGrid,
                                    out_spec: GridSpec | None = None):
    """Weyl symbol of an observable from Tr[A D(v)].

    Returns (grid, boundary_residual); a large residual means the window
    truncates the observable's characteristic data and the caller should
    flag the comparison instead of trusting it.
    """
    out_spec = out_spec or chi.spec
    raw = _symplectic_fourier(chi.tables, chi.spec, out_spec)
    raw = raw * (2 * np.pi) ** chi.spec.mode_count
    symbol = WignerGrid(out_spec, _real_part(raw, 1e-6))
    return symbol, chi.boundary_residual()


def parity_route_bytes(rows: int, mode_count: int, points: int,
                       sums: int = 2) -> int:
    """Peak bytes of wigner_fock_direct with r-row factor stacks.

    One mode sums the quadrant of N = ((p + 1)/2)^2 nodes into `sums` real
    arrays, two for a real rho_H and four for a complex one
    (fockspace.parity_trace), and holds PARITY_QUADRANT_ARRAYS + 2 sums
    arrays of that size at its peak.  Two modes hold their factor stacks,
    r = c^2 rows of c x c blocks per mode, throughout.  The traces add
    every mode's r x p^2 table, the last mode's per-radius sums u and l
    (2 r R, with R <= p^2 / 2 distinct radii by the q <-> p symmetry) and
    PARITY_TEMPORARIES p^2 arrays; forming the grid holds at most the
    tables, the complex grid and its real copy.
    """
    if mode_count == 1:
        arrays = PARITY_QUADRANT_ARRAYS + 2 * sums
        return 8 * arrays * ((points + 1) // 2) ** 2
    nodes = points ** 2
    # in real (8-byte) units
    stacks = 2 * mode_count * rows * rows
    traces = 2 * ((mode_count + 1) * rows + PARITY_TEMPORARIES) * nodes
    forming = 2 * mode_count * rows * nodes + 3 * points ** (2 * mode_count)
    return 8 * (stacks + max(traces, forming))


def wigner_fock_direct(rho: FockDensityOperator, spec: GridSpec) -> WignerGrid:
    """Wigner grid of a Fock state, with no characteristic-function transform.

    Royer's parity identity W(z) = pi^-m Tr[P rho D(2 alpha(z))], with P
    the parity operator, evaluates the displacement-element kernel at
    doubled amplitude and needs neither a Fourier transform nor its window.
    The kernel itself is checked independently by the Gaussian closed form
    and the analytic Fock-state tests.  One mode sums its real
    part directly (fockspace.parity_trace), one diagonal per offset in real
    buffers, with the bits of the complex grid's real part when rho is
    exactly Hermitian, as make_state builds it; no imaginary part is left
    for _real_part to check.  Only the amplitudes of the quadrant q, p >= 0
    of the sign-symmetric axis are built, and parity_trace writes the whole
    grid from mirror-image sums with a whole-grid sum's bits.  Two modes
    form the complex grid from displacement_trace's tables, divide it in
    place and return a copy of its real part once _real_part has checked
    the residue.  Either way the returned grid owns its bytes.  A grid
    whose working set (parity_route_bytes) exceeds GRID_BYTES_LIMIT is
    refused with InadequateWindowError before any grid-sized array is
    built: one mode stops at 6,425 points per axis for a real rho_H, or at
    5,617 for a complex one.
    """
    if spec.mode_count != rho.mode_count:
        raise ValueError("grid/state mode mismatch")
    sums = 2  # the one-mode route's mirror-image sums
    if rho.mode_count == 1:
        upper = fockspace.parity_matrix(rho.matrix)
        if np.iscomplexobj(upper):
            sums = 4
    # kronecker_factors gives one mode 1 row and two modes c^2 rows
    nbytes = parity_route_bytes(rho.cutoff ** (2 * rho.mode_count - 2),
                                spec.mode_count, spec.points, sums)
    if nbytes > GRID_BYTES_LIMIT:
        raise InadequateWindowError(
            f"the parity route on a {spec.points}-point grid needs "
            f"{nbytes / 2 ** 30:.2f} GiB of working arrays, above the "
            f"{GRID_BYTES_LIMIT / 2 ** 30:.0f} GiB limit; use fewer points")
    if rho.mode_count == 1:
        quadrant = spec.axis[spec.points // 2:]
        values = fockspace.parity_trace(upper, _amplitudes(quadrant, 2.0))
        # numpy divides a complex grid by a real scalar as a product with
        # its reciprocal; this product keeps those bits
        values *= 1 / np.pi
        return WignerGrid(spec, values)
    parity = (-1.0) ** np.arange(rho.cutoff)
    # P = P_1 (x) P_2 signs the rows of every factor; rho P (signed
    # columns) would give W(-z)
    factors = [parity[:, None] * f for f in
               fockspace.kronecker_factors(rho.matrix, rho.mode_count)]
    raw = _kronecker_grid(_trace_tables(factors, _grid_amplitudes(spec, 2.0)))
    raw /= np.pi ** rho.mode_count
    return WignerGrid(spec, _real_part(raw, IMAG_RESIDUE).copy())


def state_wigner(state, spec: GridSpec) -> WignerGrid:
    """Wigner grid of a state: Gaussian closed form or the parity route."""
    if isinstance(state, GaussianState):
        return wigner_gaussian(state, spec)
    return _normalized_on_window(wigner_fock_direct(state, spec))


def negativity_volume(grid: WignerGrid) -> float:
    """Integral of |W| minus the integral of W (zero iff W >= 0 on the grid)."""
    vals = grid.values
    return float((np.abs(vals) - vals).sum() * grid.cell_volume)


def log_negativity(grid: WignerGrid) -> float:
    return float(np.log(np.abs(grid.values).sum() * grid.cell_volume))


def min_value(grid: WignerGrid):
    """Grid minimum and its phase-space location.

    The location is the first node in index order within 1e-12 max|W| of
    the minimum, so rounding cannot choose between mirror-image minima.
    """
    values = grid.values
    mn = values.min()
    near = values <= mn + 1e-12 * np.max(np.abs(values))
    idx = np.unravel_index(np.argmax(near), values.shape)
    location = tuple(float(grid.spec.axis[i]) for i in idx)
    return float(mn), location


def covariance_state(state) -> GaussianState:
    """The Gaussian state with the first two moments of `state`.

    A Fock state's moments are exact: mu_i = Tr[rho R_i] and sigma_ij =
    Tr[rho (R_i R_j + R_j R_i)/2] - mu_i mu_j.  Per-mode products are formed
    at cutoff + 1 and cut back, so the top level keeps its whole
    <n|R_i R_j|n>; each trace contracts rho elementwise, with no matmul.
    """
    if isinstance(state, GaussianState):
        return state
    c, m = state.cutoff, state.mode_count
    quads = (fockspace.position_operator(c + 1),
             fockspace.momentum_operator(c + 1))
    tensor = state.matrix.reshape((c,) * (2 * m))  # (kets, bras)

    def moment(*axes):  # Re Tr[rho R_axes[0] R_axes[1] ...]
        factors = [np.eye(c + 1)] * m
        for i in axes:
            factors[i % m] = factors[i % m] @ quads[i // m]
        # Tr[rho F] = sum rho[a b, i j] F_1[i, a] F_2[j, b]
        return np.einsum("ab"[:m] + "ij"[:m] + ",ia,jb"[:3 * m] + "->", tensor,
                         *(f[:c, :c] for f in factors)).real

    mean = np.array([moment(i) for i in range(2 * m)])
    second = np.array([[moment(i, j) for j in range(2 * m)]
                       for i in range(2 * m)])
    return GaussianState(mean, (second + second.T) / 2 - np.outer(mean, mean))


@dataclass
class HudsonReport:
    classification: str
    purity: float
    min_value: float
    min_location: tuple
    covariance_purity: float

    def to_dict(self) -> dict:
        return {**asdict(self), "min_location": list(self.min_location)}


def hudson_classify(state, spec: GridSpec | None = None) -> HudsonReport:
    """Classify a pure state as Gaussian-nonnegative or Wigner-negative.

    For pure states the two notions coincide (Hudson; Soto & Claverie for
    m modes); mixed inputs are rejected.  The grid minimum is read with
    build_hvm's clamp.  The second opinion needs no grid: a pure state is
    Gaussian iff the purity 1/sqrt(det 2 sigma) of its covariance_state is 1.
    """
    purity = state.purity()
    if purity <= 1 - PURITY_TOL:
        raise MixedStateError(
            f"purity {purity:.6f} below the pure-state threshold")
    spec = spec or GridSpec(state.mode_count, 6.0, 257)
    w = state_wigner(state, spec)
    mn, loc = min_value(w)
    tol = NEGATIVITY_TOL_FACTOR * float(np.max(np.abs(w.values)))
    classification = "gaussian_nonnegative" if mn >= -tol else "negative"
    cov_purity = covariance_state(state).purity()
    if (classification == "gaussian_nonnegative") != \
            (cov_purity > 1 - PURITY_TOL):
        if -tol <= mn < 0:
            hint = ("the grid minimum is negative but inside the clamp of "
                    f"{NEGATIVITY_TOL_FACTOR:g} max|W|")
        else:
            hint = "refine the grid's resolution or widen its window"
        raise InadequateWindowError(
            f"negativity and covariance classifiers disagree (min {mn:.3e}, "
            f"covariance purity {cov_purity:.9f}); {hint}")
    return HudsonReport(classification, purity, mn, loc, cov_purity)


def wigner_to_csv(grid: WignerGrid, path) -> None:
    """Rows q1,...,p_m,W per node in axes-major order, byte-identical to
    np.savetxt with "%.18e", written one slab of the first axis at a time.

    W is formatted once per distinct bit pattern in each block of slabs
    (about CSV_BLOCK_NODES nodes): Wigner grids repeat their values
    exactly under mirror symmetry.  The key is the bits, not the value,
    since 0.0 and -0.0 are printed differently.
    """
    m = grid.spec.mode_count
    names = [f"q{i + 1}" for i in range(m)] + [f"p{i + 1}" for i in range(m)]
    axis = [f"{x:.18e},".encode() for x in grid.spec.axis.tolist()]
    tails = [b"".join(t) for t in itertools.product(axis, repeat=2 * m - 1)]
    # a slab's rows are joined from (head, tail, W) triples; the tails are
    # the same in every slab
    parts = [b""] * (3 * len(tails))
    parts[1::3] = tails
    step = max(1, CSV_BLOCK_NODES // len(tails))
    with open(path, "wb") as fh:
        fh.write(",".join(names + ["W"]).encode() + b"\n")
        for start in range(0, len(axis), step):
            _write_csv_block(fh, parts, axis[start:start + step],
                             grid.values[start:start + step])


def _write_csv_block(fh, parts, heads, block) -> None:
    """The rows of one block of first-axis slabs.

    The texts are held in one bytes array rather than as an object per
    value: the pages of many small objects stay resident after they are
    freed.
    """
    bits, inverse = np.unique(block.reshape(-1).view(np.int64),
                              return_inverse=True)
    values = bits.view(np.float64)
    text = np.empty(values.size, dtype=f"S{CSV_TEXT_WIDTH}")
    for k in range(0, values.size, CSV_FORMAT_CHUNK):
        text[k:k + CSV_FORMAT_CHUNK] = [
            f"{w:.18e}\n" for w in values[k:k + CSV_FORMAT_CHUNK].tolist()]
    for head, row in zip(heads, inverse.reshape(len(heads), -1)):
        parts[0::3] = [head] * len(row)
        parts[2::3] = text[row].tolist()
        fh.write(b"".join(parts))


def sidecar_dict(grid: WignerGrid) -> dict:
    mn, loc = min_value(grid)
    return {
        "axes": grid.spec.to_dict(),
        "cell_volume": grid.cell_volume,
        "normalization": grid.normalization,
        "min": {"value": mn, "location": list(loc)},
        "negativity_volume": negativity_volume(grid),
        "log_negativity": log_negativity(grid),
    }
