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
                     InadequateWindowError, over_limit, require_grid_modes,
                     short_int)

# largest |chi| on a transform window's boundary, relative to its max,
# for which a state's windowed Wigner transform is trusted
BOUNDARY_DECAY = 1e-8
NORMALIZATION_TOL = 1e-3
# negative W within this factor of max |W| is rounding (build_hvm, hudson)
NEGATIVITY_TOL_FACTOR = 1e-9
PURITY_TOL = 1e-6
# "%.18e\n" of a float64 is at most 27 bytes: the sign, 19 digits, the
# point, "e", a signed exponent of up to 3 digits and the newline
CSV_TEXT_WIDTH = 27
# values formatted per list before they are copied into the text array
CSV_FORMAT_CHUNK = 2 ** 10
# mode-1 points per block of CharacteristicGrid.boundary_residual: every
# block splits rows only, so the run length moves no bit of the residual,
# only its peak (two (run, p^2) arrays) and its time
RESIDUAL_RUN_POINTS = 8


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
        return InadequateWindowError(over_limit(
            f"one array of a {short_int(self.points)}-point "
            f"{self.mode_count}-mode grid", nbytes) + "; use fewer points")

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
            raise InadequateWindowError("grid contains non-finite values")

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
    runs of mode-1 points; `values` is the dense grid with axes
    (q_1..q_m, p_1..p_m), a view for references and tests.
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

        Two modes are read from the tables a, b as (r, p^2) blocks, so chi
        is a^T b over (mode-1 point, mode-2 point), and the boundary is
        mode 1 or mode 2 on its (4p - 4)-point ring.  All three maxima are
        one pruned_max(points, cols) over blocks a[:, run]^T b[:, cols]:
        the global max takes every mode-1 point against all of b, mode 1's
        face its ring points against all of b, and mode 2's face every
        mode-1 point against b's ring points.  A run is RESIDUAL_RUN_POINTS
        consecutive entries of `points`, the last taking the remainder.

        By Cauchy-Schwarz every |chi| in a block is at most the largest
        column norm of its run of a times the largest of b[:, cols].  The
        bound is widened by 8 (r + 2) units of relative rounding, for the
        r-term sums and the norms, and as many smallest subnormals, for
        products below the normal range.  Blocks are visited NaN bounds
        first, then in decreasing bound, and the loop stops at the first
        bound below the maximum found so far; a NaN bound comes before that
        stop, so it is never below anything.

        Runs split the rows of a^T b, never its columns.  Every run has at
        least two rows and all of `cols`, so its elements keep the bits of
        the whole products a^T b, a[:, ring]^T b and a^T b[:, ring]: one
        row alone would be a matrix-vector product, and a share of the
        columns of b may also round differently.
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

            def pruned_max(points, cols):
                # a start at or past len - 1 would leave a one-row run
                starts = np.arange(0, len(points) - 1, RESIDUAL_RUN_POINTS)
                bounds = (np.maximum.reduceat(norm_a[points], starts)
                          * np.max(norm_b[cols]))
                bounds = (bounds * (1 + slack * np.finfo(float).eps)
                          + slack * np.finfo(float).smallest_subnormal)
                stops = np.append(starts[1:], len(points))
                right = b[:, cols]
                # NaN sorts last in -bounds; np.isnan puts it first
                order = np.lexsort((-bounds, ~np.isnan(bounds)))
                top = 0.0
                for i in order:
                    if bounds[i] < top:
                        break
                    # one expression, so no block outlives its own max;
                    # np.maximum, not max(): a NaN in any block must reach top
                    top = np.maximum(top, np.max(np.abs(
                        a[:, points[starts[i]:stops[i]]].T @ right)))
                return top

            every = np.arange(p * p)
            ring_points = np.flatnonzero(ring)
            vmax = pruned_max(every, slice(None))
            edge = np.maximum(pruned_max(ring_points, slice(None)),
                              pruned_max(every, ring_points))
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


def characteristic_observable(factors, spec: GridSpec) -> CharacteristicGrid:
    """Tr[A D(v)] for an operator given by its per-mode factor stacks.

    No trace-one check; see fockspace for the factored form.
    """
    if len(factors) != spec.mode_count:
        raise ValueError("grid/observable mode mismatch")
    vq, vp = np.meshgrid(spec.axis, spec.axis, indexing="ij")
    alphas = (vq + 1j * vp) / np.sqrt(2)  # each mode's (v_q, v_p) plane
    return CharacteristicGrid(spec, _trace_tables(
        factors, [alphas] * spec.mode_count))


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


def _fourier_tables(tables, v_spec: GridSpec, out_spec: GridSpec) -> list:
    """Each mode's tables mapped from (v_q, v_p) to (z_q, z_p).

    exp(-i [v, z]) = prod_k exp(-i vp_k zq_k) exp(+i vq_k zp_k), so each
    mode's tables map on their own, by separable quadrature; the
    symplectic Fourier transform (2 pi)^(-2m) Int chi(v) exp(-i [v, z]) dv
    is _kronecker_grid of the mapped tables times (2 pi)^(-2m).
    """
    outer = np.outer(v_spec.axis, out_spec.axis)
    to_q = np.exp(-1j * outer) * v_spec.step
    to_p = np.exp(1j * outer) * v_spec.step
    return [to_q.T @ (t.transpose(0, 2, 1) @ to_p) for t in tables]


def _require_real(scale, imag, tol: float) -> None:
    """Raise unless imag (max |imag|) is within tol times scale (max |real|)."""
    if imag > tol * max(scale, 1e-300):
        raise ValueError(f"imaginary residue {imag:.2e} too large")


def weyl_symbol_from_characteristic(chi: CharacteristicGrid,
                                    out_spec: GridSpec, target, inner: slice):
    """Sup-norm distance of an observable's Weyl symbol from a target.

    The symbol is (2 pi)^m times the symplectic Fourier transform of
    Tr[A D(v)].  It is formed one first-axis (z_q1) slab at a time from
    the mapped tables (_fourier_tables), so no array the size of the z
    grid is held; target(blocks) gives the comparison function on a
    slab's coordinate blocks, out_spec's with block 0 sliced to the slab.
    Each slab has the bits of the whole grid's, and the sups are maxima,
    which do not round.  Returns (sup, inner_sup, boundary_residual): the
    largest |symbol - target| over the grid and over the window `inner`
    of every axis, and chi's boundary residual; a large residual means
    the window truncates the observable's characteristic data and the
    caller should flag the comparison instead of trusting it.  After the
    last slab, a max |imag| above 1e-6 max |real|, or a non-finite real
    part, raises ValueError.
    """
    m = chi.spec.mode_count
    mapped = _fourier_tables(chi.tables, chi.spec, out_spec)
    blocks = list(out_spec.coordinate_blocks())
    window = (slice(None),) + (inner,) * (2 * m - 1)
    inner_rows = range(out_spec.points)[inner]
    # np.maximum, not max(): a NaN in any slab must reach the result
    sup = inner_sup = scale = imag = 0.0
    for i in range(out_spec.points):
        rows = slice(i, i + 1)
        raw = _kronecker_grid([mapped[0][:, rows]] + mapped[1:])
        raw *= (2 * np.pi) ** (-2 * m)
        raw *= (2 * np.pi) ** m
        scale = np.maximum(scale, np.max(np.abs(raw.real)))
        imag = np.maximum(imag, np.max(np.abs(raw.imag)))
        deviation = np.abs(raw.real - target([blocks[0][rows]] + blocks[1:]))
        sup = np.maximum(sup, np.max(deviation))
        if i in inner_rows:
            inner_sup = np.maximum(inner_sup, np.max(deviation[window]))
    _require_real(float(scale), float(imag), 1e-6)
    if not np.isfinite(scale):
        raise ValueError("symbol contains non-finite values")
    return float(sup), float(inner_sup), chi.boundary_residual()


def wigner_fock_direct(rho: FockDensityOperator, spec: GridSpec) -> WignerGrid:
    """Wigner grid of a one-mode Fock state, with no characteristic-function
    transform.

    W(q, p) = sum_jk C_jk g_j(q) g_k(p) (fockspace.hermite_coefficients),
    so the grid is A C A^T with A the table of the g_j on the axis
    (fockspace.hermite_functions).  Both products are unoptimized
    two-operand np.einsum calls, which call no BLAS, so the bits do not
    depend on the thread count; they are formed for a block of about
    fockspace.BLOCK_NODES nodes (grid rows) at a time, each with the bits
    of the whole product.  Beside the grid, which owns its bytes, it holds
    C, A (D + 1 floats per axis node) and one block's first product.
    """
    if spec.mode_count != 1 or rho.mode_count != 1:
        raise ValueError("the Fock grid route takes one mode")
    coef = fockspace.hermite_coefficients(rho.matrix)
    table = fockspace.hermite_functions(len(coef) - 1, np.sqrt(2) * spec.axis)
    table *= 2 ** 0.25
    values = np.empty(spec.shape)
    step = max(1, fockspace.BLOCK_NODES // spec.points)
    for start in range(0, spec.points, step):
        rows = slice(start, start + step)
        np.einsum("ik,kj->ij", np.einsum("ji,jk->ik", table[:, rows], coef),
                  table, out=values[rows])
    return WignerGrid(spec, values)


def state_wigner(state, spec: GridSpec) -> WignerGrid:
    """Wigner grid of a state: Gaussian closed form or the Hermite route."""
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
    # max |W| with no |W| grid
    near = values <= mn + 1e-12 * max(values.max(), -mn)
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
    (about fockspace.BLOCK_NODES nodes): Wigner grids repeat their values
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
    step = max(1, fockspace.BLOCK_NODES // len(tails))
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
