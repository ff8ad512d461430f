"""Wigner and characteristic functions on phase-space grids.

Conventions (hbar = 1): the displacement operator is D(zeta) =
exp(i zeta^T omega R_hat), the characteristic function is chi(v) =
Tr[rho D(v)], and the Wigner function is the symplectic Fourier transform

    W(z) = (2 pi)^(-2m) Int chi(v) exp(-i [v, z]) dv,

with the sign pairing chosen so that a displaced state's Wigner function
peaks at its mean and the transform of a quadrature operator is the linear
coordinate itself.  The (2 pi)^(-2m) constant makes Int W = 1 for every
mode count.  A one-mode Fock state's W is sum_jk C_jk g_j(q) g_k(p) over
Hermite functions, which the transform maps to themselves, so its grid
and its chi both read the state's C (FockDensityOperator.coefficients).
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
# negative W within this factor of max |W| is rounding (negativity_clamp)
NEGATIVITY_TOL_FACTOR = 1e-9
PURITY_TOL = 1e-6
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
            f"Wigner normalization {grid.normalization:.6g} misses 1 by more "
            f"than {NORMALIZATION_TOL}; widen the output window or use more "
            f"points")
    return grid


def characteristic_at_points(state, points: np.ndarray) -> np.ndarray:
    """chi(v) at arbitrary phase-space points: the Gaussian closed form, or
    for one Fock mode the Hermite coefficients C of its Wigner function.

    chi(v) = Int W(z) exp(i [v, z]) dz with [v, z] = v_p q - v_q p, and the
    g_j map to sqrt(pi) i^j g_j(. / 2) under that transform, so chi(v) =
    pi sum_jk C_jk i^j (-i)^k g_j(v_p / 2) g_k(v_q / 2).  The sum is one
    unoptimized np.einsum, which calls no BLAS, so the bits do not depend
    on the thread count.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(state, GaussianState):
        k = -pts @ omega(state.mode_count).T  # k = omega^T v
        phase = 1j * (k @ state.mean)
        damp = -0.5 * np.einsum("ij,jk,ik->i", k, state.covariance, k)
        return np.exp(phase + damp)
    coef = state.coefficients
    n_max = len(coef) - 1
    powers = np.array([1, 1j, -1, -1j])[np.arange(len(coef)) % 4, None]
    by_p = powers * fockspace.hermite_basis(n_max, pts[:, 1] / 2)  # i^j g_j
    by_q = powers.conj() * fockspace.hermite_basis(n_max, pts[:, 0] / 2)
    return np.pi * np.einsum("jk,jx,kx->x", coef, by_p, by_q)


def wigner_fock_direct(rho: FockDensityOperator, spec: GridSpec) -> WignerGrid:
    """Wigner grid of a one-mode Fock state, with no characteristic-function
    transform.

    W(q, p) = sum_jk C_jk g_j(q) g_k(p) (rho.coefficients), so the grid is
    A C A^T with A the table of the g_j on the axis
    (fockspace.hermite_basis).  Both products are unoptimized two-operand
    np.einsum calls, which call no BLAS, so the bits do not depend on the
    thread count; they are formed for a block of about fockspace.BLOCK_NODES
    nodes (grid rows) at a time, each with the bits of the whole product.
    Beside the grid, which owns its bytes, and the state's C, it holds A
    (D + 1 floats per axis node) and one block's first product.
    """
    if spec.mode_count != 1:
        raise ValueError("grid/state mode mismatch")
    coef = rho.coefficients
    table = fockspace.hermite_basis(len(coef) - 1, spec.axis)
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


def negativity_clamp(values: np.ndarray, mn: float) -> float:
    """NEGATIVITY_TOL_FACTOR max |W| for a grid of minimum mn, read from the
    min and the max with no |W| grid: W down to minus this is rounding
    (build_hvm clamps it, hudson_classify reads it as nonnegative)."""
    return NEGATIVITY_TOL_FACTOR * max(float(values.max()), -mn)


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

    A one-mode Fock state's moments are exact: mu_i = Tr[rho R_i] and
    sigma_ij = Tr[rho (R_i R_j + R_j R_i)/2] - mu_i mu_j.  The products are
    formed at cutoff + 1 and cut back, so the top level keeps its whole
    <n|R_i R_j|n>; each trace contracts rho elementwise, with no matmul.
    """
    if isinstance(state, GaussianState):
        return state
    c = state.cutoff
    quads = (fockspace.position_operator(c + 1),
             fockspace.momentum_operator(c + 1))

    def moment(*axes):  # Re Tr[rho R_axes[0] R_axes[1] ...]
        F = np.eye(c + 1)
        for i in axes:
            F = F @ quads[i]
        # Tr[rho F] = sum rho[a, i] F[i, a]
        return np.einsum("ai,ia->", state.matrix, F[:c, :c]).real

    mean = np.array([moment(i) for i in range(2)])
    second = np.array([[moment(i, j) for j in range(2)] for i in range(2)])
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
    tol = negativity_clamp(w.values, mn)
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
