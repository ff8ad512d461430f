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
from .states import FockDensityOperator, GaussianState, InadequateWindowError

BOUNDARY_DECAY = 1e-8
IMAG_RESIDUE = 1e-8
NORMALIZATION_TOL = 1e-3
# negative W within this factor of max |W| is rounding (build_hvm, hudson)
NEGATIVITY_TOL_FACTOR = 1e-9
PURITY_TOL = 1e-6
# Largest array a request may call for, in bytes: dense W and chi grids
# (counted as complex128), and hvm-compare's samples and oracle CDF table.
GRID_BYTES_LIMIT = 2 ** 30


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
        if not (self.halfwidth > 0 and np.isfinite(self.step)):
            raise ValueError("halfwidth must be positive with a finite step")
        nbytes = 16 * self.points ** (2 * self.mode_count)
        if nbytes > GRID_BYTES_LIMIT:
            raise InadequateWindowError(
                f"a {self.points}-point {self.mode_count}-mode grid needs "
                f"{nbytes / 2 ** 30:.1f} GiB per array, above the "
                f"{GRID_BYTES_LIMIT / 2 ** 30:.0f} GiB limit; use fewer points")

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.halfwidth, self.halfwidth, self.points)

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
        if not np.all(np.isfinite(self.values)):
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

    def origin_value(self) -> complex:
        center = self.spec.points // 2
        terms = np.prod([t[:, center, center] for t in self.tables], axis=0)
        return complex(terms.sum())

    def boundary_residual(self) -> float:
        """Largest |chi| on the grid boundary relative to the global max.

        Two modes are read from the tables a, b as (r, p^2) blocks, one
        (p, p^2) slab of a^T b per row of mode-1 points; the boundary is
        mode 1 or mode 2 on its (4p - 4)-point ring.  Each element is the
        one `values` holds, so both maxima equal the dense ones.  By
        Cauchy-Schwarz every |chi| in a slab is at most the largest column
        norm of its block of a times the largest column norm of b; slabs
        are visited in decreasing bound, and one whose bound is below the
        maximum found so far cannot hold the global max and is skipped.
        The bound is widened by 8 (r + 2) units of relative rounding, for the
        r-term sums and the norms, and as many smallest subnormals, for
        products below the normal range; a NaN bound is never below anything.
        """
        p = self.spec.points
        ring = np.ones((p, p), dtype=bool)
        ring[1:-1, 1:-1] = False
        ring = ring.reshape(-1)
        flat = [t.reshape(len(t), p * p) for t in self.tables]
        if len(flat) == 1:
            mag = np.abs(flat[0].sum(axis=0))
            vmax, edge = np.max(mag), np.max(mag[ring])
        else:
            a, b = flat
            norm_a, norm_b = (np.hypot.reduce(np.abs(t), axis=0) for t in flat)
            slack = 8 * (len(a) + 2)
            bounds = np.max(norm_a.reshape(p, p), axis=1) * np.max(norm_b)
            bounds = (bounds * (1 + slack * np.finfo(float).eps)
                      + slack * np.finfo(float).smallest_subnormal)
            vmax = 0.0
            for i in np.argsort(-bounds, kind="stable"):
                if bounds[i] < vmax:
                    continue
                # np.maximum, not max(): a NaN in any slab must reach vmax
                vmax = np.maximum(
                    vmax, np.max(np.abs(a[:, i * p:(i + 1) * p].T @ b)))
            edge = np.maximum(np.max(np.abs(a[:, ring].T @ b)),
                              np.max(np.abs(a.T @ b[:, ring])))
        if vmax == 0:
            return 0.0
        return float(edge) / float(vmax)


def _kronecker_grid(tables) -> np.ndarray:
    """sum_s tables[0][s] (x) tables[1][s] with axes (q_1..q_m, p_1..p_m)."""
    if len(tables) == 1:
        return tables[0].sum(axis=0)
    return np.tensordot(*tables, axes=([0], [0])).transpose(0, 2, 1, 3)


def wigner_gaussian(state: GaussianState, spec: GridSpec) -> WignerGrid:
    """Closed-form Gaussian Wigner function, strictly positive everywhere."""
    if spec.mode_count != state.mode_count:
        raise ValueError("grid/state mode mismatch")
    cov = state.covariance
    det = np.linalg.det(cov)
    if det <= 0 or np.linalg.cond(cov) > 1e12:
        raise InadequateWindowError(
            "covariance is singular on this scale; the grid cannot "
            "resolve the state")
    prec = np.linalg.inv(cov)
    d = [c - mu for c, mu in zip(spec.coordinate_blocks(), state.mean)]
    # one axis at a time: term j spans axes 0..j, so only the last is
    # grid-sized
    quad = 0.0
    for j in range(len(d)):
        cross = sum(prec[i, j] * d[i] for i in range(j))
        quad = quad + d[j] * (prec[j, j] * d[j] + 2 * cross)
    values = np.exp(-0.5 * quad)
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


def _grid_amplitudes(spec: GridSpec, scale: float) -> list[np.ndarray]:
    """alpha = scale * (v_q + i v_p) / sqrt(2) over each mode's axes."""
    vq, vp = np.meshgrid(spec.axis, spec.axis, indexing="ij")
    return [scale * (vq + 1j * vp) / np.sqrt(2)] * spec.mode_count


def characteristic_function(rho: FockDensityOperator,
                            spec: GridSpec) -> CharacteristicGrid:
    """chi(v) = Tr[rho D(v)] from the exact displacement matrix elements."""
    grid = characteristic_observable(
        fockspace.kronecker_factors(rho.matrix, rho.mode_count), spec)
    if abs(grid.origin_value() - 1.0) > 1e-6:
        raise ValueError("characteristic function origin deviates from 1")
    return grid


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


def wigner_from_characteristic(chi: CharacteristicGrid,
                               out_spec: GridSpec | None = None) -> WignerGrid:
    """State Wigner grid from its characteristic grid (windowed transform)."""
    out_spec = out_spec or chi.spec
    residual = chi.boundary_residual()
    if residual > BOUNDARY_DECAY:
        raise InadequateWindowError(
            f"characteristic function boundary residual {residual:.2e} "
            f"exceeds {BOUNDARY_DECAY:.0e}; widen the transform window")
    raw = _symplectic_fourier(chi.tables, chi.spec, out_spec)
    return _normalized_on_window(
        WignerGrid(out_spec, _real_part(raw, IMAG_RESIDUE)))


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


def wigner_fock_direct(rho: FockDensityOperator, spec: GridSpec) -> WignerGrid:
    """Wigner grid of a Fock state, with no characteristic-function transform.

    Royer's parity identity W(z) = pi^-m Tr[P rho D(2 alpha(z))], with P
    the parity operator, reuses the displacement-element kernel of the chi
    route at doubled amplitude but needs neither the Fourier transform nor
    its window.  The kernel itself is checked independently by the Gaussian
    closed form and the analytic Fock-state tests.
    """
    if spec.mode_count != rho.mode_count:
        raise ValueError("grid/state mode mismatch")
    parity = (-1.0) ** np.arange(rho.cutoff)
    # P = P_1 (x) P_2 signs the rows of every factor; rho P (signed
    # columns) would give W(-z)
    factors = [parity[:, None] * f for f in
               fockspace.kronecker_factors(rho.matrix, rho.mode_count)]
    raw = _kronecker_grid(_trace_tables(factors, _grid_amplitudes(spec, 2.0)))
    raw = raw / np.pi ** rho.mode_count
    return WignerGrid(spec, _real_part(raw, IMAG_RESIDUE))


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
    np.savetxt with "%.18e", written one slab of the first axis at a time."""
    m = grid.spec.mode_count
    names = [f"q{i + 1}" for i in range(m)] + [f"p{i + 1}" for i in range(m)]
    axis = [f"{x:.18e}," for x in grid.spec.axis.tolist()]
    tails = ["".join(t) for t in itertools.product(axis, repeat=2 * m - 1)]
    with open(path, "w") as fh:
        fh.write(",".join(names + ["W"]) + "\n")
        for head, slab in zip(axis, grid.values):
            fh.write("".join([f"{head}{tail}{w:.18e}\n" for tail, w
                              in zip(tails, slab.reshape(-1).tolist())]))


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
