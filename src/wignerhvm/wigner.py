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

import functools
from dataclasses import dataclass

import numpy as np

from . import fockspace
from .phase_space import omega
from .states import FockDensityOperator, GaussianState, InadequateWindowError

BOUNDARY_DECAY = 1e-8
IMAG_RESIDUE = 1e-8
NORMALIZATION_TOL = 1e-3
# Largest grid-sized array a GridSpec may call for, counted as complex128;
# admits the 61^4 two-mode observable chi grid (221 MB) with room to spare.
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
        n = 2 * self.mode_count
        out = []
        for i in range(n):
            shape = [1] * n
            shape[i] = self.points
            out.append(self.axis.reshape(shape))
        return out

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
    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.spec.shape:
            raise ValueError("values shape does not match the grid")

    def origin_value(self) -> complex:
        center = (self.spec.points // 2,) * (2 * self.spec.mode_count)
        return complex(self.values[center])

    def boundary_residual(self) -> float:
        """Largest |chi| on the grid boundary relative to the global max."""
        vmax = float(np.max(np.abs(self.values)))
        if vmax == 0:
            return 0.0
        worst = 0.0
        for ax in range(self.values.ndim):
            for idx in (0, -1):
                face = np.take(self.values, idx, axis=ax)
                worst = max(worst, float(np.max(np.abs(face))))
        return worst / vmax


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
    n = 2 * spec.mode_count
    coords = spec.coordinate_blocks()
    quad = 0.0
    for i in range(n):
        di = coords[i] - state.mean[i]
        for j in range(n):
            dj = coords[j] - state.mean[j]
            quad = quad + prec[i, j] * di * dj
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


def _displacement_traces(factors, spec: GridSpec, scale: float) -> np.ndarray:
    """Tr[A D(scale * v)] at every node v of a one- or two-mode grid.

    A is given by its per-mode factor stacks.  Since D(v) = D(v1) (x) D(v2),
    Tr[(B (x) C) D(v)] = Tr[B D(v1)] Tr[C D(v2)], so the two-mode grid is
    one product X^T Y of per-mode trace tables read from a single
    displacement table.
    """
    axis = spec.axis
    vq, vp = np.meshgrid(axis, axis, indexing="ij")
    alphas = scale * (vq + 1j * vp) / np.sqrt(2)
    if spec.mode_count == 1:
        return fockspace.displacement_trace(factors[0].sum(axis=0), alphas)
    if spec.mode_count != 2:
        raise ValueError("phase-space grids supported for m <= 2")
    c = factors[0].shape[1]
    # d[(j, i), v] = <j|D|i>; Tr[B D] = sum B[i, j] d[(j, i)]
    d = fockspace.displacement_matrix(alphas.reshape(-1), c).reshape(c * c, -1)
    x, y = (f.transpose(0, 2, 1).reshape(len(f), c * c) @ d for f in factors)
    p = spec.points
    # flat per-mode index is (vq, vp); reorder axes to (vq1, vq2, vp1, vp2)
    chi = (x.T @ y).reshape(p, p, p, p)
    return np.ascontiguousarray(chi.transpose(0, 2, 1, 3))


def characteristic_function(rho: FockDensityOperator,
                            spec: GridSpec) -> CharacteristicGrid:
    """chi(v) = Tr[rho D(v)] from the exact displacement matrix elements."""
    if spec.mode_count != rho.mode_count:
        raise ValueError("grid/state mode mismatch")
    factors = fockspace.kronecker_factors(rho.matrix, rho.mode_count)
    grid = CharacteristicGrid(spec, _displacement_traces(factors, spec, 1.0))
    if abs(grid.origin_value() - 1.0) > 1e-6:
        raise ValueError("characteristic function origin deviates from 1")
    return grid


def characteristic_observable(factors, spec: GridSpec) -> CharacteristicGrid:
    """Tr[A D(v)] for an operator given by its per-mode factor stacks.

    No trace-one check; see fockspace for the factored form.
    """
    if len(factors) != spec.mode_count:
        raise ValueError("grid/observable mode mismatch")
    return CharacteristicGrid(spec, _displacement_traces(factors, spec, 1.0))


def characteristic_at_points(state, points: np.ndarray) -> np.ndarray:
    """chi(v) at arbitrary phase-space points (closed form or exact trace)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(state, GaussianState):
        m = state.mode_count
        k = -pts @ omega(m).T  # k = omega^T v
        phase = 1j * (k @ state.mean)
        damp = -0.5 * np.einsum("ij,jk,ik->i", k, state.covariance, k)
        return np.exp(phase + damp)
    out = np.zeros(pts.shape[0], dtype=complex)
    m = state.mode_count
    for idx, v in enumerate(pts):
        dmat = np.array([[1.0 + 0j]])
        for mode in range(m):
            alpha = (v[mode] + 1j * v[m + mode]) / np.sqrt(2)
            dmat = np.kron(dmat, fockspace.displacement_matrix(
                alpha, state.cutoff))
        out[idx] = np.trace(state.matrix @ dmat)
    return out


def _symplectic_fourier(values: np.ndarray, v_spec: GridSpec,
                        out_spec: GridSpec) -> np.ndarray:
    """(2 pi)^(-2m) Int chi(v) exp(-i [v, z]) dv by separable quadrature."""
    m = v_spec.mode_count
    h = v_spec.step
    v_axis = v_spec.axis
    z_axis = out_spec.axis
    result = np.asarray(values, dtype=complex)
    # exp(-i [v, z]) = prod_i exp(+i vq_i zp_i) exp(-i vp_i zq_i)
    for i in range(2 * m):
        sign = 1.0 if i < m else -1.0
        kernel = np.exp(sign * 1j * np.outer(v_axis, z_axis)) * h
        result = np.tensordot(result, kernel, axes=([0], [0]))
    # appended z-axes are (zp_1..zp_m, zq_1..zq_m); swap the blocks
    result = np.transpose(result, axes=list(range(m, 2 * m)) + list(range(m)))
    return result * (2 * np.pi) ** (-2 * m)


def wigner_from_characteristic(chi: CharacteristicGrid,
                               out_spec: GridSpec | None = None) -> WignerGrid:
    """State Wigner grid from its characteristic grid (windowed transform)."""
    out_spec = out_spec or chi.spec
    residual = chi.boundary_residual()
    if residual > BOUNDARY_DECAY:
        raise InadequateWindowError(
            f"characteristic function boundary residual {residual:.2e} "
            f"exceeds {BOUNDARY_DECAY:.0e}; widen the transform window")
    raw = _symplectic_fourier(chi.values, chi.spec, out_spec)
    scale = float(np.max(np.abs(raw.real)))
    imag = float(np.max(np.abs(raw.imag)))
    if imag > IMAG_RESIDUE * max(scale, 1e-300):
        raise ValueError(f"imaginary residue {imag:.2e} too large")
    return _normalized_on_window(WignerGrid(out_spec, raw.real))


def weyl_symbol_from_characteristic(chi: CharacteristicGrid,
                                    out_spec: GridSpec | None = None):
    """Weyl symbol of an observable from Tr[A D(v)].

    Returns (grid, boundary_residual); a large residual means the window
    truncates the observable's characteristic data and the caller should
    flag the comparison instead of trusting it.
    """
    out_spec = out_spec or chi.spec
    raw = _symplectic_fourier(chi.values, chi.spec, out_spec)
    raw = raw * (2 * np.pi) ** chi.spec.mode_count
    scale = float(np.max(np.abs(raw.real)))
    imag = float(np.max(np.abs(raw.imag)))
    if imag > 1e-6 * max(scale, 1e-300):
        raise ValueError(f"imaginary residue {imag:.2e} too large for a "
                         "Hermitian observable")
    return WignerGrid(out_spec, raw.real), chi.boundary_residual()


def wigner_fock_direct(rho: FockDensityOperator, spec: GridSpec) -> WignerGrid:
    """Wigner function without the characteristic-function transform.

    Royer's parity identity W(z) = pi^-m Tr[P rho D(2 alpha(z))], with P
    the parity operator, reuses the displacement-element kernel of the chi
    route at doubled amplitude but needs neither the Fourier transform nor
    its window.  The kernel itself is checked independently by the Gaussian
    closed form and the analytic Fock-state tests.
    """
    if spec.mode_count != rho.mode_count:
        raise ValueError("grid/state mode mismatch")
    parity = (-1.0) ** np.arange(rho.cutoff)
    sign = functools.reduce(np.kron, [parity] * rho.mode_count)
    # P rho signs the rows; rho P (signed columns) would give W(-z)
    factors = fockspace.kronecker_factors(sign[:, None] * rho.matrix,
                                          rho.mode_count)
    raw = _displacement_traces(factors, spec, 2.0)
    raw = raw / np.pi ** rho.mode_count
    scale = float(np.max(np.abs(raw.real)))
    imag = float(np.max(np.abs(raw.imag)))
    if imag > IMAG_RESIDUE * max(scale, 1e-300):
        raise ValueError(f"imaginary residue {imag:.2e} too large")
    return WignerGrid(spec, raw.real)


def default_char_spec(mode_count: int, halfwidth: float | None = None,
                      points: int | None = None) -> GridSpec:
    if halfwidth is None:
        halfwidth = 16.0 if mode_count == 1 else 12.0
    if points is None:
        points = 257 if mode_count == 1 else 41
    return GridSpec(mode_count, halfwidth, points)


def state_wigner(state, spec: GridSpec,
                 char_spec: GridSpec | None = None) -> WignerGrid:
    """Wigner grid of a state: Gaussian closed form or the Fock chi route."""
    if isinstance(state, GaussianState):
        return wigner_gaussian(state, spec)
    char_spec = char_spec or default_char_spec(state.mode_count)
    chi = characteristic_function(state, char_spec)
    return wigner_from_characteristic(chi, spec)


def negativity_volume(grid: WignerGrid) -> float:
    """Integral of |W| minus the integral of W (zero iff W >= 0 on the grid)."""
    vals = grid.values
    return float((np.abs(vals) - vals).sum() * grid.cell_volume)


def log_negativity(grid: WignerGrid) -> float:
    return float(np.log(np.abs(grid.values).sum() * grid.cell_volume))


def min_value(grid: WignerGrid):
    """Grid minimum and its phase-space location."""
    idx = np.unravel_index(np.argmin(grid.values), grid.values.shape)
    location = tuple(float(grid.spec.axis[i]) for i in idx)
    return float(grid.values[idx]), location


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


@dataclass
class HudsonReport:
    classification: str
    purity: float
    min_value: float
    min_location: tuple
    fourth_cumulant: float

    def to_dict(self) -> dict:
        return {
            "classification": self.classification,
            "purity": self.purity,
            "min_value": self.min_value,
            "min_location": list(self.min_location),
            "fourth_cumulant": self.fourth_cumulant,
        }


def hudson_classify(state, spec: GridSpec | None = None,
                    char_spec: GridSpec | None = None) -> HudsonReport:
    """Classify a pure state as Gaussian-nonnegative or Wigner-negative.

    For pure states the two notions coincide; mixed inputs are rejected and
    callers must inspect the grid minimum directly instead.
    """
    purity = state.purity()
    if purity <= 1 - 1e-6:
        raise MixedStateError(
            f"purity {purity:.6f} below the pure-state threshold")
    spec = spec or GridSpec(state.mode_count, 6.0, 257)
    w = state_wigner(state, spec, char_spec)
    mn, loc = min_value(w)
    tol = 1e-6 * float(np.max(np.abs(w.values)))
    classification = "gaussian_nonnegative" if mn >= -tol else "negative"

    kurt = 0.0
    for ax in range(2 * spec.mode_count):
        axis, density = position_marginal(w, ax)
        mass = density.sum() * spec.step
        mu = (density * axis).sum() * spec.step / mass
        var = (density * (axis - mu) ** 2).sum() * spec.step / mass
        m4 = (density * (axis - mu) ** 4).sum() * spec.step / mass
        kurt = max(kurt, abs(m4 - 3 * var ** 2))
    gaussian_by_cumulant = kurt < 1e-3
    if (classification == "gaussian_nonnegative") != gaussian_by_cumulant:
        # for a pure state they can only disagree when the window clips
        # the marginals
        raise InadequateWindowError(
            f"negativity and fourth-cumulant classifiers disagree "
            f"(min {mn:.3e}, cumulant {kurt:.3e}); widen the window")
    return HudsonReport(classification, purity, mn, loc, kurt)


def wigner_to_csv(grid: WignerGrid, path) -> None:
    """One row per grid node in axes-major order: q1,...,p_m,W."""
    m = grid.spec.mode_count
    names = [f"q{i + 1}" for i in range(m)] + [f"p{i + 1}" for i in range(m)]
    header = ",".join(names + ["W"])
    coords = np.meshgrid(*([grid.spec.axis] * 2 * m), indexing="ij")
    columns = [c.reshape(-1) for c in coords] + [grid.values.reshape(-1)]
    data = np.column_stack(columns)
    np.savetxt(path, data, delimiter=",", header=header, comments="")


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
