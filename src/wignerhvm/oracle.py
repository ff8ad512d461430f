"""Truncated-Fock quantum oracle: homodyne statistics as ground truth.

Every probability of zeta . R_hat comes from one CDF: the closed-form
normal CDF (special.ndtr) for Gaussian states, and for one-mode Fock
states the exact trace Tr[rho F(t/|zeta|)] against the Hermite-overlap
integrals F_mn(x) = int_{-inf}^x psi_m psi_n, after the phase shift
e^(-i theta n) takes zeta/|zeta| onto the position axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fockspace
from .phase_space import observable_label
from .special import ndtr
from .states import FockDensityOperator, GaussianState, InadequateWindowError

# c x c x points float tables a Fock state's CDF holds at its peak:
# tracemalloc reads 3.02-3.31 for fockspace.hermite_overlap_cdf at c = 20-100
# and 200-2000 bins (its result, F and the two Wronskian products), and
# 3.04-3.22 for a whole hvm-compare on fock 0 at c = 30-100
CDF_TABLES = 4


@dataclass(frozen=True)
class BinSpec:
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        # a NaN or infinite end makes hi - lo NaN or infinite
        if self.count < 1 or not 0 < self.hi - self.lo < np.inf:
            raise ValueError("bad bin specification")

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count + 1)


@dataclass
class OutcomeDistribution:
    bin_edges: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        self.bin_edges = np.asarray(self.bin_edges, dtype=float)
        self.masses = np.asarray(self.masses, dtype=float)
        if self.masses.size != self.bin_edges.size - 1:
            raise ValueError("need one mass per bin")
        if not np.all(np.isfinite(self.masses) & (self.masses >= -1e-12)):
            raise ValueError("bin masses must be finite and nonnegative")


def distribution_to_csv(dist: OutcomeDistribution, path) -> None:
    """Write one row per bin: bin_left, bin_right, mass."""
    rows = np.column_stack([dist.bin_edges[:-1], dist.bin_edges[1:],
                            dist.masses])
    np.savetxt(path, rows, delimiter=",",
               header="bin_left,bin_right,mass", comments="")


def tv_distance(a: OutcomeDistribution, b: OutcomeDistribution) -> float:
    """Half the L1 distance between two distributions on identical bins."""
    if a.bin_edges.size != b.bin_edges.size or \
            np.max(np.abs(a.bin_edges - b.bin_edges)) > 1e-12:
        raise ValueError("bin edges differ")
    return float(0.5 * np.sum(np.abs(a.masses - b.masses)))


def _gaussian_marginal(state: GaussianState, zeta: np.ndarray):
    with np.errstate(over="ignore"):
        mean = float(zeta @ state.mean)
        var = float(zeta @ state.covariance @ zeta)
    if not (np.isfinite(mean) and 0 < var < np.inf):
        raise InadequateWindowError(
            f"zeta . R has mean {mean!r} and variance {var!r} in floating "
            "point; its distribution cannot be resolved")
    return mean, var


def _rotated_state(rho: FockDensityOperator, zeta: np.ndarray):
    """One-mode matrix whose q-distribution is that of zeta.R/|zeta|; |zeta|.

    zeta . R = |zeta| (cos theta q + sin theta p), theta = atan2(zeta_p,
    zeta_q), and e^(i theta n) q e^(-i theta n) = cos theta q + sin theta p,
    so the phase shift U = e^(-i theta n) maps rho to U rho U^dag, whose
    elements are rho[m, n] e^(-i theta (m - n)): diagonal in the Fock
    basis, exact at any cutoff, and trace-preserving.
    """
    theta = np.arctan2(zeta[1], zeta[0])
    k = np.arange(rho.cutoff)
    phases = np.exp(-1j * theta * (k[:, None] - k))
    return rho.matrix * phases, float(np.linalg.norm(zeta))


def homodyne_density(state, zeta, axis: np.ndarray) -> np.ndarray:
    """Probability density of the observable zeta . R_hat on the given axis."""
    zeta = observable_label(zeta, state.mode_count)
    if isinstance(state, GaussianState):
        mean, var = _gaussian_marginal(state, zeta)
        sd = np.sqrt(var)
        z = (axis - mean) / sd
        return np.exp(-z ** 2 / 2) / np.sqrt(2 * np.pi) / sd
    rotated, scale = _rotated_state(state, zeta)
    psi = fockspace.hermite_functions(state.cutoff - 1, axis / scale)
    density = np.einsum("ms,mn,ns->s", psi, rotated, psi).real / scale
    return np.clip(density, 0.0, None)


def _cdf(state, zeta, points) -> np.ndarray:
    """Pr(zeta . R_hat <= t) at each point t, infinite points included."""
    zeta = observable_label(zeta, state.mode_count)
    if isinstance(state, GaussianState):
        mean, var = _gaussian_marginal(state, zeta)
        return ndtr((points - mean) / np.sqrt(var))
    rotated, scale = _rotated_state(state, zeta)
    F = fockspace.hermite_overlap_cdf(state.cutoff, points / scale)
    return np.einsum("mn,mn...->...", rotated, F).real


def quantum_homodyne_distribution(state, zeta,
                                  bins: BinSpec) -> OutcomeDistribution:
    """Binned distribution of zeta . R_hat: Tr[rho Pi(bin)] per bin."""
    edges = bins.edges
    return OutcomeDistribution(edges, np.diff(_cdf(state, zeta, edges)))


def _normalize_intervals(intervals):
    """Sorted, disjoint float pairs a <= b (a == b is an empty event)."""
    out = []
    for a, b in intervals:
        a, b = float(a), float(b)
        if not a <= b:  # False for a NaN edge
            raise ValueError("each interval needs edges a <= b, neither NaN")
        out.append((a, b))
    out.sort()
    for (a1, b1), (a2, b2) in zip(out, out[1:]):
        if a2 < b1:
            raise ValueError("overlapping intervals")
    return out


def event_probability(state, zeta, intervals) -> float:
    """Tr[rho Pi_{zeta.R}(X)] for X a finite union of intervals."""
    intervals = _normalize_intervals(intervals)
    cdf = _cdf(state, zeta, np.reshape(intervals, (-1, 2)))
    return float(sum(b - a for a, b in cdf))

