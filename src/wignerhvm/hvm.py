"""Phase-space hidden-variable model for nonnegative Wigner functions.

The hidden-state space is phase space itself: a nonnegative normalized
Wigner grid is the probability measure, a hidden state phi assigns the
value zeta . phi to the observable zeta . R_hat, and polynomials of
commuting observables take the corresponding polynomial of those values,
so functional relations inside a context hold identically.  Negativity
anywhere makes the construction impossible, and build_hvm turns that
into a typed error carrying the witness location.

Event probabilities and samples use two readings of the same node
weights.  Events integrate the band-limited (Whittaker-Shannon)
interpolant of the weights, which reproduces the continuous Wigner
measure wherever the grid resolves it.  Samples draw each grid cell as a uniform
box around its node (the jitter removes grid artifacts from histograms);
the box model adds a variance of step**2 / 12 per axis, which is why
exact events do not integrate it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import sici

from .oracle import BinSpec, OutcomeDistribution
from .wigner import WignerGrid, characteristic_at_points, min_value
from .weyl import PolynomialObservable

NEGATIVITY_TOL_FACTOR = 1e-9
SAMPLE_CHUNK = 1 << 14


class NegativityError(ValueError):
    """Raised when a Wigner grid is genuinely negative somewhere.

    The minimum and its location are the contextuality witness: no
    phase-space hidden-variable model of this form exists for the state.
    """

    def __init__(self, min_value: float, location: tuple, grid_spec):
        self.min_value = float(min_value)
        self.location = tuple(float(x) for x in location)
        self.grid_spec = grid_spec
        super().__init__(
            f"Wigner function is negative ({min_value:.4e} at "
            f"{self.location}); no nonnegative phase-space model exists")

    def to_dict(self) -> dict:
        return {"min_value": self.min_value,
                "location": list(self.location),
                "grid_spec": self.grid_spec.to_dict()}


@dataclass
class HiddenVariableModel:
    """Probability measure over phase space backed by a Wigner grid."""

    measure: WignerGrid
    renormalization: float = 1.0
    _alias: tuple | None = field(default=None, repr=False)

    @property
    def mode_count(self) -> int:
        return self.measure.spec.mode_count

    def cell_probabilities(self) -> np.ndarray:
        probs = self.measure.values.reshape(-1) * self.measure.cell_volume
        return probs / probs.sum()


def build_hvm(w: WignerGrid) -> HiddenVariableModel:
    """Wigner measure as a hidden-variable model; fails on real negativity.

    Negative cells smaller in magnitude than 1e-9 times the grid maximum
    are floating-point floor and get clamped to zero; anything below that
    raises NegativityError with the witness.
    """
    values = w.values
    vmax = float(np.max(np.abs(values)))
    tol = NEGATIVITY_TOL_FACTOR * vmax
    mn = float(values.min())
    if mn < -tol:
        raise NegativityError(*min_value(w), w.spec)
    clamped = np.clip(values, 0.0, None)
    total = clamped.sum() * w.cell_volume
    if total <= 0:
        raise ValueError("measure has no mass")
    normalized = WignerGrid(w.spec, clamped / total)
    return HiddenVariableModel(normalized, renormalization=float(total))


def _build_alias(probs: np.ndarray):
    """Vose alias table: O(1) categorical draws from the cell distribution.

    Bit-identical to the sequential Vose loop (pop a small s and a large l
    from stacks seeded in index order, set accept[s] = scaled[s] and
    alias[s] = l, subtract 1 - scaled[s] from scaled[l], push l back onto
    the stack its residual belongs to), with one Python step per large
    cell instead of one per cell.  In that loop each large l, popped in
    descending index order, makes one run: it absorbs the previous large's
    residual (the carry), then the original smalls in pop order until its
    own residual drops below 1, and is then the next small popped, the
    following large's carry.  np.subtract.accumulate over [residual,
    1 - scaled[s_1], 1 - scaled[s_2], ...] performs the loop's IEEE
    subtractions in the loop's order, so every residual is bitwise equal.
    """
    k = probs.size
    scaled = probs * k
    accept = np.zeros(k)
    alias = np.zeros(k, dtype=np.int64)
    small = np.flatnonzero(scaled < 1.0)[::-1]  # pop order
    large = np.flatnonzero(scaled >= 1.0)[::-1]
    # an original small's scaled value never changes before it is consumed
    debt = scaled[small]
    np.subtract(1.0, debt, out=debt)
    buf = np.empty(65, dtype=scaled.dtype)
    pos = 0  # original smalls consumed so far
    run_ends = np.zeros(large.size, dtype=np.int64)
    carry = None  # residual of the previous large, the next small popped
    stop = max(large.size - 1, 0)  # first large not consumed as a carry
    for i, l in enumerate(large.tolist()):
        residual = scaled[l]
        if carry is not None:
            residual = residual - (1.0 - carry)
        window = 64
        while residual >= 1.0 and pos < small.size:
            m = min(window, small.size - pos)
            if buf.size <= m:
                buf = np.empty(2 * m + 1, dtype=scaled.dtype)
            buf[0] = residual
            buf[1:m + 1] = debt[pos:pos + m]
            run = np.subtract.accumulate(buf[:m + 1])
            # run[0] >= 1, so index 0 means the run goes on past the window
            taken = int((run < 1.0).argmax()) or m
            residual = run[taken]
            pos += taken
            window *= 2
        run_ends[i] = pos
        if residual >= 1.0:  # smalls ran out: l and later larges stay large
            stop = i
            break
        scaled[l] = carry = residual
    del debt
    accept[small[:pos]] = scaled[small[:pos]]
    alias[small[:pos]] = np.repeat(large[:stop + 1],
                                   np.diff(run_ends[:stop + 1], prepend=0))
    carried = large[:stop]  # each consumed by the large after it
    accept[carried] = scaled[carried]
    alias[carried] = large[1:stop + 1]
    accept[small[pos:]] = 1.0
    accept[large[stop:]] = 1.0
    return accept, alias


def _ensure_alias(model: HiddenVariableModel):
    if model._alias is None:
        model._alias = _build_alias(model.cell_probabilities())
    return model._alias


def _sample_chunk(model: HiddenVariableModel, seed: int, chunk_index: int,
                  count: int) -> np.ndarray:
    accept, alias = _ensure_alias(model)
    spec = model.measure.spec
    n_axes = 2 * spec.mode_count
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, chunk_index])))
    u = rng.random((count, 2 + n_axes))
    cand = np.minimum((u[:, 0] * accept.size).astype(np.int64),
                      accept.size - 1)
    idx = np.where(u[:, 1] < accept[cand], cand, alias[cand])
    coords = np.unravel_index(idx, spec.shape)
    phi = np.empty((count, n_axes))
    for d in range(n_axes):
        phi[:, d] = spec.axis[coords[d]] + (u[:, 2 + d] - 0.5) * spec.step
    return phi


def sample(model: HiddenVariableModel, n: int, seed: int,
           threads: int = 1) -> np.ndarray:
    """n hidden states, shape (n, 2m); row i depends only on (seed, i).

    The stream is chunked with per-chunk substreams derived from
    (seed, chunk index), so any thread count and any chunk-level
    parallelism reproduce the identical array, and prefixes agree between
    runs of different lengths.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    chunks = []
    for c in range(0, (n + SAMPLE_CHUNK - 1) // SAMPLE_CHUNK):
        count = min(SAMPLE_CHUNK, n - c * SAMPLE_CHUNK)
        chunks.append((c, count))
    _ensure_alias(model)  # built once, before any worker reads the cache
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(
                lambda cc: _sample_chunk(model, seed, cc[0], cc[1]), chunks))
    else:
        parts = [_sample_chunk(model, seed, c, count) for c, count in chunks]
    return np.concatenate(parts, axis=0)


def value_assignment(phi, obs: PolynomialObservable) -> float:
    """f evaluated at the linear values zeta_i . phi.

    Linear observables get exactly zeta . phi, so additivity in zeta holds
    identically, commuting or not; polynomial observables respect their
    defining functional relation by construction.
    """
    phi = np.asarray(phi, dtype=float).reshape(-1)
    values = [float(gen @ phi) for gen in obs.context.generators]
    return float(obs(*values))


def hvm_homodyne_distribution(model: HiddenVariableModel, zeta,
                              bins: BinSpec, n: int, seed: int,
                              threads: int = 1) -> OutcomeDistribution:
    """Histogram of zeta . phi over n hidden-state samples."""
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    if not np.any(zeta):
        raise ValueError("observable label must be nonzero")
    phi = sample(model, n, seed, threads=threads)
    outcomes = phi @ zeta
    counts, _ = np.histogram(outcomes, bins=bins.edges)
    return OutcomeDistribution(bins.edges, counts / n)


def hvm_event_probability(model: HiddenVariableModel, zeta,
                          intervals) -> float:
    """Exact model probability that zeta . phi lands in a union of intervals.

    No sampling: the measure is the band-limited interpolant of the node
    weights, a product-sinc kernel per node whose spectrum is the box
    |omega_k| <= pi/step.  Its projection onto zeta . phi is
    sin(B t)/(pi t) with B = pi/(step max_k |zeta_k|), so each node at
    t_i = zeta . c_i contributes p_i [Si(B(b - t_i)) - Si(B(a - t_i))]/pi
    (Si(+-inf) = +-pi/2 covers semi-infinite intervals).
    """
    zeta = np.asarray(zeta, dtype=float).reshape(-1)
    if not np.any(zeta):
        raise ValueError("observable label must be nonzero")
    spec = model.measure.spec
    probs = model.cell_probabilities().reshape(spec.shape)
    outcomes = sum(z * block for z, block in
                   zip(zeta, spec.coordinate_blocks()) if z)
    bandwidth = np.pi / (spec.step * np.max(np.abs(zeta)))
    total = 0.0
    for a, b in intervals:
        upper = sici(bandwidth * (b - outcomes))[0]
        lower = sici(bandwidth * (a - outcomes))[0]
        total += float(np.sum(probs * (upper - lower))) / np.pi
    return total


def empirical_characteristic_check(model: HiddenVariableModel, points,
                                   state, tolerance: float = 2e-3) -> dict:
    """Compare the measure's Fourier transform with the state's chi.

    Integrates exp(i [v, phi]) against the model measure on the grid, one
    axis at a time, and checks it against Tr[rho D(v)] at each test point;
    agreement is the statistical face of the Fourier-inversion argument
    linking the two.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    spec = model.measure.spec
    m = spec.mode_count
    probs = model.cell_probabilities().reshape(spec.shape)
    reference = characteristic_at_points(state, pts)
    deviations = []
    for v, ref in zip(pts, reference):
        k = np.concatenate([v[m:], -v[:m]])  # [v, phi] = (omega^T v) . phi
        value = probs
        for k_axis in k:  # the phase factorizes over the tensor grid
            value = np.tensordot(value, np.exp(1j * k_axis * spec.axis),
                                 axes=([0], [0]))
        deviations.append(abs(complex(value) - ref))
    max_dev = float(max(deviations))
    return {
        "points": pts.tolist(),
        "deviations": [float(d) for d in deviations],
        "max_deviation": max_dev,
        "tolerance": tolerance,
        "pass": bool(max_dev <= tolerance),
    }
