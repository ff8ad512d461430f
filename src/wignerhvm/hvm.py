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
measure wherever the grid resolves it; an event reads only the axes its
label uses, so the other axes are summed out of the weights first.  When
the used coefficients are integer multiples n_k g of one scale, every
node projects onto a lattice outcome g step key, and the weights are
binned by that integer key, so the sine integral is evaluated once per
distinct outcome rather than once per node; this path is taken whenever
the key count is at most the node count.  Labels with no such lattice
stream a marginal of more than two axes by first-axis slabs, grouped in
blocks for the sine-integral kernel and summed in one fixed order.
Samples draw a grid cell from its mass by inverse CDF, searching each
chunk's keys in sorted order, and then a uniform point in a box around
its node (the jitter removes grid artifacts from histograms); the box
model adds a variance of step**2 / 12 per axis, which is why exact
events do not integrate it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .oracle import BinSpec, OutcomeDistribution, _normalize_intervals
from .phase_space import observable_label
from .special import sine_integral
from .wigner import (NEGATIVITY_TOL_FACTOR, WignerGrid,
                     characteristic_at_points, min_value)
from .weyl import PolynomialObservable

SAMPLE_CHUNK = 1 << 14
# the fewest outcomes per sine-integral call on the slab path
EVENT_BLOCK = 1 << 16


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
    """Probability measure over phase space backed by a Wigner grid.

    ``_alias`` caches the cumulative cell masses that ``sample`` searches.
    The slot keeps its historical name because the benchmark reads
    ``model._alias is None`` to time the first ``sample`` call.
    """

    measure: WignerGrid
    renormalization: float = 1.0
    _alias: np.ndarray | None = field(default=None, repr=False)

    @property
    def mode_count(self) -> int:
        return self.measure.spec.mode_count

    def cell_probabilities(self) -> np.ndarray:
        probs = self.measure.values.reshape(-1) * self.measure.cell_volume
        probs /= probs.sum()
        return probs


def build_hvm(w: WignerGrid) -> HiddenVariableModel:
    """Wigner measure as a hidden-variable model; fails on real negativity.

    Negative cells smaller in magnitude than 1e-9 times the grid maximum
    are floating-point floor and get clamped to zero; anything below that
    raises NegativityError with the witness.

    Memory: the call allocates one grid beyond its input, the clamped copy
    that is normalized in place and becomes the model's grid (the largest
    magnitude is read from the min and the max, with no |W| temporary).
    The input is never modified.  Once ``sample`` has run, the model holds
    that grid plus its cumulative cell masses, and nothing else grid-sized;
    a caller that drops W after this call holds those two grids in all.
    """
    values = w.values
    mn = float(values.min())
    vmax = max(float(values.max()), -mn)
    tol = NEGATIVITY_TOL_FACTOR * vmax
    if mn < -tol:
        raise NegativityError(*min_value(w), w.spec)
    clamped = np.clip(values, 0.0, None)
    total = clamped.sum() * w.cell_volume
    if total <= 0:
        raise ValueError("measure has no mass")
    clamped /= total
    return HiddenVariableModel(WignerGrid(w.spec, clamped),
                               renormalization=float(total))


def _projection_lattice(used: np.ndarray, points: int, nodes: int):
    """(g, n) with every used coefficient n_k g to 4 ulp, or None.

    n are the smallest such integers, found by trying g = |zeta_k0| / n0
    for n0 = 1, 2, ... on the axis k0 of smallest |zeta_k|.  On the grid's
    nodes h (j_k - c), c = (points - 1) / 2, the outcome zeta . c_i is then
    g h key_i with key_i = sum_k n_k (j_k - c), which takes
    R = 2 c sum_k |n_k| + 1 values; a lattice is returned only if R is at
    most the marginal's node count.
    """
    size = np.abs(used)
    most = (nodes - 1) // (points - 1)  # the largest sum of |n_k|
    with np.errstate(over="ignore"):
        if size.max() / size.min() > most:  # one |n_k| alone exceeds it
            return None
    scale = size.min() / np.arange(1, most // size.size + 1)
    n = np.rint(used / scale[:, None])
    fits = np.all(np.abs(n * scale[:, None] - used) <= 4 * np.spacing(size),
                  axis=1)
    fits &= np.abs(n).sum(axis=1) <= most
    if not fits.any():
        return None
    first = np.argmax(fits)
    return float(scale[first]), n[first].astype(np.intp)


def _lattice_masses(weights: np.ndarray, n: np.ndarray,
                    points: int) -> np.ndarray:
    """The marginal's weights summed per key + R // 2, in C order.

    Each axis contributes n_k (j_k - c) + |n_k| c, a key from 0 up.  A
    marginal of more than two axes is binned one first-axis slab at a time
    against the keys of the other axes, and each slab's bins are added at
    its first-axis key, so no key array is as large as the marginal.
    """
    half = (points - 1) // 2
    shifted = [k * np.arange(-half, half + 1) + abs(k) * half for k in n]
    masses = np.zeros(2 * half * int(np.abs(n).sum()) + 1)
    if weights.ndim > 2:
        slabs = zip(shifted[0], weights)
        shifted = shifted[1:]
    else:
        slabs = [(0, weights)]
    keys = shifted[0]
    for line in shifted[1:]:
        keys = np.add.outer(keys, line)
    keys = keys.reshape(-1)
    for offset, w in slabs:
        part = np.bincount(keys, w.reshape(-1))
        masses[offset:offset + len(part)] += part
    return masses


def _sample_chunk(model: HiddenVariableModel, seed: int, chunk_index: int,
                  out: np.ndarray) -> None:
    cdf = model._alias
    spec = model.measure.spec
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, chunk_index])))
    u = rng.random((out.shape[0], 1 + out.shape[1]))
    # side="right" skips zero-mass cells, whose cdf equals their
    # predecessor's, and u < 1 keeps u * cdf[-1] below the last entry;
    # keys searched in sorted order start each search near the last hit
    keys = u[:, 0] * cdf[-1]
    order = np.argsort(keys)
    idx = np.empty_like(order)
    idx[order] = np.searchsorted(cdf, keys[order], side="right")
    coords = np.unravel_index(idx, spec.shape)
    for d in range(out.shape[1]):
        out[:, d] = spec.axis[coords[d]] + (u[:, 1 + d] - 0.5) * spec.step


def sample(model: HiddenVariableModel, n: int, seed: int,
           threads: int = 1) -> np.ndarray:
    """n hidden states, shape (n, 2m); row i depends only on (seed, i).

    Each row draws a grid cell by inverse CDF, a binary search of the
    cumulative cell masses (computed once per model, in place), and then a
    uniform point in that cell's box.  A chunk's keys are searched in
    sorted order, so each search starts near the last, and the cells are
    scattered back to their rows: the same cells one search per key finds.
    The stream is chunked with per-chunk substreams derived from (seed,
    chunk index), so any thread count and any chunk-level parallelism
    reproduce the identical array, and prefixes agree between runs of
    different lengths.  Chunks fill slices of one preallocated array.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if model._alias is None:  # built once, before any worker reads it
        cdf = model.cell_probabilities()
        model._alias = np.cumsum(cdf, out=cdf)
    phi = np.empty((n, 2 * model.mode_count))
    chunks = range((n + SAMPLE_CHUNK - 1) // SAMPLE_CHUNK)

    def draw(c):
        _sample_chunk(model, seed, c,
                      phi[c * SAMPLE_CHUNK:(c + 1) * SAMPLE_CHUNK])

    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(draw, chunks))
    else:
        for c in chunks:
            draw(c)
    return phi


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
    zeta = observable_label(zeta, model.mode_count)
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
    (Si(+-inf) = +-pi/2, taken as constants, covers semi-infinite intervals).
    Si is special.sine_integral.  hvm_event_probabilities gives several
    interval sets of one label from one marginal.
    """
    return hvm_event_probabilities(model, zeta, [intervals])[0]


def hvm_event_probabilities(model: HiddenVariableModel, zeta,
                            interval_sets) -> list:
    """hvm_event_probability of each interval set, from one marginal.

    t_i does not depend on the axes where zeta_k = 0, so those axes are
    summed out of the weights once, and the nodes are those of the
    marginal on the used axes.  Each set's sum is added in the order a
    call for that set alone adds it, so it has the same bits.

    Lattice labels: when the used coefficients are n_k g for integers n_k
    (the smallest that fit to 4 ulp, see _projection_lattice), node i sits
    at t_i = g step key_i with an integer key_i = sum_k n_k (j_k - c).  If
    the R = 2 c sum_k |n_k| + 1 keys are no more than the marginal's nodes,
    the weights are binned by key (np.bincount, one first-axis slab at a
    time beyond two axes) and Si is evaluated once per finite edge on the
    R outcomes g step k, k = -R//2 ... R//2.

    Other labels: a marginal of more than two axes is streamed by
    first-axis slabs, so no temporary is as large as the marginal.  Si is
    evaluated on blocks of whole slabs of at least EVENT_BLOCK outcomes,
    one call per finite edge and block, and each slab's per-interval sums
    are added in slab-major order.  No thread is started: the Si kernel
    is a few hundred short numpy calls per block, and two threads
    contending for the GIL between them were slower than one.
    """
    zeta = observable_label(zeta, model.mode_count)
    sets = [_normalize_intervals(intervals) for intervals in interval_sets]
    spec = model.measure.spec
    weights = model.measure.values
    idle = tuple(np.flatnonzero(zeta == 0))
    if idle:
        weights = weights.sum(axis=idle)
    bandwidth = np.pi / (spec.step * np.max(np.abs(zeta)))
    used = zeta[zeta != 0]

    intervals = [interval for edges in sets for interval in edges]

    def slab_sums(w, outcomes) -> np.ndarray:
        """sum(w * (Si(B(b - t)) - Si(B(a - t)))) per slab (first axis)
        and interval (a, b), as a (slabs, intervals) array."""

        def si(edge):
            if np.isinf(edge):
                return np.copysign(np.pi / 2, edge)
            arg = edge - outcomes
            arg *= bandwidth
            return sine_integral(arg)

        columns = []
        for a, b in intervals:
            mass = si(b)
            mass -= si(a)
            mass *= w
            columns.append([np.sum(part) for part in mass])
        return np.array(columns).reshape(-1, len(w)).T

    lattice = _projection_lattice(used, spec.points, weights.size)
    if lattice is not None:
        scale, n = lattice
        masses = _lattice_masses(weights, n, spec.points)
        reach = len(masses) // 2
        outcomes = scale * spec.step * np.arange(-reach, reach + 1)
        sums = slab_sums(masses[None], outcomes[None])
    else:
        # z * axis broadcast along the used axes: summed in axis order,
        # these are the products and sums of zeta . c over the full grid
        lines = [(z * spec.axis).reshape((-1,) + (1,) * (used.size - 1 - d))
                 for d, z in enumerate(used)]
        slabs, first = weights, lines[0]
        if weights.ndim <= 2:  # one slab
            slabs, first = weights[None], first[None]
        per = -(-EVENT_BLOCK // slabs[0].size)  # slabs per block
        blocks = []
        for start in range(0, len(slabs), per):
            outcomes = first[start:start + per]
            for line in lines[1:]:
                outcomes = outcomes + line
            blocks.append(slab_sums(slabs[start:start + per], outcomes))
        sums = np.concatenate(blocks)
    weight = weights.sum()
    probabilities, start = [], 0
    for edges in sets:
        total = 0.0
        # slab-major, as one pass over the slabs adds them
        for part in sums[:, start:start + len(edges)].flat:
            total += part
        start += len(edges)
        probabilities.append(float(total / weight) / np.pi)
    return probabilities


def empirical_characteristic_check(model: HiddenVariableModel, points,
                                   state, tolerance: float = 2e-3) -> dict:
    """Compare the measure's Fourier transform with the state's chi.

    Integrates exp(i [v, phi]) against the model measure on the grid and
    checks it against Tr[rho D(v)] at each test point; agreement is the
    statistical face of the Fourier-inversion argument linking the two.
    The phase factorizes over the tensor grid, so all points are
    contracted together one axis at a time: the first axis by two real
    products of the cos and sin phases with the measure, which never
    makes a complex copy of the grid, and each later axis by a small
    einsum.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    spec = model.measure.spec
    m = spec.mode_count
    values = model.measure.values
    reference = characteristic_at_points(state, pts)
    # [v, phi] = (omega^T v) . phi
    k = np.concatenate([pts[:, m:], -pts[:, :m]], axis=1)
    angles = k[:, :, None] * spec.axis  # (point, axis, node)
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
    deviations = np.abs(value / values.sum() - reference)
    max_dev = float(max(deviations))
    return {
        "points": pts.tolist(),
        "deviations": [float(d) for d in deviations],
        "max_deviation": max_dev,
        "tolerance": tolerance,
        "pass": bool(max_dev <= tolerance),
    }
