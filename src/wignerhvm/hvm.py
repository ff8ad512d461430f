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
events do not integrate it.  The model owns the only grid: build_hvm
clamps and normalizes its input in place, and sample keeps one running
sum per block of SAMPLE_BLOCK cells, rebuilding a block's cumulative
masses from it only when a key falls there.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .oracle import BinSpec, OutcomeDistribution, _normalize_intervals
from .phase_space import observable_label
from .special import sine_integral
from .wigner import (NEGATIVITY_TOL_FACTOR, WignerGrid,
                     characteristic_at_points, min_value)
from .weyl import PolynomialObservable

SAMPLE_CHUNK = 1 << 14
# cells per block of the cumulative cell masses, and per leaf of their sum
SAMPLE_BLOCK = 1 << 16
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

    ``sample`` stores, on its first call, the normalizer S of the cell
    masses in ``_mass`` and, in ``_alias``, the running sum of the cell
    probabilities at the end of each block of SAMPLE_BLOCK cells: one
    float per block, not one per cell.  The slot keeps its historical
    name because the benchmark reads ``model._alias is None`` to time the
    first ``sample`` call.
    """

    measure: WignerGrid
    renormalization: float = 1.0
    _alias: np.ndarray | None = field(default=None, repr=False)
    _mass: float = field(default=0.0, repr=False)

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

    The input is consumed: its array is clamped and normalized in place
    and becomes the model's grid, so the call allocates nothing
    grid-sized (the largest magnitude is read from the min and the max,
    with no |W| temporary).  The negativity check comes first, so a
    NegativityError leaves the input's bits untouched.
    """
    values = w.values
    mn = float(values.min())
    vmax = max(float(values.max()), -mn)
    tol = NEGATIVITY_TOL_FACTOR * vmax
    if mn < -tol:
        raise NegativityError(*min_value(w), w.spec)
    np.clip(values, 0.0, None, out=values)
    total = values.sum() * w.cell_volume
    if total <= 0:
        raise ValueError("measure has no mass")
    values /= total
    return HiddenVariableModel(w, renormalization=float(total))


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


def _mass_total(flat: np.ndarray, volume: float) -> float:
    """(flat * volume).sum() with its bits, one leaf at a time.

    np.sum adds a contiguous array pairwise, halving n at n // 2 rounded
    down to a multiple of 8; recursing on the same halves and summing
    each leaf of at most SAMPLE_BLOCK cells with np.sum makes the same
    additions, with no temporary larger than a leaf.
    """
    if flat.size <= SAMPLE_BLOCK:
        return float(np.sum(flat * volume))
    half = flat.size // 2 - flat.size // 2 % 8
    return _mass_total(flat[:half], volume) + _mass_total(flat[half:], volume)


def _block_cdf(flat: np.ndarray, volume: float, mass: float, block: int,
               start: float) -> np.ndarray:
    """The cumulative cell probabilities over one block, as a new array.

    start is the running sum before the block.  It is added to the
    block's first cell and the cumsum continues from there, so each entry
    is the sum np.cumsum over the whole grid adds, with the same bits.
    """
    part = flat[block * SAMPLE_BLOCK:(block + 1) * SAMPLE_BLOCK] * volume
    part /= mass
    if block:
        part[0] += start
    return np.cumsum(part, out=part)


def _cumulative_blocks(model: HiddenVariableModel):
    """(S, ends): the cell masses' total and the running sum of the cell
    probabilities at the end of each block of SAMPLE_BLOCK cells."""
    flat = model.measure.values.reshape(-1)
    volume = model.measure.cell_volume
    mass = _mass_total(flat, volume)
    ends = np.empty(-(-flat.size // SAMPLE_BLOCK))
    for b in range(len(ends)):
        ends[b] = _block_cdf(flat, volume, mass, b, ends[b - 1])[-1]
    return mass, ends


def _uniforms(seed: int, chunk_index: int, rows: int,
              dims: int) -> np.ndarray:
    """The chunk's (rows, 1 + dims) uniforms: the cell key, then the box."""
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, chunk_index])))
    return rng.random((rows, 1 + dims))


def sample(model: HiddenVariableModel, n: int, seed: int,
           threads: int = 1) -> np.ndarray:
    """n hidden states, shape (n, 2m); row i depends only on (seed, i).

    Each row draws a grid cell by inverse CDF, a binary search of the
    cumulative cell masses, and then a uniform point in that cell's box.
    The stream is chunked with per-chunk substreams derived from (seed,
    chunk index), so any thread count and any chunk-level parallelism
    reproduce the identical array, and prefixes agree between runs of
    different lengths.  Chunks fill slices of one preallocated array.

    No grid-sized table is held.  The first call stores the normalizer S
    and the running sum at each block end (_cumulative_blocks).  Then
    three passes: each chunk draws its keys u * total and sorts them,
    keeping the sorted keys and their order in its rows of the output;
    each block holding a key rebuilds its cumulative masses from the
    stored start (_block_cdf) and searches its keys there, writing their
    cells over them; and each chunk redraws its uniforms to place every
    row in its cell's box.  The cells are those one plain search per key
    of np.cumsum(cell_probabilities()) finds.  Chunks go to a pool of
    ``threads`` workers in the first and last pass, blocks in the second.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if model._alias is None:  # built once, before any worker reads it
        model._mass, model._alias = _cumulative_blocks(model)
    ends, mass = model._alias, model._mass
    flat = model.measure.values.reshape(-1)
    volume = model.measure.cell_volume
    spec = model.measure.spec
    axis, step = spec.axis, spec.step
    dims = 2 * model.mode_count
    phi = np.empty((n, dims))
    rows = [phi[start:start + SAMPLE_CHUNK]
            for start in range(0, n, SAMPLE_CHUNK)]

    def sort_keys(c):
        """The chunk's sorted keys, then their rows as integers, in the
        first 2k floats of its k rows; and how many keys lie below each
        block end."""
        k, buf = len(rows[c]), rows[c].reshape(-1)
        # side="right" below skips zero-mass cells, whose cdf equals their
        # predecessor's, and u < 1 keeps u * ends[-1] below the last entry
        keys = _uniforms(seed, c, k, dims)[:, 0] * ends[-1]
        order = buf[k:2 * k].view(np.intp)
        order[:] = np.argsort(keys)
        np.take(keys, order, out=buf[:k])
        return np.searchsorted(buf[:k], ends, side="left")

    def search(b):
        """Each key in block b replaced by its cell."""
        cdf = _block_cdf(flat, volume, mass, b, ends[b - 1])
        for out, cut in zip(rows, cuts):
            lo, hi = (cut[b - 1] if b else 0), cut[b]
            if lo < hi:
                keys = out.reshape(-1)[lo:hi]
                cells = np.searchsorted(cdf, keys, side="right")
                cells += b * SAMPLE_BLOCK
                keys.view(np.intp)[:] = cells

    def place(c):
        out = rows[c]
        k, buf = len(out), out.reshape(-1)
        idx = np.empty(k, dtype=np.intp)
        idx[buf[k:2 * k].view(np.intp)] = buf[:k].view(np.intp)
        u = _uniforms(seed, c, k, dims)
        coords = np.unravel_index(idx, spec.shape)
        for d in range(dims):
            out[:, d] = axis[coords[d]] + (u[:, 1 + d] - 0.5) * step

    with (ThreadPoolExecutor(max_workers=threads) if threads > 1
          else nullcontext()) as pool:
        run = pool.map if pool else map
        cuts = list(run(sort_keys, range(len(rows))))
        counts = np.diff(np.sum(cuts, axis=0), prepend=0)
        list(run(search, np.flatnonzero(counts)))
        list(run(place, range(len(rows))))
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
