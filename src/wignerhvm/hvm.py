"""Phase-space hidden-variable model for nonnegative Wigner functions.

The hidden-state space is phase space itself: a nonnegative normalized
Wigner grid is the probability measure, and a hidden state phi assigns
the value zeta . phi to the observable zeta . R_hat.  That assignment is
the outcome hvm_homodyne_distribution histograms.  The values zeta . phi
are linear in zeta by construction, and a polynomial of commuting
observables takes the same polynomial of those values, so functional
relations inside a context hold identically.  Negativity anywhere makes
the construction impossible, and build_hvm turns that into a typed error
carrying the witness location.

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
clamps and normalizes its input in place, and sample keeps the running
sum of its weights at each end of a block of SAMPLE_BLOCK cells, redoing
a block's sum only when a key falls there.  hvm_homodyne_distribution
streams the samples into its histogram chunk by chunk, holding 16 bytes
a sample (a sorted key and its order) rather than the (n, 2m) samples
and their n outcomes: the two-mode coherent hvm-compare at 41^4 with two
labels peaks at 1.17 grids under tracemalloc with 10^5 samples and 1.81
with 10^6 (1.22 and 2.82 with the whole samples held).
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .oracle import (BinSpec, OutcomeDistribution, _normalize_intervals,
                     event_probability, quantum_homodyne_distribution,
                     tv_distance)
from .phase_space import observable_label
from .special import sine_integral
from .wigner import (WignerGrid, characteristic_at_points, min_value,
                     negativity_clamp)

SAMPLE_CHUNK = 1 << 14
# cells per block of the running sum of the cell weights
SAMPLE_BLOCK = 1 << 16
# the fewest outcomes per sine-integral call on the slab path, and the most
# values a call takes for several edges at once
EVENT_BLOCK = 1 << 16

# forward_check's tolerances, and empirical_characteristic_check's
TV_TOLERANCE = 0.02
EVENT_TOLERANCE = 2e-3
CHAR_TOLERANCE = 2e-3
# the exact events forward_check compares, each a name and its intervals
EVENT_SETS = (("[0, inf)", [(0.0, np.inf)]), ("[-1, 1]", [(-1.0, 1.0)]))


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

    ``sample`` stores in ``_alias``, on its first call, the running sum
    of the weights ``measure.values`` at each end of a block of
    SAMPLE_BLOCK cells: one float per block.  A draw depends only on the
    weights' ratios, so no total or cell volume enters.  The slot keeps
    its historical name because the benchmark reads ``model._alias is
    None`` to time the first ``sample`` call.  Samples reach a histogram
    through ``sample`` too (its ``histogram=`` argument), 16 bytes a
    sample, so every draw goes through that one entry point.
    """

    measure: WignerGrid
    renormalization: float = 1.0
    _alias: np.ndarray | None = field(default=None, repr=False)

    @property
    def mode_count(self) -> int:
        return self.measure.spec.mode_count


def build_hvm(w: WignerGrid) -> HiddenVariableModel:
    """Wigner measure as a hidden-variable model; fails on real negativity.

    Negative cells smaller in magnitude than wigner.negativity_clamp, 1e-9
    times the grid maximum, are floating-point floor and get clamped to
    zero; anything below that raises NegativityError with the witness.

    The input is consumed: its array is clamped and normalized in place
    and becomes the model's grid, so the call allocates nothing
    grid-sized.  The negativity check comes first, so a
    NegativityError leaves the input's bits untouched.
    """
    values = w.values
    mn = float(values.min())
    tol = negativity_clamp(values, mn)
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


def _lattice_weights(weights: np.ndarray, n: np.ndarray,
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


def _block_cdf(flat: np.ndarray, block: int, start: float) -> np.ndarray:
    """The running sum of the cell weights over one block, as a new array.

    start is the running sum before the block.  It is added to the
    block's first cell and the cumsum continues from there, so each entry
    is the sum np.cumsum over the whole grid adds, with the same bits.
    """
    part = flat[block * SAMPLE_BLOCK:(block + 1) * SAMPLE_BLOCK].copy()
    if block:
        part[0] += start
    return np.cumsum(part, out=part)


def _cumulative_blocks(model: HiddenVariableModel) -> np.ndarray:
    """The running sum of the cell weights at the end of each block of
    SAMPLE_BLOCK cells."""
    flat = model.measure.values.reshape(-1)
    ends = np.empty(-(-flat.size // SAMPLE_BLOCK))
    for b in range(len(ends)):
        ends[b] = _block_cdf(flat, b, ends[b - 1])[-1]
    return ends


def _uniforms(seed: int, chunk_index: int, rows: int,
              dims: int) -> np.ndarray:
    """The chunk's (rows, 1 + dims) uniforms: the cell key, then the box."""
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, chunk_index])))
    return rng.random((rows, 1 + dims))


def sample(model: HiddenVariableModel, n: int, seed: int,
           threads: int = 1, *, histogram=None) -> np.ndarray:
    """n hidden states, shape (n, 2m); row i depends only on (seed, i).

    Each row draws a grid cell by inverse CDF, a binary search of the
    running sum of the cell weights, and then a uniform point in that cell's
    box.  The stream is chunked with per-chunk substreams derived from
    (seed, chunk index), so any thread count and any chunk-level parallelism
    reproduce the identical array, and prefixes agree between runs of
    different lengths.  Chunks fill slices of one preallocated array.

    histogram=(zeta, edges) streams the rows instead: each chunk's rows
    are placed in a chunk-sized array, projected on zeta and counted with
    np.histogram(rows @ zeta, edges), and the integer counts of all chunks
    are returned.  They equal np.histogram(sample(model, n, seed) @ zeta,
    edges)[0] at any thread count, but the working set is 16 bytes a
    sample (a sorted key and its order) instead of 8 * 2m: no (n, 2m)
    array and no n outcomes are made.  Each chunk adds its counts to one
    total as it is placed, so no chunk's counts wait for earlier chunks.

    No grid-sized table is held.  The first call stores the running sum
    at each block end (_cumulative_blocks).  Then three passes: each
    chunk draws its keys u * ends[-1] and sorts them, keeping the sorted
    keys and their order in 2k floats (the first of its k rows of the
    output, or its rows of an (n, 2) buffer when streamed); each block
    holding a key rebuilds its running sums from the stored start
    (_block_cdf) and searches its keys there, writing their cells over
    them; and each chunk redraws its uniforms to place every row in its
    cell's box.  The cells are those one plain search per key of np.cumsum
    over the whole grid's weights finds.
    Chunks go to a pool of ``threads`` workers in the first and last
    pass, blocks in the second.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if model._alias is None:  # built once, before any worker reads it
        model._alias = _cumulative_blocks(model)
    ends = model._alias
    flat = model.measure.values.reshape(-1)
    spec = model.measure.spec
    axis, step = spec.axis, spec.step
    dims = 2 * model.mode_count
    starts = range(0, n, SAMPLE_CHUNK)
    if histogram is None:
        held = phi = np.empty((n, dims))
        rows = [phi[start:start + SAMPLE_CHUNK] for start in starts]
    else:
        zeta, edges = histogram
        held = np.empty((n, 2))  # a key and its order per sample, no rows
        total = np.zeros(len(edges) - 1, dtype=np.intp)
        lock = threading.Lock()
    # each chunk's sorted keys, then their order (later their cells)
    keys = [held[start:start + SAMPLE_CHUNK].reshape(-1) for start in starts]
    sizes = [min(SAMPLE_CHUNK, n - start) for start in starts]

    def sort_keys(c):
        """The chunk's sorted keys, then their rows as integers, in the
        first 2k floats of its buffer; and how many keys lie below each
        block end."""
        k, buf = sizes[c], keys[c]
        # side="right" below skips zero-mass cells, whose cdf equals their
        # predecessor's, and u < 1 keeps u * ends[-1] below the last entry
        drawn = _uniforms(seed, c, k, dims)[:, 0] * ends[-1]
        order = buf[k:2 * k].view(np.intp)
        order[:] = np.argsort(drawn)
        np.take(drawn, order, out=buf[:k])
        return np.searchsorted(buf[:k], ends, side="left")

    def search(b):
        """Each key in block b replaced by its cell."""
        cdf = _block_cdf(flat, b, ends[b - 1])
        for buf, cut in zip(keys, cuts):
            lo, hi = (cut[b - 1] if b else 0), cut[b]
            if lo < hi:
                cells = np.searchsorted(cdf, buf[lo:hi], side="right")
                cells += b * SAMPLE_BLOCK
                buf[lo:hi].view(np.intp)[:] = cells

    def place(c):
        """The chunk's rows in their boxes; streamed, added to total."""
        k, buf = sizes[c], keys[c]
        idx = np.empty(k, dtype=np.intp)
        idx[buf[k:2 * k].view(np.intp)] = buf[:k].view(np.intp)
        coords = np.unravel_index(idx, spec.shape)
        # each temporary is dropped once used, so that fewer of one
        # chunk's arrays are alive together beside the held buffer
        del idx
        u = _uniforms(seed, c, k, dims)
        out = rows[c] if histogram is None else np.empty((k, dims))
        for d in range(dims):
            out[:, d] = axis[coords[d]] + (u[:, 1 + d] - 0.5) * step
        del u, coords
        if histogram is not None:
            binned = np.histogram(out @ zeta, edges)[0]
            with lock:  # integer counts: their sum has no order to keep
                np.add(total, binned, out=total)

    if threads > 1:
        # imported here: a bare `import wignerhvm` loads no executor
        from concurrent.futures import ThreadPoolExecutor
        executor = ThreadPoolExecutor(max_workers=threads)
    else:
        executor = nullcontext()
    with executor as pool:
        run = pool.map if pool else map
        cuts = list(run(sort_keys, range(len(keys))))
        counts = np.diff(np.sum(cuts, axis=0), prepend=0)
        list(run(search, np.flatnonzero(counts)))
        list(run(place, range(len(keys))))
    return phi if histogram is None else total


def hvm_homodyne_distribution(model: HiddenVariableModel, zeta,
                              bins: BinSpec, n: int, seed: int,
                              threads: int = 1) -> OutcomeDistribution:
    """Histogram of zeta . phi over n hidden-state samples.

    The samples are streamed into the histogram (sample's histogram=),
    so the call holds 16 bytes a sample beside one chunk's rows.
    """
    zeta = observable_label(zeta, model.mode_count)
    counts = sample(model, n, seed, threads=threads,
                    histogram=(zeta, bins.edges))
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
    time beyond two axes) and Si is evaluated on the R outcomes
    g step k, k = -R//2 ... R//2, for every finite edge of every set in
    one kernel call while they fit in EVENT_BLOCK values.

    Other labels: a marginal of more than two axes is streamed by
    first-axis slabs, so no temporary is as large as the marginal.  Si is
    evaluated on blocks of whole slabs of at least EVENT_BLOCK outcomes,
    one call per finite edge and block (a last, shorter block takes as
    many edges per call as fit in EVENT_BLOCK values), and each slab's
    per-interval sums are added in slab-major order.  No thread is
    started: the Si kernel is a few hundred short numpy calls per block,
    and two threads contending for the GIL between them were slower than
    one.
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
    finite = [e for interval in intervals for e in interval
              if not np.isinf(e)]

    def slab_sums(w, outcomes) -> np.ndarray:
        """sum(w * (Si(B(b - t)) - Si(B(a - t)))) per slab (first axis)
        and interval (a, b), as a (slabs, intervals) array.

        One kernel call takes as many finite edges as fit in EVENT_BLOCK
        values, at least one; Si is elementwise, so each value has the
        bits of a call for its edge alone.
        """
        per = max(1, EVENT_BLOCK // outcomes.size)

        def finite_rows():
            for start in range(0, len(finite), per):
                arg = np.subtract.outer(finite[start:start + per], outcomes)
                arg *= bandwidth
                yield from sine_integral(arg)

        rows = finite_rows()  # each row is read once, so it may be overwritten

        def si(edge):
            if np.isinf(edge):
                return np.copysign(np.pi / 2, edge)
            return next(rows)

        columns = []
        for a, b in intervals:
            low = si(a)
            mass = si(b)
            mass -= low
            mass *= w
            columns.append([np.sum(part) for part in mass])
        return np.array(columns).reshape(-1, len(w)).T

    lattice = _projection_lattice(used, spec.points, weights.size)
    if lattice is not None:
        scale, n = lattice
        masses = _lattice_weights(weights, n, spec.points)
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
                                   state,
                                   tolerance: float = CHAR_TOLERANCE) -> dict:
    """Compare the measure's Fourier transform with the state's chi.

    Integrates exp(i [v, phi]) against the model measure on the grid and
    checks it against Tr[rho D(v)] at each test point; agreement is the
    statistical face of the Fourier-inversion argument linking the two.
    The phase factorizes over the tensor grid, so all points are
    contracted together one axis at a time: the first axis by two real
    products of the cos and sin phases with the measure, which never
    makes a complex copy of the grid, and each later axis by a small
    einsum.  The first-axis products are taken on blocks of second-axis
    slabs of at least EVENT_BLOCK nodes (one block for one mode), so no
    product spans the grid.  The first block is contracted with its
    second-axis phases by the einsum, and each later slab's contraction
    is added in slab order, as one einsum over the whole axis adds them.
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

    p = spec.points
    slabs = values.reshape(p, p, -1)  # (first axis, second axis, the rest)
    per = p if m == 1 else -(-EVENT_BLOCK // slabs[:, 0].size)
    value = 0
    for unit, phase in ((1, np.cos), (1j, np.sin)):
        first = phase(angles[:, 0])
        for start in range(0, p, per):
            block = slabs[:, start:start + per]
            prod = (first @ block.reshape(p, -1)).reshape(
                len(pts), block.shape[1], -1)
            if not start:  # einsum's sum starts from zero, slab after slab
                part = np.einsum("pjr,pj->pr", prod, phases[:, 0, :per])
            else:
                terms = prod * phases[:, 0, start:start + per, None]
                for term in terms.transpose(1, 0, 2):
                    part += term
        for d in range(1, phases.shape[1]):
            part = np.einsum("pjr,pj->pr", part.reshape(len(pts), p, -1),
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


def forward_check(state, model: HiddenVariableModel, observables,
                  bins: BinSpec, n: int, seed: int, threads: int = 1):
    """The model against the quantum oracle, one observable at a time.

    Yields, for the idx-th observable, its report row, the model's
    histogram of n samples at seed + idx and the oracle's bins, so that a
    caller holds one observable's bins at a time.  The row passes when the
    two are within TV_TOLERANCE in total variation and each exact event of
    EVENT_SETS is within EVENT_TOLERANCE of the oracle's.
    """
    for idx, zeta in enumerate(observables):
        hvm_dist = hvm_homodyne_distribution(model, zeta, bins, n, seed + idx,
                                             threads=threads)
        oracle_dist = quantum_homodyne_distribution(state, zeta, bins)
        tv = tv_distance(hvm_dist, oracle_dist)
        hvs = hvm_event_probabilities(
            model, zeta, [intervals for _, intervals in EVENT_SETS])
        events = []
        for (label, intervals), hv in zip(EVENT_SETS, hvs):
            qv = event_probability(state, zeta, intervals)
            events.append({
                "interval": label, "hvm": hv, "oracle": qv,
                "abs_error": abs(hv - qv), "tolerance": EVENT_TOLERANCE,
                "pass": bool(abs(hv - qv) <= EVENT_TOLERANCE)})
        row = {"observable": list(map(float, zeta)), "n": n,
               "seed": seed + idx, "tv_distance": tv,
               "tolerance": TV_TOLERANCE,
               "pass": bool(tv <= TV_TOLERANCE and
                            all(e["pass"] for e in events)),
               "event_checks": events}
        yield row, hvm_dist, oracle_dist
        del hvm_dist, oracle_dist  # not held while the next are computed
