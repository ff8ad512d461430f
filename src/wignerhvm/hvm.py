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

A model's grid is one mode (build_hvm refuses any other); several modes
make a product.ProductModel of one-mode models.  Each factor draws its
part of phi from its own seed substream, events and the characteristic
check are assembled from the factors' marginals and transforms, and a
label over several factors holds 8 bytes a sample more, its running outcome.

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
stream a product's marginal of more than two axes by the first factor's
first-axis slabs, grouped in blocks for the sine-integral kernel and
summed in one fixed order.  Samples draw a grid cell from its mass by
inverse CDF, searching each chunk's keys in sorted order, and then a
uniform point in a box around its node (the jitter removes grid
artifacts from histograms); the box model adds a variance of step**2 /
12 per axis, which is why exact events do not integrate it.  The model
owns the only grid: build_hvm clamps and normalizes its input in place,
and sample keeps the running sum of its weights at each end of a block
of SAMPLE_BLOCK cells, redoing a block's sum only when a key falls
there.  hvm_homodyne_distribution streams the samples into its
histogram chunk by chunk, holding 16 bytes a sample (a sorted key and
its order) rather than the (n, 2) samples and their n outcomes.  The
two-mode coherent hvm-compare with two labels, on two 41^2 grids, peaks
under tracemalloc at 3.8 MB with 10^5 samples and 25.4 MB with 10^6:
1.55 and 1.06 times its factor grids plus 24 bytes a sample (one 41^4
grid alone would take 22.6 MB).
"""

from __future__ import annotations

import math
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .oracle import (BinSpec, OutcomeDistribution, _normalize_intervals,
                     event_probability, quantum_homodyne_distribution,
                     tv_distance)
from .phase_space import observable_label
from .special import sine_integral
from .states import GRID_BYTES_LIMIT, InadequateWindowError, short_int
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
# the most nodes an event of a label with no projection lattice sums, keys
# a lattice bins, and products of two factors' masses the lattice of a
# product convolves: the cells of the largest grid GridSpec allows, so
# that an event of a product takes no longer than a sum over that grid
EVENT_NODE_LIMIT = GRID_BYTES_LIMIT // 16
# lattice scales _projection_lattice tries at a time
LATTICE_TRIALS = 1 << 12


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
    sample, so every draw goes through that one entry point.  The grid
    is one mode (a ValueError otherwise).
    """

    measure: WignerGrid
    renormalization: float = 1.0
    _alias: np.ndarray | None = field(default=None, repr=False)
    mode_count = 1

    def __post_init__(self):
        modes = self.measure.spec.mode_count
        if modes != 1:
            raise ValueError(f"a model's grid is one mode, not {modes}; "
                             "several modes make a product.ProductModel")

    @property
    def factors(self) -> tuple:
        """A one-mode model is its own one factor (a product.ProductModel
        has one per mode)."""
        return (self,)


def _factor_parts(model, x):
    """(factor, part) per factor of the model, part being the factor's
    mode's columns (q_k, p_k) of x along its last axis."""
    m = model.mode_count
    for k, factor in enumerate(model.factors):
        yield factor, x[..., [k, m + k]]


def build_hvm(w: WignerGrid) -> HiddenVariableModel:
    """Wigner measure as a hidden-variable model; fails on real negativity.

    Negative cells smaller in magnitude than wigner.negativity_clamp, 1e-9
    times the grid maximum, are floating-point floor and get clamped to
    zero; anything below that raises NegativityError with the witness.

    The input is consumed: its array is clamped and normalized in place
    and becomes the model's grid, so the call allocates nothing
    grid-sized.  A grid of more than one mode is refused (ValueError) and
    the negativity check comes next, both before the first write, so
    either error leaves the input's bits untouched.
    """
    model = HiddenVariableModel(w)
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
    model.renormalization = float(total)
    return model


def _projection_lattice(used: np.ndarray, points: int, nodes: int):
    """(g, n) with every used coefficient n_k g to 4 ulp, or None.

    n are the smallest such integers, found by trying g = |zeta_k0| / n0
    for n0 = 1, 2, ... on the axis k0 of smallest |zeta_k|, LATTICE_TRIALS
    at a time.  On the grid's nodes h (j_k - c), c = (points - 1) / 2, the
    outcome zeta . c_i is then g h key_i with key_i = sum_k n_k (j_k - c),
    which takes R = 2 c sum_k |n_k| + 1 values; a lattice is returned only
    if R is at most the marginal's node count and EVENT_NODE_LIMIT.
    """
    size = np.abs(used)
    # the largest sum of |n_k|
    most = (min(nodes, EVENT_NODE_LIMIT) - 1) // (points - 1)
    with np.errstate(over="ignore"):
        if size.max() / size.min() > most:  # one |n_k| alone exceeds it
            return None
    trials = most // size.size
    for start in range(1, trials + 1, LATTICE_TRIALS):
        scale = size.min() / np.arange(start,
                                       min(start + LATTICE_TRIALS, trials + 1))
        n = np.rint(used / scale[:, None])
        fits = np.all(np.abs(n * scale[:, None] - used)
                      <= 4 * np.spacing(size), axis=1)
        fits &= np.abs(n).sum(axis=1) <= most
        if fits.any():
            first = np.argmax(fits)
            return float(scale[first]), n[first].astype(np.intp)
    return None


def _lattice_weights(weights: np.ndarray, n: np.ndarray,
                     points: int) -> np.ndarray:
    """A one-mode marginal's weights (one or two axes) summed per key +
    R // 2, in C order.

    Each axis contributes n_k (j_k - c) + |n_k| c, a key from 0 up to
    2 c |n_k|, and every sum of the axes' keys occurs, so the bins run
    from 0 to R - 1.
    """
    half = (points - 1) // 2
    keys = reduce(np.add.outer, [k * np.arange(-half, half + 1)
                                 + abs(k) * half for k in n])
    return np.bincount(keys.reshape(-1), weights.reshape(-1))


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
              stream: int) -> np.ndarray:
    """The chunk's (rows, 3) uniforms: the cell key, then the box's q, p.

    Stream k > 0, factor k of a product, draws from (seed, chunk, k);
    stream 0 from (seed, chunk), as a one-mode model does.
    """
    entropy = [seed, chunk_index] + ([stream] if stream else [])
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy)))
    return rng.random((rows, 3))


def sample(model: HiddenVariableModel, n: int, seed: int,
           threads: int = 1, *, histogram=None, running=None,
           stream: int = 0) -> np.ndarray:
    """n hidden states (q, p), shape (n, 2); row i depends only on (seed, i).

    model is one mode, a factor of a product at most; factor k of a
    product draws with stream=k, from its own substream (_uniforms).

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
    sample (a sorted key and its order) instead of 24: no (n, 2) array
    and no n outcomes are made.  Each chunk adds its counts to one
    total as it is placed, so no chunk's counts wait for earlier chunks.
    With running, an (n,) array of the outcomes of a product's earlier
    factors, each chunk's rows @ zeta are added to its slice first; and
    with edges None the sums are stored back there and nothing is counted.

    No grid-sized table is held.  The first call stores the running sum
    at each block end (_cumulative_blocks).  Then three passes: each
    chunk draws its keys u * ends[-1] and sorts them, keeping the sorted
    keys and their order in its k rows of the output, or of an (n, 2)
    buffer when streamed; each block
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
    starts = range(0, n, SAMPLE_CHUNK)
    if histogram is None:
        held = phi = np.empty((n, 2))
        rows = [phi[start:start + SAMPLE_CHUNK] for start in starts]
    else:
        zeta, edges = histogram
        held = np.empty((n, 2))  # a key and its order per sample, no rows
        if edges is not None:
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
        drawn = _uniforms(seed, c, k, stream)[:, 0] * ends[-1]
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
        u = _uniforms(seed, c, k, stream)
        out = rows[c] if histogram is None else np.empty((k, 2))
        for d in range(2):
            out[:, d] = axis[coords[d]] + (u[:, 1 + d] - 0.5) * step
        del u, coords
        if histogram is None:
            return
        outcomes = out @ zeta
        if running is not None:
            earlier = running[starts[c]:starts[c] + k]
            outcomes += earlier
            if edges is None:
                earlier[:] = outcomes
                return
        binned = np.histogram(outcomes, edges)[0]
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
    if histogram is None:
        return phi
    return running if edges is None else total


def hvm_homodyne_distribution(model, zeta, bins: BinSpec, n: int, seed: int,
                              threads: int = 1) -> OutcomeDistribution:
    """Histogram of zeta . phi over n hidden-state samples.

    The samples are streamed into the histogram (sample's histogram=),
    so the call holds 16 bytes a sample beside one chunk's rows.  Each
    factor of the model whose part of the label is nonzero draws its part
    of phi with stream=its index; the outcome is the sum of the factors'
    parts, added in factor order in a running outcome per sample (8 bytes
    more) when two factors or more take part.
    """
    zeta = observable_label(zeta, model.mode_count)
    used = [(k, factor, part)
            for k, (factor, part) in enumerate(_factor_parts(model, zeta))
            if part.any()]
    running = np.zeros(n) if len(used) > 1 else None
    for k, factor, part in used:
        edges = bins.edges if k == used[-1][0] else None
        counts = sample(factor, n, seed, threads=threads, stream=k,
                        histogram=(part, edges), running=running)
    return OutcomeDistribution(bins.edges, counts / n)


def hvm_event_probability(model, zeta, intervals) -> float:
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


def hvm_event_probabilities(model, zeta, interval_sets) -> list:
    """hvm_event_probability of each interval set, from one marginal.

    t_i does not depend on the axes where zeta_k = 0, so those axes are
    summed out of the weights once, and the nodes are those of the
    marginal on the used axes.  Each set's sum is added in the order a
    call for that set alone adds it, so it has the same bits.

    Lattice labels: when the used coefficients are n_k g for integers n_k
    (the smallest that fit to 4 ulp, see _projection_lattice), node i sits
    at t_i = g step key_i with an integer key_i = sum_k n_k (j_k - c).  If
    the R = 2 c sum_k |n_k| + 1 keys are no more than the marginal's nodes,
    the weights are binned by key (np.bincount) and Si is evaluated on
    the R outcomes g step k, k = -R//2 ... R//2, for every finite edge of
    every set in one kernel call while they fit in EVENT_BLOCK values.

    Other labels: a marginal of one or two axes is one slab.  A product's
    marginal of more than two axes is streamed by first-axis slabs, so no
    temporary is as large as the marginal.  Si is
    evaluated on blocks of whole slabs of at least EVENT_BLOCK outcomes,
    one call per finite edge and block (a last, shorter block takes as
    many edges per call as fit in EVENT_BLOCK values), and each slab's
    per-interval sums are added in slab-major order.  No thread is
    started: the Si kernel is a few hundred short numpy calls per block,
    and two threads contending for the GIL between them were slower than
    one.  A marginal of more than EVENT_NODE_LIMIT nodes is refused.

    A product model's marginal is the outer product of its factors'
    (factors with no used axis are left out: their mass cancels), and its
    nodes' outcomes are the outer sums of theirs.  Lattice labels bin each
    factor's weights by its own keys and convolve the factors' masses;
    other labels stream the first factor's first-axis slabs as above,
    each block formed from the factors' marginals, so Si is evaluated as
    many times as on the joint grid.
    """
    zeta = observable_label(zeta, model.mode_count)
    sets = [_normalize_intervals(intervals) for intervals in interval_sets]
    spec = model.factors[0].measure.spec
    marginals, parts = [], []  # per factor with a used axis
    for factor, part in _factor_parts(model, zeta):
        idle = tuple(np.flatnonzero(part == 0))
        if len(idle) < part.size:
            weights = factor.measure.values
            marginals.append(weights.sum(axis=idle) if idle else weights)
            parts.append(part[part != 0])
    bandwidth = np.pi / (spec.step * np.max(np.abs(zeta)))
    used = np.concatenate(parts)
    nodes = math.prod(w.size for w in marginals)

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

    lattice = _projection_lattice(used, spec.points, nodes)
    if lattice is not None:
        scale, n = lattice
        # each factor's keys are its share of n, and the sum of independent
        # keys has the convolution of their masses, whose products np.convolve
        # forms one by one
        shares = np.split(n, np.cumsum([p.size for p in parts])[:-1])
        keys = [(spec.points - 1) * np.abs(share).sum() + 1
                for share in shares]
        if np.cumsum(keys)[:-1] @ keys[1:] > EVENT_NODE_LIMIT:
            lattice = None
    if lattice is not None:
        masses = reduce(np.convolve, [_lattice_weights(w, share, spec.points)
                                      for w, share in zip(marginals, shares)])
        reach = len(masses) // 2
        outcomes = scale * spec.step * np.arange(-reach, reach + 1)
        sums = slab_sums(masses[None], outcomes[None])
    else:
        if nodes > EVENT_NODE_LIMIT:
            raise InadequateWindowError(
                f"an event of this label sums {short_int(nodes)} grid "
                f"nodes, above the {EVENT_NODE_LIMIT} of the largest grid; "
                "use fewer points")
        # z * axis broadcast along the used axes: summed in axis order,
        # these are the products and sums of zeta . c over the full grid
        lines = [(z * spec.axis).reshape((-1,) + (1,) * (used.size - 1 - d))
                 for d, z in enumerate(used)]
        first, rest = marginals[0], marginals[1:]
        if used.size <= 2:  # one slab
            first, rest = reduce(np.multiply.outer, marginals)[None], []
            lines[0] = lines[0][None]
        per = -(-EVENT_BLOCK // (first[0].size * math.prod(
            w.size for w in rest)))  # slabs per block
        blocks = []
        for start in range(0, len(first), per):
            slabs = first[start:start + per]
            for w in rest:
                slabs = np.multiply.outer(slabs, w)
            outcomes = lines[0][start:start + per]
            for line in lines[1:]:
                outcomes = outcomes + line
            blocks.append(slab_sums(slabs, outcomes))
        sums = np.concatenate(blocks)
    weight = reduce(np.multiply, [w.sum() for w in marginals])
    probabilities, start = [], 0
    for edges in sets:
        total = 0.0
        # slab-major, as one pass over the slabs adds them
        for part in sums[:, start:start + len(edges)].flat:
            total += part
        start += len(edges)
        probabilities.append(float(total / weight) / np.pi)
    return probabilities


def empirical_characteristic_check(model, points, state,
                                   tolerance: float = CHAR_TOLERANCE) -> dict:
    """Compare the measure's Fourier transform with the state's chi.

    Integrates exp(i [v, phi]) against the model measure on the grid and
    checks it against Tr[rho D(v)] at each test point; agreement is the
    statistical face of the Fourier-inversion argument linking the two.
    [v, phi] is a sum over the modes, so a product model's transform is
    the product of its factors' (_grid_characteristic), each at its
    factor's part of v.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    reference = characteristic_at_points(state, pts)
    value = reduce(np.multiply, [_grid_characteristic(factor, v)
                                 for factor, v in _factor_parts(model, pts)])
    deviations = np.abs(value - reference)
    max_dev = float(max(deviations))
    return {
        "points": pts.tolist(),
        "deviations": [float(d) for d in deviations],
        "max_deviation": max_dev,
        "tolerance": tolerance,
        "pass": bool(max_dev <= tolerance),
    }


def _grid_characteristic(model: HiddenVariableModel,
                         pts: np.ndarray) -> np.ndarray:
    """The Fourier transform of one mode's normalized measure at each point.

    [v, phi] = v_q phi_p - v_p phi_q factorizes over the grid's two axes,
    so all points are contracted together: the q axis by two real products
    of the cos and sin phases with the measure, which never makes a
    complex copy of the grid, and the p axis by one einsum with its
    phases.
    """
    spec = model.measure.spec
    values = model.measure.values
    # [v, phi] = (omega^T v) . phi
    k = np.stack([pts[:, 1], -pts[:, 0]], axis=1)
    angles = k[:, :, None] * spec.axis  # (point, axis, node)
    phases = np.exp(1j * angles[:, 1])
    value = 0
    for unit, phase in ((1, np.cos), (1j, np.sin)):
        part = np.einsum("pj,pj->p", phase(angles[:, 0]) @ values, phases)
        value = value + unit * part
    return value / values.sum()


def forward_check(state, model, observables, bins: BinSpec, n: int,
                  seed: int, threads: int = 1):
    """The model against the quantum oracle, one observable at a time.

    Yields, for the idx-th observable, its report row, the model's
    histogram of n samples at seed + idx and the oracle's bins, so that a
    caller holds one observable's bins at a time.  The row passes when the
    two are within TV_TOLERANCE in total variation and each exact event of
    EVENT_SETS is within EVENT_TOLERANCE of the oracle's.  Every label's
    model events come first, so that a label they refuse (more nodes than
    EVENT_NODE_LIMIT) stops the check before any sample or row.
    """
    sets = [intervals for _, intervals in EVENT_SETS]
    checked = [(zeta, hvm_event_probabilities(model, zeta, sets))
               for zeta in observables]
    for idx, (zeta, hvs) in enumerate(checked):
        hvm_dist = hvm_homodyne_distribution(model, zeta, bins, n, seed + idx,
                                             threads=threads)
        oracle_dist = quantum_homodyne_distribution(state, zeta, bins)
        tv = tv_distance(hvm_dist, oracle_dist)
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
