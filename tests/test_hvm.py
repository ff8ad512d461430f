import concurrent.futures
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from wignerhvm import hvm
from wignerhvm.hvm import (CHAR_TOLERANCE, EVENT_TOLERANCE, TV_TOLERANCE,
                           NegativityError, build_hvm,
                           empirical_characteristic_check, forward_check,
                           hvm_event_probabilities, hvm_event_probability,
                           hvm_homodyne_distribution, sample)
from wignerhvm.oracle import (BinSpec, event_probability,
                              quantum_homodyne_distribution, tv_distance)
from wignerhvm.special import sine_integral
from wignerhvm.states import FockDensityOperator, StateSpec, make_state
from wignerhvm.wigner import (GridSpec, WignerGrid, characteristic_at_points,
                              state_wigner, wigner_gaussian)

from reference import (TwoModeFock, cell_probabilities, copying_hvm_measure,
                       complex_parity_wigner, full_grid_event_probability,
                       lattice_event_probability, pinned_gaussians,
                       searchsorted_sample, serial_slab_event_probability,
                       trace_characteristic_at_points,
                       whole_product_characteristic_deviations)

GRID = GridSpec(1, 6.0, 257)
BINS = BinSpec(-6.0, 6.0, 50)


def model_for(kind, params=None, cutoff=None):
    state = make_state(StateSpec(kind, params or {}, 1, cutoff))
    return state, build_hvm(state_wigner(state, GRID))


def test_build_positive_states():
    for kind, params in (("vacuum", {}), ("thermal", {"nbar": 1.0})):
        _, model = model_for(kind, params)
        assert abs(model.renormalization - 1) < 1e-3
        assert model.measure.values.min() >= 0


def test_build_raises_on_fock1_with_witness():
    state = make_state(StateSpec("fock", {"n": 1}, 1, 20))
    w = state_wigner(state, GRID)
    with pytest.raises(NegativityError) as excinfo:
        build_hvm(w)
    err = excinfo.value
    assert abs(err.min_value + 1 / np.pi) < 1e-3
    assert err.location == (0.0, 0.0)
    payload = err.to_dict()
    assert payload["grid_spec"]["points"] == 257


def test_witness_location_is_first_near_tie():
    values = np.ones((3, 3))
    values[0, 2] = -1.0
    values[2, 0] = -1.0 - 1e-14
    with pytest.raises(NegativityError) as excinfo:
        build_hvm(WignerGrid(GridSpec(1, 1.0, 3), values))
    assert excinfo.value.min_value == -1.0 - 1e-14
    assert excinfo.value.location == (-1.0, 1.0)


def test_sampling_determinism_and_prefix():
    _, model = model_for("vacuum")
    a = sample(model, 20000, seed=3)
    b = sample(model, 40000, seed=3)
    c = sample(model, 40000, seed=3, threads=4)
    assert np.array_equal(a, b[:20000])
    assert np.array_equal(b, c)


def test_single_sample_regression_pin():
    _, model = model_for("vacuum")
    s = sample(model, 1, seed=1)
    assert np.allclose(
        s[0], [0.02111548576527822, 1.1083199818462328], atol=1e-12)


def _masses(k, cells, values, floor=0.0):
    p = np.full(k, floor)
    p[list(cells)] = values
    return p


CELL_GRID = GridSpec(1, 10.0, 21)  # step 1: a cell's volume is 1
CELL_CASES = {
    "one_hot_last": lambda k: _masses(k, [k - 1], [1.0]),
    # zero cells between the two massive ones and after the second
    "two_cells": lambda k: _masses(k, [3, 200], [0.7, 0.3]),
    "subnormal_tail": lambda k: _masses(k, [5, 150], [0.7, 0.3], 5e-324),
    "dirichlet_0.3": lambda k: np.random.default_rng(0).dirichlet(
        np.full(k, 0.3)),
}


@pytest.mark.parametrize("case", sorted(CELL_CASES))
def test_sampled_cells_follow_the_cell_masses(case):
    k = CELL_GRID.points ** 2
    masses = CELL_CASES[case](k)
    model = build_hvm(WignerGrid(CELL_GRID, masses.reshape(CELL_GRID.shape)))
    n = 100000
    phi = sample(model, n, seed=21)
    cells = np.rint((phi - CELL_GRID.axis[0]) / CELL_GRID.step).astype(int)
    counts = np.bincount(np.ravel_multi_index(cells.T, CELL_GRID.shape),
                         minlength=k)
    assert not np.any(counts[masses == 0])
    probs = cell_probabilities(model)
    tv = 0.5 * np.abs(counts / n - probs).sum()
    # E[TV] <= sum_i sqrt(p_i / n) / 2, and one draw moves TV by at most
    # 1/n, so McDiarmid puts TV above this bound with probability < 1e-6
    bound = 0.5 * np.sqrt(probs / n).sum() + np.sqrt(np.log(1e6) / (2 * n))
    assert tv <= bound, (tv, bound)


def test_cumulative_table_built_once_under_threads(monkeypatch):
    _, model = model_for("squeezed", {"r": 0.5})
    calls = []
    original = hvm._cumulative_blocks

    def counting(model):
        calls.append(1)
        return original(model)

    monkeypatch.setattr(hvm, "_cumulative_blocks", counting)
    sample(model, 100000, seed=3, threads=4)
    sample(model, 100000, seed=4, threads=4)
    assert len(calls) == 1


def test_sample_holds_one_samples_array():
    _, model = model_for("vacuum")
    sample(model, 1, seed=0)  # the cumulative table is not counted
    n = 1 << 20
    nbytes = 8 * 2 * n
    tracemalloc.start()
    try:
        phi = sample(model, n, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert phi.nbytes == nbytes
    # one chunk's uniforms and indices ride on top of the array
    assert peak < 1.25 * nbytes, peak / nbytes


def test_streamed_histogram_holds_a_key_and_its_order_per_sample():
    _, model = model_for("vacuum")
    sample(model, 1, seed=0)  # the cumulative table is not counted
    n = 1 << 20
    nbytes = 16 * n
    tracemalloc.start()
    try:
        hvm_homodyne_distribution(model, [1.0, 0.0], BINS, n, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one chunk's rows, uniforms and outcomes ride on top of the buffer;
    # the whole samples and their outcomes would take 24 bytes a sample
    assert peak < 1.25 * nbytes, peak / nbytes


def test_sample_mean_convergence():
    _, model = model_for("vacuum")
    phi = sample(model, 100000, seed=11)
    bound = 4 * np.sqrt(0.5) / np.sqrt(100000)
    assert abs(phi[:, 0].mean()) < bound
    assert abs(phi[:, 1].mean()) < bound
    state, model = model_for("coherent", {"alpha": np.sqrt(2)})
    phi = sample(model, 100000, seed=12)
    assert abs(phi[:, 0].mean() - 2.0) < bound


def test_homodyne_distribution_matches_oracle():
    cases = [("vacuum", {}, [1, 0]), ("vacuum", {}, [0, 1]),
             ("squeezed", {"r": 0.5}, [1, 0])]
    for kind, params, zeta in cases:
        state, model = model_for(kind, params)
        hist = hvm_homodyne_distribution(model, zeta, BINS, 100000, seed=5)
        reference = quantum_homodyne_distribution(state, zeta, BINS)
        assert tv_distance(hist, reference) <= 0.02


def test_vacuum_rotational_symmetry():
    state, model = model_for("vacuum")
    reference = quantum_homodyne_distribution(state, [1, 0], BINS)
    for zeta in ([1, 0], [0, 1]):
        hist = hvm_homodyne_distribution(model, zeta, BINS, 100000, seed=6)
        assert tv_distance(hist, reference) <= 0.02


def test_event_probabilities_exact_grid_integration():
    state, model = model_for("vacuum")
    total = hvm_event_probability(model, [1, 0], [(-6, 6)])
    assert abs(total - 1) < 1e-3
    half = hvm_event_probability(model, [1, 0], [(0, np.inf)])
    assert abs(half - 0.5) < 2e-3
    state, model = model_for("coherent", {"alpha": np.sqrt(2)})
    tail = hvm_event_probability(model, [1, 0], [(0, np.inf)])
    assert abs(tail - norm.cdf(2 / np.sqrt(0.5))) < 2e-3


def test_event_probability_matches_oracle_diagonal_label():
    state, model = model_for("squeezed", {"r": 0.5})
    zeta = np.array([1, 1]) / np.sqrt(2)
    for interval in ([(0, np.inf)], [(-1.0, 1.0)], [(-2.0, -0.5), (0.5, 2.0)]):
        hv = hvm_event_probability(model, zeta, interval)
        qv = event_probability(state, zeta, interval)
        assert abs(hv - qv) < 2e-3


def lossy_photon(eta, cutoff=30):
    """(1 - eta)|0><0| + eta|1><1|: W >= 0 exactly when eta <= 1/2."""
    matrix = np.zeros((cutoff, cutoff))
    matrix[0, 0], matrix[1, 1] = 1 - eta, eta
    return FockDensityOperator(matrix, cutoff, 1)


def test_forward_direction_against_fock_oracle():
    # a nonnegative non-Gaussian state, so the oracle is the Fock route
    rng = np.random.default_rng(33)
    for eta in (0.2, 0.5):  # 0.5 puts W(0, 0) = 0 on the clamp
        state = lossy_photon(eta)
        model = build_hvm(state_wigner(state, GRID))
        observables = ([1, 0], [0, 1], [0.6, 0.8])
        for row, hist, reference in forward_check(state, model, observables,
                                                  BINS, 100000, seed=40):
            zeta = row["observable"]
            assert tv_distance(hist, reference) <= TV_TOLERANCE, (eta, zeta)
            for event in row["event_checks"]:
                hv, qv = event["hvm"], event["oracle"]
                interval = event["interval"]
                assert abs(hv - qv) <= EVENT_TOLERANCE, (eta, zeta, interval)
        pts = rng.uniform(-3, 3, size=(10, 2))
        rep = empirical_characteristic_check(model, pts, state,
                                             tolerance=CHAR_TOLERANCE)
        assert rep["pass"], (eta, rep["max_deviation"])
    with pytest.raises(NegativityError) as excinfo:
        build_hvm(state_wigner(lossy_photon(0.52), GRID))
    assert abs(excinfo.value.min_value - (1 - 2 * 0.52) / np.pi) < 1e-6
    assert excinfo.value.location == (0.0, 0.0)


def lossy_pair(eta, cutoff):
    """A lossy photon in the mode (a_1 + a_2)/sqrt(2): W >= 0 iff eta <= 1/2."""
    psi = np.zeros(cutoff ** 2)
    psi[[1, cutoff]] = 1 / np.sqrt(2)  # |01> and |10>
    matrix = eta * np.outer(psi, psi)
    matrix[0, 0] = 1 - eta
    return TwoModeFock(matrix, cutoff)


def test_two_mode_forward_direction_against_fock_oracle(monkeypatch):
    # not Gaussian: exact events and characteristic checks only, no
    # sampling.  zeta . R is |zeta| q of a mode whose overlap t with
    # (a_1 + a_2)/sqrt(2) has |t|^2 = ((sum zeta_q)^2 + (sum zeta_p)^2) /
    # (2 |zeta|^2), so the oracle is the one-mode lossy photon at eta |t|^2.
    # No command builds a two-mode Fock grid or its chi: the reference's
    # parity identity and displacement traces do
    monkeypatch.setattr(hvm, "characteristic_at_points",
                        trace_characteristic_at_points)
    eta = 0.4
    state = lossy_pair(eta, 4)
    spec = GridSpec(2, 6.0, 41)
    model = build_hvm(WignerGrid(spec, complex_parity_wigner(state, spec)))
    for zeta in (np.array([1, 1, 0, 0]) / np.sqrt(2), np.array([1, 0, 0, 0]),
                 np.array([0.6, 0, 0, 0.8])):
        norm2 = zeta @ zeta
        overlap = (zeta[:2].sum() ** 2 + zeta[2:].sum() ** 2) / (2 * norm2)
        reduced = lossy_photon(eta * overlap)
        for interval in ([(0, np.inf)], [(-1.0, 1.0)]):
            hv = hvm_event_probability(model, zeta, interval)
            qv = event_probability(reduced, [np.sqrt(norm2), 0], interval)
            assert abs(hv - qv) <= EVENT_TOLERANCE, (zeta, interval)
    pts = np.random.default_rng(34).uniform(-3, 3, size=(10, 4))
    rep = empirical_characteristic_check(model, pts, state,
                                         tolerance=CHAR_TOLERANCE)
    assert rep["pass"], rep["max_deviation"]


@settings(max_examples=50, deadline=None)
@given(eta=st.floats(0.0, 0.5),
       angle=st.floats(0.0, 2 * np.pi), scale=st.floats(0.1, 3.0),
       lo=st.floats(-4, 4), width=st.floats(0.01, 8),
       kind=st.sampled_from(["finite", "below", "above"]))
def test_band_limited_events_match_fock_oracle(eta, angle, scale, lo, width,
                                               kind):
    # a coarse 0.3-step grid, where a box model's step**2/12 variance shows
    state = lossy_photon(eta)
    model = build_hvm(state_wigner(state, GridSpec(1, 6.0, 41)))
    zeta = scale * np.array([np.cos(angle), np.sin(angle)])
    hi = lo + width
    intervals = {"finite": [(lo, hi)], "below": [(-np.inf, hi)],
                 "above": [(lo, np.inf)]}[kind]
    hv = hvm_event_probability(model, zeta, intervals)
    qv = event_probability(state, zeta, intervals)
    assert abs(hv - qv) <= 1e-10


def test_two_mode_gaussian_events_match_closed_form():
    grid = GridSpec(2, 6.0, 41)
    labels = ([1, 0, 0, 0], [0, 0, 1, 0], [0.6, 0, 0.8, 0],
              np.array([1, 1, 0, 0]) / np.sqrt(2))
    for kind, params in (("coherent", {"alpha": [1.0, 0.5]}),
                         ("thermal", {"nbar": 0.25})):
        state = make_state(StateSpec(kind, params, 2))
        model = build_hvm(state_wigner(state, grid))
        for zeta in labels:
            for interval in ([(0, np.inf)], [(-1.0, 1.0)]):
                hv = hvm_event_probability(model, zeta, interval)
                qv = event_probability(state, zeta, interval)
                assert abs(hv - qv) <= 1e-10, (kind, zeta, interval)


@pytest.fixture(scope="module")
def coherent_pair():
    state = make_state(StateSpec("coherent", {"alpha": [1.0, 0.5]}, 2))
    return state, build_hvm(state_wigner(state, GridSpec(2, 6.0, 41)))


# labels whose used coefficients are n_k g, with their integers n_k, and
# labels with no such lattice over three or more axes
LATTICE = [([1.0, 0, 0, 0], [1]), ([0.6, 0, 0.8, 0], [3, 4]),
           ([0.3, -0.5, 0, 0.9], [3, -5, 9]),
           ([0.5, 0.5, 0.5, 0.5], [1, 1, 1, 1])]
NO_LATTICE = [[1.0, 1 / np.sqrt(2), 1 / np.sqrt(3), 0],
              [np.cos(1), np.sin(1), np.cos(2), np.sin(2)]]


def test_semi_infinite_events_match_sici_of_infinity_bit_for_bit(
        coherent_pair):
    # Si(+-inf) is taken as the constant +-pi/2; the references evaluate
    # the kernel at both edges, on every projection key for lattice labels
    # and otherwise on every node of the same marginal, summed over the
    # same first-axis slabs when it has more than two axes
    assert sine_integral(np.inf) == np.pi / 2
    assert sine_integral(-np.inf) == -np.pi / 2
    _, model = coherent_pair
    axis = model.measure.spec.axis
    step = model.measure.spec.step
    semi_infinite = ((0.0, np.inf), (-np.inf, 0.0), (-1.0, np.inf))
    for zeta, n in LATTICE[:3]:
        for a, b in semi_infinite:
            want = lattice_event_probability(model, zeta, [(a, b)], n)
            assert hvm_event_probability(model, zeta, [(a, b)]) == want
    zeta = np.array(NO_LATTICE[0])
    marginal = model.measure.values.sum(axis=tuple(np.flatnonzero(zeta == 0)))
    used = zeta[zeta != 0]
    outcomes = 0
    for d, z in enumerate(used):
        shape = [1] * used.size
        shape[d] = -1
        outcomes = outcomes + z * axis.reshape(shape)
    bandwidth = np.pi / (step * np.max(np.abs(zeta)))
    for a, b in semi_infinite:
        total = 0.0
        for w, t in zip(marginal, outcomes):
            upper = sine_integral(bandwidth * (b - t))
            lower = sine_integral(bandwidth * (a - t))
            total += np.sum(w * (upper - lower))
        want = float(total / marginal.sum()) / np.pi
        assert hvm_event_probability(model, zeta, [(a, b)]) == want


UNION = [(-np.inf, -0.5), (0.2, 0.7), (1.0, np.inf)]


def test_marginal_events_match_full_grid_node_sum(coherent_pair):
    # summing idle axes out first, and streaming slabs, only reorders the
    # sums of the full-grid reference
    _, two_mode = coherent_pair
    _, one_mode = model_for("squeezed", {"r": 0.5})
    cases = [(two_mode, zeta, intervals)
             for zeta in ([1, 0, 0, 0], [0, 0, 1, 0], [0.6, 0, 0.8, 0],
                          [0.3, -0.5, 0, 0.9], [0.5, 0.5, 0.5, 0.5],
                          NO_LATTICE[0])
             for intervals in ([(0.0, np.inf)], UNION)]
    cases += [(one_mode, [0.6, 0.8], intervals)
              for intervals in ([(-np.inf, 0.0)], [(-1.0, 1.0)], UNION)]
    for model, zeta, intervals in cases:
        got = hvm_event_probability(model, zeta, intervals)
        want = full_grid_event_probability(model, zeta, intervals)
        assert abs(got - want) <= 1e-14, (zeta, intervals, got - want)


def test_sorted_key_sampling_matches_plain_search(coherent_pair):
    # sorted keys and the in-place cumulative table change no bit of the
    # samples, on every chunk (the last one short) and at any thread count
    _, model = coherent_pair
    n = 3 * hvm.SAMPLE_CHUNK + 5
    want = searchsorted_sample(model, n, seed=7, chunk=hvm.SAMPLE_CHUNK)
    for threads in (1, 4):
        fresh = hvm.HiddenVariableModel(model.measure)
        assert np.array_equal(sample(fresh, n, seed=7, threads=threads), want)


@pytest.mark.parametrize("n", [3 * hvm.SAMPLE_CHUNK + 5, 100003])
def test_streamed_histogram_is_the_whole_samples_histogram(coherent_pair, n):
    # chunk-wise rows @ zeta and integer counts summed over chunks give the
    # bits of one histogram of the whole (n, 2m) array's projections
    _, squeezed = model_for("squeezed", {"r": 0.5})
    cases = [(squeezed, [1.0, 0.0]), (squeezed, [0.6, 0.8])]
    cases += [(coherent_pair[1], zeta) for zeta in
              ([0.6, 0, 0.8, 0], [0.5, 0.5, 0.5, 0.5], NO_LATTICE[0])]
    for model, zeta in cases:
        zeta = np.array(zeta)
        want = np.histogram(sample(model, n, seed=9) @ zeta, BINS.edges)[0]
        for threads in (1, 3):
            got = hvm_homodyne_distribution(model, zeta, BINS, n, seed=9,
                                            threads=threads)
            assert np.array_equal(got.masses, want / n), (zeta, threads)


def test_first_sample_holds_one_grid_sized_array(coherent_pair):
    # the first call keeps one running sum per block of cells; the cell
    # weights are accumulated a block at a time, so no array near the
    # grid's size is made, the model's own grid aside
    _, model = coherent_pair
    grid_bytes = model.measure.values.nbytes
    sample(hvm.HiddenVariableModel(model.measure), 10, seed=0)  # warm-up
    fresh = hvm.HiddenVariableModel(model.measure)
    tracemalloc.start()
    try:
        sample(fresh, 10, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    blocks = -(-model.measure.values.size // hvm.SAMPLE_BLOCK)
    assert blocks == 44
    assert fresh._alias.shape == (blocks,)
    assert fresh._alias.dtype == np.float64
    assert peak < 0.1 * grid_bytes, peak / grid_bytes


@pytest.mark.parametrize("case", ["coherent", "many_binades"])
def test_block_ends_are_the_full_cumulative_sum(coherent_pair, case):
    # each stored end is the entry of np.cumsum of the raw cell weights
    # at the block's last cell
    _, pair = coherent_pair
    values = pair.measure.values
    if case == "many_binades":  # zero cells among them
        rng = np.random.default_rng(1)
        values = np.exp(rng.normal(scale=8.0, size=values.shape))
        values[rng.random(values.shape) < 0.2] = 0.0
    spec = pair.measure.spec
    model = hvm.HiddenVariableModel(WignerGrid(spec, values))
    sample(model, 1, seed=0)
    cdf = np.cumsum(values.reshape(-1))
    last = np.minimum(np.arange(1, len(model._alias) + 1) * hvm.SAMPLE_BLOCK,
                      cdf.size) - 1
    assert np.array_equal(model._alias, cdf[last])


# 577^2 = 332,929 cells: five blocks of 2^16 and a short sixth
MULTI_BLOCK = GridSpec(1, 8.0, 577)


def _block_masses(case):
    masses = np.random.default_rng(31).random(MULTI_BLOCK.points ** 2)
    block = hvm.SAMPLE_BLOCK
    if case == "zero_blocks":  # blocks 2 and 3 and part of 1 hold no mass
        masses[3 * block // 2:4 * block] = 0.0
    else:  # all of the mass in the last, short block
        masses[:5 * block] = 0.0
    return masses.reshape(MULTI_BLOCK.shape)


@pytest.mark.parametrize("case", ["zero_blocks", "last_block"])
def test_block_search_matches_plain_search(case):
    model = build_hvm(WignerGrid(MULTI_BLOCK, _block_masses(case)))
    n = 2 * hvm.SAMPLE_CHUNK + 3
    want = searchsorted_sample(model, n, seed=5, chunk=hvm.SAMPLE_CHUNK)
    cells = np.rint((want - MULTI_BLOCK.axis[0]) / MULTI_BLOCK.step)
    flat = np.ravel_multi_index(cells.astype(int).T, MULTI_BLOCK.shape)
    blocks = {"zero_blocks": [0, 1, 4, 5], "last_block": [5]}[case]
    assert np.unique(flat // hvm.SAMPLE_BLOCK).tolist() == blocks
    again = searchsorted_sample(model, n, seed=6, chunk=hvm.SAMPLE_CHUNK)
    # more workers than cores, switching often: the blocks' searches write
    # disjoint rows of one array from several threads
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 3):
            fresh = hvm.HiddenVariableModel(model.measure)
            got = sample(fresh, n, seed=5, threads=threads)
            assert np.array_equal(got, want)
            got = sample(fresh, n, seed=6, threads=threads)
            assert np.array_equal(got, again)
    finally:
        sys.setswitchinterval(interval)


# the lattice labels first, so that they keep their old ids
@pytest.mark.parametrize("zeta, n", [LATTICE[3], LATTICE[2]]
                         + [(zeta, None) for zeta in NO_LATTICE],
                         ids=["zeta0", "zeta1", "zeta2", "zeta3"])
def test_slab_events_have_the_same_bits_on_any_core_count(
        coherent_pair, monkeypatch, zeta, n):
    _, model = coherent_pair
    pools = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    got = {}
    for cores in (1, 4):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, cores=cores: set(range(cores)))
        got[cores] = hvm_event_probability(model, zeta, UNION)
    if n is None:
        want = serial_slab_event_probability(model, zeta, UNION)
    else:
        want = lattice_event_probability(model, zeta, UNION, n)
    assert got[1] == got[4] == want
    assert pools == []  # slabs and keys alike are summed in one pass


def test_lattice_events_evaluate_sici_once_per_key(coherent_pair,
                                                   monkeypatch):
    # at most R = (points - 1) sum |n_k| + 1 points per finite edge, all
    # edges in one call; labels with no lattice still evaluate every node
    _, model = coherent_pair
    calls = []

    def spy(x):
        calls.append(np.size(x))
        return sine_integral(x)

    monkeypatch.setattr(hvm, "sine_integral", spy)
    finite_edges = 4  # UNION's two semi-infinite intervals and (0.2, 0.7)
    for zeta, n in LATTICE:
        calls.clear()
        hvm_event_probability(model, zeta, UNION)
        keys = 40 * np.abs(n).sum() + 1
        assert len(calls) == 1, zeta
        assert calls[0] <= finite_edges * keys, (zeta, calls)
    # the finite edges of every set share that call: 1 + 2 + 0 + 4 here
    calls.clear()
    sets = [[(0.0, np.inf)], [(-1.0, 1.0)], [], UNION]
    hvm_event_probabilities(model, LATTICE[2][0], sets)
    assert len(calls) == 1 and calls[0] % 7 == 0, calls
    calls.clear()
    hvm_event_probability(model, LATTICE[2][0], [(-np.inf, np.inf)])
    assert calls == []  # no finite edge, no call
    calls.clear()
    hvm_event_probability(model, NO_LATTICE[0], UNION)
    assert sum(calls) == finite_edges * 41 ** 3
    # the 41 slabs of 41^2 outcomes go in blocks of 39 (at least
    # EVENT_BLOCK outcomes), one call per edge, and 2, whose four edges
    # fit in one call of at most EVENT_BLOCK values
    assert calls == ([39 * 41 ** 2] * finite_edges
                     + [finite_edges * 2 * 41 ** 2])


@pytest.mark.parametrize("zeta, n", LATTICE[:2] + [(NO_LATTICE[0], None)])
def test_power_of_two_scaling_keeps_every_bit(coherent_pair, zeta, n):
    # scaling the label and the edges by 2^e scales every outcome, edge and
    # 1/bandwidth exactly, on the lattice path and on the slab path
    _, model = coherent_pair
    want = hvm_event_probability(model, zeta, UNION)
    for e in (-500, -7, 9, 500):
        scaled = [(np.ldexp(a, e), np.ldexp(b, e)) for a, b in UNION]
        got = hvm_event_probability(model, np.ldexp(zeta, e), scaled)
        assert got == want, e


@pytest.mark.parametrize("zeta", [LATTICE[0][0], LATTICE[3][0], NO_LATTICE[0],
                                  [0.6, 0.8]])
def test_interval_sets_from_one_marginal_keep_every_bit(coherent_pair, zeta):
    # hvm-compare's sets and UNION, with an empty set among them: each set
    # is added as a call for it alone adds it
    _, model = coherent_pair if len(zeta) == 4 else model_for("thermal")
    sets = [[(0.0, np.inf)], [(-1.0, 1.0)], [], UNION]
    want = [hvm_event_probability(model, zeta, intervals)
            for intervals in sets]
    assert hvm_event_probabilities(model, zeta, sets) == want
    assert want[2] == 0.0


BARE_IMPORT_SCRIPT = """
import json, sys
import wignerhvm
loaded = ["concurrent.futures" in sys.modules]
from wignerhvm.hvm import build_hvm, sample
from wignerhvm.states import StateSpec, make_state
from wignerhvm.wigner import GridSpec, state_wigner
model = build_hvm(state_wigner(make_state(StateSpec("vacuum")),
                               GridSpec(1, 6.0, 21)))
sample(model, 100, seed=0)
loaded.append("concurrent.futures" in sys.modules)
sample(model, 100, seed=0, threads=2)  # the positive control
loaded.append("concurrent.futures" in sys.modules)
print(json.dumps(loaded))
"""


def test_bare_import_loads_no_executor():
    # only a threaded sample() imports concurrent.futures (and logging)
    out = subprocess.run([sys.executable, "-c", BARE_IMPORT_SCRIPT],
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [False, False, True]


@pytest.fixture(scope="module")
def small_pair():
    state = make_state(StateSpec("thermal", {"nbar": 0.25}, 2))
    return build_hvm(state_wigner(state, GridSpec(2, 5.0, 15)))


@settings(max_examples=40, deadline=None)
@given(n=st.lists(st.integers(-4, 4), min_size=4, max_size=4).filter(any),
       g=st.floats(0.05, 2.0), e=st.sampled_from([-500, 0, 500]),
       lo=st.floats(-4, 4), width=st.floats(0.01, 8),
       kind=st.sampled_from(["finite", "below", "above"]))
def test_lattice_events_match_full_grid_node_sum(small_pair, n, g, e, lo,
                                                 width, kind):
    # 2^+-500 is about the widest scale the label rule lets through: its
    # squared norm must be finite and nonzero
    zeta = np.ldexp(g * np.array(n, dtype=float), e)
    used = zeta[zeta != 0]
    assert hvm._projection_lattice(used, 15, 15 ** used.size) is not None
    lo, hi = np.ldexp(lo, e), np.ldexp(lo + width, e)
    intervals = {"finite": [(lo, hi)], "below": [(-np.inf, hi)],
                 "above": [(lo, np.inf)]}[kind]
    got = hvm_event_probability(small_pair, zeta, intervals)
    want = full_grid_event_probability(small_pair, zeta, intervals)
    assert abs(got - want) <= 1e-14, (got, want)


@pytest.mark.parametrize("zeta", [[1, 0, 0, 0, 5], [1, 0]])
def test_event_probability_rejects_wrong_length_label(coherent_pair, zeta):
    _, model = coherent_pair
    with pytest.raises(ValueError, match="needs 4 coefficients"):
        hvm_event_probability(model, zeta, [(0.0, np.inf)])


def test_homodyne_distribution_rejects_wrong_length_label(coherent_pair):
    _, model = coherent_pair
    for zeta in ([1, 0, 0, 0, 5], [1, 0]):
        with pytest.raises(ValueError, match="needs 4 coefficients"):
            hvm_homodyne_distribution(model, zeta, BINS, 10, seed=0)


@pytest.mark.parametrize("zeta, message", (
    ([0, 0], "nonzero"), ([np.nan, 1], "finite"), ([np.inf, 1], "finite")))
def test_queries_reject_zero_or_non_finite_labels(zeta, message):
    # (nan, 1) used to give a nan event and (inf, 1) all-zero masses; the
    # wrong-length tests above cover the label's size
    _, model = model_for("vacuum")
    with pytest.raises(ValueError, match=message):
        hvm_event_probability(model, zeta, [(0.0, np.inf)])
    with pytest.raises(ValueError, match=message):
        hvm_homodyne_distribution(model, zeta, BINS, 10, seed=0)


def test_event_probability_rejects_nan_or_reversed_edges():
    _, model = model_for("vacuum")
    for intervals in ([(np.nan, 1.0)], [(0.0, np.nan)], [(1.0, -1.0)],
                      [(-1.0, 1.0), (np.inf, -np.inf)]):
        with pytest.raises(ValueError, match="a <= b"):
            hvm_event_probability(model, [1, 0], intervals)
    assert hvm_event_probability(model, [1, 0], [(0.5, 0.5)]) == 0.0


def test_model_and_oracle_share_one_interval_rule():
    state, model = model_for("vacuum")
    for query in (lambda iv: hvm_event_probability(model, [1, 0], iv),
                  lambda iv: event_probability(state, [1, 0], iv)):
        for intervals in ([(-np.inf, np.inf), (0.0, 1.0)],
                          [(0.0, 2.0), (1.0, 3.0)]):
            with pytest.raises(ValueError, match="overlapping"):
                query(intervals)
        with pytest.raises(ValueError, match="a <= b"):
            query([(np.nan, 1.0)])
        assert query([(0.5, 0.5)]) == 0.0
        # pairs are sorted, so their order does not matter
        assert query([(1.0, 2.0), (-2.0, -1.0)]) == \
            query([(-2.0, -1.0), (1.0, 2.0)])


def test_queries_hold_no_grid_sized_temporary(coherent_pair):
    state, model = coherent_pair
    grid_bytes = 8 * 41 ** 4
    assert model.measure.values.nbytes == grid_bytes
    pts = np.random.default_rng(5).uniform(-3, 3, size=(10, 4))
    queries = {
        "idle axes": lambda: hvm_event_probability(
            model, [1, 0, 0, 0], [(-1.0, 1.0)]),
        "lattice": lambda: hvm_event_probability(
            model, [0.5, 0.5, 0.5, 0.5], [(-1.0, 1.0)]),
        "slabs": lambda: hvm_event_probability(
            model, NO_LATTICE[1], [(-1.0, 1.0)]),
        "characteristic": lambda: empirical_characteristic_check(
            model, pts, state),
    }
    for name, query in queries.items():
        query()  # imports and first-call set-up are not counted
        tracemalloc.start()
        try:
            query()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid_bytes, (name, peak / grid_bytes)


def reference_characteristic_deviations(model, pts, state):
    """|sum_cells p exp(i k . c) - chi| over explicit cell-center arrays."""
    spec = model.measure.spec
    m = spec.mode_count
    probs = cell_probabilities(model)
    centers = spec.axis[np.indices(spec.shape).reshape(2 * m, -1)]
    deviations = []
    for v, ref in zip(pts, characteristic_at_points(state, pts)):
        k = np.concatenate([v[m:], -v[:m]])
        value = complex(np.sum(probs * np.exp(1j * (k @ centers))))
        deviations.append(abs(value - ref))
    return np.array(deviations)


def test_separable_characteristic_check_matches_dense_sum():
    rng = np.random.default_rng(19)
    coherent = make_state(StateSpec("coherent", {"alpha": [1.0, 0.5]}, 2))
    cases = [(coherent, GridSpec(2, 6.0, 25)),
             (lossy_photon(0.3), GRID)]
    for state, grid in cases:
        model = build_hvm(state_wigner(state, grid))
        pts = rng.uniform(-3, 3, size=(4, 2 * grid.mode_count))
        rep = empirical_characteristic_check(model, pts, state)
        reference = reference_characteristic_deviations(model, pts, state)
        assert np.max(np.abs(np.array(rep["deviations"]) - reference)) \
            <= 1e-12


def test_blocked_characteristic_check_has_the_whole_product_bits(
        coherent_pair):
    # a two-mode grid of one slab per block, one of five-slab blocks, and
    # one mode, whose grid is one block
    rng = np.random.default_rng(23)
    coherent = make_state(StateSpec("coherent", {"alpha": [1.0, 0.5]}, 2))
    cases = [coherent_pair,
             (coherent, build_hvm(state_wigner(coherent, GridSpec(2, 6.0, 25)))),
             model_for("squeezed", {"r": 0.5})]
    for state, model in cases:
        pts = rng.uniform(-3, 3, size=(10, 2 * model.mode_count))
        got = empirical_characteristic_check(model, pts, state)["deviations"]
        want = whole_product_characteristic_deviations(model, pts, state)
        assert np.array_equal(np.array(got).view(np.int64),
                              np.array(want).view(np.int64))


def test_characteristic_check_holds_one_slab_of_products(coherent_pair):
    # a whole (points x 41^3) cos or sin product is 5.5 MB; one slab's
    # product, its complex terms and the running sum read 1.2 MB in all
    state, model = coherent_pair
    pts = np.random.default_rng(5).uniform(-3, 3, size=(10, 4))
    empirical_characteristic_check(model, pts, state)  # first-call set-up
    tracemalloc.start()
    try:
        empirical_characteristic_check(model, pts, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(pts) * 41 ** 3 / 3, peak / 1e6


def test_empirical_characteristic_check():
    state, model = model_for("vacuum")
    rep = empirical_characteristic_check(model, [[0.0, 0.0]], state)
    assert rep["max_deviation"] < 1e-9
    rep = empirical_characteristic_check(model, [[1.0, 0.0]], state)
    assert abs(rep["deviations"][0]) < 2e-3
    state, model = model_for("squeezed", {"r": 0.5})
    rng = np.random.default_rng(17)
    pts = rng.uniform(-3, 3, size=(10, 2))
    rep = empirical_characteristic_check(model, pts, state)
    assert rep["pass"] and rep["max_deviation"] <= 2e-3


def test_empirical_characteristic_check_displaced_state():
    # asymmetric state exercises the orientation of the transform pairing
    state, model = model_for("coherent", {"alpha": [0.9, 0.4]})
    pts = [[1.2, 0.3], [-0.7, 2.0], [0.0, -1.4]]
    rep = empirical_characteristic_check(model, pts, state)
    assert rep["max_deviation"] <= 2e-3


def test_negative_zero_clamping():
    vac = make_state(StateSpec("vacuum"))
    w = wigner_gaussian(vac, GRID)
    w.values[0, 0] = -1e-12  # sub-tolerance floating-point noise
    model = build_hvm(w)
    assert model.measure.values[0, 0] == 0.0
    assert abs(model.renormalization - 1) < 1e-6


@pytest.mark.parametrize("name", list(pinned_gaussians()))
def test_one_copy_measure_keeps_every_bit_and_the_input(name):
    # the input is clamped and normalized in place, with the bits of a
    # clamped and normalized copy, and its array is the model's grid
    state, spec = pinned_gaussians()[name]
    w = wigner_gaussian(state, spec)
    w.values.reshape(-1)[::97] *= -1e-12
    want = copying_hvm_measure(WignerGrid(spec, w.values.copy()))
    model = build_hvm(w)
    assert np.array_equal(model.measure.values, want)
    assert np.shares_memory(model.measure.values, w.values)


def test_negativity_error_leaves_the_input_untouched():
    # the checks come before the first write
    w = state_wigner(make_state(StateSpec("fock", {"n": 1}, 1, 20)), GRID)
    w.values.reshape(-1)[::97] *= -1e-12
    before = w.values.copy()
    with pytest.raises(NegativityError):
        build_hvm(w)
    assert np.array_equal(w.values.view(np.int64), before.view(np.int64))


def test_build_holds_one_grid_beyond_its_input():
    # at most that: the input's array is clamped and normalized in place,
    # and the largest magnitude is read from the min and the max
    w = wigner_gaussian(make_state(StateSpec("thermal", {"nbar": 0.5}, 2)),
                        GridSpec(2, 6.0, 31))
    grid_bytes = 8 * 31 ** 4
    assert w.values.nbytes == grid_bytes
    build_hvm(WignerGrid(w.spec, w.values.copy()))  # first-call set-up
    tracemalloc.start()
    try:
        model = build_hvm(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.measure.values.nbytes == grid_bytes
    assert peak < 0.01 * grid_bytes, peak / grid_bytes
