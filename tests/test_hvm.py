import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from wignerhvm import hvm
from wignerhvm.cli import CHAR_TOLERANCE, EVENT_TOLERANCE, TV_TOLERANCE
from wignerhvm.hvm import (NegativityError, build_hvm,
                           empirical_characteristic_check,
                           hvm_event_probability, hvm_homodyne_distribution,
                           sample, value_assignment)
from wignerhvm.oracle import (BinSpec, event_probability,
                              quantum_homodyne_distribution, tv_distance)
from wignerhvm.phase_space import Context
from wignerhvm.states import FockDensityOperator, StateSpec, make_state
from wignerhvm.weyl import PolynomialObservable, monomial
from wignerhvm.wigner import (GridSpec, WignerGrid, characteristic_at_points,
                              state_wigner, wigner_gaussian)

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
    probs = model.cell_probabilities()
    tv = 0.5 * np.abs(counts / n - probs).sum()
    # E[TV] <= sum_i sqrt(p_i / n) / 2, and one draw moves TV by at most
    # 1/n, so McDiarmid puts TV above this bound with probability < 1e-6
    bound = 0.5 * np.sqrt(probs / n).sum() + np.sqrt(np.log(1e6) / (2 * n))
    assert tv <= bound, (tv, bound)


def test_cumulative_table_built_once_under_threads(monkeypatch):
    _, model = model_for("squeezed", {"r": 0.5})
    calls = []
    original = hvm.HiddenVariableModel.cell_probabilities

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(hvm.HiddenVariableModel, "cell_probabilities",
                        counting)
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
        for k, zeta in enumerate(([1, 0], [0, 1], [0.6, 0.8])):
            hist = hvm_homodyne_distribution(model, zeta, BINS, 100000,
                                             seed=40 + k)
            reference = quantum_homodyne_distribution(state, zeta, BINS)
            assert tv_distance(hist, reference) <= TV_TOLERANCE, (eta, zeta)
            for interval in ([(0, np.inf)], [(-1.0, 1.0)]):
                hv = hvm_event_probability(model, zeta, interval)
                qv = event_probability(state, zeta, interval)
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
    return FockDensityOperator(matrix, cutoff, 2)


def test_two_mode_forward_direction_against_fock_oracle():
    # not Gaussian, and mode-mixing labels take the oracle through a
    # two-mode metaplectic rotation; exact events and characteristic
    # checks only, no sampling
    state = lossy_pair(0.4, 4)
    model = build_hvm(state_wigner(state, GridSpec(2, 6.0, 41)))
    for zeta in (np.array([1, 1, 0, 0]) / np.sqrt(2), [1, 0, 0, 0],
                 [0.6, 0, 0, 0.8]):
        for interval in ([(0, np.inf)], [(-1.0, 1.0)]):
            hv = hvm_event_probability(model, zeta, interval)
            qv = event_probability(state, zeta, interval)
            assert abs(hv - qv) <= EVENT_TOLERANCE, (zeta, interval)
            # a passive rotation is exact below the cutoff: no cutoff
            # dependence, even for a label that mixes q_1 with p_2
            wider = event_probability(lossy_pair(0.4, 8), zeta, interval)
            assert abs(qv - wider) <= 1e-12, (zeta, interval)
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


def reference_characteristic_deviations(model, pts, state):
    """|sum_cells p exp(i k . c) - chi| over explicit cell-center arrays."""
    spec = model.measure.spec
    m = spec.mode_count
    probs = model.cell_probabilities()
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


def test_value_assignment_examples():
    ctx = Context([[1.0, 0.0]])
    q = monomial(ctx, (1,))
    assert value_assignment([1.0, 2.0], q) == 1.0
    e = np.eye(4)
    xy = monomial(Context([e[0], e[1]]), (1, 1))
    assert value_assignment([1.0, 3.0, 2.0, 4.0], xy) == 3.0


def test_value_assignment_additivity_exact():
    rng = np.random.default_rng(9)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        phi = rng.uniform(-5, 5, 2 * m)
        z1 = rng.uniform(-3, 3, 2 * m)
        z2 = rng.uniform(-3, 3, 2 * m)
        lhs = (z1 + z2) @ phi
        rhs = z1 @ phi + z2 @ phi
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_value_assignment_noncontextuality():
    # f of the generator values equals the assignment of f(context)
    rng = np.random.default_rng(10)
    e = np.eye(4)
    ctx = Context([e[0], e[3]])
    for _ in range(50):
        coeffs = rng.uniform(-2, 2, 3)
        obs = PolynomialObservable(ctx, [(coeffs[0], (1, 0)),
                                         (coeffs[1], (0, 2)),
                                         (coeffs[2], (1, 1))])
        phi = rng.uniform(-4, 4, 4)
        direct = value_assignment(phi, obs)
        via_parts = obs(float(e[0] @ phi), float(e[3] @ phi))
        assert direct == pytest.approx(via_parts, rel=1e-12, abs=1e-12)


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
