import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from wignerhvm import hvm
from wignerhvm.cli import CHAR_TOLERANCE, EVENT_TOLERANCE, TV_TOLERANCE
from wignerhvm.hvm import (NegativityError, _build_alias, build_hvm,
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
        s[0], [0.12394498184623283, 0.44290544283455829], atol=1e-12)


def reference_alias(probs):
    """The sequential Vose loop, one Python step per cell."""
    k = probs.size
    scaled = probs * k
    accept = np.zeros(k)
    alias = np.zeros(k, dtype=np.int64)
    small = [i for i in range(k) if scaled[i] < 1.0]
    large = [i for i in range(k) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        accept[s] = scaled[s]
        alias[s] = l
        scaled[l] -= 1.0 - scaled[s]
        (small if scaled[l] < 1.0 else large).append(l)
    for i in large:
        accept[i] = 1.0
    for i in small:
        accept[i] = 1.0
    return accept, alias


def _masses(k, cells, values, floor=0.0):
    p = np.full(k, floor)
    p[list(cells)] = values
    return p


def _dirichlet(alpha, k, seed):
    return np.random.default_rng(seed).dirichlet(np.full(k, alpha))


def _grid_probs(kind, params, grid):
    state = make_state(StateSpec(kind, params, grid.mode_count))
    return build_hvm(state_wigner(state, grid)).cell_probabilities()


ALIAS_CASES = {
    "squeezed_257": lambda: _grid_probs("squeezed", {"r": 0.5}, GRID),
    "thermal_21^4": lambda: _grid_probs("thermal", {"nbar": 0.5},
                                        GridSpec(2, 6.0, 21)),
    **{f"dirichlet_{alpha}_{seed}": (
        lambda alpha=alpha, seed=seed: _dirichlet(alpha, 2000, seed))
       for alpha in (0.3, 1.0, 5.0) for seed in (0, 1)},
    "one_hot": lambda: _masses(97, [40], [1.0]),
    **{f"uniform_1/{k}": (lambda k=k: np.full(k, 1 / k))
       for k in (3, 7, 10, 49, 100)},
    # dyadic masses: one partial residual lands exactly on 1.0
    "three_cells": lambda: _masses(8, [1, 4, 6], [0.5, 0.25, 0.25]),
    "three_cells_uneven": lambda: _masses(50, [2, 30, 31], [0.6, 0.3, 0.1]),
    "subnormal_tail": lambda: _masses(300, [5, 150], [0.7, 0.3], 5e-324),
    "subnormal_tail_dirichlet": lambda: np.concatenate(
        [_dirichlet(1.0, 200, 2), np.full(100, 5e-324)]),
    "single_cell": lambda: np.array([1.0]),
}


@pytest.mark.parametrize("case", sorted(ALIAS_CASES))
def test_alias_table_matches_sequential_vose_loop(case):
    probs = ALIAS_CASES[case]()
    accept, alias = _build_alias(probs.copy())
    ref_accept, ref_alias = reference_alias(probs.copy())
    assert np.array_equal(accept, ref_accept)
    assert np.array_equal(alias, ref_alias)


def test_alias_table_built_once_under_threads(monkeypatch):
    builds = []

    def counting_build(probs):
        builds.append(probs.size)
        return _build_alias(probs)

    monkeypatch.setattr(hvm, "_build_alias", counting_build)
    _, model = model_for("squeezed", {"r": 0.5})
    sample(model, 100000, seed=3, threads=4)
    assert builds == [GRID.points ** 2]


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
    # two-mode metaplectic rotation; no sampling, which would need the
    # 41^4 alias table
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
