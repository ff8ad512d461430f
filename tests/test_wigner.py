import numpy as np
import pytest

from wignerhvm import fockspace
from wignerhvm.oracle import homodyne_density
from wignerhvm.states import (FockDensityOperator, GaussianState, StateSpec,
                              gaussian_to_fock, make_state)
from wignerhvm.weyl import conjugate_by_metaplectic
from wignerhvm.wigner import (CharacteristicGrid, GridSpec,
                              InadequateWindowError, MixedStateError,
                              WignerGrid, characteristic_at_points,
                              characteristic_function, covariance_state,
                              hudson_classify, log_negativity, min_value,
                              negativity_volume, sidecar_dict, state_wigner,
                              wigner_fock_direct, wigner_from_characteristic,
                              wigner_gaussian, wigner_to_csv)

from reference import grid_moment, position_marginal

GRID = GridSpec(1, 6.0, 257)
CHAR = GridSpec(1, 16.0, 257)

# brute-force grid value frozen from the closed-form cat Wigner on a
# 2049^2 grid over [-6, 6]^2 (see the even-cat expression below)
CAT2_NEGATIVITY = 0.5874845118


def fock(n, cutoff=30):
    return make_state(StateSpec("fock", {"n": n}, 1, cutoff))


def test_vacuum_peak_value():
    w = wigner_gaussian(make_state(StateSpec("vacuum")), GRID)
    c = GRID.points // 2
    assert abs(w.values[c, c] - 1 / np.pi) < 1e-12
    assert abs(w.normalization - 1) < 1e-6
    assert np.all(w.values > 0)


def test_coherent_is_translated_vacuum():
    coh = make_state(StateSpec("coherent", {"alpha": 1.0}))
    w = wigner_gaussian(coh, GRID)
    q = GRID.axis[:, None]
    p = GRID.axis[None, :]
    expected = np.exp(-(q - np.sqrt(2)) ** 2 - p ** 2) / np.pi
    assert np.max(np.abs(w.values - expected)) < 1e-12
    peak = np.unravel_index(np.argmax(w.values), w.values.shape)
    assert abs(GRID.axis[peak[0]] - np.sqrt(2)) <= GRID.step
    assert abs(GRID.axis[peak[1]]) <= GRID.step


def test_squeezed_peak_unchanged():
    w = wigner_gaussian(make_state(StateSpec("squeezed", {"r": 0.5})), GRID)
    c = GRID.points // 2
    assert abs(w.values[c, c] - 1 / np.pi) < 1e-12


def double_loop_wigner(state: GaussianState, spec: GridSpec) -> np.ndarray:
    """The Gaussian closed form, its quadratic form in (2m)^2 grid passes."""
    prec = np.linalg.inv(state.covariance)
    coords = spec.coordinate_blocks()
    quad = 0.0
    for i in range(len(coords)):
        di = coords[i] - state.mean[i]
        for j in range(len(coords)):
            dj = coords[j] - state.mean[j]
            quad = quad + prec[i, j] * di * dj
    return (np.exp(-0.5 * quad) * (2 * np.pi) ** (-spec.mode_count)
            / np.sqrt(np.linalg.det(state.covariance)))


def test_gaussian_quadratic_form_matches_double_loop():
    rng = np.random.default_rng(8)
    base = rng.uniform(-0.4, 0.4, size=(4, 4))
    state = GaussianState(rng.uniform(-1, 1, size=4),
                          0.5 * np.eye(4) + base @ base.T)
    spec = GridSpec(2, 7.0, 25)
    want = double_loop_wigner(state, spec)
    got = wigner_gaussian(state, spec).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)


def test_singular_covariance_rejected():
    state = GaussianState(np.zeros(2), 0.5 * np.eye(2))
    state.covariance = np.diag([0.5, 0.0])  # bypass init validation
    with pytest.raises(ValueError):
        wigner_gaussian(state, GRID)


def test_characteristic_vacuum_closed_form():
    rho = gaussian_to_fock(make_state(StateSpec("vacuum")), 20)
    chi = characteristic_function(rho, CHAR)
    vq = CHAR.axis[:, None]
    vp = CHAR.axis[None, :]
    expected = np.exp(-(vq ** 2 + vp ** 2) / 4)
    assert np.max(np.abs(chi.values - expected)) < 1e-12
    assert abs(chi.origin_value() - 1) < 1e-8


def test_characteristic_fock1_closed_form():
    chi = characteristic_function(fock(1, 10), CHAR)
    vq = CHAR.axis[:, None]
    vp = CHAR.axis[None, :]
    r2 = vq ** 2 + vp ** 2
    expected = (1 - r2 / 2) * np.exp(-r2 / 4)
    assert np.max(np.abs(chi.values - expected)) < 1e-12


def test_characteristic_at_points_routes_agree():
    coh = make_state(StateSpec("coherent", {"alpha": [0.7, -0.3]}))
    rho = gaussian_to_fock(coh, 35)
    pts = np.array([[0.0, 0.0], [1.0, 0.5], [-0.4, 2.0], [2.5, -1.5]])
    gauss = characteristic_at_points(coh, pts)
    fockv = characteristic_at_points(rho, pts)
    assert np.max(np.abs(gauss - fockv)) < 1e-8
    assert abs(gauss[0] - 1) < 1e-12
    # two modes: per-mode trace tables at each point's own amplitudes
    coh2 = make_state(StateSpec("coherent", {"alpha": [0.6, -0.4]}, 2))
    pts2 = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, -0.5, 0.3, 2.0],
                     [-1.5, 0.7, 1.2, -0.4], [0.2, 2.2, -1.8, 0.9]])
    gauss2 = characteristic_at_points(coh2, pts2)
    fock2 = characteristic_at_points(gaussian_to_fock(coh2, 12), pts2)
    assert np.max(np.abs(gauss2 - fock2)) < 1e-8


def test_fourier_route_matches_gaussian_closed_form():
    vac = make_state(StateSpec("vacuum"))
    rho = gaussian_to_fock(vac, 25)
    w = wigner_from_characteristic(characteristic_function(rho, CHAR), GRID)
    wa = wigner_gaussian(vac, GRID)
    assert np.max(np.abs(w.values - wa.values)) < 1e-6


def test_fock1_wigner_value_at_origin():
    w = wigner_from_characteristic(characteristic_function(fock(1), CHAR), GRID)
    c = GRID.points // 2
    assert abs(w.values[c, c] + 1 / np.pi) < 1e-4
    mn, loc = min_value(w)
    assert abs(mn + 1 / np.pi) < 1e-4
    assert loc == (0.0, 0.0)


def test_flat_characteristic_rejected():
    flat = CharacteristicGrid(CHAR, [np.ones((1,) + CHAR.shape, dtype=complex)])
    with pytest.raises(InadequateWindowError):
        wigner_from_characteristic(flat, GRID)


def test_direct_kernels_match_closed_forms():
    w0 = wigner_fock_direct(fock(0, 10), GRID)
    q = GRID.axis[:, None]
    p = GRID.axis[None, :]
    r2 = q ** 2 + p ** 2
    assert np.max(np.abs(w0.values - np.exp(-r2) / np.pi)) < 1e-12
    w1 = wigner_fock_direct(fock(1, 10), GRID)
    expected = (2 * r2 - 1) * np.exp(-r2) / np.pi
    assert np.max(np.abs(w1.values - expected)) < 1e-12


def test_wigner_transform_linear_in_state():
    rho0 = fock(0, 10)
    rho1 = fock(1, 10)
    mixed = type(rho0)((rho0.matrix + rho1.matrix) / 2, 10, 1)
    w = wigner_fock_direct(mixed, GRID)
    w0 = wigner_fock_direct(rho0, GRID)
    w1 = wigner_fock_direct(rho1, GRID)
    assert np.max(np.abs(w.values - (w0.values + w1.values) / 2)) < 1e-12


def test_route_agreement_three_ways():
    for kind, params in (("vacuum", {}), ("coherent", {"alpha": 1.0}),
                         ("squeezed", {"r": 0.5})):
        state = make_state(StateSpec(kind, params))
        rho = gaussian_to_fock(state, 30)
        wa = wigner_gaussian(state, GRID)
        wb = wigner_from_characteristic(
            characteristic_function(rho, CHAR), GRID)
        wc = wigner_fock_direct(rho, GRID)
        assert np.max(np.abs(wa.values - wb.values)) < 1e-5
        assert np.max(np.abs(wa.values - wc.values)) < 1e-5
        assert np.max(np.abs(wb.values - wc.values)) < 1e-5


def test_negativity_values():
    vac = wigner_gaussian(make_state(StateSpec("vacuum")), GRID)
    assert negativity_volume(vac) < 1e-9
    w1 = state_wigner(fock(1), GRID)
    analytic = 2 * (2 * np.exp(-0.5) - 1)
    assert abs(negativity_volume(w1) - analytic) < 2e-3
    assert abs(log_negativity(w1) - np.log(1 + analytic)) < 2e-3


def test_cat_negativity_matches_brute_force_value():
    cat = make_state(StateSpec("cat", {"alpha": 2.0}, 1, 30))
    w = state_wigner(cat, GRID)
    assert negativity_volume(w) > 0.1
    assert abs(negativity_volume(w) - CAT2_NEGATIVITY) < 2e-3
    # and the grid itself matches the even-cat closed form
    q = GRID.axis[:, None]
    p = GRID.axis[None, :]
    a = 2.0
    vac = lambda qq, pp: np.exp(-qq ** 2 - pp ** 2) / np.pi
    closed = (vac(q - np.sqrt(2) * a, p) + vac(q + np.sqrt(2) * a, p)
              + 2 * np.exp(-q ** 2 - p ** 2) * np.cos(2 * np.sqrt(2) * a * p)
              / np.pi) / (2 * (1 + np.exp(-2 * a ** 2)))
    assert np.max(np.abs(w.values - closed)) < 1e-6


def test_min_value_examples():
    vac = wigner_gaussian(make_state(StateSpec("vacuum")), GRID)
    assert min_value(vac)[0] > 0
    sq = wigner_gaussian(make_state(StateSpec("squeezed", {"r": 0.5})), GRID)
    assert min_value(sq)[0] > 0


def test_min_value_location_is_first_near_tie_in_index_order():
    spec = GridSpec(1, 1.0, 3)
    values = np.ones((3, 3))
    values[0, 2] = -1.0
    values[2, 0] = -1.0 - 1e-14  # later and lower, but within 1e-12 max|W|
    assert min_value(WignerGrid(spec, values)) == (-1.0 - 1e-14, (-1.0, 1.0))
    values[2, 0] = values[1, 1] = -1.0  # exact ties
    assert min_value(WignerGrid(spec, values)) == (-1.0, (-1.0, 1.0))


def test_two_mode_grid_runs_one_recurrence_per_mode(monkeypatch):
    rho = gaussian_to_fock(
        make_state(StateSpec("coherent", {"alpha": [0.6, -0.4]}, 2)), 8)
    assert len(fockspace.kronecker_factors(rho.matrix, 2)[0]) == 64
    calls = []
    real = fockspace._laguerre_diagonals

    def counted(x, depths):
        calls.append(list(depths))
        return real(x, depths)

    monkeypatch.setattr(fockspace, "_laguerre_diagonals", counted)
    characteristic_function(rho, GridSpec(2, 6.0, 11))
    # both stacks are dense, so every offset runs to full depth
    assert calls == [list(range(8, 0, -1))] * 2


def test_statistical_moments_match_oracle():
    # Int W q and Int W q^2 against <q> and <q^2>
    coh = make_state(StateSpec("coherent", {"alpha": 1.0}))
    w = wigner_gaussian(coh, GRID)
    assert abs(grid_moment(w, 0, 1) - np.sqrt(2)) < 1e-3
    assert abs(grid_moment(w, 0, 2) - (2 + 0.5)) < 1e-3
    w1 = state_wigner(fock(1), GRID)
    assert abs(grid_moment(w1, 0, 1)) < 1e-3
    assert abs(grid_moment(w1, 0, 2) - 1.5) < 1e-3


def test_marginal_matches_homodyne_density():
    for state in (fock(1), make_state(StateSpec("squeezed", {"r": 0.5}))):
        w = state_wigner(state, GRID)
        axis, density = position_marginal(w, 0)
        reference = homodyne_density(state, [1, 0], axis)
        tv = 0.5 * np.sum(np.abs(density - reference)) * GRID.step
        assert tv < 1e-3


def test_negativity_invariant_under_gaussian_unitary():
    rho = fock(1, 40)
    base = negativity_volume(state_wigner(rho, GRID))
    th = 0.9
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    S = rot @ np.diag([np.exp(-0.3), np.exp(0.3)])
    moved = conjugate_by_metaplectic(rho.matrix, np.linalg.inv(S), 40)
    rho2 = type(rho)(moved / np.trace(moved).real, 40, 1)
    w2 = state_wigner(rho2, GRID)
    assert abs(negativity_volume(w2) - base) < 2e-3
    # the chi route on the squeezed state needs a wider transform window
    w2 = wigner_from_characteristic(
        characteristic_function(rho2, GridSpec(1, 16.0, 321)), GRID)
    assert abs(negativity_volume(w2) - base) < 2e-3


def test_two_mode_routes_agree():
    # fock(1) x vacuum: the 4D chi route, the direct kernels, and the
    # analytic product of single-mode kernels must coincide
    cutoff = 12
    f1 = fock(1, cutoff)
    vac_mat = np.zeros((cutoff, cutoff), dtype=complex)
    vac_mat[0, 0] = 1.0
    rho2 = type(f1)(np.kron(f1.matrix, vac_mat), cutoff, 2)
    spec = GridSpec(2, 3.5, 15)
    char = GridSpec(2, 10.0, 41)
    wb = wigner_from_characteristic(characteristic_function(rho2, char), spec)
    wc = wigner_fock_direct(rho2, spec)
    assert np.max(np.abs(wb.values - wc.values)) < 1e-5
    blocks = spec.coordinate_blocks()
    r1 = blocks[0] ** 2 + blocks[2] ** 2
    r2 = blocks[1] ** 2 + blocks[3] ** 2
    analytic = ((2 * r1 - 1) * np.exp(-r1) / np.pi) * (np.exp(-r2) / np.pi)
    assert np.max(np.abs(wc.values - analytic)) < 1e-10


def test_photon_subtracted_matches_scaled_kernel():
    r = 0.5
    pss = make_state(StateSpec("photon_subtracted_squeezed", {"r": r}, 1, 30))
    spec = GridSpec(1, 8.0, 257)
    q = spec.axis[:, None]
    p = spec.axis[None, :]
    qs, ps = np.exp(r) * q, np.exp(-r) * p
    closed = (2 * (qs ** 2 + ps ** 2) - 1) * np.exp(-(qs ** 2 + ps ** 2)) / np.pi
    chi = characteristic_function(pss, GridSpec(1, 20.0, 321))
    for w in (state_wigner(pss, spec), wigner_from_characteristic(chi, spec)):
        assert np.max(np.abs(w.values - closed)) < 1e-5


def test_hudson_classification():
    sq = make_state(StateSpec("squeezed", {"r": 0.5}))
    assert hudson_classify(sq, GRID).classification == "gaussian_nonnegative"
    rep = hudson_classify(fock(1), GRID)
    assert rep.classification == "negative"
    assert abs(rep.covariance_purity - 1 / 3) <= 1e-12
    cat = make_state(StateSpec("cat", {"alpha": 2.0}, 1, 30))
    assert hudson_classify(cat, GRID).classification == "negative"
    with pytest.raises(MixedStateError):
        hudson_classify(make_state(StateSpec("thermal", {"nbar": 1.0})), GRID)


def test_covariance_purity_of_number_states():
    # sigma = (n + 1/2) I, so 1/sqrt(det 2 sigma) = 1/(2n + 1)
    for n in (0, 1, 5):
        assert abs(covariance_state(fock(n)).purity() - 1 / (2 * n + 1)) \
            <= 1e-12, n


def test_covariance_keeps_the_top_level_whole():
    # <c-1|q^2|c-1> = (2c - 1)/2 needs the level c that the truncated
    # ladder operators lack; without it the purity would be 1/(c - 1)
    c = 12
    matrix = np.zeros((c, c))
    matrix[c - 1, c - 1] = 1.0
    top = covariance_state(FockDensityOperator(matrix, c, 1))
    assert abs(top.purity() - 1 / (2 * c - 1)) <= 1e-12
    assert np.max(np.abs(top.covariance - (c - 0.5) * np.eye(2))) <= 1e-12


def test_two_mode_covariance_matches_the_gaussian_state():
    # two-mode squeezing correlates q1 with q2 and p1 with -p2
    ch, sh = np.cosh(0.3), np.sinh(0.3)
    S = np.array([[ch, sh, 0, 0], [sh, ch, 0, 0],
                  [0, 0, ch, -sh], [0, 0, -sh, ch]])
    state = GaussianState([0.3, -0.2, 0.1, 0.4], S @ S.T / 2)
    rho = gaussian_to_fock(state, 30)
    assert rho.leakage <= 1e-12
    moments = covariance_state(rho)
    assert np.max(np.abs(moments.covariance - state.covariance)) <= 1e-9
    assert np.max(np.abs(moments.mean - state.mean)) <= 1e-9
    assert abs(state.covariance[0, 1]) > 0.1
    assert covariance_state(state) is state


def test_csv_export_and_sidecar(tmp_path):
    w = wigner_gaussian(make_state(StateSpec("vacuum")), GridSpec(1, 2.0, 5))
    path = tmp_path / "w.csv"
    wigner_to_csv(w, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "q1,p1,W"
    assert len(lines) == 1 + 25
    row = [float(x) for x in lines[1].split(",")]
    assert row[:2] == [-2.0, -2.0]
    assert abs(row[2] - np.exp(-8) / np.pi) < 1e-12
    side = sidecar_dict(w)
    assert set(side) == {"axes", "cell_volume", "normalization", "min",
                         "negativity_volume", "log_negativity"}


def test_csv_export_matches_savetxt_bytes(tmp_path):
    rng = np.random.default_rng(3)
    for spec, header in ((GridSpec(1, 6.0, 257), "q1,p1,W"),
                         (GridSpec(2, 4.0, 11), "q1,q2,p1,p2,W")):
        values = rng.normal(scale=0.1, size=spec.shape)
        values.flat[:5] = [-0.0, 5e-324, 1e300, -1e300, -2.5e-17]
        grid = WignerGrid(spec, values)
        path = tmp_path / f"{spec.mode_count}.csv"
        wigner_to_csv(grid, path)
        coords = np.meshgrid(*([spec.axis] * 2 * spec.mode_count),
                             indexing="ij")
        columns = [c.reshape(-1) for c in coords] + [values.reshape(-1)]
        ref = tmp_path / f"{spec.mode_count}_ref.csv"
        np.savetxt(ref, np.column_stack(columns), delimiter=",",
                   header=header, comments="")
        assert path.read_bytes() == ref.read_bytes()


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 6.0, 256)  # even
    with pytest.raises(ValueError):
        GridSpec(1, -1.0, 257)
    for halfwidth in (float("nan"), float("inf"), 1e308):  # 1e308: step = inf
        with pytest.raises(ValueError):
            GridSpec(1, halfwidth, 41)
    with pytest.raises(ValueError):
        WignerGrid(GRID, np.ones((3, 3)))
    # memory guard: the 61^4 observable chi grid fits, 257^4 does not
    assert GridSpec(2, 10.0, 61).shape == (61,) * 4
    with pytest.raises(InadequateWindowError):
        GridSpec(2, 6.0, 257)
