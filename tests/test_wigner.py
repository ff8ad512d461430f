import tracemalloc
from functools import partial

import numpy as np
import pytest

from wignerhvm import fockspace
from wignerhvm.oracle import homodyne_density
from wignerhvm.states import (FockDensityOperator, GaussianState, StateSpec,
                              gaussian_to_fock, make_state)
from wignerhvm.wigner import (CharacteristicGrid, GridSpec,
                              InadequateWindowError, MixedStateError,
                              WignerGrid, characteristic_at_points,
                              covariance_state, hudson_classify,
                              log_negativity, min_value, negativity_volume,
                              sidecar_dict, state_wigner, wigner_fock_direct,
                              wigner_gaussian, wigner_to_csv)

from reference import (characteristic_function, complex_parity_wigner,
                       expression_wigner_gaussian, full_grid_parity_trace,
                       grid_moment, pinned_gaussians, position_marginal,
                       wigner_from_characteristic)

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


@pytest.mark.parametrize("name", list(pinned_gaussians()))
def test_in_place_gaussian_keeps_every_bit(name):
    # each step the in-place route takes is the expression's own IEEE
    # operation, with its operands commuted at most
    state, spec = pinned_gaussians()[name]
    got = wigner_gaussian(state, spec).values
    assert np.array_equal(got, expression_wigner_gaussian(state, spec))


def test_gaussian_wigner_holds_one_grid():
    # the exponent's last term is built in one buffer, which is finished
    # in place and returned; the earlier terms span fewer axes
    state = make_state(StateSpec("thermal", {"nbar": 0.5}, 2))
    spec = GridSpec(2, 6.0, 31)
    grid_bytes = 8 * 31 ** 4
    wigner_gaussian(state, spec)  # first-call set-up is not counted
    tracemalloc.start()
    try:
        w = wigner_gaussian(state, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.values.nbytes == grid_bytes
    assert peak < 1.3 * grid_bytes, peak / grid_bytes


def test_singular_covariance_rejected():
    state = GaussianState(np.zeros(2), 0.5 * np.eye(2))
    state.covariance = np.diag([0.5, 0.0])  # bypass init validation
    with pytest.raises(ValueError):
        wigner_gaussian(state, GRID)


def char_nodes():
    """The CHAR nodes as (v_q, v_p) rows, in the grid's index order."""
    vq, vp = np.meshgrid(CHAR.axis, CHAR.axis, indexing="ij")
    return np.stack([vq.ravel(), vp.ravel()], axis=1)


def test_characteristic_vacuum_closed_form():
    rho = gaussian_to_fock(make_state(StateSpec("vacuum")), 20)
    v = char_nodes()
    chi = characteristic_at_points(rho, v)
    expected = np.exp(-(v ** 2).sum(axis=1) / 4)
    assert np.max(np.abs(chi - expected)) < 1e-12
    origin = np.flatnonzero((v == 0).all(axis=1))
    assert origin.size == 1
    assert abs(chi[origin[0]] - 1) < 1e-8


def test_characteristic_fock1_closed_form():
    v = char_nodes()
    chi = characteristic_at_points(fock(1, 10), v)
    r2 = (v ** 2).sum(axis=1)
    expected = (1 - r2 / 2) * np.exp(-r2 / 4)
    assert np.max(np.abs(chi - expected)) < 1e-12


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_grid_rejected(bad):
    # one non-finite node anywhere, the middle one included
    spec = GridSpec(1, 1.0, 3)
    for index in ((0, 0), (1, 1), (2, 2)):
        values = np.ones((3, 3))
        values[index] = bad
        with pytest.raises(InadequateWindowError, match="non-finite"):
            WignerGrid(spec, values)


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
    M = fockspace.metaplectic_operator(np.linalg.inv(S), 40)
    moved = M.conj().T @ rho.matrix @ M
    rho2 = type(rho)(moved / np.trace(moved).real, 40, 1)
    w2 = state_wigner(rho2, GRID)
    assert abs(negativity_volume(w2) - base) < 2e-3
    # the chi route on the squeezed state needs a wider transform window
    w2 = wigner_from_characteristic(
        characteristic_function(rho2, GridSpec(1, 16.0, 321)), GRID)
    assert abs(negativity_volume(w2) - base) < 2e-3


def test_two_mode_routes_agree():
    # fock(1) x vacuum: the 4D chi route, the parity identity (the
    # reference for two-mode Fock grids, which no command builds), and the
    # analytic product of single-mode kernels must coincide
    cutoff = 12
    f1 = fock(1, cutoff)
    vac_mat = np.zeros((cutoff, cutoff), dtype=complex)
    vac_mat[0, 0] = 1.0
    rho2 = type(f1)(np.kron(f1.matrix, vac_mat), cutoff, 2)
    spec = GridSpec(2, 3.5, 15)
    char = GridSpec(2, 10.0, 41)
    wb = wigner_from_characteristic(characteristic_function(rho2, char), spec)
    wc = complex_parity_wigner(rho2, spec)
    assert np.max(np.abs(wb.values - wc)) < 1e-5
    blocks = spec.coordinate_blocks()
    r1 = blocks[0] ** 2 + blocks[2] ** 2
    r2 = blocks[1] ** 2 + blocks[3] ** 2
    analytic = ((2 * r1 - 1) * np.exp(-r1) / np.pi) * (np.exp(-r2) / np.pi)
    assert np.max(np.abs(wc - analytic)) < 1e-10


# the negative states and output grids of the negativity benchmark
BENCH_STATES = {
    "fock1": (StateSpec("fock", {"n": 1}, 1, 25), GRID),
    "fock5": (StateSpec("fock", {"n": 5}, 1, 30), GRID),
    "cat2": (StateSpec("cat", {"alpha": 2.0}, 1, 30), GRID),
    "pss": (StateSpec("photon_subtracted_squeezed", {"r": 0.5}, 1, 30),
            GridSpec(1, 8.0, 257)),
    "gkp": (StateSpec("gkp", {"delta": 0.3}, 1, 60), GridSpec(1, 10.0, 321)),
}


# the Hermite route moves bits by 3e-16 to 1.6e-14 relative from the parity
# identity's sums, which keep alpha^k; 1e-13 is far below criterion 1's 1e-5
ROUTE_TOLERANCE = 1e-13


def relative_deviation(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("name", sorted(BENCH_STATES))
def test_real_parity_route_matches_complex_route(name):
    spec, grid = BENCH_STATES[name]
    w = wigner_fock_direct(make_state(spec), grid)
    want = complex_parity_wigner(make_state(spec), grid)
    assert relative_deviation(w.values, want) <= ROUTE_TOLERANCE
    assert w.values.base is None  # the grid owns its bytes


def nearly_hermitian_state():
    """A complex rho, Hermitian only to ~1e-11."""
    cutoff = 12
    rng = np.random.default_rng(7)

    def noise():
        return rng.normal(size=(cutoff, cutoff)) + 1j * rng.normal(
            size=(cutoff, cutoff))

    g = noise() / np.arange(1, cutoff + 1) ** 2  # light high levels
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    rho += 1e-11 * noise()
    assert 1e-12 < np.max(np.abs(rho - rho.conj().T)) <= 1e-10
    return FockDensityOperator(rho, cutoff, 1)


def rotated_cat():
    """The cat(2) state turned in phase space: rho_mn e^(0.4 i (m - n))."""
    cat = make_state(StateSpec("cat", {"alpha": 2.0}, 1, 30)).matrix
    n = np.arange(30)
    return FockDensityOperator(cat * np.exp(0.4j * (n[:, None] - n)), 30, 1)


def test_grid_axis_is_mirrored_within_3_ulp_of_linspace():
    # np.linspace rounds most (window, points) pairs to an axis that is not
    # sign-symmetric; GridSpec.axis is, bit for bit, with +0.0 at its centre
    for halfwidth in (0.5, 1.0, 2.5, 3.0, 3.5, 5.0, 6.0, 7.5, 8.0, 10.0,
                      12.0, 20.0, 1e-3, 1e3):
        for points in [*range(3, 1030, 2), 4001, 4097, 6427, 7681]:
            axis = GridSpec(1, halfwidth, points).axis
            half = points // 2
            assert np.array_equal(axis[:half].view(np.int64),
                                  (-axis[:half:-1]).view(np.int64))
            assert axis[half].view(np.int64) == 0
            linspace = np.linspace(-halfwidth, halfwidth, points)
            assert (np.max(np.abs(axis - linspace))
                    <= 3 * np.spacing(halfwidth)), (halfwidth, points)


@pytest.mark.parametrize("halfwidth,points", [(6.0, 257), (8.0, 257),
                                              (10.0, 321)])
def test_grid_axis_keeps_linspace_bits_on_the_bench_grids(halfwidth, points):
    want = np.linspace(-halfwidth, halfwidth, points)
    got = GridSpec(1, halfwidth, points).axis
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("state", [
    make_state(StateSpec("squeezed", {"r": 0.5})), fock(1, 25)])
def test_mirror_symmetric_states_have_mirror_symmetric_grids(state):
    # 6.0/41 is one of the axes np.linspace does not round sign-symmetric
    w = state_wigner(state, GridSpec(1, 6.0, 41)).values
    assert np.array_equal(w, w[::-1])
    assert np.array_equal(w, w[:, ::-1])


def test_real_parity_route_takes_the_hermitian_part():
    # the route sums rho_H and still gives the complex route's real part
    state = nearly_hermitian_state()
    spec = GridSpec(1, 5.0, 101)
    w = wigner_fock_direct(state, spec)
    want = complex_parity_wigner(state, spec)
    assert relative_deviation(w.values, want) <= ROUTE_TOLERANCE


def random_state(cutoff, seed, real=False):
    """A full-rank rho with every m + n up to 2 (cutoff - 1) in use."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(cutoff, cutoff))
    if not real:
        g = g + 1j * rng.normal(size=(cutoff, cutoff))
    rho = g @ g.conj().T
    return FockDensityOperator(rho / np.trace(rho).real, cutoff, 1)


def number_state(n, cutoff):
    matrix = np.zeros((cutoff, cutoff), dtype=complex)
    matrix[n, n] = 1.0
    return FockDensityOperator(matrix, cutoff, 1)


# the Hermite route against the parity identity summed at every node, for
# a real or complex rho_H at cutoffs 2 to 60, with |59> at c = 60, whose
# one antidiagonal is the deepest (N = 118), and on axes that np.linspace
# would not round sign-symmetric (6.0/41, 6.0/401)
ROUTE_CASES = {
    **{name: (partial(make_state, spec), grid)
       for name, (spec, grid) in BENCH_STATES.items()},
    "rotated-cat": (rotated_cat, GRID),
    "coherent": (partial(gaussian_to_fock, make_state(
        StateSpec("coherent", {"alpha": 1.2})), 25), GRID),  # odd offsets
    "nearly-hermitian": (nearly_hermitian_state, GridSpec(1, 7.5, 31)),
    "fock1-41": (partial(fock, 1, 25), GridSpec(1, 6.0, 41)),
    "rotated-cat-401": (rotated_cat, GridSpec(1, 6.0, 401)),
    "cat2-3": (partial(make_state, BENCH_STATES["cat2"][0]),
               GridSpec(1, 6.0, 3)),
    "random-real-2": (partial(random_state, 2, 1, real=True),
                      GridSpec(1, 5.0, 41)),
    "random-2": (partial(random_state, 2, 2), GridSpec(1, 5.0, 41)),
    "random-real-25": (partial(random_state, 25, 3, real=True),
                       GridSpec(1, 8.0, 81)),
    "random-25": (partial(random_state, 25, 4), GridSpec(1, 8.0, 81)),
    "random-60": (partial(random_state, 60, 5), GridSpec(1, 12.0, 121)),
    "fock59-60": (partial(number_state, 59, 60), GridSpec(1, 12.0, 121)),
}


@pytest.mark.parametrize("name", sorted(ROUTE_CASES))
def test_parity_route_keeps_the_full_grid_bits(name):
    build, spec = ROUTE_CASES[name]
    rho = build()
    w = wigner_fock_direct(rho, spec)
    vq, vp = np.meshgrid(spec.axis, spec.axis, indexing="ij")
    alphas = 2.0 * (vq + 1j * vp) / np.sqrt(2)
    want = full_grid_parity_trace(rho.matrix, alphas)
    want *= 1 / np.pi
    assert relative_deviation(w.values, want) <= ROUTE_TOLERANCE
    assert w.values.base is None


def test_beam_splitter_bands_stay_orthonormal():
    # the level recursion is an isometry at every step: the columns of
    # every band stay orthonormal to rounding up to n = 2 (c - 1) = 600
    worst = 0.0
    for n, _, band in fockspace._beam_splitter_bands(301, 600):
        gram = np.einsum("am,ak->mk", band, band)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(gram))))))
    assert worst <= 1e-12, worst


# grids of 15-53 points in blocks of 8, 4, 3 and 2 rows, a short last
# block included, and single rows (a budget of one node)
BLOCK_CASES = [(2 * 8 ** 2, 15), (2 * 8 ** 2, 31), (2 * 8 ** 2, 33),
               (2 * 8 ** 2, 49), (2 * 8 ** 2, 53), (1, 41)]


@pytest.mark.parametrize("nodes,points", BLOCK_CASES)
@pytest.mark.parametrize("build", [partial(fock, 1, 25), rotated_cat],
                         ids=["real", "complex"])
def test_tiled_parity_trace_keeps_the_full_grid_bits(monkeypatch, build,
                                                     nodes, points):
    # each block of rows is formed by products of its own; a node's bits
    # must not depend on the block it falls in
    rho = build()
    spec = GridSpec(1, 6.0, points)
    whole = wigner_fock_direct(rho, spec).values  # one block
    monkeypatch.setattr(fockspace, "BLOCK_NODES", nodes)
    got = wigner_fock_direct(rho, spec).values
    assert np.array_equal(got.view(np.int64), whole.view(np.int64))


def test_one_mode_fock_route_working_set_is_bounded():
    # beside the grid it returns, the route holds C, the Hermite table on
    # the axis and one block of rows: a few MiB at 2,049 points for fock 1
    # (D = 2) and gkp (D = 118)
    gkp = make_state(StateSpec("gkp", {"delta": 0.3}, 1, 60))
    wigner_fock_direct(fock(1, 25), GridSpec(1, 6.0, 41))  # set-up
    beyond = {}
    for name, rho, spec in [("fock1", fock(1, 25), GridSpec(1, 6.0, 2049)),
                            ("gkp", gkp, GridSpec(1, 10.0, 2049))]:
        tracemalloc.start()
        try:
            wigner_fock_direct(rho, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        beyond[name] = peak - 8 * spec.points ** 2
    assert max(beyond.values()) < 24 * 2 ** 20, beyond


def test_hermite_coefficients_stay_within_the_state_build_bound():
    # C and the beam-splitter bands: at most three (2c - 1)^2 float arrays,
    # the bytes of the STATE_BUILD_ARRAYS c x c complex arrays that bound
    # the state's own build
    cutoff = 150
    rho = random_state(cutoff, 6).matrix
    tracemalloc.start()
    try:
        fockspace.hermite_coefficients(rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * (2 * cutoff - 1) ** 2, peak / (2 * cutoff - 1) ** 2


def test_min_value_holds_no_float_grid():
    grid = state_wigner(fock(1, 25), GridSpec(1, 6.0, 1025))
    tracemalloc.start()
    try:
        min_value(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1025 ** 2, peak  # the boolean tie mask only


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


def savetxt_bytes(tmp_path, grid):
    """np.savetxt's "%.18e" bytes for the CSV that wigner_to_csv writes."""
    spec, ref = grid.spec, tmp_path / "ref.csv"
    names = [f"{x}{i + 1}" for x in "qp" for i in range(spec.mode_count)]
    coords = np.meshgrid(*([spec.axis] * 2 * spec.mode_count), indexing="ij")
    columns = [c.reshape(-1) for c in coords] + [grid.values.reshape(-1)]
    np.savetxt(ref, np.column_stack(columns), delimiter=",",
               header=",".join(names + ["W"]), comments="")
    return ref.read_bytes()


def csv_bytes(tmp_path, grid):
    path = tmp_path / "w.csv"
    wigner_to_csv(grid, path)
    return path.read_bytes()


def test_csv_export_matches_savetxt_bytes(tmp_path):
    rng = np.random.default_rng(3)
    for spec in (GridSpec(1, 6.0, 257), GridSpec(2, 4.0, 11)):
        values = rng.normal(scale=0.1, size=spec.shape)
        values.flat[:5] = [-0.0, 5e-324, 1e300, -1e300, -2.5e-17]
        grid = WignerGrid(spec, values)
        assert csv_bytes(tmp_path, grid) == savetxt_bytes(tmp_path, grid)


def test_csv_export_keys_repeated_values_by_bits(tmp_path):
    # 0.0 == -0.0, but they print differently: a dedupe keyed by value
    # would print one of them for the other
    for spec in (GridSpec(1, 2.0, 5), GridSpec(2, 2.0, 3)):
        values = np.zeros(spec.shape)
        values.flat[1::3] = -0.0
        values.flat[2::3] = 0.5
        grid = WignerGrid(spec, values)
        assert csv_bytes(tmp_path, grid) == savetxt_bytes(tmp_path, grid)


def test_csv_export_of_mirror_symmetric_grids(tmp_path):
    cat = state_wigner(make_state(StateSpec("cat", {"alpha": 1.5}, 1, 30)),
                       GridSpec(1, 6.0, 65))
    assert np.array_equal(cat.values, cat.values[::-1, ::-1])
    spec = GridSpec(2, 2.0, 7)
    pool = np.array([0.0, -0.0, 0.25, -1 / 3, 5e-324, 1e300])
    values = np.random.default_rng(5).choice(pool, size=spec.shape)
    values = values + np.flip(values)  # exactly symmetric under z -> -z
    for grid in (cat, WignerGrid(spec, values)):
        distinct = np.unique(grid.values.view(np.int64)).size
        assert distinct <= grid.values.size // 2 + 1
        assert csv_bytes(tmp_path, grid) == savetxt_bytes(tmp_path, grid)


@pytest.mark.parametrize("budget", [1, 50, 300, None])
@pytest.mark.parametrize("spec", [GridSpec(1, 3.0, 21), GridSpec(2, 3.0, 5)])
def test_csv_export_by_blocks_and_of_views(tmp_path, monkeypatch, spec,
                                           budget):
    # budgets below one slab, of a few slabs with a short last block, and
    # the default single block; values repeat across blocks and are read
    # through a transposed (non-contiguous) view
    if budget is not None:
        monkeypatch.setattr(fockspace, "BLOCK_NODES", budget)
    pool = np.array([0.0, -0.0, 0.125, -0.125, 1e-300, 2 / 3])
    values = np.random.default_rng(9).choice(pool, size=spec.shape).T
    assert not values.flags.c_contiguous
    grid = WignerGrid(spec, values)
    assert grid.values.base is not None
    assert csv_bytes(tmp_path, grid) == savetxt_bytes(tmp_path, grid)


def test_csv_export_working_set_is_set_by_the_block_budget(tmp_path,
                                                           monkeypatch):
    # every value distinct, so each block formats all of its nodes: about
    # 50 bytes a node for np.unique's arrays and the texts, on top of the
    # tails and the rows of one slab (about 620 bytes a slab node for two
    # modes) and one formatting chunk; a whole-grid dedupe would hold the
    # first term for all 66,049 or 50,625 nodes
    monkeypatch.setattr(fockspace, "BLOCK_NODES", 2 ** 12)
    rng = np.random.default_rng(11)
    for spec in (GridSpec(1, 6.0, 257), GridSpec(2, 4.0, 15)):
        grid = WignerGrid(spec, rng.normal(size=spec.shape))
        slab = spec.points ** (2 * spec.mode_count - 1)
        block = max(1, 2 ** 12 // slab) * slab
        tracemalloc.start()
        try:
            wigner_to_csv(grid, tmp_path / "w.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * block + 768 * slab + 2 ** 18, (spec, peak)


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
