import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from wignerhvm import fockspace
from wignerhvm.oracle import (CSV_BLOCK, BinSpec, OutcomeDistribution,
                              distribution_to_csv, event_probability,
                              homodyne_density, quantum_homodyne_distribution,
                              tv_distance)
from wignerhvm.states import (FockDensityOperator, GaussianState,
                              InadequateWindowError, StateSpec,
                              gaussian_to_fock, make_state)
from wignerhvm.wigner import GridSpec, covariance_state, state_wigner

from reference import (frexp_hermite_functions, grid_moment,
                       whole_table_hermite_functions)

BINS = BinSpec(-6.0, 6.0, 50)


def fock(n, cutoff=30):
    return make_state(StateSpec("fock", {"n": n}, 1, cutoff))


def gauss_bins(mean, var):
    edges = BINS.edges
    cdf = norm.cdf(edges, loc=mean, scale=np.sqrt(var))
    return OutcomeDistribution(edges, np.diff(cdf))


def test_vacuum_marginal_is_normal():
    vac = make_state(StateSpec("vacuum"))
    dist = quantum_homodyne_distribution(vac, [1, 0], BINS)
    assert tv_distance(dist, gauss_bins(0.0, 0.5)) < 1e-12


def test_fock1_marginal_closed_form():
    axis = np.linspace(-6, 6, 801)
    density = homodyne_density(fock(1), [1, 0], axis)
    expected = 2 * axis ** 2 * np.exp(-axis ** 2) / np.sqrt(np.pi)
    assert np.max(np.abs(density - expected)) < 1e-10


def test_thermal_marginal_variance():
    th = make_state(StateSpec("thermal", {"nbar": 1.0}))
    dist = quantum_homodyne_distribution(th, [1, 0], BINS)
    assert tv_distance(dist, gauss_bins(0.0, 1.5)) < 1e-12


def test_gaussian_and_fock_routes_agree():
    # oracle self-consistency across representations, incl. rotated labels
    for kind, params in (("vacuum", {}), ("coherent", {"alpha": 1.0}),
                         ("squeezed", {"r": 0.5}), ("thermal", {"nbar": 1.0})):
        state = make_state(StateSpec(kind, params))
        rho = gaussian_to_fock(state, 30)
        for zeta in ([1, 0], [0, 1], np.array([1, 1]) / np.sqrt(2),
                     [2, 0], [0.6, 1.6]):
            dg = quantum_homodyne_distribution(state, zeta, BINS)
            df = quantum_homodyne_distribution(rho, zeta, BINS)
            assert tv_distance(dg, df) < 5e-3


def test_scaled_label_rescales_distribution():
    vac = make_state(StateSpec("vacuum"))
    dist = quantum_homodyne_distribution(vac, [2, 0], BINS)
    assert tv_distance(dist, gauss_bins(0.0, 2.0)) < 1e-12
    rho = gaussian_to_fock(vac, 30)
    distf = quantum_homodyne_distribution(rho, [2, 0], BINS)
    assert tv_distance(distf, gauss_bins(0.0, 2.0)) < 5e-3


def test_rotated_labels_match_metaplectic_conjugation():
    # zeta = s (cos a, sin a) measured on rho is |zeta| q measured on
    # M rho M^dag, with M = M(S) for the rotation S^T that carries e_q to
    # zeta/|zeta|.  Complex rho pin the phase's sign: a flipped sign
    # moves cat and random-rho values by up to 0.69 and 0.023
    root = np.random.default_rng(44).normal(size=(30, 60)).view(complex)
    rho = root @ root.conj().T
    states = [FockDensityOperator(rho / np.trace(rho), 30, 1),
              make_state(StateSpec("cat", {"alpha": [1.5, 0.8]}, 1, 30)),
              make_state(StateSpec("gkp", {"delta": 0.3}, 1, 60)),
              make_state(StateSpec("photon_subtracted_squeezed", {"r": 0.5},
                                   1, 30))]
    intervals = ([(0, np.inf)], [(-1.0, 1.0)], [(-2.0, -0.5), (0.5, 2.0)])
    worst = 0.0
    for state in states:
        for a in np.pi * np.arange(-6, 7) / 6:
            c, s = np.cos(a), np.sin(a)
            M = fockspace.metaplectic_operator([[c, s], [-s, c]],
                                               state.cutoff)
            turned = FockDensityOperator(M @ state.matrix @ M.conj().T,
                                         state.cutoff, 1)
            for scale in (0.5, 1.0, 2.0):
                zeta = scale * np.array([c, s])
                got = quantum_homodyne_distribution(state, zeta, BINS).masses
                want = quantum_homodyne_distribution(turned, [scale, 0],
                                                     BINS).masses
                worst = max(worst, np.max(np.abs(got - want)))
                for interval in intervals:
                    worst = max(worst, abs(
                        event_probability(state, zeta, interval)
                        - event_probability(turned, [scale, 0], interval)))
    assert worst <= 1e-13, worst


def test_unresolvable_gaussian_variance_is_a_window_error():
    # zeta . sigma . zeta overflows or underflows to zero, or zeta . mean
    # overflows, though the label's own squared norm is a normal float:
    # no NaN, no warning
    cases = [([0.0, 0.0], np.diag([1e300, 1.0]), [1e10, 0.0]),
             ([0.0, 0.0], np.diag([1e-200, 1e200]), [1e-130, 0.0]),
             ([1e200, 0.0], 0.5 * np.eye(2), [1e150, 0.0])]
    for mean, cov, zeta in cases:
        state = GaussianState(mean, cov)
        for query in (
                lambda: quantum_homodyne_distribution(state, zeta, BINS),
                lambda: event_probability(state, zeta, [(0.0, np.inf)]),
                lambda: homodyne_density(state, zeta, BINS.edges)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InadequateWindowError):
                    query()


def q_moment(state, power: int) -> float:
    """Tr[rho q] or Tr[rho q^2] from the state's first two moments."""
    gaussian = covariance_state(state)
    mean = gaussian.mean[0]
    return mean if power == 1 else gaussian.covariance[0, 0] + mean ** 2


def test_expectation_examples():
    vac = make_state(StateSpec("vacuum"))
    assert abs(q_moment(vac, 2) - 0.5) < 1e-10
    assert abs(q_moment(fock(1), 2) - 1.5) < 1e-10
    coh = make_state(StateSpec("coherent", {"alpha": np.sqrt(2)}))
    assert abs(q_moment(coh, 1) - 2.0) < 1e-8


def test_event_probability_examples():
    vac = make_state(StateSpec("vacuum"))
    assert abs(event_probability(vac, [1, 0], [(0, np.inf)]) - 0.5) < 1e-6
    coh = make_state(StateSpec("coherent", {"alpha": np.sqrt(2)}))
    expected = norm.cdf(2 / np.sqrt(0.5))
    assert abs(event_probability(coh, [1, 0], [(0, np.inf)]) - expected) < 1e-9
    ref, _ = quad(lambda q: 2 * q * q * np.exp(-q * q) / np.sqrt(np.pi),
                  -0.8, 0.8)
    got = event_probability(fock(1), [1, 0], [(-0.8, 0.8)])
    assert abs(got - ref) < 1e-8
    assert abs(event_probability(fock(1), [1, 0], [(0, np.inf)]) - 0.5) < 1e-14
    assert abs(event_probability(fock(1), [1, 0], [(-np.inf, np.inf)])
               - 1.0) < 1e-14


def test_fock_event_probability_reaches_past_the_underflow_point():
    # |900> at cutoff 902 has about 10.9% of its q-mass beyond |q| = 40,
    # where e^(-q^2/2) underflows: the CDF's rows are carried scaled there
    # (the arcsine law of the classical oscillator gives 10.84%)
    state = make_state(StateSpec("fock", {"n": 900}, 1, 902))
    upper = event_probability(state, (1.0, 0.0), [(40.0, np.inf)])
    lower = event_probability(state, (1.0, 0.0), [(-np.inf, -40.0)])
    nodes, weights = np.polynomial.legendre.leggauss(200)
    psi = frexp_hermite_functions(900, 44.0 + 4.0 * nodes)[900]
    assert abs(upper - 4.0 * np.dot(weights, psi ** 2)) < 1e-12
    assert abs(lower - upper) < 1e-12
    assert abs(upper - np.arccos(40 / np.sqrt(1801)) / np.pi) < 1e-3


@st.composite
def fock_states(draw):
    cutoff = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.normal(size=(cutoff, cutoff)) + 1j * rng.normal(size=(cutoff, cutoff))
    rho = A @ A.conj().T
    return FockDensityOperator(rho / np.trace(rho).real, cutoff, 1)


@settings(max_examples=40, deadline=None)
@given(state=fock_states(),
       zeta=st.tuples(st.floats(-3, 3), st.floats(-3, 3)).filter(
           lambda z: np.hypot(*z) > 1e-3),
       lo=st.floats(-8, 8), width=st.floats(0.01, 16),
       count=st.integers(1, 60))
def test_bins_and_events_share_one_cdf(state, zeta, lo, width, count):
    bins = BinSpec(lo, lo + width, count)
    dist = quantum_homodyne_distribution(state, zeta, bins)
    edges = dist.bin_edges
    for a, b, mass in zip(edges[:-1], edges[1:], dist.masses):
        assert abs(event_probability(state, zeta, [(a, b)]) - mass) < 1e-13
    assert np.all(dist.masses >= -1e-15)
    assert dist.masses.sum() <= 1 + 1e-13


NO_SCIPY_SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(k for k in sys.modules
                  if k == "scipy" or k.startswith("scipy."))

loaded = {}
import wignerhvm
loaded["import wignerhvm"] = scipy_modules()
from wignerhvm import cli
loaded["import wignerhvm.cli"] = scipy_modules()
cat = json.dumps({"kind": "cat", "params": {"alpha": 2.0}, "cutoff": 30})
for command in ("negativity", "hudson", "hvm-compare"):
    assert cli.main([command, "--state", cat, "--out", sys.argv[1]]) == 0
    loaded[command] = scipy_modules()
# models built and compared with the Gaussian and the Hermite-CDF oracle
for name, spec in (("thermal", {"kind": "thermal"}),
                   ("fock", {"kind": "fock", "params": {"n": 0},
                             "cutoff": 10})):
    assert cli.main(["hvm-compare", "--state", json.dumps(spec),
                     "--samples", "1000", "--out", sys.argv[1]]) == 0
    loaded["hvm-compare " + name] = scipy_modules()
import numpy as np
from wignerhvm import weyl
weyl.metaplectic_covariance_suite(np.random.default_rng(0), trials=2)
loaded["metaplectic suite"] = scipy_modules()
from wignerhvm.hvm import hvm_event_probability
from wignerhvm.oracle import event_probability
from wignerhvm.product import state_model
from wignerhvm.states import StateSpec, make_state
from wignerhvm.wigner import GridSpec
state = make_state(StateSpec("vacuum", {}, 2))
model = state_model(state, GridSpec(1, 6.0, 21))
event_probability(state, [1, 0, 0, 0], [(0.0, 1.0)])
loaded["event_probability"] = scipy_modules()
hvm_event_probability(model, [1, 0, 0.5, 0], [(0.0, 1.0)])  # a lattice
hvm_event_probability(model, [1, 2 ** 0.5, 3 ** 0.5, 0], [(0.0, 1.0)])
loaded["hvm_event_probability"] = scipy_modules()
import scipy.special  # the positive control
loaded["control"] = scipy_modules()
print(json.dumps(loaded))
"""


def test_wigner_paths_never_import_scipy(tmp_path):
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
                         capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout.splitlines()[-1])
    control = loaded.pop("control")
    assert loaded == {step: [] for step in loaded}
    assert len(loaded) == 10
    # positive control: the check sees the script's own import
    assert "scipy.special" in control


def test_event_probability_interval_validation():
    vac = make_state(StateSpec("vacuum"))
    with pytest.raises(ValueError):
        event_probability(vac, [1, 0], [(1.0, 0.0)])
    with pytest.raises(ValueError):
        event_probability(vac, [1, 0], [(0, 2), (1, 3)])


@pytest.mark.parametrize("zeta, message", (
    ([0, 0], "nonzero"), ([np.nan, 1], "finite"), ([np.inf, 1], "finite"),
    ([1, 0, 0], "needs 2 coefficients")))
def test_queries_reject_bad_labels(zeta, message):
    # event_probability used to return nan for (0, 0) and (nan, 1)
    axis = np.linspace(-1, 1, 5)
    for state in (make_state(StateSpec("vacuum")), fock(1)):
        for query in (lambda: homodyne_density(state, zeta, axis),
                      lambda: quantum_homodyne_distribution(state, zeta, BINS),
                      lambda: event_probability(state, zeta, [(0, np.inf)])):
            with pytest.raises(ValueError, match=message):
                query()


def test_bin_spec_and_distribution_validation():
    for lo, hi, count in ((np.nan, 1.0, 3), (0.0, np.inf, 3),
                          (-np.inf, 0.0, 3), (-1e308, 1e308, 3),
                          (1.0, 0.0, 3), (0.0, 1.0, 0), (0.0, 1.0, -3)):
        with pytest.raises(ValueError):
            BinSpec(lo, hi, count)
    edges = np.linspace(0, 1, 3)
    for masses in ([np.nan, 1.0], [np.inf, 0.0], [-1e-3, 1.0]):
        with pytest.raises(ValueError):
            OutcomeDistribution(edges, masses)
    OutcomeDistribution(edges, [-1e-13, 1.0])  # floating-point floor


@pytest.mark.parametrize("bins", [1, 7, 50, CSV_BLOCK, CSV_BLOCK + 1,
                                  100000])
def test_distribution_csv_has_the_bytes_of_savetxt(tmp_path, bins):
    # formatted a block of rows at a time: no block, one short block, one
    # whole block, a block and one row, and many blocks; zero masses, -0.0
    # and subnormal numbers are printed as np.savetxt prints them
    rng = np.random.default_rng(bins)
    masses = rng.random(bins)
    masses[1::5] = 0.0
    masses /= masses.sum()
    masses[2::7] *= 1e-310
    edges = np.linspace(-6.0, 6.0, bins + 1)
    edges[bins // 2] = -0.0
    dist = OutcomeDistribution(edges, masses)
    distribution_to_csv(dist, tmp_path / "block.csv")
    rows = np.column_stack([edges[:-1], edges[1:], masses])
    np.savetxt(tmp_path / "savetxt.csv", rows, delimiter=",",
               header="bin_left,bin_right,mass", comments="")
    assert ((tmp_path / "block.csv").read_bytes()
            == (tmp_path / "savetxt.csv").read_bytes())


def test_tv_distance_properties():
    edges = np.linspace(0, 1, 4)
    a = OutcomeDistribution(edges, [1.0, 0.0, 0.0])
    b = OutcomeDistribution(edges, [0.0, 0.0, 1.0])
    assert tv_distance(a, a) == 0.0
    assert tv_distance(a, b) == 1.0
    with pytest.raises(ValueError):
        tv_distance(a, OutcomeDistribution(np.linspace(0, 2, 4), [1, 0, 0]))


def test_tv_distance_sampled_scale():
    rng = np.random.default_rng(21)
    samples = rng.normal(0.0, np.sqrt(0.5), size=100000)
    counts, _ = np.histogram(samples, bins=BINS.edges)
    empirical = OutcomeDistribution(BINS.edges, counts / samples.size)
    assert tv_distance(empirical, gauss_bins(0.0, 0.5)) < 0.02


def test_statistical_formula_consistency():
    # Tr[rho f(q)] equals Int W * f for the linear and square symbols
    grid = GridSpec(1, 6.0, 257)
    for kind, params in (("coherent", {"alpha": 1.0}),
                         ("squeezed", {"r": 0.5})):
        state = make_state(StateSpec(kind, params))
        w = state_wigner(state, grid)
        for power in (1, 2):
            lhs = q_moment(state, power)
            rhs = grid_moment(w, 0, power)
            assert abs(lhs - rhs) < 2e-3
    w1 = state_wigner(fock(1), grid)
    assert abs(q_moment(fock(1), 2) - grid_moment(w1, 0, 2)) < 2e-3


@pytest.mark.parametrize("eta", (0.2, 0.4))
def test_fock_oracle_keeps_the_whole_hermite_table_bits(monkeypatch, eta):
    # the lossy photon (1 - eta)|0><0| + eta|1><1| at cutoff 30 on 50 bins,
    # for q and two labels the phase shift turns onto q
    matrix = np.zeros((30, 30))
    matrix[0, 0], matrix[1, 1] = 1 - eta, eta
    state = FockDensityOperator(matrix, 30, 1)
    points = np.concatenate([[-np.inf], BINS.edges, [np.inf]])

    def oracle_outputs():
        out = [fockspace.hermite_overlap_cdf(30, points)]
        for zeta in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8)):
            out.append(homodyne_density(state, zeta, BINS.edges))
            out.append(quantum_homodyne_distribution(state, zeta, BINS).masses)
        return out

    got = oracle_outputs()
    monkeypatch.setattr(fockspace, "hermite_functions",
                        whole_table_hermite_functions)
    for a, b in zip(got, oracle_outputs(), strict=True):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
