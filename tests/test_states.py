import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln

from wignerhvm import fockspace, states
from wignerhvm.phase_space import random_symplectic
from wignerhvm.states import (LEAKAGE_LIMIT, FockDensityOperator,
                              GaussianChannel, GaussianState,
                              InadequateWindowError, LeakageError,
                              StateSpec, StateSpecError,
                              _pure_from_coefficients, apply_gaussian_channel,
                              cat_state, compose_channels, gaussian_to_fock,
                              identity_channel, loss_channel, make_state,
                              vacuum_state)

from reference import (displacement_matrix, member_metaplectic_operator,
                       quantize_linear, two_mode_gaussian_to_fock,
                       whole_table_gkp_coefficients)


def spec(kind, cutoff=None, **params):
    return StateSpec(kind, params, 1, cutoff)


def test_vacuum():
    s = make_state(spec("vacuum"))
    assert np.allclose(s.mean, 0)
    assert np.allclose(s.covariance, 0.5 * np.eye(2))
    assert abs(s.purity() - 1) < 1e-12


def test_coherent_mean_convention():
    s = make_state(spec("coherent", alpha=[1.0, 0.5]))
    assert np.allclose(s.mean, [np.sqrt(2), np.sqrt(2) * 0.5])
    assert np.allclose(s.covariance, 0.5 * np.eye(2))


def test_squeezed_covariance():
    s = make_state(spec("squeezed", r=0.5))
    assert np.allclose(np.diag(s.covariance),
                       [0.5 * np.exp(-1), 0.5 * np.exp(1)])


def test_thermal():
    s = make_state(spec("thermal", nbar=1.0))
    assert np.allclose(s.covariance, 1.5 * np.eye(2))
    assert s.purity() < 0.5


def test_fock_state_matrix():
    rho = make_state(spec("fock", cutoff=10, n=1))
    expected = np.zeros((10, 10))
    expected[1, 1] = 1.0
    assert np.allclose(rho.matrix, expected)
    assert rho.leakage == 0.0


def test_unknown_kind():
    with pytest.raises(StateSpecError):
        make_state(spec("squeezed_cat"))


def test_cat_coefficients_match_closed_form():
    alpha = 2.0
    rho = make_state(spec("cat", cutoff=30, alpha=alpha))
    amps = np.array([(alpha ** n + (-alpha) ** n) / math.sqrt(math.factorial(n))
                     for n in range(30)])
    amps = amps / np.sqrt(np.sum(amps ** 2))
    got = np.sqrt(np.diag(rho.matrix.real))
    assert np.max(np.abs(got - np.abs(amps))) < 1e-8
    assert abs(np.trace(rho.matrix).real - 1) < 1e-12
    assert rho.leakage < 1e-8


@pytest.mark.parametrize("alpha", (0.5, 2.0, [3, 1]))
def test_cat_amplitudes_match_gammaln_route(alpha):
    a = complex(*alpha) if isinstance(alpha, list) else alpha
    x = abs(a) ** 2
    norm = np.sqrt(4 * np.cosh(x) * np.exp(-x)) * np.exp(x / 2)
    for cutoff in (30, 200):
        n = np.arange(cutoff)
        amps = (a ** n + (-a) ** n) * np.exp(-0.5 * gammaln(n + 1)) / norm
        got = cat_state(alpha, cutoff).matrix
        want = _pure_from_coefficients(amps, cutoff).matrix
        assert np.max(np.abs(got - want)) <= 1e-15, cutoff
    assert np.all(np.isfinite(cat_state(alpha, 400).matrix))


def test_cat_past_the_overflow_of_alpha_to_the_n():
    # 2^n overflowed past n = 1024; the coherent amplitudes form no alpha^n
    big = cat_state(2.0, 1100)
    assert big.leakage < 1e-12
    small = cat_state(2.0, 30).matrix
    assert np.max(np.abs(big.matrix[:30, :30] - small)) <= 1e-15


def test_cat_cutoff_too_small():
    with pytest.raises(LeakageError):
        make_state(spec("cat", cutoff=6, alpha=2.0))


def test_gkp_even_support_and_leakage():
    rho = make_state(spec("gkp", cutoff=60, delta=0.3))
    assert rho.leakage < 1e-3
    diag = np.diag(rho.matrix.real)
    assert np.max(diag[1::2]) < 1e-12  # odd levels unoccupied
    with pytest.raises(LeakageError):
        make_state(spec("gkp", cutoff=30, delta=0.3))


@pytest.mark.parametrize("delta", (0.2, 0.25, 0.3, 0.35, 0.5, 0.8))
def test_gkp_streamed_quadrature_keeps_the_whole_table_bits(monkeypatch,
                                                            delta):
    # each coefficient is the pairwise sum of its own row, streamed or not;
    # they are read before truncation, so leaking cutoffs count too
    seen = []
    build = states._pure_from_coefficients
    monkeypatch.setattr(states, "_pure_from_coefficients",
                        lambda coeffs, cutoff: seen.append(coeffs)
                        or build(coeffs, cutoff))
    for cutoff in (2, 3, 10, 30, 60, 100):
        try:
            states.gkp_state(delta, cutoff)
        except LeakageError:
            pass
        want = whole_table_gkp_coefficients(delta, cutoff)
        assert seen[-1].shape == want.shape == (cutoff,)
        assert np.array_equal(seen[-1].view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("cutoff", (60, 300))
def test_gkp_quadrature_memory_does_not_grow_with_the_cutoff(cutoff):
    # a few 8192-point rows beside the c x c matrices; the whole basis table
    # alone would be 8 * 8192 c bytes
    states.gkp_state(0.3, cutoff)  # first-call set-up is not counted
    tracemalloc.start()
    try:
        states.gkp_state(0.3, cutoff)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 16 * cutoff ** 2 + 2 ** 20, peak / 2 ** 20


def largest_admitted_cutoff() -> int:
    """The largest one-mode Fock cutoff check_state_spec admits."""
    low, high = 2, 2 ** 20
    while high - low > 1:
        mid = (low + high) // 2
        try:
            states.check_state_spec(spec("fock", mid, n=1))
            low = mid
        except InadequateWindowError:
            high = mid
    return low


FOCK_KIND_PARAMS = {"fock": {"n": 1}, "cat": {"alpha": 2.0},
                    "gkp": {"delta": 0.3},
                    "photon_subtracted_squeezed": {"r": 0.5}}


@pytest.mark.parametrize("cutoff", (300, 600))
@pytest.mark.parametrize("kind", sorted(FOCK_KIND_PARAMS))
def test_state_build_peak_is_within_the_counted_bytes(kind, cutoff):
    # check_state_spec admits a cutoff while its count of the build, a
    # fixed number of bytes per c^2, is within the limit; the build must
    # hold no more than that count
    per_level = states.GRID_BYTES_LIMIT / largest_admitted_cutoff() ** 2
    state_spec = spec(kind, cutoff, **FOCK_KIND_PARAMS[kind])
    make_state(state_spec)  # first-call set-up is not counted
    tracemalloc.start()
    try:
        make_state(state_spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= per_level * cutoff ** 2, peak / (16 * cutoff ** 2)


def squeezed_vacuum(r: float, levels: int) -> np.ndarray:
    """Closed-form S(r)|0> coefficients (q-squeezed): c_2k ~ (-tanh r)^k."""
    coeffs = np.zeros(levels)
    for k in range((levels + 1) // 2):
        n = 2 * k
        coeffs[n] = (np.cosh(r) ** -0.5 * (-np.tanh(r)) ** k
                     * math.sqrt(math.factorial(n))
                     / (2 ** k * math.factorial(k)))
    return coeffs


def photon_subtracted_squeezed(r: float, levels: int) -> np.ndarray:
    """Closed-form a S(r)|0> / sinh r = S(r)|1> coefficients."""
    c_sq = squeezed_vacuum(r, levels + 1)
    return np.sqrt(np.arange(1, levels + 1)) * c_sq[1:] / np.sinh(r)


def test_photon_subtracted_squeezed_matches_closed_form():
    r = 0.5
    cutoff = 30
    rho = make_state(spec("photon_subtracted_squeezed", cutoff=cutoff, r=r))
    expected = photon_subtracted_squeezed(r, cutoff)
    expected /= np.linalg.norm(expected)
    got = rho.matrix[:, 1].real / np.sqrt(rho.matrix[1, 1].real)
    got *= np.sign(got[1]) * np.sign(expected[1])
    assert np.max(np.abs(got - expected)) < 1e-12
    assert np.max(np.abs(np.diag(rho.matrix.real)[::2])) < 1e-12


def test_photon_subtracted_squeezed_reports_true_leakage():
    cutoff = 30
    rho = make_state(spec("photon_subtracted_squeezed", cutoff=cutoff, r=1.0))
    kept = np.sum(photon_subtracted_squeezed(1.0, cutoff) ** 2)
    assert 8e-4 < 1 - kept < LEAKAGE_LIMIT
    assert abs(rho.leakage - (1 - kept)) < 1e-12


def test_metaplectic_squeezed_vacuum_exact_at_every_level():
    r, cutoff = 1.0, 30
    M = fockspace.metaplectic_operator(np.diag([np.exp(-r), np.exp(r)]), cutoff)
    assert np.max(np.abs(M[:, 0] - squeezed_vacuum(r, cutoff))) < 1e-12


def unitary_channel(S, d=None) -> GaussianChannel:
    """The Gaussian unitary R -> S R + d as a channel with no added noise."""
    S = np.asarray(S, dtype=float)
    return GaussianChannel(S, np.zeros_like(S),
                           np.zeros(len(S)) if d is None else d)


def test_apply_unitary_displacement():
    s = apply_gaussian_channel(vacuum_state(),
                               unitary_channel(np.eye(2), [1.0, 0.0]))
    assert np.allclose(s.mean, [1, 0])
    assert np.allclose(s.covariance, 0.5 * np.eye(2))


def test_apply_unitary_squeeze():
    S = np.diag([np.exp(-0.5), np.exp(0.5)])
    s = apply_gaussian_channel(vacuum_state(), unitary_channel(S))
    assert np.allclose(np.diag(s.covariance),
                       [0.5 * np.exp(-1), 0.5 * np.exp(1)])


def test_apply_unitary_identity_and_purity():
    rng = np.random.default_rng(0)
    s = make_state(spec("thermal", nbar=1.3))
    out = apply_gaussian_channel(s, unitary_channel(np.eye(2)))
    assert np.allclose(out.mean, s.mean)
    assert np.allclose(out.covariance, s.covariance)
    for _ in range(10):
        out = apply_gaussian_channel(
            s, unitary_channel(random_symplectic(1, rng)))
        before = np.linalg.det(2 * s.covariance)
        after = np.linalg.det(2 * out.covariance)
        assert abs(before - after) < 1e-10


def test_apply_unitary_rejects_non_symplectic():
    # with no added noise, complete positivity needs X omega X^T = omega
    with pytest.raises(ValueError):
        unitary_channel(2 * np.eye(2))


def test_channel_identity_and_loss_fixed_point():
    vac = vacuum_state()
    out = apply_gaussian_channel(vac, identity_channel())
    assert np.allclose(out.covariance, vac.covariance)
    out = apply_gaussian_channel(vac, loss_channel(0.5))
    assert np.allclose(out.covariance, 0.5 * np.eye(2))
    assert np.allclose(out.mean, 0)


def test_channel_loss_on_coherent():
    s = GaussianState([2.0, 0.0], 0.5 * np.eye(2))
    out = apply_gaussian_channel(s, loss_channel(0.25))
    assert np.allclose(out.mean, [1.0, 0.0])
    assert np.allclose(out.covariance, 0.5 * np.eye(2))


def test_compose_identity_and_losses():
    e1 = loss_channel(0.7)
    composed = compose_channels(e1, identity_channel())
    assert np.allclose(composed.X, e1.X)
    assert np.allclose(composed.Y, e1.Y)
    two = compose_channels(loss_channel(0.7), loss_channel(0.6))
    single = loss_channel(0.42)
    assert np.allclose(two.X, single.X, atol=1e-14)
    assert np.allclose(two.Y, single.Y, atol=1e-14)


def _random_channel(rng, modes=1):
    S = random_symplectic(modes, rng, scale=0.3)
    c = rng.uniform(0.4, 1.0)
    X = c * S
    base = rng.normal(size=(2 * modes, 2 * modes)) * 0.2
    Y = (1 - c ** 2) / 2 * np.eye(2 * modes) + base @ base.T
    d = rng.uniform(-1, 1, 2 * modes)
    return GaussianChannel(X, Y, d)


def _random_gaussian(rng, modes=1):
    mean = rng.uniform(-2, 2, 2 * modes)
    base = rng.normal(size=(2 * modes, 2 * modes)) * 0.3
    cov = 0.5 * np.eye(2 * modes) + base @ base.T
    return GaussianState(mean, cov)


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(11)
    for _ in range(20):
        e1, e2 = _random_channel(rng, 2), _random_channel(rng, 2)
        comp = compose_channels(e1, e2)
        s = _random_gaussian(rng, 2)
        seq = apply_gaussian_channel(apply_gaussian_channel(s, e1), e2)
        direct = apply_gaussian_channel(s, comp)
        assert np.max(np.abs(seq.mean - direct.mean)) < 1e-12
        assert np.max(np.abs(seq.covariance - direct.covariance)) < 1e-12


def test_compose_associativity():
    rng = np.random.default_rng(12)
    for _ in range(10):
        e1, e2, e3 = (_random_channel(rng) for _ in range(3))
        left = compose_channels(compose_channels(e1, e2), e3)
        right = compose_channels(e1, compose_channels(e2, e3))
        assert np.max(np.abs(left.X - right.X)) < 1e-12
        assert np.max(np.abs(left.Y - right.Y)) < 1e-12
        assert np.max(np.abs(left.d - right.d)) < 1e-12


def test_channel_cp_violation_rejected():
    with pytest.raises(ValueError):
        GaussianChannel(0.5 * np.eye(2), np.zeros((2, 2)), np.zeros(2))


def test_gaussian_state_uncertainty_violation_rejected():
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), 0.1 * np.eye(2))


def test_gaussian_state_rejects_non_finite_entries():
    # NaN passes the symmetry test and eigvalsh does not raise on inf
    for mean, cov in ((np.array([np.inf, 0.0]), 0.5 * np.eye(2)),
                      (np.array([np.nan, 0.0]), 0.5 * np.eye(2)),
                      (np.zeros(2), np.diag([0.5, np.nan])),
                      (np.zeros(2), np.diag([np.inf, 0.5]))):
        with pytest.raises(InadequateWindowError, match="overflows"):
            GaussianState(mean, cov)


def test_fock_operator_validation():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValueError):
        FockDensityOperator(bad, 4, 1)
    with pytest.raises(ValueError):
        FockDensityOperator(0.5 * np.eye(4), 4, 1)  # trace 2


def test_fock_operator_positivity_threshold():
    """Eigenvalues below -1e-10 are rejected, those above it are kept."""
    rng = np.random.default_rng(5)
    for cutoff in (12, 36):
        basis, _ = np.linalg.qr(rng.normal(size=(cutoff, cutoff))
                                + 1j * rng.normal(size=(cutoff, cutoff)))
        for planted, accepted in ((-1e-9, False), (-2e-10, False),
                                  (-5e-11, True), (-1e-11, True),
                                  (0.0, True)):
            spectrum = rng.dirichlet(np.ones(cutoff - 1)) * (1 - planted)
            rho = (basis * np.append(planted, spectrum)) @ basis.conj().T
            rho = (rho + rho.conj().T) / 2
            if accepted:
                FockDensityOperator(rho, cutoff, 1)
            else:
                with pytest.raises(ValueError, match="positive"):
                    FockDensityOperator(rho, cutoff, 1)
    # a Fock state has one mode, whatever its matrix
    with pytest.raises(ValueError, match="one mode"):
        FockDensityOperator(np.eye(36) / 36, 6, 2)


def test_gaussian_to_fock_vacuum_and_coherent():
    rho = gaussian_to_fock(vacuum_state(), 10)
    expected = np.zeros((10, 10))
    expected[0, 0] = 1.0
    assert np.allclose(rho.matrix, expected, atol=1e-14)
    coh = make_state(spec("coherent", alpha=1.0))
    rho = gaussian_to_fock(coh, 30)
    poisson = np.exp(-1) / np.array([math.factorial(n) for n in range(12)])
    assert np.max(np.abs(np.diag(rho.matrix.real)[:12] - poisson)) < 1e-8


def test_gaussian_to_fock_thermal_geometric():
    rho = gaussian_to_fock(make_state(spec("thermal", nbar=1.0)), 45)
    n = np.arange(45)
    geometric = 0.5 ** (n + 1)
    assert np.max(np.abs(np.diag(rho.matrix.real) - geometric)) < 1e-10


def test_gaussian_to_fock_squeezed_closed_form():
    r = 0.5
    rho = gaussian_to_fock(make_state(spec("squeezed", r=r)), 30)
    coeffs = squeezed_vacuum(r, 30)
    expected = np.outer(coeffs, coeffs)
    assert np.max(np.abs(rho.matrix.real[:20, :20] - expected[:20, :20])) < 1e-8


def _moments_from_fock(rho):
    n = 2 * rho.mode_count
    ops = [quantize_linear(e, rho.cutoff) for e in np.eye(n)]
    mean = np.array([np.trace(rho.matrix @ op).real for op in ops])
    cov = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            anti = (ops[i] @ ops[j] + ops[j] @ ops[i]) / 2
            cov[i, j] = np.trace(rho.matrix @ anti).real - mean[i] * mean[j]
    return mean, cov


def test_gaussian_to_fock_roundtrip_moments():
    rng = np.random.default_rng(13)
    for _ in range(5):
        mean = rng.uniform(-2, 2, 2)
        r = rng.uniform(-0.7, 0.7)
        th = rng.uniform(0, np.pi)
        c, s_ = np.cos(th), np.sin(th)
        rot = np.array([[c, -s_], [s_, c]])
        cov = rot @ np.diag([np.exp(-2 * r), np.exp(2 * r)]) @ rot.T / 2
        state = GaussianState(mean, cov)
        rho = gaussian_to_fock(state, 40)
        mean_out, cov_out = _moments_from_fock(rho)
        assert np.max(np.abs(mean_out - mean)) < 1e-4
        assert np.max(np.abs(cov_out - cov)) < 1e-4


def test_gaussian_to_fock_two_mode():
    rng = np.random.default_rng(14)
    T = random_symplectic(2, rng, scale=0.2)
    cov = T @ np.diag([0.6, 0.55, 0.6, 0.55]) @ T.T
    state = GaussianState(np.array([0.5, -0.3, 0.2, 0.1]), cov)
    with pytest.raises(ValueError, match="one mode"):
        gaussian_to_fock(state, 14)
    # the tests' two-mode reference keeps the state's moments
    rho = two_mode_gaussian_to_fock(state, 14)
    mean_out, cov_out = _moments_from_fock(rho)
    assert np.max(np.abs(mean_out - state.mean)) < 1e-3
    assert np.max(np.abs(cov_out - state.covariance)) < 1e-3


def reference_density(S, nu, mean, cutoff: int, keep: int) -> np.ndarray:
    """<k|D M(S) tau(nu) M(S)^dag D^dag|l> at `cutoff`, k, l < keep per mode.

    tau is the product of geometric thermal diagonals with mean photon
    numbers nu - 1/2, so the state has covariance S diag(nu, nu) S^T and the
    reference needs no Williamson decomposition.  Only the products reach
    past `keep`, and they run to `cutoff`.
    """
    m = len(nu)
    n = np.arange(cutoff)
    tau, rows = np.array([1.0]), np.ones((1, 1), dtype=complex)
    for k, v in enumerate(nu):
        nbar = v - 0.5
        tau = np.kron(tau, nbar ** n / (nbar + 1) ** (n + 1))
        alpha = (mean[k] + 1j * mean[m + k]) / np.sqrt(2)
        d = displacement_matrix(alpha, cutoff)
        rows = np.kron(rows, d[:keep])
    y = rows @ member_metaplectic_operator(S, cutoff)
    return (y * tau) @ y.conj().T


def test_gaussian_to_fock_matches_one_mode_reference():
    # rotated squeezed thermal state with a mean, reference at cutoff 120
    th, r = 0.4, 0.6
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    S = rot @ np.diag([np.exp(-r), np.exp(r)])
    nu, mean = np.array([0.8]), np.array([0.7, -0.3])
    state = GaussianState(mean, S @ np.diag([0.8, 0.8]) @ S.T)
    rho = gaussian_to_fock(state, 20)
    want = reference_density(S, nu, mean, 120, 20)
    assert np.max(np.abs(rho.matrix * (1 - rho.leakage) - want)) <= 1e-13


def test_gaussian_to_fock_matches_two_mode_reference():
    rng = np.random.default_rng(15)
    S = random_symplectic(2, rng, scale=0.25)
    nu = rng.uniform(0.5, 0.9, 2)
    mean = np.array([0.3, -0.2, 0.2, 0.1])
    state = GaussianState(mean, S @ np.diag(np.concatenate([nu, nu])) @ S.T)
    rho = two_mode_gaussian_to_fock(state, 8)
    want = reference_density(S, nu, mean, 40, 8)
    assert np.max(np.abs(rho.matrix * (1 - rho.leakage) - want)) <= 1e-9


def test_gaussian_to_fock_reports_true_leakage():
    S = np.diag([np.exp(-0.5), np.exp(0.5)])
    state = GaussianState(np.array([0.7, 0.2]), S @ S.T / 2)
    psi = (displacement_matrix((0.7 + 0.2j) / np.sqrt(2), 120)
           @ fockspace.metaplectic_operator(S, 120)[:, 0])
    rho = gaussian_to_fock(state, 20)
    assert abs(rho.leakage - (1 - np.sum(np.abs(psi[:20]) ** 2))) <= 1e-12


def test_state_spec_parsing():
    s = StateSpec.from_json('{"kind": "fock", "params": {"n": 2}, "cutoff": 20}')
    assert s.kind == "fock" and s.params["n"] == 2 and s.cutoff == 20
    with pytest.raises(StateSpecError):
        StateSpec.from_json('{"params": {}}')
    with pytest.raises(StateSpecError):
        StateSpec.from_json('{"kind": "fock", "extra": 1}')
    with pytest.raises(StateSpecError):
        StateSpec.from_json("not json")
