"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line with the measured numbers so a -s run
reads as a checklist.  State-specific grid windows and cutoffs live in
STATE_SETUPS; larger windows are required where the state carries
structure outside the default window (grid-state combs, strongly
squeezed marginals).
"""

import json

import numpy as np
import pytest

from wignerhvm.cli import _multiplicativity_cases, main
from wignerhvm.hvm import (NegativityError, build_hvm,
                           empirical_characteristic_check,
                           hvm_event_probability, hvm_homodyne_distribution)
from wignerhvm.oracle import (BinSpec, event_probability,
                              quantum_homodyne_distribution, tv_distance)
from wignerhvm.phase_space import (plane_decomposition_vectors,
                                   planewise_decomposition_commutes,
                                   symplectic_form)
from wignerhvm.states import (GaussianState, StateSpec, apply_gaussian_channel,
                              compose_channels, gaussian_to_fock, loss_channel,
                              make_state)
from wignerhvm.weyl import (check_wigner_multiplicativity,
                            metaplectic_covariance_suite)
from wignerhvm.wigner import (GridSpec, hudson_classify, min_value,
                              negativity_volume, state_wigner,
                              wigner_fock_direct, wigner_gaussian)

from reference import characteristic_function, wigner_from_characteristic

GRID = GridSpec(1, 6.0, 257)
CHAR = GridSpec(1, 16.0, 257)

GAUSSIAN_STATES = {
    "vacuum": StateSpec("vacuum"),
    "coherent(1)": StateSpec("coherent", {"alpha": 1.0}),
    "squeezed(0.5)": StateSpec("squeezed", {"r": 0.5}),
    "thermal(1)": StateSpec("thermal", {"nbar": 1.0}),
}

NEGATIVE_STATES = {
    "fock(1)": StateSpec("fock", {"n": 1}, 1, 30),
    "fock(2)": StateSpec("fock", {"n": 2}, 1, 30),
    "cat(2)": StateSpec("cat", {"alpha": 2.0}, 1, 30),
    "gkp(0.3)": StateSpec("gkp", {"delta": 0.3}, 1, 60),
    "pss(0.5)": StateSpec("photon_subtracted_squeezed", {"r": 0.5}, 1, 30),
}

# per-state Wigner grid
STATE_SETUPS = {name: GRID for name in
                list(GAUSSIAN_STATES) + ["fock(1)", "fock(2)", "cat(2)"]}
STATE_SETUPS["gkp(0.3)"] = GridSpec(1, 10.0, 321)
STATE_SETUPS["pss(0.5)"] = GridSpec(1, 8.0, 257)

ALL_STATES = {**GAUSSIAN_STATES, **NEGATIVE_STATES}

OBSERVABLES = (np.array([1.0, 0.0]), np.array([0.0, 1.0]),
               np.array([1.0, 1.0]) / np.sqrt(2))


def wigner_of(name):
    return state_wigner(make_state(ALL_STATES[name]), STATE_SETUPS[name])


def test_criterion_1_route_agreement():
    worst = 0.0
    for name in ("vacuum", "coherent(1)", "squeezed(0.5)"):
        state = make_state(GAUSSIAN_STATES[name])
        rho = gaussian_to_fock(state, 30)
        wa = wigner_gaussian(state, GRID).values
        wb = wigner_from_characteristic(
            characteristic_function(rho, CHAR), GRID).values
        wc = wigner_fock_direct(rho, GRID).values
        for x, y in ((wa, wb), (wa, wc), (wb, wc)):
            worst = max(worst, float(np.max(np.abs(x - y))))
        assert np.max(np.abs(wa - wb)) < 1e-5
        assert np.max(np.abs(wa - wc)) < 1e-5
        assert np.max(np.abs(wb - wc)) < 1e-5
    print(f"\nPASS criterion 1: three-route sup-norm agreement "
          f"{worst:.2e} < 1e-5")


def test_criterion_2_normalization_all_states():
    worst = 0.0
    for name in ALL_STATES:
        w = wigner_of(name)
        dev = abs(w.normalization - 1)
        worst = max(worst, dev)
        assert dev <= 1e-3, f"{name}: |norm-1| = {dev:.2e}"
    print(f"\nPASS criterion 2: |Int W - 1| <= {worst:.2e} <= 1e-3 "
          f"for all nine states")


def test_criterion_3_negativity_witness_values():
    w1 = wigner_of("fock(1)")
    mn, _ = min_value(w1)
    assert abs(mn + 1 / np.pi) < 1e-3
    analytic = 2 * (2 * np.exp(-0.5) - 1)
    neg = negativity_volume(w1)
    assert abs(neg - analytic) < 2e-3
    for name in GAUSSIAN_STATES:
        assert negativity_volume(wigner_of(name)) < 1e-6
    print(f"\nPASS criterion 3: fock(1) min {mn:.6f} ~ -1/pi, "
          f"negativity {neg:.6f} ~ {analytic:.6f}; Gaussians < 1e-6")


def test_criterion_4_forward_direction():
    bins = BinSpec(-6.0, 6.0, 50)
    events = ([(0.0, np.inf)], [(-1.0, 1.0)])
    worst_tv, worst_ev = 0.0, 0.0
    for name, spec in GAUSSIAN_STATES.items():
        state = make_state(spec)
        model = build_hvm(wigner_of(name))
        for k, zeta in enumerate(OBSERVABLES):
            hist = hvm_homodyne_distribution(
                model, zeta, bins, 100000, seed=100 + k)
            ref = quantum_homodyne_distribution(state, zeta, bins)
            tv = tv_distance(hist, ref)
            worst_tv = max(worst_tv, tv)
            assert tv <= 0.02, f"{name} zeta={zeta}: TV {tv:.4f}"
            for intervals in events:
                hv = hvm_event_probability(model, zeta, intervals)
                qv = event_probability(state, zeta, intervals)
                worst_ev = max(worst_ev, abs(hv - qv))
                assert abs(hv - qv) <= 2e-3
    print(f"\nPASS criterion 4: worst TV {worst_tv:.4f} <= 0.02, worst "
          f"event deviation {worst_ev:.2e} <= 2e-3")


def test_criterion_5_reverse_direction_witnesses():
    minima = {}
    for name in NEGATIVE_STATES:
        w = wigner_of(name)
        with pytest.raises(NegativityError) as excinfo:
            build_hvm(w)
        minima[name] = excinfo.value.min_value
        assert excinfo.value.min_value < -0.01
    summary = ", ".join(f"{k}: {v:.3f}" for k, v in minima.items())
    print(f"\nPASS criterion 5: witnesses below -0.01 ({summary})")


def test_criterion_6_characteristic_consistency():
    rng = np.random.default_rng(606)
    worst = 0.0
    for name, spec in GAUSSIAN_STATES.items():
        state = make_state(spec)
        model = build_hvm(wigner_of(name))
        pts = rng.uniform(-3, 3, size=(10, 2))
        rep = empirical_characteristic_check(model, pts, state)
        worst = max(worst, rep["max_deviation"])
        assert rep["pass"], f"{name}: {rep['max_deviation']:.2e}"
    print(f"\nPASS criterion 6: characteristic-function deviation "
          f"{worst:.2e} <= 2e-3 on 10 random points per state")


def test_criterion_7_commutation_and_linearity():
    rng = np.random.default_rng(707)
    worst_comm = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 5))
        i, j = rng.choice(m, size=2, replace=False)
        alpha, beta = rng.uniform(-10, 10, 2)
        vecs = plane_decomposition_vectors(alpha, beta, int(i), int(j), m)
        assert planewise_decomposition_commutes(*vecs, tol=1e-12)
        u, v, u2, v2 = vecs
        worst_comm = max(
            worst_comm,
            abs(symplectic_form(u + v + u2 + v2, u + v - u2 - v2)),
            abs(symplectic_form(u + v2, v + u2)),
            abs(symplectic_form(u - v2, v - u2)))
    for _ in range(100):
        m = int(rng.integers(1, 4))
        phi = rng.uniform(-5, 5, 2 * m)
        z1, z2 = rng.uniform(-5, 5, (2, 2 * m))
        assert (z1 + z2) @ phi == pytest.approx(
            z1 @ phi + z2 @ phi, abs=1e-12)
    print(f"\nPASS criterion 7: 100 commutation identities "
          f"(max {worst_comm:.1e} <= 1e-12) and 100 exact linearity checks")


def test_criterion_8_transform_multiplicativity():
    worst = 0.0
    for label, obs in _multiplicativity_cases():
        rep = check_wigner_multiplicativity(obs, 40, case=label)
        worst = max(worst, rep["sup_norm_deviation"])
        assert rep["pass"], f"{label}: {rep['sup_norm_deviation']:.2e}"
    print(f"\nPASS criterion 8: 12 polynomial/context cases at cutoff 40, "
          f"sup deviation {worst:.2e} < 1e-3")


def test_criterion_9_metaplectic_covariance():
    rng = np.random.default_rng(909)
    rep = metaplectic_covariance_suite(rng, trials=20)
    assert rep["pass"]
    print(f"\nPASS criterion 9: 20 random symplectics, covariance deviation "
          f"{rep['max_deviation']:.2e} <= 1e-6")


def test_criterion_10_channel_composition():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(20):
        from wignerhvm.phase_space import random_symplectic
        chans = []
        for _ in range(3):
            S = random_symplectic(1, rng, scale=0.3)
            c = rng.uniform(0.5, 1.0)
            base = rng.normal(size=(2, 2)) * 0.2
            chans.append(type(loss_channel(0.5))(
                c * S, (1 - c ** 2) / 2 * np.eye(2) + base @ base.T,
                rng.uniform(-1, 1, 2)))
        e1, e2, e3 = chans
        mean = rng.uniform(-2, 2, 2)
        base = rng.normal(size=(2, 2)) * 0.3
        state = GaussianState(mean, 0.5 * np.eye(2) + base @ base.T)
        seq = apply_gaussian_channel(apply_gaussian_channel(state, e1), e2)
        direct = apply_gaussian_channel(state, compose_channels(e1, e2))
        worst = max(worst,
                    float(np.max(np.abs(seq.mean - direct.mean))),
                    float(np.max(np.abs(seq.covariance - direct.covariance))))
        left = compose_channels(compose_channels(e1, e2), e3)
        right = compose_channels(e1, compose_channels(e2, e3))
        worst = max(worst,
                    float(np.max(np.abs(left.X - right.X))),
                    float(np.max(np.abs(left.Y - right.Y))),
                    float(np.max(np.abs(left.d - right.d))))
        assert worst <= 1e-12
    print(f"\nPASS criterion 10: sequential-vs-composed and associativity "
          f"within {worst:.1e} <= 1e-12 on 20 random triples")


def test_criterion_11_hudson_classifier(tmp_path):
    pure_gaussian = ("vacuum", "coherent(1)", "squeezed(0.5)")
    for name in pure_gaussian:
        rep = hudson_classify(make_state(ALL_STATES[name]),
                              STATE_SETUPS[name])
        assert rep.classification == "gaussian_nonnegative", name
    for name in NEGATIVE_STATES:
        rep = hudson_classify(make_state(ALL_STATES[name]),
                              STATE_SETUPS[name])
        assert rep.classification == "negative", name
    code = main(["hudson", "--state",
                 '{"kind": "thermal", "params": {"nbar": 1.0}}',
                 "--out", str(tmp_path)])
    assert code == 4
    print("\nPASS criterion 11: Hudson agrees on all nine states "
          "(mixed input exits 4)")


def test_criterion_12_report_determinism(tmp_path):
    argv = ["hvm-compare", "--state", '{"kind": "vacuum"}',
            "--samples", "100000", "--seed", "2026"]
    blobs = []
    for sub, extra in (("r1", []), ("r2", []), ("t4", ["--threads", "4"])):
        out = tmp_path / sub
        assert main(argv + extra + ["--out", str(out)]) == 0
        blobs.append((out / "hvm_compare.json").read_bytes())
    assert blobs[0] == blobs[1], "reruns differ"
    assert blobs[0] == blobs[2], "thread counts differ"
    report = json.loads(blobs[0])
    assert report["pass"]
    print("\nPASS criterion 12: byte-identical reports across reruns "
          "and 1 vs 4 threads")
