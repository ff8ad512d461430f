"""The factored (per-mode Kronecker term) quantization, characteristic
function and symplectic Fourier transform against the dense references
they replaced: the dense symmetrized product of c^2 x c^2 generator
matrices, the dense contraction d^T M d over a two-mode displacement table,
the reordered X^T Y product of per-mode trace tables, the transform that
contracts one phase-space axis at a time and the boundary residual read off
the dense grid."""

import itertools
import tracemalloc

import numpy as np

from wignerhvm.cli import _multiplicativity_cases
from wignerhvm.phase_space import Context
from wignerhvm.states import FockDensityOperator
from wignerhvm.weyl import (PolynomialObservable,
                            check_wigner_multiplicativity,
                            default_observable_char_spec, quantize_linear,
                            quantize_polynomial, quantize_terms,
                            smoothed_polynomial)
from wignerhvm.wigner import (CharacteristicGrid, GridSpec,
                              characteristic_function,
                              characteristic_observable, wigner_fock_direct,
                              wigner_from_characteristic,
                              weyl_symbol_from_characteristic)

from reference import displacement_matrix

CHAR = GridSpec(2, 10.0, 21)
Z = GridSpec(2, 3.0, 11)
REL_TOL = 1e-12


def dense_quantize_polynomial(obs: PolynomialObservable,
                              cutoff: int) -> np.ndarray:
    """Symmetrized products of dense generator matrices, with a prefix cache."""
    n = 2 * obs.context.mode_count
    ops = [quantize_linear(e, cutoff).matrix for e in np.eye(n)]
    gens = [sum(z * op for z, op in zip(gen, ops))
            for gen in obs.context.generators]
    dim = ops[0].shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    for coef, expo in obs.terms:
        indices = tuple(i for i, e in enumerate(expo) for _ in range(e))
        perms = sorted(set(itertools.permutations(indices)))
        cache = {(): np.eye(dim, dtype=complex)}

        def product_for(perm):
            if perm not in cache:
                cache[perm] = product_for(perm[:-1]) @ gens[perm[-1]]
            return cache[perm]

        out += coef * sum(product_for(p) for p in perms) / len(perms)
    return out


def dense_two_mode_traces(matrix: np.ndarray, spec: GridSpec,
                          scale: float) -> np.ndarray:
    """Tr[A D(scale * v)] on a two-mode grid by d^T M d."""
    axis = spec.axis
    vq, vp = np.meshgrid(axis, axis, indexing="ij")
    alphas = scale * (vq + 1j * vp) / np.sqrt(2)
    c = round(matrix.shape[0] ** 0.5)
    # d[(j, i), v] = <j|D|i>; Tr = sum A[(i1 i2), (j1 j2)] d1[j1,i1] d2[j2,i2]
    d = displacement_matrix(alphas.reshape(-1), c).reshape(c * c, -1)
    mat = matrix.reshape(c, c, c, c).transpose(2, 0, 3, 1).reshape(c * c, -1)
    p = spec.points
    return (d.T @ mat @ d).reshape(p, p, p, p).transpose(0, 2, 1, 3)


def dense_displacement_traces(factors, spec: GridSpec,
                              scale: float) -> np.ndarray:
    """Tr[A D(scale * v)] on a two-mode grid as one product X^T Y.

    X and Y are the per-mode trace tables read from one displacement
    table; the product is copied into (vq1, vq2, vp1, vp2) order.
    """
    axis = spec.axis
    vq, vp = np.meshgrid(axis, axis, indexing="ij")
    alphas = scale * (vq + 1j * vp) / np.sqrt(2)
    c = factors[0].shape[1]
    d = displacement_matrix(alphas.reshape(-1), c).reshape(c * c, -1)
    x, y = (f.transpose(0, 2, 1).reshape(len(f), c * c) @ d for f in factors)
    p = spec.points
    chi = (x.T @ y).reshape(p, p, p, p)
    return np.ascontiguousarray(chi.transpose(0, 2, 1, 3))


def dense_symplectic_fourier(values: np.ndarray, v_spec: GridSpec,
                             out_spec: GridSpec) -> np.ndarray:
    """(2 pi)^(-2m) Int chi(v) exp(-i [v, z]) dv, one axis at a time."""
    m = v_spec.mode_count
    result = np.asarray(values, dtype=complex)
    for i in range(2 * m):
        sign = 1.0 if i < m else -1.0
        kernel = np.exp(sign * 1j * np.outer(v_spec.axis, out_spec.axis))
        result = np.tensordot(result, kernel * v_spec.step, axes=([0], [0]))
    # appended z-axes are (zp_1..zp_m, zq_1..zq_m); swap the blocks
    result = np.transpose(result, axes=list(range(m, 2 * m)) + list(range(m)))
    return result * (2 * np.pi) ** (-2 * m)


def dense_boundary_residual(values: np.ndarray) -> float:
    """Largest |chi| over the faces of the box, relative to the global max."""
    worst = max(float(np.max(np.abs(np.take(values, idx, axis=ax))))
                for ax in range(values.ndim) for idx in (0, -1))
    return worst / float(np.max(np.abs(values)))


def dense_weyl_symbol(values: np.ndarray) -> np.ndarray:
    raw = dense_symplectic_fourier(values, CHAR, Z) * (2 * np.pi) ** 2
    return raw.real


def relative_gap(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def check_against_dense(obs: PolynomialObservable, cutoff: int) -> None:
    factors = quantize_terms(obs, cutoff)
    dense = dense_quantize_polynomial(obs, cutoff)
    assert relative_gap(quantize_polynomial(obs, cutoff), dense) <= REL_TOL
    chi = characteristic_observable(factors, CHAR)
    want = dense_displacement_traces(factors, CHAR, 1.0)
    assert relative_gap(chi.values, want) <= REL_TOL
    assert relative_gap(want, dense_two_mode_traces(dense, CHAR, 1.0)) \
        <= REL_TOL
    symbol, residual = weyl_symbol_from_characteristic(chi, Z)
    assert relative_gap(symbol.values, dense_weyl_symbol(want)) <= REL_TOL
    assert relative_gap(residual, dense_boundary_residual(want)) <= REL_TOL

    # the lemma-check comparison, with exp(-|v|^2/4) on the dense grid
    coords = CHAR.coordinate_blocks()
    damped = want * np.exp(-sum(c ** 2 for c in coords) / 4)
    symbol = dense_weyl_symbol(damped)
    zblocks = Z.coordinate_blocks()
    target = smoothed_polynomial(obs, [sum(z * c for z, c in zip(g, zblocks))
                                       for g in obs.context.generators])
    report = check_wigner_multiplicativity(obs, cutoff, Z, CHAR)
    sup_dev = float(np.max(np.abs(symbol - target)))
    scale = float(np.max(np.abs(symbol)))
    assert abs(report["sup_norm_deviation"] - sup_dev) <= REL_TOL * scale
    assert relative_gap(report["boundary_residual"],
                        dense_boundary_residual(damped)) <= REL_TOL


def test_lemma_cases_match_dense_references():
    cases = _multiplicativity_cases(12)
    assert len(cases) == 12
    for _, obs in cases:
        assert len(quantize_terms(obs, 12)[0]) <= 3
        check_against_dense(obs, 12)


def test_mode_mixing_context_matches_dense_references():
    # each generator acts on both modes, so it is a sum of two terms
    ctx = Context([np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2),
                   np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2)])
    obs = PolynomialObservable(ctx, [(1.0, (2, 1)), (-0.5, (0, 2)),
                                     (0.25, (0, 0))])
    check_against_dense(obs, 10)


def test_random_density_matrix_through_both_routes():
    rng = np.random.default_rng(4)
    c = 6
    g = rng.normal(size=(c * c, c * c)) + 1j * rng.normal(size=(c * c, c * c))
    matrix = g @ g.conj().T
    rho = FockDensityOperator(matrix / np.trace(matrix).real, c, 2)
    spec = GridSpec(2, 4.0, 15)
    chi = characteristic_function(rho, spec).values
    assert relative_gap(chi, dense_two_mode_traces(rho.matrix, spec, 1.0)) \
        <= REL_TOL
    # a window wide enough for the boundary-decay and normalization gates
    char = GridSpec(2, 14.0, 41)
    want = dense_symplectic_fourier(
        dense_two_mode_traces(rho.matrix, char, 1.0), char, spec)
    got = wigner_from_characteristic(characteristic_function(rho, char), spec)
    assert relative_gap(got.values, want.real) <= REL_TOL
    parity = np.kron((-1.0) ** np.arange(c), (-1.0) ** np.arange(c))
    want = dense_two_mode_traces(parity[:, None] * rho.matrix, spec, 2.0)
    got = wigner_fock_direct(rho, spec).values
    assert relative_gap(got, want.real / np.pi ** 2) <= REL_TOL


def random_tables(rng, r: int, p: int, modes: int = 2) -> list:
    return [rng.normal(size=(r, p, p)) + 1j * rng.normal(size=(r, p, p))
            for _ in range(modes)]


def test_streamed_residual_equals_dense_on_random_tables():
    rng = np.random.default_rng(13)
    for r in (1, 4, 7):
        chi = CharacteristicGrid(GridSpec(2, 3.0, 9), random_tables(rng, r, 9))
        assert chi.boundary_residual() == dense_boundary_residual(chi.values)


def test_streamed_residual_finds_a_planted_maximum_on_every_face():
    # one extra term that is a spike at (mode-1 point, mode-2 point); faces
    # are axes (q1, q2, p1, p2) at index 0 or -1, and the center is interior
    spec, p, mid = GridSpec(2, 3.0, 9), 9, 4
    rng = np.random.default_rng(14)
    faces = []
    for idx in (0, p - 1):
        faces += [((idx, mid), (mid, mid)), ((mid, mid), (idx, mid)),
                  ((mid, idx), (mid, mid)), ((mid, mid), (mid, idx))]
    for (site1, site2), on_face in ([(s, True) for s in faces]
                                    + [(((mid, mid), (mid, mid)), False)]):
        tables = [np.concatenate([0.01 * t, np.zeros((1, p, p))])
                  for t in random_tables(rng, 3, p)]
        tables[0][-1][site1] = tables[1][-1][site2] = 10.0
        chi = CharacteristicGrid(spec, tables)
        residual = chi.boundary_residual()
        assert residual == dense_boundary_residual(chi.values)
        assert (residual == 1.0) == on_face


def test_one_mode_residual_finds_a_planted_maximum_on_every_edge():
    spec, p, mid = GridSpec(1, 3.0, 9), 9, 4
    rng = np.random.default_rng(15)
    for site in ((0, mid), (p - 1, mid), (mid, 0), (mid, p - 1)):
        (table,) = random_tables(rng, 4, p, modes=1)
        table[0][site] = 100.0
        chi = CharacteristicGrid(spec, [table])
        assert chi.boundary_residual() == 1.0
        assert chi.boundary_residual() == dense_boundary_residual(chi.values)


def test_streamed_residual_of_an_odd_observable():
    # x on {q1} has chi(0) = Tr x = 0, so the max is not at the origin
    label, obs = _multiplicativity_cases(12)[0]
    assert label == "x on {q1}"
    chi = characteristic_observable(quantize_terms(obs, 12), CHAR)
    assert abs(chi.origin_value()) <= 1e-12
    assert chi.boundary_residual() == dense_boundary_residual(chi.values)


def test_streamed_residual_of_zero_and_nan_tables():
    spec = GridSpec(2, 3.0, 9)
    assert CharacteristicGrid(
        spec, [np.zeros((2, 9, 9))] * 2).boundary_residual() == 0.0
    rng = np.random.default_rng(16)
    for mode, site in ((0, (4, 4)), (1, (4, 4)), (0, (8, 2))):
        tables = random_tables(rng, 3, 9)
        tables[mode][1][site] = np.nan
        chi = CharacteristicGrid(spec, tables)
        assert np.isnan(dense_boundary_residual(chi.values))
        assert np.isnan(chi.boundary_residual())


def test_streamed_residual_never_holds_the_dense_grid():
    # the lemma's 61^4 grid: its dense chi alone is 221 MB
    obs = dict(_multiplicativity_cases(30))["xy^2 on {q1,p2}"]
    spec = default_observable_char_spec(2, 30)
    assert spec.points == 61
    chi = characteristic_observable(quantize_terms(obs, 30), spec)
    tracemalloc.start()
    try:
        chi.boundary_residual()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_lemma_characteristic_observable_holds_no_displacement_table():
    # a c x c x p^2 table of <m|D|n> at cutoff 30 on 61^2 points is 53.6 MB
    obs = dict(_multiplicativity_cases(30))["xy^2 on {q1,p2}"]
    factors = quantize_terms(obs, 30)
    spec = default_observable_char_spec(2, 30)
    tracemalloc.start()
    try:
        characteristic_observable(factors, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
