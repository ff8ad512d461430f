"""The factored (per-mode Kronecker term) quantization, characteristic
function and coherent-state symbol, the package's ladder-shift tables
among them, against the dense references they replaced: the dense
symmetrized product of c^2 x c^2 generator matrices, the dense
contraction d^T M d over a two-mode displacement table, the transform
that contracts one phase-space axis at a time and the dense
<alpha|A|alpha> over two-mode coherent kets."""

import itertools
import tracemalloc

import numpy as np

from wignerhvm.cli import _multiplicativity_cases
from wignerhvm.phase_space import Context
from wignerhvm.weyl import (PolynomialObservable, _coherent_tables,
                            _kronecker_grid, check_wigner_multiplicativity)
from wignerhvm.wigner import GridSpec

from reference import (TwoModeFock, characteristic_function,
                       characteristic_observable, coherent_symbol,
                       complex_parity_wigner, default_observable_char_spec,
                       displacement_matrix, quantize_linear,
                       quantize_polynomial, quantize_terms,
                       smoothed_polynomial, wigner_from_characteristic)

Z = GridSpec(2, 3.0, 11)
REL_TOL = 1e-12


def dense_quantize_polynomial(obs: PolynomialObservable,
                              cutoff: int) -> np.ndarray:
    """Symmetrized products of dense generator matrices, with a prefix cache."""
    n = 2 * obs.context.mode_count
    ops = [quantize_linear(e, cutoff) for e in np.eye(n)]
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


def dense_coherent_symbol(matrix: np.ndarray, spec: GridSpec) -> np.ndarray:
    """<alpha|A|alpha> on a two-mode grid from dense product kets.

    Each mode's ket is <n|D(alpha)|0> from the displacement table, and the
    two-mode ket is their Kronecker product, copied into (q1, q2, p1, p2)
    order.
    """
    axis = spec.axis
    vq, vp = np.meshgrid(axis, axis, indexing="ij")
    alphas = (vq + 1j * vp) / np.sqrt(2)
    c = round(matrix.shape[0] ** 0.5)
    ket = displacement_matrix(alphas.reshape(-1), c)[:, 0]
    kets = np.einsum("ix,jy->ijxy", ket, ket).reshape(c * c, -1)
    values = np.sum(kets.conj() * (matrix @ kets), axis=0)
    p = spec.points
    return values.reshape(p, p, p, p).transpose(0, 2, 1, 3)


def relative_gap(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def check_against_dense(obs: PolynomialObservable, cutoff: int) -> None:
    dense = dense_quantize_polynomial(obs, cutoff)
    assert relative_gap(quantize_polynomial(obs, cutoff), dense) <= REL_TOL
    want = dense_coherent_symbol(dense, Z)
    assert np.max(np.abs(want.imag)) <= REL_TOL * np.max(np.abs(want))
    symbol = coherent_symbol(quantize_terms(obs, cutoff), Z)
    assert relative_gap(symbol, want.real) <= REL_TOL
    ladder = _kronecker_grid(_coherent_tables(obs, cutoff, Z))
    assert relative_gap(ladder, want) <= REL_TOL

    # the lemma-check comparison against the dense symbol
    zblocks = Z.coordinate_blocks()
    target = smoothed_polynomial(obs, [sum(z * c for z, c in zip(g, zblocks))
                                       for g in obs.context.generators])
    report = check_wigner_multiplicativity(obs, cutoff, Z)
    sup_dev = float(np.max(np.abs(want.real - target)))
    scale = float(np.max(np.abs(want.real)))
    assert abs(report["sup_norm_deviation"] - sup_dev) <= REL_TOL * scale


def test_lemma_cases_match_dense_references():
    cases = _multiplicativity_cases()
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
    rho = TwoModeFock(matrix / np.trace(matrix).real, c)
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
    got = complex_parity_wigner(rho, spec)
    assert relative_gap(got, want.real / np.pi ** 2) <= REL_TOL


def test_lemma_characteristic_observable_holds_no_displacement_table():
    # the chi route's traces of a lemma observable, which criterion 1's
    # third route shares: a c x c x p^2 table of <m|D|n> at cutoff 30 on
    # 61^2 points would be 53.6 MB
    obs = dict(_multiplicativity_cases())["xy^2 on {q1,p2}"]
    factors = quantize_terms(obs, 30)
    spec = default_observable_char_spec(2, 30)
    tracemalloc.start()
    try:
        characteristic_observable(factors, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20

