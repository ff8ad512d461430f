import numpy as np
import pytest

from wignerhvm import fockspace, weyl
from wignerhvm.cli import _multiplicativity_cases, main
from wignerhvm.phase_space import Context
from wignerhvm.weyl import (PolynomialObservable, _coherent_tables,
                            _kronecker_grid, _symbol_deviations,
                            check_wigner_multiplicativity, gaussian_moment,
                            metaplectic_covariance_suite)
from wignerhvm.wigner import GridSpec

from reference import (chi_route_symbol, coherent_symbol,
                       coherent_table_by_rows, monomial, position_operator,
                       quantize_linear, quantize_polynomial, quantize_terms,
                       smoothed_polynomial, trialwise_covariance_suite,
                       trusted_block_mask, whole_grid_symbol_deviations)

CUTOFF = 40


def plain_product(obs: PolynomialObservable, cutoff: int) -> np.ndarray:
    """Left-to-right dense operator product, no symmetrization."""
    gens = [quantize_linear(z, cutoff) for z in obs.context.generators]
    dim = gens[0].shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    for coef, expo in obs.terms:
        term = coef * np.eye(dim, dtype=complex)
        for i, e in enumerate(expo):
            for _ in range(e):
                term = term @ gens[i]
        out += term
    return out


def ctx_single():
    return Context([[1.0, 0.0]])


def ctx_two_positions():
    e = np.eye(4)
    return Context([e[0], e[1]])


def ctx_q1_p2():
    e = np.eye(4)
    return Context([e[0], e[3]])


def test_quantize_linear_position_matrix():
    q = quantize_linear([1, 0], 8)
    for n in range(7):
        assert abs(q[n, n + 1] - np.sqrt((n + 1) / 2)) < 1e-14
        assert abs(q[n + 1, n] - np.sqrt((n + 1) / 2)) < 1e-14
    assert np.max(np.abs(np.diag(q))) == 0


def test_quantize_linear_zero_vector():
    z = quantize_linear([0, 0], 6)
    assert np.max(np.abs(z)) == 0


def test_canonical_commutator_below_edge():
    q = quantize_linear([1, 0], 20)
    p = quantize_linear([0, 1], 20)
    comm = q @ p - p @ q
    block = comm[:19, :19]
    assert np.max(np.abs(block - 1j * np.eye(19))) < 1e-12


def test_quantize_polynomial_degree_one():
    obs = monomial(ctx_single(), (1,))
    got = quantize_polynomial(obs, 12)
    assert np.allclose(got, quantize_linear([1, 0], 12))


def test_quantize_polynomial_cross_mode_product():
    # different tensor factors commute exactly, so the symmetrized product
    # equals the plain product with no truncation caveat
    obs = monomial(ctx_two_positions(), (1, 1))
    sym = quantize_polynomial(obs, 8)
    plain = plain_product(obs, 8)
    assert np.max(np.abs(sym - plain)) < 1e-12


def test_quantize_polynomial_square_low_block():
    obs = monomial(ctx_single(), (2,))
    got = quantize_polynomial(obs, 16)
    q = quantize_linear([1, 0], 16)
    direct = q @ q
    mask = trusted_block_mask(16, 1, 2)
    sub = np.ix_(mask, mask)
    assert np.max(np.abs(got[sub] - direct[sub])) < 1e-8


def test_symmetrized_vs_plain_on_commuting_context():
    obs = PolynomialObservable(ctx_q1_p2(), [(1.0, (1, 2)), (0.5, (2, 0))])
    cutoff = 10
    sym = quantize_polynomial(obs, cutoff)
    plain = plain_product(obs, cutoff)
    mask = trusted_block_mask(cutoff, 2, 3)
    sub = np.ix_(mask, mask)
    assert np.max(np.abs(sym[sub] - plain[sub])) < 1e-8


def test_polynomial_observable_validation():
    with pytest.raises(ValueError):
        PolynomialObservable(ctx_single(), [(1.0, (7,))])
    with pytest.raises(ValueError):
        PolynomialObservable(ctx_single(), [(1.0, (1, 1))])


def test_polynomial_evaluation():
    obs = PolynomialObservable(ctx_q1_p2(), [(2.0, (1, 1)), (1.0, (0, 2))])
    assert obs(3.0, -1.0) == 2 * 3 * (-1) + 1.0


def conjugate(op: np.ndarray, S: np.ndarray, cutoff: int) -> np.ndarray:
    """Heisenberg action M(S)^dag op M(S) of a symplectic transformation."""
    M = fockspace.metaplectic_operator(S, cutoff)
    return M.conj().T @ op @ M


def test_conjugate_identity():
    q = quantize_linear([1, 0], 20)
    out = conjugate(q, np.eye(2), 20)
    assert np.max(np.abs(out - q)) < 1e-12


def test_conjugate_rotation_quarter_turn():
    th = np.pi / 2
    S = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    q = quantize_linear([1, 0], 30)
    got = conjugate(q, S, 30)
    want = quantize_linear(S.T @ np.array([1.0, 0.0]), 30)  # -> -p
    assert np.max(np.abs(got[:24, :24] - want[:24, :24])) < 1e-10


def test_conjugate_squeeze_scales_position():
    S = np.diag([np.exp(-0.3), np.exp(0.3)])
    q = quantize_linear([1, 0], 40)
    got = conjugate(q, S, 40)
    assert np.max(np.abs(got[:12, :12] - np.exp(-0.3) * q[:12, :12])) < 1e-6


def test_conjugate_rejects_non_symplectic():
    with pytest.raises(ValueError):
        fockspace.metaplectic_operator(2 * np.eye(2), 10)


def test_metaplectic_covariance_suite():
    rng = np.random.default_rng(0)
    report = metaplectic_covariance_suite(rng, trials=20)
    assert report["pass"]
    assert report["max_deviation"] <= 1e-6


@pytest.mark.parametrize("seed", [1, 3, 5])
def test_covariance_suite_report_matches_the_trialwise_loop(seed):
    # every draw first, then one stack of block columns: the same report
    # and the same draws
    got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
    got = metaplectic_covariance_suite(got_rng)
    assert got == trialwise_covariance_suite(want_rng)
    assert got_rng.random() == want_rng.random()


def test_gaussian_moment_formulas():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert gaussian_moment(cov, (1, 0)) == 0.0
    assert abs(gaussian_moment(cov, (2, 0)) - 2.0) < 1e-14
    assert abs(gaussian_moment(cov, (4, 0)) - 3 * 4.0) < 1e-14
    assert abs(gaussian_moment(cov, (1, 1)) - 0.3) < 1e-14
    assert abs(gaussian_moment(cov, (2, 2))
               - (2 * 1 + 2 * 0.3 ** 2)) < 1e-14


def test_smoothed_polynomial_square_shift():
    obs = monomial(ctx_single(), (2,))
    vals = [np.array([0.0, 1.0, 2.0])]
    out = smoothed_polynomial(obs, vals)
    assert np.allclose(out, vals[0] ** 2 + 0.5)


def test_multiplicativity_linear_and_square():
    rep = check_wigner_multiplicativity(monomial(ctx_single(), (1,)), CUTOFF)
    assert rep["pass"] and rep["sup_norm_deviation"] < 1e-3
    rep = check_wigner_multiplicativity(monomial(ctx_single(), (2,)), CUTOFF)
    assert rep["pass"]
    # the inner half-window is far from the truncation edge, where the
    # coherent-state symbol is the smoothed polynomial to rounding
    assert rep["inner_sup_deviation"] < 1e-12


def test_multiplicativity_cross_mode():
    # the corner of the |z| <= 3 window needs per-mode levels ~ |z|^2 + margin
    rep = check_wigner_multiplicativity(monomial(ctx_q1_p2(), (1, 1)), 26)
    assert rep["pass"], rep


def test_multiplicativity_degraded_cutoff_flagged():
    rep = check_wigner_multiplicativity(monomial(ctx_single(), (2,)), 8)
    assert not rep["pass"]
    assert rep["truncation_flagged"]
    assert rep["inner_sup_deviation"] < 0.1 * rep["sup_norm_deviation"]


def bits(values) -> list:
    return [int(np.float64(v).view(np.int64)) for v in values]


def lemma_and_monomial_cases():
    """Every lemma-check case and the one-mode monomials, each with its
    comparison plane."""
    one_mode = [(expo, monomial(ctx_single(), expo)) for expo in ((1,), (2,))]
    for label, obs in _multiplicativity_cases() + one_mode:
        m = obs.context.mode_count
        yield label, obs, (GridSpec(1, 3.0, 41) if m == 1
                           else GridSpec(2, 3.0, 21))


@pytest.mark.parametrize("cutoff", [8, 30, CUTOFF])
def test_slab_deviations_have_the_whole_grid_bits(cutoff):
    # every lemma-check case and the one-mode monomials, each symbol read
    # one first-axis slab at a time
    for label, obs, _ in lemma_and_monomial_cases():
        rep = check_wigner_multiplicativity(obs, cutoff)
        got = [rep["sup_norm_deviation"], rep["inner_sup_deviation"]]
        assert bits(got) == bits(whole_grid_symbol_deviations(obs, cutoff)), \
            label


@pytest.mark.parametrize("cutoff", [1, 2, 8, 30, 60, 200])
def test_block_tables_have_the_row_by_row_bits(cutoff, monkeypatch):
    # one ket per block of z_q rows, shared by every term, on both planes:
    # cutoff 1 and 2 put the whole plane in one block, 200 one row a block,
    # and a KET_BLOCK of 1 one row a block at every cutoff
    cases = list(lemma_and_monomial_cases())
    blocks = [_coherent_tables(obs, cutoff, z_spec)
              for _, obs, z_spec in cases]
    monkeypatch.setattr(weyl, "KET_BLOCK", 1)
    for (label, obs, z_spec), got in zip(cases, blocks):
        want = _coherent_tables(obs, cutoff, z_spec)
        assert len(got) == len(want) == obs.context.mode_count, label
        for table, row_table in zip(got, want):
            assert table.tobytes() == row_table.tobytes(), label


@pytest.mark.parametrize("cutoff", [1, 2, 8, 30, 60, 200])
def test_ladder_symbol_matches_the_dense_matrices(cutoff):
    # each chain applied to the kets by ladder shifts against the dense
    # factor stacks' nonzero diagonals, row by row
    for label, obs, z_spec in lemma_and_monomial_cases():
        got = _kronecker_grid(_coherent_tables(obs, cutoff, z_spec))
        want = _kronecker_grid([coherent_table_by_rows(stack, z_spec)
                                for stack in quantize_terms(obs, cutoff)])
        # at cutoff 1 a quadrature is 0, and so is an odd degree's symbol
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), \
            label


def test_apply_quadrature_is_the_truncated_matrix_product():
    rng = np.random.default_rng(2)
    for cutoff in (1, 2, 7, 40):
        real, imag = rng.normal(size=(2, cutoff, 3, 2))
        v = real + 1j * imag
        for zeta in ([1.0, 0.0], [0.0, 1.0], [-0.7, 1.3], [0.0, 0.0]):
            want = np.einsum("mn,nij->mij", quantize_linear(zeta, cutoff), v)
            got = fockspace.apply_quadrature(zeta, v)
            assert got.shape == v.shape
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-15 * max(
                1.0, np.max(np.abs(want)))


def test_lemma_check_builds_one_ket_per_block(tmp_path, monkeypatch):
    # cutoff 30 on 21 points: 6 z_q rows a block, so 4 blocks for each of
    # the 12 two-mode cases, where one ket per row and stack took 504
    calls = []
    amplitudes = fockspace.coherent_amplitudes

    def spy(alpha, cutoff):
        calls.append(np.shape(alpha))
        return amplitudes(alpha, cutoff)

    monkeypatch.setattr(fockspace, "coherent_amplitudes", spy)
    assert main(["lemma-check", "--cutoff", "30",
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == 48
    assert sorted(set(calls)) == [(3, 21), (6, 21)]


@pytest.mark.parametrize("cutoff", [8, 12, 30, CUTOFF])
def test_coherent_symbol_matches_the_chi_route(cutoff):
    # <alpha|A|alpha> is the damped chi's windowed transform up to the
    # window's quadrature error, which the coherent tables do not have
    for label, obs in _multiplicativity_cases():
        m = obs.context.mode_count
        z_spec = GridSpec(1, 3.0, 41) if m == 1 else GridSpec(2, 3.0, 21)
        got = _kronecker_grid(_coherent_tables(obs, cutoff, z_spec)).real
        want = chi_route_symbol(obs, cutoff, z_spec)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(got)), \
            label


@pytest.mark.parametrize("modes", [1, 2])
def test_imaginary_symbol_raises_the_residue_error(modes):
    # i q_1 is anti-Hermitian: its smoothed symbol i z_q1 has no real part.
    # An observable's coefficients are real, so its q_1 tables are made
    # imaginary by hand
    cutoff = 12
    z_spec = GridSpec(modes, 3.0, 11)
    obs = monomial(Context([np.eye(2 * modes)[0]]), (1,))
    tables = _coherent_tables(obs, cutoff, z_spec)
    tables[0] = 1j * tables[0]
    with pytest.raises(ValueError, match="imaginary residue"):
        _symbol_deviations(tables, z_spec, lambda blocks: 0.0, slice(2, 9))
    eye = np.eye(cutoff, dtype=complex)[None]
    factors = [1j * position_operator(cutoff)[None]] + [eye] * (modes - 1)
    with pytest.raises(ValueError, match="imaginary residue"):
        coherent_symbol(factors, z_spec)
