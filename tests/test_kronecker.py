"""The factored (per-mode Kronecker term) quantization, characteristic
function and symplectic Fourier transform against the dense references
they replaced: the dense symmetrized product of c^2 x c^2 generator
matrices, the dense contraction d^T M d over a two-mode displacement table,
the reordered X^T Y product of per-mode trace tables, the transform that
contracts one phase-space axis at a time and the boundary residual read off
the dense grid."""

import gc
import itertools
import tracemalloc

import numpy as np

from wignerhvm import wigner
from wignerhvm.cli import _multiplicativity_cases
from wignerhvm.phase_space import Context
from wignerhvm.states import FockDensityOperator
from wignerhvm.weyl import (PolynomialObservable,
                            check_wigner_multiplicativity,
                            default_observable_char_spec, quantize_linear,
                            quantize_terms)
from wignerhvm.wigner import (CharacteristicGrid, GridSpec,
                              characteristic_observable, wigner_fock_direct)

from reference import (characteristic_function, displacement_matrix,
                       origin_value, quantize_polynomial, smoothed_polynomial,
                       whole_grid_weyl_symbol, wigner_from_characteristic)

CHAR = GridSpec(2, 10.0, 21)
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
    """Largest |chi| over the faces of the box, relative to the global max.

    On two modes np.tensordot rounds some elements of the grid differently
    from the whole products whose row runs boundary_residual takes, so the
    two agree to rounding; unpruned_boundary_residual has those products'
    bits.
    """
    worst = max(float(np.max(np.abs(np.take(values, idx, axis=ax))))
                for ax in range(values.ndim) for idx in (0, -1))
    return worst / float(np.max(np.abs(values)))


def unpruned_boundary_residual(chi: CharacteristicGrid) -> float:
    """Every slab of a^T b, and the whole ring products a[:, ring]^T b and
    a^T b[:, ring], with a, b the two tables as (r, p^2) blocks."""
    p = chi.spec.points
    a, b = (t.reshape(len(t), p * p) for t in chi.tables)
    ring = np.ones((p, p), dtype=bool)
    ring[1:-1, 1:-1] = False
    ring = ring.reshape(-1)
    top = max(np.max(np.abs(a[:, i * p:(i + 1) * p].T @ b)) for i in range(p))
    edge = max(np.max(np.abs(a[:, ring].T @ b)),
               np.max(np.abs(a.T @ b[:, ring])))
    return float(edge) / float(top)


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
    symbol, residual = whole_grid_weyl_symbol(chi, Z)
    assert relative_gap(symbol.values, dense_weyl_symbol(want)) <= REL_TOL
    assert relative_gap(residual, dense_boundary_residual(want)) <= REL_TOL
    assert chi.boundary_residual() == unpruned_boundary_residual(chi)

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
        assert chi.boundary_residual() == unpruned_boundary_residual(chi)
        assert relative_gap(chi.boundary_residual(),
                            dense_boundary_residual(chi.values)) <= REL_TOL


def test_pruned_residual_keeps_the_bits_of_the_whole_products():
    # the ring of one mode is raised so the edge max lies on its face, or
    # neither is; a matrix-vector product per ring point, or a share of the
    # columns of b, rounds differently from these.  An odd p^2 is 1 mod 8,
    # so the last run of mode-1 points is 9 long.  81 points take the
    # extreme term counts only: each unpruned case there takes 0.3 s
    rng = np.random.default_rng(17)
    for p in (9, 21, 23, 41, 61, 81):
        raise_ring = np.full((p, p), 3.0)
        raise_ring[1:-1, 1:-1] = 1.0
        for r in ((1, 8) if p == 81 else (1, 2, 3, 5, 8)):
            for face in (None, 0, 1):
                tables = random_tables(rng, r, p)
                if face is not None:
                    tables[face] *= raise_ring
                chi = CharacteristicGrid(GridSpec(2, 3.0, p), tables)
                assert chi.boundary_residual() == \
                    unpruned_boundary_residual(chi), (p, r, face)


def test_residual_run_length_moves_no_bit(monkeypatch):
    # runs of 2 leave a last run of 3 on p^2 points and of 2 on the ring;
    # a run longer than the points is one block of them all
    rng = np.random.default_rng(18)
    cases = []
    for p, r, face in ((9, 3, 0), (21, 5, 1), (23, 8, 0)):
        raise_ring = np.full((p, p), 3.0)
        raise_ring[1:-1, 1:-1] = 1.0
        tables = random_tables(rng, r, p)
        tables[face] *= raise_ring
        cases.append(CharacteristicGrid(GridSpec(2, 3.0, p), tables))
    want = [unpruned_boundary_residual(chi) for chi in cases]
    for run in (2, 3, 5, 8, 16, 10 ** 6):
        monkeypatch.setattr(wigner, "RESIDUAL_RUN_POINTS", run)
        assert [chi.boundary_residual() for chi in cases] == want, run


def test_pruned_residual_holds_one_run_of_rows():
    # the parent form held a (p, p^2) complex slab product and its |.|:
    # 5.3 MB at 61 points; a run of 8 mode-1 points holds 0.7 MB
    rng = np.random.default_rng(19)
    chi = CharacteristicGrid(GridSpec(2, 3.0, 61), random_tables(rng, 3, 61))
    chi.boundary_residual()
    tracemalloc.start()
    try:
        chi.boundary_residual()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


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
        assert residual == unpruned_boundary_residual(chi)
        assert (residual == 1.0) == on_face


def test_one_mode_residual_finds_a_planted_maximum_on_every_edge():
    spec, p, mid = GridSpec(1, 3.0, 9), 9, 4
    rng = np.random.default_rng(15)
    for site in ((0, mid), (p - 1, mid), (mid, 0), (mid, p - 1)):
        (table,) = random_tables(rng, 4, p, modes=1)
        table[0][site] = 100.0
        chi = CharacteristicGrid(spec, [table])
        assert chi.boundary_residual() == 1.0
        # one mode's grid is the residual's own sum of the table, so its
        # faces have the same bits
        assert chi.boundary_residual() == dense_boundary_residual(chi.values)


def test_streamed_residual_of_an_odd_observable():
    # x on {q1} has chi(0) = Tr x = 0, so the max is not at the origin
    label, obs = _multiplicativity_cases(12)[0]
    assert label == "x on {q1}"
    chi = characteristic_observable(quantize_terms(obs, 12), CHAR)
    assert abs(origin_value(chi)) <= 1e-12
    assert chi.boundary_residual() == unpruned_boundary_residual(chi)


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


def planted_tables(r: int, columns_1, columns_2, p: int = 9) -> list:
    """Two (r, p, p) tables, zero but for the given (site, r-vector) columns.

    Slab i is mode 1's q index i, so a column at (i, j) sits in slab i;
    sites with 0 or p - 1 are on the ring.  The residual's runs of 8 mode-1
    points (or of 8 ring points) put each planted column of a below in a
    run of its own, so each slab named below is its own block.
    """
    tables = [np.zeros((r, p, p), dtype=complex) for _ in range(2)]
    for table, columns in zip(tables, (columns_1, columns_2)):
        for site, vector in columns:
            table[:, site[0], site[1]] = vector
    return tables


def test_pruning_visits_every_slab_after_an_all_zero_top_slab():
    # the largest-norm column is orthogonal to every mode-2 column, so the
    # slab visited first is all zero and bounds nothing below it
    tables = planted_tables(3, [((4, 4), [0, 0, 100.0]),
                                ((2, 4), [2.0, 0, 0]),
                                ((0, 3), [0.5, 0, 0])],
                            [((4, 4), [1.0, 2.0, 0])])
    chi = CharacteristicGrid(GridSpec(2, 3.0, 9), tables)
    assert chi.boundary_residual() == unpruned_boundary_residual(chi)
    assert chi.boundary_residual() == 0.25


def pruned_slab_grid(v, w, running: float) -> CharacteristicGrid:
    """A grid whose true max |v . w| is in slab 2, found after `running`.

    Slab 5 has the larger bound while |v| < 1 and yields `running` first;
    the ring holds running / 2, so pruning slab 2 would make the residual
    about 1/2.
    """
    return CharacteristicGrid(GridSpec(2, 3.0, 9), planted_tables(
        4, [((2, 4), [*v, 0]), ((5, 4), [0, 0, 0, 1.0]),
            ((0, 4), [0, 0, 0, 0.5])],
        [((4, 4), [*w, 0]), ((4, 3), [0, 0, 0, running])]))


def pruned_ring_grid(face: int):
    """Like pruned_slab_grid, with the true max on one face of the ring.

    a's columns sit in slabs 2 and 5 and b's at two points, on the ring of
    mode `face` and inside the other mode's ring.  Slab 5's block has the
    larger bound and yields `running` first; the max |v . w| is in slab
    2's, so pruning it would make the residual running / max instead of 1.
    """
    column = 0 if face == 1 else 4
    sites = [(4, 4), (4, 3)] if face == 1 else [(4, 0), (4, 8)]

    def grid(v, w, running: float) -> CharacteristicGrid:
        return CharacteristicGrid(GridSpec(2, 3.0, 9), planted_tables(
            4, [((2, column), [*v, 0]), ((5, column), [0, 0, 0, 1.0])],
            [(sites[0], [*w, 0]), (sites[1], [0, 0, 0, running])]))
    return grid


def bound_below_max(pairs, units: int, grid=pruned_slab_grid):
    """The first (v, w, max |chi|, bound) whose Cauchy-Schwarz bound, from
    np.hypot norms as the pruning takes them, lies `units` units in the
    last place below the computed max."""
    for v, w in pairs:
        top = np.max(np.abs(grid(v, w, 0.0).values))
        bound = np.hypot.reduce(np.abs(v)) * np.hypot.reduce(np.abs(w))
        if top - bound >= units * np.spacing(top):
            return v, w, top, bound
    raise AssertionError("no such pair")


def integer_columns():
    # v = w up to a power of two: exact dot products, rounded norms
    for column in itertools.product(range(1, 10), repeat=3):
        column = np.array(column, dtype=float)
        yield column / 256, column


def subnormal_columns(draws: int = 2000):
    # products below the normal range, where rounding is absolute
    rng = np.random.default_rng(21)
    for _ in range(draws):
        v = (rng.normal(size=3) + 1j * rng.normal(size=3)) * 2.0 ** -528
        yield v, v.conj() * rng.uniform(0.3, 3)


def test_pruning_keeps_a_slab_whose_bound_ties_the_running_max():
    # the rounded bound of slab 2 is one ulp below its max, and the running
    # max equals that bound exactly
    v, w, top, bound = bound_below_max(integer_columns(), 1)
    chi = pruned_slab_grid(v, w, bound)
    assert chi.boundary_residual() == unpruned_boundary_residual(chi)
    assert chi.boundary_residual() == bound / 2 / top


def test_pruning_bound_covers_its_own_rounding():
    # the rounded bound is two or more units below the max, and the running
    # max lies strictly between them: relative rounding of normal numbers
    # and absolute rounding of subnormal ones must both widen the bound
    for pairs in (integer_columns(), subnormal_columns()):
        v, w, top, bound = bound_below_max(pairs, 2)
        running = np.nextafter(top, 0)
        assert bound < running
        chi = pruned_slab_grid(v, w, running)
        assert chi.boundary_residual() == unpruned_boundary_residual(chi)
        assert chi.boundary_residual() < 0.5


def test_pruning_visits_a_nan_in_a_low_bound_slab():
    # without the NaN, slab 1's bound would be far below the max of slab 4;
    # alone, the NaN must not leave a zero running max and a residual of 0
    for columns in ([((4, 4), [10.0, 0, 0]), ((1, 2), [1e-3, np.nan, 0]),
                     ((0, 3), [0.5, 0, 0])],
                    [((1, 2), [0, np.nan, 0])]):
        tables = planted_tables(3, columns, [((4, 4), [1.0, 0, 0])])
        chi = CharacteristicGrid(GridSpec(2, 3.0, 9), tables)
        assert np.isnan(dense_boundary_residual(chi.values))
        assert np.isnan(chi.boundary_residual())


# mode 1's face: a's column 0 of each slab is on the ring and b's (4, 3)
# is inside it; mode 2's face: a's column 4 is inside and b's (4, 0) is on it
RING_FACES = {1: (0, (4, 3)), 2: (4, (4, 0))}


def test_ring_pruning_visits_every_block_after_an_all_zero_top_block():
    # slab 3's ring block has the largest bound but is orthogonal to b, so
    # it bounds nothing below it; the ring max 0.5 is in slab 6's block
    for face, (column, site) in RING_FACES.items():
        tables = planted_tables(3, [((3, column), [0, 0, 100.0]),
                                    ((6, column), [0.5, 0, 0]),
                                    ((4, 4), [0, 2.0, 0])],
                                [(site, [1.0, 0, 0]), ((4, 4), [0, 1.0, 0])])
        chi = CharacteristicGrid(GridSpec(2, 3.0, 9), tables)
        assert chi.boundary_residual() == unpruned_boundary_residual(chi)
        assert chi.boundary_residual() == 0.25, face


def test_ring_pruning_keeps_a_block_whose_bound_ties_the_running_max():
    for face in RING_FACES:
        grid = pruned_ring_grid(face)
        v, w, top, bound = bound_below_max(integer_columns(), 1, grid)
        chi = grid(v, w, bound)
        assert chi.boundary_residual() == unpruned_boundary_residual(chi)
        assert chi.boundary_residual() == 1.0, face


def test_ring_pruning_bound_covers_its_own_rounding():
    for face in RING_FACES:
        grid = pruned_ring_grid(face)
        for pairs in (integer_columns(), subnormal_columns()):
            v, w, top, bound = bound_below_max(pairs, 2, grid)
            running = np.nextafter(top, 0)
            assert bound < running
            chi = grid(v, w, running)
            assert chi.boundary_residual() == \
                unpruned_boundary_residual(chi)
            assert chi.boundary_residual() == 1.0, face


def test_ring_pruning_visits_a_nan_in_a_low_bound_block():
    # the NaN sits in a ring block whose bound, without it, would be far
    # below the ring max; the global max meets the same NaN, so this pins
    # that no skip or ordering turns the residual into a number
    for face, (column, site) in RING_FACES.items():
        for columns in ([((4, 4), [10.0, 0, 0]),
                         ((1, column), [1e-3, np.nan, 0]),
                         ((6, column), [0.5, 0, 0])],
                        [((1, column), [0, np.nan, 0])]):
            tables = planted_tables(3, columns, [(site, [1.0, 0, 0])])
            chi = CharacteristicGrid(GridSpec(2, 3.0, 9), tables)
            assert np.isnan(dense_boundary_residual(chi.values))
            assert np.isnan(chi.boundary_residual()), face


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
    assert peak < 8 * 2 ** 20


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


def test_quantize_terms_frees_its_prefix_products_on_return():
    # the ordered products are formed left to right and dropped once
    # stacked; nothing may outlive the call, even with no gc pass, or
    # lemma-check's cases would pile up
    obs = dict(_multiplicativity_cases(120))["xy^2 on {q1,q2}"]
    gc.disable()
    tracemalloc.start()
    try:
        quantize_terms(obs, 120)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 16 * 120 ** 2
