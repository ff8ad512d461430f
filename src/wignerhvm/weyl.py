"""Weyl quantization on the truncated Fock space.

Polynomials over a commuting context quantize as the
permutation-symmetrized operator product, which on the low-energy block
coincides with the plain product.  No operator is formed as a matrix:
each product is a chain of one-mode quadratures per mode, and each
quadrature acts on the kets by two ladder shifts
(fockspace.apply_quadrature).
The way back to phase space is checked against the classical polynomial
through the vacuum-smoothed (Husimi) symbol: the Weyl symbol of A
convolved with the vacuum Wigner function is Tr[A rho_vac(z)] =
<alpha|A|alpha> with alpha = (z_q + i z_p)/sqrt(2) (Cahill & Glauber,
Phys. Rev. 177, 1882 (1969)).  The coherent-state amplitudes are exact
at any cutoff, so no transform window is involved, and the smoothing
shifts a degree-d polynomial only by computable lower-order
Gaussian-moment terms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from . import fockspace
from .phase_space import Context, random_symplectic
from .wigner import GridSpec

SYMBOL_TOL = 1e-3
# metaplectic_covariance_suite's cutoff, lemma-check's smallest
METAPLECTIC_CUTOFF = 50
# ket entries (cutoff x rows x points) _coherent_tables holds at once; a
# whole 21-point plane (2 ** 17) raised lemma-check's peak RSS by 0.5 MB
KET_BLOCK = 2 ** 12


@dataclass(frozen=True)
class PolynomialObservable:
    """f(zeta_1 . R_hat, ..., zeta_k . R_hat) for a commuting context.

    terms: sequence of (coefficient, exponents) with one exponent per
    context generator; total degree capped at 6.
    """

    context: Context
    terms: tuple

    def __init__(self, context: Context, terms):
        normalized = []
        for coef, expo in terms:
            expo = tuple(int(e) for e in expo)
            if len(expo) != context.size or any(e < 0 for e in expo):
                raise ValueError("exponent tuple does not match the context")
            if sum(expo) > 6:
                raise ValueError("total degree above 6 is not supported")
            normalized.append((float(coef), expo))
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "terms", tuple(normalized))

    def __call__(self, *values):
        """Evaluate the classical polynomial (scalars or arrays)."""
        if len(values) != self.context.size:
            raise ValueError("one argument per generator required")
        total = 0.0
        for coef, expo in self.terms:
            term = coef
            for val, e in zip(values, expo):
                if e:
                    term = term * val ** e
            total = total + term
        return total


def _symmetrized_chains(obs: PolynomialObservable) -> list:
    """Symmetric-ordering quantization as (weight, chains) terms.

    Each generator zeta . R_hat is a sum of one term per mode it acts on,
    so every ordered product of generators expands into products that pick
    one active mode per factor; chains[k] lists, left to right, the
    (zeta_q, zeta_p) pairs of the factors that picked mode k, and the
    operator is sum weight * chains[0] (x) chains[1] (x) ...
    """
    m = obs.context.mode_count
    gens = [[(k, (z[k], z[m + k])) for k in range(m) if z[k] or z[m + k]]
            for z in obs.context.generators]
    terms = []
    for coef, expo in obs.terms:
        indices = tuple(i for i, e in enumerate(expo) for _ in range(e))
        # the average over all distinct orderings of the index multiset
        perms = sorted(set(itertools.permutations(indices)))
        for perm in perms:
            for picks in itertools.product(*(gens[i] for i in perm)):
                chains = [[] for _ in range(m)]
                for k, pair in picks:
                    chains[k].append(pair)
                terms.append((coef / len(perms), chains))
    return terms


def gaussian_moment(cov: np.ndarray, counts) -> float:
    """E[prod_i g_i^counts_i] for centered jointly Gaussian g with covariance cov."""
    slots = [i for i, c in enumerate(counts) for _ in range(c)]
    if len(slots) % 2 == 1:
        return 0.0

    def pairings(items):
        if not items:
            return 1.0
        first, rest = items[0], items[1:]
        total = 0.0
        for j in range(len(rest)):
            total += cov[first, rest[j]] * pairings(rest[:j] + rest[j + 1:])
        return total

    return pairings(slots)


def _smoothing_terms(obs: PolynomialObservable) -> list:
    """The polynomial convolved with the vacuum-Wigner smoothing kernel,
    as terms with their Gaussian moments taken, for one observable on any
    values.

    Smoothing in z with covariance I/2 induces the Gaussian correction
    with covariance C_ij = zeta_i . zeta_j / 2 on the generator
    coordinates zeta_i . z.

    One (lead, rest) per nonzero moment: lead is coef * moment times the
    binomials of the generators before the first that keeps a power, and
    rest holds (i, binomial, power) for that generator and every later
    one.  _smoothed applies rest in order, so each product is the one a
    factor-by-factor evaluation forms.
    """
    gens = obs.context.generators
    cov = np.einsum("ik,jk->ij", gens, gens) / 2
    terms = []
    for coef, expo in obs.terms:
        ranges = [range(e + 1) for e in expo]
        for drop in itertools.product(*ranges):
            mom = gaussian_moment(cov, drop)
            if mom == 0.0:
                continue
            lead, rest = coef * mom, []
            for i, (e, j) in enumerate(zip(expo, drop)):
                if rest or e - j:
                    rest.append((i, comb(e, j), e - j))
                else:
                    lead = lead * comb(e, j)
            terms.append((lead, rest))
    return terms


def _smoothed(terms: list, values: list[np.ndarray]):
    """The sum of _smoothing_terms at the generator values: values[i] is
    the array of coordinates zeta_i . z on the comparison grid."""
    total = 0.0
    for lead, rest in terms:
        term = lead
        for i, binomial, power in rest:
            term = term * binomial
            if power:
                term = term * values[i] ** power
        total = total + term
    return total


def _kronecker_grid(tables) -> np.ndarray:
    """sum_s tables[0][s] (x) tables[1][s] with axes (q_1..q_m, p_1..p_m)."""
    if len(tables) == 1:
        return tables[0].sum(axis=0)
    return np.tensordot(*tables, axes=([0], [0])).transpose(0, 2, 1, 3)


def _require_real(scale, imag, tol: float) -> None:
    """Raise unless imag (max |imag|) is within tol times scale (max |real|)."""
    if imag > tol * max(scale, 1e-300):
        raise ValueError(f"imaginary residue {imag:.2e} too large")


def _coherent_tables(obs: PolynomialObservable, cutoff: int,
                     spec: GridSpec) -> list[np.ndarray]:
    """T_k[s, i, j] = <alpha|B_sk|alpha> at alpha = (axis[i] + i axis[j]) /
    sqrt(2), over spec's (z_q, z_p) plane, for each mode k and each term s
    of _symmetrized_chains, the term's weight in T_0.

    Built one block of z_q rows at a time, at most KET_BLOCK ket entries,
    so the ket is a (c, rows, p) table that every term shares: 6 rows at
    cutoff 30, one from cutoff 196 on, at 21 points.  Each chain acts on
    the ket right to left by fockspace.apply_quadrature, and the result
    meets the bra in an unoptimized np.einsum; no operator matrix is
    formed and no BLAS is called.
    """
    axis, terms = spec.axis, _symmetrized_chains(obs)
    tables = [np.zeros((len(terms), spec.points, spec.points), dtype=complex)
              for _ in range(obs.context.mode_count)]
    step = max(1, KET_BLOCK // (cutoff * spec.points))
    for start in range(0, spec.points, step):
        rows = slice(start, start + step)
        ket = fockspace.coherent_amplitudes(
            (axis[rows, None] + 1j * axis) / np.sqrt(2), cutoff)
        bra = ket.conj()
        for s, (weight, chains) in enumerate(terms):
            for k, (chain, table) in enumerate(zip(chains, tables)):
                moved = ket
                for zeta in reversed(chain):
                    moved = fockspace.apply_quadrature(zeta, moved)
                value = np.einsum("nip,nip->ip", bra, moved)
                table[s, rows] = weight * value if k == 0 else value
    return tables


def _symbol_deviations(tables, spec: GridSpec, target, inner: slice):
    """Sup-norm distance of sum_s prod_k tables[k][s] from a target.

    The grid, with axes (q_1..q_m, p_1..p_m), is formed one first-axis
    (z_q1) slab at a time, so no array the size of the z grid is held;
    target(blocks) gives the comparison function on a slab's coordinate
    blocks, spec's with block 0 sliced to the slab.  Each slab has the
    bits of the whole grid's, and the sups are maxima, which do not round.
    Returns (sup, inner_sup): the largest |grid - target| over the grid
    and over the window `inner` of every axis.  After the last slab, a max
    |imag| above 1e-6 max |real|, or a non-finite real part, raises
    ValueError.
    """
    m = spec.mode_count
    blocks = list(spec.coordinate_blocks())
    window = (slice(None),) + (inner,) * (2 * m - 1)
    inner_rows = range(spec.points)[inner]
    # np.maximum, not max(): a NaN in any slab must reach the result
    sup = inner_sup = scale = imag = 0.0
    for i in range(spec.points):
        rows = slice(i, i + 1)
        raw = _kronecker_grid([tables[0][:, rows]] + tables[1:])
        scale = np.maximum(scale, np.max(np.abs(raw.real)))
        imag = np.maximum(imag, np.max(np.abs(raw.imag)))
        deviation = np.abs(raw.real - target([blocks[0][rows]] + blocks[1:]))
        sup = np.maximum(sup, np.max(deviation))
        if i in inner_rows:
            inner_sup = np.maximum(inner_sup, np.max(deviation[window]))
    _require_real(float(scale), float(imag), 1e-6)
    if not np.isfinite(scale):
        raise ValueError("symbol contains non-finite values")
    return float(sup), float(inner_sup)


def check_wigner_multiplicativity(obs: PolynomialObservable, cutoff: int,
                                  z_spec: GridSpec | None = None,
                                  case: str = "") -> dict:
    """Compare the vacuum-smoothed symbol of the quantized polynomial with
    the smoothed polynomial.

    The smoothed symbol at z is <alpha|A|alpha>, alpha = (z_q + i z_p) /
    sqrt(2), and the displaced vacuum is a product state, so it is
    sum_s prod_k T_k[s] over the per-mode tables of _coherent_tables.  The
    report records the sup-norm deviation over the trusted window and over
    its inner half; deviations concentrated at the window edge are flagged
    as truncation-dominated rather than failed.
    """
    m = obs.context.mode_count
    z_spec = z_spec or (GridSpec(1, 3.0, 41) if m == 1 else GridSpec(2, 3.0, 21))
    tables = _coherent_tables(obs, cutoff, z_spec)
    smoothing = _smoothing_terms(obs)  # once, not once per slab

    def target(blocks):
        # a zero coefficient adds a signed zero, which moves no |deviation|,
        # and would broadcast the generator's values over that axis
        return _smoothed(smoothing, [
            sum(z * c for z, c in zip(gen, blocks) if z)
            for gen in obs.context.generators])

    # the inner half-window sup detects edge-concentrated truncation error
    pts = z_spec.points
    sup_dev, inner_sup = _symbol_deviations(
        tables, z_spec, target, slice(pts // 4, pts - pts // 4))

    passed = sup_dev < SYMBOL_TOL
    flagged = (not passed) and (inner_sup < 0.1 * sup_dev)
    return {
        "case": case or _describe(obs),
        "sup_norm_deviation": sup_dev,
        "inner_sup_deviation": inner_sup,
        "trusted_window": z_spec.halfwidth,
        "cutoff": cutoff,
        "pass": bool(passed),
        "truncation_flagged": bool(flagged),
    }


def _describe(obs: PolynomialObservable) -> str:
    parts = []
    for coef, expo in obs.terms:
        mono = "*".join(f"y{i + 1}^{e}" for i, e in enumerate(expo) if e)
        parts.append(f"{coef:g}*{mono}" if mono else f"{coef:g}")
    return " + ".join(parts)


def metaplectic_covariance_suite(rng: np.random.Generator, trials: int = 20,
                                 cutoff: int = METAPLECTIC_CUTOFF,
                                 block: int = 12) -> dict:
    """Random single-mode covariance check: conjugation maps labels by S^T.

    Compared on a low block only: M(S) is exact element by element, but
    M^dag op M is a sum truncated at the cutoff, and a squeezed column's
    weight past the cutoff falls off only geometrically in tanh(r).  So the
    block sits well below the cutoff and the random squeezes stay moderate.

    Every (S, zeta) is drawn first, in the order a draw-and-check loop
    takes them; the first `block` columns of every M(S) are then built by
    one stacked recurrence (fockspace.metaplectic_operators).  Each block
    of M^dag op M is op M by fockspace.apply_quadrature and an unoptimized
    np.einsum, which calls no BLAS, compared with S^T zeta applied to the
    identity of the block: the low block of the truncated quadrature is
    the smaller cutoff's.
    """
    draws = []
    for _ in range(trials):
        S = random_symplectic(1, rng, scale=0.15)
        zeta = rng.uniform(-1.5, 1.5, size=2)
        if not np.any(zeta):
            zeta = np.array([1.0, 0.0])
        draws.append((S, zeta))
    operators = fockspace.metaplectic_operators([S for S, _ in draws], cutoff,
                                                block)
    eye = np.eye(block)
    worst = 0.0
    for (S, zeta), M in zip(draws, operators):
        moved = np.einsum("ia,ib->ab", M.conj(),
                          fockspace.apply_quadrature(zeta, M))
        want = fockspace.apply_quadrature(np.einsum("ij,i->j", S, zeta), eye)
        worst = max(worst, float(np.max(np.abs(moved - want))))
    return {"trials": trials, "cutoff": cutoff, "block": block,
            "max_deviation": worst, "tolerance": 1e-6,
            "pass": bool(worst <= 1e-6)}
