"""State constructors and Gaussian-sector dynamics.

Conventions: hbar = 1, [q, p] = i, vacuum covariance = I/2, so a coherent
state with amplitude alpha has mean (sqrt(2) Re alpha, sqrt(2) Im alpha).
Gaussian states are kept exactly as (mean, covariance); everything else is
represented on a truncated Fock space, renormalized after truncation with
the leaked weight reported.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field

import numpy as np

from . import fockspace
from .phase_space import omega

LEAKAGE_LIMIT = 1e-3
# Largest array a request may call for, in bytes: dense W and chi grids
# (counted as complex128), a Fock state's build, which also bounds its
# Wigner grid's Hermite coefficients, and hvm-compare's samples and oracle
# CDF table.
GRID_BYTES_LIMIT = 2 ** 30
# c x c complex arrays a one-mode Fock state's build holds at its peak:
# tracemalloc reads 4.02-4.18 for fock, cat and gkp and 5.03-5.10 for
# photon_subtracted_squeezed at c = 300 and 600 (the renormalized copies,
# the Hermitian check and the Cholesky factor)
STATE_BUILD_ARRAYS = 6
# the most modes whose smallest grid, 3 points per axis, is within the
# limit: 16 * 3^(2m) <= 2^30 for m <= 8
MAX_MODES = int(np.log(GRID_BYTES_LIMIT / 16) / np.log(9))

GAUSSIAN_KINDS = ("vacuum", "coherent", "squeezed", "thermal")
FOCK_KINDS = ("fock", "cat", "gkp", "photon_subtracted_squeezed")


def over_limit(subject: str, nbytes: int, spec: str = ".1f") -> str:
    """The refusal of a working set above GRID_BYTES_LIMIT: "<subject>
    needs <nbytes> GiB, above the 1 GiB limit", the GiB count in ``spec``
    below a million, to three digits above it, and past float range as a
    power of 2."""
    if nbytes.bit_length() > 1000:
        size = f"at least 2^{nbytes.bit_length() - 31}"
    else:
        value = nbytes / 2 ** 30
        size = format(value, spec if value < 1e6 else ".3g")
    return (f"{subject} needs {size} GiB, above the "
            f"{GRID_BYTES_LIMIT / 2 ** 30:.0f} GiB limit")


def short_int(n: int) -> str:
    """An integer for a message: in full below 10^12, else as d.ddde+N."""
    if abs(n) < 10 ** 12:
        return str(n)
    from decimal import Decimal  # exact at any size; only on this path
    return format(Decimal(n), ".3e")


class StateSpecError(ValueError):
    """Malformed or unsupported state specification."""


class InadequateWindowError(ValueError):
    """Grid window or resolution cannot represent the requested function."""


def require_grid_modes(modes: int) -> None:
    """Refuse more modes than a 3-point grid can have within the limit."""
    if modes > MAX_MODES:
        raise InadequateWindowError(
            f"a grid over more than {MAX_MODES} modes needs more than the "
            f"{GRID_BYTES_LIMIT / 2 ** 30:.0f} GiB array limit even at 3 "
            "points per axis")


class LeakageError(ValueError):
    """Truncation removed more weight than the tolerance allows."""

    def __init__(self, leakage, cutoff):
        self.leakage = leakage
        self.cutoff = cutoff
        super().__init__(
            f"truncation leakage {leakage:.3e} exceeds {LEAKAGE_LIMIT:.0e} "
            f"at cutoff {cutoff}; increase the cutoff")


@dataclass
class GaussianState:
    """Mean vector and covariance matrix in (q-block, p-block) ordering."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(-1)
        self.covariance = np.asarray(self.covariance, dtype=float)
        n = self.mean.size
        if n % 2 != 0 or self.covariance.shape != (n, n):
            raise ValueError("mean/covariance dimensions inconsistent")
        if not all(np.isfinite(a).all() for a in (self.mean, self.covariance)):
            raise InadequateWindowError(
                "Gaussian mean or covariance overflows to a non-finite value")
        if np.max(np.abs(self.covariance - self.covariance.T)) > 1e-12:
            raise ValueError("covariance is not symmetric")
        heis = self.covariance + 0.5j * omega(n // 2)
        if np.min(np.linalg.eigvalsh(heis)) < -1e-10:
            raise ValueError("covariance violates the uncertainty relation")

    @property
    def mode_count(self) -> int:
        return self.mean.size // 2

    def purity(self) -> float:
        with np.errstate(over="ignore"):  # an inf det is purity 0
            return float(1.0 / np.sqrt(np.linalg.det(2 * self.covariance)))


@dataclass
class FockDensityOperator:
    """Density matrix on the truncated multimode Fock basis."""

    matrix: np.ndarray
    cutoff: int
    mode_count: int
    leakage: float = 0.0

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        dim = self.cutoff ** self.mode_count
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"cutoff^modes = {dim}")
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        tr = float(np.trace(self.matrix).real)
        if abs(tr - 1.0) > 1e-6:
            raise ValueError(f"trace {tr} deviates from 1 beyond tolerance")
        try:  # M + 1e-10 I factors iff no eigenvalue of M is below -1e-10
            np.linalg.cholesky(self.matrix + 1e-10 * np.eye(dim))
        except np.linalg.LinAlgError:
            raise ValueError("density matrix is not positive semidefinite")

    @property
    def dim(self) -> int:
        return self.cutoff ** self.mode_count

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclass
class GaussianChannel:
    """Gaussian CPTP map acting as mean -> X mean + d, cov -> X cov X^T + Y."""

    X: np.ndarray
    Y: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.Y = np.asarray(self.Y, dtype=float)
        self.d = np.asarray(self.d, dtype=float).reshape(-1)
        n = self.d.size
        if self.X.shape != (n, n) or self.Y.shape != (n, n) or n % 2 != 0:
            raise ValueError("channel dimensions inconsistent")
        if not all(np.isfinite(a).all() for a in (self.X, self.Y, self.d)):
            raise ValueError("channel entries must be finite")
        if np.max(np.abs(self.Y - self.Y.T)) > 1e-12:
            raise ValueError("Y is not symmetric")
        w = omega(n // 2)
        cp = self.Y + 0.5j * (w - self.X @ w @ self.X.T)
        if np.min(np.linalg.eigvalsh(cp)) < -1e-10:
            raise ValueError("channel violates complete positivity")

    @property
    def mode_count(self) -> int:
        return self.d.size // 2


@dataclass(frozen=True)
class StateSpec:
    """Declarative state description: kind + parameters (+ modes, cutoff)."""

    kind: str
    params: dict = field(default_factory=dict)
    modes: int = 1
    cutoff: int | None = None

    @staticmethod
    def from_json(text_or_dict) -> "StateSpec":
        if isinstance(text_or_dict, str):
            try:
                raw = json.loads(text_or_dict)
            except ValueError as exc:  # also an integer past 4300 digits
                raise StateSpecError(f"invalid state JSON: {exc}") from exc
        else:
            raw = text_or_dict
        if not isinstance(raw, dict) or "kind" not in raw:
            raise StateSpecError("state spec must be an object with a 'kind'")
        known = {"kind", "params", "modes", "cutoff"}
        extra = set(raw) - known
        if extra:
            raise StateSpecError(f"unknown state spec fields: {sorted(extra)}")
        modes = _integer(raw.get("modes", 1), "modes")
        if modes < 1:
            raise StateSpecError(f"'modes' must be at least 1, not {modes}")
        try:
            return StateSpec(
                kind=str(raw["kind"]),
                params=dict(raw.get("params", {})),
                modes=modes,
                cutoff=None if raw.get("cutoff") is None
                else _integer(raw["cutoff"], "cutoff"),
            )
        except (TypeError, ValueError) as exc:
            raise StateSpecError(f"malformed state spec: {exc}") from exc

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params),
                "modes": self.modes, "cutoff": self.cutoff}

    @property
    def fock_cutoff(self) -> int:
        """The truncation make_state uses for the Fock kinds."""
        return self.cutoff if self.cutoff is not None else 30


def _as_complex(value, name: str) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_number(value[0], name), _number(value[1], name))
    if isinstance(value, (int, float)):
        return complex(_number(value, name))
    raise StateSpecError(f"parameter '{name}' must be a number or [re, im]")


def _number(value, name: str) -> float:
    """Convert a spec parameter, reporting a malformed one as a spec error."""
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise StateSpecError(f"parameter '{name}' must be a number") from exc
    if not np.isfinite(number):  # JSON admits NaN and Infinity
        raise StateSpecError(f"parameter '{name}' must be finite")
    return number


def _integer(value, name: str) -> int:
    """An integral spec field; fractions and booleans are errors, not truncated."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool):
        raise StateSpecError(f"'{name}' must be an integer, not a boolean")
    try:
        return operator.index(value)
    except TypeError as exc:
        raise StateSpecError(f"'{name}' must be an integer") from exc


def _renormalized(matrix: np.ndarray, cutoff: int, mode_count: int,
                  weight: float) -> FockDensityOperator:
    """Package a truncated matrix; weight is the trace before truncation."""
    tr = float(np.trace(matrix).real)
    # a trace past float range (or NaN) keeps none of the weight
    leakage = float(max(weight - tr, 0.0)) if np.isfinite(tr) else weight
    if leakage > LEAKAGE_LIMIT:
        raise LeakageError(leakage, cutoff)
    matrix = (matrix + matrix.conj().T) / 2
    return FockDensityOperator(matrix / tr, cutoff, mode_count, leakage)


def _pure_from_coefficients(coeffs: np.ndarray, cutoff: int) -> FockDensityOperator:
    """Pure state from Fock coefficients whose untruncated norm is 1."""
    return _renormalized(np.outer(coeffs, coeffs.conj()), cutoff, 1, 1.0)


def vacuum_state(modes: int = 1) -> GaussianState:
    return GaussianState(np.zeros(2 * modes), 0.5 * np.eye(2 * modes))


def coherent_state(alpha, modes: int = 1) -> GaussianState:
    alphas = np.atleast_1d(np.asarray(alpha))
    if alphas.size != modes:
        raise StateSpecError("one amplitude per mode required")
    with np.errstate(over="ignore"):  # GaussianState refuses an inf mean
        mean = np.sqrt(2) * np.concatenate([alphas.real, alphas.imag])
    return GaussianState(mean.astype(float), 0.5 * np.eye(2 * modes))


def squeezed_state(r: float, theta: float = 0.0) -> GaussianState:
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    with np.errstate(over="ignore", invalid="ignore"):
        cov = rot @ np.diag([np.exp(-2 * r), np.exp(2 * r)]) @ rot.T / 2
    if not np.isfinite(cov).all():  # e^(2|r|) overflows
        raise InadequateWindowError(
            f"squeezing r = {r} overflows the covariance; no grid can "
            "resolve the state")
    # the rotated product is symmetric only up to rounding of e^(2|r|)
    return GaussianState(np.zeros(2), (cov + cov.T) / 2)


def thermal_state(nbar: float, modes: int = 1) -> GaussianState:
    if nbar < 0:
        raise StateSpecError("mean photon number must be nonnegative")
    return GaussianState(np.zeros(2 * modes), (nbar + 0.5) * np.eye(2 * modes))


def fock_state(n: int, cutoff: int) -> FockDensityOperator:
    if n < 0:
        raise StateSpecError("photon number must be nonnegative")
    if cutoff < n + 2:
        raise StateSpecError(f"cutoff {cutoff} too small for fock({n})")
    coeffs = np.zeros(cutoff, dtype=complex)
    coeffs[n] = 1.0
    return _pure_from_coefficients(coeffs, cutoff)


def cat_state(alpha, cutoff: int) -> FockDensityOperator:
    """Even cat state, coefficients prop. to (alpha^n + (-alpha)^n)/sqrt(n!)."""
    alpha = _as_complex(alpha, "alpha")
    n = np.arange(cutoff)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(n[1:]))])  # log n!
    # past float range these turn inf or NaN, and _renormalized refuses them
    with np.errstate(over="ignore", invalid="ignore"):
        amps = (alpha ** n + (-alpha) ** n) * np.exp(-0.5 * log_fact)
        x = np.abs(alpha) ** 2
        # exact norm of the untruncated coefficient sequence
        norm = np.sqrt(4 * np.cosh(x) * np.exp(-x)) * np.exp(x / 2)
        coeffs = amps / norm
    return _pure_from_coefficients(coeffs, cutoff)


def gkp_state(delta: float, cutoff: int) -> FockDensityOperator:
    """Square-lattice grid state with Gaussian peaks and envelope width delta.

    psi(q) = sum_s exp(-delta^2 (2 s sqrt(pi))^2 / 2)
                   * exp(-(q - 2 s sqrt(pi))^2 / (2 delta^2)),
    expanded over the oscillator eigenbasis by quadrature, one streamed basis
    row at a time: a few 8192-point rows, whatever the cutoff."""
    if delta <= 0:
        raise StateSpecError("peak width must be positive")
    spacing = 2 * np.sqrt(np.pi)
    with np.errstate(over="ignore", invalid="ignore"):
        s_max = np.ceil(np.sqrt(45.0) / (delta * spacing)) + 1
        q_max = s_max * spacing + 10 * delta
        axis = np.linspace(-q_max, q_max, 8192)
        spread = (2 * q_max) ** 2  # largest (q - mu)^2 the peaks evaluate
    # refuses a tiny delta before its endless loop over peaks (or overflow)
    if not axis[1] - axis[0] < delta:
        raise StateSpecError("peak width is below the quadrature step")
    if not np.isfinite(spread):
        raise StateSpecError("peak width is too large to evaluate")
    psi = np.zeros_like(axis)
    for mu in spacing * np.arange(-int(s_max), int(s_max) + 1):
        psi += np.exp(-0.5 * (delta * mu) ** 2) * np.exp(
            -((axis - mu) ** 2) / (2 * delta ** 2))
    psi /= np.sqrt(np.trapezoid(psi ** 2, axis))
    coeffs = np.array([np.trapezoid(row * psi, axis)
                       for row in fockspace.hermite_rows(cutoff - 1, axis)])
    return _pure_from_coefficients(coeffs, cutoff)


def photon_subtracted_squeezed_state(r: float, cutoff: int) -> FockDensityOperator:
    """a S(r)|0>, proportional to the squeezed single photon S(r)|1>."""
    if r == 0:
        raise StateSpecError("photon subtraction needs nonzero squeezing")
    with np.errstate(over="ignore"):
        squeeze = np.diag([np.exp(-r), np.exp(r)])  # M^dag q M = e^(-r) q
    if not np.isfinite(squeeze).all():  # the kept weight underflows to 0
        raise LeakageError(1.0, cutoff)
    return _pure_from_coefficients(
        fockspace.metaplectic_operator(squeeze, cutoff)[:, 1], cutoff)


def check_state_spec(spec: StateSpec) -> None:
    """Checks make_state runs before building: the kind, the Fock cutoff and
    modes, and the build's STATE_BUILD_ARRAYS c x c complex arrays to the
    limit; gkp adds no cutoff x 8192 table."""
    kind = spec.kind
    cutoff = spec.fock_cutoff
    if kind not in GAUSSIAN_KINDS + FOCK_KINDS:
        raise StateSpecError(f"unknown state kind '{kind}'")
    if kind in FOCK_KINDS and cutoff < 2:
        raise StateSpecError("cutoff must be at least 2")
    if kind in FOCK_KINDS and spec.modes != 1:
        raise StateSpecError(f"'{kind}' is a single-mode state")
    require_grid_modes(spec.modes)
    nbytes = 16 * STATE_BUILD_ARRAYS * cutoff ** 2 if kind in FOCK_KINDS else 0
    if nbytes > GRID_BYTES_LIMIT:  # one mode
        raise InadequateWindowError(over_limit(
            f"building a cutoff-{short_int(cutoff)} state", nbytes)
            + "; use a smaller cutoff")


def make_state(spec: StateSpec):
    """Build the state for a spec: Gaussian kinds exactly, the rest on Fock."""
    check_state_spec(spec)
    kind = spec.kind
    params = spec.params
    cutoff = spec.fock_cutoff
    try:
        if kind == "vacuum":
            return vacuum_state(spec.modes)
        if kind == "coherent":
            alpha = params.get("alpha", 1.0)
            if isinstance(alpha, (list, tuple)) and spec.modes > 1:
                alphas = [_as_complex(a, "alpha") for a in alpha]
            else:
                alphas = [_as_complex(alpha, "alpha")] * spec.modes
            return coherent_state(np.array(alphas), spec.modes)
        if kind == "squeezed":
            if spec.modes != 1:
                raise StateSpecError("'squeezed' is a single-mode state")
            return squeezed_state(_number(params.get("r", 0.5), "r"),
                                  _number(params.get("theta", 0.0), "theta"))
        if kind == "thermal":
            return thermal_state(_number(params.get("nbar", 1.0), "nbar"),
                                 spec.modes)
        if kind == "fock":
            return fock_state(_integer(params.get("n", 1), "n"), cutoff)
        if kind == "cat":
            return cat_state(params.get("alpha", 2.0), cutoff)
        if kind == "gkp":
            return gkp_state(_number(params.get("delta", 0.3), "delta"),
                             cutoff)
        return photon_subtracted_squeezed_state(
            _number(params.get("r", 0.5), "r"), cutoff)
    except (TypeError, KeyError) as exc:
        raise StateSpecError(f"bad parameters for '{kind}': {exc}") from exc


def apply_gaussian_channel(state: GaussianState,
                           channel: GaussianChannel) -> GaussianState:
    if channel.mode_count != state.mode_count:
        raise ValueError("channel/state mode mismatch")
    # an overflow reaches GaussianState's finiteness check, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        mean = channel.X @ state.mean + channel.d
        cov = channel.X @ state.covariance @ channel.X.T + channel.Y
    return GaussianState(mean, cov)


def compose_channels(first: GaussianChannel,
                     second: GaussianChannel) -> GaussianChannel:
    """Channel equal to applying `first` then `second`."""
    if first.mode_count != second.mode_count:
        raise ValueError("channel dimension mismatch")
    # an overflow reaches GaussianChannel's finiteness check, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        X = second.X @ first.X
        Y = second.X @ first.Y @ second.X.T + second.Y
        d = second.X @ first.d + second.d
    return GaussianChannel(X, Y, d)


def identity_channel(modes: int = 1) -> GaussianChannel:
    n = 2 * modes
    return GaussianChannel(np.eye(n), np.zeros((n, n)), np.zeros(n))


def loss_channel(eta: float, modes: int = 1) -> GaussianChannel:
    """Pure loss with transmissivity eta; the vacuum is its fixed point."""
    if not 0 < eta <= 1:
        raise ValueError("transmissivity must be in (0, 1]")
    n = 2 * modes
    return GaussianChannel(np.sqrt(eta) * np.eye(n),
                           (1 - eta) / 2 * np.eye(n), np.zeros(n))


def gaussian_to_fock(state: GaussianState, cutoff: int) -> FockDensityOperator:
    """Truncated-Fock representation of a Gaussian state, renormalized.

    Exact truncated elements <k|rho|l> from the Bargmann recurrence of
    `fockspace.metaplectic_operator`, here with a first-order term, over
    k = (ket modes, bra modes).  In complex coordinates
    T = [[I, iI], [I, -iI]] / sqrt(2), Q = T sigma T^dag + I/2 and
    gamma = T mean; with the ket/bra swap X = [[0, I], [I, 0]],
    A = X (I - Q^-1)*, b = X (Q^-1 gamma)* and
    G_0 = exp(-gamma^dag Q^-1 gamma / 2) / sqrt(det Q).  The leakage is
    1 - Tr of the exact truncated matrix.
    """
    m = state.mode_count
    if m > 2:
        raise ValueError("dense Fock representation supported for m <= 2")
    eye, zero = np.eye(m), np.zeros((m, m))
    T = np.block([[eye, 1j * eye], [eye, -1j * eye]]) / np.sqrt(2)
    X = np.block([[zero, eye], [eye, zero]])
    Qinv = np.linalg.inv(T @ state.covariance @ T.conj().T + np.eye(2 * m) / 2)
    gamma = T @ state.mean
    g0 = (np.exp(-0.5 * (gamma.conj() @ Qinv @ gamma).real)
          * np.sqrt(np.linalg.det(Qinv).real))
    G = fockspace._bargmann((X @ (np.eye(2 * m) - Qinv).conj())[None],
                            (X @ (Qinv @ gamma).conj())[None], [g0], cutoff)
    rho = G.reshape(cutoff ** m, cutoff ** m)
    return _renormalized(rho, cutoff, m, weight=1.0)
