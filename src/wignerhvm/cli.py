"""Batch command-line front end.

Subcommands: wigner, negativity, hvm-compare, hudson, lemma-check,
channel-compose.  Reports are deterministic JSON (no timestamps; fixed
key order) so reruns with the same configuration are byte-identical.
Exit codes: 0 success (a contextuality witness is a finding, not an
error), 2 parse failure, 3 numerical inadequacy (window/cutoff), 4
precondition violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache, reduce
from pathlib import Path

import numpy as np

from . import hvm as hvm_mod
from . import oracle as oracle_mod
from . import states as states_mod
from . import wigner as wigner_mod
from . import weyl as weyl_mod
# the forward tolerances, which bench/workloads.py reads as cli.*
from .hvm import CHAR_TOLERANCE, EVENT_TOLERANCE, TV_TOLERANCE  # noqa: F401
from .phase_space import Context, observable_label
from .states import (GaussianChannel, LeakageError, StateSpec, StateSpecError,
                     apply_gaussian_channel, compose_channels,
                     identity_channel, loss_channel, make_state)
from .wigner import GridSpec, InadequateWindowError, MixedStateError

SCHEMA_VERSION = 4

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERICAL = 3
EXIT_PRECONDITION = 4
ERROR_EXIT = {InadequateWindowError: EXIT_NUMERICAL,
              LeakageError: EXIT_NUMERICAL, StateSpecError: EXIT_PARSE,
              MixedStateError: EXIT_PRECONDITION}

DEFAULT_OBSERVABLES = ((1.0, 0.0), (0.0, 1.0),
                       (1 / np.sqrt(2), 1 / np.sqrt(2)))

# bytes an hvm-compare bin holds beside a Fock oracle's CDF tables, by
# tracemalloc on the vacuum: 64 at 10^5 bins, 57 at 10^6 (counted as 80),
# in the oracle's normal CDF (ndtr's floats, the edges, the model's
# histogram), and 16 and at most 24 a drawing thread in sampling
HVM_BIN_BYTES = 80
HVM_THREAD_BIN_BYTES = 24

# lemma-check's working set (tracemalloc) is linear in the cutoff c: the
# metaplectic suite holds the first 12 columns of all 20 M(S), 4.48-4.88
# kB a level at cutoffs 240-4000 (c at least 50), and the multiplicativity
# cases about 1.7-2.2 kB a level from cutoff 196 on; below it they hold
# one block of kets and a few (r, p, p) tables on the 21- or 41-point z
# axis, about 0.4 MB at any cutoff (0.44 MB for the command at cutoff 8)
LEMMA_FIXED_BYTES = 2 ** 18
LEMMA_LEVEL_BYTES = 5 * 2 ** 10


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _state_spec(args) -> StateSpec:
    raw = args.state
    if not raw.lstrip().startswith("{"):
        path = Path(raw)
        if not path.exists():
            raise CliError(f"state spec file not found: {raw}", EXIT_PARSE)
        raw = path.read_text()
    spec = StateSpec.from_json(raw)
    if args.cutoff is not None and spec.cutoff is None:
        spec = StateSpec(spec.kind, spec.params, spec.modes, args.cutoff)
    return spec


def _grid_spec(args, modes: int, factors: int = 1) -> GridSpec:
    """The grid of --window and --points, or one of a product state's
    factors' grids (GridSpec.require_factors)."""
    if args.char_window is not None or args.char_points is not None:
        print("warning: --char-window and --char-points are ignored; Fock "
              "states take the Hermite route, with no transform window",
              file=sys.stderr)
    try:
        grid = GridSpec(modes, args.window, args.points)
        grid.require_factors(factors)
        return grid
    except InadequateWindowError as exc:
        raise CliError(str(exc), EXIT_NUMERICAL) from exc
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc


def _write_report(args, name: str, payload: dict) -> Path:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise CliError(f"{name} would hold a non-finite number; no report "
                       "written", EXIT_NUMERICAL) from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text + "\n")
    return path


def cmd_wigner(args) -> int:
    spec = _state_spec(args)
    # the state is built (and checked) before the grid, and is freed with
    # its cached coefficients before the grid-sized work below
    w = wigner_mod.state_wigner(make_state(spec),
                                _grid_spec(args, spec.modes))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    wigner_mod.wigner_to_csv(w, out_dir / "wigner.csv")
    payload = {"command": "wigner", "state": spec.to_dict(),
               **wigner_mod.sidecar_dict(w)}
    path = _write_report(args, "wigner.json", payload)
    print(f"wigner grid written to {out_dir / 'wigner.csv'} "
          f"(sidecar {path})")
    return EXIT_OK


def cmd_negativity(args) -> int:
    spec = _state_spec(args)
    w = wigner_mod.state_wigner(make_state(spec),
                                _grid_spec(args, spec.modes))
    payload = {"command": "negativity", "state": spec.to_dict(),
               **wigner_mod.sidecar_dict(w)}
    path = _write_report(args, "negativity.json", payload)
    print(f"min {payload['min']['value']:.6f}, negativity_volume "
          f"{payload['negativity_volume']:.6f} -> {path}")
    return EXIT_OK


def _parse_observables(args, modes: int):
    if args.observable:
        out = []
        for text in args.observable:
            try:
                vec = np.array([float(x) for x in text.split(",")])
            except ValueError as exc:
                raise CliError(f"bad observable '{text}'", EXIT_PARSE) from exc
            if not np.any(vec):
                raise CliError("observable must be nonzero", EXIT_PRECONDITION)
            try:
                out.append(observable_label(vec, modes))
            except ValueError as exc:
                raise CliError(f"observable '{text}': {exc}",
                               EXIT_PARSE) from exc
        return out
    if modes != 1:
        raise CliError("default observables exist only for one mode",
                       EXIT_PARSE)
    return [np.array(z) for z in DEFAULT_OBSERVABLES]


def cmd_hvm_compare(args) -> int:
    spec = _state_spec(args)
    if args.samples < 1:
        raise CliError("need at least one sample", EXIT_PARSE)
    if args.threads < 1:
        raise CliError("need at least one thread", EXIT_PARSE)
    # the state's own checks first, so an oversized state exits as it does
    # in every other command
    states_mod.check_state_spec(spec)
    levels = (oracle_mod.CDF_TABLES * spec.fock_cutoff ** 2
              if spec.kind in states_mod.FOCK_KINDS else 0)
    drawing = min(args.threads, -(-args.samples // hvm_mod.SAMPLE_CHUNK))
    bin_bytes = 8 * levels + max(HVM_BIN_BYTES,
                                 16 + HVM_THREAD_BIN_BYTES * drawing)
    # the samples stream into the histogram: a sorted key and its order
    # (16 bytes) are held per sample beside the bins, and a product of
    # modes adds each sample's running outcome (8 bytes)
    sample_bytes = 16 if spec.modes == 1 else 24
    nbytes = sample_bytes * args.samples + bin_bytes * (args.bins + 1)
    if nbytes > wigner_mod.GRID_BYTES_LIMIT:
        raise CliError(states_mod.over_limit(
            "the samples' and bins' working set", nbytes), EXIT_PARSE)
    state = make_state(spec)
    # every state here is a product of one-mode states, each on its own
    # one-mode grid (product.state_model)
    grid = _grid_spec(args, 1, spec.modes)
    observables = _parse_observables(args, spec.modes)
    try:
        bins = oracle_mod.BinSpec(-args.window, args.window, args.bins)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    base = {"command": "hvm-compare", "state": spec.to_dict(),
            "grid": {**grid.to_dict(), "mode_count": spec.modes},
            "seed": args.seed, "n": args.samples}
    # imported here: the other commands load no product-model code
    from . import product
    try:
        model = product.state_model(state, grid)
    except hvm_mod.NegativityError as err:
        payload = {**base, "status": "contextual", "witness": err.to_dict()}
        path = _write_report(args, "hvm_compare.json", payload)
        print(f"contextual: Wigner minimum {err.min_value:.6f} at "
              f"{err.location} -> {path}")
        return EXIT_OK

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    checks = hvm_mod.forward_check(state, model, observables, bins,
                                   args.samples, args.seed, args.threads)
    # no enumerate: its reused result tuple would hold the last bins
    for row, hvm_dist, oracle_dist in checks:
        idx = len(rows)
        oracle_mod.distribution_to_csv(hvm_dist, out_dir / f"hvm_{idx}.csv")
        oracle_mod.distribution_to_csv(oracle_dist,
                                       out_dir / f"oracle_{idx}.csv")
        rows.append({"state": spec.kind, **row})
        del hvm_dist, oracle_dist
    pts = np.random.default_rng(args.seed).uniform(-3, 3,
                                                   size=(10, 2 * spec.modes))
    char_report = hvm_mod.empirical_characteristic_check(model, pts, state)
    status_pass = all(r["pass"] for r in rows) and char_report["pass"]
    payload = {**base,
               "status": "noncontextual-model-built",
               "renormalization": model.renormalization,
               "observables": rows,
               "characteristic_check": char_report,
               "pass": bool(status_pass)}
    path = _write_report(args, "hvm_compare.json", payload)
    print(f"noncontextual-model-built: {len(rows)} observables, "
          f"all pass: {status_pass} -> {path}")
    return EXIT_OK


def cmd_hudson(args) -> int:
    spec = _state_spec(args)
    state = make_state(spec)
    grid = _grid_spec(args, spec.modes)
    report = wigner_mod.hudson_classify(state, grid)
    payload = {"command": "hudson", "state": spec.to_dict(),
               **report.to_dict()}
    path = _write_report(args, "hudson.json", payload)
    print(f"{report.classification} (purity {report.purity:.8f}, "
          f"min {report.min_value:.6f}) -> {path}")
    return EXIT_OK


def _multiplicativity_cases():
    m = 2
    e = np.eye(2 * m)
    ctx_q1 = Context([e[0]])
    ctx_q1q2 = Context([e[0], e[1]])
    ctx_q1p2 = Context([e[0], e[3]])
    singles = [("x", [(1.0, (1,))]), ("x^2", [(1.0, (2,))])]
    pairs = [("x", [(1.0, (1, 0))]), ("x^2", [(1.0, (2, 0))]),
             ("xy", [(1.0, (1, 1))]),
             ("x^2+y^2", [(1.0, (2, 0)), (1.0, (0, 2))]),
             ("xy^2", [(1.0, (1, 2))])]
    cases = []
    for name, terms in singles:
        cases.append((f"{name} on {{q1}}",
                      weyl_mod.PolynomialObservable(ctx_q1, terms)))
    for ctx, label in ((ctx_q1q2, "{q1,q2}"), (ctx_q1p2, "{q1,p2}")):
        for name, terms in pairs:
            cases.append((f"{name} on {label}",
                          weyl_mod.PolynomialObservable(ctx, terms)))
    return cases


def lemma_check_bytes(cutoff: int) -> int:
    """Peak bytes of lemma-check: LEMMA_FIXED_BYTES and LEMMA_LEVEL_BYTES
    a level, the cutoff at least the metaplectic suite's."""
    return (LEMMA_FIXED_BYTES + LEMMA_LEVEL_BYTES
            * max(cutoff, weyl_mod.METAPLECTIC_CUTOFF))


def cmd_lemma_check(args) -> int:
    if args.cutoff < 1:
        raise CliError("need a cutoff of at least 1", EXIT_PARSE)
    nbytes = lemma_check_bytes(args.cutoff)
    if nbytes > wigner_mod.GRID_BYTES_LIMIT:
        largest = ((wigner_mod.GRID_BYTES_LIMIT - LEMMA_FIXED_BYTES)
                   // LEMMA_LEVEL_BYTES)
        raise CliError(states_mod.over_limit(
            f"cutoff {states_mod.short_int(args.cutoff)}", nbytes, ".5g")
            + f"; the largest cutoff is {largest}", EXIT_PARSE)
    metaplectic = weyl_mod.metaplectic_covariance_suite(
        np.random.default_rng(args.seed), trials=20,
        cutoff=max(args.cutoff, weyl_mod.METAPLECTIC_CUTOFF))
    cases = []
    for label, obs in _multiplicativity_cases():
        cases.append(weyl_mod.check_wigner_multiplicativity(
            obs, args.cutoff, case=label))
    n_failed = sum(1 for c in cases
                   if not c["pass"] and not c["truncation_flagged"])
    n_flagged = sum(1 for c in cases if c["truncation_flagged"])
    hard_ok = metaplectic["pass"] and n_failed == 0
    payload = {
        "command": "lemma-check",
        "cutoff": args.cutoff,
        "metaplectic_covariance": metaplectic,
        "multiplicativity": cases,
        "n_flagged": n_flagged,
        "n_failed": n_failed,
        "pass": bool(hard_ok and n_flagged == 0),
    }
    path = _write_report(args, "lemma_check.json", payload)
    print(f"lemma-check: {len(cases)} transform cases, "
          f"{n_failed} failed, {n_flagged} truncation-flagged -> {path}")
    # flagged-only degradation is reported, not failed
    return EXIT_OK if hard_ok else EXIT_NUMERICAL


def channel_compose_bytes(modes: int, channels: int) -> int:
    """Peak bytes of channel-compose: an X and a Y per channel and 37 more
    2m x 2m floats for the composition, a trial's states and the complex
    matrices that check them (36.0-36.7 under tracemalloc, at 50-200 modes
    with 2-8 channels and any trial count)."""
    return 8 * (2 * modes) ** 2 * (2 * channels + 37)


def _parse_channel(text: str, modes: int) -> GaussianChannel:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"bad channel JSON: {exc}", EXIT_PARSE) from exc
    kind = raw.get("kind", "raw")
    try:
        if kind == "loss":
            return loss_channel(float(raw["eta"]), modes)
        if kind == "identity":
            return identity_channel(modes)
        if kind == "raw":
            channel = GaussianChannel(np.array(raw["X"], dtype=float),
                                      np.array(raw["Y"], dtype=float),
                                      np.array(raw["d"], dtype=float))
            if channel.mode_count != modes:
                raise CliError(f"channel acts on {channel.mode_count} modes, "
                               f"--modes is {modes}", EXIT_PARSE)
            return channel
    except (KeyError, ValueError) as exc:
        raise CliError(f"bad channel spec: {exc}", EXIT_PARSE) from exc
    raise CliError(f"unknown channel kind '{kind}'", EXIT_PARSE)


def cmd_channel_compose(args) -> int:
    if len(args.channel) < 2:
        raise CliError("need at least two --channel arguments", EXIT_PARSE)
    if args.modes < 1:
        raise CliError("--modes must be at least 1", EXIT_PARSE)
    if args.trials < 1:
        raise CliError("need at least one trial", EXIT_PARSE)
    nbytes = channel_compose_bytes(args.modes, len(args.channel))
    if nbytes > wigner_mod.GRID_BYTES_LIMIT:
        largest = math.isqrt(wigner_mod.GRID_BYTES_LIMIT
                             // channel_compose_bytes(1, len(args.channel)))
        raise CliError(states_mod.over_limit(
            f"--modes {states_mod.short_int(args.modes)}", nbytes, ".5g")
            + f"; the largest --modes is {largest}", EXIT_PARSE)
    channels = [_parse_channel(t, args.modes) for t in args.channel]
    try:
        composed = reduce(compose_channels, channels)
    except ValueError as exc:
        raise CliError(f"bad channel composition: {exc}", EXIT_PARSE) from exc
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        mean = rng.uniform(-2, 2, size=2 * args.modes)
        base = rng.uniform(-0.5, 0.5, size=(2 * args.modes, 2 * args.modes))
        cov = 0.5 * np.eye(2 * args.modes) + base @ base.T
        state = states_mod.GaussianState(mean, cov)
        seq = state
        for ch in channels:
            seq = apply_gaussian_channel(seq, ch)
        direct = apply_gaussian_channel(state, composed)
        gaps = [seq.mean - direct.mean, seq.covariance - direct.covariance]
        # np.max, not max(): a NaN deviation must reach worst
        worst = float(np.max([worst, *(np.max(np.abs(g)) for g in gaps)]))
    if not np.isfinite(worst):
        raise CliError("sequential application overflows", EXIT_NUMERICAL)
    payload = {
        "command": "channel-compose",
        "modes": args.modes,
        "composed": {"X": composed.X.tolist(), "Y": composed.Y.tolist(),
                     "d": composed.d.tolist()},
        "trials": args.trials,
        "max_sequential_deviation": worst,
        "tolerance": 1e-12,
        "pass": bool(worst <= 1e-12),
    }
    path = _write_report(args, "channel_compose.json", payload)
    print(f"channel-compose: max deviation {worst:.3e} -> {path}")
    return EXIT_OK if payload["pass"] else EXIT_NUMERICAL


def _seed(text: str) -> int:
    """A --seed value: np.random.default_rng takes nonnegative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"need a nonnegative integer, not {text!r}")
    return seed


def _add_common(parser):
    parser.add_argument("--state", required=True,
                        help="state spec JSON (inline or a file path)")
    parser.add_argument("--window", type=float, default=6.0)
    parser.add_argument("--points", type=int, default=257)
    parser.add_argument("--cutoff", type=int, default=None)
    # accepted for old scripts and ignored: Fock states need no chi grid
    parser.add_argument("--char-window", help=argparse.SUPPRESS)
    parser.add_argument("--char-points", help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=_seed, default=12345)
    parser.add_argument("--out", default="out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerhvm",
        description="Wigner negativity and hidden-variable comparisons "
                    "for continuous-variable states")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wigner", help="export a Wigner grid with monotones")
    _add_common(p)
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("negativity", help="negativity monotones only")
    _add_common(p)
    p.set_defaults(func=cmd_negativity)

    p = sub.add_parser("hvm-compare",
                       help="build the hidden-variable model and compare "
                            "against the quantum oracle")
    _add_common(p)
    p.add_argument("--observable", action="append", default=None,
                   help="comma-separated quadrature coefficients (repeatable)")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--threads", type=int, default=1,
                   help="threads that draw the sampler's chunks (default 1); "
                        "exact events run on the calling thread, and the "
                        "report is the same for any value")
    p.set_defaults(func=cmd_hvm_compare)

    p = sub.add_parser("hudson", help="pure-state Gaussianity classification")
    _add_common(p)
    p.set_defaults(func=cmd_hudson)

    p = sub.add_parser("lemma-check",
                       help="transform-multiplicativity and metaplectic "
                            "covariance suites")
    p.add_argument("--cutoff", type=int, default=40)
    p.add_argument("--seed", type=_seed, default=12345)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_lemma_check)

    p = sub.add_parser("channel-compose",
                       help="compose Gaussian channels and verify "
                            "sequential-vs-composed agreement")
    p.add_argument("--channel", action="append", default=[],
                   help="channel JSON (repeatable, applied left to right)")
    p.add_argument("--modes", type=int, default=1)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=_seed, default=12345)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_channel_compose)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's tree, built once per process.

    parse_args leaves it as it was: each call fills a new namespace, and
    an append action copies its default list before it appends.
    """
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (CliError, *ERROR_EXIT) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else ERROR_EXIT[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
