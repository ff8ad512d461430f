"""One pass of a benchmark workload: its fixed job list and outcome checks.

Run as a script by run.py, in a fresh interpreter per pass:

    python3 bench/workloads.py --workload forward --seed 3 --trace 0 \
        --out .bench_build/wignerhvm-bench/pass0

The pass drives the CLI in-process (`wignerhvm.cli.main(argv)`) and the
public library API, one job at a time, and checks every outcome against
the acceptance tolerances.  It prints one JSON line: the import time, the
wall time of the job list, the peak resident memory, the attempted and
failed job counts and, with --trace 1, the per-layer table.

BLAS/OpenMP thread counts are read from the environment that run.py sets
before this interpreter starts.
"""

# Time `import wignerhvm` before anything else is imported, so this sample
# of the set-up time matches a bare interpreter's.
import time

IMPORT_START = time.perf_counter()
import wignerhvm  # noqa: E402
IMPORT_SECONDS = time.perf_counter() - IMPORT_START

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from wignerhvm import cli, hvm, oracle, states, wigner  # noqa: E402

import spans  # noqa: E402

# Criterion 1 of the acceptance suite: the chi route, the direct Laguerre
# kernels and the Gaussian closed form agree to this sup-norm distance.
ROUTE_TOLERANCE = 1e-5
SAMPLES = 100000
SAMPLE_THREADS = 2
EVENTS = (("[0, inf)", [(0.0, np.inf)]), ("[-1, 1]", [(-1.0, 1.0)]))


class CheckFailed(Exception):
    """An outcome missed its tolerance or had the wrong shape."""


def check(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Pass:
    """Shared state of one pass: seed, output root, report byte count."""

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.report_bytes = 0
        self.saved = {}

    def run_cli(self, name: str, argv: list) -> Path:
        """Run one CLI command into its own directory; require exit 0."""
        out_dir = self.out / name
        code = cli.main(argv + ["--out", str(out_dir)])
        check(code == cli.EXIT_OK, f"exit code {code}")
        self.report_bytes += sum(p.stat().st_size
                                 for p in out_dir.iterdir())
        return out_dir


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _require_witness(minimum: dict) -> None:
    check(minimum["value"] < 0, f"no negativity: min {minimum['value']}")
    check(len(minimum["location"]) == 2, "witness has no location")


# --- negativity: non-Gaussian Fock states through the chi route -----------

# label -> (state spec, grid flags); the photon-subtracted state is wider
# than the default windows
NEGATIVE_STATES = {
    "fock1": ({"kind": "fock", "params": {"n": 1}, "cutoff": 25}, []),
    "fock5": ({"kind": "fock", "params": {"n": 5}, "cutoff": 30}, []),
    "cat2": ({"kind": "cat", "params": {"alpha": 2.0}, "cutoff": 30}, []),
    "pss": ({"kind": "photon_subtracted_squeezed", "params": {"r": 0.5},
             "cutoff": 30},
            ["--window", "8", "--char-window", "20", "--char-points", "321"]),
}
# README hudson example: the comb needs cutoff 60 and wide windows
GKP = ({"kind": "gkp", "params": {"delta": 0.3}, "cutoff": 60},
       ["--window", "10", "--points", "321",
        "--char-window", "24", "--char-points", "601"])


def _grid_of(flags: list) -> wigner.GridSpec:
    opts = dict(zip(flags[::2], flags[1::2]))
    return wigner.GridSpec(1, float(opts.get("--window", 6.0)),
                           int(opts.get("--points", 257)))


def _wigner_job(label, spec, flags):
    def job(ctx: Pass):
        out = ctx.run_cli(f"wigner-{label}", [
            "wigner", "--state", json.dumps(spec)] + flags)
        _require_witness(_read_json(out / "wigner.json")["min"])
        grid = _grid_of(flags)
        chi_route = np.loadtxt(out / "wigner.csv", delimiter=",",
                               skiprows=1, usecols=2).reshape(grid.shape)
        state = states.make_state(states.StateSpec.from_json(spec))
        direct = wigner.wigner_fock_direct(state, grid).values
        gap = float(np.max(np.abs(chi_route - direct)))
        check(gap <= ROUTE_TOLERANCE,
              f"chi route vs direct kernels {gap:.2e} > {ROUTE_TOLERANCE}")
    return job


def _negativity_job(label, spec, flags):
    def job(ctx: Pass):
        out = ctx.run_cli(f"negativity-{label}", [
            "negativity", "--state", json.dumps(spec)] + flags)
        report = _read_json(out / "negativity.json")
        _require_witness(report["min"])
        check(report["negativity_volume"] > 0, "zero negativity volume")
    return job


def _contextual_job(ctx: Pass):
    spec, flags = NEGATIVE_STATES["pss"]
    out = ctx.run_cli("hvm-compare-pss", [
        "hvm-compare", "--state", json.dumps(spec), "--seed",
        str(ctx.seed)] + flags)
    report = _read_json(out / "hvm_compare.json")
    check(report["status"] == "contextual", f"status {report['status']}")
    witness = report["witness"]
    _require_witness({"value": witness["min_value"],
                      "location": witness["location"]})


def _hudson_job(label, spec, flags):
    def job(ctx: Pass):
        out = ctx.run_cli(f"hudson-{label}", [
            "hudson", "--state", json.dumps(spec)] + flags)
        report = _read_json(out / "hudson.json")
        check(report["classification"] == "negative",
              f"classified {report['classification']}")
        _require_witness({"value": report["min_value"],
                          "location": report["min_location"]})
    return job


def negativity_jobs():
    jobs = []
    for label, (spec, flags) in NEGATIVE_STATES.items():
        jobs.append((f"wigner {label}", _wigner_job(label, spec, flags)))
        jobs.append((f"negativity {label}",
                     _negativity_job(label, spec, flags)))
    jobs.append(("hvm-compare pss", _contextual_job))
    jobs.append(("hudson cat2", _hudson_job("cat2", *NEGATIVE_STATES["cat2"])))
    jobs.append(("hudson gkp", _hudson_job("gkp", *GKP)))
    return jobs


# --- forward: nonnegative states, model built and checked ------------------

SQUEEZED = ["hvm-compare", "--state",
            '{"kind": "squeezed", "params": {"r": 0.5}}',
            "--observable", "1,0", "--observable", "0,1",
            "--samples", str(SAMPLES)]


def _require_model_pass(out: Path) -> None:
    report = _read_json(out / "hvm_compare.json")
    check(report["status"] == "noncontextual-model-built",
          f"status {report['status']}")
    for row in report["observables"]:
        check(row["tv_distance"] <= cli.TV_TOLERANCE,
              f"zeta {row['observable']}: TV {row['tv_distance']:.4f}")
        for event in row["event_checks"]:
            check(event["abs_error"] <= cli.EVENT_TOLERANCE,
                  f"zeta {row['observable']} {event['interval']}: "
                  f"{event['abs_error']:.2e}")
    check(report["characteristic_check"]["max_deviation"]
          <= cli.CHAR_TOLERANCE, "characteristic check")
    check(report["pass"], "report pass is false")


def _squeezed_job(ctx: Pass):
    out = ctx.run_cli("hvm-compare-squeezed",
                      SQUEEZED + ["--seed", str(ctx.seed)])
    ctx.saved["squeezed"] = (out / "hvm_compare.json").read_bytes()
    _require_model_pass(out)


def _threads_job(ctx: Pass):
    # criterion 12: any sampler thread count gives the same report bytes
    out = ctx.run_cli("hvm-compare-squeezed-threads", SQUEEZED + [
        "--seed", str(ctx.seed), "--threads", str(SAMPLE_THREADS)])
    check((out / "hvm_compare.json").read_bytes() == ctx.saved["squeezed"],
          f"--threads {SAMPLE_THREADS} report differs from --threads 1")


def _compare_job(label, spec, flags):
    def job(ctx: Pass):
        out = ctx.run_cli(f"hvm-compare-{label}", [
            "hvm-compare", "--state", json.dumps(spec),
            "--samples", str(SAMPLES), "--seed", str(ctx.seed)] + flags)
        _require_model_pass(out)
    return job


def _channel_job(ctx: Pass):
    out = ctx.run_cli("channel-compose", [
        "channel-compose", "--channel", '{"kind": "loss", "eta": 0.7}',
        "--channel", '{"kind": "loss", "eta": 0.6}',
        "--seed", str(ctx.seed)])
    check(_read_json(out / "channel_compose.json")["pass"],
          "composition deviates")


def lossy_photon(eta: float, cutoff: int = 30) -> states.FockDensityOperator:
    """(1 - eta)|0><0| + eta|1><1|; its Wigner function is >= 0 iff eta <= 1/2."""
    matrix = np.zeros((cutoff, cutoff), dtype=complex)
    matrix[0, 0] = 1 - eta
    matrix[1, 1] = eta
    return states.FockDensityOperator(matrix, cutoff, 1)


LOSSY_ZETAS = ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8))


def _lossy_job(eta: float):
    def job(ctx: Pass):
        state = lossy_photon(eta)
        grid = wigner.GridSpec(1, 6.0, 257)
        model = hvm.build_hvm(wigner.state_wigner(state, grid))
        bins = oracle.BinSpec(-grid.halfwidth, grid.halfwidth, 50)
        for idx, zeta in enumerate(LOSSY_ZETAS):
            dist = hvm.hvm_homodyne_distribution(
                model, zeta, bins, SAMPLES, ctx.seed + idx)
            ref = oracle.quantum_homodyne_distribution(state, zeta, bins)
            tv = oracle.tv_distance(dist, ref)
            check(tv <= cli.TV_TOLERANCE, f"zeta {zeta}: TV {tv:.4f}")
            for label, intervals in EVENTS:
                gap = abs(hvm.hvm_event_probability(model, zeta, intervals)
                          - oracle.event_probability(state, zeta, intervals))
                check(gap <= cli.EVENT_TOLERANCE,
                      f"zeta {zeta} {label}: event gap {gap:.2e}")
        points = np.random.default_rng(ctx.seed).uniform(-3, 3, size=(10, 2))
        report = hvm.empirical_characteristic_check(
            model, points, state, tolerance=cli.CHAR_TOLERANCE)
        check(report["pass"],
              f"characteristic deviation {report['max_deviation']:.2e}")
    return job


TWO_MODE_OBSERVABLES = ["--points", "41",
                        "--observable", "1,0,0,0",
                        "--observable", "0.5,0.5,0.5,0.5"]


def forward_jobs():
    return [
        ("hvm-compare squeezed", _squeezed_job),
        ("hvm-compare squeezed --threads 2", _threads_job),
        ("hvm-compare thermal", _compare_job(
            "thermal", {"kind": "thermal", "params": {"nbar": 1.0}}, [])),
        ("hvm-compare coherent two-mode", _compare_job(
            "coherent2", {"kind": "coherent", "params": {
                "alpha": [1.0, 0.5]}, "modes": 2}, TWO_MODE_OBSERVABLES)),
        ("hvm-compare thermal two-mode", _compare_job(
            "thermal2", {"kind": "thermal", "params": {"nbar": 0.5},
                         "modes": 2}, TWO_MODE_OBSERVABLES)),
        ("channel-compose", _channel_job),
        ("lossy photon eta=0.2", _lossy_job(0.2)),
        ("lossy photon eta=0.4", _lossy_job(0.4)),
    ]


# --- lemma: the transform-multiplicativity and metaplectic suites ---------

# Cutoff 30 is the smallest at which all 12 multiplicativity cases pass
# without a truncation flag.
LEMMA_CUTOFF = 30


def _lemma_job(ctx: Pass):
    out = ctx.run_cli("lemma-check", [
        "lemma-check", "--cutoff", str(LEMMA_CUTOFF), "--seed", str(ctx.seed)])
    report = _read_json(out / "lemma_check.json")
    check(report["n_failed"] == 0, f"{report['n_failed']} cases failed")
    check(report["n_flagged"] == 0, f"{report['n_flagged']} cases flagged")
    check(report["pass"], "lemma-check pass is false")


def lemma_jobs():
    return [("lemma-check", _lemma_job)]


WORKLOADS = {"negativity": negativity_jobs, "forward": forward_jobs,
             "lemma": lemma_jobs}


def layer_modules() -> dict:
    return {name: sys.modules[f"wignerhvm.{name}"] for name in spans.LAYERS}


def run_pass(workload: str, seed: int, out: Path, tracer=None) -> dict:
    jobs = WORKLOADS[workload]()
    ctx = Pass(seed, out)
    failures = []
    job_seconds = {}
    start = time.perf_counter()
    for name, job in jobs:
        job_start = time.perf_counter()
        try:
            if tracer is None:
                job(ctx)
            else:
                with tracer.span("bench.job"):
                    job(ctx)
        except Exception as exc:  # a job's failure is a measured outcome
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
        job_seconds[name] = time.perf_counter() - job_start
    wall = time.perf_counter() - start
    return {"wall_s": wall, "attempted": len(jobs), "failed": len(failures),
            "failures": failures, "report_bytes": ctx.report_bytes,
            "job_seconds": job_seconds}


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer, layer_modules())
    result = run_pass(args.workload, args.seed, out, tracer)
    result["import_s"] = IMPORT_SECONDS
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024)
    result["machine"] = machine_info()
    if tracer is not None:
        layers = spans.layer_table(tracer.spans)
        layers.update(tracer.counters)
        result["layers"] = layers
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
