"""wignerhvm benchmark: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload forward --seed 3 --seconds 10 --trace 0
    python3 bench/run.py --workload all

Run from anywhere; the package is imported from ../src next to this
directory.  Each pass of a workload runs in a fresh interpreter (see
workloads.py), one after another, never two at a time.

--trace 0 repeats untraced passes until --seconds have gone by (at least
one pass) and then times fresh `import wignerhvm` interpreters; it
reports the end-to-end metrics named in BENCHMARK.json as medians.
--trace 1 runs one untraced and one traced pass and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Any failed
outcome check is printed to standard error and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("negativity", "forward", "lemma")

# fresh-interpreter import samples per untraced run (pass children count)
SETUP_SAMPLES = 3
# every run must end within 180 s; leave room for start-up and clean-up
RUN_BUDGET_S = 170.0
# the traced pass must attribute at least this share of its wall time to
# spans of the package modules plus the benchmark's own job spans
MIN_SPAN_COVERAGE = 0.99

IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import wignerhvm; "
                  "print(time.perf_counter() - t)")


class BenchError(RuntimeError):
    """A pass crashed, timed out or printed no result."""


def blas_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(blas_threads())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    # The lemma pass's peak memory moves by about 300 MB between string-hash
    # seeds (when large temporaries are freed differs); a fixed seed makes
    # peak_rss_mb repeat.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]]
                                  if env.get("PYTHONPATH") else []))
    return env


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def _run(self, label: str, argv: list) -> str:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{label} timed out") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{label} exited {proc.returncode}: "
                             f"{proc.stderr[-2000:]}")
        return lines[-1]

    def workload_pass(self, workload: str, seed: int, trace: int) -> dict:
        out = self.work / f"pass{self.count}"
        self.count += 1
        try:
            return json.loads(self._run(f"{workload} pass", [
                sys.executable, str(BENCH / "workloads.py"),
                "--workload", workload, "--seed", str(seed),
                "--trace", str(trace), "--out", str(out)]))
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def import_seconds(self) -> float:
        return float(self._run("import wignerhvm",
                               [sys.executable, "-c", IMPORT_SNIPPET]))


def load_spec() -> dict:
    spec = json.loads(SPEC.read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def end_to_end(runner: Runner, workload: str, seed: int,
               seconds: float) -> tuple:
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(runner.workload_pass(workload, seed, 0))
    imports = [p["import_s"] for p in passes]
    while len(imports) < SETUP_SAMPLES:
        imports.append(runner.import_seconds())
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(imports),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = [f"{len(passes)} pass(es); setup_s is the median of "
             f"{len(imports)} fresh imports; median seconds per job:"]
    for job in passes[0]["job_seconds"]:
        median_s = statistics.median(p["job_seconds"][job] for p in passes)
        notes.append(f"  {job:<52} {median_s:9.4f} s")
    return passes, values, notes, []


def layered(runner: Runner, workload: str, seed: int) -> tuple:
    plain = runner.workload_pass(workload, seed, 0)
    traced = runner.workload_pass(workload, seed, 1)
    layers = traced["layers"]
    wall = traced["wall_s"]
    modules = sum(layers.get(f"{name}.self_s", 0.0) for name in LAYERS)
    layers["trace.overhead_frac"] = wall / plain["wall_s"] - 1
    layers["trace.wall_s"] = wall
    layers["trace.modules_frac"] = modules / wall
    layers["trace.spans"] = traced["spans"]
    layers["cli.report_bytes"] = traced["report_bytes"]
    coverage = (modules + layers.get("bench.self_s", 0.0)) / wall
    notes = [f"untraced wall_s {plain['wall_s']:.3f} s, traced "
             f"{wall:.3f} s; package modules account for "
             f"{modules / wall:.1%}, with the job spans {coverage:.1%}"]
    problems = []
    if coverage < MIN_SPAN_COVERAGE:
        problems.append(f"spans cover {coverage:.2%} of the traced wall "
                        f"time (< {MIN_SPAN_COVERAGE:.0%})")
    table = sorted(((k[:-len(".self_s")], v, layers.get(
        k[:-len(".self_s")] + ".calls", 0)) for k, v in layers.items()
        if k.endswith(".self_s") and k.count(".") == 2),
        key=lambda row: -row[1])
    notes += [f"  {name:<52} {own:9.4f} s {int(calls):8d} calls"
              for name, own, calls in table]
    return [plain, traced], layers, notes, problems


def run_workload(runner: Runner, spec: dict, workload: str, seed: int,
                 seconds: float, trace: int) -> dict:
    if trace:
        passes, values, notes, problems = layered(runner, workload, seed)
        wanted = spec["per_layer"]
    else:
        passes, values, notes, problems = end_to_end(runner, workload, seed,
                                                     seconds)
        wanted = spec["end_to_end"]
    machine = passes[0]["machine"]
    print(f"# workload {workload}, seed {seed}, trace {trace}")
    print(f"# machine: nproc {len(os.sched_getaffinity(0))}, cpu "
          f"{cpu_model()!r}, python {machine['python']}, numpy "
          f"{machine['numpy']}, scipy {machine['scipy']}, blas "
          f"{machine['blas']} with {blas_threads()} thread(s)")
    for note in notes:
        print(f"# {note}")
    metrics = {}
    for name, unit in wanted.items():
        metrics[name] = {"value": values.get(name, 0), "unit": unit}
        print(f"{name:<48} {metrics[name]['value']:.6g} {unit}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"failed_frac {failed / attempted:g} ({failed} of {attempted} "
          f"jobs failed)")
    failures = [f for p in passes for f in p["failures"]] + problems
    for failure in failures:
        print(f"FAILED {workload}: {failure}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wignerhvm" / "__init__.py").is_file():
        print(f"error: no wignerhvm package under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    work = ROOT / ".bench_build" / "wignerhvm-bench" / f"run-{os.getpid()}"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            runner = Runner(work, time.monotonic() + RUN_BUDGET_S)
            results[name] = run_workload(runner, spec, name, args.seed,
                                         args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    if not result["correct"]:
        print("BENCHMARK FAILED: see the FAILED lines above",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
