"""Alternating benchmark pairs of two checkouts (standard library only).

    python3 tools/bench_pairs.py A B --workload lemma --pairs 10 --seed 3
    python3 tools/bench_pairs.py A B --workload all --pairs 10 --seed 3

A is the baseline and B the change.  --workload all runs every workload
A's BENCHMARK.json names.  Each pair runs one `bench/workloads.py` pass
of each workload in each checkout, in a fresh interpreter with the
environment that checkout's `bench/run.py` gives its own passes
(`child_env`), and writes it into the workload's own subtree of the
side's --out tree.  One uncounted pass per workload and side comes
first, so neither side's first pair pays for a cold file cache; then A
runs first in even pairs and B in odd ones, so an order bias cancels
rather than reading as a win.

Per workload and end-to-end metric (every one is better lower) it prints
each side's median and quartiles and B's wins out of N, and marks the
metric unresolved when the gap of the medians is not above A's
interquartile range, or there is one pair.  It then names each file of
the --out trees that is missing on one side or whose bytes differ in any
pair.  The last line of standard output is one JSON object with the keys
pairs, workloads, metrics (keyed <workload>/<metric>), trees_identical,
differing_files (sorted paths relative to the --out root, each under its
workload's directory) and failed; the exit code is 1 when a pass crashed
or failed an outcome check.

It refuses to run (exit 2) when PYTHONDONTWRITEBYTECODE is set and only
one side has a `__pycache__` under `src/`: the other side would compile
its sources in every interpreter, which moves the import time by tens
of milliseconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = ("wall_s", "import_s", "peak_rss_mb")
CHILD_ENV = ("import json, sys; sys.path.insert(0, 'bench'); import run; "
             "print(json.dumps(run.child_env()))")


def child_env(root: Path) -> dict:
    """The environment root's bench/run.py sets for its workload passes."""
    out = subprocess.run([sys.executable, "-c", CHILD_ENV], cwd=root,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def workloads(root: Path, name: str) -> list:
    """[name], or every workload root's BENCHMARK.json names for all."""
    if name != "all":
        return [name]
    declared = json.loads((root / "BENCHMARK.json").read_text())
    return [w["name"] for w in declared["workloads"]]


def run_pass(root: Path, env: dict, workload: str, seed: int,
             out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/workloads.py", "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{root}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
        return {"failed": 1}
    result = json.loads(lines[-1])
    for failure in result["failures"]:
        sys.stderr.write(f"{root}: {failure}\n")
    return result


def tree(root: Path) -> dict:
    """Path -> SHA-256 of each file, read in chunks.  Holding no file's
    bytes keeps this process's peak RSS below a pass's: a child launched
    by vfork inherits that peak as its ru_maxrss, which every later pass
    would report as its own."""
    digests = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            with p.open("rb") as f:
                digests[str(p.relative_to(root))] = hashlib.file_digest(
                    f, "sha256").hexdigest()
    return digests


def differing(a: dict, b: dict) -> set:
    """Paths in one tree only, or with other bytes (digests) in the
    other."""
    return {path for path in a.keys() | b.keys()
            if a.get(path) != b.get(path)}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(a: list, b: list) -> dict:
    (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
    med_a, med_b = statistics.median(a), statistics.median(b)
    return {"a": [a1, med_a, a3], "b": [b1, med_b, b3],
            "wins": sum(y < x for x, y in zip(a, b)),
            "resolved": len(a) > 1 and abs(med_b - med_a) > a3 - a1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="baseline checkout")
    parser.add_argument("b", type=Path, help="changed checkout")
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = [args.a.resolve(), args.b.resolve()]
    cached = [any((side / "src").rglob("__pycache__")) for side in sides]
    if os.environ.get("PYTHONDONTWRITEBYTECODE") and cached[0] != cached[1]:
        print("refused: PYTHONDONTWRITEBYTECODE is set and only "
              f"{sides[cached.index(True)]} has a __pycache__ under src/",
              file=sys.stderr)
        return 2
    envs = [child_env(side) for side in sides]
    names = workloads(sides[0], args.workload)

    # results[w][s]: workload w's passes on side s, pair by pair
    results = {w: [[], []] for w in names}
    differ = set()
    with tempfile.TemporaryDirectory() as work:
        for w in names:  # the uncounted warm-up
            for s in (0, 1):
                run_pass(sides[s], envs[s], w, args.seed,
                         Path(work, "warm-up", "ab"[s], w))
        for k in range(args.pairs):
            outs = [Path(work, f"pair{k}", side) for side in "ab"]
            for w in names:
                for s in ((0, 1) if k % 2 == 0 else (1, 0)):
                    results[w][s].append(run_pass(sides[s], envs[s], w,
                                                  args.seed, outs[s] / w))
            differ |= differing(*map(tree, outs))
    differ = sorted(differ)
    failed = sum(r["failed"] for w in names for side in results[w]
                 for r in side)
    report = {"pairs": args.pairs, "workloads": names, "metrics": {},
              "trees_identical": not differ, "differing_files": differ,
              "failed": failed}
    if failed:
        print(json.dumps(report))
        return 1

    for w in names:
        a_runs, b_runs = results[w]
        print(f"{w}, seed {args.seed}, {args.pairs} pair(s); "
              "q1 / median / q3")
        for name in METRICS:
            m = summary([r[name] for r in a_runs], [r[name] for r in b_runs])
            report["metrics"][f"{w}/{name}"] = m
            a, b = ("{:.4f} / {:.4f} / {:.4f}".format(*m[s]) for s in "ab")
            state = "resolved" if m["resolved"] else "unresolved"
            print(f"  {name:<12} A {a}   B {b}   B lower in "
                  f"{m['wins']}/{args.pairs}, {state}")
    print("out trees:", "different in " + ", ".join(differ) if differ
          else "identical")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
