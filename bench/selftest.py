"""Self-test of the benchmark's own arithmetic and metric names.

    python3 bench/selftest.py
"""

import json
import re
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 7]
        tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 7, 10]))
        with tracer.span("bench.job"):
            a = tracer.begin("wigner.state_wigner")
            leaf = tracer.begin("wigner.characteristic_function")
            tracer.end(leaf)
            tracer.end(a)
            b = tracer.begin("hvm.build_hvm")
            tracer.end(b)
        self.assertEqual([s[3] for s in tracer.spans], [None, 0, a, 0])
        self.assertEqual(spans.self_times(tracer.spans), [5, 2, 1, 2])
        table = spans.layer_table(tracer.spans)
        self.assertEqual(table["wigner.self_s"], 3)
        self.assertEqual(table["wigner.calls"], 2)
        self.assertEqual(table["bench.job.self_s"], 5)
        total = sum(table[f"{m}.self_s"] for m in ("bench", "wigner", "hvm"))
        self.assertEqual(total, 10)

    def test_overlapping_children_count_once(self):
        covered = spans.covered_length([(1, 4), (3, 6), (8, 12)], 0, 10)
        self.assertEqual(covered, 7)


class InstallTest(unittest.TestCase):
    def test_bindings_in_every_module_are_replaced(self):
        import wignerhvm.cli  # noqa: F401
        modules = {name: sys.modules[f"wignerhvm.{name}"]
                   for name in spans.LAYERS}
        originals = {name: dict(vars(mod)) for name, mod in modules.items()}
        tracer = spans.Tracer()
        try:
            spans.install(tracer, modules)
            hvm, wigner = modules["hvm"], modules["wigner"]
            # hvm binds wigner's function with `from .wigner import ...`
            self.assertIs(hvm.characteristic_at_points,
                          wigner.characteristic_at_points)
            self.assertIsNot(hvm.characteristic_at_points,
                             originals["wigner"]["characteristic_at_points"])
            modules["states"].vacuum_state()
            names = [s[0] for s in tracer.spans]
            self.assertEqual(names[0], "states.vacuum_state")
            self.assertIn("phase_space.omega", names)
        finally:
            for name, mod in modules.items():
                vars(mod).update(originals[name])


class MetricNameTest(unittest.TestCase):
    def test_benchmark_json_names(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        e2e = {m["name"] for m in spec["end_to_end"]}
        self.assertLessEqual({"wall_s", "setup_s", "peak_rss_mb"}, e2e)

    def test_counter_names(self):
        for name in spans.COUNTER_HOOKS:
            self.assertTrue(NAME.fullmatch(name), name)


if __name__ == "__main__":
    unittest.main()
