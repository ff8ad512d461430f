"""In-memory spans around the public functions of the wignerhvm modules.

`install` wraps every public function defined in a package module and
rebinds the wrapper wherever the package binds the function object.  The
modules import each other's names with ``from .x import y``, so replacing
only the defining module's attribute would miss calls made inside the
package.  Spans (name, start, end, parent) stay in memory; `layer_table`
turns them into per-function call counts and self times after the run.

A few functions also feed outcome counters (grid points, cells, samples,
witnesses, lemma cases); those are listed in COUNTER_HOOKS.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from collections import defaultdict

LAYERS = ("phase_space", "fockspace", "states", "wigner", "weyl", "oracle",
          "hvm", "cli")


class Tracer:
    """Span recorder; one stack per thread gives each span its parent."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or None]
        self.counters = defaultdict(float)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        self.spans.append([name, self.clock(), None, parent])
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> float:
        span = self.spans[index]
        span[2] = self.clock()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        return span[2] - span[1]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a block."""
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn):
        hook = COUNTER_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = hook[0](*args, **kwargs) if hook else None
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                seconds = self.end(index)
                if hook:
                    hook[1](self.counters, token, None, exc, seconds)
                raise
            seconds = self.end(index)
            if hook:
                hook[1](self.counters, token, result, None, seconds)
            return result

        return traced


def install(tracer: Tracer, modules: dict) -> int:
    """Wrap the public functions of `modules` (short name -> module).

    Every module namespace in `modules` that binds one of those function
    objects gets the wrapper instead.  Returns the number of functions
    wrapped.
    """
    wrappers = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrappers[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])
    return len(wrappers)


def covered_length(intervals, start: float, end: float) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list:
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [end - start - covered_length(children[i], start, end)
            for i, (name, start, end, parent) in enumerate(spans)]


def layer_table(spans) -> dict:
    """Per-function and per-module `calls` and `self_s` from closed spans."""
    table = defaultdict(float)
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        module = name.split(".", 1)[0]
        table[f"{name}.calls"] += 1
        table[f"{name}.self_s"] += own
        table[f"{module}.calls"] += 1
        table[f"{module}.self_s"] += own
    return dict(table)


# --- outcome counters: (before(*args, **kwargs) -> token,
#                        after(counters, token, result, error, seconds)) ---

def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _chi_before(*args, **kwargs):
    shape = _arg(args, kwargs, 1, "spec").shape
    points = 1
    for n in shape:
        points *= n
    return points


def _chi_after(counters, points, result, error, seconds):
    if error is None:
        counters["wigner.characteristic_function.grid_points"] += points


def _build_before(*args, **kwargs):
    return _arg(args, kwargs, 0, "w").values.size


def _build_after(counters, cells, result, error, seconds):
    if error is None:
        counters["hvm.build_hvm.cells"] += cells
    elif type(error).__name__ == "NegativityError":
        counters["hvm.build_hvm.witnesses"] += 1


def _sample_before(*args, **kwargs):
    model = _arg(args, kwargs, 0, "model")
    return _arg(args, kwargs, 1, "n"), model._alias is None


def _sample_after(counters, token, result, error, seconds):
    n, first_call = token
    if error is None:
        counters["hvm.sample.samples"] += n
    if first_call:
        counters["hvm.sample.first_call_s"] += seconds


def _case_before(*args, **kwargs):
    return None


def _case_after(counters, token, result, error, seconds):
    if error is None:
        counters["weyl.cases_passed"] += bool(result["pass"])
        counters["weyl.cases_flagged"] += bool(result["truncation_flagged"])


COUNTER_HOOKS = {
    "wigner.characteristic_function": (_chi_before, _chi_after),
    "hvm.build_hvm": (_build_before, _build_after),
    "hvm.sample": (_sample_before, _sample_after),
    "weyl.check_wigner_multiplicativity": (_case_before, _case_after),
}
