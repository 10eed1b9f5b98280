"""Per-layer tracer that instruments qdlab from outside the package.

`Tracer.install()` wraps every public function of the qdlab layer modules and
rebinds it at every module attribute that refers to it, so a name imported
with `from .discrimination import grid_golden_minimize` is traced too.
`uninstall()` restores every original binding. The wrappers are built once,
so installing and uninstalling around each traced pass is cheap. Nothing
under `src/` changes.

Each wrapped call is a span. A span's self time is its duration minus the
durations of the spans it directly encloses. Counts repeat exactly between
runs; times do not. The span stack is shared by the process, so the traced
program must run single-threaded (the benchmark passes `--workers 1`).
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = (
    "qmath",
    "dynamics",
    "discrimination",
    "metrology",
    "spectral_arc",
    "search",
    "phase_estimation",
    "cli",
)

# The span workloads.run_qd opens around each in-process `qd` call. Its self
# time is click dispatch and the bodies of the private experiment runners,
# which no layer span covers.
CLI_SPAN = "cli.main"
GOLDEN = "discrimination.grid_golden_minimize"
OBJECTIVE_CALLS = GOLDEN + ".objective_calls"
REPORT_BYTES = "cli.report.bytes"

# Per-layer metric names that do not follow the `<layer>.<function>.<stat>`
# pattern, mapped to the span whose self time they report.
_REPORT_SPANS = {
    "cli.report.rows_to_csv_s": "cli.rows_to_csv",
    "cli.report.write_atomic_s": "cli.write_atomic",
}


class Tracer:
    """Spans and counters for one traced process.

    `stats` maps a span name to [calls, total_s, self_s, elems]; `elems` is
    the computed sum of input array sizes (d^2 for a d x d matrix) and is
    kept for qmath kernels only.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.top_s = 0.0
        self._stack: list[float] = []
        # (module, attribute, original, wrapper) for every lookup site.
        self._bindings: list[tuple[object, str, object, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def _close(self, stat: list, start: float) -> None:
        duration = perf_counter() - start
        child = self._stack.pop()
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        if self._stack:
            self._stack[-1] += duration
        else:
            self.top_s += duration

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span called `name`."""
        stat = self._stat(name)
        self._stack.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(stat, start)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- instrumentation -----------------------------------------------------

    def _wrap(self, name: str, fn):
        from numpy import ndarray

        stat = self._stat(name)
        stack = self._stack
        with_elems = name.startswith("qmath.")
        is_golden = name == GOLDEN
        is_write = name == "cli.write_atomic"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if with_elems:
                stat[3] += sum(a.size for a in args if isinstance(a, ndarray))
            if is_golden:
                args = (self._counted_objective(args[0]),) + args[1:]
            elif is_write:
                self.count(REPORT_BYTES, len(args[1]))
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                # Inlined _close: this runs on every traced call.
                duration = perf_counter() - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
                else:
                    self.top_s += duration

        return traced

    def _counted_objective(self, fn):
        # The figure1 objectives are lambdas defined in metrology.
        from_metrology = getattr(fn, "__module__", None) == "qdlab.metrology"

        def objective(t):
            self.count(OBJECTIVE_CALLS)
            if from_metrology:
                kind = "vector_calls" if getattr(t, "ndim", 0) else "scalar_calls"
                self.count("metrology.objective." + kind)
            return fn(t)

        return objective

    def install(self) -> None:
        if not self._bindings:
            self._bindings = self._find_bindings()
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def _find_bindings(self) -> list[tuple[object, str, object, object]]:
        import qdlab.cli  # noqa: F401  (loads every layer module)

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"qdlab.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        qdlab_modules = [
            m for n, m in list(sys.modules.items()) if n == "qdlab" or n.startswith("qdlab.")
        ]
        return [
            (module, attr, obj, wrappers[id(obj)][1])
            for module in qdlab_modules
            for attr, obj in vars(module).items()
            if id(obj) in wrappers and wrappers[id(obj)][0] is obj
        ]

    # -- aggregation ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Return the stats recorded since the last snapshot and reset them."""
        snap = {
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "counters": dict(self.counters),
            "top_s": self.top_s,
        }
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0, 0]
        self.counters.clear()
        self.top_s = 0.0
        return snap


def layer_covered_s(snap: dict) -> float:
    """Seconds of one pass's snapshot spent inside the layers' own spans.

    These are the top-level spans, or for a `qd` call the spans directly below
    CLI_SPAN: work that moves into untraced code leaves this figure.
    """
    return snap["top_s"] - snap["stats"].get(CLI_SPAN, [0, 0.0, 0.0, 0])[2]


def _pass_values(snap: dict) -> tuple[dict, dict]:
    """Split one pass's snapshot into exact counts and measured times."""
    counts = dict(snap["counters"])
    times = {}
    for name, (calls, _total, self_s, elems) in snap["stats"].items():
        counts[name + ".calls"] = calls
        times[name + ".self_s"] = self_s
        if name.startswith("qmath."):
            counts[name + ".elems"] = elems
    for layer in LAYERS:
        times[layer + ".self_s"] = sum(
            v[2] for k, v in snap["stats"].items() if k.split(".", 1)[0] == layer
        )
    for metric, span in _REPORT_SPANS.items():
        times[metric] = times.get(span + ".self_s", 0.0)
    return counts, times


def layer_metrics(snapshots: list[dict], names: list[str]) -> tuple[dict, list[str]]:
    """Per-pass per-layer values for the metrics in `names`.

    `snapshots` holds one snapshot per traced pass. Counts come from the first
    and must repeat exactly in every other; times are medians over them. A name with no recorded span or
    counter reads 0 (the workload does not reach that layer). Returns
    (values, problems).
    """
    split = [_pass_values(r) for r in snapshots]
    problems = []
    counts0 = split[0][0]
    for i, (counts, _) in enumerate(split[1:], start=2):
        changed = sorted(k for k in set(counts) | set(counts0) if counts.get(k) != counts0.get(k))
        if changed:
            problems.append(f"traced pass {i} counts differ from pass 1: {changed[:5]}")
    values = {}
    for name in names:
        if name in counts0 or not name.endswith("_s"):
            values[name] = counts0.get(name, 0)
        else:
            values[name] = statistics.median(t.get(name, 0.0) for _, t in split)
    return values, problems
