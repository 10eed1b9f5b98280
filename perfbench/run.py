"""qdlab benchmark: one workload per invocation, in a fresh process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is `src/qdlab` of the same checkout; nothing is
installed. With `--trace 0` the run reports the end-to-end metrics listed in
BENCHMARK.json; with `--trace 1` it reports the per-layer metrics from a
separate traced run (perfbench/tracer.py). Human-readable lines come first and
the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench-tmp")

# One BLAS thread in this process and every child: the steadiest setting on a
# small shared machine, and never above nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh set-up processes per untraced run; setup_s is their median.
SETUP_PROBES = 11
IMPORT_PROBES = 3
IMPORT_PACKAGES = ("numpy", "scipy", "click", "jsonschema", "qdlab")
TAIL_BEYOND = 10
# Seconds the reference kernel takes on an idle core of the machine the
# baseline was recorded on (perfbench/baseline.json).
REFERENCE_NOMINAL_S = 0.030


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def make_reference():
    """Return a function that runs the reference kernel and returns its seconds.

    On a shared host the same work runs up to 1.5 times slower for minutes at
    a time, and CPU time slows as much as wall time. The kernel is fixed work
    that shares no code with qdlab, in the three kinds the workloads do
    (interpreted Python, many tiny numpy calls, LAPACK and BLAS); timed between
    passes, it measures how fast the machine is at that moment.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(160, 160)) + 1j * rng.normal(size=(160, 160))
    herm, square = a + a.conj().T, rng.normal(size=(256, 256))
    scalar, vector = np.float64(0.3), rng.random(8)

    def reference() -> float:
        t0 = perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i
        for _ in range(1500):
            np.clip(scalar, 1e-12, 1.0)
            np.log(vector)
            vector.sum()
        np.linalg.eigh(herm)
        square @ square
        return perf_counter() - t0

    return reference


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """`seconds` at the speed where the reference kernel takes REFERENCE_NOMINAL_S.

    The reference times are those of the kernel run just before and just
    after the timed work.
    """
    return seconds * 2.0 * REFERENCE_NOMINAL_S / (ref_before + ref_after)


def tail_percentile(samples: list[float], beyond: int = TAIL_BEYOND):
    """Highest percentile with at least `beyond` samples above it.

    Returns (percentile, value), or None when that percentile would fall
    below the median (too few samples for a tail).
    """
    ordered = sorted(samples)
    rank = len(ordered) - beyond  # 1-based rank of the tail sample
    if rank < 1 or 2 * rank < len(ordered):
        return None
    return 100.0 * rank / len(ordered), ordered[rank - 1]


@dataclass
class Passes:
    """Outcome of a closed loop of passes."""

    times: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    snapshots: list[dict] = field(default_factory=list)  # traced: one snapshot per pass
    coverage: list[float] = field(default_factory=list)  # traced: layer spans / pass
    scaled: list[float] = field(default_factory=list)  # measured: pass times, scaled
    setup_times: list[float] = field(default_factory=list)  # measured: set-up probe times
    setup: list[float] = field(default_factory=list)  # measured: set-up probe times, scaled
    refs: list[float] = field(default_factory=list)  # measured: reference kernel times


def run_pass(workload, log: Passes, tracer=None) -> None:
    """Run and check one pass and add its outcome to `log`.

    Only `run_pass` is timed; output checks run after it. A pass that raises
    counts every call in it as failed. With a tracer, the pass's snapshot and
    the share of it that the layers' spans cover are recorded too.
    """
    from tracer import layer_covered_s

    t0 = perf_counter()
    try:
        output = workload.run_pass(tracer)
    except Exception as exc:  # the loop must go on and report the failure
        dt = perf_counter() - t0
        failed = [f"{type(exc).__name__}: {exc}"] * workload.calls_per_pass
    else:
        dt = perf_counter() - t0
        failed = workload.check_pass(output)
    log.times.append(dt)
    log.attempted += workload.calls_per_pass
    log.failures += failed[: workload.calls_per_pass]
    if tracer is not None:
        snap = tracer.snapshot()
        log.snapshots.append(snap)
        log.coverage.append(layer_covered_s(snap) / dt)


def run_passes(workload, seconds: float, probe=None) -> Passes:
    """Run passes until `seconds` of wall time have elapsed (at least one).

    `probe`, if given, returns the seconds of one set-up and is called
    SETUP_PROBES times in all, between passes and in step with the elapsed
    time, so that it samples the same stretch of a shared machine's load as
    the passes. Its time is part of `seconds`. With a probe, the reference
    kernel runs before the first pass and after every pass and probe, and each
    pass and probe time is also recorded scaled by the kernel times around it.
    """
    log = Passes()
    probed, probes = 0, SETUP_PROBES if probe else 0
    reference = make_reference() if probe else None
    if reference:
        log.refs.append(reference())
    start = perf_counter()
    while not log.times or perf_counter() - start < seconds:
        run_pass(workload, log)
        if reference:
            log.refs.append(reference())
            log.scaled.append(scaled(log.times[-1], *log.refs[-2:]))
        elapsed = perf_counter() - start
        due = probes if elapsed >= seconds else int(probes * elapsed / seconds)
        for _ in range(due - probed):
            log.setup_times.append(probe())
            log.refs.append(reference())
            log.setup.append(scaled(log.setup_times[-1], *log.refs[-2:]))
        probed = max(probed, due)
    return log


def probe_setup(workload_name: str, seed: int, workdir: str) -> float:
    """Seconds from spawning a fresh process to the end of the workload's set-up."""
    probe_dir = tempfile.mkdtemp(dir=workdir)
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), workload_name, str(seed), probe_dir],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return float(proc.stdout.split()[-1]) - spawned


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per top-level package from `python -X importtime`.

    Lines come children first; a package's time is the sum of the cumulative
    times of its entries that no other entry of the same package encloses.
    """
    entries = [
        (len(m.group(3)) // 2, m.group(4), int(m.group(2)) / 1e6)
        for m in map(_IMPORTTIME.match, stderr.splitlines()) if m
    ]
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    enclosing: list[str] = []
    for depth, module, cumulative in reversed(entries):
        del enclosing[depth:]
        package = module.split(".", 1)[0]
        if package in totals and package not in enclosing:
            totals[package] += cumulative
        enclosing.append(package)
    return totals


def probe_imports() -> dict[str, float]:
    runs = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qdlab.cli"],
            capture_output=True, text=True, timeout=150, check=True,
        )
        runs.append(import_times(proc.stderr))
    return {f"cli.import.{p}_s": statistics.median(r[p] for r in runs) for p in IMPORT_PACKAGES}


def end_to_end(log: Passes) -> dict[str, float]:
    return {
        "setup_s": statistics.median(log.setup),
        "pass_norm_s": statistics.median(log.scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(workload, seconds: float, pass_bound: float, names: list[str]):
    """Untraced and traced passes in turn; per-layer metrics and problems.

    The tracer is installed for each traced pass only, so each traced pass
    and the untraced pass before it see the same state of a shared machine.
    """
    from tracer import Tracer, layer_metrics

    untraced, log = Passes(), Passes()
    tracer = Tracer()
    start = perf_counter()
    try:
        while not log.times or perf_counter() - start < seconds:
            run_pass(workload, untraced)
            tracer.install()
            run_pass(workload, log, tracer)
            tracer.uninstall()
    finally:
        tracer.uninstall()
    extra = probe_imports()
    extra["trace.overhead_frac"] = statistics.median(
        t / u for t, u in zip(log.times, untraced.times)
    ) - 1.0
    values, problems = layer_metrics(log.snapshots, [n for n in names if n not in extra])
    values.update(extra)
    share = statistics.median(log.coverage)
    print(f"layer spans cover {share:.4f} of a traced pass (median; seed commit "
          f"{workload.layer_share})")
    low, high = workload.layer_share - pass_bound, 1.0 + pass_bound
    if not low <= share <= high:
        problems.append(f"layer spans cover {share:.3f} of a traced pass, "
                        f"outside [{low:.2f}, {high:.2f}]")
    merged = Passes(untraced.times + log.times, untraced.attempted + log.attempted,
                    untraced.failures + log.failures)
    return values, merged, problems


def result_line(spec_metrics: list[dict], values: dict, attempted: int, failed: int,
                correct: bool) -> str:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def measure(workload, seed: int, seconds: float, trace: bool, spec: dict, workdir: str):
    """Set up, warm up, run and check one workload. Returns (line, correct)."""
    kind = "per_layer" if trace else "end_to_end"
    workload.setup(seed, workdir)
    warmup = run_passes(workload, 0.0)  # one pass: fills caches, fixes reference outputs
    problems = []
    if trace:
        bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "pass_norm_s")
        values, log, problems = traced(workload, seconds, bound, [m["name"] for m in spec[kind]])
    else:
        log = run_passes(workload, seconds, lambda: probe_setup(workload.name, seed, workdir))
        values = end_to_end(log)
    problems += workload.finish()
    attempted = warmup.attempted + log.attempted
    failures = warmup.failures + log.failures
    correct = not failures and not problems

    print(f"workload {workload.name}: seed {seed}, {len(log.times)} timed passes, "
          f"BLAS threads {BLAS_THREADS}, {'traced' if trace else 'untraced'}")
    for m in spec[kind]:
        print(f"  {m['name']} = {values[m['name']]!r} {m['unit']} ({m['better']} is better)")
    if not trace:
        # Printed, not gated: unscaled times follow the load that other
        # tenants put on a shared host, which is not steady.
        print(f"  pass_s = {statistics.median(log.times)!r} s (median wall time, unscaled)")
        print(f"  setup_s unscaled = {statistics.median(log.setup_times)!r} s (median)")
        print(f"  reference kernel = {statistics.median(log.refs)!r} s (median; "
              f"{REFERENCE_NOMINAL_S} s sets the scale)")
        items_per_s = workload.items_per_pass * len(log.times) / sum(log.times)
        print(f"  items_per_s = {items_per_s!r} 1/s (higher is better)")
        tail = tail_percentile(log.times)
        print("  pass_tail_s = " + (
            f"{tail[1]!r} s (p{tail[0]:.1f}, {TAIL_BEYOND} of {len(log.times)} passes beyond)"
            if tail else f"not reported ({len(log.times)} passes)"))
    print(f"  fail_frac = {len(failures) / attempted!r} ({len(failures)} of {attempted} calls)")
    for note in workload.notes + failures[:5] + problems:
        print(f"  {note}")
    return result_line(spec[kind], values, attempted, len(failures), correct), correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1234567890)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qdlab", "__init__.py")):
        print(f"error: no qdlab sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    os.environ.pop("QD_WORKERS", None)
    sys.path.insert(0, SRC)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    os.makedirs(TMP_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        line, correct = measure(
            WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace), spec, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(TMP_ROOT)
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
