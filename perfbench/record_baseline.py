"""Run every workload on several seeds and record a baseline.

Usage, from the root of a checkout:

    python3 perfbench/record_baseline.py [--out perfbench/baseline.json]

Every workload of BENCHMARK.json runs RUNS times untraced, each a fresh
`perfbench/run.py` process with its own seed (1, 2, ...), and TRACED_RUNS
times traced. For every end-to-end metric the script reports the median and
the spread, (q3 - q1) / median over the runs with `statistics.quantiles(n=4)`,
and marks any spread at or above a third of the metric's bound; it exits 1 if
any is marked. Traced runs give the per-layer values; their counts must agree
between runs. The JSON written to --out also holds the machine fingerprint
and each workload's reason and dominant layer.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys

import run
from workloads import WORKLOADS

RUNS, TRACED_RUNS = 10, 2


def fingerprint(seeds: list[int]) -> dict:
    import numpy as np

    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    versions = {p: importlib.metadata.version(p) for p in ("numpy", "scipy", "click", "jsonschema")}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "blas": np.__config__.CONFIG["Build Dependencies"]["blas"]["name"],
        "blas_threads": run.BLAS_THREADS,
        "git_commit": commit,
        "seeds": seeds,
    }


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    spec = run.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=os.path.join(run.HERE, "baseline.json"))
    args = parser.parse_args()

    seeds = list(range(1, RUNS + 1))
    seconds = spec["run_seconds"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    doc = {"fingerprint": fingerprint(seeds), "run_seconds": seconds, "workloads": {}}
    steady = True
    for name in why:
        untraced = [bench(name, s, seconds, 0) for s in seeds]
        traced = [bench(name, s, seconds, 1) for s in seeds[:TRACED_RUNS]]
        entry = {"why": why[name], "dominant_layer": WORKLOADS[name].dominant_layer,
                 "end_to_end": {}, "per_layer": {}}
        for m in spec["end_to_end"]:
            stats = summarize([r["metrics"][m["name"]]["value"] for r in untraced])
            entry["end_to_end"][m["name"]] = {"unit": m["unit"], "bound": m["bound"], **stats}
            flag = "" if stats["spread"] < m["bound"] / 3 else "  <-- above bound/3"
            steady &= not flag
            print(f"{name:15} {m['name']:12} median {stats['median']:.6g} {m['unit']:5} "
                  f"spread {stats['spread']:.4f} (bound {m['bound']}){flag}", flush=True)
        for m in spec["per_layer"]:
            values = [r["metrics"][m["name"]]["value"] for r in traced]
            exact = m["unit"] in ("count", "elems_computed")
            if exact and len(set(values)) > 1:
                print(f"{name:15} {m['name']} differs between traced runs: {values}")
                steady = False
            entry["per_layer"][m["name"]] = {
                "unit": m["unit"], "value": values[0] if exact else statistics.median(values)
            }
        entry["correct"] = all(r["correct"] for r in untraced + traced)
        doc["workloads"][name] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}; every spread below bound/3: {steady}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
