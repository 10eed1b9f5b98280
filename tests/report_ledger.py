"""The SHA-256 of a fixed set of `qd` reports, pinned in report_ledger.json.

`tests/test_report_ledger.py` regenerates the reports in-process and names
each one whose hash moved. A change that moves reports on purpose rewrites
the ledger with

    PYTHONPATH=src python tests/report_ledger.py

which first prints each moved, added and removed report as `name old12 -> new12`
(the first 12 hex digits of each hash, `-` for none), for CHANGES.md's list of
moved reports and their reasons.
"""

import hashlib
import json
import pathlib

import numpy as np

from qdlab import cli

LEDGER = pathlib.Path(__file__).with_name("report_ledger.json")

# (label, experiment, parameter overrides, seeds, formats): every experiment
# at its defaults, theorem-check search, and the benchmark's in-process runs.
RUNS = [
    *((exp, exp, {}, (3, 7, 1234567890), cli.OUTPUT_FORMATS) for exp in cli.EXPERIMENTS),
    ("theorem-check-search-300", "theorem-check", {"mode": "search", "trials": 300}, (7,),
     ("csv",)),
    # 400 trials at d = 16 are 4 blocks of _ARC_BLOCK_ELEMS: the join of flagged rows.
    ("theorem-check-search-d16", "theorem-check", {"mode": "search", "dims": [16], "trials": 400},
     (7,), ("csv",)),
    ("bench-figure1", "figure1", {"points": 25}, (7,), ("csv",)),
    # Peak refinements on brackets and grids that the two runs above do not use.
    ("figure1-refine-grid512", "figure1",
     {"ratio_min": 0.05, "ratio_max": 2.0, "points": 6, "grid": 512}, (7,), ("csv",)),
    ("figure1-refine-grid64", "figure1",
     {"ratio_min": 0.1, "ratio_max": 0.5, "points": 5, "grid": 64}, (7,), ("csv",)),
    # The best point is the first, an end point, so the peak is not refined.
    ("figure1-refine-edge", "figure1", {"ratio_min": 0.5, "ratio_max": 5.0, "points": 4}, (7,),
     ("csv",)),
    # Ratios from e^{-gamma t} near 1 to values below the scan's stopping margin.
    ("figure1-wide", "figure1",
     {"ratio_min": 1e-4, "ratio_max": 1e4, "points": 13, "grid": 256}, (7,), ("csv",)),
    # Neighbours so far apart that e^{-gamma t} is 0 over most of a refinement row's bracket.
    ("figure1-sparse-wide", "figure1", {"ratio_min": 1e-30, "ratio_max": 1e30, "points": 3},
     (7,), ("csv",)),
    ("bench-theorem-check", "theorem-check", {"trials": 250}, (7,), ("csv",)),
    ("bench-fixed-time", "fixed-time", {"samples": 125}, (7,), ("csv",)),
    # fixed-time at the smallest dimension, a mid one and a large one.
    ("fixed-time-d1", "fixed-time", {"dim": 1}, (7,), ("csv",)),
    ("fixed-time-d16", "fixed-time", {"dim": 16}, (7,), ("csv",)),
    ("fixed-time-d96", "fixed-time", {"dim": 96, "samples": 5}, (7,), ("csv",)),
    # The three-direction trine, which the default tetrahedron never runs.
    ("superdense-planar-trine", "superdense", {"geometry": "planar-trine"}, (7,), ("csv",)),
    ("superdense-lifted-trine", "superdense", {"geometry": "lifted-trine", "cos_theta": -0.25},
     (7,), ("csv",)),
    # metrology under the noise kinds the default run does not use, and at a
    # decay so slow that the optimum sits on the time budget.
    ("metrology-none", "metrology", {"noise": "none"}, (7,), ("csv",)),
    ("metrology-symmetric", "metrology", {"noise": "symmetric"}, (7,), ("csv",)),
    ("metrology-qubit-depolarizing", "metrology", {"noise": "qubit_depolarizing", "n": 1},
     (7,), ("csv",)),
    ("metrology-boundary", "metrology", {"gamma": 1e-6, "t_total": 10.0}, (7,), ("csv",)),
    # More qubits than a dense 2^n state could hold: the closed form builds no array.
    ("metrology-n16", "metrology", {"n": 16}, (7,), ("csv",)),
]


def fingerprint() -> dict:
    """The numerical stack the report bytes depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def report_hashes() -> dict:
    """{"<label>-seed<seed>.<format>": sha256 hex} for every report of RUNS,
    serialized as `qd` writes it; each run computes its rows once."""
    hashes = {}
    for label, experiment, overrides, seeds, formats in RUNS:
        exp = cli.EXPERIMENTS[experiment]
        params = cli._merge_params(exp, overrides)
        for seed in seeds:
            row_type, rows, _ = exp.runner(params, seed)
            for fmt in formats:
                payload = (cli.rows_to_csv(row_type._fields, rows) if fmt == "csv"
                           else cli.rows_to_json(experiment, seed, params, rows))
                hashes[f"{label}-seed{seed}.{fmt}"] = hashlib.sha256(payload).hexdigest()
    return hashes


def moved_reports(old: dict, new: dict) -> list[str]:
    """`name old12 -> new12` for each report whose hash differs between two
    {name: sha256} maps, in name order; `-` stands for an added or removed one."""
    return [f"{name} {old.get(name, '-')[:12]} -> {new.get(name, '-')[:12]}"
            for name in sorted(old.keys() | new.keys()) if old.get(name) != new.get(name)]


def write_ledger(reports: dict) -> None:
    ledger = {"fingerprint": fingerprint(), "reports": reports}
    LEDGER.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    reports = report_hashes()
    old = json.loads(LEDGER.read_text(encoding="utf-8"))["reports"] if LEDGER.exists() else {}
    for line in moved_reports(old, reports):
        print(line)
    write_ledger(reports)
    print(f"wrote {LEDGER}")
