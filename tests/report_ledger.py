"""The SHA-256 of a fixed set of `qd` reports, pinned in report_ledger.json.

`tests/test_report_ledger.py` regenerates the reports in-process and names
each one whose hash moved. A change that moves reports on purpose rewrites
the ledger with

    PYTHONPATH=src python tests/report_ledger.py

and lists each moved report, with its reason, in CHANGES.md.
"""

import hashlib
import json
import pathlib

import numpy as np
import scipy

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
    ("bench-theorem-check", "theorem-check", {"trials": 250}, (7,), ("csv",)),
    ("bench-fixed-time", "fixed-time", {"samples": 125}, (7,), ("csv",)),
]


def fingerprint() -> dict:
    """The numerical stack the report bytes depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


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


def write_ledger() -> None:
    ledger = {"fingerprint": fingerprint(), "reports": report_hashes()}
    LEDGER.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_ledger()
    print(f"wrote {LEDGER}")
