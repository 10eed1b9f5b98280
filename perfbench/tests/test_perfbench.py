"""Tests of the benchmark itself: its statistics, result line, checks and tracer.

Run from the root of a checkout: python -m pytest perfbench/tests
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer, layer_covered_s, layer_metrics  # noqa: E402

SPEC = run.load_spec()


def test_tail_percentile_is_highest_with_ten_samples_beyond():
    assert run.tail_percentile([float(x) for x in reversed(range(1, 101))]) == (90.0, 90.0)
    assert run.tail_percentile([float(x) for x in range(1, 26)]) == (60.0, 15.0)
    # Fewer than 20 samples: the candidate would sit below the median.
    assert run.tail_percentile([float(x) for x in range(1, 20)]) is None
    assert run.tail_percentile([1.0] * 10) is None


def test_scaled_time_is_independent_of_machine_speed():
    reference = run.make_reference()
    assert 0 < reference() < 10
    # Work and reference slowed alike read the same; one slowed alone does not.
    nominal = run.REFERENCE_NOMINAL_S
    assert run.scaled(0.5, nominal, nominal) == pytest.approx(0.5)
    assert run.scaled(0.75, 1.4 * nominal, 1.6 * nominal) == pytest.approx(0.5)
    assert run.scaled(0.75, nominal, nominal) == pytest.approx(0.75)


def test_result_line_has_every_metric_with_unit_and_direction():
    for kind in ("end_to_end", "per_layer"):
        metrics = SPEC[kind]
        values = {m["name"]: 1.5 for m in metrics}
        doc = json.loads(run.result_line(metrics, values, 4, 0, True))
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert list(doc["metrics"]) == [m["name"] for m in metrics]
        for m in metrics:
            assert doc["metrics"][m["name"]] == {"value": 1.5, "unit": m["unit"]}
            assert m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_names_refer_to_real_functions():
    import qdlab.cli  # noqa: F401

    extras = {f"cli.import.{p}_s" for p in run.IMPORT_PACKAGES} | {"trace.overhead_frac"}
    counters = {"discrimination.grid_golden_minimize.objective_calls", "cli.report.bytes",
                "metrology.objective.scalar_calls", "metrology.objective.vector_calls",
                "cli.report.rows_to_csv_s", "cli.report.write_atomic_s"}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name in extras | counters or name in {f"{layer}.self_s" for layer in LAYERS}:
            continue
        layer, function, stat = name.split(".")
        assert callable(getattr(sys.modules[f"qdlab.{layer}"], function)), name
        assert stat in ("calls", "self_s", "elems"), name
        assert stat != "elems" or layer == "qmath", name


class FlakyWorkload(workloads.Workload):
    """Every other pass fails its output check; one pass raises."""

    name = "flaky"
    calls_per_pass = 2

    def setup(self, seed, workdir):
        self.passes = 0

    def run_pass(self, tracer):
        self.passes += 1
        if self.passes == 3:
            raise ValueError("boom")
        return self.passes

    def check_pass(self, n):
        return ["wrong output"] if n % 2 else []


def test_failed_check_is_counted_and_run_is_not_clean(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "probe_setup", lambda *args: 0.25)
    line, correct = run.measure(FlakyWorkload(), 1, 0.5, False, SPEC, str(tmp_path))
    doc = json.loads(line)
    assert not correct and doc["correct"] is False
    assert 0 < doc["failed"] < doc["attempted"]
    out = capsys.readouterr().out
    fail_line = next(x for x in out.splitlines() if "fail_frac" in x)
    assert float(fail_line.split("=")[1].split()[0]) > 0
    # The pass that raised counts both of its calls as failed.
    assert out.count("ValueError: boom") == 2


def test_import_times_sums_outermost_entries_per_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        20 |         20 |     click",
        "import time:        30 |        200 |   qdlab.cli",
        "import time:        10 |        360 | qdlab",
        "import time:         5 |          5 | scipy",
    ])
    times = run.import_times(stderr)
    assert times["numpy"] == pytest.approx(150e-6)
    assert times["click"] == pytest.approx(20e-6)
    assert times["qdlab"] == pytest.approx(360e-6)
    assert times["scipy"] == pytest.approx(5e-6)
    assert times["jsonschema"] == 0.0


def test_self_time_is_span_minus_child_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.01)
        time.sleep(0.005)
    outer, inner = tracer.stats["outer"], tracer.stats["inner"]
    assert outer[2] == pytest.approx(outer[1] - inner[1], abs=1e-12)
    assert inner[2] == inner[1]
    assert tracer.top_s == outer[1]


def test_tracer_patches_every_lookup_site_and_restores_them():
    from qdlab import discrimination, metrology

    original = discrimination.grid_golden_minimize
    tracer = Tracer()
    tracer.install()
    try:
        # metrology bound the name at import; both sites must see the wrapper.
        assert metrology.grid_golden_minimize is discrimination.grid_golden_minimize
        assert metrology.grid_golden_minimize is not original
        traced_point = metrology.figure1_point(0.3, grid=64)
    finally:
        tracer.uninstall()
    assert metrology.grid_golden_minimize is original
    assert discrimination.grid_golden_minimize is original
    assert traced_point == metrology.figure1_point(0.3, grid=64)

    values, problems = layer_metrics([tracer.snapshot()], [m["name"] for m in SPEC["per_layer"]])
    assert not problems
    assert values["discrimination.grid_golden_minimize.calls"] == 6
    assert values["metrology.objective.vector_calls"] == 6
    assert values["metrology.objective.scalar_calls"] > 0
    assert values["discrimination.grid_golden_minimize.objective_calls"] == (
        values["metrology.objective.vector_calls"] + values["metrology.objective.scalar_calls"]
    )
    assert values["metrology.figure1_point.self_s"] > 0
    assert values["qmath.herm_eig.calls"] == 0


def test_traced_report_is_identical_and_spans_cover_the_pass(tmp_path):
    from qdlab import cli

    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "pass_norm_s")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"parameters": {"samples": 20}}))
    out = tmp_path / "r.csv"
    args = ["fixed-time", "--config", str(config), "--out", str(out), "--workers", "1"]
    assert workloads.run_qd(cli, args, None) == 0
    untraced = out.read_bytes()

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        assert workloads.run_qd(cli, args, tracer) == 0
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert out.read_bytes() == untraced
    snap = tracer.snapshot()
    # The tracer loses no time: the top-level span is the pass.
    assert abs(snap["top_s"] / wall - 1.0) <= bound
    # Coverage counts layer spans only, not click dispatch under cli.main.
    assert 0 < layer_covered_s(snap) < snap["top_s"]
    assert snap["stats"]["discrimination.fixed_time_overlap"][0] == 40


class UntracedWorkload(workloads.Workload):
    """Its whole pass runs inside cli.main but outside every layer function."""

    name = "untraced"

    def setup(self, seed, workdir):
        pass

    def run_pass(self, tracer):
        with tracer.span("cli.main") if tracer else contextlib.nullcontext():
            time.sleep(0.002)

    def check_pass(self, output):
        return []


def test_traced_run_fails_when_work_leaves_the_layers(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "probe_imports", lambda: {})
    line, correct = run.measure(UntracedWorkload(), 1, 0.05, True, SPEC, str(tmp_path))
    assert not correct and json.loads(line)["correct"] is False
    assert "layer spans cover 0.000 of a traced pass" in capsys.readouterr().out


def test_tracer_is_installed_for_every_other_pass_only(monkeypatch, tmp_path):
    from qdlab import discrimination

    original = discrimination.grid_golden_minimize
    seen = []

    class Recording(UntracedWorkload):
        def run_pass(self, tracer):
            seen.append((tracer is not None, discrimination.grid_golden_minimize is not original))

    monkeypatch.setattr(run, "probe_imports", lambda: {})
    run.measure(Recording(), 1, 0.01, True, SPEC, str(tmp_path))
    assert seen[0] == (False, False)  # the untimed warm-up pass
    assert seen[1:] == [(False, False), (True, True)] * ((len(seen) - 1) // 2)
    assert discrimination.grid_golden_minimize is original


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figure1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
