import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

RUN = [sys.executable, "-m", "qdlab.cli"]


def qd(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run(
        RUN + list(args), capture_output=True, text=True, env=env, cwd=cwd, timeout=300
    )


# (key, value) breaks one top-level rule; a None key stands for a config that is no object.
TOP_LEVEL_FAULTS = [
    (None, None), (None, []), (None, "figure1"), (None, 3.5), ("extra", 1), ("experiment", 3),
    ("experiment", "no-such-experiment"), ("parameters", []), ("seed", -1), ("seed", 2**64),
    ("seed", 1.0), ("seed", True), ("seed", "x"), ("output", []), ("output", {"format": "xml"}),
    ("output", {"path": 3}), ("output", {"path": "a.csv", "extra": 1}),
]


class TestListing:
    def test_lists_all_experiments(self):
        result = qd("list")
        assert result.returncode == 0
        names = [
            "superdense", "grover", "two-ham", "fixed-time", "eliminate",
            "phase-est", "metrology", "figure1", "theorem-check",
        ]
        for name in names:
            assert name in result.stdout
        assert sum(1 for n in names if n in result.stdout) == 9

    def test_listing_is_stable(self):
        a, b = qd("list"), qd("list")
        assert a.stdout == b.stdout


class TestConfigHandling:
    def test_unknown_experiment(self, tmp_path):
        result = qd("warp-drive")
        assert result.returncode == 2

    def test_malformed_config_exits_2_without_output(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        out = tmp_path / "report.csv"
        result = qd("grover", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 2
        assert not out.exists()

    def test_schema_violation(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"experiment": "grover", "seed": "not-an-int"}))
        result = qd("grover", "--config", str(cfg), "--out", str(tmp_path / "r.csv"))
        assert result.returncode == 2

    def test_unknown_parameter(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "grover", "parameters": {"bogus": 1}}))
        result = qd("grover", "--config", str(cfg), "--out", str(tmp_path / "r.csv"))
        assert result.returncode == 2

    def test_experiment_mismatch(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "grover"}))
        result = qd("superdense", "--config", str(cfg), "--out", str(tmp_path / "r.csv"))
        assert result.returncode == 2

    @pytest.mark.parametrize("seed", ["-5", str(2**64)])
    def test_seed_outside_schema_range_exits_2(self, tmp_path, seed):
        out = tmp_path / "r.csv"
        result = qd("superdense", "--seed", seed, "--out", str(out))
        assert result.returncode == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment, parameters",
        [
            ("figure1", {"grid": 0}),
            ("eliminate", {"trials": 0}),
            ("phase-est", {"trials": 0}),
            ("theorem-check", {"trials": 0}),
            ("theorem-check", {"dims": []}),
            ("theorem-check", {"dims": [-2]}),
            ("theorem-check", {"dims": [2, 0]}),
            ("theorem-check", {"dims": [], "mode": "search"}),
            ("theorem-check", {"dims": [3, -2], "mode": "search"}),
            ("fixed-time", {"samples": 0}),
            ("grover", {"sizes": []}),
        ],
    )
    def test_zero_size_sweep_exits_2_without_traceback(self, tmp_path, experiment, parameters):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": experiment, "parameters": parameters}))
        out = tmp_path / "r.csv"
        result = qd(experiment, "--config", str(cfg), "--out", str(out))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("dims", [[], [-2], [2, 0]])
    def test_theorem_check_bad_dims_refused_before_any_draw(self, dims, monkeypatch, tmp_path,
                                                            capsys):
        from qdlab import cli, spectral_arc

        def no_draw(*args, **kwargs):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(spectral_arc, "arc_bound_sweep", no_draw)
        monkeypatch.setattr(spectral_arc, "counterexample_search", no_draw)
        cfg, out = tmp_path / "cfg.json", tmp_path / "r.csv"
        for mode in ("verify", "search"):
            cfg.write_text(json.dumps({"parameters": {"dims": dims, "mode": mode}}))
            with pytest.raises(SystemExit) as exc:
                cli.main(["theorem-check", "--config", str(cfg), "--out", str(out)],
                         standalone_mode=False)
            assert exc.value.code == 2
            assert "dims" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "experiment, parameters",
        [
            ("fixed-time", {"dim": 0}),
            ("fixed-time", {"dim": 1025}),
            ("eliminate", {"dim": 0}),
            ("eliminate", {"dim": 1025}),
            ("eliminate", {"n_hypotheses": 1}),
            ("eliminate", {"n_hypotheses": 100001}),
            # Within each bound, but the generators would take 17 * 1024^2 entries.
            ("eliminate", {"n_hypotheses": 17, "dim": 1024}),
        ],
    )
    def test_matrix_sizes_refused_before_any_draw(self, experiment, parameters, monkeypatch,
                                                  tmp_path, capsys):
        from qdlab import cli, spectral_arc

        def no_draw(*args, **kwargs):
            raise AssertionError("a matrix was drawn")

        monkeypatch.setattr(spectral_arc, "random_hermitian", no_draw)
        cfg, out = tmp_path / "cfg.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({"parameters": parameters}))
        with pytest.raises(SystemExit) as exc:
            cli.main([experiment, "--config", str(cfg), "--out", str(out)], standalone_mode=False)
        assert exc.value.code == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_many_small_hypotheses_still_run(self, tmp_path):
        from qdlab import cli

        cfg, out = tmp_path / "cfg.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({"parameters": {"n_hypotheses": 100, "trials": 2}}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["eliminate", "--check", "--config", str(cfg), "--out", str(out)],
                     standalone_mode=False)
        assert exc.value.code == 0

    def test_theorem_check_empty_dims_with_check_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"parameters": {"dims": []}}))
        result = qd("theorem-check", "--check", "--config", str(cfg))
        assert result.returncode == 2
        assert "dims" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("seed", ["1.0", "1e3", "true", "-0.0"])
    def test_non_integer_config_seed_exits_2(self, tmp_path, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"seed": {seed}}}')
        out = tmp_path / "r.csv"
        result = qd("superdense", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("key, value", TOP_LEVEL_FAULTS)
    def test_config_breaking_a_top_level_rule_exits_2(self, tmp_path, capsys, key, value):
        from qdlab import cli

        cfg, out = tmp_path / "cfg.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps(value if key is None else {key: value}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["superdense", "--config", str(cfg), "--out", str(out)], standalone_mode=False)
        assert exc.value.code == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_top_level_edges_are_accepted(self, tmp_path):
        from qdlab import cli

        cfg = tmp_path / "cfg.json"
        for config in ({}, {"seed": 0}, {"seed": 2**64 - 1}, {"output": {"format": "json"}},
                       {"experiment": "x", "parameters": {}, "output": {"path": "a.csv"}}):
            cfg.write_text(json.dumps(config))
            assert cli.load_config(str(cfg)) == config

    @pytest.mark.parametrize(
        "experiment, parameters",
        [
            ("figure1", {"points": "abc"}),
            ("figure1", {"points": 2.5}),
            ("figure1", {"points": True}),
            ("figure1", {"refine_peak": "no"}),
            ("figure1", {"ratio_min": "0.1"}),
            ("superdense", {"geometry": 4}),
            ("grover", {"sizes": 16}),
            ("metrology", {"noise": "bogus"}),
            ("grover", {"sizes": ["a"]}),
            ("grover", {"sizes": [2.5]}),
            ("theorem-check", {"dims": [True, 3]}),
            ("two-ham", {"gamma": math.nan}),
            ("metrology", {"gamma": math.nan}),
            ("figure1", {"ratio_max": math.inf}),
            ("theorem-check", {"h_norm_max": math.nan}),
            ("two-ham", {"gamma": 10**400}),
        ],
    )
    def test_mistyped_parameter_exits_2_without_traceback(self, tmp_path, experiment, parameters):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": experiment, "parameters": parameters}))
        out = tmp_path / "r.csv"
        result = qd(experiment, "--config", str(cfg), "--out", str(out))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, config, code, message",
        [
            (["superdense", "--check"], '{"parameters": {"geometry": "cube"}}', 2, "one of"),
            (
                ["theorem-check", "--check"],
                '{"parameters": {"mode": "search", "trials": 2}}',
                2,
                "verify mode only",
            ),
            (["figure1"], '{"parameters": {"ratio_max": 1e999}}', 2, "finite"),
            (["grover"], json.dumps({"parameters": {"sizes": [2**1100]}}), 3, "too large"),
            (
                ["superdense"],
                '{"parameters": {"geometry": "lifted-trine", "cos_theta": 2.0}}',
                3,
                "cos_theta",
            ),
            (
                ["figure1"],
                '{"parameters": {"ratio_min": 5.0, "ratio_max": 1.0}}',
                2,
                "ratio_min 5.0 exceeds ratio_max 1.0",
            ),
        ],
        ids=["superdense-check-geometry", "theorem-check-check-search", "literal-1e999",
             "grover-size-overflow", "superdense-no-cone", "figure1-reversed-ratios"],
    )
    def test_config_exits_with_code_without_traceback(self, tmp_path, args, config, code, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        out = tmp_path / "r.csv"
        result = qd(*args, "--config", str(cfg), "--out", str(out))
        assert result.returncode == code
        assert message in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    def test_phase_est_over_qubit_cap_exits_3(self, tmp_path):
        from qdlab.phase_estimation import MAX_PREPARE_QUBITS

        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"experiment": "phase-est", "parameters": {"n": MAX_PREPARE_QUBITS + 1}})
        )
        out = tmp_path / "r.csv"
        result = qd("phase-est", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 3
        assert "exceeds" in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    def test_figure1_least_positive_ratio_runs_without_warning(self, tmp_path):
        # The time window min(4 pi, 10 / ratio) stays finite at any positive
        # ratio; at 5e-324 there is no decoherence, so both probes gain one bit.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"parameters": {"ratio_min": 5e-324, "points": 3, "grid": 16}}')
        out = tmp_path / "r.csv"
        result = qd("figure1", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 0
        assert "Traceback" not in result.stderr
        assert "Warning" not in result.stderr
        first = next(csv.DictReader(out.open(encoding="utf-8")))
        assert float(first["ratio"]) == 5e-324
        assert float(first["info_ent"]) == float(first["info_prod"]) == 1.0

    def test_numerical_precondition_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"experiment": "superdense",
                        "parameters": {"geometry": "lifted-trine", "cos_theta": 0.4}})
        )
        result = qd("superdense", "--config", str(cfg), "--out", str(tmp_path / "r.csv"))
        assert result.returncode == 3


def just_outside(default, bound):
    """The values next to an inclusive (low, high) bound on either side of it, finite only."""
    low, high = bound
    if isinstance(default, float):
        return [math.nextafter(x, to) for x, to in ((low, -math.inf), (high, math.inf))
                if math.isfinite(x)]
    return [low - 1, high + 1]


class TestRegistry:
    """Every parameter declared in `cli.EXPERIMENTS` is type-, choice- and bound-checked."""

    # JSON values of every type other than the default's (int is a valid float).
    WRONG = {
        bool: [None, 1, 2.5, "x", [], {}],
        int: [None, True, 2.5, "x", [], {}],
        float: [None, True, "x", [], {}, math.nan, math.inf, -math.inf],
        str: [None, True, 1, 2.5, [], {}],
        list: [None, True, 1, 2.5, "x", {}],
    }

    def test_every_wrong_value_exits_2_without_report(self, tmp_path, capsys):
        from qdlab import cli

        cfg, out = tmp_path / "cfg.json", tmp_path / "r.csv"
        failures = []
        for name, exp in cli.EXPERIMENTS.items():
            for key, allowed in exp.choices.items():
                assert exp.defaults[key] in allowed, (name, key)
            assert cli._merge_params(exp, exp.defaults) == exp.defaults
            for key, default in exp.defaults.items():
                values = list(self.WRONG[type(default)])
                if isinstance(default, list):
                    values += [[value] for value in self.WRONG[type(default[0])]]
                    values.append([])
                if key in exp.choices:
                    values.append("not-a-choice")
                if key in exp.bounds:
                    item = default[0] if isinstance(default, list) else default
                    outside = just_outside(item, exp.bounds[key])
                    values += [[x] for x in outside] if isinstance(default, list) else outside
                for value in values:
                    cfg.write_text(json.dumps({"parameters": {key: value}}))
                    code = 0
                    try:
                        cli.main([name, "--config", str(cfg), "--out", str(out)],
                                 standalone_mode=False)
                    except SystemExit as exc:
                        code = exc.code
                    if code != 2 or out.exists() or "config error" not in capsys.readouterr().err:
                        failures.append((name, key, value, code))
        assert failures == []

    def test_bound_edges_are_accepted(self):
        from qdlab import cli

        for exp in cli.EXPERIMENTS.values():
            for key, (low, high) in exp.bounds.items():
                for edge in (low, high) if math.isfinite(high) else (low,):
                    value = [edge] if isinstance(exp.defaults[key], list) else edge
                    assert cli._merge_params(exp, {key: value})[key] == value

    def test_json_report_echoes_converted_parameters(self, tmp_path):
        from qdlab import cli

        cfg, out = tmp_path / "cfg.json", tmp_path / "r.json"
        cfg.write_text(json.dumps({"parameters": {"omega": 2}}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["two-ham", "--config", str(cfg), "--out", str(out), "--format", "json"],
                     standalone_mode=False)
        assert exc.value.code == 0
        echoed = json.loads(out.read_text())["parameters"]["omega"]
        assert isinstance(echoed, float) and echoed == 2.0


class TestReports:
    def test_empty_rows_still_have_header(self):
        from qdlab import cli

        assert cli.rows_to_csv(["a", "b"], []) == b"a,b\n"

    def test_csv_report(self, tmp_path):
        out = tmp_path / "grover.csv"
        result = qd("grover", "--out", str(out))
        assert result.returncode == 0
        lines = out.read_text(encoding="utf-8").split("\n")
        assert lines[0] == "N,energy,T,success_prob"
        assert len(lines) == 7  # header + 5 rows + trailing newline

    def test_json_report(self, tmp_path):
        out = tmp_path / "grover.json"
        result = qd("grover", "--out", str(out), "--format", "json", "--seed", "7")
        assert result.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["experiment"] == "grover"
        assert doc["seed"] == 7
        assert len(doc["rows"]) == 5

    def test_default_output_dir_env(self, tmp_path):
        result = qd("superdense", env_extra={"QD_OUT_DIR": str(tmp_path)})
        assert result.returncode == 0
        assert (tmp_path / "superdense.csv").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "eliminate", "seed": 1}))
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        qd("eliminate", "--config", str(cfg), "--seed", "99", "--out", str(out1))
        qd("eliminate", "--seed", "99", "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "experiment": "figure1",
                    "parameters": {"points": 24, "grid": 512, "ratio_min": 0.05,
                                   "ratio_max": 2.0},
                    "seed": 5,
                }
            )
        )
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            result = qd("figure1", "--config", str(cfg), "--out", str(out))
            assert result.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_worker_count_does_not_change_output(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "experiment": "figure1",
                    "parameters": {"points": 16, "grid": 512, "ratio_min": 0.05,
                                   "ratio_max": 2.0},
                }
            )
        )
        payloads = []
        for workers in ("1", "4"):
            out = tmp_path / f"w{workers}.csv"
            result = qd(
                "figure1", "--config", str(cfg), "--out", str(out),
                env_extra={"QD_WORKERS": workers},
            )
            assert result.returncode == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]

    def test_theorem_check_workers(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"experiment": "theorem-check",
                 "parameters": {"dims": [2, 3], "trials": 40}}
            )
        )
        payloads = []
        for workers in ("1", "3"):
            out = tmp_path / f"w{workers}.csv"
            result = qd("theorem-check", "--config", str(cfg), "--out", str(out),
                        "--workers", workers)
            assert result.returncode == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]


class TestFigure1Report:
    """The `qd figure1` report is `metrology.figure1_curve` written out."""

    PARAMS = {"points": 6, "grid": 256, "ratio_min": 0.05, "ratio_max": 2.0}

    @pytest.fixture(scope="class")
    def curve(self):
        from qdlab import metrology

        p = self.PARAMS
        ratios = np.logspace(math.log10(p["ratio_min"]), math.log10(p["ratio_max"]), p["points"])
        return metrology.figure1_curve(ratios, grid=p["grid"], refine_peak=True)

    def _run(self, tmp_path, fmt):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "figure1", "parameters": self.PARAMS}))
        out = tmp_path / f"r.{fmt}"
        result = qd("figure1", "--config", str(cfg), "--out", str(out), "--format", fmt)
        assert result.returncode == 0
        return out.read_text(encoding="utf-8")

    def test_csv_rows_are_the_curve_points(self, tmp_path, curve):
        from qdlab import metrology

        reader = csv.reader(io.StringIO(self._run(tmp_path, "csv")))
        header, *rows = list(reader)
        assert header == [f.name for f in dataclasses.fields(metrology.Figure1Point)]
        assert [[float(v) for v in row] for row in rows] == [
            list(dataclasses.astuple(p)) for p in curve.points
        ]

    def test_json_rows_are_the_curve_points(self, tmp_path, curve):
        doc = json.loads(self._run(tmp_path, "json"))
        assert doc["rows"] == [dataclasses.asdict(p) for p in curve.points]


class TestCheckFlag:
    @pytest.mark.parametrize("experiment", ["grover", "superdense", "two-ham", "metrology"])
    def test_passing_checks(self, experiment):
        result = qd(experiment, "--check")
        assert result.returncode == 0
        assert "PASS" in result.stdout
        assert "FAIL" not in result.stdout

    def test_eliminate_check(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "eliminate", "parameters": {"trials": 8}}))
        result = qd("eliminate", "--config", str(cfg), "--check")
        assert result.returncode == 0

    def test_figure1_check_reports_known_location_failure(self, tmp_path):
        # Documented: the improvement peak reproduces the target height but
        # not the target location, so this check exits 1 with one FAIL line.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"experiment": "figure1", "parameters": {"points": 60, "grid": 1024}})
        )
        result = qd("figure1", "--config", str(cfg), "--check")
        assert result.returncode == 1
        assert "[PASS] figure1: peak improvement" in result.stdout
        assert "[FAIL] figure1: peak location" in result.stdout

    def test_theorem_check_search_refused_before_the_search(self, tmp_path, monkeypatch, capsys):
        from qdlab import cli, spectral_arc

        def no_search(*args, **kwargs):
            raise AssertionError("the counterexample search ran")

        monkeypatch.setattr(spectral_arc, "counterexample_search", no_search)
        cfg, out = tmp_path / "cfg.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({"parameters": {"mode": "search"}}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["theorem-check", "--check", "--config", str(cfg), "--out", str(out)],
                     standalone_mode=False)
        assert exc.value.code == 2
        assert "verify mode only" in capsys.readouterr().err
        assert not out.exists()


# Sizes small enough that every accepted fuzz config runs in well under a second.
SMALL = {"trials": 3, "samples": 3, "points": 3, "grid": 16, "dims": [2]}


def edge_values(default, bound):
    """Values at, just inside and just outside the lower bound, and just outside the upper.

    The upper bounds are resource caps, so a value at or inside one would run a large sweep;
    `test_bound_edges_are_accepted` checks that the caps themselves are accepted.
    """
    low = bound[0]
    inside = math.nextafter(low, math.inf) if isinstance(default, float) else low + 1
    return [low, inside] + just_outside(default, bound)


@st.composite
def fuzz_configs(draw):
    from qdlab import cli

    name = draw(st.sampled_from(sorted(cli.EXPERIMENTS)))
    exp = cli.EXPERIMENTS[name]
    params = {key: value for key, value in SMALL.items() if key in exp.defaults}
    for key in draw(st.lists(st.sampled_from(sorted(exp.defaults)), max_size=2, unique=True)):
        default = exp.defaults[key]
        item = default[0] if isinstance(default, list) else default
        values = edge_values(item, exp.bounds[key]) if key in exp.bounds else [item]
        values += list(exp.choices.get(key, ()))
        value = draw(st.sampled_from(values))
        params[key] = [value] if isinstance(default, list) else value
        if isinstance(default, list) and draw(st.booleans()):
            params[key] = []
    config = {"experiment": name, "parameters": params,
              "seed": draw(st.sampled_from([0, 7, cli.SEED_MAX])),
              "output": {"path": "ignored.csv", "format": draw(st.sampled_from(["csv", "json"]))}}
    fault = draw(st.none() | st.sampled_from(TOP_LEVEL_FAULTS))
    if fault is None:
        return name, config
    key, value = fault
    return name, value if key is None else {**config, key: value}


class TestConfigFuzz:
    @settings(max_examples=40, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=fuzz_configs())
    def test_any_config_exits_cleanly(self, tmp_path, capsys, case):
        from qdlab import cli

        name, config = case
        cfg, out = tmp_path / "cfg.json", tmp_path / "r.out"
        cfg.write_text(json.dumps(config))
        if out.exists():
            out.unlink()
        # Any exception other than SystemExit fails the test: a traceback is no exit code.
        with pytest.raises(SystemExit) as exc:
            cli.main([name, "--config", str(cfg), "--out", str(out)], standalone_mode=False)
        capsys.readouterr()
        assert exc.value.code in range(5)
        assert exc.value.code == 0 or not out.exists()


class TestImports:
    def test_cli_import_does_not_load_scipy(self):
        # scipy is needed only by the spectral-arc high-precision recheck.
        # jsonschema is not used at all: the experiment registry checks configs.
        code = ("import sys, qdlab.cli; loaded = {'scipy', 'jsonschema'} & set(sys.modules); "
                "assert not loaded, loaded")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
