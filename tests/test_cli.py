import csv
import inspect
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

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
        for choices in [("tetrahedron", "planar-trine", "lifted-trine"), ("verify", "search"),
                        ("none", "qubit_depolarizing", "independent_depolarizing", "symmetric")]:
            assert f"one of {choices}" in result.stdout

    def test_listing_is_stable(self):
        a, b = qd("list"), qd("list")
        assert a.stdout == b.stdout


class TestConfigHandling:
    @pytest.fixture
    def no_draws(self, monkeypatch):
        """Fail the test on any trial draw: both draw paths start from child_states."""
        from qdlab import qmath

        def no_draw(*args, **kwargs):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(qmath, "child_states", no_draw)

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
            # A 1 x 1 pair has no spectral gap: this used to exit 3 after the draws.
            ("eliminate", {"dim": 1}),
            ("eliminate", {"dim": 1025}),
            ("eliminate", {"n_hypotheses": 1}),
            ("eliminate", {"n_hypotheses": 100001}),
            # Within each bound, but the generators would take 17 * 1024^2 entries.
            ("eliminate", {"n_hypotheses": 17, "dim": 1024}),
            # A search keeps every flagged case's H and K: 5 * 1024^2 and 86,000 * 7^2
            # entries are past 2^22.
            ("theorem-check", {"mode": "search", "dims": [2, 1024], "trials": 5}),
            ("theorem-check", {"mode": "search", "dims": [7], "trials": 86000}),
        ],
    )
    def test_matrix_sizes_refused_before_any_draw(self, experiment, parameters, no_draws,
                                                  tmp_path, capsys):
        from qdlab import cli

        cfg, out = tmp_path / "cfg.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({"parameters": parameters}))
        with pytest.raises(SystemExit) as exc:
            cli.main([experiment, "--config", str(cfg), "--out", str(out)], standalone_mode=False)
        assert exc.value.code == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_search_cap_allows_every_size_up_to_dim_6(self, monkeypatch, tmp_path):
        from qdlab import cli, spectral_arc

        monkeypatch.setattr(spectral_arc, "counterexample_search", lambda dim, trials, seed: [])
        cfg, out = tmp_path / "cfg.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({"parameters": {"mode": "search", "dims": [2, 6],
                                                  "trials": 100000}}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["theorem-check", "--config", str(cfg), "--out", str(out)],
                     standalone_mode=False)
        assert exc.value.code == 0
        assert out.exists()

    @pytest.mark.parametrize(
        "experiment, parameters",
        [
            # These used to exit 3 after drawing (numpy's "high - low < 0", t: 0) ...
            ("theorem-check", {"h_norm_max": -1}),
            ("theorem-check", {"k_norm_max": -0.5}),
            ("fixed-time", {"t": 0}),
            ("fixed-time", {"t": -1.0}),
            # ... or ran and wrote a report.
            ("fixed-time", {"k_norm": -3}),
            ("fixed-time", {"h_norm": -1e-300}),
            # Past pi, 194 of these 800 cases left the theorem's regime, counted as
            # violations, and failed --check.
            ("theorem-check", {"h_norm_max": 4.5, "dims": [2, 3], "trials": 400}),
            # Past 1e5 a phase of size k_norm_max is resolved too coarsely for the check's
            # 1e-9: at h_norm_max 1e-8 and 400 trials, 3e6 failed --check with slack 2.8e-9.
            ("theorem-check", {"k_norm_max": 3e6, "h_norm_max": 1e-8}),
        ],
    )
    def test_negative_norms_and_times_refused_before_any_draw(self, experiment, parameters,
                                                             no_draws, tmp_path, capsys):
        from qdlab import cli

        cfg, out = tmp_path / "cfg.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({"parameters": parameters}))
        with pytest.raises(SystemExit) as exc:
            cli.main([experiment, "--config", str(cfg), "--out", str(out)], standalone_mode=False)
        assert exc.value.code == 2
        assert f"parameter {next(iter(parameters))!r} must be in" in capsys.readouterr().err
        assert not out.exists()

    def test_phase_est_qubit_cap_refused_before_any_draw(self, no_draws, tmp_path, capsys):
        from qdlab import cli

        cfg, out = tmp_path / "cfg.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({"parameters": {"n": 13}}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["phase-est", "--config", str(cfg), "--out", str(out)], standalone_mode=False)
        assert exc.value.code == 3
        assert "13 qubits exceeds 12" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment, parameters",
        [("theorem-check", {"h_norm_max": 0, "k_norm_max": 0, "trials": 5}),
         ("fixed-time", {"h_norm": 0, "k_norm": 0, "samples": 3})],
    )
    def test_zero_norms_still_run(self, experiment, parameters, tmp_path):
        from qdlab import cli

        cfg, out = tmp_path / "cfg.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({"parameters": parameters}))
        with pytest.raises(SystemExit) as exc:
            cli.main([experiment, "--config", str(cfg), "--out", str(out)], standalone_mode=False)
        assert exc.value.code == 0 and out.exists()

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
            (["grover"], '{"parameters": {"energy": 1e-308}}', 3, "flop time overflows"),
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
            # The uncertainty 1 / (0.5 t) overflows at this budget.
            (["metrology"], '{"parameters": {"t_total": 1e-323}}', 3, "is not finite"),
            # The Hamiltonian's entry E (1 + 1/N) overflows, so success_prob is NaN at N = 2;
            # the report is refused before --check runs, and before it is written.
            (["grover"], '{"parameters": {"energy": 1.7e308}}', 3, "success_prob is nan"),
            (["grover", "--check"], '{"parameters": {"energy": 1.7e308}}', 3, "not finite"),
        ],
        ids=["superdense-check-geometry", "theorem-check-check-search", "literal-1e999",
             "grover-size-overflow", "grover-flop-time-overflow", "superdense-no-cone",
             "figure1-reversed-ratios", "metrology-overflowing-budget", "grover-nan-report",
             "grover-nan-report-check"],
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

    @pytest.mark.parametrize("energy", [6e307, 9e307])
    def test_grover_near_the_largest_float_energy_runs(self, tmp_path, energy):
        # At both energies the Hamiltonian's entry E (1 + 1/N) passes half the largest float,
        # and at 9e307 so does 2 E: neither the symmetrization nor the flop time may overflow.
        cfg, out = tmp_path / "cfg.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({"parameters": {"energy": energy}}))
        result = qd("grover", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 0, result.stderr
        rows = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
        assert len(rows) == 5
        assert all(math.isfinite(float(row["success_prob"])) for row in rows)

    @pytest.mark.parametrize("omega", [1e-308, 5e-324])
    def test_two_ham_half_turn_overflow_exits_3_naming_omega(self, tmp_path, omega):
        # Without decay the optimal time is the half-turn pi / omega, which overflows here.
        cfg, out = tmp_path / "cfg.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({"parameters": {"omega": omega, "gamma": 0.0}}))
        result = qd("two-ham", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 3
        assert f"omega {omega!r}" in result.stderr
        assert "RuntimeWarning" not in result.stderr
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

    @pytest.mark.parametrize("n, code", [(1, 0), (2, 2), (4, 2)])
    def test_metrology_qubit_depolarizing_needs_one_qubit(self, n, code, monkeypatch, tmp_path,
                                                          capsys):
        from qdlab import cli, metrology

        built = []
        strategy = metrology.Strategy
        monkeypatch.setattr(metrology, "Strategy", lambda **kw: built.append(kw) or strategy(**kw))
        cfg, out = tmp_path / "cfg.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({"parameters": {"noise": "qubit_depolarizing", "n": n}}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["metrology", "--config", str(cfg), "--out", str(out)], standalone_mode=False)
        assert exc.value.code == code
        assert out.exists() == (code == 0)
        assert len(built) == (2 if code == 0 else 0)
        assert ("config error" in capsys.readouterr().err) == (code == 2)

    # The closed form builds no 2^n array, so n may exceed what a dense state holds; and at
    # the largest budget n T overflows, but neither the product's n (T / t) nor the check's
    # sqrt(2 e gamma / n) / sqrt(T) does.
    @pytest.mark.parametrize("parameters", [{"n": 11}, {"n": 16}, {"t_total": sys.float_info.max}],
                             ids=["n11", "n16", "largest-budget"])
    def test_metrology_runs_and_passes_check(self, parameters, tmp_path, capsys):
        from qdlab import cli

        cfg, out = tmp_path / "cfg.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({"parameters": parameters}))
        for args in (["--out", str(out)], ["--check"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(["metrology", "--config", str(cfg), *args], standalone_mode=False)
            assert exc.value.code == 0, capsys.readouterr().err
        assert out.exists()

    def test_metrology_with_shots_past_the_largest_float_runs_and_passes_check(self, tmp_path,
                                                                                capsys):
        # t* = 1 / (2 gamma), so the product's shot count n T / t* is 8e600, but the roots
        # of t*, T and n are finite: delta_omega = sqrt(2 e gamma / n T) = sqrt(e / 2).
        from qdlab import cli

        cfg, out = tmp_path / "cfg.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({"parameters": {"gamma": 1e300, "t_total": 1e300}}))
        for args in (["--out", str(out)], ["--check"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(["metrology", "--config", str(cfg), *args], standalone_mode=False)
            assert exc.value.code == 0, capsys.readouterr().err
        rows = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
        assert [float(row["delta_omega"]) for row in rows] == [1.1658219907985623] * 2
        assert 1.1658219907985623 == pytest.approx(math.sqrt(math.e / 2), rel=1e-15)

    # Each row is checked against the closed form of its own regime: the ledger's noiseless
    # and slow-decay runs, no decay, a budget below the interior optimum (t* = T, where
    # delta_omega is 1.0512710963760241 = e^{0.05}), and a decay whose interior closed form
    # underflows to 0. Every row here lies on its budget.
    @pytest.mark.parametrize("parameters", [
        {"noise": "none"}, {"gamma": 1e-6, "t_total": 10.0}, {"gamma": 0.0},
        {"n": 1, "t_total": 1.0}, {"n": 64, "gamma": 5e-324},
    ], ids=["metrology-none", "metrology-boundary", "no-decay", "one-qubit-budget",
            "least-positive-decay"])
    def test_metrology_check_follows_each_row_s_regime(self, parameters, tmp_path, capsys):
        from qdlab import cli

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"parameters": parameters}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["metrology", "--config", str(cfg), "--check"], standalone_mode=False)
        out = capsys.readouterr().out
        assert exc.value.code == 0, out
        for kind in ("product", "cat"):
            assert f"[PASS] metrology: {kind} at_boundary is 1" in out
            assert f"[PASS] metrology: {kind} budget optimum" in out

    def test_metrology_check_takes_each_row_s_regime_from_the_inputs(self, monkeypatch,
                                                                   tmp_path, capsys):
        # An optimizer that returns the budget t* = T, with its flag, where the optimum is
        # interior (the default run: 2 gamma T = 2) fails --check on every row.
        from qdlab import cli, metrology

        def budget(s):
            return metrology.OptimizedPrecision(
                s.T_total, metrology.precision_envelope(s, s.T_total), True)

        monkeypatch.setattr(metrology, "optimize_precision", budget)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"parameters": {}}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["metrology", "--config", str(cfg), "--check"], standalone_mode=False)
        out = capsys.readouterr().out
        assert exc.value.code == 1, out
        for kind in ("product", "cat"):
            assert f"[FAIL] metrology: {kind} at_boundary is 0" in out
            assert f"[FAIL] metrology: {kind} interior optimum" in out

    def test_metrology_cat_phase_past_the_largest_float_keeps_its_uncertainty(self, tmp_path):
        # Without noise the cat's optimum is the budget, where its phase 0.5 n T overflows:
        # delta_omega = 1 / (n T) is 2.5e-309, a subnormal, not 0.
        from qdlab import cli

        cfg, out = tmp_path / "cfg.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({"parameters": {"noise": "none", "t_total": 1e308}}))
        for args in (["--out", str(out)], ["--check"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(["metrology", "--config", str(cfg), *args], standalone_mode=False)
            assert exc.value.code == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
        # Subnormal: about 2e-15 relative resolution there.
        assert [float(row["delta_omega"]) for row in rows] == pytest.approx([5e-309, 2.5e-309],
                                                                            rel=1e-14, abs=0.0)

    # Past t * h_norm = pi the theorem does not hold (h_norm 3.15, dim 2 and 3,000 samples
    # failed --check with margin -0.888 at seed 1); past t * k_norm = 1e10 the phases' rounding
    # gives margins beyond a tenth of the check's 1e-9 (1e11 measured -3.3e-9).
    @pytest.mark.parametrize("parameters, message", [
        ({"h_norm": 3.15, "dim": 2, "samples": 3000}, "t * h_norm must be at most pi"),
        ({"t": 2.0, "h_norm": 1.6}, "t * h_norm must be at most pi"),
        ({"t": 1e308, "h_norm": 1e308}, "t * h_norm must be at most pi"),
        ({"k_norm": 1e16}, "t * k_norm must be at most 1e10"),
        ({"t": 100.0, "h_norm": 0.01, "k_norm": 1e9}, "t * k_norm must be at most 1e10"),
    ])
    def test_fixed_time_outside_its_regime_refused_before_any_draw(self, parameters, message,
                                                                  no_draws, tmp_path, capsys):
        from qdlab import cli

        cfg, out = tmp_path / "cfg.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({"parameters": parameters}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["fixed-time", "--config", str(cfg), "--out", str(out)], standalone_mode=False)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, parameters", [
        ("fixed-time", {"h_norm": math.pi, "dim": 2, "samples": 3000}),
        ("fixed-time", {"h_norm": 1e-6, "k_norm": 1e10, "samples": 300}),
        ("theorem-check", {"h_norm_max": 1e-8, "k_norm_max": 1e5}),
    ])
    def test_norms_at_the_regime_edges_run_and_pass_check(self, experiment, parameters,
                                                          tmp_path, capsys):
        from qdlab import cli

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"parameters": parameters}))
        for seed in ("1", "2"):
            with pytest.raises(SystemExit) as exc:
                cli.main([experiment, "--config", str(cfg), "--check", "--seed", seed],
                         standalone_mode=False)
            assert exc.value.code == 0, capsys.readouterr().out

    def test_metrology_has_no_field_frequency(self, tmp_path, capsys):
        # The quadrature-tuned precision does not depend on omega, so no omega is read.
        from qdlab import cli

        cfg, out = tmp_path / "cfg.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({"parameters": {"omega": 1.0}}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["metrology", "--config", str(cfg), "--out", str(out)], standalone_mode=False)
        assert exc.value.code == 2
        assert "unknown parameter 'omega'" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("key", ["h_norm_max", "k_norm_max"])
    def test_search_refuses_the_norm_ranges_it_ignores(self, key, monkeypatch, tmp_path, capsys):
        from qdlab import cli, spectral_arc

        def no_draw(dim, trials, seed):
            raise AssertionError("a search ran")

        monkeypatch.setattr(spectral_arc, "counterexample_search", no_draw)
        cfg, out = tmp_path / "cfg.json", tmp_path / "r.csv"
        cfg.write_text(json.dumps({"parameters": {"mode": "search", key: 1.0}}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["theorem-check", "--config", str(cfg), "--out", str(out)],
                     standalone_mode=False)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not out.exists()
        # The default value is no override: the search runs.
        monkeypatch.setattr(spectral_arc, "counterexample_search", lambda dim, trials, seed: [])
        default = cli.EXPERIMENTS["theorem-check"].defaults[key]
        cfg.write_text(json.dumps({"parameters": {"mode": "search", key: default}}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["theorem-check", "--config", str(cfg), "--out", str(out)],
                     standalone_mode=False)
        assert exc.value.code == 0

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

    def test_json_refuses_values_that_are_not_finite(self):
        from qdlab import cli

        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="not JSON compliant"):
                cli.rows_to_json("grover", 3, {}, [cli.GroverRow(2, 1.0, 1.0, value)])

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


# One small run of each report shape: every experiment, and theorem-check in both modes.
REPORT_SHAPES = [
    ("superdense", {}),
    ("grover", {"sizes": [2, 16]}),
    ("two-ham", {}),
    ("fixed-time", {"samples": 3}),
    ("eliminate", {"trials": 3}),
    ("phase-est", {"trials": 10}),
    ("metrology", {}),
    ("figure1", {"points": 3, "grid": 16}),
    ("theorem-check", {"dims": [2], "trials": 3}),
    ("theorem-check", {"dims": [2], "trials": 3, "mode": "search"}),
]


def run_shape(experiment, parameters):
    """(row_type, rows) of one runner call at seed 3."""
    from qdlab import cli

    exp = cli.EXPERIMENTS[experiment]
    row_type, rows, _ = exp.runner(cli._merge_params(exp, parameters), 3)
    return row_type, rows


class TestReportRows:
    """Every report is written from one row type: its _fields are the CSV header and the
    keys of each JSON row."""

    @staticmethod
    def reports(tmp_path, experiment, parameters):
        from qdlab import cli

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"parameters": parameters}))
        for fmt in ("csv", "json"):
            with pytest.raises(SystemExit) as exc:
                cli.main([experiment, "--config", str(cfg), "--seed", "3", "--format", fmt,
                          "--out", str(tmp_path / f"r.{fmt}")], standalone_mode=False)
            assert exc.value.code == 0
        return (tmp_path / "r.csv").read_text(encoding="utf-8"), json.loads(
            (tmp_path / "r.json").read_text(encoding="utf-8"))

    @pytest.mark.parametrize("experiment, parameters", REPORT_SHAPES)
    def test_header_and_json_keys_are_the_row_fields(self, tmp_path, experiment, parameters):
        row_type, rows = run_shape(experiment, parameters)
        assert rows and all(type(row) is row_type for row in rows)
        text, doc = self.reports(tmp_path, experiment, parameters)
        header, *lines = list(csv.reader(io.StringIO(text)))
        assert header == list(row_type._fields)
        assert len(lines) == len(doc["rows"]) == len(rows)
        for row in doc["rows"]:
            assert sorted(row) == sorted(row_type._fields)

    def test_search_without_violations_writes_the_header_only(self, tmp_path, monkeypatch):
        from qdlab import cli, spectral_arc

        monkeypatch.setattr(spectral_arc, "counterexample_search", lambda *args, **kwargs: [])
        text, doc = self.reports(tmp_path, "theorem-check", {"mode": "search"})
        assert text == ",".join(cli.SearchRow._fields) + "\n"
        assert doc["rows"] == []

    def test_readme_report_columns_match_the_row_types(self):
        readme = pathlib.Path(__file__).parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("### Report columns\n", 1)[1]
        section = section.split("\n#", 1)[0]
        documented = {}
        for name, text in re.findall(r"^- `([\w-]+)`: (.*?)(?=^- |\Z)", section, re.M | re.S):
            spans = re.findall(r"`([^`]*)`", " ".join(text.split()))
            documented[name] = [span.split(", ") for span in spans if ", " in span]
        expected = {}
        for experiment, parameters in REPORT_SHAPES:
            if experiment != "figure1":  # documented in its own section
                fields = list(run_shape(experiment, parameters)[0]._fields)
                expected.setdefault(experiment, []).append(fields)
        assert documented.pop("figure1") == []
        assert documented == expected


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

    @pytest.mark.parametrize("count", [1023, 1024, 1025, 2049])  # around the spawn block
    def test_trial_generators_are_lazy_and_equal_the_eager_list(self, count):
        from qdlab import qmath

        lazy = qmath.spawned_rngs(99, count)
        assert inspect.isgenerator(lazy)
        eager = [np.random.default_rng(c) for c in np.random.SeedSequence(99).spawn(count)]
        assert [g.bit_generator.state for g in lazy] == [g.bit_generator.state for g in eager]


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
        assert header == list(metrology.Figure1Point._fields)
        assert [[float(v) for v in row] for row in rows] == [list(p) for p in curve.points]

    def test_json_rows_are_the_curve_points(self, tmp_path, curve):
        doc = json.loads(self._run(tmp_path, "json"))
        assert doc["rows"] == [p._asdict() for p in curve.points]


class TestCheckFlag:
    @pytest.mark.parametrize(
        "experiment", ["grover", "superdense", "two-ham", "metrology", "phase-est", "fixed-time"]
    )
    def test_passing_checks(self, experiment):
        result = qd(experiment, "--check")
        assert result.returncode == 0
        assert "PASS" in result.stdout
        assert "FAIL" not in result.stdout

    def test_grover_check_skips_the_slope_with_one_distinct_size(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "grover", "parameters": {"sizes": [4, 4]}}))
        result = qd("grover", "--config", str(cfg), "--check", "--out", str(tmp_path / "r.csv"))
        assert result.returncode == 0
        assert result.stdout.splitlines() == [
            "[PASS] grover: success certainty at the flop time (min=1.00e+00)"]
        assert "Warning" not in result.stderr

    def test_eliminate_check(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "eliminate", "parameters": {"trials": 8}}))
        result = qd("eliminate", "--config", str(cfg), "--check")
        assert result.returncode == 0

    def test_phase_est_check_compares_the_qft_distribution(self, tmp_path, monkeypatch, capsys):
        from qdlab import cli, phase_estimation

        line = "phase-est: QFT measurement distribution equals the exact one"

        def check():
            with pytest.raises(SystemExit) as exc:
                cli.main(["phase-est", "--check"], standalone_mode=False)
            return exc.value.code, capsys.readouterr().out

        monkeypatch.chdir(tmp_path)
        code, out = check()
        assert code == 0 and f"[PASS] {line}" in out
        dft = phase_estimation.dft_measurement_distribution
        monkeypatch.setattr(phase_estimation, "dft_measurement_distribution",
                            lambda cfg: dft(cfg) + 1e-9)
        code, out = check()
        assert code == 1 and f"[FAIL] {line}" in out

    @pytest.mark.parametrize("seed", range(5))
    def test_phase_est_check_fails_counts_from_a_wrong_omega(self, seed, tmp_path, monkeypatch,
                                                             capsys):
        from qdlab import cli, phase_estimation

        line = "phase-est: empirical frequencies within the Chernoff bound"
        sample_counts = phase_estimation.sample_counts

        def check():
            with pytest.raises(SystemExit) as exc:
                cli.main(["phase-est", "--check", "--seed", str(seed)], standalone_mode=False)
            return exc.value.code, capsys.readouterr().out

        monkeypatch.chdir(tmp_path)
        code, out = check()
        assert code == 0 and f"[PASS] {line}" in out
        # At the default n = 4 and 2,000 trials, counts drawn an eighth of a bin off omega.
        monkeypatch.setattr(phase_estimation, "sample_counts", lambda cfg, seed, trials: (
            sample_counts(phase_estimation.PhaseConfig(cfg.n, cfg.omega + 2.0**-(cfg.n + 3)),
                          seed, trials)))
        code, out = check()
        assert code == 1 and f"[FAIL] {line}" in out

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


# The values a numeric parameter without a registry bound draws besides its default.
EXTREMES = {
    float: [5e-324, -5e-324, 1e-308, -1e-308, 1.0, 1e308, sys.float_info.max],
    int: [-1, 0, 1, 2**63],
}


def report_numbers(node):
    """Every number in a parsed report, as floats: JSON numbers, and CSV cells that parse."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [x for item in node for x in report_numbers(item)]
    if isinstance(node, str):
        try:
            return [float(node)]
        except ValueError:
            return []
    return [] if node is None or isinstance(node, bool) else [float(node)]


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
        if key in exp.bounds:
            values = edge_values(item, exp.bounds[key])
        else:
            values = [item] + EXTREMES.get(type(item), [])
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


# Python's own messages for a float operation that failed, which name no parameter.
BARE_ARITHMETIC = ["division by zero", "math domain error", "math range error"]


# The numeric parameters without a registry bound, which draw from EXTREMES.
UNBOUNDED = [("superdense", "cos_theta"), ("grover", "sizes"), ("grover", "energy"),
             ("two-ham", "omega"), ("two-ham", "gamma"), ("phase-est", "n"),
             ("phase-est", "omega"), ("metrology", "n"), ("metrology", "gamma"),
             ("metrology", "t_total")]


# The values each numeric parameter takes in the pairwise --check sweep: the float extremes,
# values past the regime edges of fixed-time (t * h_norm = pi, t * k_norm = 1e10) and
# theorem-check (k_norm_max = 1e5), and sizes from negative to past every cap, 5 and 64 among
# them (few-trial phase-est runs, where a bin of probability about 1e-3 gets one count).
SWEEP_VALUES = {
    float: [-1.0, 0.0, 5e-324, -5e-324, 1e-308, 1e-8, 1.0, 3.15, 1e6, 1e16, 1e308,
            sys.float_info.max],
    int: [-1, 0, 1, 2, 3, 5, 7, 64, 2**63],
}


def pairwise_sweep(name):
    """Parameter overrides that set every pair of the experiment's numeric and choice
    parameters to every pair of their sweep values, with the sizes of SMALL otherwise."""
    from qdlab import cli

    exp = cli.EXPERIMENTS[name]
    values = {}
    for key, default in exp.defaults.items():
        item = default[0] if isinstance(default, list) else default
        choices = exp.choices.get(key) or SWEEP_VALUES.get(type(item), ())
        if choices:
            values[key] = [[v] if isinstance(default, list) else v for v in choices]
    for first, second in itertools.combinations(values, 2):
        for pair in itertools.product(values[first], values[second]):
            yield {**{k: v for k, v in SMALL.items() if k in exp.defaults},
                   **dict(zip((first, second), pair))}


class TestConfigFuzz:
    @staticmethod
    def exits_cleanly(tmp_path, capsys, name, config):
        """Run one config in-process: it exits 0-4, leaves a report only on exit 0, and
        that report holds only finite numbers. Returns the exit code and stderr."""
        from qdlab import cli

        cfg, out = tmp_path / "cfg.json", tmp_path / "r.out"
        cfg.write_text(json.dumps(config))
        if out.exists():
            out.unlink()
        # Any exception other than SystemExit fails the test: a traceback is no exit code.
        with pytest.raises(SystemExit) as exc:
            cli.main([name, "--config", str(cfg), "--out", str(out)], standalone_mode=False)
        err = capsys.readouterr().err
        assert exc.value.code in range(5)
        assert exc.value.code == 0 or not out.exists()
        if exc.value.code == 0:
            text = out.read_text(encoding="utf-8")
            try:
                report = json.loads(text)
            except json.JSONDecodeError:
                report = list(csv.reader(io.StringIO(text)))
            assert all(math.isfinite(x) for x in report_numbers(report)), text
        return exc.value.code, err

    @settings(max_examples=40, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=fuzz_configs())
    def test_any_config_exits_cleanly(self, tmp_path, capsys, case):
        self.exits_cleanly(tmp_path, capsys, *case)

    def test_unbounded_lists_every_numeric_parameter_without_a_bound(self):
        from qdlab import cli

        found = [(name, key) for name, exp in cli.EXPERIMENTS.items()
                 for key, default in exp.defaults.items() if key not in exp.bounds
                 and type(default[0] if isinstance(default, list) else default) in EXTREMES]
        assert sorted(found) == sorted(UNBOUNDED)

    @pytest.mark.parametrize("name, key", UNBOUNDED)
    def test_every_extreme_of_an_unbounded_parameter_exits_cleanly(
            self, tmp_path, capsys, name, key):
        from qdlab import cli

        exp = cli.EXPERIMENTS[name]
        default = exp.defaults[key]
        for value in EXTREMES[type(default[0] if isinstance(default, list) else default)]:
            params = {k: v for k, v in SMALL.items() if k in exp.defaults}
            params[key] = [value] if isinstance(default, list) else value
            for fmt in ("csv", "json"):
                config = {"experiment": name, "parameters": params,
                          "output": {"path": "ignored.csv", "format": fmt}}
                # numpy's overflow warnings are printed by qd, not raised: here they are
                # recorded, and allowed only in a run that then refuses its result.
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", RuntimeWarning)
                    code, err = self.exits_cleanly(tmp_path, capsys, name, config)
                assert code != 0 or not caught, [str(w.message) for w in caught]
                # A refusal names what is wrong, not the arithmetic that broke.
                assert code != 3 or not any(bare in err for bare in BARE_ARITHMETIC), err


    # figure1's --check asserts the paper's peak on the default curve, so it fails elsewhere.
    @pytest.mark.parametrize("name", ["superdense", "grover", "two-ham", "fixed-time",
                                      "eliminate", "phase-est", "metrology", "theorem-check"])
    def test_every_run_that_exits_0_passes_check(self, tmp_path, capsys, name):
        from qdlab import cli

        def run(cfg, *args):
            # numpy's overflow warnings are recorded, and allowed only in a refused run.
            with (warnings.catch_warnings(record=True) as caught,
                  pytest.raises(SystemExit) as exc):
                warnings.simplefilter("always", RuntimeWarning)
                cli.main([name, "--config", str(cfg), *args], standalone_mode=False)
            assert exc.value.code != 0 or not caught, [str(w.message) for w in caught]
            return exc.value.code, capsys.readouterr().err

        failures, cfg = [], tmp_path / "cfg.json"
        for params in pairwise_sweep(name):
            cfg.write_text(json.dumps({"parameters": params}))
            code, err = run(cfg, "--check")
            # A run refused with exit 3 is refused without --check too, and names what is wrong.
            if code == 3 and (run(cfg, "--out", str(tmp_path / "r.csv"))[0] != 3
                              or any(bare in err for bare in BARE_ARITHMETIC)):
                failures.append((params, code, err))
            elif code not in (0, 2, 3):
                failures.append((params, code, err))
        assert not failures, failures[:5]

    # Correct runs with one count in a bin of probability about 1e-3 at the default seed.
    @pytest.mark.parametrize("params", [{"n": 5, "trials": 64}, {"n": 7, "trials": 64}],
                             ids=["n5-trials64", "n7-trials64"])
    def test_phase_est_check_passes_a_correct_run_at_few_trials(self, params, tmp_path, capsys):
        from qdlab import cli

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"parameters": params}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["phase-est", "--config", str(cfg), "--check"], standalone_mode=False)
        assert exc.value.code == 0, capsys.readouterr().out


class TestImports:
    def test_cli_import_does_not_load_scipy(self):
        # scipy is a test dependency only: the package never imports it.
        # jsonschema is not used at all: the experiment registry checks configs.
        code = ("import sys, qdlab.cli; loaded = {'scipy', 'jsonschema'} & set(sys.modules); "
                "assert not loaded, loaded")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_cli_import_does_not_load_numpy_random(self):
        # numpy.random is needed only once trials are drawn (qmath.child_states).
        code = "import sys, qdlab.cli; assert 'numpy.random' not in sys.modules"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_cli_import_does_not_load_numpy_fft(self):
        # numpy.fft is needed only by phase_estimation.dft_measurement_distribution.
        code = "import sys, qdlab.cli; assert 'numpy.fft' not in sys.modules"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
