"""Batch experiment runner.

`qd <experiment> [--config cfg.json] [--seed N] [--out path] [--format csv|json]
[--check] [--workers N]` runs one of the registered experiments with seeded,
reproducible inputs and writes a CSV or JSON report atomically. `qd list`
prints the experiment table. Identical configuration and seed produce
byte-identical reports. Every experiment runs single-threaded; `--workers`
is validated and otherwise ignored.

Exit codes: 0 success, 1 failed --check assertion, 2 configuration error,
3 numerical precondition failure, 4 I/O failure.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import click
import numpy as np

from . import discrimination, metrology, phase_estimation, qmath, search, spectral_arc
from .dynamics import FieldHamiltonian, NoiseKind, NoiseModel

DEFAULT_SEED = 1234567890
SEED_MAX = 2**64 - 1
SIZE_CAP = 10**5  # the largest trials, samples, points or grid a config may ask for
OUT_DIR_ENV = "QD_OUT_DIR"
WORKERS_ENV = "QD_WORKERS"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    summary: str
    defaults: dict
    # (params, seed) -> (row_type, rows, summary_line): rows are row_type
    # tuples, a typing.NamedTuple whose _fields are the report's columns.
    runner: object
    checker: object  # (params, rows) -> list[(label, ok, detail)]
    choices: dict = field(default_factory=dict)  # parameter -> its allowed strings
    check_requires: dict = field(default_factory=dict)  # parameter -> the value --check asserts
    bounds: dict = field(default_factory=dict)  # parameter -> inclusive (min, max), per list item


_SIZE = (1, SIZE_CAP)
_POSITIVE = (math.ulp(0.0), math.inf)  # from the least positive float up
_NONNEGATIVE = (0.0, math.inf)


# JSON types an override may have, by the type of the parameter's default.
_ACCEPTED_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,), list: (list,)}


def _typed(key: str, value, default):
    """Return `value` as the type of `default`; list items take the type of its first item."""
    kind = type(default)
    # bool is an int subclass, but true/false is never a number here.
    if not isinstance(value, _ACCEPTED_TYPES[kind]) or (
        isinstance(value, bool) and kind is not bool
    ):
        raise ConfigError(f"parameter {key!r} must be a JSON {kind.__name__}, got {value!r}")
    if kind is list:
        return [_typed(key, item, default[0]) for item in value]
    if kind is float:
        # False for NaN, the infinities and integers beyond the float range.
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"parameter {key!r} must be a finite number, got {value!r}")
        return float(value)
    return value


def _merge_params(exp: Experiment, overrides: dict) -> dict:
    """The defaults with each override typed and held to its choices, bounds and non-emptiness."""
    params = dict(exp.defaults)
    for key, value in overrides.items():
        if key not in params:
            raise ConfigError(f"unknown parameter {key!r}; valid: {sorted(params)}")
        params[key] = _typed(key, value, exp.defaults[key])
        if key in exp.choices and value not in exp.choices[key]:
            raise ConfigError(f"parameter {key!r} must be one of {exp.choices[key]}, got {value!r}")
        if value == []:
            raise ConfigError(f"parameter {key!r} must be a non-empty list")
        if key in exp.bounds:
            low, high = exp.bounds[key]
            for item in params[key] if isinstance(params[key], list) else [params[key]]:
                if not low <= item <= high:
                    raise ConfigError(f"parameter {key!r} must be in [{low}, {high}], got {item!r}")
    return params


# --- superdense ------------------------------------------------------------


SuperdenseRow = NamedTuple("SuperdenseRow", [
    ("geometry", str), ("cos_theta", float), ("n_directions", int), ("t_star", float),
    ("p_error", float), ("info_bits", float)])


def _geometry_directions(params):
    geometry = params["geometry"]
    if geometry == "tetrahedron":
        return discrimination.symmetric_directions(4, -1.0 / 3.0), -1.0 / 3.0
    if geometry == "planar-trine":
        return discrimination.symmetric_directions(3, -0.5), -0.5
    cos_theta = params["cos_theta"]  # lifted-trine
    return discrimination.symmetric_directions(3, cos_theta), cos_theta


def _run_superdense(params, seed):
    directions, cos_theta = _geometry_directions(params)
    result = discrimination.trine_discriminate(directions)
    row = SuperdenseRow(params["geometry"], cos_theta, len(directions), result.t_star,
                        result.p_error, result.info_bits)
    return SuperdenseRow, [row], (
        f"superdense {params['geometry']}: p_error={result.p_error:.3e} "
        f"info={result.info_bits:.6f} bits at t*={result.t_star:.6f}"
    )


def _check_superdense(params, rows):
    row = rows[0]
    target = math.log2(row.n_directions)
    return [
        ("error probability vanishes", row.p_error <= 1e-10, f"p_error={row.p_error:.2e}"),
        (
            f"info equals log2({row.n_directions})",
            abs(row.info_bits - target) <= 1e-9,
            f"info={row.info_bits:.12f}",
        ),
    ]


# --- grover ----------------------------------------------------------------


GroverRow = NamedTuple("GroverRow", [
    ("N", int), ("energy", float), ("T", float), ("success_prob", float)])


def _run_grover(params, seed):
    energy = params["energy"]
    rows = []
    for n in params["sizes"]:
        inst = search.GroverInstance(dim=n, marked=n // 2, energy=energy)
        prob, T = search.grover_run(inst)
        rows.append(GroverRow(n, energy, T, prob))
    worst = min(r.success_prob for r in rows)
    return GroverRow, rows, f"grover: worst success over N={params['sizes']} is {worst:.12f}"


def _check_grover(params, rows):
    ok_success = all(r.success_prob >= 1.0 - 1e-9 for r in rows)
    checks = [
        ("success certainty at the flop time", ok_success, f"min={min(r.success_prob for r in rows):.2e}")
    ]
    if len({r.N for r in rows}) >= 2:
        logs_n = np.log([r.N for r in rows])
        logs_t = np.log([r.T for r in rows])
        slope = np.polyfit(logs_n, logs_t, 1)[0]
        checks.append(("T scales as sqrt(N)", abs(slope - 0.5) <= 1e-6, f"slope={slope:.9f}"))
    return checks


# --- two-ham ---------------------------------------------------------------


TwoHamRow = NamedTuple("TwoHamRow", [
    ("omega", float), ("gamma", float), ("t_star", float), ("p_error", float),
    ("p_error_formula", float), ("info_bits", float)])


def _run_two_ham(params, seed):
    omega, gamma = params["omega"], params["gamma"]
    t_star = discrimination.optimal_time_qubit(omega, gamma)
    generators = (np.zeros((2, 2)), FieldHamiltonian(omega, (0, 0, 1)))
    noise = NoiseModel(NoiseKind.QUBIT_DEPOLARIZING, gamma)
    result = discrimination.discriminate_superops(generators, noise, qmath.KET_PLUS, t_star)
    formula = 0.5 - 0.5 * math.exp(-gamma * t_star) * abs(math.sin(omega * t_star / 2.0))
    row = TwoHamRow(omega, gamma, t_star, result.p_error, formula, result.info_bits)
    return TwoHamRow, [row], (
        f"two-ham: t*={t_star:.6f} p_error={result.p_error:.6f} info={result.info_bits:.6f} bits"
    )


def _check_two_ham(params, rows):
    row = rows[0]
    return [
        (
            "minimum error matches the closed form",
            abs(row.p_error - row.p_error_formula) <= 1e-10,
            f"|diff|={abs(row.p_error - row.p_error_formula):.2e}",
        )
    ]


# --- fixed-time ------------------------------------------------------------


def _run_fixed_time(params, seed):
    t, h_norm, k_norm = params["t"], params["h_norm"], params["k_norm"]
    # The theorem covers t * h_norm up to pi. Up to t * k_norm = 1e10 the phases' rounding
    # (about eps t k_norm) keeps the margins within a tenth of --check's 1e-9.
    if t * h_norm > math.pi:
        raise ConfigError(f"t * h_norm must be at most pi, got {t * h_norm!r}")
    if t * k_norm > 1e10:
        raise ConfigError(f"t * k_norm must be at most 1e10, got {t * k_norm!r}")
    rows = discrimination.fixed_time_sweep(params["dim"], t, params["samples"], seed, h_norm,
                                           k_norm)
    worst = min(r.margin for r in rows)
    return discrimination.FixedTimeRow, rows, (
        f"fixed-time: worst driven-minus-undriven overlap margin {worst:.3e}"
    )


def _check_fixed_time(params, rows):
    worst = min(r.margin for r in rows)
    return [("driving never helps at fixed time", worst >= -1e-9, f"worst margin {worst:.3e}")]


# --- eliminate -------------------------------------------------------------


def _run_eliminate(params, seed):
    n_hyp, dim, trials = params["n_hypotheses"], params["dim"], params["trials"]
    # A block holds at least one trial's generators: 2^24 entries are 256 MiB.
    if n_hyp * dim * dim > 2**24:
        raise ConfigError(f"n_hypotheses * dim^2 must be at most 2^24, got {n_hyp * dim * dim}")
    rows = discrimination.eliminate_sweep(n_hyp, dim, trials, seed)
    rate = sum(r.correct for r in rows) / len(rows)
    return discrimination.EliminateRow, rows, (
        f"eliminate: identification rate {rate:.3f} over {trials} trials"
    )


def _check_eliminate(params, rows):
    all_correct = all(r.correct for r in rows)
    bounded = all(r.measurements <= params["n_hypotheses"] - 1 for r in rows)
    return [
        ("every trial identifies the true generator", all_correct, f"{len(rows)} trials"),
        ("never more than N-1 measurements", bounded, f"max={max(r.measurements for r in rows)}"),
    ]


# --- phase-est -------------------------------------------------------------


PhaseEstRow = NamedTuple("PhaseEstRow", [
    ("omega_tilde", float), ("exact_prob", float), ("empirical_freq", float), ("trials", int)])


def _run_phase_est(params, seed):
    cfg = phase_estimation.PhaseConfig(n=params["n"], omega=params["omega"])
    trials = params["trials"]
    exact = phase_estimation.exact_distribution(cfg)
    counts = phase_estimation.sample_counts(cfg, seed, trials)
    rows = [
        PhaseEstRow(j / 2**cfg.n, exact[j], counts[j] / trials, trials) for j in range(2**cfg.n)
    ]
    tvd = 0.5 * float(np.abs(exact - counts / trials).sum())
    return PhaseEstRow, rows, (
        f"phase-est: n={cfg.n} omega={cfg.omega} total-variation distance {tvd:.4f}"
    )


def _bernoulli_kl(f, p):
    """KL(f || p) in nats between Bernoulli distributions; inf where f > 0 = p or f < 1 = p."""
    return sum(x * (math.log(x) - math.log(y)) if y > 0 else math.inf
               for x, y in ((f, p), (1.0 - f, 1.0 - p)) if x > 0)


def _check_phase_est(params, rows):
    # Chernoff: a bin's frequency f has trials * KL(f || p) > c with probability at most 2 e^{-c},
    # so c = ln(2 * 2^n / alpha) fails a correct run with probability at most alpha = 1e-3.
    trials, limit = rows[0].trials, math.log(2 * len(rows) / 1e-3)
    worst = max(trials * _bernoulli_kl(r.empirical_freq, r.exact_prob) for r in rows)
    # The paper's equivalence: a DFT measurement of the n-qubit product state has the
    # adaptive protocol's exact distribution.
    cfg = phase_estimation.PhaseConfig(n=params["n"], omega=params["omega"])
    dft = phase_estimation.dft_measurement_distribution(cfg)
    qft_gap = float(np.max(np.abs(dft - [r.exact_prob for r in rows])))
    return [
        ("empirical frequencies within the Chernoff bound", worst <= limit,
         f"worst trials * KL {worst:.3f} of {limit:.3f}"),
        ("QFT measurement distribution equals the exact one", qft_gap <= 1e-12,
         f"max abs diff {qft_gap:.2e}"),
    ]


# --- metrology -------------------------------------------------------------


MetrologyRow = NamedTuple("MetrologyRow", [
    ("kind", str), ("n", int), ("gamma", float), ("noise", str), ("t_star", float),
    ("delta_omega", float), ("at_boundary", int)])


def _metrology_strategies(params):
    noise_kind = NoiseKind(params["noise"])
    n, t_total = params["n"], params["t_total"]
    if noise_kind is NoiseKind.QUBIT_DEPOLARIZING and n != 1:
        # The cat probe has no closed form on more than one qubit under this noise.
        raise ConfigError(f"noise {params['noise']!r} needs n = 1, got n = {n}")
    noise = NoiseModel(noise_kind, params["gamma"])
    return tuple(metrology.Strategy(kind=kind, n=n, T_total=t_total, noise=noise)
                 for kind in (metrology.StrategyKind.PRODUCT, metrology.StrategyKind.CAT))


def _run_metrology(params, seed):
    rows = []
    for strat in _metrology_strategies(params):
        opt = metrology.optimize_precision(strat)
        rows.append(MetrologyRow(strat.kind, strat.n, strat.noise.gamma, strat.noise.kind.value,
                                 opt.t_star, opt.delta_omega, int(opt.at_boundary)))
    return MetrologyRow, rows, (
        "metrology: product delta_omega={:.6e}, cat delta_omega={:.6e}".format(
            rows[0].delta_omega, rows[1].delta_omega
        )
    )


def _check_metrology(params, rows):
    """Each row against the closed form of its regime. A probe with decay g, phase rate r and
    s T / t shots has sqrt(2 e g / (s T)) / r at the interior optimum t* = 1 / (2 g), and
    e^{g T} / (r T sqrt s) on the budget t* = T. The product has g = gamma, r = 1, s = n; the
    cat r = n, s = 1 and g = n gamma under independent noise, gamma otherwise; without noise
    g = 0. Under independent noise the two interior optima are equal. The regime comes from
    the inputs, not from the row's flag: the budget when 1 / (2 g) >= T, formed as 0.5 / g,
    which is 1 / (2 g) to the bit and decides exactly as the optimizer does at the edge."""
    n, t_total, noise = params["n"], params["t_total"], NoiseKind(params["noise"])
    gamma = 0.0 if noise is NoiseKind.NONE else params["gamma"]
    cat_gamma = n * gamma if noise is NoiseKind.INDEPENDENT_DEPOLARIZING else gamma
    checks, interior = [], []
    for row, (g, rate, shots) in zip(rows, ((gamma, 1, n), (cat_gamma, n, 1))):
        boundary = not g or 0.5 / g >= t_total
        interior.append(not boundary)
        checks.append((f"{row.kind} at_boundary is {int(boundary)}",
                       bool(row.at_boundary) == boundary, f"at_boundary {row.at_boundary}"))
        if boundary:
            label = "budget optimum e^{gT} / (r T sqrt s)"
            expect = math.exp(g * t_total) / t_total / math.sqrt(shots) / rate
        else:
            label = "interior optimum sqrt(2 e g / (s T)) / r"
            expect = math.sqrt(2 * math.e * g / shots) / math.sqrt(t_total) / rate
        # |diff| <= 1e-6 * expected, with no division: an expectation of 0 cannot raise.
        gap = abs(row.delta_omega - expect)
        checks.append((f"{row.kind} {label}", gap <= 1e-6 * expect,
                       f"|diff| {gap:.2e} at {expect:.6e}"))
    if noise is NoiseKind.INDEPENDENT_DEPOLARIZING and all(interior):
        a, b = (row.delta_omega for row in rows)
        checks.append(("product and cat optima agree", abs(a - b) <= 1e-6 * max(a, b),
                       f"|diff| {abs(a - b):.2e} at {max(a, b):.6e}"))
    return checks


# --- figure1 ---------------------------------------------------------------


def _run_figure1(params, seed):
    low, high = params["ratio_min"], params["ratio_max"]
    if low > high:
        raise ConfigError(f"ratio_min {low} exceeds ratio_max {high}")
    ratios = np.logspace(math.log10(low), math.log10(high), params["points"])
    result = metrology.figure1_curve(ratios, params["grid"], params["refine_peak"])
    return metrology.Figure1Point, result.points, (
        f"figure1: peak improvement {result.peak_bits:.6f} bits at ratio {result.peak_ratio:.6f}"
    )


def _check_figure1(params, rows):
    best = max(rows, key=lambda r: r.delta_bits)
    return [
        (
            "peak improvement 0.136 +/- 0.005 bits",
            abs(best.delta_bits - 0.136) <= 0.005,
            f"peak {best.delta_bits:.6f}",
        ),
        (
            "peak location 0.379 +/- 0.01",
            abs(best.ratio - 0.379) <= 0.01,
            f"ratio {best.ratio:.6f}",
        ),
    ]


# --- theorem-check ---------------------------------------------------------


VerifyRow = NamedTuple("VerifyRow", [
    ("dim", int), ("trials", int), ("holds", int), ("violations", int),
    ("worst_violation", float)])
SearchRow = NamedTuple("SearchRow", [
    ("dim", int), ("violation", float), ("lhs_max", float), ("rhs_max", float),
    ("lhs_min", float), ("rhs_min", float)])


def _run_theorem_check(params, seed):
    dims, trials = params["dims"], params["trials"]
    if params["mode"] == "search":
        defaults = EXPERIMENTS["theorem-check"].defaults
        if ignored := [key for key in ("h_norm_max", "k_norm_max") if params[key] != defaults[key]]:
            raise ConfigError(f"search mode draws its own norms and ignores {ignored}")
        if (size := trials * max(dims) ** 2) > 2**22:  # flagged cases keep H and K to the recheck
            raise ConfigError(f"search trials * max(dims)^2 must be at most 2^22, got {size}")
        rows = [
            SearchRow(dim, case.max_violation, case.lhs_max, case.rhs_max, case.lhs_min,
                      case.rhs_min)
            for dim in dims
            for case in spectral_arc.counterexample_search(dim, trials, seed)
        ]
        return SearchRow, rows, f"theorem-check search: {len(rows)} out-of-regime violations found"
    rows = []
    for i, dim in enumerate(dims):
        sweep = spectral_arc.arc_bound_sweep(
            dim, trials, seed + 1000 * i, (0, params["h_norm_max"]), (0, params["k_norm_max"])
        )
        rows.append(VerifyRow(dim, trials, sweep.holds, trials - sweep.holds,
                              sweep.worst_violation))
    total_viol = sum(r.violations for r in rows)
    return VerifyRow, rows, (
        f"theorem-check verify: {total_viol} violations in {trials * len(dims)} cases"
    )


def _check_theorem_check(params, rows):
    ok = all(r.violations == 0 for r in rows)
    worst = max(r.worst_violation for r in rows)
    return [("arc bound holds on every in-regime case", ok, f"worst slack {worst:.3e}")]


EXPERIMENTS = {
    "superdense": Experiment(
        "entangled-probe discrimination of symmetric field directions",
        {"geometry": "tetrahedron", "cos_theta": -1.0 / 3.0},
        _run_superdense,
        _check_superdense,
        {"geometry": ("tetrahedron", "planar-trine", "lifted-trine")},
    ),
    "grover": Experiment(
        "continuous-time search with the uniform-projector drive",
        {"sizes": [2, 4, 16, 256, 1024], "energy": 1.0},
        _run_grover,
        _check_grover,
    ),
    "two-ham": Experiment(
        "optimal-time binary discrimination of a precessing qubit with damping",
        {"omega": 1.0, "gamma": 0.1},
        _run_two_ham,
        _check_two_ham,
    ),
    "fixed-time": Experiment(
        "fixed-duration probes: driving terms never beat the undriven probe",
        {"dim": 4, "t": 1.0, "samples": 50, "h_norm": 1.5, "k_norm": 5.0},
        _run_fixed_time,
        _check_fixed_time,
        bounds={"dim": (1, 1024), "samples": _SIZE, "t": _POSITIVE, "h_norm": _NONNEGATIVE,
                "k_norm": _NONNEGATIVE},
    ),
    "eliminate": Experiment(
        "adaptive pairwise elimination over N candidate generators",
        {"n_hypotheses": 5, "dim": 3, "trials": 20},
        _run_eliminate,
        _check_eliminate,
        bounds={"n_hypotheses": (2, SIZE_CAP), "dim": (2, 1024), "trials": _SIZE},
    ),
    "phase-est": Experiment(
        "bitwise adaptive frequency estimation versus the exact distribution",
        {"n": 4, "omega": 1.0 / 3.0, "trials": 2000},
        _run_phase_est,
        _check_phase_est,
        bounds={"trials": _SIZE},
    ),
    "metrology": Experiment(
        "time-budget-optimized frequency precision: product versus cat probes",
        {"n": 4, "gamma": 0.05, "t_total": 1000.0, "noise": "independent_depolarizing"},
        _run_metrology,
        _check_metrology,
        {"noise": tuple(kind.value for kind in NoiseKind)},
    ),
    "figure1": Experiment(
        "information-gain improvement of the entangled probe under symmetric decoherence",
        {"ratio_min": 0.01, "ratio_max": 10.0, "points": 200, "grid": metrology.FIGURE1_GRID,
         "refine_peak": True},
        _run_figure1,
        _check_figure1,
        bounds={"ratio_min": _POSITIVE, "ratio_max": _POSITIVE, "points": _SIZE, "grid": _SIZE},
    ),
    "theorem-check": Experiment(
        "randomized verification of the driven-evolution spectral-arc bound",
        {
            "dims": [2, 3, 4, 5, 6],
            "trials": 400,
            "mode": "verify",
            "h_norm_max": math.pi * 0.999,
            "k_norm_max": 10.0,
        },
        _run_theorem_check,
        _check_theorem_check,
        {"mode": ("verify", "search")},
        check_requires={"mode": "verify"},
        bounds={"dims": (1, 1024), "trials": _SIZE, "h_norm_max": (0.0, math.pi),
                "k_norm_max": (0.0, 1e5)},
    ),
}


# ---------------------------------------------------------------------------
# Config handling and report writing
# ---------------------------------------------------------------------------


# The JSON type of each top-level config key. Types are matched exactly, so
# `true` is no integer and `1.0` no seed.
_CONFIG_KEYS = {"experiment": (str, "string"), "parameters": (dict, "object"),
                "seed": (int, "integer"), "output": (dict, "object")}
OUTPUT_FORMATS = ("csv", "json")


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if type(config) is not dict:
        raise ConfigError(f"config must be a JSON object, got {type(config).__name__}")
    for key, value in config.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}; valid: {list(_CONFIG_KEYS)}")
        kind, name = _CONFIG_KEYS[key]
        if type(value) is not kind:
            raise ConfigError(f"config {key!r} must be a JSON {name}, got {value!r}")
    if not 0 <= config.get("seed", 0) <= SEED_MAX:
        raise ConfigError(f"seed must be in [0, {SEED_MAX}], got {config['seed']}")
    output = config.get("output", {})
    if not (set(output) <= {"path", "format"} and type(output.get("path", "")) is str
            and output.get("format", "csv") in OUTPUT_FORMATS):
        raise ConfigError(f"config 'output' may hold only a string 'path' and a 'format' in "
                          f"{OUTPUT_FORMATS}, got {output!r}")
    return config


def format_float(x: float) -> str:
    return f"{x:.17g}"


def rows_to_csv(columns, rows) -> bytes:
    """A header of `columns` and one line per row, a tuple in column order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_float(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode("utf-8")


def rows_to_json(experiment: str, seed: int, params: dict, rows) -> bytes:
    doc = {"experiment": experiment, "seed": seed, "parameters": params,
           "rows": [row._asdict() for row in rows]}
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


def write_atomic(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".qd-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def list_experiments() -> str:
    lines = ["experiment      parameters (defaults)"]
    lines.append("-" * 72)
    for name, exp in EXPERIMENTS.items():
        lines.append(f"{name:<15} {exp.summary}")
        for key, value in exp.defaults.items():
            note = "  in [{}, {}]".format(*exp.bounds[key]) if key in exp.bounds else ""
            note += f"  one of {exp.choices[key]}" if key in exp.choices else ""
            lines.append(f"{'':<15}   {key} = {value!r}{note}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@click.command(name="qd")
@click.argument("experiment")
@click.option("--config", "config_path", type=str, default=None, help="JSON config file.")
@click.option(
    "--seed", type=click.IntRange(0, SEED_MAX), default=None, help="Root RNG seed (64-bit)."
)
@click.option("--out", "out_path", type=str, default=None, help="Report path.")
@click.option(
    "--format", "fmt", type=click.Choice(OUTPUT_FORMATS), default=None, help="Report format."
)
@click.option("--check", is_flag=True, help="Run the experiment's acceptance assertions.")
@click.option(
    "--workers",
    type=int,
    default=None,
    help=f"Accepted for compatibility (or ${WORKERS_ENV}); every experiment runs "
    "single-threaded and reports do not depend on it.",
)
def main(experiment, config_path, seed, out_path, fmt, check, workers):
    """Run EXPERIMENT (or `qd list` to see all) and write a seeded report."""
    try:
        if experiment == "list":
            click.echo(list_experiments(), nl=False)
            sys.exit(EXIT_OK)

        if experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {experiment!r}; valid: {sorted(EXPERIMENTS)} or 'list'"
            )
        config = load_config(config_path)
        if "experiment" in config and config["experiment"] != experiment:
            raise ConfigError(
                f"config is for {config['experiment']!r}, but {experiment!r} was requested"
            )
        exp = EXPERIMENTS[experiment]
        params = _merge_params(exp, config.get("parameters", {}))
        for key, value in exp.check_requires.items() if check else ():
            if params[key] != value:
                raise ConfigError(f"--check asserts {value} {key} only; set {key} to {value!r}")
        run_seed = seed if seed is not None else config.get("seed", DEFAULT_SEED)
        out_fmt = fmt or config.get("output", {}).get("format", "csv")
        target = out_path or config.get("output", {}).get("path")
        if target is None:
            target = os.path.join(os.environ.get(OUT_DIR_ENV, "."), f"{experiment}.{out_fmt}")
        # The worker count is validated only: every experiment runs single-threaded.
        try:
            n_workers = (
                workers if workers is not None else int(os.environ.get(WORKERS_ENV, "1"))
            )
        except ValueError as exc:
            raise ConfigError(f"bad {WORKERS_ENV} value: {exc}") from exc
        if n_workers < 1:
            raise ConfigError("workers must be at least 1")
        started = time.monotonic()
        row_type, rows, summary = exp.runner(params, run_seed)
        elapsed = time.monotonic() - started
        for name, value in ((k, v) for row in rows for k, v in zip(row_type._fields, row)):
            if isinstance(value, float) and not math.isfinite(value):  # before --check and writing
                raise ArithmeticError(f"report column {name} is {value}, not finite")
        results = exp.checker(params, rows) if check else []
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except (ValueError, ArithmeticError) as exc:
        click.echo(f"numerical precondition failure: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)

    if check:
        all_ok = True
        for label, ok, detail in results:
            click.echo(f"[{'PASS' if ok else 'FAIL'}] {experiment}: {label} ({detail})")
            all_ok = all_ok and ok
        sys.exit(EXIT_OK if all_ok else EXIT_CHECK_FAILED)

    payload = (
        rows_to_csv(row_type._fields, rows)
        if out_fmt == "csv"
        else rows_to_json(experiment, run_seed, params, rows)
    )
    try:
        write_atomic(target, payload)
    except OSError as exc:
        click.echo(f"i/o failure writing {target}: {exc}", err=True)
        sys.exit(EXIT_IO)

    click.echo(f"{summary} | seed={run_seed} rows={len(rows)} out={target} [{elapsed:.2f}s]")
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
