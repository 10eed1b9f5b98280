"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 1 asserts both the height and the location of the improvement-curve
peak; the location half is expected to fail (see the repository notes on the
two irreconcilable anchors) and is deliberately not weakened.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from qdlab import discrimination as disc
from qdlab import dynamics, metrology as met, phase_estimation as pe, qmath, search
from qdlab import spectral_arc as arc
from qdlab.dynamics import FieldHamiltonian, NoiseKind, NoiseModel
from qdlab.metrology import Strategy, StrategyKind


def report(criterion: str, ok: bool, detail: str) -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion}: {detail}"
    print(line, file=sys.stderr)
    return ok


def fibonacci_sphere(n):
    k = np.arange(n)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    z = 1.0 - 2.0 * (k + 0.5) / n
    r = np.sqrt(1 - z**2)
    return np.column_stack([r * np.cos(golden * k), r * np.sin(golden * k), z])


def test_criterion_01_figure1_reproduction():
    started = time.monotonic()
    ratios = np.logspace(math.log10(0.01), math.log10(10.0), 200)
    res = met.figure1_curve(ratios, grid=2048, refine_peak=True)
    elapsed = time.monotonic() - started

    ok_runtime = report("1c", elapsed < 60.0, f"figure1 runtime {elapsed:.1f}s < 60s")
    ok_value = report(
        "1a", abs(res.peak_bits - 0.136) <= 0.005,
        f"peak improvement {res.peak_bits:.6f} bits vs 0.136 +/- 0.005",
    )
    ok_ratio = report(
        "1b", abs(res.peak_ratio - 0.379) <= 0.01,
        f"peak location {res.peak_ratio:.6f} vs 0.379 +/- 0.01",
    )
    assert ok_runtime
    assert ok_value
    assert ok_ratio


def test_criterion_02_grover_certainty():
    started = time.monotonic()
    sizes = [2, 4, 16, 256, 1024]
    probs, times = [], []
    for n in sizes:
        prob, T = search.grover_run(search.GroverInstance(dim=n, marked=n // 2, energy=1.0))
        probs.append(prob)
        times.append(T)
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    elapsed = time.monotonic() - started
    ok_prob = report(
        "2a", all(p >= 1 - 1e-9 for p in probs), f"min success {min(probs):.12f} >= 1 - 1e-9"
    )
    ok_slope = report("2b", abs(slope - 0.5) <= 1e-6, f"log-log slope {slope:.9f}")
    ok_time = report("2c", elapsed < 10.0, f"runtime {elapsed:.2f}s < 10s")
    assert ok_prob and ok_slope and ok_time


def test_criterion_03_tetrahedral_superdense():
    tet = disc.trine_discriminate(disc.symmetric_directions(4, -1.0 / 3.0))
    ok_err = report("3a", tet.p_error <= 1e-10, f"tetrahedron p_error {tet.p_error:.2e}")
    ok_info = report(
        "3b", abs(tet.info_bits - 2.0) <= 1e-9, f"tetrahedron info {tet.info_bits:.12f} bits"
    )
    trine = disc.trine_discriminate(disc.symmetric_directions(3, -0.5))
    ok_trine = report(
        "3c",
        abs(trine.info_bits - math.log2(3.0)) <= 1e-9,
        f"planar trine info {trine.info_bits:.12f} vs log2(3)",
    )
    best = disc.sampled_adaptive_two_qubit_info(
        disc.symmetric_directions(4, -1.0 / 3.0), rng_seed=20240817, samples=1000
    )
    ok_adaptive = report(
        "3d", best < 2.0, f"best sampled two-step single-qubit strategy {best:.6f} bits < 2"
    )
    assert ok_err and ok_info and ok_trine and ok_adaptive


def test_criterion_04_two_alternative_speedup():
    H1 = np.diag([1.0, 0.0]).astype(complex)
    H2 = np.diag([0.0, 1.0]).astype(complex)
    _, psi0, t_star = disc.cancellation_strategy(H1, H2)
    ok_time = report("4a", abs(t_star - math.pi / 2) <= 1e-9, f"cancellation time {t_star:.12f}")
    evolved = qmath.expm_i(H1 - H2, t_star) @ psi0
    ok_orth = report(
        "4b", abs(np.vdot(psi0, evolved)) <= 1e-10, "probe reaches an orthogonal state"
    )
    grover_T = search.GroverInstance(dim=2, marked=0, energy=1.0).flop_time
    ratio = grover_T / t_star
    ok_ratio = report(
        "4c", abs(ratio - math.sqrt(2.0)) <= 1e-9, f"speedup ratio {ratio:.12f} vs sqrt(2)"
    )
    assert ok_time and ok_orth and ok_ratio


def test_criterion_05_fixed_time_bound():
    started = time.monotonic()
    rng = np.random.default_rng(905)
    worst = -math.inf
    for _ in range(10**4):
        dim = int(rng.integers(2, 7))
        H = arc.random_hermitian(dim, rng.uniform(0, math.pi * 0.9999), rng)
        K = arc.random_hermitian(dim, rng.uniform(0, 10.0), rng)
        case = arc.arc_bound_check(H, K)
        worst = max(worst, case.max_violation)
    ok_bound = report(
        "5a", worst <= 1e-9, f"worst arc-bound violation {worst:.2e} over 10^4 cases"
    )
    worst_overlap = math.inf
    for _ in range(10**3):
        dim = int(rng.integers(2, 7))
        H = arc.random_hermitian(dim, rng.uniform(0.05, math.pi / 2 * 0.999), rng)
        K = arc.random_hermitian(dim, rng.uniform(0, 5.0), rng)
        driven = disc.fixed_time_overlap(H, K, 1.0)
        plain = disc.fixed_time_overlap(H, np.zeros_like(K), 1.0)
        worst_overlap = min(worst_overlap, driven - plain)
    ok_overlap = report(
        "5b", worst_overlap >= -1e-9, f"worst driven-undriven overlap margin {worst_overlap:.2e}"
    )
    elapsed = time.monotonic() - started
    ok_time = report("5c", elapsed < 30.0, f"runtime {elapsed:.1f}s < 30s")
    assert ok_bound and ok_overlap and ok_time


def test_criterion_06_sqft():
    exact_ok = True
    for n in range(1, 7):
        for j in range(2**n):
            rec = pe.sqft_estimate(pe.PhaseConfig(n=n, omega=j / 2**n), rng_seed=j + 31 * n)
            if rec.estimate != j / 2**n:
                exact_ok = False
    ok_exact = report("6a", exact_ok, "exact on all terminating frequencies, n <= 6")

    cfg = pe.PhaseConfig(n=4, omega=1.0 / 3.0)
    trials = 10**4
    counts = np.zeros(2**cfg.n)
    for seed in range(trials):
        counts[int(round(pe.sqft_estimate(cfg, seed).estimate * 2**cfg.n))] += 1
    exact = pe.exact_distribution(cfg)
    within = all(
        abs(counts[j] / trials - exact[j])
        <= 3 * math.sqrt(exact[j] * (1 - exact[j]) / trials) + 1e-12
        for j in range(2**cfg.n)
    )
    ok_mc = report("6b", within, "10^4-trial empirical distribution within 3 sigma per outcome")

    worst = pe.outcome_prob(0.5 / 2**10, 0.0, 10)
    ok_worst = report(
        "6c", abs(worst - 4.0 / math.pi**2) <= 0.01,
        f"worst-case rounding probability {worst:.6f} vs 4/pi^2",
    )
    assert ok_exact and ok_mc and ok_worst


def test_criterion_07_metrology_equivalence():
    gamma, n, T = 0.04, 5, 2000.0
    noise = NoiseModel(NoiseKind.INDEPENDENT_DEPOLARIZING, gamma)
    product = Strategy(StrategyKind.PRODUCT, n=n, T_total=T, noise=noise)
    cat = Strategy(StrategyKind.CAT, n=n, T_total=T, noise=noise)
    p_opt = met.optimize_precision(product)
    c_opt = met.optimize_precision(cat)
    expect = math.sqrt(2 * math.e * gamma / (n * T))
    rel_p = abs(p_opt.delta_omega - expect) / expect
    rel_c = abs(c_opt.delta_omega - p_opt.delta_omega) / p_opt.delta_omega
    ok_t = report(
        "7a",
        abs(p_opt.t_star * gamma - 0.5) <= 1e-12 and abs(c_opt.t_star * n * gamma - 0.5) <= 1e-12,
        f"optima at gamma t = {p_opt.t_star * gamma:.3f}, n gamma t = {c_opt.t_star * n * gamma:.3f}",
    )
    ok_p = report("7b", rel_p <= 1e-6, f"product optimum rel err {rel_p:.2e} vs sqrt(2 e G / nT)")
    ok_c = report("7c", rel_c <= 1e-6, f"cat optimum rel diff {rel_c:.2e}")
    assert ok_t and ok_p and ok_c


def test_criterion_08_channel_oracles():
    rng = np.random.default_rng(808)
    omega, gamma = 1.3, 0.45
    scale = max(omega, gamma)
    t_end = 20.0 / scale
    step = 0.01 / scale
    field = FieldHamiltonian(omega, (0.48, -0.6, 0.64))

    P0 = np.array([0.55, -0.3, 0.2])
    closed_b = dynamics.evolve_depolarizing_qubit(P0, field, gamma, t_end)
    oracle_b = dynamics.rk4_integrate(dynamics.bloch_master_rhs(field, gamma), P0, t_end, step)
    err_b = float(np.max(np.abs(closed_b - oracle_b)))

    H = qmath.tensor(field.matrix(), qmath.I2) + qmath.tensor(qmath.I2, field.matrix())
    rho0 = np.outer(qmath.BELL_PHI_PLUS, qmath.BELL_PHI_PLUS.conj())
    closed_s = dynamics.evolve_symmetric(rho0, H, gamma, t_end)
    oracle_s = dynamics.rk4_integrate(dynamics.symmetric_master_rhs(H, gamma), rho0, t_end, step)
    err_s = float(np.max(np.abs(closed_s - oracle_s)))

    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho3 = A @ A.conj().T
    rho3 /= np.trace(rho3)
    closed_i = dynamics.evolve_independent_depolarizing(rho3, 3, field, gamma, t_end)
    u = qmath.expm_i(field.matrix(), t_end)
    U3 = qmath.tensor(u, u, u)
    oracle_i = dynamics.kraus_apply_per_qubit(
        U3 @ rho3 @ U3.conj().T, 3, dynamics.depolarizing_kraus(gamma, t_end)
    )
    err_i = float(np.max(np.abs(closed_i - oracle_i)))
    oracle_i2 = dynamics.rk4_integrate(
        dynamics.independent_master_rhs(field, 2, gamma),
        qmath.partial_trace(rho3, [2, 2, 2], [0, 1]),
        t_end,
        step,
    )
    err_i2 = float(
        np.max(
            np.abs(
                dynamics.evolve_independent_depolarizing(
                    qmath.partial_trace(rho3, [2, 2, 2], [0, 1]), 2, field, gamma, t_end
                )
                - oracle_i2
            )
        )
    )

    ok_oracle = report(
        "8a",
        max(err_b, err_s, err_i, err_i2) <= 1e-6,
        f"closed-vs-oracle errors bloch {err_b:.1e} sym {err_s:.1e} "
        f"kraus {err_i:.1e} lindblad {err_i2:.1e}",
    )
    traces = [
        abs(np.trace(closed_s).real - 1.0),
        abs(np.trace(closed_i).real - 1.0),
    ]
    ok_trace = report("8b", max(traces) <= 1e-10, f"trace drift {max(traces):.1e}")
    assert ok_oracle and ok_trace


def test_criterion_09_helstrom_oracle():
    rng = np.random.default_rng(909)
    axes = fibonacci_sphere(10**4)
    worst_gap = -math.inf
    worst_formula = 0.0
    for _ in range(100):
        v1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        v2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi1, psi2 = v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)
        rho1, rho2 = np.outer(psi1, psi1.conj()), np.outer(psi2, psi2.conj())
        _, p_err = disc.helstrom(rho1, rho2)
        c = abs(np.vdot(psi1, psi2))
        worst_formula = max(worst_formula, abs(p_err - 0.5 * (1 - math.sqrt(1 - c**2))))
        P1, P2 = qmath.density_to_bloch(rho1), qmath.density_to_bloch(rho2)
        up1 = 0.5 * (1 + axes @ P1)
        up2 = 0.5 * (1 + axes @ P2)
        grid_err = float(
            np.min(np.minimum(0.5 * up1, 0.5 * up2) + np.minimum(0.5 * (1 - up1), 0.5 * (1 - up2)))
        )
        worst_gap = max(worst_gap, p_err - grid_err)
    ok_grid = report(
        "9a", worst_gap <= 1e-12, f"helstrom never beaten by the 10^4 measurement grid "
        f"(max excess {worst_gap:.1e})"
    )
    ok_formula = report(
        "9b", worst_formula <= 1e-10, f"pure-state formula max deviation {worst_formula:.1e}"
    )
    assert ok_grid and ok_formula


def test_criterion_10_adaptive_elimination():
    rng = np.random.default_rng(1010)
    all_ok = True
    for trial in range(100):
        n = int(rng.integers(2, 9))
        dim = int(rng.integers(2, 5))
        gens = np.stack([arc.random_hermitian(dim, 2.0, rng) for _ in range(n)])
        true_index = int(rng.integers(n))
        identified, count, _ = disc.adaptive_eliminate(gens, true_index, trial)
        if identified != true_index or count > n - 1:
            all_ok = False
    ok = report("10", all_ok, "100/100 ensembles identified within N-1 measurements")
    assert ok


def test_criterion_11_cli_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "experiment": "figure1",
                "parameters": {"points": 20, "grid": 512, "ratio_min": 0.05, "ratio_max": 2.0},
                "seed": 77,
            }
        )
    )
    payloads = []
    for name, workers in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "4")):
        out = tmp_path / name
        env = dict(os.environ)
        env["QD_WORKERS"] = workers
        result = subprocess.run(
            [sys.executable, "-m", "qdlab.cli", "figure1", "--config", str(cfg),
             "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0
        payloads.append(out.read_bytes())
    ok = report(
        "11",
        payloads[0] == payloads[1] == payloads[2],
        "repeat runs and different worker counts are byte-identical",
    )
    assert ok
