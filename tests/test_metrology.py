import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdlab import dynamics, metrology as met, qmath
from qdlab.dynamics import FieldHamiltonian, NoiseKind, NoiseModel
from qdlab.errors import UnsupportedModelError
from qdlab.metrology import Strategy, StrategyKind


def make_strategy(kind, n, noise_kind, gamma, t=0.7, T=100.0, omega=1.1):
    n_decl = n if noise_kind is NoiseKind.INDEPENDENT_DEPOLARIZING else None
    return Strategy(
        kind=kind, n=n, t=t, T_total=T, omega=omega, noise=NoiseModel(noise_kind, gamma, n_decl)
    )


def simulate_shot_probability(s: Strategy) -> float:
    """Full-channel recomputation of the + probability of the transverse
    parity observable (sigma_x on every qubit; plain sigma_x for product)."""
    field = FieldHamiltonian(s.omega)
    if s.kind == StrategyKind.PRODUCT:
        rho0 = qmath.bloch_to_density([1.0, 0.0, 0.0])
        if s.noise.kind is NoiseKind.NONE:
            rho = dynamics.apply_channel(rho0, field.matrix(), NoiseModel(), s.t)
        elif s.noise.kind is NoiseKind.SYMMETRIC:
            rho = dynamics.evolve_symmetric(rho0, field.matrix(), s.noise.gamma, s.t)
        else:
            rho = dynamics.evolve_independent_depolarizing(rho0, 1, field, s.noise.gamma, s.t)
        return float(np.trace(0.5 * (qmath.I2 + qmath.SIGMA_X) @ rho).real)

    cat = np.zeros(2**s.n, dtype=complex)
    cat[0] = cat[-1] = 1 / math.sqrt(2)
    rho0 = np.outer(cat, cat.conj())
    if s.noise.kind is NoiseKind.INDEPENDENT_DEPOLARIZING:
        rho = dynamics.evolve_independent_depolarizing(rho0, s.n, field, s.noise.gamma, s.t)
    else:
        h = field.matrix()
        H = sum(
            qmath.tensor(*[h if q == k else qmath.I2 for q in range(s.n)]) for k in range(s.n)
        )
        gamma = s.noise.gamma if s.noise.kind is NoiseKind.SYMMETRIC else 0.0
        rho = dynamics.evolve_symmetric(rho0, H, gamma, s.t)
    parity = qmath.tensor(*([qmath.SIGMA_X] * s.n))
    return float(np.trace(0.5 * (np.eye(2**s.n) + parity) @ rho).real)


class TestShotProbability:
    def test_product_noiseless(self):
        s = make_strategy(StrategyKind.PRODUCT, 3, NoiseKind.NONE, 0.0)
        assert met.shot_probability(s) == pytest.approx(
            0.5 * (1 + math.cos(s.omega * s.t)), abs=1e-15
        )

    def test_cat_independent_depolarizing(self):
        s = make_strategy(StrategyKind.CAT, 2, NoiseKind.INDEPENDENT_DEPOLARIZING, 0.3)
        expected = 0.5 * (1 + math.exp(-2 * 0.3 * s.t) * math.cos(2 * s.omega * s.t))
        assert met.shot_probability(s) == pytest.approx(expected, abs=1e-15)

    def test_cat_symmetric_single_rate(self):
        s = make_strategy(StrategyKind.CAT, 2, NoiseKind.SYMMETRIC, 0.3)
        expected = 0.5 * (1 + math.exp(-0.3 * s.t) * math.cos(2 * s.omega * s.t))
        assert met.shot_probability(s) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("kind", [StrategyKind.PRODUCT, StrategyKind.CAT])
    @pytest.mark.parametrize(
        "noise_kind",
        [NoiseKind.NONE, NoiseKind.SYMMETRIC, NoiseKind.INDEPENDENT_DEPOLARIZING],
    )
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_forms_match_channel_simulation(self, kind, noise_kind, n):
        gamma = 0.0 if noise_kind is NoiseKind.NONE else 0.35
        s = make_strategy(kind, n, noise_kind, gamma)
        assert met.shot_probability(s) == pytest.approx(simulate_shot_probability(s), abs=1e-10)

    def test_unsupported_combination(self):
        s = make_strategy(StrategyKind.CAT, 3, NoiseKind.QUBIT_DEPOLARIZING, 0.2)
        with pytest.raises(UnsupportedModelError):
            met.shot_probability(s)


class TestPrecision:
    def test_product_shot_noise_scaling(self):
        # Budget of one shot per qubit: delta_omega = 1 / (t sqrt(n)).
        for n in (1, 4, 9):
            s = Strategy(
                kind=StrategyKind.PRODUCT, n=n, t=0.8, T_total=0.8, omega=0.9, noise=NoiseModel()
            )
            assert met.precision(s).delta_omega == pytest.approx(
                1.0 / (0.8 * math.sqrt(n)), abs=1e-12
            )

    def test_cat_linear_scaling(self):
        for n in (1, 4, 9):
            s = Strategy(
                kind=StrategyKind.CAT, n=n, t=0.8, T_total=0.8, omega=0.9, noise=NoiseModel()
            )
            assert met.precision(s).delta_omega == pytest.approx(1.0 / (0.8 * n), abs=1e-12)

    def test_derivative_matches_finite_difference(self):
        s = make_strategy(StrategyKind.PRODUCT, 2, NoiseKind.INDEPENDENT_DEPOLARIZING, 0.25)
        h = 1e-6
        up = met.shot_probability(
            Strategy(s.kind, s.n, s.t, s.T_total, s.omega + h, s.noise)
        )
        dn = met.shot_probability(
            Strategy(s.kind, s.n, s.t, s.T_total, s.omega - h, s.noise)
        )
        numeric = abs(up - dn) / (2 * h)
        analytic = 0.5 * s.t * math.exp(-0.25 * s.t) * abs(math.sin(s.omega * s.t))
        assert numeric == pytest.approx(analytic, rel=1e-6)

    def test_noiseless_chain_is_fringe_independent(self):
        # For gamma = 0 the |sin| factors cancel; at a fringe extremum the
        # simplified chain still gives 1 / (t sqrt(m)).
        s = Strategy(
            kind=StrategyKind.PRODUCT, n=2, t=1.0, T_total=10.0, omega=2 * math.pi,
            noise=NoiseModel(),
        )
        assert met.precision(s).delta_omega == pytest.approx(
            1.0 / math.sqrt(2 * 10.0), abs=1e-12
        )

    def test_infinite_at_stationary_point_with_noise(self):
        s = Strategy(
            kind=StrategyKind.PRODUCT, n=2, t=1.0, T_total=10.0, omega=math.pi,
            noise=NoiseModel(NoiseKind.SYMMETRIC, 0.3),
        )
        assert met.precision(s).delta_omega > 1e10


class TestOptimizePrecision:
    def test_product_optimum(self):
        gamma, n, T = 0.05, 4, 1000.0
        s = make_strategy(StrategyKind.PRODUCT, n, NoiseKind.INDEPENDENT_DEPOLARIZING, gamma, T=T)
        opt = met.optimize_precision(s)
        assert not opt.at_boundary
        assert opt.t_star == pytest.approx(1.0 / (2 * gamma), rel=1e-12)
        assert opt.delta_omega == pytest.approx(math.sqrt(2 * math.e * gamma / (n * T)), rel=1e-9)

    def test_cat_optimum_matches_product(self):
        gamma, n, T = 0.05, 4, 1000.0
        prod = make_strategy(StrategyKind.PRODUCT, n, NoiseKind.INDEPENDENT_DEPOLARIZING, gamma, T=T)
        cat = make_strategy(StrategyKind.CAT, n, NoiseKind.INDEPENDENT_DEPOLARIZING, gamma, T=T)
        p_opt, c_opt = met.optimize_precision(prod), met.optimize_precision(cat)
        assert c_opt.t_star == pytest.approx(1.0 / (2 * n * gamma), rel=1e-12)
        assert c_opt.delta_omega == pytest.approx(p_opt.delta_omega, rel=1e-6)

    def test_symmetric_noise_favors_cat(self):
        gamma, n, T = 0.05, 4, 1000.0
        prod = make_strategy(StrategyKind.PRODUCT, n, NoiseKind.SYMMETRIC, gamma, T=T)
        cat = make_strategy(StrategyKind.CAT, n, NoiseKind.SYMMETRIC, gamma, T=T)
        assert met.optimize_precision(cat).delta_omega < met.optimize_precision(prod).delta_omega

    def test_zero_rate_boundary(self):
        s = make_strategy(StrategyKind.PRODUCT, 2, NoiseKind.NONE, 0.0, T=50.0)
        opt = met.optimize_precision(s)
        assert opt.at_boundary
        assert opt.t_star == 50.0


class TestFigureOneCurve:
    def test_entangled_superiority_pointwise(self):
        # |cos wt| <= (1 + cos wt)/2 on [0, pi/2], so the entangled error is
        # never larger there.
        wt = np.linspace(0, math.pi / 2, 10**4)
        lhs = np.abs(np.cos(wt))
        rhs = 0.5 * (1 + np.cos(wt))
        assert np.all(lhs <= rhs + 1e-12)
        p_ent = met.fig1_error_probability(met.ENTANGLED, 0.3, 1.0, wt[1:])
        p_prod = met.fig1_error_probability(met.PRODUCT, 0.3, 1.0, wt[1:])
        assert np.all(p_ent <= p_prod + 1e-12)

    def test_strict_gain_superiority_across_ratios(self):
        for r in np.logspace(-2, 2, 9):
            point = met.figure1_point(float(r), grid=2048)
            assert point.delta_bits >= 1e-6
            assert point.delta_bits_binary >= 1e-6

    def test_limits_vanish(self):
        # The improvement decays toward zero on both ends (slowly, like
        # p log p, on the weak-decoherence side).
        mid = met.figure1_point(1e-2, grid=2**13)
        lo = met.figure1_point(1e-3, grid=2**15)
        hi = met.figure1_point(1e3, grid=4096)
        assert lo.delta_bits < mid.delta_bits < 0.08
        assert lo.delta_bits < 0.01
        assert hi.delta_bits < 1e-5

    def test_curve_shape_and_peaks(self):
        ratios = np.logspace(math.log10(0.05), math.log10(2.0), 40)
        res = met.figure1_curve(ratios, grid=2048)
        # Measurement-information reading: peak value anchors at 0.1359.
        assert res.peak_bits == pytest.approx(0.13587, abs=5e-4)
        assert res.peak_ratio == pytest.approx(0.2021, abs=5e-3)

    def test_secondary_curve_peaks(self):
        # Binary-channel reading peaks near 0.149; the minimum-error
        # difference peaks near 0.377.
        pts = [met.figure1_point(r, grid=2048) for r in np.linspace(0.12, 0.19, 15)]
        best_bin = max(pts, key=lambda p: p.delta_bits_binary)
        assert best_bin.delta_bits_binary == pytest.approx(0.12840, abs=2e-4)
        assert best_bin.ratio == pytest.approx(0.1493, abs=0.01)
        pts = [met.figure1_point(r, grid=2048) for r in np.linspace(0.33, 0.43, 15)]
        best_dp = max(pts, key=lambda p: p.delta_p_err)
        assert best_dp.delta_p_err == pytest.approx(0.056548, abs=2e-4)
        assert best_dp.ratio == pytest.approx(0.3770, abs=0.01)

    def test_rows_ordered_and_refined(self):
        ratios = [0.1, 0.2, 0.4]
        res = met.figure1_curve(ratios, grid=1024)
        rs = [p.ratio for p in res.points]
        assert rs == sorted(rs)
        assert len(res.points) == 4  # one refinement point inserted

    def test_refined_curve_searches_at_most_31_times(self, monkeypatch):
        calls = []
        search = met.grid_golden_minimize

        def counting(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(met, "grid_golden_minimize", counting)
        met.figure1_curve(np.geomspace(0.01, 10.0, 25), grid=64)
        # Six each for the 25 ratios and the refined row; a one-step refinement
        # searches 35 times more, two steps or more per call at most 19.
        assert len(calls) <= 31

    @pytest.mark.parametrize("grid", [64, 512, 2048])
    def test_refinement_is_the_one_step_refinement(self, monkeypatch, grid):
        lo, hi = 0.1, 0.4
        point = met.refine_log_peak(lo, hi, grid)
        monkeypatch.setattr(met, "REFINE_LOOKAHEAD", 1)
        assert point == met.refine_log_peak(lo, hi, grid)

    @pytest.mark.parametrize("ratio", [1e-6, 1e-4, 1e-3, 1e3, 1e5])
    def test_rows_match_brute_force_optimum(self, ratio):
        # Every objective on 2^18 evenly spaced times over the searched window
        # (0, min(4 pi, 10 / ratio)], and 2^18 more over ten times that window,
        # so an optimum the window leaves out would show.
        window = min(4 * math.pi, 10 / ratio)
        steps = np.arange(1, 2**18 + 1) / 2**18
        t = np.concatenate([window * steps, 10 * window * steps])
        row = met.figure1_point(ratio)
        for probe, suffix in ((met.ENTANGLED, "ent"), (met.PRODUCT, "prod")):
            brute = {
                "info_" + suffix: met.fig1_measurement_info(probe, ratio, 1.0, t).max(),
                f"info_{suffix}_binary": met.fig1_binary_info(probe, ratio, 1.0, t).max(),
                "p_err_" + suffix: met.fig1_error_probability(probe, ratio, 1.0, t).min(),
            }
            for column, best in brute.items():
                value = getattr(row, column)
                # Relative too: the information is about 1e-11 at ratio 1e5.
                assert value == pytest.approx(best, abs=1e-8), column
                assert value == pytest.approx(best, rel=1e-4, abs=0.0), column

    def test_large_ratio_row(self):
        row = met.figure1_point(1e3)
        assert row.t_star_ent == pytest.approx(1.138e-3, rel=1e-3)
        assert row.info_ent == pytest.approx(1.4530e-7, rel=1e-4)

    def test_binary_columns_match_the_binary_reading_of_the_error(self):
        # 1 - H2(p) falls as p rises on [0, 1/2], so the binary reading peaks
        # where the error is least; the two searches must agree.
        for row in met.figure1_points(np.logspace(-4, 4, 17), grid=256):
            for suffix in ("ent", "prod"):
                p = getattr(row, "p_err_" + suffix)
                expected = 1.0 + p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p)
                assert getattr(row, f"info_{suffix}_binary") == pytest.approx(expected, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize(
        "ratios", [[], [0.1, 0.0], -1.0, [0.1, math.nan], math.nan, math.inf, [0.1, math.inf]]
    )
    def test_rejects_ratios_that_are_not_positive(self, ratios):
        with pytest.raises(ValueError, match="ratios must be positive"):
            met.figure1_points(ratios)

    @staticmethod
    def mp_entropy_sums(strategy, ratio, t):
        """(measurement information, binary reading) at one time from the plain
        entropy sums, in 50-digit arithmetic."""
        with mpmath.workdps(50):
            t = mpmath.mpf(t)
            e = mpmath.exp(-mpmath.mpf(ratio) * t)
            if strategy == met.ENTANGLED:
                s = abs(mpmath.sin(t))
            else:
                s = mpmath.sqrt(1 - mpmath.cos(t / 2) ** 4)

            def xlog2x(p):
                return p * mpmath.log(p, 2) if p > 0 else mpmath.mpf(0)

            p_plus = e * (1 + s) / 2 + (1 - e) / 4
            p_minus = e * (1 - s) / 2 + (1 - e) / 4
            info = xlog2x(p_plus) + xlog2x(p_minus) - 2 * xlog2x((1 + e) / 4)
            p_err = (1 - e * s) / 2
            return float(info), float(1 + xlog2x(p_err) + xlog2x(1 - p_err))

    @pytest.mark.parametrize("ratio", [1e-6, 1e-2, 0.2, 1e2, 1e5, 1e8])
    def test_gains_match_50_digit_entropy_sums_at_t_star(self, ratio):
        # The plain sums in doubles are 2e-5 off at ratio 1e5 and 3e4 off at 1e8;
        # log1p(-u^2) + 2 u atanh(u) alone is 1e-11 off at 1e-6, where u is near 1.
        row = met.figure1_point(ratio)
        for probe, t in ((met.ENTANGLED, row.t_star_ent), (met.PRODUCT, row.t_star_prod)):
            info, binary = self.mp_entropy_sums(probe, ratio, t)
            assert float(met.fig1_measurement_info(probe, ratio, 1.0, t)) == pytest.approx(
                info, rel=1e-14, abs=0.0
            )
            assert float(met.fig1_binary_info(probe, ratio, 1.0, t)) == pytest.approx(
                binary, rel=1e-14, abs=0.0
            )

    @pytest.mark.parametrize("t", [1e-7, 1e-8])
    def test_product_sin_theta_at_small_times(self, t):
        with mpmath.workdps(50):
            exact = mpmath.sqrt(1 - mpmath.cos(mpmath.mpf(t) / 2) ** 4)
        value = float(met.fig1_sin_theta(met.PRODUCT, t))
        assert value == pytest.approx(float(exact), rel=1e-15, abs=0.0)

    def test_measurement_info_against_direct_density_computation(self, rng):
        # Rebuild the channel output states and the decision-basis outcome
        # probabilities from raw matrices.
        gamma, t = 0.35, 0.9
        field = FieldHamiltonian(1.0)
        h2 = qmath.tensor(field.matrix(), qmath.I2) + qmath.tensor(qmath.I2, field.matrix())
        bell = qmath.BELL_PHI_PLUS
        rho_static = dynamics.evolve_symmetric(np.outer(bell, bell.conj()), np.zeros((4, 4)), gamma, t)
        rho_moving = dynamics.evolve_symmetric(np.outer(bell, bell.conj()), h2, gamma, t)
        w, V = np.linalg.eigh(rho_static - rho_moving)
        p1 = np.real(np.einsum("ij,jk,ki->i", V.conj().T, rho_static, V))
        p2 = np.real(np.einsum("ij,jk,ki->i", V.conj().T, rho_moving, V))
        def H(p):
            p = np.clip(p, 1e-300, 1)
            return -(p * np.log2(p)).sum()
        direct = H(0.5 * (p1 + p2)) - 0.5 * (H(p1) + H(p2))
        closed = float(met.fig1_measurement_info(met.ENTANGLED, gamma, 1.0, t))
        assert closed == pytest.approx(direct, abs=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(
        ratios=st.lists(st.floats(0.01, 10.0), min_size=2, max_size=5),
        grid=st.sampled_from([64, 512, 2048]),
    )
    def test_batch_equals_batches_of_one(self, ratios, grid):
        batch = met.figure1_points(ratios, grid)
        for r, point in zip(ratios, batch):
            single = met.figure1_point(r, grid)
            for name in met.Figure1Point._fields:
                assert getattr(point, name) == pytest.approx(getattr(single, name), abs=1e-12)

    @staticmethod
    def eight_term_measurement_info(strategy, gamma, t):
        """H(Y) - H(Y|X) with all four outcomes of both entropies summed."""

        def entropy_rows(*ps):
            total = np.zeros_like(np.asarray(ps[0], dtype=float))
            for p in ps:
                q = np.clip(np.asarray(p, dtype=float), 1e-300, 1.0)
                total = total - np.where(q > 1e-300, q * np.log2(q), 0.0)
            return total

        e = np.exp(-gamma * t)
        s = met.fig1_sin_theta(strategy, t)
        p_plus = e * (1.0 + s) / 2.0 + (1.0 - e) / 4.0
        p_minus = e * (1.0 - s) / 2.0 + (1.0 - e) / 4.0
        p_null = (1.0 - e) / 4.0 * np.ones_like(p_plus)
        avg = 0.5 * (p_plus + p_minus)
        h_y = entropy_rows(avg, avg, p_null, p_null)
        return h_y - entropy_rows(p_plus, p_minus, p_null, p_null)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        strategy=st.sampled_from([met.ENTANGLED, met.PRODUCT]),
        gamma=st.floats(1e-3, 1e3),
        t=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=16),
    )
    def test_measurement_info_matches_eight_term_entropies(self, strategy, gamma, t):
        t = np.array(t)
        np.testing.assert_allclose(
            met.fig1_measurement_info(strategy, gamma, 1.0, t),
            self.eight_term_measurement_info(strategy, gamma, t),
            rtol=0.0,
            atol=1e-12,
        )

    @pytest.mark.parametrize("strategy", ["bell", True, 1, [met.ENTANGLED, "cat"]])
    def test_unknown_strategy_is_rejected(self, strategy):
        for fig1 in (met.fig1_measurement_info, met.fig1_binary_info, met.fig1_error_probability):
            with pytest.raises(ValueError, match="unknown strategy"):
                fig1(strategy, 0.3, 1.0, np.array([0.5, 1.0]))
