import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import report_ledger
from qdlab import cli, discrimination as disc, dynamics, metrology as met, qmath
from qdlab.dynamics import FieldHamiltonian, NoiseKind, NoiseModel
from qdlab.errors import UnsupportedModelError
from qdlab.metrology import Strategy, StrategyKind


# The shot duration and field frequency of the shot-probability tests.
T_SHOT, OMEGA = 0.7, 1.1


def make_strategy(kind, n, noise_kind, gamma, T=100.0):
    return Strategy(kind=kind, n=n, T_total=T, noise=NoiseModel(noise_kind, gamma))


def simulate_shot_probability(s: Strategy, t: float, omega: float) -> float:
    """Full-channel recomputation of the + probability of the transverse
    parity observable (sigma_x on every qubit; plain sigma_x for product)
    after a shot of duration t in a field of frequency omega."""
    field = FieldHamiltonian(omega)
    if s.kind == StrategyKind.PRODUCT:
        rho0 = qmath.bloch_to_density([1.0, 0.0, 0.0])
        if s.noise.kind is NoiseKind.NONE:
            rho = dynamics.apply_channel(rho0, field.matrix(), NoiseModel(), t)
        elif s.noise.kind is NoiseKind.SYMMETRIC:
            rho = dynamics.evolve_symmetric(rho0, field.matrix(), s.noise.gamma, t)
        else:
            rho = dynamics.evolve_independent_depolarizing(rho0, 1, field, s.noise.gamma, t)
        return float(np.trace(0.5 * (qmath.I2 + qmath.SIGMA_X) @ rho).real)

    cat = np.zeros(2**s.n, dtype=complex)
    cat[0] = cat[-1] = 1 / math.sqrt(2)
    rho0 = np.outer(cat, cat.conj())
    if s.noise.kind is NoiseKind.INDEPENDENT_DEPOLARIZING:
        rho = dynamics.evolve_independent_depolarizing(rho0, s.n, field, s.noise.gamma, t)
    else:
        h = field.matrix()
        H = sum(
            qmath.tensor(*[h if q == k else qmath.I2 for q in range(s.n)]) for k in range(s.n)
        )
        gamma = s.noise.gamma if s.noise.kind is NoiseKind.SYMMETRIC else 0.0
        rho = dynamics.evolve_symmetric(rho0, H, gamma, t)
    parity = qmath.tensor(*([qmath.SIGMA_X] * s.n))
    return float(np.trace(0.5 * (np.eye(2**s.n) + parity) @ rho).real)


def shot_probability(s: Strategy, t: float, omega: float) -> float:
    """The + probability 0.5 (1 + e^{-gamma_eff t} cos(rate omega t)) that
    `metrology._decay_and_rate`'s decay and rate imply."""
    gamma_eff, rate = met._decay_and_rate(s)
    return 0.5 * (1.0 + math.exp(-gamma_eff * t) * math.cos(rate * omega * t))


# The parameter overrides of the ledger's figure1 runs.
FIGURE1_RUNS = [pytest.param(overrides, id=label)
                for label, experiment, overrides, *_ in report_ledger.RUNS
                if experiment == "figure1"]
# Those whose best curve point has a neighbour on each side, so that its peak is refined.
REFINED_RUNS = [run for run in FIGURE1_RUNS if run.id != "figure1-refine-edge"]
# Curves whose neighbours are so far apart that e^{-gamma t} underflows to 0 over most
# of a first refinement step's time bracket; the last one's neighbours are closer.
SPARSE_WIDE_RUNS = [
    pytest.param({"ratio_min": lo, "ratio_max": hi, "points": n, "grid": 256},
                 id=f"sparse-wide-{lo:g}-{hi:g}-{n}")
    for lo, hi, n in [(1e-30, 1e30, 3), (1e-16, 1e21, 3), (1e-40, 1e17, 3), (1e-40, 1e20, 4),
                      (1e-25, 1e35, 4), (1e-34, 1e11, 3), (1e-8, 1e8, 3)]
]


class TestShotProbability:
    def test_product_noiseless(self):
        s = make_strategy(StrategyKind.PRODUCT, 3, NoiseKind.NONE, 0.0)
        assert shot_probability(s, T_SHOT, OMEGA) == pytest.approx(
            0.5 * (1 + math.cos(OMEGA * T_SHOT)), abs=1e-15
        )

    def test_cat_independent_depolarizing(self):
        s = make_strategy(StrategyKind.CAT, 2, NoiseKind.INDEPENDENT_DEPOLARIZING, 0.3)
        expected = 0.5 * (1 + math.exp(-2 * 0.3 * T_SHOT) * math.cos(2 * OMEGA * T_SHOT))
        assert shot_probability(s, T_SHOT, OMEGA) == pytest.approx(expected, abs=1e-15)

    def test_cat_symmetric_single_rate(self):
        s = make_strategy(StrategyKind.CAT, 2, NoiseKind.SYMMETRIC, 0.3)
        expected = 0.5 * (1 + math.exp(-0.3 * T_SHOT) * math.cos(2 * OMEGA * T_SHOT))
        assert shot_probability(s, T_SHOT, OMEGA) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("kind", [StrategyKind.PRODUCT, StrategyKind.CAT])
    @pytest.mark.parametrize(
        "noise_kind",
        [NoiseKind.NONE, NoiseKind.SYMMETRIC, NoiseKind.INDEPENDENT_DEPOLARIZING],
    )
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_forms_match_channel_simulation(self, kind, noise_kind, n):
        gamma = 0.0 if noise_kind is NoiseKind.NONE else 0.35
        s = make_strategy(kind, n, noise_kind, gamma)
        assert shot_probability(s, T_SHOT, OMEGA) == pytest.approx(
            simulate_shot_probability(s, T_SHOT, OMEGA), abs=1e-10
        )

    def test_unsupported_combination(self):
        s = make_strategy(StrategyKind.CAT, 3, NoiseKind.QUBIT_DEPOLARIZING, 0.2)
        with pytest.raises(UnsupportedModelError):
            shot_probability(s, T_SHOT, OMEGA)


class TestPrecision:
    def test_product_shot_noise_scaling(self):
        # Budget of one shot per qubit: delta_omega = 1 / (t sqrt(n)).
        for n in (1, 4, 9):
            s = Strategy(kind=StrategyKind.PRODUCT, n=n, T_total=0.8, noise=NoiseModel())
            assert met.precision_envelope(s, 0.8) == pytest.approx(
                1.0 / (0.8 * math.sqrt(n)), abs=1e-12
            )

    def test_cat_linear_scaling(self):
        for n in (1, 4, 9):
            s = Strategy(kind=StrategyKind.CAT, n=n, T_total=0.8, noise=NoiseModel())
            assert met.precision_envelope(s, 0.8) == pytest.approx(1.0 / (0.8 * n), abs=1e-12)


    @pytest.mark.parametrize(
        "kind, n, noise_kind, gamma",
        [
            (StrategyKind.PRODUCT, 3, NoiseKind.NONE, 0.0),
            (StrategyKind.PRODUCT, 2, NoiseKind.SYMMETRIC, 0.35),
            (StrategyKind.CAT, 3, NoiseKind.INDEPENDENT_DEPOLARIZING, 0.2),
            (StrategyKind.CAT, 2, NoiseKind.SYMMETRIC, 0.35),
        ],
    )
    def test_envelope_is_error_propagation_at_quadrature(self, kind, n, noise_kind, gamma):
        # sqrt(P (1 - P) / m) / |dP/domega| with dP/domega by central difference,
        # at the omega that puts the fringe at quadrature.
        t = 0.7
        s = make_strategy(kind, n, noise_kind, gamma)
        _, rate = met._decay_and_rate(s)
        omega = 0.5 * math.pi / (rate * t)
        h = 1e-6
        slope = (shot_probability(s, t, omega + h) - shot_probability(s, t, omega - h)) / (2 * h)
        P = shot_probability(s, t, omega)
        m = (s.n if kind == StrategyKind.PRODUCT else 1) * s.T_total / t
        expected = math.sqrt(P * (1 - P) / m) / abs(slope)
        assert met.precision_envelope(s, t) == pytest.approx(expected, rel=1e-8)


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

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan])
    def test_budget_must_be_positive(self, T):
        with pytest.raises(ValueError, match="need T_total > 0"):
            make_strategy(StrategyKind.PRODUCT, 2, NoiseKind.NONE, 0.0, T=T)

    @pytest.mark.parametrize("kind", [StrategyKind.PRODUCT, StrategyKind.CAT])
    def test_an_overflowing_uncertainty_is_refused(self, kind):
        s = make_strategy(kind, 2, NoiseKind.NONE, 0.0, T=1e-323)
        with pytest.raises(OverflowError, match="not finite"):
            met.optimize_precision(s)

    @pytest.mark.parametrize("kind", [StrategyKind.PRODUCT, StrategyKind.CAT])
    @pytest.mark.parametrize("gamma, T", [(0.0, 5e-324), (1e308, 1000.0)])
    def test_a_zero_shot_phase_is_refused_as_overflow(self, kind, gamma, T):
        # At T 5e-324 the phase 0.5 rate t rounds to 0; at gamma 1e308, n gamma is inf and t_star 0.
        s = make_strategy(kind, 2, NoiseKind.INDEPENDENT_DEPOLARIZING, gamma, T=T)
        with pytest.raises(OverflowError, match="delta_omega inf is not finite"):
            met.optimize_precision(s)

    @staticmethod
    def branch_ladder(s):
        """optimize_precision as one branch per (kind, noise kind) pair:
        (t_star, delta_omega, at_boundary)."""
        g = s.noise.gamma
        ladder = {
            (StrategyKind.PRODUCT, NoiseKind.NONE): (0.0, 1.0),
            (StrategyKind.CAT, NoiseKind.NONE): (0.0, float(s.n)),
            (StrategyKind.CAT, NoiseKind.INDEPENDENT_DEPOLARIZING): (s.n * g, float(s.n)),
            (StrategyKind.CAT, NoiseKind.SYMMETRIC): (g, float(s.n)),
        }
        for kind in NoiseKind:
            ladder.setdefault((StrategyKind.PRODUCT, kind), (g, 1.0))
        if s.n == 1:
            ladder[(StrategyKind.CAT, NoiseKind.QUBIT_DEPOLARIZING)] = (g, 1.0)
        if (s.kind, s.noise.kind) not in ladder:
            raise UnsupportedModelError("no closed form")
        gamma_eff, rate = ladder[(s.kind, s.noise.kind)]

        def envelope(t):  # 0.5 / sqrt(m) from the roots of t, T and n: m can overflow
            n = s.n if s.kind == StrategyKind.PRODUCT else 1
            shot = 0.5 * math.sqrt(t) / math.sqrt(s.T_total) / math.sqrt(n)
            return math.exp(gamma_eff * t) / (0.5 * t) / rate * shot  # so can 0.5 rate t

        if gamma_eff == 0.0:
            return s.T_total, envelope(s.T_total), True
        t_star = 1.0 / (2.0 * gamma_eff)
        if t_star >= s.T_total:
            return s.T_total, envelope(s.T_total), True
        return t_star, envelope(t_star), False

    def test_equals_the_branch_ladder_bit_for_bit(self):
        # Every (kind, noise kind) pair, with budgets below, at and beyond the optimum.
        rng = np.random.default_rng(29)
        for i in range(2000):
            kind = (StrategyKind.PRODUCT, StrategyKind.CAT)[i % 2]
            noise_kind = list(NoiseKind)[i // 2 % 4]
            n = int(rng.integers(1, 9))
            gamma = (0.0, 1e-6, float(10 ** rng.uniform(-6, 2)))[i // 8 % 3]
            T = float(10 ** rng.uniform(-3, 6))
            if i // 24 % 2 and gamma:  # at the optimum of either decay, or one ulp past it
                T = 1.0 / (2.0 * gamma * (n if i // 48 % 2 else 1))
                T = math.nextafter(T, math.inf) if i // 96 % 2 else T
            s = make_strategy(kind, n, noise_kind, gamma, T=T)
            try:
                want = self.branch_ladder(s)
            except UnsupportedModelError:
                with pytest.raises(UnsupportedModelError):
                    met.optimize_precision(s)
                continue
            opt = met.optimize_precision(s)
            assert (opt.t_star, opt.delta_omega, opt.at_boundary) == want


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

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        original = getattr(met, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(met, name, counting)
        return calls

    def test_refined_curve_makes_6_grid_and_8_warm_searches(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "grid_golden_minimize")
        warm = self.count_calls(monkeypatch, "golden_minimize")
        met.figure1_curve(np.geomspace(0.01, 10.0, 25), grid=64)
        # Six for the 25 ratios, the refined row's binary and error columns
        # included. The refinement's one search per 8-fold shrink of the bracket
        # (two ratio steps wide) down to 1e-7, eight, starts from its end rows'
        # times and scans no grid, and its last one gives the refined row's
        # information columns.
        assert len(calls) == 6
        assert len(warm) == 8

    @staticmethod
    def refinement_of(overrides):
        """(lo, hi, grid, (ratio, t, info), rows) of the peak refinement of a
        figure1 run: lo and hi are the ratios of the two rows it starts from,
        (ratio, t, info) what refine_log_peak returns, rows the run's rows."""
        experiment = cli.EXPERIMENTS["figure1"]
        params = cli._merge_params(experiment, overrides)
        seen, refine = [], met.refine_log_peak

        def spy(ratios, times):
            seen.append((*ratios, params["grid"], refine(ratios, times)))
            return seen[-1][-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(met, "refine_log_peak", spy)
            _, rows, _ = experiment.runner(params, 7)
        (refinement,) = seen
        return (*refinement, rows)

    def test_an_end_point_is_not_refined(self, monkeypatch):
        # The ledger's figure1-refine-edge run: the best of its four rows is the first.
        ratios = np.logspace(math.log10(0.5), 1.0, 4)
        refinements = self.count_calls(monkeypatch, "refine_log_peak")
        result = met.figure1_curve(ratios)
        assert refinements == []
        assert list(result.points) == met.figure1_points(ratios)
        assert result.peak_ratio == result.points[0].ratio

    @staticmethod
    def stopping_tolerance(lo, hi):
        """The refinement stops below 1e-7 * max(1, |b|), with b in [log lo, log hi]."""
        return 1e-7 * max(1.0, abs(math.log(lo)), abs(math.log(hi)))

    @pytest.mark.parametrize("overrides", REFINED_RUNS)
    def test_refinement_is_within_its_tolerance_of_a_tight_golden_search(self, overrides):
        lo, hi, grid, (ratio, _, _), _ = self.refinement_of(overrides)

        def neg_delta(x):  # one log-ratio per call: both probes in one search
            _, info = met._fig1_optimize(met._measurement_info, np.array([True, False]),
                                         np.exp(x), grid, -1)
            return info[1] - info[0]

        reference = float(disc.golden_minimize(neg_delta, math.log(lo), math.log(hi), 1e-12))
        assert abs(math.log(ratio) - reference) <= self.stopping_tolerance(lo, hi)

    @staticmethod
    def end_times(ratios, grid=64):
        """The (t_star_ent, t_star_prod) rows of the curve points at `ratios`."""
        return [(p.t_star_ent, p.t_star_prod) for p in met.figure1_points(ratios, grid)]

    @pytest.mark.parametrize("lo, hi, edge", [(0.25, 0.4, 0.25), (0.05, 0.19, 0.19)])
    def test_a_peak_outside_the_bracket_refines_to_the_nearer_edge(self, lo, hi, edge):
        # delta_bits peaks near ratio 0.202, so it is monotone on each bracket.
        ratio, _, _ = met.refine_log_peak([lo, hi], self.end_times([lo, hi]))
        assert abs(math.log(ratio) - math.log(edge)) <= self.stopping_tolerance(lo, hi)

    def test_neighbours_closer_than_the_tolerance_still_take_one_step(self):
        lo, hi = 0.2, 0.2 * (1.0 + 1e-8)  # 1e-8 apart in log-ratio, below 1e-7 * |log 0.2|
        (ratio, t, info), searches = self.warm_searches(
            lambda: met.refine_log_peak([lo, hi], self.end_times([lo, hi])))
        assert len(searches) == 1
        assert lo < ratio < hi
        gamma, _, _, t_warm, info_warm = searches[0]
        (j,) = np.flatnonzero(gamma[:, 0] == ratio)
        np.testing.assert_array_equal(t, t_warm[j])
        np.testing.assert_array_equal(info, info_warm[j])

    @staticmethod
    def warm_searches(run):
        """run()'s result and, for each golden search that refine_log_peak makes,
        (its ratios, its lower and upper time brackets, the times it returns and
        the measurement information there). The objective it searches is the
        negated information of _fig1_kernel, whose ratios the spy records."""
        searches, ratios = [], []
        golden, kernel = met.golden_minimize, met._fig1_kernel

        def kernel_spy(objective, entangled, gamma, omega, t):
            ratios.append(gamma)
            return kernel(objective, entangled, gamma, omega, t)

        def golden_spy(fn, a, b, rel_tol):
            ratios.clear()
            t = golden(fn, a, b, rel_tol)
            (gamma,) = {id(g): g for g in ratios}.values()  # one ratio array per search
            searches.append((gamma, *np.broadcast_arrays(a, b), t, -fn(t)))
            return t

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(met, "_fig1_kernel", kernel_spy)
            patch.setattr(met, "golden_minimize", golden_spy)
            return run(), searches

    def test_each_shrink_is_one_search_of_15_by_2_rows(self, monkeypatch):
        ends = self.end_times([0.1, 0.4])
        grid_searches = self.count_calls(monkeypatch, "_fig1_optimize")
        (ratio, _, _), searches, rel_tols = self.warm_searches_and_tolerances(
            monkeypatch, lambda: met.refine_log_peak([0.1, 0.4], ends))
        # Brackets shrink from log(4) by 8 per search, and stop below
        # 1e-7 * |log 0.2|: after 8 searches. None scans a grid.
        assert [np.shape(a) for _, a, *_ in searches] == [(15, 2)] * 8
        assert grid_searches == []
        width, a = math.log(4.0), math.log(0.1)
        # (entangled, product) at each end, and the rel_tol of the search that gave each end.
        times, tols = np.array(ends), np.full(2, 1e-9)
        for (gamma, lower, upper, t, info), rel_tol in zip(searches, rel_tols):
            assert gamma.shape == (15, 1)
            x = np.log(gamma[:, 0])  # 15 evenly spaced log-ratios strictly inside the bracket
            np.testing.assert_allclose(np.diff(x), width / 16, rtol=1e-6)
            assert a < x[0] and x[-1] < a + width
            # Each probe searches between its end times, widened by 4 * tol * max(1, t):
            # 8 times the half-width of the last bracket of the loosest search that gave them.
            shorter, longer = np.sort(times, axis=0)
            tol = tols.max()
            for bracket, end in ((lower, shorter - 4 * tol * np.maximum(1.0, shorter)),
                                 (upper, longer + 4 * tol * np.maximum(1.0, longer))):
                np.testing.assert_array_equal(bracket, np.broadcast_to(end, (15, 2)))
            assert np.all((lower < t) & (t < upper))
            # The next bracket is the two intervals around the best of them, and
            # its ends keep their times and tolerances.
            i = int(np.argmax(info[:, 0] - info[:, 1]))
            times = np.concatenate([times[:1], t, times[1:]])[[i, i + 2]]
            tols = np.concatenate([tols[:1], np.full(15, rel_tol), tols[1:]])[[i, i + 2]]
            a, width = x[i] - width / 16, width / 8
        assert a < math.log(ratio) < a + width

    def test_an_end_kept_from_an_earlier_bracket_keeps_its_tolerance(self, monkeypatch):
        # A stand-in kernel: each probe's information is -(t - t0)^2 plus, for the entangled
        # probe, two narrow bumps in the log-ratio x. The first search (spacing h) sees only
        # the bump at its middle row, x1; the second (spacing h / 8) picks its first row,
        # x1 - 7h / 8, where the higher bump lies. So the third bracket keeps the first
        # search's end at x1 - h, which was searched to the first, looser rel_tol.
        lo, hi = 0.1, 0.4
        h = math.log(hi / lo) / 16
        x1 = math.log(lo) + 8 * h
        x2, w = x1 - 7 * h / 8, h / 100

        def kernel(objective, entangled, gamma, omega, t):
            x = np.log(gamma)
            bumps = np.exp(-np.square((x - x1) / w)) + 2 * np.exp(-np.square((x - x2) / w))
            return np.where(entangled, bumps, 0.0) - np.square(t - np.array([0.05, 0.06]) / gamma)

        monkeypatch.setattr(met, "_fig1_kernel", kernel)
        ends = [[0.05 / lo, 0.06 / lo], [0.05 / hi, 0.06 / hi]]
        (ratio, _, _), searches, rel_tols = self.warm_searches_and_tolerances(
            monkeypatch, lambda: met.refine_log_peak([lo, hi], ends))
        assert [int(np.argmax(info[:, 0] - info[:, 1])) for *_, info in searches[:2]] == [7, 0]
        assert abs(math.log(ratio) - x2) <= self.stopping_tolerance(lo, hi)
        (_, _, _, t1, _), (_, _, _, t2, _), (_, lower, upper, _, _) = searches[:3]
        shorter, longer = np.sort([t1[6], t2[1]], axis=0)
        tol = rel_tols[0]
        assert tol > rel_tols[1]
        for bracket, end in ((lower, shorter - 4 * tol * np.maximum(1.0, shorter)),
                             (upper, longer + 4 * tol * np.maximum(1.0, longer))):
            np.testing.assert_array_equal(bracket, np.broadcast_to(end, (15, 2)))

    def warm_searches_and_tolerances(self, monkeypatch, run):
        """warm_searches(run), with the rel_tol that each golden search is given."""
        calls = self.count_calls(monkeypatch, "golden_minimize")
        result, searches = self.warm_searches(run)
        assert len(calls) == len(searches)
        return result, searches, [rel_tol for _, _, _, rel_tol in calls]

    @pytest.mark.parametrize("overrides", REFINED_RUNS)
    def test_warm_searches_match_the_grid_search(self, overrides, monkeypatch):
        experiment = cli.EXPERIMENTS["figure1"]
        params = cli._merge_params(experiment, overrides)
        _, searches, rel_tols = self.warm_searches_and_tolerances(
            monkeypatch, lambda: experiment.runner(params, 7))
        assert len(searches) >= 7
        probes = [met.ENTANGLED, met.PRODUCT]
        entangled = np.array([True, False])
        for (gamma, lower, upper, t, info), rel_tol in zip(searches[:-1], rel_tols):
            t_grid, info_grid = met._fig1_optimize(met._measurement_info, entangled, gamma,
                                                   params["grid"], -1)
            # A search stops once its bracket is narrower than rel_tol * max(1, |upper|),
            # so its midpoint lies within half that of the optimum, here up to the
            # grid search's own 1e-7 (below). The information is unimodal around the
            # optimum, so it is at least its value at either end of that interval, each
            # taken no further out than the search's bracket (which holds t).
            half_width = 0.5 * rel_tol * np.maximum(1.0, upper) + 1e-7 * t_grid
            assert np.all(np.abs(t - t_grid) <= half_width)
            ends = np.minimum(*(met.fig1_measurement_info(
                probes, gamma, 1.0, np.clip(t_grid + d, lower, upper))
                for d in (-half_width, half_width)))
            assert np.all(ends * (1.0 - 1e-14) <= info)
            assert np.all(info <= info_grid * (1.0 + 1e-14))
        gamma, _, _, t, info = searches[-1]
        t_grid, info_grid = met._fig1_optimize(met._measurement_info, entangled, gamma,
                                               params["grid"], -1)
        # The last search is a 1e-9 one. Each optimum is flat, so it fixes its time only
        # to about sqrt(eps) and its value to a few ulps.
        np.testing.assert_allclose(t, t_grid, rtol=1e-7, atol=0.0)
        np.testing.assert_allclose(info, info_grid, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("overrides", REFINED_RUNS)
    def test_each_step_searches_its_times_to_its_bracket_s_tolerance(self, overrides,
                                                                     monkeypatch):
        experiment = cli.EXPERIMENTS["figure1"]
        params = cli._merge_params(experiment, overrides)
        _, searches, rel_tols = self.warm_searches_and_tolerances(
            monkeypatch, lambda: experiment.runner(params, 7))
        for (gamma, *_), rel_tol in zip(searches, rel_tols):
            # The step's log-ratio bracket [a, b] holds its ratios at spacing (b - a) / 16.
            x = np.log(gamma[:, 0])
            spacing = (x[-1] - x[0]) / (met.REFINE_POINTS - 1)
            a, b = x[0] - spacing, x[-1] + spacing
            rule = max(1e-9, met.REFINE_TIME_TOL * (b - a) / max(1.0, abs(b)))
            assert rel_tol == pytest.approx(rule, rel=1e-6)
        # The step that ends the loop starts below 8e-7 * max(1, |b|): a 1e-9 search.
        assert rel_tols[-1] == 1e-9
        assert all(rel_tol > 1e-9 for rel_tol in rel_tols[:-2])

    def test_a_25_ratio_curve_makes_116_warm_objective_calls(self, monkeypatch):
        calls, golden = [], met.golden_minimize

        def spy(fn, a, b, rel_tol):
            calls.append(0)

            def objective(t):
                calls[-1] += 1
                return fn(t)

            return golden(objective, a, b, rel_tol)

        monkeypatch.setattr(met, "golden_minimize", spy)
        met.figure1_curve(np.geomspace(0.01, 10.0, 25))
        # Each step's time bracket and tolerance shrink with its log-ratio bracket, so
        # the seven looser steps take 15 calls each; the last, at 1e-9, takes 11.
        assert calls == [15] * 7 + [11]

    @pytest.mark.parametrize("overrides", REFINED_RUNS)
    def test_the_refined_row_keeps_the_last_warm_step(self, overrides):
        experiment = cli.EXPERIMENTS["figure1"]
        params = cli._merge_params(experiment, overrides)
        (_, rows, _), searches = self.warm_searches(lambda: experiment.runner(params, 7))
        gamma, _, _, t, info = searches[-1]
        (row,) = [r for r in rows if r.ratio in gamma[:, 0]]
        (j,) = np.flatnonzero(gamma[:, 0] == row.ratio)
        assert (row.t_star_ent, row.t_star_prod) == tuple(t[j])
        assert (row.info_ent, row.info_prod) == tuple(info[j])
        assert row.delta_bits == info[j, 0] - info[j, 1]

    @pytest.mark.parametrize("overrides", REFINED_RUNS + SPARSE_WIDE_RUNS)
    def test_the_refined_row_matches_its_grid_search_row(self, overrides):
        _, _, grid, (ratio, _, _), rows = self.refinement_of(overrides)
        (row,) = [r for r in rows if r.ratio == ratio]
        reference = met.figure1_point(ratio, grid)
        # As in test_warm_searches_match_the_grid_search: flat optima.
        np.testing.assert_allclose([row.t_star_ent, row.t_star_prod],
                                   [reference.t_star_ent, reference.t_star_prod],
                                   rtol=1e-7, atol=0.0)
        np.testing.assert_allclose([row.info_ent, row.info_prod],
                                   [reference.info_ent, reference.info_prod], rtol=1e-14, atol=0.0)
        # Its binary and error columns come from the same searches as a row of its own.
        for name in ("info_ent_binary", "info_prod_binary", "delta_bits_binary", "p_err_ent",
                     "p_err_prod", "delta_p_err"):
            assert getattr(row, name) == getattr(reference, name), name

    @pytest.mark.parametrize("overrides", REFINED_RUNS)
    def test_the_other_rows_equal_figure1_points(self, overrides):
        _, _, grid, (ratio, _, _), rows = self.refinement_of(overrides)
        others = [r for r in rows if r.ratio != ratio]
        assert len(others) == len(rows) - 1
        assert others == met.figure1_points([r.ratio for r in others], grid)

    @pytest.mark.parametrize("overrides", SPARSE_WIDE_RUNS + REFINED_RUNS)
    def test_every_refinement_bracket_lies_in_its_row_s_window(self, overrides):
        experiment = cli.EXPERIMENTS["figure1"]
        params = cli._merge_params(experiment, overrides)
        _, searches = self.warm_searches(lambda: experiment.runner(params, 7))
        assert searches
        for gamma, lower, upper, t, _ in searches:
            assert np.all(lower >= 0.0)
            assert np.all(upper <= met._fig1_window(np.array([True, False]), gamma))
            assert np.all((lower <= t) & (t <= upper))

    def test_an_unrefined_curve_equals_figure1_points(self):
        ratios = np.geomspace(0.01, 10.0, 25)
        result = met.figure1_curve(ratios, 64, refine_peak=False)
        assert list(result.points) == met.figure1_points(ratios, 64)

    def test_optimum_times_fall_strictly_with_the_ratio(self):
        # The premise of the warm brackets: the times at two ratios bracket the
        # optimum time of every ratio between them, for both probes.
        ratios = np.geomspace(1e-4, 1e4, 2001)
        for entangled in (True, False):
            t, _ = met._fig1_optimize(met._measurement_info, entangled, ratios, 2048, -1)
            assert np.all(np.diff(t) < 0), entangled

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

    # (search-path kernel, public name-based function) for each gain.
    KERNELS = [
        (functools.partial(met._fig1_kernel, met._measurement_info), met.fig1_measurement_info),
        (functools.partial(met._fig1_kernel, met._binary_info), met.fig1_binary_info),
        (functools.partial(met._fig1_kernel, met._error_probability), met.fig1_error_probability),
    ]

    @staticmethod
    def two_branch_sin_theta(strategy, omega_t):
        """|sin theta| with both probes' formulas evaluated on every element."""
        half = omega_t / 2.0
        return np.where(
            np.asarray(strategy) == met.ENTANGLED,
            np.abs(np.sin(omega_t)),
            np.abs(np.sin(half)) * np.sqrt(1.0 + np.square(np.cos(half))),
        )

    @pytest.mark.parametrize("t", [0.7, np.array(2.5), np.linspace(1e-8, 40.0, 257)])
    @pytest.mark.parametrize("probe, entangled", [(met.ENTANGLED, True), (met.PRODUCT, False)])
    def test_one_probe_kernels_equal_the_public_path(self, probe, entangled, t):
        t = np.asarray(t, dtype=float)
        for gamma in (1e-3, 0.3, 50.0):
            for kernel, public in self.KERNELS:
                np.testing.assert_array_equal(
                    kernel(entangled, gamma, 1.0, t), public(probe, gamma, 1.0, t)
                )
        np.testing.assert_array_equal(
            met._sin_theta(entangled, t), self.two_branch_sin_theta(probe, t)
        )

    @pytest.mark.parametrize("m", [1, 64])
    def test_mixed_batch_kernels_equal_the_public_path(self, m, rng):
        # The refinement's batch: (m, log-ratio, probe) times against (log-ratio, probe) ratios.
        strategy, gamma = np.broadcast_arrays(
            [met.ENTANGLED, met.PRODUCT], np.geomspace(0.05, 2.0, 7)[:, None]
        )
        t = rng.uniform(0.0, 4 * math.pi, (m, 7, 2))
        entangled = met._entangled(strategy)
        for kernel, public in self.KERNELS:
            np.testing.assert_array_equal(
                kernel(entangled, gamma, 1.0, t), public(strategy, gamma, 1.0, t)
            )
        np.testing.assert_array_equal(
            met._sin_theta(entangled, t), self.two_branch_sin_theta(strategy, t)
        )

    def test_one_probe_names_keep_their_broadcast_shape(self):
        for probe in (met.ENTANGLED, met.PRODUCT):
            assert met.fig1_sin_theta([probe] * 3, 0.5).shape == (3,)
            assert met.fig1_measurement_info([probe] * 3, 0.3, 1.0, 0.5).shape == (3,)

    def test_only_the_public_wrappers_check_probe_names(self, monkeypatch):
        # The searches take each probe as a flag: no name reaches them to be checked.
        checks = self.count_calls(monkeypatch, "_entangled")
        met.figure1_curve(np.geomspace(0.01, 10.0, 25), grid=64)
        met.figure1_point(0.3, grid=64)
        assert checks == []
        for fig1 in (met.fig1_measurement_info, met.fig1_binary_info, met.fig1_error_probability):
            with pytest.raises(ValueError, match="unknown strategy"):
                fig1("bell", 0.3, 1.0, 0.5)
        assert len(checks) == 3


class TestFirstRiseSearch:
    """Each figure1 search runs on its probe's first rise, where every objective has
    one lobe, so every grid finds the same optimum."""

    # (objective of (e, s), sign) for each column family, as figure1_points searches them.
    COLUMNS = [(met._measurement_info, -1.0), (met._binary_info, -1.0),
               (met._error_probability, 1.0)]
    MP_RATIOS = [1e-4, 1e-3, 1e-2, 0.2, 1.0, 10.0, 1e2, 1e3, 1e4]

    @staticmethod
    def mp_optima(strategy, ratio):
        """(t*, measurement information at t*, e s at its own optimum) in 40-digit
        arithmetic: each is the root of the derivative on the first rise of s."""
        gamma = mpmath.mpf(ratio)

        def e_s(t):
            if strategy == met.ENTANGLED:
                s = mpmath.sin(t)
            else:
                s = mpmath.sin(t / 2) * mpmath.sqrt(1 + mpmath.cos(t / 2) ** 2)
            return mpmath.exp(-gamma * t), s

        def xlog2x(p):
            return p * mpmath.log(p, 2) if p > 0 else mpmath.mpf(0)

        def info(t):
            e, s = e_s(t)
            return (xlog2x(e * (1 + s) / 2 + (1 - e) / 4) + xlog2x(e * (1 - s) / 2 + (1 - e) / 4)
                    - 2 * xlog2x((1 + e) / 4))

        def u(t):
            e, s = e_s(t)
            return e * s

        half_period = mpmath.pi / 2 if strategy == met.ENTANGLED else mpmath.pi
        window = min(half_period, 10 / max(gamma, 1))

        def argmax(f):  # the derivative is positive near 0 and negative at the window's end
            return mpmath.findroot(lambda t: mpmath.diff(f, t), (window * 1e-6, window),
                                   solver="illinois")

        t_info = argmax(info)
        return t_info, info(t_info), u(argmax(u))

    @pytest.mark.parametrize("ratio", MP_RATIOS)
    def test_columns_match_40_digit_optima(self, ratio):
        row = met.figure1_point(ratio)
        for probe, suffix in ((met.ENTANGLED, "ent"), (met.PRODUCT, "prod")):
            with mpmath.workdps(40):
                t_star, info, u = self.mp_optima(probe, ratio)
                p_err = (1 - u) / 2
                binary = 1 + p_err * mpmath.log(p_err, 2) + (1 - p_err) * mpmath.log(1 - p_err, 2)
            # The searches stop at 1e-9 relative in tau = t max(gamma, 1); the information is
            # flat at its optimum, so its error is quadratic in t's and the columns round only.
            assert getattr(row, "t_star_" + suffix) == pytest.approx(float(t_star), rel=1e-7,
                                                                     abs=0.0)
            assert getattr(row, "info_" + suffix) == pytest.approx(float(info), rel=1e-14,
                                                                   abs=0.0)
            assert getattr(row, f"info_{suffix}_binary") == pytest.approx(
                float(binary), rel=1e-14, abs=0.0)
            # p = (1 - e s) / 2 is formed from e and s, each good to an ulp or two, so its error
            # is a few ulps of 1/2; relative to p it is 1e-12 where p is 8e-5 (ratio 1e-4).
            assert getattr(row, "p_err_" + suffix) == pytest.approx(float(p_err), rel=0.0,
                                                                    abs=2.0**-51)

    @staticmethod
    @functools.cache
    def curve_peak(grid):
        result = met.figure1_curve(np.logspace(-2, 1, 200), grid)
        return result.peak_ratio, result.peak_bits

    @pytest.mark.parametrize("grid", range(1, 9))
    def test_every_grid_finds_the_peak_of_the_finest(self, grid):
        ratio, bits = self.curve_peak(grid)
        reference_ratio, reference_bits = self.curve_peak(4096)
        # Each refinement stops within 1e-7 * max(1, |log ratio|) of the peak in log-ratio,
        # where delta_bits is flat: it then differs by rounding only.
        assert abs(math.log(ratio / reference_ratio)) <= 2e-7 * max(1.0, abs(math.log(ratio)))
        assert bits == pytest.approx(reference_bits, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("probe", [met.ENTANGLED, met.PRODUCT])
    @pytest.mark.parametrize("objective, sign", COLUMNS)
    def test_each_objective_changes_slope_at_most_once_on_its_window(self, objective, sign,
                                                                      probe):
        ratios = np.logspace(-12, 12, 97)
        entangled = probe == met.ENTANGLED
        t = met._fig1_window(entangled, ratios) * (np.arange(1, 4097) / 4096)[:, None]
        values = sign * met._fig1_kernel(objective, entangled, ratios, 1.0, t)
        steps = np.diff(values, axis=0)
        # Steps within rounding of the row's largest value count as neither.
        rounding = 1e-14 * np.max(np.abs(values), axis=0)
        for j in range(ratios.size):
            signs = np.sign(steps[:, j])[np.abs(steps[:, j]) > rounding[j]]
            # A minimum of sign * objective: falling, then rising, never falling again.
            assert np.all(np.diff(signs) >= 0), ratios[j]
