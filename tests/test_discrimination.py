import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdlab import discrimination as disc
from qdlab import dynamics, qmath, tolerances
from qdlab.dynamics import FieldHamiltonian, NoiseKind, NoiseModel
from qdlab.errors import NoDiscriminationError
from conftest import eig_unitary, random_density, random_hermitian, random_state, random_unitary


def pure(psi):
    return np.outer(psi, psi.conj())


def binary_gain(p_error):
    """1 - H2(p_error) bits, the gain of a symmetric binary channel."""
    return float(disc.two_outcome_gain(0.5, abs(1.0 - 2.0 * p_error)))


def grid_measurement_error(rho1, rho2, p1, p2, axes):
    """Best achievable error over projective measurements along given Bloch
    axes: sum over outcomes of min_i p_i P(outcome | i)."""
    P1 = qmath.density_to_bloch(rho1)
    P2 = qmath.density_to_bloch(rho2)
    up1 = 0.5 * (1 + axes @ P1)
    up2 = 0.5 * (1 + axes @ P2)
    err_up = np.minimum(p1 * up1, p2 * up2)
    err_dn = np.minimum(p1 * (1 - up1), p2 * (1 - up2))
    return float(np.min(err_up + err_dn))


def spy_eigendecompositions(monkeypatch):
    """Record the name of every numpy eigendecomposition called from now on."""
    called = []

    def spy(name, routine):
        def spied(*args, **kwargs):
            called.append(name)
            return routine(*args, **kwargs)
        return spied

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    return called


def fibonacci_sphere(n):
    k = np.arange(n)
    phi = math.pi * (3.0 - math.sqrt(5.0))
    z = 1.0 - 2.0 * (k + 0.5) / n
    r = np.sqrt(1 - z**2)
    return np.column_stack([r * np.cos(phi * k), r * np.sin(phi * k), z])


class TestHelstrom:
    def test_orthogonal_pure_states(self):
        _, p_err = disc.helstrom(np.diag([1.0, 0]), np.diag([0, 1.0]))
        assert p_err == pytest.approx(0.0, abs=1e-14)

    def test_identical_states(self, rng):
        rho = random_density(rng, 3)
        _, p_err = disc.helstrom(rho, rho)
        assert p_err == pytest.approx(0.5, abs=1e-12)

    def test_pure_state_formula_and_grid(self, rng):
        axes = fibonacci_sphere(10**4)
        for _ in range(5):
            psi1 = random_state(rng, 2)
            psi2 = random_state(rng, 2)
            c = abs(np.vdot(psi1, psi2))
            _, p_err = disc.helstrom(pure(psi1), pure(psi2))
            expected = 0.5 * (1 - math.sqrt(1 - c**2))
            assert p_err == pytest.approx(expected, abs=1e-10)
            grid_best = grid_measurement_error(pure(psi1), pure(psi2), 0.5, 0.5, axes)
            assert p_err <= grid_best + 1e-4
            assert grid_best - p_err < 1e-4

    def test_swap_symmetry_and_unitary_invariance(self, rng):
        rho1, rho2 = random_density(rng, 3), random_density(rng, 3)
        _, a = disc.helstrom(rho1, rho2)
        _, b = disc.helstrom(rho2, rho1)
        assert a == pytest.approx(b, abs=1e-10)
        V = random_unitary(rng, 3)
        _, c = disc.helstrom(V @ rho1 @ V.conj().T, V @ rho2 @ V.conj().T)
        assert a == pytest.approx(c, abs=1e-10)

    def test_beats_random_projective_measurements(self, rng):
        for _ in range(10):
            rho1, rho2 = random_density(rng, 2), random_density(rng, 2)
            _, p_err = disc.helstrom(rho1, rho2)
            axes = rng.normal(size=(1000, 3))
            axes /= np.linalg.norm(axes, axis=1, keepdims=True)
            assert p_err <= grid_measurement_error(rho1, rho2, 0.5, 0.5, axes) + 1e-12

    def test_error_is_half_minus_half_trace_norm(self, rng):
        for dim in (2, 3, 4):
            rho1, rho2 = random_density(rng, dim), random_density(rng, dim)
            _, p_err = disc.helstrom(rho1, rho2)
            trace_norm = np.sum(np.abs(np.linalg.eigvalsh(0.5 * rho1 - 0.5 * rho2)))
            assert p_err == pytest.approx(0.5 - 0.5 * trace_norm, abs=1e-12)

    def test_measurement_attains_reported_error(self, rng):
        for dim in (2, 3, 5):
            rho1, rho2 = random_density(rng, dim), random_density(rng, dim)
            E, p_err = disc.helstrom(rho1, rho2)
            achieved = 0.5 * np.trace((np.eye(dim) - E) @ rho1) + 0.5 * np.trace(E @ rho2)
            assert achieved.real == pytest.approx(p_err, abs=1e-12)

    def test_one_eigendecomposition_per_call(self, rng, monkeypatch):
        # The element projects onto rho1 / 2 - rho2 / 2's positive eigenspace: a
        # projector by construction, which no second decomposition rechecks.
        states = [(random_density(rng, dim), random_density(rng, dim)) for dim in (2, 3, 5)]
        called = spy_eigendecompositions(monkeypatch)
        results = [disc.helstrom(rho1, rho2) for rho1, rho2 in states]
        assert called == ["eigh"] * 3
        for E, _ in results:
            assert np.allclose(E @ E, E, atol=1e-12) and np.allclose(E, E.conj().T, atol=1e-12)

    def test_commuting_states_closed_form(self, rng):
        # Diagonal states: the best guess per outcome i errs by min(a_i, b_i) / 2.
        a, b = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        _, p_err = disc.helstrom(np.diag(a), np.diag(b))
        assert p_err == pytest.approx(np.sum(np.minimum(0.5 * a, 0.5 * b)), abs=1e-12)

    def test_trace_distance_triangle_inequality(self, rng):
        # With equal priors 1 - 2 p_error is the trace distance, a metric.
        def distance(r, s):
            return 1.0 - 2.0 * disc.helstrom(r, s)[1]

        for _ in range(20):
            r1, r2, r3 = (random_density(rng, 3) for _ in range(3))
            assert distance(r1, r3) <= distance(r1, r2) + distance(r2, r3) + 1e-12

    def test_depolarizing_never_lowers_the_error(self, rng):
        # Data processing: one channel applied to both states cannot help.
        H = random_hermitian(rng, 3)
        for _ in range(10):
            rho1, rho2 = random_density(rng, 3), random_density(rng, 3)
            before = disc.helstrom(rho1, rho2)[1]
            after = disc.helstrom(
                dynamics.evolve_symmetric(rho1, H, 0.7, 0.5),
                dynamics.evolve_symmetric(rho2, H, 0.7, 0.5),
            )[1]
            assert after >= before - 1e-12

    def test_rejects_mismatched_dimensions(self, rng):
        with pytest.raises(ValueError, match="state dimensions do not match"):
            disc.helstrom(random_density(rng, 2), random_density(rng, 3))


class TestDiscriminateSuperops:
    def _args(self, omega, gamma):
        """The trivial and the field generator, and their depolarizing noise."""
        return (np.zeros((2, 2)), FieldHamiltonian(omega)), NoiseModel(
            NoiseKind.QUBIT_DEPOLARIZING, gamma)

    def test_trivial_vs_field_formula(self):
        omega, gamma = 1.3, 0.4
        for t in (0.3, 1.0, 2.7):
            res = disc.discriminate_superops(*self._args(omega, gamma), qmath.KET_PLUS, t)
            expected = 0.5 - 0.5 * math.exp(-gamma * t) * abs(math.sin(omega * t / 2))
            assert res.p_error == pytest.approx(expected, abs=1e-12)

    def test_identical_hypotheses(self):
        noise = NoiseModel(NoiseKind.QUBIT_DEPOLARIZING, 0.2)
        generators = (FieldHamiltonian(1.0), FieldHamiltonian(1.0))
        res = disc.discriminate_superops(generators, noise, qmath.KET_PLUS, 1.0)
        assert res.p_error == pytest.approx(0.5, abs=1e-12)
        assert res.info_bits == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_half_turn_is_perfect(self):
        omega = 2.0
        res = disc.discriminate_superops(*self._args(omega, 0.0), qmath.KET_PLUS, math.pi / omega)
        assert res.p_error == pytest.approx(0.0, abs=1e-12)
        assert res.info_bits == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_case_info_equals_binary_gain(self):
        # Equal-length Bloch vectors give a symmetric channel, where the
        # joint-distribution information reduces to 1 - H2(p_error).
        res = disc.discriminate_superops(*self._args(1.1, 0.3), qmath.KET_PLUS, 0.9)
        assert res.info_bits == pytest.approx(binary_gain(res.p_error), abs=1e-12)

    def test_requires_two_hypotheses(self):
        with pytest.raises(ValueError):
            generators = (np.zeros((2, 2)),) * 3
            disc.discriminate_superops(generators, NoiseModel(), qmath.KET_PLUS, 1.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            disc.discriminate_superops(*self._args(1.0, 0.1), qmath.KET_PLUS, -0.5)


class TestGoldenMinimize:
    @pytest.mark.parametrize(
        "fn, a, b, x_star, rel_tol",
        [
            (lambda x: abs(x - 1.3), 0.0, 4.0, 1.3, 1e-9),
            (lambda x: (x + 2.5) ** 2, -4.0, -1.0, -2.5, 1e-7),
        ],
    )
    def test_finds_minimizer_to_rel_tol(self, fn, a, b, x_star, rel_tol):
        x = disc.golden_minimize(fn, a, b, rel_tol)
        assert abs(x - x_star) <= rel_tol * max(1.0, abs(b))

    @staticmethod
    def scalar_golden(fn, a, b, rel_tol):
        """The one-row loop the batched search must reproduce row by row."""
        if (b - a) <= rel_tol * max(1.0, abs(b)):
            return (a + b) / 2  # narrow already: no call
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = fn(c), fn(d)
        while (b - a) > rel_tol * max(1.0, abs(b)):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = fn(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = fn(d)
        return (a + b) / 2

    @staticmethod
    def objective(kind, x, m, k, q):
        """A kinked bowl, a flat-bottomed bowl or a staircase. The last two tie
        fc == fd on whole intervals, where a search must walk right."""
        if kind == "kink":
            return (x - m) * (x - m) + k * np.abs(x - m)
        if kind == "plateau":
            return np.maximum(np.abs(x - m) - q, 0.0)
        return np.floor(np.abs(x - m) / q)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        rows=st.lists(
            st.tuples(
                st.floats(-50.0, 50.0),  # bracket start
                st.floats(1e-3, 100.0),  # bracket width
                st.floats(-0.2, 1.2),  # minimizer position, relative to the bracket
                st.floats(0.0, 5.0),  # weight of the kink at the minimizer
                st.floats(1e-3, 50.0),  # plateau half-width or stair height
            ),
            min_size=1,
            max_size=8,
        ),
        kind=st.sampled_from(["kink", "plateau", "step"]),
        zero_d=st.booleans(),
        rel_tol=st.sampled_from([1e-3, 1e-7, 1e-9]),
    )
    def test_batch_rows_follow_the_scalar_loop(self, rows, kind, zero_d, rel_tol):
        rows = rows[:1] if zero_d else rows
        a, width, pos, k, q = (np.array([r[j] for r in rows]) for j in range(5))
        b = a + width
        m = a + (b - a) * pos
        if zero_d:  # scalar ends give a 0-d batch
            a, b, m, k, q = (v[0] for v in (a, b, m, k, q))
        points = []

        def fn(x):
            points.append(np.array(x))
            return self.objective(kind, x, m, k, q)

        x = disc.golden_minimize(fn, a, b, rel_tol)
        assert np.shape(x) == np.shape(a)
        # The two first points, then one call per step, each on the whole batch;
        # no call when every row is narrow already.
        assert all(np.shape(p) == np.shape(a) for p in points)
        batch_points = np.reshape(points, (len(points), np.size(a)))
        longest = 0
        for i in range(len(rows)):
            ai, bi, mi, ki, qi = (float(np.ravel(v)[i]) for v in (a, b, m, k, q))
            row_points = []

            def fn_i(x):
                row_points.append(x)
                return self.objective(kind, x, mi, ki, qi)

            xi = self.scalar_golden(fn_i, ai, bi, rel_tol)
            assert np.ravel(x)[i].tobytes() == np.float64(xi).tobytes()
            # While the row is active, the batch evaluates it where a one-row
            # search does, bit for bit.
            assert batch_points[: len(row_points), i].tobytes() == np.array(row_points).tobytes()
            longest = max(longest, len(row_points))
        assert len(points) == longest

    @pytest.mark.parametrize("a, b", [(0.0, 1e-3), ([0.0, 5.0, -7.0], [1e-3, 5.0 + 4e-3, -7.0])],
                             ids=["0-d", "batch"])
    def test_brackets_narrow_already_make_no_call(self, a, b):
        # Each width is at most 1e-3 * max(1, |b|).
        calls = []
        x = disc.golden_minimize(calls.append, a, b, 1e-3)
        assert calls == []
        assert np.shape(x) == np.shape(a)
        np.testing.assert_array_equal(x, (np.asarray(a) + np.asarray(b)) / 2)

    @pytest.mark.parametrize(
        "a, b",
        [(3.0, 1.0), ([0.0, 2.0], [1.0, 1.0]), (0.0, math.inf), (-math.inf, 1.0),
         (math.nan, 1.0), (-1e308, 1e308)],
        ids=["reversed", "one-row-reversed", "inf-end", "minus-inf-end", "nan-end",
             "width-overflows"],
    )
    def test_refuses_a_bracket_that_is_not_finite_and_ordered(self, a, b):
        calls = []
        # Ends of +/-1e308 overflow the width (a numpy warning), then are refused.
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite brackets"):
            disc.golden_minimize(calls.append, a, b, 1e-9)
        assert calls == []

    @pytest.mark.parametrize("rel_tol", [0.0, -1.0, 1e-16, 1e-17, math.nan])
    def test_refuses_a_rel_tol_below_the_floor(self, rel_tol):
        calls = []
        with pytest.raises(ValueError, match="rel_tol must be at least 1e-15"):
            disc.golden_minimize(calls.append, 1.0, 3.0, rel_tol)
        assert calls == []

    def test_the_floor_rel_tol_ends_on_random_brackets(self):
        rng = np.random.default_rng(37)
        scale = 10.0 ** rng.uniform(-3.0, 8.0, 2000)
        a = rng.uniform(-1.0, 1.0, 2000) * scale
        b = a + scale * 10.0 ** rng.uniform(-6.0, 0.3, 2000)
        # A quarter of the brackets straddle a power of two, where the ulp doubles.
        p = 2.0 ** rng.integers(-5, 27, 500) * rng.choice([-1.0, 1.0], 500)
        a[:500], b[:500] = p - np.abs(p) * 5e-9, p + np.abs(p) * 5e-9
        m = a + (b - a) * rng.uniform(-0.2, 1.2, 2000)
        calls = []

        def fn(x):
            calls.append(x)
            if len(calls) > 400:  # a stalled search fails here instead of hanging
                raise RuntimeError("the search did not end")
            return np.abs(x - m) + (x - m) * (x - m)

        x = disc.golden_minimize(fn, a, b, tolerances.GOLDEN_REL_TOL)
        assert np.all((a <= x) & (x <= b))


class TestGridGoldenMinimize:
    def test_scan_never_exceeds_the_element_budget(self):
        # 400 rows on a 2048-point grid would be 819,200 times in one array.
        centers = np.linspace(0.5, 9.5, 400)
        sizes = []

        def fn(t):
            sizes.append(t.size)
            return (t - centers) ** 2

        t, _ = disc.grid_golden_minimize(fn, 10.0 * np.ones(400), grid_points=2048)
        assert max(sizes) <= disc._SCAN_ELEMS
        np.testing.assert_allclose(t, centers, rtol=1e-6)

    def test_scalar_t_max_scans_a_1d_grid_and_refines_on_0d_times(self):
        shapes = []

        def fn(t):
            shapes.append(np.shape(t))
            return (t - 1.0) ** 2

        t, _ = disc.grid_golden_minimize(fn, 3.0, grid_points=64)
        assert shapes[0] == (64,)
        assert set(shapes[1:]) == {()}
        assert t == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("grid_points", range(1, 9))
    def test_a_minimum_below_the_first_grid_time_is_found_at_every_grid(self, grid_points):
        # The best grid time is the first, t_max / grid_points, and the bracket
        # [0, 2 t_max / grid_points] (all of (0, t_max] at one point) holds the minimum.
        t, value = disc.grid_golden_minimize(lambda t: (t - 0.01) ** 2, 1.0, grid_points)
        assert t == pytest.approx(0.01, abs=1e-9)  # golden-section's 1e-9 * max(1, |b|)
        assert value == (t - 0.01) ** 2

    def test_a_smooth_minimum_takes_one_parabolic_step(self, monkeypatch):
        tols, golden = [], disc.golden_minimize

        def spy(fn, a, b, rel_tol):
            tols.append(rel_tol)
            return golden(fn, a, b, rel_tol)

        monkeypatch.setattr(disc, "golden_minimize", spy)
        t, value = disc.grid_golden_minimize(lambda t: -np.exp(-0.7 * t) * np.sin(t), 3.0, 64)
        assert tols == [disc._FINISH_TOL]  # no golden section below it
        # The optimum of e^{-0.7 t} sin t is at tan t = 1 / 0.7.
        assert t == pytest.approx(math.atan(1.0 / 0.7), rel=1e-10, abs=0.0)
        assert value == -np.exp(-0.7 * t) * np.sin(t)

    # (objective on (0, 1], whether a time lies within 1e-9 of one of its minimizers), for
    # objectives that the parabola through x - h, x, x + h does not model to 1e-9.
    FALLBACKS = {
        "kink": (lambda t: np.maximum(1 / 3 - t, 3.0 * (t - 1 / 3)),
                 lambda t: abs(t - 1 / 3) <= 1e-9),
        "plateau": (lambda t: np.maximum(np.abs(t - 0.4) - 0.1, 0.0),
                    lambda t: 0.3 - 1e-9 <= t <= 0.5 + 1e-9),
        "constant": (lambda t: np.full(np.shape(t), 2.0), lambda t: True),
        # Exactly 0.0 on an interval around 0.6 (|t - 0.6| < 3.4e-4), where every time is a
        # minimizer of the computed objective; so one of t and t +/- 1e-9 lies in it.
        "underflow": (lambda t: np.exp(-1.0 / (np.abs(t - 0.6) + 1e-3)),
                      lambda t: np.exp(-1.0 / (np.abs(t + np.array([-1e-9, 0.0, 1e-9]) - 0.6)
                                              + 1e-3)).min() == 0.0),
        "decreasing at t_max": (lambda t: -t, lambda t: 1.0 - t <= 1e-9),
        "convex past t_max": (lambda t: np.square(t - 2.0), lambda t: 1.0 - t <= 1e-9),
    }

    @pytest.mark.parametrize("case", FALLBACKS)
    def test_objectives_the_parabola_does_not_model_end_within_1e_9(self, case):
        fn, near_a_minimizer = self.FALLBACKS[case]
        t, value = disc.grid_golden_minimize(fn, 1.0, 64)
        assert 0.0 < t <= 1.0
        assert near_a_minimizer(float(t))  # golden-section's 1e-9 * max(1, |b|), b <= 1
        assert value == fn(t)

    @pytest.mark.parametrize("t_max", [0.0, -1.0, math.inf, math.nan, [1.0, math.inf]])
    def test_refuses_a_window_that_is_not_positive_and_finite(self, t_max):
        with pytest.raises(ValueError, match="positive and finite"):
            disc.grid_golden_minimize(lambda t: (t - 1.0) ** 2, t_max, grid_points=8)


class TestOptimalTime:
    def test_undamped_limit(self):
        assert disc.optimal_time_qubit(2.0, 0.0) == pytest.approx(math.pi / 2.0, abs=1e-14)
        assert disc.optimal_time_qubit(1.0, 1e-9) == pytest.approx(math.pi, rel=1e-6)

    def test_overdamped_limit(self):
        omega, gamma = 1.0, 300.0
        assert disc.optimal_time_qubit(omega, gamma) == pytest.approx(1.0 / gamma, rel=1e-4)

    @pytest.mark.parametrize("omega", [1e-308, 5e-324])
    def test_the_slowest_fields_take_the_decay_time(self, omega):
        # 2 / omega overflows here, but 2 atan(omega / 2 gamma) / omega is 1 / gamma.
        assert disc.optimal_time_qubit(omega, 0.1) == 10.0

    @pytest.mark.parametrize("omega", [1e-308, 5e-324])
    def test_an_overflowing_half_turn_names_omega(self, omega):
        with pytest.raises(OverflowError, match=f"omega {omega!r}"):
            disc.optimal_time_qubit(omega, 0.0)

    def test_tan_condition_and_root_finder(self):
        omega = 1.7
        gamma = omega / 2.0
        t = disc.optimal_time_qubit(omega, gamma)
        assert t == pytest.approx(math.pi / (2 * omega), abs=1e-12)
        # Cross-check: it maximizes exp(-gamma t) sin(omega t / 2).
        t_num, _ = disc.grid_golden_minimize(
            lambda s: -(np.exp(-gamma * s) * np.sin(omega * s / 2)), 2 * math.pi / omega,
            grid_points=2048,
        )
        assert t == pytest.approx(t_num, abs=1e-6)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            disc.optimal_time_qubit(0.0, 1.0)

    @pytest.mark.parametrize(
        "omega, gamma, message",
        [(math.nan, 1.0, "omega must be positive"), (1.0, math.nan, "gamma must be nonnegative")],
    )
    def test_rejects_nan(self, omega, gamma, message):
        with pytest.raises(ValueError, match=message):
            disc.optimal_time_qubit(omega, gamma)


class TestSuperdenseProbe:
    def test_zero_time(self):
        np.testing.assert_allclose(
            disc.superdense_probe_state(np.array([0, 0, 1.0]), 0.0),
            qmath.BELL_PHI_PLUS,
            atol=1e-14,
        )

    def test_z_quarter_turn(self):
        psi = disc.superdense_probe_state(np.array([0, 0, 1.0]), math.pi / 2)
        np.testing.assert_allclose(psi, -1j * qmath.BELL_PHI_MINUS, atol=1e-12)

    def test_matches_direct_evolution(self, rng):
        for _ in range(10):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            t = rng.uniform(0, 2 * math.pi)
            direct = qmath.expm_i(
                qmath.tensor(qmath.axis_operator(a), qmath.I2), t
            ) @ qmath.BELL_PHI_PLUS
            overlap = abs(np.vdot(direct, disc.superdense_probe_state(a, t)))
            assert overlap == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(disc.superdense_probe_state(a, t), direct, atol=1e-12)

    def test_overlap_formula(self, rng):
        for _ in range(10):
            a, b = rng.normal(size=3), rng.normal(size=3)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            t = rng.uniform(0, math.pi)
            form = disc.superdense_overlap(a, b, t)
            direct = np.vdot(
                disc.superdense_probe_state(a, t), disc.superdense_probe_state(b, t)
            )
            assert abs(form - direct) < 1e-12

    def test_overlap_special_points(self):
        a = np.array([0, 0, 1.0])
        assert disc.superdense_overlap(a, a, 1.23) == pytest.approx(1.0)
        # Planar trine pair: orthogonal when cot^2 t = 1/2.
        t_trine = math.atan(math.sqrt(2.0))
        b = np.array([math.sqrt(3) / 2, 0, -0.5])
        assert abs(disc.superdense_overlap(a, b, t_trine)) < 1e-12
        # Tetrahedral pair at t = pi/3.
        c = np.array([math.sqrt(8) / 3, 0, -1.0 / 3])
        assert abs(disc.superdense_overlap(a, c, math.pi / 3)) < 1e-12


class TestTrineDiscriminate:
    def test_tetrahedron(self):
        dirs = disc.symmetric_directions(4, -1.0 / 3.0)
        res = disc.trine_discriminate(dirs)
        assert res.p_error <= 1e-10
        assert res.info_bits == pytest.approx(2.0, abs=1e-9)
        assert res.t_star == pytest.approx(math.pi / 3, abs=1e-12)

    def test_planar_trine(self):
        res = disc.trine_discriminate(disc.symmetric_directions(3, -0.5))
        assert res.p_error <= 1e-10
        assert res.info_bits == pytest.approx(math.log2(3.0), abs=1e-9)

    def test_lifted_trine(self):
        res = disc.trine_discriminate(disc.symmetric_directions(3, -0.25))
        assert res.p_error <= 1e-10
        assert res.info_bits == pytest.approx(math.log2(3.0), abs=1e-9)

    def test_orthogonal_triple(self):
        # cos_theta = 0 sits at the edge of the allowed range: the quarter
        # turn makes the probes orthogonal.
        dirs = [np.eye(3)[i] for i in range(3)]
        res = disc.trine_discriminate(dirs)
        assert res.t_star == pytest.approx(math.pi / 2, abs=1e-12)
        assert res.p_error <= 1e-10
        assert res.info_bits == pytest.approx(math.log2(3.0), abs=1e-9)

    @pytest.mark.parametrize(
        "n, cos_theta, t_star",
        [(3, -0.5, math.atan(math.sqrt(2.0))), (3, -0.25, math.atan(2.0)),
         (3, -0.1, math.atan(math.sqrt(10.0))), (3, 0.0, math.pi / 2),
         (4, -1.0 / 3.0, math.pi / 3)],
    )
    def test_time_is_closed_form(self, n, cos_theta, t_star):
        dirs = disc.symmetric_directions(n, cos_theta)
        res = disc.trine_discriminate(dirs)
        assert res.t_star == pytest.approx(t_star, abs=1e-12)
        # The pairwise overlap vanishes there, so no time in the quarter period does better.
        ts = np.linspace(1e-6, math.pi / 2, 10**4)
        best = np.abs(disc.superdense_overlap(dirs[0], dirs[1], ts)).min()
        at_star = abs(disc.superdense_overlap(dirs[0], dirs[1], res.t_star))
        assert at_star <= 1e-12 and at_star <= best + 1e-12

    @pytest.mark.parametrize("n, cos_theta", [(3, -0.5), (3, -0.25), (4, -1.0 / 3.0)])
    def test_needs_no_eigendecomposition(self, n, cos_theta, monkeypatch):
        # Outcome k is the evolved state k itself: three directions leave one
        # basis vector unused, and nothing has to complete the basis.
        dirs = disc.symmetric_directions(n, cos_theta)
        called = spy_eigendecompositions(monkeypatch)
        res = disc.trine_discriminate(dirs)
        assert called == []
        assert res.info_bits == pytest.approx(math.log2(n), abs=1e-9)

    def test_grid_minimum_confirms_two_direction_case(self):
        # Two axes sixty degrees apart: the overlap cos^2 t + 1/2 sin^2 t never drops below 1/2.
        a, b = np.array([0.5, 0, math.sqrt(3) / 2]), np.array([-0.5, 0, math.sqrt(3) / 2])
        ts = np.linspace(1e-6, math.pi / 2, 10**4)
        overlaps = [abs(disc.superdense_overlap(a, b, t)) for t in ts]
        assert min(overlaps) == pytest.approx(0.5, abs=1e-6)

    def test_rejects_asymmetric_directions(self):
        dirs = [
            np.array([0, 0, 1.0]),
            np.array([1.0, 0, 0]),
            np.array([math.sqrt(1 - 0.49), 0, -0.7]),
        ]
        with pytest.raises(ValueError):
            disc.trine_discriminate(dirs)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_rejects_direction_counts_other_than_three_or_four(self, n):
        with pytest.raises(ValueError, match="supported direction counts are 3, 4"):
            disc.symmetric_directions(n, 0.5)
        with pytest.raises(ValueError, match="supported direction counts are 3, 4"):
            disc.trine_discriminate([np.eye(3)[k % 3] for k in range(n)])

    def test_rejects_positive_cos_theta_trine(self):
        with pytest.raises(ValueError):
            disc.trine_discriminate(disc.symmetric_directions(3, 0.3))
        # Outside [-1/2, 1] no three such vectors exist.
        for cos_theta in [2.0, -0.6, math.nan]:
            with pytest.raises(ValueError, match="cos_theta"):
                disc.symmetric_directions(3, cos_theta)
        for cos_theta in [-0.5, 1.0]:
            dirs = disc.symmetric_directions(3, cos_theta)
            assert dirs[0] @ dirs[1] == pytest.approx(cos_theta, abs=1e-12)


class TestUnitAxes:
    """Every axis input goes through `qmath.check_axis`, at one tolerance."""

    Z = np.array([0.0, 0.0, 1.0])
    CALLERS = {
        "axis_operator": qmath.axis_operator,
        "FieldHamiltonian": lambda a: FieldHamiltonian(1.0, a),
        "superdense_probe_state": lambda a: disc.superdense_probe_state(a, 0.3),
        "superdense_overlap first": lambda a: disc.superdense_overlap(a, TestUnitAxes.Z, 0.3),
        "superdense_overlap second": lambda a: disc.superdense_overlap(TestUnitAxes.Z, a, 0.3),
        "trine_discriminate": lambda a: disc.trine_discriminate(
            [a] + disc.symmetric_directions(3, -0.5)[1:]),
    }

    @pytest.mark.parametrize("caller", CALLERS.values(), ids=CALLERS.keys())
    def test_near_unit_vector_is_refused_alike(self, caller):
        unit = disc.symmetric_directions(3, -0.5)[0]
        caller(unit)
        off = unit * (1.0 + 5e-11)
        assert np.linalg.norm(off) - 1.0 == pytest.approx(5e-11, rel=1e-3)
        for bad in (off, [math.nan, 0.0, 1.0], [0.0, 1.0]):
            with pytest.raises(ValueError, match="axis must be a unit 3-vector"):
                caller(bad)


class TestCancellation:
    def test_projector_pair(self):
        H1 = np.diag([1.0, 0.0]).astype(complex)
        H2 = np.diag([0.0, 1.0]).astype(complex)
        drive, psi0, t_star = disc.cancellation_strategy(H1, H2)
        np.testing.assert_allclose(drive, -H2, atol=1e-14)
        assert t_star == pytest.approx(math.pi / 2, abs=1e-12)
        # The uniform-projector drive needs a factor sqrt(2) longer.
        from qdlab.search import GroverInstance

        ratio = GroverInstance(dim=2, marked=0, energy=1.0).flop_time / t_star
        assert ratio == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_opposite_fields(self):
        omega = 1.4
        H = FieldHamiltonian(omega).matrix()
        _, _, t_star = disc.cancellation_strategy(H, -H)
        assert t_star == pytest.approx(math.pi / (2 * omega), abs=1e-12)

    def test_probe_reaches_orthogonal_state(self, rng):
        H1, H2 = random_hermitian(rng, 4), random_hermitian(rng, 4)
        _, psi0, t_star = disc.cancellation_strategy(H1, H2)
        evolved = qmath.expm_i(H1 - H2, t_star) @ psi0
        assert abs(np.vdot(psi0, evolved)) < 1e-10

    def test_identical_hamiltonians_rejected(self, rng):
        H = random_hermitian(rng, 3)
        with pytest.raises(NoDiscriminationError):
            disc.cancellation_strategy(H, H.copy())

    @pytest.mark.parametrize("shape", [(1,), (5,), (2, 3)])
    def test_stack_equals_one_pair_at_a_time(self, rng, shape):
        H1, H2 = (np.array([random_hermitian(rng, 3) for _ in range(math.prod(shape))])
                  .reshape(*shape, 3, 3) for _ in range(2))
        drive, psi0, t_star = disc.cancellation_strategy(H1, H2)
        assert drive.shape == H1.shape and psi0.shape == (*shape, 3) and t_star.shape == shape
        for k in np.ndindex(shape):
            want_drive, want_psi0, want_t = disc.cancellation_strategy(H1[k], H2[k])
            assert np.array_equal(drive[k], want_drive) and np.array_equal(psi0[k], want_psi0)
            assert t_star[k] == want_t

    def test_one_coinciding_pair_rejects_the_stack(self, rng):
        H1 = np.array([random_hermitian(rng, 3) for _ in range(4)])
        H2 = np.array([random_hermitian(rng, 3) for _ in range(4)])
        H2[2] = H1[2]
        with pytest.raises(NoDiscriminationError, match="the two Hamiltonians coincide"):
            disc.cancellation_strategy(H1, H2)


class TestFixedTimeOverlap:
    def test_undriven_closed_form(self, rng):
        H = random_hermitian(rng, 4)
        w = np.linalg.eigvalsh(H)
        gap = w[-1] - w[0]
        t = 0.8 * math.pi / gap
        overlap = disc.fixed_time_overlap(H, np.zeros_like(H), t)
        assert overlap == pytest.approx(math.cos(t * gap / 2), abs=1e-10)

    def test_half_turn_vanishes(self, rng):
        H = random_hermitian(rng, 3)
        w = np.linalg.eigvalsh(H)
        t = math.pi / (w[-1] - w[0])
        overlap = disc.fixed_time_overlap(H, np.zeros_like(H), t)
        assert overlap <= 1e-8

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
    def test_rejects_time_that_is_not_positive(self, t):
        with pytest.raises(ValueError, match="t must be positive"):
            disc.fixed_time_overlap(np.eye(2), np.zeros((2, 2)), t)

    @pytest.mark.parametrize("case", ["random", "scalar", "tiny", "repeated", "one-dim"])
    def test_probe_attains_reported_overlap(self, rng, case):
        H, K = random_hermitian(rng, 4), random_hermitian(rng, 4)
        H *= 1.2 / np.max(np.abs(np.linalg.eigvalsh(H)))
        if case == "scalar":  # W is exactly a multiple of the identity
            H, K = 0.7 * np.eye(4), np.zeros((4, 4))
        elif case == "tiny":  # every eigenvalue of W within 1e-9 of 1
            H *= 1e-9
        elif case == "repeated":  # W has a repeated extremal eigenvalue
            V = random_unitary(rng, 4)
            H, K = (V * [-1.2, -1.2, 0.4, 1.2]) @ V.conj().T, np.zeros((4, 4))
        elif case == "one-dim":  # one eigenvector is both extremes
            H, K = np.array([[0.3]]), np.array([[-1.1]])
        overlap = disc.fixed_time_overlap(H, K, 1.0)
        # The probe: the equal superposition of W's extremal-argument eigenvectors.
        _, V = eig_unitary(qmath.expm_i(K, -1.0) @ qmath.expm_i(H + K, 1.0))
        psi0 = (V[:, 0] + V[:, -1]) / math.sqrt(2.0) if len(V) > 1 else V[:, 0]
        assert np.linalg.norm(psi0) == pytest.approx(1.0, abs=1e-12)
        attained = abs(
            np.vdot(qmath.expm_i(K, 1.0) @ psi0, qmath.expm_i(H + K, 1.0) @ psi0)
        )
        assert attained == pytest.approx(overlap, abs=1e-10)

    @pytest.mark.parametrize("seed", [3, 7, 1234567890])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8, 16, 32, 64, 128])
    def test_equals_the_eig_route_bit_for_bit(self, dim, seed):
        # Two exponentials, W's `eig` spectrum folded and sorted, then cos(arc/2):
        # the overlap must not depend on the eigenvalue routine or the stacking.
        rng = np.random.default_rng(seed)
        for _ in range(max(2, 64 // dim)):
            H = random_hermitian(rng, dim) * rng.uniform(0.0, 2.0)
            K = random_hermitian(rng, dim) * rng.uniform(0.0, 4.0)
            for drive in (K, np.zeros_like(K)):
                t = rng.uniform(0.1, 2.0)
                args, _ = eig_unitary(qmath.expm_i(drive, -t) @ qmath.expm_i(H + drive, t))
                arc = float(args[-1] - args[0])
                want = 0.0 if arc >= math.pi else float(math.cos(arc / 2.0))
                got = disc.fixed_time_overlap(H, drive, t)
                assert type(got) is float and got == want

    def test_sweep_needs_no_eigenvectors(self, monkeypatch):
        # The overlap needs W's spectrum only: no `eig` vectors and no QR.
        called = []

        def spy(name, routine):
            def spied(*args, **kwargs):
                called.append(name)
                return routine(*args, **kwargs)
            return spied

        for name in ("eig", "qr"):
            monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
        rows = disc.fixed_time_sweep(4, 1.0, 20, 7, 1.5, 5.0)
        assert len(rows) == 20 and called == []

    def test_driving_never_reduces_overlap(self, rng):
        # 100 random drives against the undriven probe, ||H|| < pi/2.
        H = random_hermitian(rng, 4)
        H *= (0.9 * math.pi / 2) / np.max(np.abs(np.linalg.eigvalsh(H)))
        base = disc.fixed_time_overlap(H, np.zeros_like(H), 1.0)
        for _ in range(100):
            K = random_hermitian(rng, 4) * rng.uniform(0, 3)
            driven = disc.fixed_time_overlap(H, K, 1.0)
            assert driven >= base - 1e-9

    def test_monotone_in_time(self, rng):
        H = random_hermitian(rng, 3)
        w = np.linalg.eigvalsh(H)
        gap = w[-1] - w[0]
        ts = np.linspace(0.05, 0.95, 19) * math.pi / gap
        overlaps = [disc.fixed_time_overlap(H, np.zeros_like(H), t) for t in ts]
        assert all(a > b for a, b in zip(overlaps, overlaps[1:]))


class TestAdaptiveEliminate:
    def _ensemble(self, rng, n, dim):
        return np.stack([random_hermitian(rng, dim) for _ in range(n)])

    def test_two_hypotheses(self, rng):
        ensemble = self._ensemble(rng, 2, 2)
        identified, count, transcript = disc.adaptive_eliminate(ensemble, 1, 7)
        assert identified == 1
        assert count == 1
        assert len(transcript) == 1

    def test_five_hypotheses(self, rng):
        ensemble = self._ensemble(rng, 5, 3)
        for true_index in range(5):
            identified, count, _ = disc.adaptive_eliminate(ensemble, true_index, 11)
            assert identified == true_index
            assert count <= 4

    def test_many_random_ensembles(self, rng):
        for trial in range(100):
            n = int(rng.integers(2, 9))
            dim = int(rng.integers(2, 5))
            ensemble = self._ensemble(rng, n, dim)
            true_index = int(rng.integers(n))
            identified, count, _ = disc.adaptive_eliminate(ensemble, true_index, trial)
            assert identified == true_index
            assert count <= n - 1

    @pytest.mark.parametrize("gens", [np.eye(2)[None], np.eye(2), np.zeros((2, 2, 3))],
                             ids=["one-generator", "2-d", "non-square"])
    def test_rejects_anything_but_two_or_more_square_generators(self, gens):
        with pytest.raises(ValueError, match="expected a stack of two or more square generators"):
            disc.adaptive_eliminate(gens, 0, 1)


class TestInfoGain:
    def test_endpoints(self):
        assert binary_gain(0.0) == pytest.approx(1.0)
        assert binary_gain(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_reference_value(self):
        assert binary_gain(0.11) == pytest.approx(0.5, abs=1e-3)
        p = 0.11
        assert binary_gain(p) == pytest.approx(
            1.0 + p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p), abs=1e-15
        )

    def test_small_gain_keeps_its_relative_precision(self):
        # The plain entropy sum returns about 1e-16 here, against 2.9e-18.
        p = 0.5 - 1e-9
        with mpmath.workdps(50):
            q = mpmath.mpf(p)
            exact = 1 + q * mpmath.log(q, 2) + (1 - q) * mpmath.log(1 - q, 2)
        assert binary_gain(p) == pytest.approx(float(exact), rel=1e-14, abs=0.0)

    def test_gain_is_linear_in_mass_and_increasing_in_u(self):
        u = np.linspace(0.0, 1.0, 1001)
        g = disc.two_outcome_gain(1.0, u)
        assert g[0] == 0.0 and g[-1] == pytest.approx(2.0, abs=1e-15)
        assert np.all(np.diff(g) > 0)
        for m in (0.1, 0.25, 0.5):
            np.testing.assert_allclose(disc.two_outcome_gain(m, u), m * g, rtol=1e-15, atol=0)

    def test_array_arguments_match_scalar_calls(self):
        m = np.array([0.5, 0.2, 0.4, 0.05])
        u = np.array([0.0, 0.3, 0.5, 1.0])
        batch = disc.two_outcome_gain(m, u)
        assert batch.shape == (4,)
        for i in range(4):
            assert batch[i] == float(disc.two_outcome_gain(float(m[i]), float(u[i])))

    @pytest.mark.parametrize("u", [0.5 - 1e-12, 0.5, 0.5 + 1e-12, 0.999999])
    def test_both_forms_match_mpmath(self, u):
        # u = 1/2 is where the evaluation switches form; 1 - 1e-6 is near the u = 1 limit.
        with mpmath.workdps(50):
            x = mpmath.mpf(u)
            exact = ((1 + x) * mpmath.log(1 + x, 2) + (1 - x) * mpmath.log(1 - x, 2)) / 2
        assert float(disc.two_outcome_gain(0.5, u)) == pytest.approx(float(exact), rel=1e-14)

    def test_mutual_information_symmetric_channel(self):
        for p in (0.0, 0.11, 0.25, 0.5):
            joint = 0.5 * np.array([[1 - p, p], [p, 1 - p]])
            assert disc.mutual_information(joint) == pytest.approx(
                binary_gain(p), abs=1e-12
            )

    @staticmethod
    def mp_mutual_information(joint):
        """I(X;Y) in bits of the float table `joint`, in 50-digit arithmetic."""
        with mpmath.workdps(50):
            p = mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in joint])
            p /= sum(p)
            px = [sum(p[i, j] for j in range(p.cols)) for i in range(p.rows)]
            py = [sum(p[i, j] for i in range(p.rows)) for j in range(p.cols)]
            return float(sum(p[i, j] * mpmath.log(p[i, j] / (px[i] * py[j]), 2)
                             for i in range(p.rows) for j in range(p.cols) if p[i, j] > 0))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_mutual_information_near_independence_matches_mpmath(self, k):
        # The plain sum of p log2(p / q) read 8.3e-17 at k = 9, against 2.9e-18.
        p = 0.5 - 10.0**-k
        joint = 0.5 * np.array([[1 - p, p], [p, 1 - p]])
        exact = self.mp_mutual_information(joint)
        assert disc.mutual_information(joint) == pytest.approx(exact, rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 4), (4, 16)])
    def test_mutual_information_of_random_tables_matches_mpmath(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(10):
            joint = rng.random(shape) ** 3
            joint[rng.random(shape) < 0.2] = 0.0  # empty cells
            exact = self.mp_mutual_information(joint)
            assert disc.mutual_information(joint) == pytest.approx(exact, rel=2e-15, abs=0.0)


class TestSampledAdaptive:
    def test_below_two_bits(self):
        dirs = disc.symmetric_directions(4, -1.0 / 3.0)
        best = disc.sampled_adaptive_two_qubit_info(dirs, rng_seed=5, samples=150)
        assert best < 2.0 - 1e-6
        assert best > 0.1  # sanity: the strategies do extract information
