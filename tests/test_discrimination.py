import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdlab import discrimination as disc
from qdlab import qmath
from qdlab.dynamics import FieldHamiltonian, NoiseKind, NoiseModel
from qdlab.errors import NoDiscriminationError, UnsupportedModelError
from conftest import random_density, random_hermitian, random_state, random_unitary


def pure(psi):
    return np.outer(psi, psi.conj())


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


def fibonacci_sphere(n):
    k = np.arange(n)
    phi = math.pi * (3.0 - math.sqrt(5.0))
    z = 1.0 - 2.0 * (k + 0.5) / n
    r = np.sqrt(1 - z**2)
    return np.column_stack([r * np.cos(phi * k), r * np.sin(phi * k), z])


class TestHelstrom:
    def test_orthogonal_pure_states(self):
        for p1 in (0.5, 0.2, 0.9):
            _, p_err = disc.helstrom(np.diag([1.0, 0]), np.diag([0, 1.0]), p1, 1 - p1)
            assert p_err == pytest.approx(0.0, abs=1e-14)

    def test_identical_states(self, rng):
        rho = random_density(rng, 3)
        for p1 in (0.5, 0.3, 0.85):
            _, p_err = disc.helstrom(rho, rho, p1, 1 - p1)
            assert p_err == pytest.approx(min(p1, 1 - p1), abs=1e-12)

    def test_pure_state_formula_and_grid(self, rng):
        axes = fibonacci_sphere(10**4)
        for _ in range(5):
            psi1 = random_state(rng, 2)
            psi2 = random_state(rng, 2)
            c = abs(np.vdot(psi1, psi2))
            povm, p_err = disc.helstrom(pure(psi1), pure(psi2))
            expected = 0.5 * (1 - math.sqrt(1 - c**2))
            assert p_err == pytest.approx(expected, abs=1e-10)
            grid_best = grid_measurement_error(pure(psi1), pure(psi2), 0.5, 0.5, axes)
            assert p_err <= grid_best + 1e-4
            assert grid_best - p_err < 1e-4

    def test_swap_symmetry_and_unitary_invariance(self, rng):
        rho1, rho2 = random_density(rng, 3), random_density(rng, 3)
        p1 = 0.37
        _, a = disc.helstrom(rho1, rho2, p1, 1 - p1)
        _, b = disc.helstrom(rho2, rho1, 1 - p1, p1)
        assert a == pytest.approx(b, abs=1e-10)
        V = random_unitary(rng, 3)
        _, c = disc.helstrom(V @ rho1 @ V.conj().T, V @ rho2 @ V.conj().T, p1, 1 - p1)
        assert a == pytest.approx(c, abs=1e-10)

    def test_beats_random_projective_measurements(self, rng):
        for _ in range(10):
            rho1, rho2 = random_density(rng, 2), random_density(rng, 2)
            _, p_err = disc.helstrom(rho1, rho2)
            axes = rng.normal(size=(1000, 3))
            axes /= np.linalg.norm(axes, axis=1, keepdims=True)
            assert p_err <= grid_measurement_error(rho1, rho2, 0.5, 0.5, axes) + 1e-12

    def test_rejects_bad_priors(self, rng):
        rho = random_density(rng, 2)
        with pytest.raises(ValueError):
            disc.helstrom(rho, rho, 0.6, 0.6)

    @pytest.mark.parametrize("priors", [(math.nan, 0.5), (0.5, math.nan)])
    def test_rejects_nan_priors(self, priors):
        with pytest.raises(ValueError, match="priors must be nonnegative and sum to 1"):
            disc.helstrom(np.diag([1.0, 0]), np.diag([0, 1.0]), *priors)


class TestDiscriminateSuperops:
    def _ensemble(self, omega, gamma):
        noise = NoiseModel(NoiseKind.QUBIT_DEPOLARIZING, gamma)
        return disc.HypothesisEnsemble(
            (
                disc.Hypothesis(np.zeros((2, 2)), noise, 0.5),
                disc.Hypothesis(FieldHamiltonian(omega), noise, 0.5),
            )
        )

    def test_trivial_vs_field_formula(self):
        omega, gamma = 1.3, 0.4
        for t in (0.3, 1.0, 2.7):
            res = disc.discriminate_superops(self._ensemble(omega, gamma), qmath.KET_PLUS, t)
            expected = 0.5 - 0.5 * math.exp(-gamma * t) * abs(math.sin(omega * t / 2))
            assert res.p_error == pytest.approx(expected, abs=1e-12)

    def test_identical_hypotheses(self):
        noise = NoiseModel(NoiseKind.QUBIT_DEPOLARIZING, 0.2)
        ensemble = disc.HypothesisEnsemble(
            (
                disc.Hypothesis(FieldHamiltonian(1.0), noise, 0.5),
                disc.Hypothesis(FieldHamiltonian(1.0), noise, 0.5),
            )
        )
        res = disc.discriminate_superops(ensemble, qmath.KET_PLUS, 1.0)
        assert res.p_error == pytest.approx(0.5, abs=1e-12)
        assert res.info_bits == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_half_turn_is_perfect(self):
        omega = 2.0
        res = disc.discriminate_superops(self._ensemble(omega, 0.0), qmath.KET_PLUS, math.pi / omega)
        assert res.p_error == pytest.approx(0.0, abs=1e-12)
        assert res.info_bits == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_case_info_equals_binary_gain(self):
        # Equal-length Bloch vectors give a symmetric channel, where the
        # joint-distribution information reduces to 1 - H2(p_error).
        res = disc.discriminate_superops(self._ensemble(1.1, 0.3), qmath.KET_PLUS, 0.9)
        assert res.info_bits == pytest.approx(disc.binary_info_gain(res.p_error), abs=1e-12)

    def test_requires_two_hypotheses(self):
        with pytest.raises(ValueError):
            hyps = tuple(
                disc.Hypothesis(np.zeros((2, 2)), NoiseModel(), 1 / 3.0) for _ in range(3)
            )
            disc.discriminate_superops(disc.HypothesisEnsemble(hyps), qmath.KET_PLUS, 1.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            disc.discriminate_superops(self._ensemble(1.0, 0.1), qmath.KET_PLUS, -0.5)


class TestGoldenMinimize:
    @pytest.mark.parametrize(
        "fn, a, b, x_star, rel_tol",
        [
            (lambda x: abs(x - 1.3), 0.0, 4.0, 1.3, 1e-9),
            (lambda x: (x + 2.5) ** 2, -4.0, -1.0, -2.5, 1e-7),
        ],
    )
    def test_finds_minimizer_to_rel_tol(self, fn, a, b, x_star, rel_tol):
        x, fx = disc.golden_minimize(fn, a, b, rel_tol)
        assert abs(x - x_star) <= rel_tol * max(1.0, abs(b))
        assert fx == fn(x)

    @staticmethod
    def scalar_golden(fn, a, b, rel_tol):
        """The one-row loop the batched search must reproduce row by row."""
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
        x = (a + b) / 2
        return x, fn(x)

    @pytest.mark.parametrize("lookahead", [1, 2, 3, 4])
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        rows=st.lists(
            st.tuples(
                st.floats(-50.0, 50.0),  # bracket start
                st.floats(1e-3, 100.0),  # bracket width
                st.floats(-0.2, 1.2),  # minimizer position, relative to the bracket
                st.floats(0.0, 5.0),  # weight of the kink at the minimizer
            ),
            min_size=1,
            max_size=8,
        ),
        rel_tol=st.sampled_from([1e-3, 1e-7, 1e-9]),
    )
    def test_batch_rows_follow_the_scalar_loop(self, lookahead, rows, rel_tol):
        a = np.array([r[0] for r in rows])
        b = a + np.array([r[1] for r in rows])
        m = a + (b - a) * np.array([r[2] for r in rows])
        k = np.array([r[3] for r in rows])
        calls = []

        def fn(x):
            calls.append(np.shape(x))
            return (x - m) * (x - m) + k * np.abs(x - m)

        x, fx = disc.golden_minimize(fn, a, b, rel_tol, lookahead)
        steps = 0
        for i in range(len(rows)):
            mi, ki, row_calls = float(m[i]), float(k[i]), []

            def fn_i(x):
                row_calls.append(x)
                return (x - mi) * (x - mi) + ki * abs(x - mi)

            assert (x[i], fx[i]) == self.scalar_golden(fn_i, float(a[i]), float(b[i]), rel_tol)
            steps = max(steps, len(row_calls) - 3)
        # The two first points, one call per `lookahead` steps, the midpoint;
        # a lookahead stacks the first points and a step tree on a node axis.
        n = len(rows)
        if lookahead == 1:
            expected = [(n,)] * (2 + steps + 1)
        else:
            expected = [(2, n)] + [(2**lookahead - 1, n)] * -(-steps // lookahead) + [(n,)]
        assert calls == expected

    def test_calls_fall_as_the_lookahead_grows(self):
        counts = []
        for lookahead in (1, 2, 3, 4):
            calls = []
            x, _ = disc.golden_minimize(lambda x: calls.append(x) or (x - 1.3) ** 2, 0.0, 4.0,
                                        1e-9, lookahead)
            assert abs(x - 1.3) <= 4e-9
            counts.append(len(calls))
        assert counts == sorted(set(counts), reverse=True)


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

    def test_tan_condition_and_root_finder(self):
        omega = 1.7
        gamma = omega / 2.0
        t = disc.optimal_time_qubit(omega, gamma)
        assert t == pytest.approx(math.pi / (2 * omega), abs=1e-12)
        # Cross-check: it maximizes exp(-gamma t) sin(omega t / 2).
        t_num, _ = disc.grid_golden_minimize(
            lambda s: -(np.exp(-gamma * s) * np.sin(omega * s / 2)), 2 * math.pi / omega
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

    def test_two_directions_sixty_degrees(self):
        dirs = disc.symmetric_directions(2, 0.5)
        res = disc.trine_discriminate(dirs)
        # Overlap cos^2 t + 1/2 sin^2 t has minimum 1/2: imperfect.
        min_overlap = abs(disc.superdense_overlap(dirs[0], dirs[1], res.t_star))
        assert min_overlap == pytest.approx(0.5, abs=1e-9)
        assert res.p_error > 0.0

    @pytest.mark.parametrize(
        "cos_theta, t_star",
        [(-1.0, math.pi / 4), (-0.5, math.atan(math.sqrt(2.0))), (0.0, math.pi / 2),
         (0.5, math.pi / 2), (1.0, math.pi / 2)],
    )
    def test_two_direction_time_is_closed_form(self, cos_theta, t_star):
        dirs = disc.symmetric_directions(2, cos_theta)
        res = disc.trine_discriminate(dirs)
        assert res.t_star == pytest.approx(t_star, abs=1e-12)
        # No time in the quarter period gives a smaller overlap.
        ts = np.linspace(1e-6, math.pi / 2, 10**4)
        best = np.abs(disc.superdense_overlap(*dirs, ts)).min()
        assert abs(disc.superdense_overlap(*dirs, res.t_star)) <= best + 1e-12

    def test_grid_minimum_confirms_two_direction_case(self):
        dirs = disc.symmetric_directions(2, 0.5)
        ts = np.linspace(1e-6, math.pi / 2, 10**4)
        overlaps = [abs(disc.superdense_overlap(dirs[0], dirs[1], t)) for t in ts]
        assert min(overlaps) == pytest.approx(0.5, abs=1e-6)

    def test_rejects_asymmetric_directions(self):
        dirs = [
            np.array([0, 0, 1.0]),
            np.array([1.0, 0, 0]),
            np.array([math.sqrt(1 - 0.49), 0, -0.7]),
        ]
        with pytest.raises(ValueError):
            disc.trine_discriminate(dirs)

    @pytest.mark.parametrize("priors", [[1.5, -0.5, 0.0], [math.nan, 0.5, 0.5]])
    def test_rejects_priors_off_the_simplex(self, priors):
        with pytest.raises(ValueError, match="priors must be nonnegative and sum to 1"):
            disc.trine_discriminate(disc.symmetric_directions(3, -0.5), priors)

    @pytest.mark.parametrize("n, count", [(3, 2), (2, 3), (4, 2)])
    def test_rejects_a_prior_count_other_than_the_direction_count(self, n, count):
        dirs = disc.symmetric_directions(n, -1.0 / 3.0)
        with pytest.raises(ValueError, match=f"one prior per direction, got {count} for {n}"):
            disc.trine_discriminate(dirs, [1.0 / count] * count)

    def test_rejects_positive_cos_theta_trine(self):
        with pytest.raises(ValueError):
            disc.trine_discriminate(disc.symmetric_directions(3, 0.3))
        # Outside |cos_theta| <= 1 (two vectors) or [-1/2, 1] (three) no vectors exist.
        for n, cos_theta in [(2, 1.5), (2, -1.0001), (3, 2.0), (3, -0.6), (3, math.nan)]:
            with pytest.raises(ValueError, match="cos_theta"):
                disc.symmetric_directions(n, cos_theta)
        for n, cos_theta in [(2, -1.0), (2, 1.0), (3, -0.5), (3, 1.0)]:
            dirs = disc.symmetric_directions(n, cos_theta)
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


class TestFixedTimeOverlap:
    def test_undriven_closed_form(self, rng):
        H = random_hermitian(rng, 4)
        w = np.linalg.eigvalsh(H)
        gap = w[-1] - w[0]
        t = 0.8 * math.pi / gap
        _, overlap = disc.fixed_time_overlap(H, np.zeros_like(H), t)
        assert overlap == pytest.approx(math.cos(t * gap / 2), abs=1e-10)

    def test_half_turn_vanishes(self, rng):
        H = random_hermitian(rng, 3)
        w = np.linalg.eigvalsh(H)
        t = math.pi / (w[-1] - w[0])
        _, overlap = disc.fixed_time_overlap(H, np.zeros_like(H), t)
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
        psi0, overlap = disc.fixed_time_overlap(H, K, 1.0)
        assert np.linalg.norm(psi0) == pytest.approx(1.0, abs=1e-12)
        attained = abs(
            np.vdot(qmath.expm_i(K, 1.0) @ psi0, qmath.expm_i(H + K, 1.0) @ psi0)
        )
        assert attained == pytest.approx(overlap, abs=1e-10)

    def test_driving_never_reduces_overlap(self, rng):
        # 100 random drives against the undriven probe, ||H|| < pi/2.
        H = random_hermitian(rng, 4)
        H *= (0.9 * math.pi / 2) / np.max(np.abs(np.linalg.eigvalsh(H)))
        _, base = disc.fixed_time_overlap(H, np.zeros_like(H), 1.0)
        for _ in range(100):
            K = random_hermitian(rng, 4) * rng.uniform(0, 3)
            _, driven = disc.fixed_time_overlap(H, K, 1.0)
            assert driven >= base - 1e-9

    def test_monotone_in_time(self, rng):
        H = random_hermitian(rng, 3)
        w = np.linalg.eigvalsh(H)
        gap = w[-1] - w[0]
        ts = np.linspace(0.05, 0.95, 19) * math.pi / gap
        overlaps = [disc.fixed_time_overlap(H, np.zeros_like(H), t)[1] for t in ts]
        assert all(a > b for a, b in zip(overlaps, overlaps[1:]))


class TestAdaptiveEliminate:
    def _ensemble(self, rng, n, dim):
        gens = [random_hermitian(rng, dim) for _ in range(n)]
        return disc.HypothesisEnsemble(
            tuple(disc.Hypothesis(g, NoiseModel(), 1.0 / n) for g in gens)
        )

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

    def test_rejects_noisy_hypotheses(self, rng):
        noise = NoiseModel(NoiseKind.QUBIT_DEPOLARIZING, 0.1)
        ensemble = disc.HypothesisEnsemble(
            (
                disc.Hypothesis(random_hermitian(rng, 2), noise, 0.5),
                disc.Hypothesis(random_hermitian(rng, 2), noise, 0.5),
            )
        )
        with pytest.raises(UnsupportedModelError):
            disc.adaptive_eliminate(ensemble, 0, 3)


class TestInfoGain:
    def test_endpoints(self):
        assert disc.binary_info_gain(0.0) == pytest.approx(1.0)
        assert disc.binary_info_gain(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_reference_value(self):
        assert disc.binary_info_gain(0.11) == pytest.approx(0.5, abs=1e-3)
        p = 0.11
        assert disc.binary_info_gain(p) == pytest.approx(
            1.0 + p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p), abs=1e-15
        )

    def test_small_gain_keeps_its_relative_precision(self):
        # The plain entropy sum returns about 1e-16 here, against 2.9e-18.
        p = 0.5 - 1e-9
        with mpmath.workdps(50):
            q = mpmath.mpf(p)
            exact = 1 + q * mpmath.log(q, 2) + (1 - q) * mpmath.log(1 - q, 2)
        assert disc.binary_info_gain(p) == pytest.approx(float(exact), rel=1e-14, abs=0.0)

    def test_reflection_and_validation(self):
        assert disc.binary_info_gain(0.9) == pytest.approx(disc.binary_info_gain(0.1), abs=1e-15)
        with pytest.raises(ValueError):
            disc.binary_info_gain(1.2)
        with pytest.raises(ValueError):
            disc.binary_info_gain(-0.1)

    def test_mutual_information_symmetric_channel(self):
        for p in (0.0, 0.11, 0.25, 0.5):
            joint = 0.5 * np.array([[1 - p, p], [p, 1 - p]])
            assert disc.mutual_information(joint) == pytest.approx(
                disc.binary_info_gain(p), abs=1e-12
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
