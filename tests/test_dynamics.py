import math

import numpy as np
import pytest

from qdlab import dynamics, qmath
from qdlab.dynamics import FieldHamiltonian, NoiseKind, NoiseModel
from qdlab.errors import ResourceLimitError
from conftest import random_density, random_hermitian, random_state, random_unitary


class TestEvolvePure:
    def test_z_field_phase(self):
        # (omega/2) sigma_z turns |+> around the equator: the Bloch vector is
        # (cos wt, sin wt, 0) and the state matches (|0> + e^{i w t}|1>)/sqrt(2)
        # up to a global phase.
        omega, t = 1.3, 0.9
        H = FieldHamiltonian(omega).matrix()
        psi = dynamics.evolve_pure(qmath.KET_PLUS, H, t)
        expected = np.array([1.0, np.exp(1j * omega * t)]) / np.sqrt(2)
        assert abs(np.vdot(expected, psi)) == pytest.approx(1.0, abs=1e-12)
        bloch = qmath.density_to_bloch(np.outer(psi, psi.conj()))
        np.testing.assert_allclose(
            bloch, [np.cos(omega * t), np.sin(omega * t), 0.0], atol=1e-12
        )

    def test_zero_time(self, rng):
        psi0 = random_state(rng, 4)
        np.testing.assert_allclose(
            dynamics.evolve_pure(psi0, random_hermitian(rng, 4), 0.0), psi0, atol=1e-14
        )

    def test_norm_conservation(self, rng):
        H = random_hermitian(rng, 5)
        psi0 = random_state(rng, 5)
        for t in (1.0, 10.0, 100.0):
            psi = dynamics.evolve_pure(psi0, H, t)
            assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            dynamics.evolve_pure(qmath.KET_0, random_hermitian(rng, 3), 1.0)


class TestDepolarizingQubit:
    def test_pure_precession(self):
        field = FieldHamiltonian(2.0, (0.6, 0.0, 0.8))
        P0 = np.array([0.3, -0.5, 0.1])
        P = dynamics.evolve_depolarizing_qubit(P0, field, 0.0, 3.7)
        assert np.linalg.norm(P) == pytest.approx(np.linalg.norm(P0), abs=1e-12)

    def test_z_axis_closed_form(self):
        field = FieldHamiltonian(1.7, (0, 0, 1))
        gamma, t = 0.4, 1.1
        P = dynamics.evolve_depolarizing_qubit(np.array([1.0, 0, 0]), field, gamma, t)
        expected = np.exp(-gamma * t) * np.array([np.cos(1.7 * t), np.sin(1.7 * t), 0.0])
        np.testing.assert_allclose(P, expected, atol=1e-12)

    def test_against_rk4_oracle(self, rng):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        field = FieldHamiltonian(1.9, tuple(axis))
        gamma, t = 0.35, 2.5
        P0 = np.array([0.2, 0.6, -0.4])
        closed = dynamics.evolve_depolarizing_qubit(P0, field, gamma, t)
        step = 1e-4 / max(field.omega, gamma)
        numeric = dynamics.rk4_integrate(dynamics.bloch_master_rhs(field, gamma), P0, t, step)
        np.testing.assert_allclose(closed, numeric, atol=1e-8)

    def test_negative_time_refused(self):
        # Run backwards, the contraction exp(-gamma t) would grow the Bloch vector past 1.
        with pytest.raises(ValueError, match="duration must be nonnegative"):
            dynamics.evolve_depolarizing_qubit(
                np.array([0.3, 0.0, 0.4]), FieldHamiltonian(1.0), 0.5, -3.0
            )

    def test_consistency_with_density_channel(self, rng):
        # The Bloch closed form and the uniform-contraction channel agree.
        field = FieldHamiltonian(1.2, (0, 1, 0))
        gamma, t = 0.3, 1.4
        P0 = np.array([0.5, 0.1, -0.3])
        via_bloch = dynamics.evolve_depolarizing_qubit(P0, field, gamma, t)
        rho = dynamics.evolve_symmetric(qmath.bloch_to_density(P0), field.matrix(), gamma, t)
        np.testing.assert_allclose(via_bloch, qmath.density_to_bloch(rho), atol=1e-12)


class TestSymmetric:
    def test_zero_rate_is_unitary(self, rng):
        rho0 = random_density(rng, 4)
        H = random_hermitian(rng, 4)
        t = 1.3
        U = qmath.expm_i(H, t)
        np.testing.assert_allclose(
            dynamics.evolve_symmetric(rho0, H, 0.0, t), U @ rho0 @ U.conj().T, atol=1e-12
        )

    def test_long_time_fixed_point(self, rng):
        rho0 = random_density(rng, 4)
        out = dynamics.evolve_symmetric(rho0, random_hermitian(rng, 4), 1.0, 60.0)
        np.testing.assert_allclose(out, np.eye(4) / 4, atol=1e-12)

    def test_negative_time_refused(self, rng):
        with pytest.raises(ValueError, match="duration must be nonnegative"):
            dynamics.evolve_symmetric(random_density(rng, 4), random_hermitian(rng, 4), 0.5, -3.0)

    def test_bell_state_coefficients(self):
        # Both qubits in the same z field: the xx - yy coherence oscillates at
        # twice the frequency while contracting at the bare rate.
        omega, gamma, t = 1.1, 0.25, 0.8
        h1 = FieldHamiltonian(omega).matrix()
        H = qmath.tensor(h1, qmath.I2) + qmath.tensor(qmath.I2, h1)
        rho0 = np.outer(qmath.BELL_PHI_PLUS, qmath.BELL_PHI_PLUS.conj())
        rho = dynamics.evolve_symmetric(rho0, H, gamma, t)
        xx = np.trace(rho @ qmath.tensor(qmath.SIGMA_X, qmath.SIGMA_X)).real
        yy = np.trace(rho @ qmath.tensor(qmath.SIGMA_Y, qmath.SIGMA_Y)).real
        zz = np.trace(rho @ qmath.tensor(qmath.SIGMA_Z, qmath.SIGMA_Z)).real
        decay = np.exp(-gamma * t)
        assert 0.5 * (xx - yy) == pytest.approx(decay * np.cos(2 * omega * t), abs=1e-12)
        assert zz == pytest.approx(decay, abs=1e-12)
        # The + outcome of the transverse parity measurement.
        p_plus = 0.5 * (1 + xx)
        assert p_plus == pytest.approx(0.5 * (1 + decay * np.cos(2 * omega * t)), abs=1e-12)

    def test_unitary_covariance(self, rng):
        rho0 = random_density(rng, 4)
        H = random_hermitian(rng, 4)
        V = random_unitary(rng, 4)
        gamma, t = 0.6, 0.9
        lhs = dynamics.evolve_symmetric(V @ rho0 @ V.conj().T, V @ H @ V.conj().T, gamma, t)
        rhs = V @ dynamics.evolve_symmetric(rho0, H, gamma, t) @ V.conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_against_rk4_oracle(self, rng):
        H = random_hermitian(rng, 4)
        rho0 = random_density(rng, 4)
        gamma, t = 0.5, 2.0
        closed = dynamics.evolve_symmetric(rho0, H, gamma, t)
        scale = max(np.max(np.abs(np.linalg.eigvalsh(H))), gamma)
        numeric = dynamics.rk4_integrate(
            dynamics.symmetric_master_rhs(H, gamma), rho0, t, 0.01 / scale
        )
        np.testing.assert_allclose(closed, numeric, atol=1e-6)


class TestIndependentDepolarizing:
    def test_single_qubit_matches_bloch(self, rng):
        field = FieldHamiltonian(1.4, (0, 0, 1))
        gamma, t = 0.3, 1.2
        P0 = np.array([0.4, -0.2, 0.6])
        rho = dynamics.evolve_independent_depolarizing(
            qmath.bloch_to_density(P0), 1, field, gamma, t
        )
        np.testing.assert_allclose(
            qmath.density_to_bloch(rho),
            dynamics.evolve_depolarizing_qubit(P0, field, gamma, t),
            atol=1e-12,
        )

    def test_bell_pair_closed_form(self):
        omega, gamma, t = 1.3, 0.2, 0.7
        field = FieldHamiltonian(omega)
        rho0 = np.outer(qmath.BELL_PHI_PLUS, qmath.BELL_PHI_PLUS.conj())
        rho = dynamics.evolve_independent_depolarizing(rho0, 2, field, gamma, t)
        d2 = np.exp(-2 * gamma * t)
        c2, s2 = np.cos(2 * omega * t), np.sin(2 * omega * t)
        X, Y, Z, I = qmath.SIGMA_X, qmath.SIGMA_Y, qmath.SIGMA_Z, qmath.I2
        expected = 0.25 * (
            qmath.tensor(I, I)
            + d2 * qmath.tensor(Z, Z)
            + d2 * c2 * (qmath.tensor(X, X) - qmath.tensor(Y, Y))
            + d2 * s2 * (qmath.tensor(X, Y) + qmath.tensor(Y, X))
        )
        np.testing.assert_allclose(rho, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_kraus_oracle(self, rng, n):
        field = FieldHamiltonian(0.9, (0.48, -0.6, 0.64))
        gamma, t = 0.4, 0.9
        rho0 = random_density(rng, 2**n)
        closed = dynamics.evolve_independent_depolarizing(rho0, n, field, gamma, t)
        u = qmath.expm_i(field.matrix(), t)
        U = qmath.tensor(*([u] * n))
        oracle = dynamics.kraus_apply_per_qubit(
            U @ rho0 @ U.conj().T, n, dynamics.depolarizing_kraus(gamma, t)
        )
        np.testing.assert_allclose(closed, oracle, atol=1e-9)

    def test_against_lindblad_rk4(self, rng):
        field = FieldHamiltonian(1.1, (0, 0, 1))
        gamma, t = 0.5, 1.5
        rho0 = random_density(rng, 4)
        closed = dynamics.evolve_independent_depolarizing(rho0, 2, field, gamma, t)
        numeric = dynamics.rk4_integrate(
            dynamics.independent_master_rhs(field, 2, gamma), rho0, t, 0.01 / 1.1
        )
        np.testing.assert_allclose(closed, numeric, atol=1e-6)

    def test_dimension_and_size_errors(self, rng):
        field = FieldHamiltonian(1.0)
        with pytest.raises(ValueError):
            dynamics.evolve_independent_depolarizing(np.eye(3) / 3, 2, field, 0.1, 1.0)
        with pytest.raises(ResourceLimitError):
            dynamics.evolve_independent_depolarizing(np.eye(4) / 4, 11, field, 0.1, 1.0)

    def test_negative_time_refused(self):
        # At t = -3 with gamma = 0.5 the output would have eigenvalues near -4.8.
        rho0 = np.outer(qmath.BELL_PHI_PLUS, qmath.BELL_PHI_PLUS.conj())
        with pytest.raises(ValueError, match="duration must be nonnegative"):
            dynamics.evolve_independent_depolarizing(rho0, 2, FieldHamiltonian(1.0), 0.5, -3.0)


@pytest.mark.parametrize("closed_form", ["qubit", "symmetric", "independent"])
@pytest.mark.parametrize(
    "gamma, t, message",
    [(math.nan, 1.0, "gamma must be nonnegative"), (0.5, math.nan, "duration must be nonnegative")],
)
def test_closed_forms_refuse_nan_rate_or_time(closed_form, gamma, t, message):
    field = FieldHamiltonian(1.0)
    rho0 = np.outer(qmath.BELL_PHI_PLUS, qmath.BELL_PHI_PLUS.conj())
    with pytest.raises(ValueError, match=message):
        if closed_form == "qubit":
            dynamics.evolve_depolarizing_qubit(np.array([0.3, 0.0, 0.4]), field, gamma, t)
        elif closed_form == "symmetric":
            dynamics.evolve_symmetric(rho0, np.eye(4), gamma, t)
        else:
            dynamics.evolve_independent_depolarizing(rho0, 2, field, gamma, t)


def _random_field(rng):
    axis = rng.normal(size=3)
    return FieldHamiltonian(float(rng.uniform(0.5, 2.0)), tuple(axis / np.linalg.norm(axis)))


def _kraus_reference(rho0, n, field, gamma, t):
    """The dense product unitary, then the Kraus map on each qubit."""
    u = qmath.expm_i(field.matrix(), t)
    U = qmath.tensor(*([u] * n))
    return dynamics.kraus_apply_per_qubit(
        U @ rho0 @ U.conj().T, n, dynamics.depolarizing_kraus(gamma, t)
    )


class TestIndependentLocalSuperoperator:
    """The qubit-by-qubit kernel against the dense oracles, on random local fields."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_against_kraus_oracle_random_axes(self, rng, n):
        field = _random_field(rng)
        gamma, t = float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.5, 2.0))
        rho0 = random_density(rng, 2**n)
        closed = dynamics.evolve_independent_depolarizing(rho0, n, field, gamma, t)
        np.testing.assert_allclose(closed, _kraus_reference(rho0, n, field, gamma, t), atol=1e-12)

    def test_real_input(self, rng):
        B = rng.normal(size=(8, 8))
        rho0 = B @ B.T / np.trace(B @ B.T)
        field = _random_field(rng)
        closed = dynamics.evolve_independent_depolarizing(rho0, 3, field, 0.3, 1.1)
        np.testing.assert_allclose(closed, _kraus_reference(rho0, 3, field, 0.3, 1.1), atol=1e-12)

    @pytest.mark.parametrize("view", ["strided", "transposed"])
    def test_non_contiguous_input(self, rng, view):
        rho = random_density(rng, 16)
        if view == "strided":
            big = np.zeros((32, 32), dtype=complex)
            big[::2, ::2] = rho
            rho0 = big[::2, ::2]
        else:
            rho, rho0 = rho.T.copy(), rho.T
        assert not rho0.flags.c_contiguous
        field = _random_field(rng)
        closed = dynamics.evolve_independent_depolarizing(rho0, 4, field, 0.2, 0.7)
        np.testing.assert_allclose(closed, _kraus_reference(rho, 4, field, 0.2, 0.7), atol=1e-12)

    def test_never_builds_a_dense_operator(self, rng, monkeypatch):
        field = _random_field(rng)
        rho0 = random_density(rng, 32)
        expected = _kraus_reference(rho0, 5, field, 0.4, 1.3)

        def refuse(*args, **kwargs):
            raise AssertionError("a dense 2^n x 2^n operator was built")

        monkeypatch.setattr(qmath, "tensor", refuse)
        monkeypatch.setattr(qmath, "partial_trace", refuse)
        monkeypatch.setattr(np, "kron", refuse)
        closed = dynamics.evolve_independent_depolarizing(rho0, 5, field, 0.4, 1.3)
        np.testing.assert_allclose(closed, expected, atol=1e-12)

    def test_input_not_mutated(self, rng):
        rho0 = random_density(rng, 16)
        before = rho0.copy()
        dynamics.evolve_independent_depolarizing(rho0, 4, _random_field(rng), 0.3, 0.9)
        np.testing.assert_array_equal(rho0, before)

    def test_max_qubits_state_and_marginals(self, rng):
        n = dynamics.MAX_QUBITS
        field = _random_field(rng)
        gamma, t = 0.3, 1.2
        rho0 = random_density(rng, 2**n)
        rho = dynamics.evolve_independent_depolarizing(rho0, n, field, gamma, t)
        assert abs(np.trace(rho) - 1.0) < 1e-10
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        # The other qubits' channels preserve the trace, so each one-qubit
        # marginal follows the single-qubit Bloch closed form.
        for q in (0, n - 1):
            P0 = qmath.density_to_bloch(qmath.partial_trace(rho0, [2] * n, [q]))
            P = qmath.density_to_bloch(qmath.partial_trace(rho, [2] * n, [q]))
            expected = dynamics.evolve_depolarizing_qubit(P0, field, gamma, t)
            np.testing.assert_allclose(P, expected, atol=1e-10)


def _channels(rng):
    field = FieldHamiltonian(1.2, (0, 0, 1))
    h2 = qmath.tensor(field.matrix(), qmath.I2) + qmath.tensor(qmath.I2, field.matrix())
    return [
        ("none", 2, lambda rho, t: dynamics.apply_channel(rho, field.matrix(), NoiseModel(), t)),
        (
            "qubit_depolarizing",
            2,
            lambda rho, t: dynamics.apply_channel(
                rho, field.matrix(), NoiseModel(NoiseKind.QUBIT_DEPOLARIZING, 0.4), t
            ),
        ),
        (
            "symmetric",
            4,
            lambda rho, t: dynamics.apply_channel(
                rho, h2, NoiseModel(NoiseKind.SYMMETRIC, 0.4), t
            ),
        ),
        (
            "independent",
            4,
            lambda rho, t: dynamics.evolve_independent_depolarizing(rho, 2, field, 0.4, t),
        ),
    ]


class TestChannelProperties:
    def test_trace_and_positivity(self, rng):
        for name, dim, chan in _channels(rng):
            rho = random_density(rng, dim)
            out = chan(rho, 1.7)
            assert abs(np.trace(out).real - 1.0) < 1e-10, name
            assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() > -1e-9, name

    def test_semigroup(self, rng):
        for name, dim, chan in _channels(rng):
            rho = random_density(rng, dim)
            t1, t2 = 0.7, 1.1
            two_step = chan(chan(rho, t1), t2)
            one_step = chan(rho, t1 + t2)
            assert np.max(np.abs(two_step - one_step)) < 1e-9, name
