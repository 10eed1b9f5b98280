import math

import numpy as np
import pytest

from qdlab import dynamics, qmath
from qdlab.dynamics import FieldHamiltonian, NoiseKind, NoiseModel
from qdlab.errors import ResourceLimitError, UnsupportedModelError
from conftest import random_density


class TestFieldHamiltonian:
    def test_matrix_form(self):
        field = FieldHamiltonian(omega=2.0, axis=(1.0, 0.0, 0.0))
        np.testing.assert_allclose(field.matrix(), qmath.SIGMA_X, atol=1e-15)

    def test_rejects_unnormalized_axis(self):
        with pytest.raises(ValueError):
            FieldHamiltonian(omega=1.0, axis=(1.0, 1.0, 0.0))


class TestNoiseModel:
    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            NoiseModel(NoiseKind.SYMMETRIC, -0.1)

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_rejects_nan_rate(self, kind):
        with pytest.raises(ValueError, match="gamma must be nonnegative"):
            NoiseModel(kind, math.nan)


class TestApplyChannel:
    @pytest.mark.parametrize("t", [-1.0, math.nan])
    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_rejects_negative_or_nan_duration(self, kind, t):
        with pytest.raises(ValueError, match="duration must be nonnegative"):
            dynamics.apply_channel(np.eye(2) / 2, FieldHamiltonian(1.0), NoiseModel(kind, 0.3), t)

    def test_dispatches_symmetric(self, rng):
        rho0 = random_density(rng, 2)
        field = FieldHamiltonian(1.1)
        np.testing.assert_allclose(
            dynamics.apply_channel(rho0, field, NoiseModel(NoiseKind.SYMMETRIC, 0.3), 0.8),
            dynamics.evolve_symmetric(rho0, field.matrix(), 0.3, 0.8),
            atol=1e-14,
        )

    def test_dispatches_independent(self, rng):
        rho0 = random_density(rng, 4)
        field = FieldHamiltonian(0.9)
        noise = NoiseModel(NoiseKind.INDEPENDENT_DEPOLARIZING, 0.2)
        np.testing.assert_allclose(
            dynamics.apply_channel(rho0, field, noise, 1.1),
            dynamics.evolve_independent_depolarizing(rho0, 2, field, 0.2, 1.1),
            atol=1e-14,
        )

    @pytest.mark.parametrize("rho0, error", [
        (np.array(1.0), ValueError),
        (np.array([1.0, 0.0]), ValueError),
        (np.eye(6) / 6, ValueError),
        # A zero-copy view: the 11-qubit state is refused before any 4^n work.
        (np.broadcast_to(np.complex128(0), (2**11, 2**11)), ResourceLimitError),
    ], ids=["0-d", "1-d", "6x6", "11-qubit"])
    def test_independent_reads_the_qubit_count_off_the_state(self, rho0, error):
        noise = NoiseModel(NoiseKind.INDEPENDENT_DEPOLARIZING, 0.2)
        with pytest.raises(error):
            dynamics.apply_channel(rho0, FieldHamiltonian(0.9), noise, 1.1)

    def test_independent_needs_local_field(self, rng):
        noise = NoiseModel(NoiseKind.INDEPENDENT_DEPOLARIZING, 0.2)
        with pytest.raises(UnsupportedModelError):
            dynamics.apply_channel(random_density(rng, 4), np.zeros((4, 4)), noise, 1.0)
