import math

import numpy as np
import pytest

from qdlab import dynamics, qmath
from qdlab.dynamics import EvolutionSpec, FieldHamiltonian, NoiseKind, NoiseModel
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
            NoiseModel(kind, math.nan, n_qubits=1)

    def test_independent_requires_qubit_count(self):
        with pytest.raises(ValueError):
            NoiseModel(NoiseKind.INDEPENDENT_DEPOLARIZING, 0.1)
        with pytest.raises(ResourceLimitError):
            NoiseModel(NoiseKind.INDEPENDENT_DEPOLARIZING, 0.1, n_qubits=11)


class TestEvolutionSpec:
    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            EvolutionSpec(hamiltonian=np.zeros((2, 2)), duration=-1.0)

    @pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel(NoiseKind.SYMMETRIC, 0.3)])
    def test_rejects_nan_duration(self, noise):
        with pytest.raises(ValueError, match="duration must be nonnegative"):
            EvolutionSpec(hamiltonian=np.zeros((2, 2)), noise=noise, duration=math.nan)

    def test_dispatches_symmetric(self, rng):
        rho0 = random_density(rng, 2)
        field = FieldHamiltonian(1.1)
        spec = EvolutionSpec(
            hamiltonian=field, noise=NoiseModel(NoiseKind.SYMMETRIC, 0.3), duration=0.8
        )
        np.testing.assert_allclose(
            dynamics.evolve(spec, rho0),
            dynamics.evolve_symmetric(rho0, field.matrix(), 0.3, 0.8),
            atol=1e-14,
        )

    def test_dispatches_independent(self, rng):
        rho0 = random_density(rng, 4)
        field = FieldHamiltonian(0.9)
        spec = EvolutionSpec(
            hamiltonian=field,
            noise=NoiseModel(NoiseKind.INDEPENDENT_DEPOLARIZING, 0.2, n_qubits=2),
            duration=1.1,
        )
        np.testing.assert_allclose(
            dynamics.evolve(spec, rho0),
            dynamics.evolve_independent_depolarizing(rho0, 2, field, 0.2, 1.1),
            atol=1e-14,
        )

    def test_independent_needs_local_field(self, rng):
        spec = EvolutionSpec(
            hamiltonian=np.zeros((4, 4)),
            noise=NoiseModel(NoiseKind.INDEPENDENT_DEPOLARIZING, 0.2, n_qubits=2),
            duration=1.0,
        )
        with pytest.raises(UnsupportedModelError):
            dynamics.evolve(spec, random_density(rng, 4))
