import math

import numpy as np
import pytest

from qdlab import qmath, search
from qdlab.search import GroverInstance


@pytest.mark.parametrize("energy", [0.0, -1.0, math.nan])
def test_instance_rejects_energy_that_is_not_positive(energy):
    with pytest.raises(ValueError, match="energy must be positive"):
        GroverInstance(dim=4, marked=0, energy=energy)


class TestHamiltonian:
    def test_spectrum_contains_split_levels(self):
        inst = GroverInstance(dim=7, marked=3, energy=2.0)
        w = np.linalg.eigvalsh(search.grover_hamiltonian(inst))
        expected = inst.energy * np.array([1 - 1 / math.sqrt(7), 1 + 1 / math.sqrt(7)])
        np.testing.assert_allclose(np.sort(w)[-2:], expected, atol=1e-12)

    def test_trace(self):
        for n, x in ((2, 1), (5, 0), (16, 9)):
            inst = GroverInstance(dim=n, marked=x, energy=1.3)
            assert np.trace(search.grover_hamiltonian(inst)).real == pytest.approx(
                2 * inst.energy, abs=1e-12
            )

    def test_four_dim_spectrum(self):
        inst = GroverInstance(dim=4, marked=2, energy=1.0)
        w = np.sort(np.linalg.eigvalsh(search.grover_hamiltonian(inst)))
        np.testing.assert_allclose(w, [0.0, 0.0, 0.5, 1.5], atol=1e-12)

    def test_split_eigenvectors(self):
        inst = GroverInstance(dim=9, marked=4, energy=1.0)
        H = search.grover_hamiltonian(inst)
        s = search.uniform_state(9)
        x = qmath.basis_state(9, 4)
        for sign, energy in ((1, 1 + 1 / 3), (-1, 1 - 1 / 3)):
            v = s + sign * x
            np.testing.assert_allclose(H @ v, energy * v, atol=1e-12)


class TestRun:
    @pytest.mark.parametrize("n", [2, 4, 16, 256, 1024])
    def test_certain_success(self, n):
        prob, T = search.grover_run(GroverInstance(dim=n, marked=n // 3, energy=1.0))
        assert prob >= 1.0 - 1e-9
        assert T == pytest.approx(math.pi * math.sqrt(n) / 2.0, abs=1e-12)

    def test_half_time_rabi_formula(self):
        inst = GroverInstance(dim=16, marked=5, energy=1.0)
        prob = search.grover_success_probability(inst, inst.flop_time / 2)
        # Two-level dynamics in span{|s>, |x>}: with level splitting
        # delta = 2E/sqrt(N), the marked amplitude is
        # e^{-iEt} [cos(delta t/2)/sqrt(N) - i sin(delta t/2)].
        N = inst.dim
        delta = 2 * inst.energy / math.sqrt(N)
        t = inst.flop_time / 2
        expected = math.sin(delta * t / 2) ** 2 + math.cos(delta * t / 2) ** 2 / N
        assert prob == pytest.approx(expected, abs=1e-9)
        assert prob < 1.0

    def test_energy_rescaling(self):
        base = GroverInstance(dim=64, marked=7, energy=1.0)
        double = GroverInstance(dim=64, marked=7, energy=2.0)
        p1, t1 = search.grover_run(base)
        p2, t2 = search.grover_run(double)
        assert t2 == pytest.approx(t1 / 2, abs=1e-12)
        assert p1 == pytest.approx(p2, abs=1e-12)

    def test_dense_and_reduced_paths_agree(self):
        inst = GroverInstance(dim=128, marked=17, energy=0.7)
        for frac in (0.25, 0.5, 0.8, 1.0):
            t = frac * inst.flop_time
            assert search._dense_success(inst, t) == pytest.approx(
                search._reduced_success(inst, t), abs=1e-11
            )

    def test_permutation_covariance(self):
        probs = {
            x: search.grover_run(GroverInstance(dim=10, marked=x, energy=1.0))[0]
            for x in range(10)
        }
        assert max(probs.values()) - min(probs.values()) < 1e-12

    def test_subspace_confinement(self):
        inst = GroverInstance(dim=32, marked=3, energy=1.0)
        H = search.grover_hamiltonian(inst)
        s = search.uniform_state(32)
        x = qmath.basis_state(32, 3)
        # Orthonormal basis of span{|s>, |x>}.
        r = s - (x.conj() @ s) * x
        r /= np.linalg.norm(r)
        for frac in np.linspace(0.1, 1.0, 7):
            psi = qmath.expm_i(H, frac * inst.flop_time) @ s
            inside = abs(np.vdot(x, psi)) ** 2 + abs(np.vdot(r, psi)) ** 2
            assert 1.0 - inside < 1e-12

    def test_time_scaling_slope(self):
        sizes = [4, 16, 64, 256, 1024]
        times = [GroverInstance(dim=n, marked=0, energy=1.0).flop_time for n in sizes]
        slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        assert slope == pytest.approx(0.5, abs=1e-6)


class TestNaiveProbe:
    def test_marked_inside_pair(self):
        inst = GroverInstance(dim=8, marked=2, energy=1.0)
        assert search.naive_probe(inst, 2, 5) == pytest.approx(1.0, abs=1e-12)
        assert search.naive_probe(inst, 5, 2) == pytest.approx(1.0, abs=1e-12)

    def test_marked_outside_pair(self):
        inst = GroverInstance(dim=8, marked=2, energy=1.0)
        assert search.naive_probe(inst, 4, 5) == pytest.approx(0.0, abs=1e-12)

    def test_matches_full_simulation(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 12))
            x = int(rng.integers(n))
            y, yp = rng.choice(n, size=2, replace=False)
            inst = GroverInstance(dim=n, marked=x, energy=1.0)
            H = np.zeros((n, n), dtype=complex)
            H[x, x] = inst.energy
            psi0 = (qmath.basis_state(n, y) + qmath.basis_state(n, yp)) / math.sqrt(2)
            psi = qmath.expm_i(H, math.pi / inst.energy) @ psi0
            minus = (qmath.basis_state(n, y) - qmath.basis_state(n, yp)) / math.sqrt(2)
            assert search.naive_probe(inst, int(y), int(yp)) == pytest.approx(
                abs(np.vdot(minus, psi)) ** 2, abs=1e-12
            )

    def test_rejects_equal_indices(self):
        with pytest.raises(ValueError):
            search.naive_probe(GroverInstance(dim=4, marked=0), 1, 1)
