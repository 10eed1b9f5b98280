import math
import tracemalloc

import numpy as np
import pytest

from qdlab import phase_estimation as pe
from qdlab.errors import ResourceLimitError


def scalar_bits(cfg, rng_seed):
    """The adaptive protocol as a scalar stage loop with math.cos: the oracle
    for the staged kernel."""
    rng = np.random.default_rng(rng_seed)
    bits, tail = [], 0.0
    for k in range(cfg.n, 0, -1):
        phase = math.pi * math.fmod((2.0**k) * cfg.omega, 2.0)
        p_plus = math.cos((phase - math.pi * tail) / 2.0) ** 2
        bit = int(rng.random() >= p_plus)
        bits.append(bit)
        tail = 0.5 * (bit + tail)
    return tuple(bits)


def scalar_counts(cfg, seed, trials):
    """One scalar run per spawned child, binned by its estimate."""
    counts = np.zeros(2**cfg.n, dtype=int)
    for child in np.random.SeedSequence(seed).spawn(trials):
        rec = pe.MeasurementRecord(scalar_bits(cfg, child))
        counts[int(round(rec.estimate * 2**cfg.n))] += 1
    return counts


class TestPhaseConfig:
    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_bit_counts_below_one(self, n):
        with pytest.raises(ValueError, match="at least one bit"):
            pe.PhaseConfig(n=n, omega=0.25)

    def test_rejects_frequencies_outside_the_unit_interval(self):
        for omega in (1.0, -0.1, math.nan):
            with pytest.raises(ValueError, match=r"omega must lie in \[0, 1\)"):
                pe.PhaseConfig(n=3, omega=omega)


def test_estimate_reads_bits_least_significant_first():
    # bits[0] is the last binary digit: (1, 0, 1) is 0.101 and (1, 1, 0) is 0.011.
    assert pe.MeasurementRecord((1, 0, 1)).estimate == 0.625
    assert pe.MeasurementRecord((1, 1, 0)).estimate == 0.375


class TestSampleCounts:
    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("omega", [0.0, 0.625, 1.0 / 3.0, 0.1, (math.sqrt(5) - 1) / 2])
    def test_equals_scalar_loop(self, n, omega):
        cfg = pe.PhaseConfig(n=n, omega=omega)
        for seed in (0, 3, 1234567890):
            np.testing.assert_array_equal(
                pe.sample_counts(cfg, seed, 150), scalar_counts(cfg, seed, 150)
            )

    def test_equals_scalar_loop_across_spawn_blocks(self):
        cfg = pe.PhaseConfig(n=4, omega=1.0 / 3.0)
        np.testing.assert_array_equal(
            pe.sample_counts(cfg, 1234567890, 2000), scalar_counts(cfg, 1234567890, 2000)
        )

    def test_counts_sum_to_trials(self):
        counts = pe.sample_counts(pe.PhaseConfig(n=3, omega=0.3), 7, 500)
        assert counts.shape == (8,) and counts.sum() == 500

    def test_qubit_cap_checked_before_any_draw(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("drew trials over the qubit cap")

        monkeypatch.setattr(pe.qmath, "child_states", refuse)
        with pytest.raises(ResourceLimitError):
            pe.sample_counts(pe.PhaseConfig(n=pe.MAX_PREPARE_QUBITS + 1, omega=0.1), 0, 10)


class TestSqftEstimate:
    @pytest.mark.parametrize("omega", [0.0, 0.3125, 1.0 / 3.0, 0.7, 0.999])
    def test_bits_equal_scalar_loop(self, omega):
        for n in (1, 4, 9):
            cfg = pe.PhaseConfig(n=n, omega=omega)
            for seed in range(40):
                assert pe.sqft_estimate(cfg, seed).bits == scalar_bits(cfg, seed)

    def test_zero_frequency(self):
        for seed in range(5):
            rec = pe.sqft_estimate(pe.PhaseConfig(n=4, omega=0.0), seed)
            assert rec.estimate == 0.0

    def test_terminating_frequency_deterministic(self):
        cfg = pe.PhaseConfig(n=3, omega=0.625)  # 0.101 in binary
        for seed in range(20):
            rec = pe.sqft_estimate(cfg, seed)
            assert rec.estimate == pytest.approx(0.625, abs=0)
            assert rec.bits == (1, 0, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_exhaustive_exactness(self, n):
        for j in range(2**n):
            omega = j / 2**n
            rec = pe.sqft_estimate(pe.PhaseConfig(n=n, omega=omega), seed := 101 + j)
            assert rec.estimate == pytest.approx(omega, abs=0), (n, j, seed)

    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_sampled_exactness_above_six_bits(self, n, rng):
        for j in rng.choice(2**n, size=12, replace=False):
            omega = int(j) / 2**n
            rec = pe.sqft_estimate(pe.PhaseConfig(n=n, omega=omega), int(j) + 7)
            assert rec.estimate == pytest.approx(omega, abs=0)

    def test_monte_carlo_matches_exact_distribution(self):
        cfg = pe.PhaseConfig(n=4, omega=1.0 / 3.0)
        trials = 10**4
        counts = np.zeros(2**cfg.n)
        for seed in range(trials):
            rec = pe.sqft_estimate(cfg, seed)
            counts[int(round(rec.estimate * 2**cfg.n))] += 1
        exact = pe.exact_distribution(cfg)
        for j in range(2**cfg.n):
            sigma = math.sqrt(exact[j] * (1 - exact[j]) / trials)
            assert abs(counts[j] / trials - exact[j]) <= 3 * sigma + 1e-9, j


class TestOutcomeProb:
    def test_exact_match(self):
        assert pe.outcome_prob(0.375, 0.375, 4) == pytest.approx(1.0)

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError, match="at least one bit"):
            pe.outcome_prob(0.3, 0.25, 0)

    def test_normalization(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            omega = float(rng.uniform(0, 1))
            total = sum(pe.outcome_prob(omega, j / 2**n, n) for j in range(2**n))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_worst_case_rounding(self):
        n = 10
        prob = pe.outcome_prob(0.5 / 2**n, 0.0, n)
        assert prob == pytest.approx(4.0 / math.pi**2, abs=0.01)

    def test_distribution_property_bulk(self, rng):
        # Full-scale randomized sweep of the normalization property.
        n = 3
        worst = 0.0
        for omega in rng.uniform(0, 1, size=10**4):
            total = sum(pe.outcome_prob(float(omega), j / 2**n, n) for j in range(2**n))
            worst = max(worst, abs(total - 1.0))
        assert worst < 1e-10


class TestPhaseStates:
    """The columns of dft_matrix are the phase states
    |phi_j> = N^{-1/2} sum_k e^{i k phi} |k>, phi = 2 pi j / N."""

    def test_two_dim(self):
        F = pe.dft_matrix(2)
        np.testing.assert_allclose(F[:, 0], [1, 1] / np.sqrt(2), atol=1e-15)
        np.testing.assert_allclose(F[:, 1], [1, -1] / np.sqrt(2), atol=1e-15)

    def test_orthonormal(self):
        states = list(pe.dft_matrix(8).T)
        gram = np.array([[np.vdot(a, b) for b in states] for a in states])
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-12)

    def test_fourier_image_of_basis_states(self):
        n = 3
        F = pe.dft_matrix(2**n)
        k = np.arange(2**n)
        for j in range(2**n):
            e = np.zeros(2**n)
            e[j] = 1.0
            phase_state = np.exp(2j * math.pi * j * k / 2**n) / math.sqrt(2**n)
            np.testing.assert_allclose(F @ e, phase_state, atol=1e-12)


class TestMultiQubitPrepare:
    def test_zero_frequency_uniform(self):
        psi = pe.multi_qubit_prepare(pe.PhaseConfig(n=3, omega=0.0))
        np.testing.assert_allclose(psi, np.full(8, 1 / math.sqrt(8)), atol=1e-15)

    def test_equals_qubit_tensor_product(self):
        cfg = pe.PhaseConfig(n=3, omega=0.3)
        psi = pe.multi_qubit_prepare(cfg)
        factors = []
        for k in reversed(range(cfg.n)):  # qubit n-1 is the leading factor
            phase = np.exp(2j * math.pi * cfg.omega * 2**k)
            factors.append(np.array([1.0, phase]) / math.sqrt(2))
        expected = factors[0]
        for f in factors[1:]:
            expected = np.kron(expected, f)
        np.testing.assert_allclose(psi, expected, atol=1e-12)

    def test_terminating_frequency_certain_outcome(self):
        cfg = pe.PhaseConfig(n=3, omega=0.625)
        dist = pe.dft_measurement_distribution(cfg)
        assert dist[5] == pytest.approx(1.0, abs=1e-12)  # 0.625 * 8 = 5

    def test_distribution_equals_closed_form(self, rng):
        for omega in rng.uniform(0, 1, size=5):
            cfg = pe.PhaseConfig(n=4, omega=float(omega))
            np.testing.assert_allclose(
                pe.dft_measurement_distribution(cfg), pe.exact_distribution(cfg), atol=1e-12
            )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_distribution_equals_the_dft_matrix_form(self, n, rng):
        for omega in rng.uniform(0, 1, size=3):
            cfg = pe.PhaseConfig(n=n, omega=float(omega))
            amps = pe.dft_matrix(2**n).conj().T @ pe.multi_qubit_prepare(cfg)
            np.testing.assert_allclose(
                pe.dft_measurement_distribution(cfg), np.abs(amps) ** 2, rtol=0.0, atol=1e-14
            )

    def test_distribution_at_the_qubit_cap_builds_no_dft_matrix(self):
        # A 4,096 x 4,096 complex matrix would be 256 MiB.
        cfg = pe.PhaseConfig(n=pe.MAX_PREPARE_QUBITS, omega=0.3)
        np.fft.fft(np.ones(2))  # load numpy.fft outside the traced call
        tracemalloc.start()
        try:
            dist = pe.dft_measurement_distribution(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        np.testing.assert_allclose(dist, pe.exact_distribution(cfg), rtol=0.0, atol=1e-12)

    def test_adaptive_protocol_matches_product_state_statistics(self):
        cfg = pe.PhaseConfig(n=4, omega=1.0 / 3.0)
        trials = 10**4
        counts = np.zeros(2**cfg.n)
        for seed in range(trials):
            rec = pe.sqft_estimate(cfg, seed)
            counts[int(round(rec.estimate * 2**cfg.n))] += 1
        dist = pe.dft_measurement_distribution(cfg)
        for j in range(2**cfg.n):
            sigma = math.sqrt(dist[j] * (1 - dist[j]) / trials)
            assert abs(counts[j] / trials - dist[j]) <= 3 * sigma + 1e-9

    def test_size_limit(self):
        with pytest.raises(ResourceLimitError):
            pe.multi_qubit_prepare(pe.PhaseConfig(n=13, omega=0.1))
