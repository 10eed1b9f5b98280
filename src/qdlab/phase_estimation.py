"""Adaptive bitwise frequency estimation.

A single probe qubit is exposed to the field for exponentially staged times;
after each exposure a classically controlled phase correction removes the
already-measured bits and a +/- basis measurement reads the next bit, from the
least significant upward. This measures the frequency to n bits using n
single-qubit measurements, and its outcome statistics coincide exactly with a
discrete-Fourier-transform measurement on the corresponding n-qubit product
state.

Phase bookkeeping follows the package-wide convention U(t) = exp(-i t H) with
H = (omega/2) sigma_z, under which (|0> + |1>)/sqrt(2) acquires the relative
phase e^{+i omega t} on |1>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmath
from .errors import ResourceLimitError

MAX_PREPARE_QUBITS = 12


@dataclass(frozen=True)
class PhaseConfig:
    """Number of bits to estimate and the true frequency in [0, 1)."""

    n: int
    omega: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one bit")
        if not 0.0 <= self.omega < 1.0:
            raise ValueError("omega must lie in [0, 1)")


@dataclass(frozen=True)
class MeasurementRecord:
    """Bits in measurement order (least significant first) and the estimate."""

    bits: tuple[int, ...]

    @property
    def estimate(self) -> float:
        # bits[0] is omega_n (LSB), bits[-1] is omega_1 (MSB).
        n = len(self.bits)
        return sum(b * 2.0 ** -(n - i) for i, b in enumerate(self.bits))


def _staged_bits(cfg: PhaseConfig, draws: np.ndarray) -> np.ndarray:
    """Bits, least significant first, of one run of the adaptive protocol per
    row of `draws`, a (trials, n) array of uniform draws in stage order.

    At stage k the probe phase is pi * (2^k omega mod 2); the known tail
    0.b_{k+1}...b_n is subtracted by a controlled phase before the +/-
    measurement, leaving a deterministic outcome whenever omega terminates
    within n bits. A draw at or above p(+) reads 1.
    """
    bits = np.empty(draws.shape, dtype=np.int64)
    tail = np.zeros(len(draws))  # 0.b_{k+1}...b_n as a binary fraction
    for i, k in enumerate(range(cfg.n, 0, -1)):
        phase = math.pi * math.fmod((2.0**k) * cfg.omega, 2.0)
        bits[:, i] = draws[:, i] >= np.cos((phase - math.pi * tail) / 2.0) ** 2
        tail = 0.5 * (bits[:, i] + tail)
    return bits


def sqft_estimate(cfg: PhaseConfig, rng_seed: int) -> MeasurementRecord:
    """Run the adaptive protocol once with draws from default_rng(rng_seed)."""
    bits = _staged_bits(cfg, np.random.default_rng(rng_seed).random((1, cfg.n)))[0]
    return MeasurementRecord(bits=tuple(bits.tolist()))


def sample_counts(cfg: PhaseConfig, seed: int, trials: int) -> np.ndarray:
    """Counts of each estimate j / 2^n over `trials` runs, all staged together.
    Trial i is sqft_estimate(cfg, c) with c the i-th child of SeedSequence(seed),
    its n uniforms drawn with every other trial's by `qmath.child_uniforms`."""
    _check_qubits(cfg)
    index = _staged_bits(cfg, qmath.child_uniforms(seed, trials, cfg.n)) @ (1 << np.arange(cfg.n))
    return np.bincount(index, minlength=2**cfg.n)


def outcome_prob(omega: float, omega_tilde: float, n: int) -> float:
    """Probability that the n-bit protocol returns the estimate omega_tilde.

    Closed form of |2^-n sum_y exp(-2 pi i y (omega - omega_tilde))|^2:
    sin^2(2^n pi d) / (2^{2n} sin^2(pi d)) with d = omega - omega_tilde and
    the d -> 0 limit equal to 1.
    """
    if n < 1:
        raise ValueError("need at least one bit")
    N = 2**n
    delta = omega - omega_tilde
    s = math.sin(math.pi * delta)
    if abs(s) < 1e-15:
        return 1.0
    return (math.sin(N * math.pi * delta) / (N * s)) ** 2


def _check_qubits(cfg: PhaseConfig) -> None:
    """Refuse n-qubit work whose 2^n-entry arrays exceed the desk-scale cap."""
    if cfg.n > MAX_PREPARE_QUBITS:
        raise ResourceLimitError(f"{cfg.n} qubits exceeds {MAX_PREPARE_QUBITS}")


def exact_distribution(cfg: PhaseConfig) -> np.ndarray:
    """outcome_prob evaluated on every n-bit estimate j / 2^n."""
    _check_qubits(cfg)
    N = 2**cfg.n
    return np.array([outcome_prob(cfg.omega, j / N, cfg.n) for j in range(N)])


def dft_matrix(N: int) -> np.ndarray:
    """Unitary DFT, F[k, j] = e^{2 pi i k j / N} / sqrt(N); columns are the
    phase states."""
    k = np.arange(N)
    return np.exp(2j * math.pi * np.outer(k, k) / N) / math.sqrt(N)


def multi_qubit_prepare(cfg: PhaseConfig) -> np.ndarray:
    """Product state whose DFT measurement reproduces the adaptive protocol.

    Qubit k (k = 0..n-1) is exposed for time 2 pi 2^k, giving the state
    2^{-n/2} sum_y e^{2 pi i omega y} |y>.
    """
    _check_qubits(cfg)
    y = np.arange(2**cfg.n)
    return np.exp(2j * math.pi * cfg.omega * y) / math.sqrt(2**cfg.n)


def dft_measurement_distribution(cfg: PhaseConfig) -> np.ndarray:
    """|amplitudes|^2 after projecting the product state onto the phase
    basis; equals exact_distribution. The amplitudes F^dagger psi of
    dft_matrix's F are fft(psi) / sqrt(N), without building the N x N matrix."""
    psi = multi_qubit_prepare(cfg)
    amps = np.fft.fft(psi) / math.sqrt(psi.size)  # numpy loads numpy.fft on first use
    return np.abs(amps) ** 2
