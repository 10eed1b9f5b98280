"""Evolution engines: closed-form unitary and noisy channels.

Implements unitary evolution of density matrices, the single-qubit depolarizing
channel in the Bloch picture, the basis-free symmetric-decoherence channel in any
dimension, and independent per-qubit depolarizing as one 4x4 local superoperator
applied qubit by qubit, in O(n 4^n) for n qubits. Each closed form is validated in the
tests against a generic fixed-step RK4 integrator of its master equation and a
Kraus-map oracle. The oracles (`independent_master_rhs`,
`kraus_apply_per_qubit`) build dense 2^n x 2^n operators on purpose, so that
they share no code path with the closed forms they check; only the Kraus pair
also serves the benchmark's dense-channels cross-check.

Rate convention: gamma is defined so the Bloch vector (or, in d dimensions,
the traceless part of rho) contracts as exp(-gamma t); the Kraus and Lindblad
parameters are derived from that, not vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import qmath
from .errors import ResourceLimitError, UnsupportedModelError

MAX_QUBITS = 10


class NoiseKind(Enum):
    NONE = "none"
    QUBIT_DEPOLARIZING = "qubit_depolarizing"
    INDEPENDENT_DEPOLARIZING = "independent_depolarizing"
    SYMMETRIC = "symmetric"


@dataclass(frozen=True)
class NoiseModel:
    """Decoherence specification: a kind plus a nonnegative rate."""

    kind: NoiseKind = NoiseKind.NONE
    gamma: float = 0.0

    def __post_init__(self):
        if not self.gamma >= 0:
            raise ValueError("gamma must be nonnegative")


@dataclass(frozen=True)
class FieldHamiltonian:
    """Qubit Hamiltonian (omega/2) a.sigma for a unit axis a."""

    omega: float
    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "axis", tuple(float(x) for x in qmath.check_axis(self.axis)))

    def matrix(self) -> np.ndarray:
        return 0.5 * self.omega * qmath.axis_operator(np.asarray(self.axis))


def generator_matrix(generator) -> np.ndarray:
    """The matrix of a generator given as a Hermitian ndarray or a FieldHamiltonian."""
    if isinstance(generator, FieldHamiltonian):
        return generator.matrix()
    return np.asarray(generator, dtype=complex)


def _check_rate_and_time(gamma: float, t: float) -> None:
    """The closed forms below are channels only for gamma >= 0 and t >= 0."""
    if not gamma >= 0:
        raise ValueError("gamma must be nonnegative")
    if not t >= 0:
        raise ValueError("duration must be nonnegative")


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """3x3 right-handed rotation by `angle` about the unit vector `axis`."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def evolve_depolarizing_qubit(P0, field: FieldHamiltonian, gamma: float, t: float) -> np.ndarray:
    """Closed form of dP/dt = omega (a x P) - gamma P.

    The polarization precesses about the field axis at omega while the length
    contracts as exp(-gamma t).
    """
    P0 = qmath.check_bloch(P0)
    _check_rate_and_time(gamma, t)
    R = rotation_about_axis(np.asarray(field.axis), field.omega * t)
    return np.exp(-gamma * t) * (R @ P0)


def evolve_symmetric(rho0, H, gamma: float, t: float) -> np.ndarray:
    """Closed form of drho/dt = -i[H, rho] - gamma (rho - I/d).

    rho(t) = exp(-gamma t) U rho0 U^dag + (1 - exp(-gamma t)) I/d. The
    contraction has no preferred basis, so it commutes with the rotation.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    H = np.asarray(H, dtype=complex)
    d = rho0.shape[0]
    if rho0.shape != (d, d) or H.shape != (d, d):
        raise ValueError("state and Hamiltonian dimensions do not match")
    _check_rate_and_time(gamma, t)
    U = qmath.expm_i(H, t)
    decay = np.exp(-gamma * t)
    return decay * (U @ rho0 @ U.conj().T) + (1.0 - decay) * np.eye(d) / d


def evolve_independent_depolarizing(
    rho0, n_qubits: int, local_field: FieldHamiltonian, gamma: float, t: float
) -> np.ndarray:
    """Identical local precession plus independent depolarizing on each qubit.

    Every qubit gets the same local channel: its (row, column) index pair is
    acted on by the 4x4 superoperator
    S = exp(-gamma t) (u (x) conj(u)) + (1 - exp(-gamma t)) |I/2><I|,
    with u = exp(-i t h) the local precession. rho0 is reordered once so that
    the n pairs are adjacent; each (d^2/4, 4) @ (4, 4) product then applies S
    to the leading pair and moves it to the back, so after n products the
    order is restored. The cost is O(n 4^n), against O(8^n) for the product
    unitary u^(x)n.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if n_qubits > MAX_QUBITS:
        raise ResourceLimitError(f"qubit count {n_qubits} exceeds {MAX_QUBITS}")
    dim = 2**n_qubits
    if rho0.shape != (dim, dim):
        raise ValueError(f"state dimension {rho0.shape[0]} is not 2^{n_qubits}")
    _check_rate_and_time(gamma, t)

    u = qmath.expm_i(local_field.matrix(), t)
    decay = np.exp(-gamma * t)
    vec_eye = np.eye(2).reshape(4)
    S = decay * np.einsum("ac,bd->abcd", u, u.conj()).reshape(4, 4)
    S += (1.0 - decay) * np.outer(vec_eye / 2, vec_eye)
    pairs = [axis for q in range(n_qubits) for axis in (q, n_qubits + q)]
    rho = rho0.reshape((2,) * (2 * n_qubits)).transpose(pairs)
    for _ in range(n_qubits):
        rho = rho.reshape(4, -1).T @ S.T
    return rho.reshape((2,) * (2 * n_qubits)).transpose(np.argsort(pairs)).reshape(dim, dim)


def apply_channel(rho0, H, noise: NoiseModel, t: float) -> np.ndarray:
    """Evolve a density matrix for time t under the generator H (a Hermitian
    ndarray or a FieldHamiltonian) and the channel selected by `noise`. The closed
    forms check the rate, the time and the state; n qubits have dimension 2^n."""
    rho0 = np.asarray(rho0, dtype=complex)
    if noise.kind is NoiseKind.INDEPENDENT_DEPOLARIZING:
        if not isinstance(H, FieldHamiltonian):
            raise UnsupportedModelError("independent depolarizing needs a FieldHamiltonian")
        n_qubits = rho0.shape[0].bit_length() - 1 if rho0.ndim else 0
        return evolve_independent_depolarizing(rho0, n_qubits, H, noise.gamma, t)
    if noise.kind is NoiseKind.QUBIT_DEPOLARIZING and rho0.shape != (2, 2):
        raise ValueError("qubit depolarizing requires a single qubit")
    # NONE is the uniform contraction at rate 0. SYMMETRIC, and QUBIT_DEPOLARIZING:
    # on a qubit the uniform contraction and the Bloch closed form agree.
    gamma = 0.0 if noise.kind is NoiseKind.NONE else noise.gamma
    return evolve_symmetric(rho0, generator_matrix(H), gamma, t)


# ---------------------------------------------------------------------------
# Oracles: rk4_integrate and the *_master_rhs serve only the tests; perfbench's
# dense-channels cross-check also imports depolarizing_kraus and kraus_apply_per_qubit.
# ---------------------------------------------------------------------------


def rk4_integrate(deriv, y0: np.ndarray, t: float, step: float) -> np.ndarray:
    """Classical fixed-step RK4, independent of every closed form above."""
    if t < 0 or step <= 0:
        raise ValueError("need t >= 0 and step > 0")
    y = np.array(y0, dtype=complex if np.iscomplexobj(y0) else float)
    n_steps = int(np.ceil(t / step))
    h = t / n_steps if n_steps else 0.0
    for _ in range(n_steps):
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * h * k1)
        k3 = deriv(y + 0.5 * h * k2)
        k4 = deriv(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def bloch_master_rhs(field: FieldHamiltonian, gamma: float):
    a = np.asarray(field.axis)
    omega = field.omega

    def rhs(P):
        return omega * np.cross(a, P) - gamma * P

    return rhs


def symmetric_master_rhs(H: np.ndarray, gamma: float):
    d = H.shape[0]
    eye = np.eye(d) / d

    def rhs(rho):
        return -1j * (H @ rho - rho @ H) - gamma * (rho - eye)

    return rhs


def independent_master_rhs(local_field: FieldHamiltonian, n: int, gamma: float):
    h = local_field.matrix()
    dims = [2] * n
    terms = []
    for q in range(n):
        ops = [np.eye(2, dtype=complex)] * n
        ops[q] = h
        terms.append(qmath.tensor(*ops) if n > 1 else h)
    H = sum(terms)

    def rhs(rho):
        out = -1j * (H @ rho - rho @ H)
        for q in range(n):
            reduced = qmath.partial_trace(rho, dims, [i for i in range(n) if i != q])
            d_left = 2**q
            d_right = 2 ** (n - q - 1)
            left = reduced.reshape(d_left, d_right, d_left, d_right)
            id_part = np.einsum("abcd,ef->aebcfd", left, np.eye(2) / 2).reshape(rho.shape)
            out = out + gamma * (id_part - rho)
        return out

    return rhs


def depolarizing_kraus(gamma: float, t: float) -> list[np.ndarray]:
    """Single-qubit Kraus set whose Bloch contraction is exp(-gamma t)."""
    p = 1.0 - np.exp(-gamma * t)
    ops = [np.sqrt(1.0 - 3.0 * p / 4.0) * np.eye(2, dtype=complex)]
    ops += [np.sqrt(p / 4.0) * s for s in qmath.PAULIS]
    return ops


def kraus_apply_per_qubit(rho: np.ndarray, n: int, kraus: list[np.ndarray]) -> np.ndarray:
    """Apply a single-qubit Kraus map to every qubit of an n-qubit state."""
    out = rho
    for q in range(n):
        acc = np.zeros_like(out)
        for K in kraus:
            ops = [np.eye(2, dtype=complex)] * n
            ops[q] = K
            Kq = qmath.tensor(*ops) if n > 1 else K
            acc = acc + Kq @ out @ Kq.conj().T
        out = acc
    return out
