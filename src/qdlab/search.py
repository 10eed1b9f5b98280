"""Continuous-time search for a marked basis state.

One of N projector Hamiltonians E|x><x| is active; adding the driving term
E|s><s| (s the uniform superposition) confines the dynamics to the plane
spanned by |s> and |x>, where the state flops onto |x> after
T = pi sqrt(N) / (2 E). The naive pairwise probe is included as the baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmath

# Above this size the dense path is wasteful; the two-level reduction is exact.
DENSE_LIMIT = 256


@dataclass(frozen=True)
class GroverInstance:
    dim: int
    marked: int
    energy: float = 1.0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dimension must be at least 2")
        if not 0 <= self.marked < self.dim:
            raise ValueError("marked index out of range")
        if not self.energy > 0:
            raise ValueError("energy must be positive")

    @property
    def flop_time(self) -> float:
        """Half-period of the |s> <-> |x> oscillation: pi sqrt(N) / (2 E)."""
        return math.pi * math.sqrt(self.dim) / (2.0 * self.energy)


def uniform_state(dim: int) -> np.ndarray:
    return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)


def grover_hamiltonian(inst: GroverInstance) -> np.ndarray:
    """E (|x><x| + |s><s|): eigenvalues E (1 +/- 1/sqrt(N)) on |s> +/- |x>,
    zero on the orthogonal complement."""
    s = uniform_state(inst.dim)
    H = inst.energy * np.outer(s, s.conj())
    H[inst.marked, inst.marked] += inst.energy
    return H


def _reduced_success(inst: GroverInstance, t: float) -> float:
    """Exact dynamics in the 2-D invariant subspace span{|x>, |s>}."""
    N, E = inst.dim, inst.energy
    overlap = 1.0 / math.sqrt(N)
    # Orthonormal basis {|x>, |r>} with |r> the normalized part of |s> - <x|s>|x>.
    r_norm = math.sqrt(1.0 - overlap**2)
    h = E * np.array(
        [
            [1.0 + overlap**2, overlap * r_norm],
            [overlap * r_norm, r_norm**2],
        ],
        dtype=complex,
    )
    psi0 = np.array([overlap, r_norm], dtype=complex)
    amp = qmath.expm_i(h, t) @ psi0
    return float(np.abs(amp[0]) ** 2)


def _dense_success(inst: GroverInstance, t: float) -> float:
    psi = qmath.expm_i(grover_hamiltonian(inst), t) @ uniform_state(inst.dim)
    return float(np.abs(psi[inst.marked]) ** 2)


def grover_success_probability(inst: GroverInstance, t: float) -> float:
    """Probability that a computational-basis measurement at time t finds the
    marked state, starting from |s>."""
    if inst.dim > DENSE_LIMIT:
        return _reduced_success(inst, t)
    return _dense_success(inst, t)


def grover_run(inst: GroverInstance):
    """Prepare |s>, evolve for the flop time, measure. Returns
    (success_probability, T)."""
    T = inst.flop_time
    return grover_success_probability(inst, T), T


def naive_probe(inst: GroverInstance, y: int, y_prime: int) -> float:
    """Prepare (|y> + |y'>)/sqrt(2), evolve under the bare projector
    Hamiltonian for pi/E, measure in the |+/-> pair. Returns the probability
    of the |-> outcome, which is 1 iff the marked state is y or y'."""
    if y == y_prime:
        raise ValueError("probe indices must differ")
    for idx in (y, y_prime):
        if not 0 <= idx < inst.dim:
            raise ValueError("probe index out of range")
    T = math.pi / inst.energy
    # H_x = E |x><x| is diagonal: phases are e^{-i T E delta_{k,x}} = -1 on x.
    phase_y = -1.0 if y == inst.marked else 1.0
    phase_yp = -1.0 if y_prime == inst.marked else 1.0
    amp_minus = 0.5 * (phase_y - phase_yp)
    return float(abs(amp_minus) ** 2)
