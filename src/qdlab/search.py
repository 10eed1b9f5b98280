"""Continuous-time search for a marked basis state.

One of N projector Hamiltonians E|x><x| is active; adding the driving term
E|s><s| (s the uniform superposition) confines the dynamics to the plane
spanned by |s> and |x>, where the state flops onto |x> after
T = pi sqrt(N) / (2 E).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmath


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
        if not math.isfinite(self.flop_time):
            raise ValueError(f"flop time overflows at energy {self.energy!r}")

    @property
    def flop_time(self) -> float:
        """Half-period of the |s> <-> |x> oscillation: pi sqrt(N) / (2 E),
        formed as (pi / 2) sqrt(N) / E so that no 2 E overflows."""
        return (math.pi / 2.0) * math.sqrt(self.dim) / self.energy


def uniform_state(dim: int) -> np.ndarray:
    return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)


def grover_hamiltonian(inst: GroverInstance) -> np.ndarray:
    """E (|x><x| + |s><s|): eigenvalues E (1 +/- 1/sqrt(N)) on |s> +/- |x>,
    zero on the orthogonal complement; the dense oracle for the two-level form."""
    s = uniform_state(inst.dim)
    H = inst.energy * np.outer(s, s.conj())
    H[inst.marked, inst.marked] += inst.energy
    return H


def grover_success_probability(inst: GroverInstance, t: float) -> float:
    """Probability that a computational-basis measurement at time t finds the
    marked state, starting from |s>: exact dynamics in span{|x>, |s>}."""
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


def grover_run(inst: GroverInstance):
    """Prepare |s>, evolve for the flop time, measure. Returns
    (success_probability, T)."""
    T = inst.flop_time
    return grover_success_probability(inst, T), T
