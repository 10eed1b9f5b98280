"""Spectral-arc inequalities for products of unitaries.

For a unitary U, maxarg/minarg are the extremal eigenvalue arguments on
(-pi, pi]. Adding a time-independent driving term K to a Hamiltonian H with
sup norm below pi can never widen the spectral arc of the comparison unitary
e^{iK} e^{-i(H+K)} beyond that of e^{-iH}; this module checks the two
inequalities case by case, verifies arc subadditivity for products, measures
the first-order convergence of the exponential splitting, and searches for
violations outside the sup-norm regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmath, tolerances


@dataclass(frozen=True)
class ArcBoundCase:
    """One evaluated instance of the arc-bound inequalities."""

    H: np.ndarray
    K: np.ndarray
    lhs_max: float
    rhs_max: float
    lhs_min: float
    rhs_min: float
    holds: bool
    in_regime: bool  # sup norm of H below pi

    @property
    def max_violation(self) -> float:
        """Positive when an inequality fails: how far past the bound."""
        return max(self.lhs_max - self.rhs_max, self.rhs_min - self.lhs_min)


@dataclass(frozen=True)
class ArcSubadditivityCase:
    applicable: bool
    holds: bool
    lhs_max: float
    rhs_max: float
    lhs_min: float
    rhs_min: float


def maxarg(U) -> float:
    """Largest eigenvalue argument of a unitary, on (-pi, pi]."""
    return float(qmath.unitary_args(U)[-1])


def minarg(U) -> float:
    """Smallest eigenvalue argument of a unitary, on (-pi, pi]."""
    return float(qmath.unitary_args(U)[0])


def arc_bound_check(H, K, tol: float = tolerances.ARC_CHECK) -> ArcBoundCase:
    """Evaluate maxarg(e^{iK} e^{-i(H+K)}) <= maxarg(e^{-iH}) and the minarg
    counterpart.

    Cases with sup norm of H at or above pi are evaluated anyway and labeled
    out-of-regime; there the inequalities may genuinely fail.
    """
    H = np.asarray(H, dtype=complex)
    K = np.asarray(K, dtype=complex)
    W = qmath.expm_i(K, -1.0) @ qmath.expm_i(H + K, 1.0)
    args_w = qmath.unitary_args(W)
    args_h = qmath.unitary_args(qmath.expm_i(H, 1.0))
    lhs_max, lhs_min = float(args_w[-1]), float(args_w[0])
    rhs_max, rhs_min = float(args_h[-1]), float(args_h[0])
    holds = (lhs_max <= rhs_max + tol) and (lhs_min >= rhs_min - tol)
    return ArcBoundCase(
        H=H,
        K=K,
        lhs_max=lhs_max,
        rhs_max=rhs_max,
        lhs_min=lhs_min,
        rhs_min=rhs_min,
        holds=holds,
        in_regime=qmath.sup_norm(H) < math.pi,
    )


def arc_subadditivity_check(U1, U2, tol: float = tolerances.ARC_CHECK) -> ArcSubadditivityCase:
    """maxarg(U1 U2) <= maxarg(U1) + maxarg(U2), and the minarg counterpart,
    valid when the summed maxargs stay below pi and the summed minargs above
    -pi. Inapplicable inputs are flagged, not judged."""
    m1, m2 = maxarg(U1), maxarg(U2)
    n1, n2 = minarg(U1), minarg(U2)
    if m1 + m2 >= math.pi or n1 + n2 <= -math.pi:
        return ArcSubadditivityCase(False, False, math.nan, m1 + m2, math.nan, n1 + n2)
    prod_args = qmath.unitary_args(np.asarray(U1, dtype=complex) @ np.asarray(U2, dtype=complex))
    lhs_max, lhs_min = float(prod_args[-1]), float(prod_args[0])
    holds = (lhs_max <= m1 + m2 + tol) and (lhs_min >= n1 + n2 - tol)
    return ArcSubadditivityCase(True, holds, lhs_max, m1 + m2, lhs_min, n1 + n2)


def splitting_residual(H, K, n: int) -> float:
    """Sup-norm distance between (e^{-iH/n} e^{-iK/n})^n and e^{-i(H+K)}.

    Converges at first order in 1/n; the commuting case is exact.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    H = np.asarray(H, dtype=complex)
    K = np.asarray(K, dtype=complex)
    step = qmath.expm_i(H, 1.0 / n) @ qmath.expm_i(K, 1.0 / n)
    prod = np.linalg.matrix_power(step, n)
    return float(np.linalg.norm(prod - qmath.expm_i(H + K, 1.0), 2))


def random_hermitian(dim: int, sup: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian Hermitian matrix rescaled to the requested sup norm."""
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Hm = (A + A.conj().T) / 2
    current = qmath.sup_norm(Hm)
    if current == 0.0:
        return Hm
    return Hm * (sup / current)


def _recheck_high_precision(H, K, margin: float) -> bool:
    """Re-verify a candidate violation along an independent numerical path:
    Pade exponentials and Schur eigenvalues instead of eigh/eig."""
    import scipy.linalg  # the only use of scipy, so `import qdlab` does not load it
    W = scipy.linalg.expm(1j * K) @ scipy.linalg.expm(-1j * (H + K))
    T, _ = scipy.linalg.schur(W, output="complex")
    args_w = np.sort(np.angle(np.diag(T)))
    T2, _ = scipy.linalg.schur(scipy.linalg.expm(-1j * H), output="complex")
    args_h = np.sort(np.angle(np.diag(T2)))
    viol = max(args_w[-1] - args_h[-1], args_h[0] - args_w[0])
    return viol > margin


def counterexample_search(
    dim: int,
    trials: int,
    rng_seed: int,
    margin: float = 1e-6,
    sup_range: tuple[float, float] = (math.pi, 1.5 * math.pi),
) -> list[ArcBoundCase]:
    """Randomized search for arc-bound violations, sampling the sup norm of
    H from `sup_range` (default: just past the bound's regime).

    Every candidate is re-verified by an independent high-precision
    recomputation before being reported. An empty list is a valid result;
    per-trial randomness is derived from the root seed by counter so runs
    parallelize reproducibly.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    lo, hi = sup_range
    if not 0 <= lo <= hi:
        raise ValueError("invalid sup-norm range")
    found = []
    root = np.random.SeedSequence(rng_seed)
    for child in root.spawn(trials):
        rng = np.random.default_rng(child)
        H = random_hermitian(dim, rng.uniform(lo, hi), rng)
        K = random_hermitian(dim, rng.uniform(0.1, 10.0), rng)
        case = arc_bound_check(H, K)
        if case.max_violation > margin and _recheck_high_precision(H, K, margin):
            found.append(case)
    return found
