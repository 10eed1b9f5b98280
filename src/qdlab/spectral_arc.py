"""Spectral-arc inequalities for products of unitaries.

For a unitary U, maxarg/minarg are the extremal eigenvalue arguments on
(-pi, pi]. Adding a time-independent driving term K to a Hamiltonian H with
sup norm below pi can never widen the spectral arc of the comparison unitary
e^{iK} e^{-i(H+K)} beyond that of e^{-iH}; this module checks the two
inequalities on stacks of cases, sweeps them over seeded random pairs,
verifies arc subadditivity for products, measures the first-order
convergence of the exponential splitting, and searches for violations outside
the sup-norm regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import qmath, tolerances


@dataclass(frozen=True)
class ArcBoundCases:
    """The arc-bound inequalities evaluated on a stack of n cases: H and K
    have shape (n, d, d), every other field shape (n,). One case is the same
    record with (d, d) generators and Python scalars; as for a 0-d array,
    len and select apply to stacks only."""

    H: np.ndarray
    K: np.ndarray
    lhs_max: np.ndarray
    rhs_max: np.ndarray
    lhs_min: np.ndarray
    rhs_min: np.ndarray
    holds: np.ndarray
    in_regime: np.ndarray  # sup norm of H below pi

    @property
    def max_violation(self) -> np.ndarray:
        """Positive where an inequality fails: how far past the bound, as Python
        max takes it (ties and NaN keep the first); a scalar for one case."""
        a, b = self.lhs_max - self.rhs_max, self.rhs_min - self.lhs_min
        return np.where(b > a, b, a)[()]

    def __len__(self) -> int:
        return len(self.holds)

    def __iter__(self):
        """Each case on its own, its H and K views into the stack."""
        scalars = (getattr(self, f.name).tolist() for f in fields(self)[2:])
        for values in zip(self.H, self.K, *scalars):
            yield ArcBoundCases(*values)

    def select(self, rows) -> ArcBoundCases:
        """The cases at `rows`, a boolean mask or an array of indices."""
        return ArcBoundCases(*(getattr(self, f.name)[rows] for f in fields(self)))


@dataclass(frozen=True)
class ArcBoundSweep:
    """Summary of arc-bound cases over seeded random (H, K) pairs."""

    holds: int
    worst_violation: float
    flagged: ArcBoundCases  # cases past the sweep's margin, in trial order


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


def arc_bound_cases(H, K) -> ArcBoundCases:
    """Evaluate maxarg(e^{iK} e^{-i(H+K)}) <= maxarg(e^{-iH}) and the minarg
    counterpart on each pair of the (n, d, d) stacks H and K.

    Cases with sup norm of H at or above pi are evaluated anyway and labeled
    out-of-regime; there the inequalities may genuinely fail.
    """
    H, K = np.asarray(H, dtype=complex), np.asarray(K, dtype=complex)
    return _arc_cases(H, qmath.herm_eig(H)[0], K, *qmath.herm_eig(K))


def _arc_cases(H, w_h, K, w_k, V_k) -> ArcBoundCases:
    """`arc_bound_cases` given H's eigenvalues w_h and K's eigendecomposition:
    e^{iK} is rebuilt from the latter and e^{-iH}'s arguments are those of
    exp(-i w_h), so only H + K and W are diagonalized."""
    U = qmath.expm_i(H + K, 1.0)  # first, so that fewer (n, d, d) temporaries coexist
    W = qmath._eig_expm_i(w_k, V_k, -1.0) @ U
    lhs_min, lhs_max = qmath.unitary_args(W)[:, [0, -1]].T
    rhs_min, rhs_max = qmath._eig_unitary_args(w_h)[:, [0, -1]].T
    tol = tolerances.ARC_CHECK
    holds = (lhs_max <= rhs_max + tol) & (lhs_min >= rhs_min - tol)
    in_regime = np.max(np.abs(w_h), axis=-1) < math.pi
    return ArcBoundCases(H, K, lhs_max, rhs_max, lhs_min, rhs_min, holds, in_regime)


def arc_bound_check(H, K) -> ArcBoundCases:
    """`arc_bound_cases` for one pair of matrices."""
    return next(iter(arc_bound_cases(np.asarray(H)[None], np.asarray(K)[None])))


def arc_subadditivity_check(U1, U2) -> ArcSubadditivityCase:
    """maxarg(U1 U2) <= maxarg(U1) + maxarg(U2), and the minarg counterpart,
    valid when the summed maxargs stay below pi and the summed minargs above
    -pi. Inapplicable inputs are flagged, not judged."""
    # One spectrum per factor: its smallest and largest arguments.
    (n1, m1), (n2, m2) = (qmath.unitary_args(U)[[0, -1]].tolist() for U in (U1, U2))
    if m1 + m2 >= math.pi or n1 + n2 <= -math.pi:
        return ArcSubadditivityCase(False, False, math.nan, m1 + m2, math.nan, n1 + n2)
    prod_args = qmath.unitary_args(np.asarray(U1, dtype=complex) @ np.asarray(U2, dtype=complex))
    lhs_max, lhs_min = float(prod_args[-1]), float(prod_args[0])
    tol = tolerances.ARC_CHECK
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


def _hermitian_stack(g: np.ndarray, sup):
    """The Hermitian matrices (A + A^dag)/2, A = g[:, 0] + 1j g[:, 1], of the (n, 2, d, d)
    standard normals g, matrix i rescaled to sup norm `sup[i]` (or `sup`), their spectra
    and the unscaled matrices' eigenvectors, from one `herm_eig`; a zero matrix stays zero."""
    Hm = g[:, 0] + 1j * g[:, 1]
    Hm += Hm.conj().swapaxes(-1, -2)
    Hm /= 2  # in place, so that fewer (n, d, d) temporaries coexist
    w, V = qmath.herm_eig(Hm)
    current = np.max(np.abs(w), axis=-1)
    scale = sup / np.where(current == 0.0, 1.0, current)
    return Hm * scale[:, None, None], w * scale[:, None], V


# Largest n * d * d of one (n, d, d) generator stack in the seeded sweeps: 512 KiB
# per complex stack, so memory stays flat however many trials a sweep runs.
_ARC_BLOCK_ELEMS = 1 << 15


def _random_hermitians(count: int, dim: int, sup: float, rng: np.random.Generator):
    """`count` Gaussian Hermitian matrices of sup norm `sup`, matrix k built from the
    k-th (2, dim, dim) block of normals that rng draws, with one rng.normal call per
    stack of at most _ARC_BLOCK_ELEMS elements."""
    out = np.empty((count, dim, dim), dtype=complex)
    chunk = max(1, _ARC_BLOCK_ELEMS // max(1, dim * dim))
    for start in range(0, count, chunk):
        g = rng.normal(size=(min(chunk, count - start), 2, dim, dim))
        out[start:start + len(g)] = _hermitian_stack(g, sup)[0]
    return out


def random_hermitian(dim: int, sup: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian Hermitian matrix rescaled to the requested sup norm."""
    return _random_hermitians(1, dim, sup, rng)[0]


def _generator_blocks(dim: int, count: int, seed: int, *sup_rules):
    """Per block of at most _ARC_BLOCK_ELEMS // dim^2 trials, one `_hermitian_stack`
    (matrices, spectra, eigenvectors) per rule, in rule order: trial i draws from the
    i-th child of SeedSequence(seed), per rule a sup norm rule(rng) and then
    rng.normal(size=(2, dim, dim))."""
    block = max(1, _ARC_BLOCK_ELEMS // max(1, dim * dim))
    rngs = qmath.spawned_rngs(seed, count)
    for start in range(0, count, block):
        size = min(block, count - start)
        sups = np.empty((len(sup_rules), size))
        g = np.empty((len(sup_rules), size, 2, dim, dim))
        for i in range(size):
            rng = next(rngs)
            for j, rule in enumerate(sup_rules):
                sups[j, i] = rule(rng)
                g[j, i] = rng.normal(size=(2, dim, dim))
        yield [_hermitian_stack(normals, sup) for normals, sup in zip(g, sups)]


def arc_bound_sweep(
    dim: int,
    trials: int,
    seed: int,
    h_sup: tuple[float, float],
    k_sup: tuple[float, float],
    margin: float = math.inf,
) -> ArcBoundSweep:
    """`arc_bound_cases` over `trials` random pairs of dim x dim generators.

    Trial i draws from the i-th child of SeedSequence(seed): a sup norm
    uniform on `h_sup` and then H, a sup norm uniform on `k_sup` and then K,
    each as `random_hermitian` draws them. Trials are evaluated in stacks of
    at most _ARC_BLOCK_ELEMS elements, each with 3 `herm_eig` and 1 `unitary_args`
    calls (the rescale's `herm_eig` also gives H's spectrum and e^{iK}); rows equal
    the one-trial formula. Cases past `margin` are returned as one stack, flagged.
    """
    if dim < 1 or trials < 1:
        raise ValueError("dim and trials must be at least 1")
    holds, worst, flagged = 0, -math.inf, []
    rules = (lambda rng: rng.uniform(*h_sup), lambda rng: rng.uniform(*k_sup))
    for (H, w_h, _), eig_k in _generator_blocks(dim, trials, seed, *rules):
        cases = _arc_cases(H, w_h, *eig_k)
        violation = cases.max_violation
        holds += int(np.count_nonzero(cases.holds))
        # argmax takes the first of equal maxima, as a running max() does.
        worst = max(worst, float(violation[np.argmax(violation)]))
        flagged.append(cases.select(violation > margin))
    joined = (np.concatenate([getattr(c, f.name) for c in flagged]) for f in fields(ArcBoundCases))
    return ArcBoundSweep(holds, worst, ArcBoundCases(*joined))


def _recheck_high_precision(H, K, margin: float) -> list[bool]:
    """Re-verify the candidate violations of the (n, d, d) stacks H and K along
    an independent numerical path: Pade exponentials, run once per stack, and
    Schur eigenvalues, one case at a time, instead of eigh/eig. Returns, per
    case, whether the violation exceeds `margin`."""
    import scipy.linalg  # the only use of scipy, so `import qdlab` does not load it
    W = scipy.linalg.expm(1j * K) @ scipy.linalg.expm(-1j * (H + K))
    args = np.array([np.sort(np.angle(np.diag(scipy.linalg.schur(U, output="complex")[0])))
                     for stack in (W, scipy.linalg.expm(-1j * H)) for U in stack])
    args_w, args_h = args.reshape(2, *H.shape[:2])
    return list(np.maximum(args_w[:, -1] - args_h[:, -1], args_h[:, 0] - args_w[:, 0]) > margin)


def counterexample_search(dim: int, trials: int, rng_seed: int) -> ArcBoundCases:
    """Randomized search for arc-bound violations just past the bound's regime:
    one `arc_bound_sweep` over `trials` pairs, the sup norm of H uniform on
    [pi, 1.5 pi] and that of K on [0.1, 10].

    Every candidate, a case past SEARCH_MARGIN, is re-verified by an independent
    high-precision recomputation; the confirmed cases are returned as one stack in
    trial order, possibly empty. Trial i draws from the i-th child of
    SeedSequence(rng_seed), so the result depends on the seed alone.
    """
    margin = tolerances.SEARCH_MARGIN
    flagged = arc_bound_sweep(dim, trials, rng_seed, (math.pi, 1.5 * math.pi), (0.1, 10.0),
                              margin).flagged
    return flagged.select(_recheck_high_precision(flagged.H, flagged.K, margin))
