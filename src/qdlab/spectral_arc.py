"""Spectral-arc inequalities for products of unitaries.

For a unitary U, maxarg/minarg are the extremal eigenvalue arguments on
(-pi, pi]. Adding a time-independent driving term K to a Hamiltonian H with
sup norm below pi can never widen the spectral arc of the comparison unitary
e^{iK} e^{-i(H+K)} beyond that of e^{-iH}; this module checks the two
inequalities on stacks of cases, sweeps them over seeded random pairs, and
searches for violations outside the sup-norm regime.
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


def _hermitian_stack(g: np.ndarray, sup):
    """The Hermitian matrices (A + A^dag)/2, A = g[:, 0] + 1j g[:, 1], of the C-contiguous
    (n, 2, d, d) standard normals g, built in g's own bytes, matrix i rescaled to sup norm
    `sup[i]` (or `sup`), their spectra and the unscaled matrices' eigenvectors, from one
    `herm_eig`; a zero matrix stays zero."""
    Hm = np.add(g[:, 0], 1j * g[:, 1], out=g.reshape(-1).view(complex).reshape(g[:, 0].shape))
    Hm += Hm.conj().swapaxes(-1, -2)
    Hm /= 2  # in place, so that fewer (n, d, d) temporaries coexist
    w, V = qmath.herm_eig(Hm)
    current = np.max(np.abs(w), axis=-1)
    scale = sup / np.where(current == 0.0, 1.0, current)
    return np.multiply(Hm, scale[:, None, None], out=Hm), w * scale[:, None], V


# Largest n * d * d of one (n, d, d) generator stack in the seeded sweeps: 512 KiB
# per complex stack, so memory stays flat however many trials a sweep runs.
_ARC_BLOCK_ELEMS = 1 << 15


def random_hermitian(dim: int, sup: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian Hermitian matrix rescaled to the requested sup norm."""
    return _hermitian_stack(rng.standard_normal((1, 2, dim, dim)), sup)[0][0]


def _generator_blocks(dim: int, count: int, seed: int, *sup_rules):
    """Per block of at most _ARC_BLOCK_ELEMS // dim^2 trials, one `_hermitian_stack`
    (matrices, spectra, eigenvectors) per rule, in rule order: trial i draws from the
    i-th child of SeedSequence(seed), per rule (scale, low, high) a sup norm
    scale * rng.uniform(low, high) and then rng.normal(size=(2, dim, dim)), drawn as
    rng.random() and rng.standard_normal(out=); per block, uniform's arithmetic gives
    the sup norms. uniform's range checks run once, before any draw."""
    rules = [(float(s), float(low), float(high) - float(low)) for s, low, high in sup_rules]
    for _, _, span in rules:
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span < 0:
            raise ValueError("high - low < 0")
    block = max(1, _ARC_BLOCK_ELEMS // max(1, dim * dim))
    rngs = qmath.spawned_rngs(seed, count)
    for start in range(0, count, block):
        size = min(block, count - start)
        u = np.empty((len(rules), size))
        g = np.empty((len(rules), size, 2, dim, dim))
        for i in range(size):
            rng = next(rngs)
            for j in range(len(rules)):
                u[j, i] = rng.random()
                rng.standard_normal(out=g[j, i])
        yield [_hermitian_stack(normals, scale * (low + span * uj))
               for normals, uj, (scale, low, span) in zip(g, u, rules)]


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
    rng.uniform(*h_sup) and then H, a sup norm rng.uniform(*k_sup) and then K,
    each as `random_hermitian` draws them; a range uniform refuses raises its error
    before any draw. Trials are evaluated in stacks of at most _ARC_BLOCK_ELEMS
    elements, each with 3 `herm_eig` and 1 `unitary_args` calls (the rescale's
    `herm_eig` also gives H's spectrum and e^{iK}); rows equal the one-trial
    formula. Cases past `margin` are returned as one stack, flagged.
    """
    if dim < 1 or trials < 1:
        raise ValueError("dim and trials must be at least 1")
    holds, worst, flagged = 0, -math.inf, []
    rules = (1.0, *h_sup), (1.0, *k_sup)
    for (H, w_h, _), eig_k in _generator_blocks(dim, trials, seed, *rules):
        cases = _arc_cases(H, w_h, *eig_k)
        violation = cases.max_violation
        holds += int(np.count_nonzero(cases.holds))
        # argmax takes the first of equal maxima, as a running max() does.
        worst = max(worst, float(violation[np.argmax(violation)]))
        flagged.append(cases.select(violation > margin))
    joined = (np.concatenate([getattr(c, f.name) for c in flagged]) for f in fields(ArcBoundCases))
    return ArcBoundSweep(holds, worst, ArcBoundCases(*joined))


# Higham (2005): the degree-13 Pade coefficients b_j = (26 - j)! / (j! (13 - j)!) of e^x and
# theta_13, the largest 1-norm at which its backward error stays below double-precision roundoff.
_PADE13 = [math.perm(26 - j, 13) // math.factorial(j) for j in range(14)]
_THETA13 = 5.371920351148152


def _expm(A: np.ndarray) -> np.ndarray:
    """e^A for each matrix of the (n, d, d) stack A, with no eigendecomposition: the Pade-13
    approximant of A / 2^s squared s times, s set once per stack by its largest 1-norm."""
    norm = np.abs(A).sum(axis=-2).max(initial=0.0)
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    A, b, ident = A / 2**s, _PADE13, np.eye(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2
             + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2
         + b[0] * ident)
    return np.linalg.matrix_power(np.linalg.solve(V - U, V + U), 2**s)


def _recheck_independently(H, K, margin: float) -> list[bool]:
    """Re-verify the candidate violations of the (n, d, d) stacks H and K in
    double precision along an independent numerical path: Pade exponentials
    (`_expm`) instead of eigh, in blocks of at most _ARC_BLOCK_ELEMS elements.
    Returns, per case, whether the violation exceeds `margin`."""
    block, confirmed = max(1, _ARC_BLOCK_ELEMS // H.shape[-1] ** 2), []
    for start in range(0, len(H), block):
        h, k = H[start:start + block], K[start:start + block]
        W = _expm(1j * k) @ _expm(-1j * (h + k))
        args_w, args_h = (qmath.unitary_args(U) for U in (W, _expm(-1j * h)))
        violation = np.maximum(args_w[:, -1] - args_h[:, -1], args_h[:, 0] - args_w[:, 0])
        confirmed += (violation > margin).tolist()
    return confirmed


def counterexample_search(dim: int, trials: int, rng_seed: int) -> ArcBoundCases:
    """Randomized search for arc-bound violations just past the bound's regime:
    one `arc_bound_sweep` over `trials` pairs, the sup norm of H uniform on
    [pi, 1.5 pi] and that of K on [0.1, 10].

    Every candidate, a case past SEARCH_MARGIN, is re-verified by a double-precision
    recomputation along an independent path; the confirmed cases are returned as
    one stack in trial order, possibly empty. Trial i draws from the i-th child of
    SeedSequence(rng_seed), so the result depends on the seed alone.
    """
    margin = tolerances.SEARCH_MARGIN
    flagged = arc_bound_sweep(dim, trials, rng_seed, (math.pi, 1.5 * math.pi), (0.1, 10.0),
                              margin).flagged
    return flagged.select(_recheck_independently(flagged.H, flagged.K, margin))
