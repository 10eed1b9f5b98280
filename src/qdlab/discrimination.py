"""Decision theory for distinguishing Hamiltonians and channels.

Helstrom-optimal binary measurements, entanglement-assisted discrimination of
field directions, perfect two-alternative discrimination by cancellation
driving, optimal probe states at fixed time, adaptive pairwise elimination,
and information-gain accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import qmath, spectral_arc, tolerances
from .dynamics import EvolutionSpec, NoiseKind, NoiseModel, evolve, generator_matrix
from .errors import NoDiscriminationError, UnsupportedModelError


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hypothesis:
    """One candidate generator with its noise model and prior probability."""

    generator: object  # Hermitian ndarray or FieldHamiltonian
    noise: NoiseModel = field(default_factory=NoiseModel)
    prior: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.prior <= 1.0:
            raise ValueError("prior must lie in [0, 1]")


def _check_priors(priors) -> None:
    # Written so that a NaN prior fails every comparison and is refused.
    if not all(p >= 0 for p in priors) or not abs(sum(priors) - 1.0) <= tolerances.NORM:
        raise ValueError("priors must be nonnegative and sum to 1")


@dataclass(frozen=True)
class HypothesisEnsemble:
    hypotheses: tuple[Hypothesis, ...]

    def __post_init__(self):
        hyps = tuple(self.hypotheses)
        object.__setattr__(self, "hypotheses", hyps)
        if len(hyps) < 2:
            raise ValueError("an ensemble needs at least two hypotheses")
        _check_priors([h.prior for h in hyps])
        dims = {generator_matrix(h.generator).shape[0] for h in hyps}
        if len(dims) != 1:
            raise ValueError("all generators must share one dimension")

    def __len__(self) -> int:
        return len(self.hypotheses)


@dataclass(frozen=True)
class BinaryPOVM:
    """Two-outcome POVM {E, I - E} with 0 <= E <= I."""

    projector: np.ndarray

    def __post_init__(self):
        E = np.asarray(self.projector, dtype=complex)
        w = np.linalg.eigvalsh((E + E.conj().T) / 2)
        if w.min() < -tolerances.ALGEBRAIC or w.max() > 1.0 + tolerances.ALGEBRAIC:
            raise ValueError("POVM element eigenvalues must lie in [0, 1]")
        object.__setattr__(self, "projector", E)

    @property
    def complement(self) -> np.ndarray:
        return np.eye(self.projector.shape[0]) - self.projector


@dataclass(frozen=True)
class DiscriminationResult:
    p_error: float
    info_bits: float
    t_star: float
    measurement: object  # BinaryPOVM or an orthonormal-basis ndarray


# ---------------------------------------------------------------------------
# Batched optimization shared with the metrology module
# ---------------------------------------------------------------------------

# Times per objective call in the grid pre-scan (one grid point at least).
_SCAN_ELEMS = 4096
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_minimize(fn, a, b, rel_tol: float, lookahead: int = 1):
    """Golden-section search for the minimum of a unimodal function on
    [a, b], for every row of a batch at once.

    The batch has the broadcast shape of `a` and `b` (scalars give 0-d
    arrays); `fn` maps an array of that shape to its rows' values. A row
    stops once its bracket is narrower than rel_tol * max(1, |b|) and is not
    updated after that, so it takes the path a search on that row alone
    would take. With lookahead k > 1, the two starting points share one `fn`
    call, and one call per k steps evaluates the 2^k - 1 points those steps
    can probe (see _golden_tree), so `fn` must also take a leading node axis;
    the path is the same. Returns (x, fn(x)) at the bracket midpoints.
    """
    a, b = (np.array(v, dtype=float) for v in np.broadcast_arrays(a, b))
    c = np.array(b - _INVPHI * (b - a))
    d = np.array(a + _INVPHI * (b - a))
    f0 = fn(np.stack([c, d])) if lookahead > 1 else (fn(c), fn(d))
    fc, fd = (np.array(f, dtype=float) for f in f0)
    # Each row's heap index in the evaluated tree; past its end, a step evaluates the next.
    node = np.full(a.shape, 2**lookahead)
    while (active := (b - a) > rel_tol * np.maximum(1.0, np.abs(b))).any():
        lower = active & (fc < fd)
        upper = active & ~lower
        if lookahead > 1 and ((node := 2 * node + 1 + upper) >= 2**lookahead - 1).any():
            tree, node = np.asarray(fn(_golden_tree(a, b, c, d, lower, lookahead))), 0 * node
        b[lower], d[lower], fd[lower] = d[lower], c[lower], fc[lower]
        c[lower] = b[lower] - _INVPHI * (b[lower] - a[lower])
        a[upper], c[upper], fc[upper] = c[upper], d[upper], fd[upper]
        d[upper] = a[upper] + _INVPHI * (b[upper] - a[upper])
        f_new = (np.take_along_axis(tree, node[None], axis=0)[0] if lookahead > 1
                 else np.asarray(fn(np.where(lower, c, d))))
        fc[lower] = f_new[lower]
        fd[upper] = f_new[upper]
    x = (a + b) / 2
    return x, fn(x)


def _golden_tree(a, b, c, d, lower, depth):
    """The 2^depth - 1 points the next `depth` golden steps can probe, on a
    leading node axis in heap order: node 0 is the next step's (`lower` is its
    fc < fd); node i's children 2i + 1 and 2i + 2 follow fc < fd and its failure."""
    a, b, c, d, lower = (np.asarray(v)[None] for v in (a, b, c, d, lower))
    points = []
    for _ in range(depth):
        a, b = np.where(lower, a, c), np.where(lower, d, b)
        c, d = np.where(lower, b - _INVPHI * (b - a), d), np.where(lower, c, a + _INVPHI * (b - a))
        points.append(np.where(lower, c, d))
        a, b, c, d = (np.repeat(v, 2, axis=0) for v in (a, b, c, d))
        lower = (np.arange(len(a)) % 2 == 0).reshape((-1,) + (1,) * (a.ndim - 1))
    return np.concatenate(points)


def grid_golden_minimize(fn, t_max, grid_points: int = 2048):
    """Minimize smooth functions of t on (0, t_max], for every row of a batch.

    The batch has the shape of `t_max`; `fn` maps times whose trailing axes
    are the batch axes to values of the same shape, so per-row parameters
    broadcast against them. A pre-scan of t_max * k / grid_points
    (k = 1..grid_points), in (m,) + batch blocks of about _SCAN_ELEMS times,
    brackets each row's global minimum (guarding against the wrong lobe of
    an oscillatory objective); golden-section then refines every row to
    1e-9 relative accuracy in t. Returns (t, fn(t)).
    """
    t_max = np.asarray(t_max, dtype=float)
    if not np.all((t_max > 0) & np.isfinite(t_max)):
        raise ValueError("t_max must be positive and finite")
    if grid_points < 1:
        raise ValueError("grid_points must be at least 1")
    best, k_best = np.full(t_max.shape, np.inf), np.ones(t_max.shape)
    block = max(1, _SCAN_ELEMS // max(1, t_max.size))
    for k0 in range(1, grid_points + 1, block):
        ks = np.arange(k0, min(k0 + block, grid_points + 1), dtype=float)
        vals = np.asarray(fn(t_max * ks.reshape((-1,) + (1,) * t_max.ndim) / grid_points))
        j = np.argmin(vals, axis=0)
        v = np.take_along_axis(vals, j[None], axis=0)[0]
        improved = v < best
        best, k_best = np.where(improved, v, best), np.where(improved, ks[j], k_best)
    # Bracket by the grid neighbours; below the first point, by half of it.
    lo = t_max * np.maximum(k_best - 1, 0.5) / grid_points
    hi = t_max * np.minimum(k_best + 1, grid_points) / grid_points
    return golden_minimize(fn, lo, hi, 1e-9)


# ---------------------------------------------------------------------------
# Binary decisions
# ---------------------------------------------------------------------------


def helstrom(rho1, rho2, p1: float = 0.5, p2: float = 0.5):
    """Minimum-error two-outcome measurement for a pair of density matrices.

    The optimal element projects onto the positive-eigenvalue subspace of
    p1 rho1 - p2 rho2; the achieved error is 1/2 - 1/2 tr|p1 rho1 - p2 rho2|.
    Returns (BinaryPOVM, p_error).
    """
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise ValueError("state dimensions do not match")
    _check_priors((p1, p2))
    delta = p1 * rho1 - p2 * rho2
    w, V = qmath.herm_eig(delta)
    pos = V[:, w > 0]
    E = pos @ pos.conj().T
    p_error = 0.5 - 0.5 * float(np.sum(np.abs(w)))
    return BinaryPOVM(E), float(min(max(p_error, 0.0), 1.0))


def two_outcome_gain(m, u):
    """m (1+u) log2(1+u) + m (1-u) log2(1-u): the information in bits of two
    outcomes of probabilities m (1 +/- u) over the even split (m, m).

    It is m phi(u) / ln 2, evaluated without adding terms of size m into a
    result of size m u^2: phi(u) = log1p(-u^2) + 2 u atanh(u) below u = 1/2,
    and 2 log1p(u) - 2 (1 - u) atanh(u) above it, where u * u would round
    1 - u^2 away. u >= 1 gives the limit phi(1) = 2 ln 2.
    """
    u = np.minimum(u, 1.0)
    # c keeps atanh and log1p(-c^2) finite at u = 1, where (1 - u) atanh(c) is 0.
    c = np.minimum(u, np.nextafter(1.0, 0.0))
    w = np.arctanh(c)
    phi = np.where(u < 0.5, np.log1p(-c * c) + 2.0 * c * w, 2.0 * (np.log1p(u) - (1.0 - u) * w))
    return m * phi / math.log(2.0)


def binary_info_gain(p_error: float) -> float:
    """1 - H2(p_error) bits, the gain of a symmetric binary channel: the
    two-outcome gain of m = 1/2 and u = |1 - 2 p_error|, p_error in [0, 1]."""
    if not 0.0 <= p_error <= 1.0:
        raise ValueError("p_error must lie in [0, 1]")
    return float(two_outcome_gain(0.5, abs(1.0 - 2.0 * p_error)))


# psi's Taylor coefficients (-1)^n / (n (n - 1)), n = 17 .. 2: at |x| < 1/8 the next is < 3e-17.
_PSI_SERIES = [(-1.0) ** n / (n * (n - 1)) for n in range(17, 1, -1)]


def mutual_information(joint: np.ndarray) -> float:
    """I(X;Y) in bits from a joint probability table p[x, y]: the sum over cells of
    q psi(p / q - 1) >= 0, q = px py, psi(x) = (1 + x) log1p(x) - x, psi(-1) = 1, with
    psi's Taylor series where the direct form cancels. Near independence the rounding
    of q still leaves a relative error of order eps / |p / q - 1|."""
    joint = np.clip(np.asarray(joint, dtype=float), 0.0, None)
    total = joint.sum()
    if total <= 0:
        return 0.0
    joint = joint / total
    q = joint.sum(axis=1, keepdims=True) * joint.sum(axis=0, keepdims=True)
    q, x = q[q > 0], joint[q > 0] / q[q > 0] - 1.0  # q = 0 only where p = 0 too
    small = np.abs(x) < 0.125
    xs, xd = np.where(small, x, 0.0), np.where(small | (x == -1.0), 1.0, x)
    psi = np.where(small, xs * xs * np.polyval(_PSI_SERIES, xs),
                   np.where(x == -1.0, 1.0, (1.0 + xd) * np.log1p(xd) - xd))
    return float(np.sum(q * psi) / math.log(2.0))


def measurement_mutual_information(povm_elements, states, priors) -> float:
    """Mutual information between a hypothesis and a POVM outcome."""
    joint = np.array(
        [
            [p * float(np.trace(E @ rho).real) for E in povm_elements]
            for rho, p in zip(states, priors)
        ]
    )
    return mutual_information(joint)


def _binary_decision(rhos, priors, t: float) -> DiscriminationResult:
    """The minimum-error measurement of two states at time t, and its outcomes' information."""
    povm, p_error = helstrom(*rhos, *priors)
    info = measurement_mutual_information([povm.projector, povm.complement], rhos, priors)
    return DiscriminationResult(p_error, info, t, povm)


def discriminate_superops(ensemble: HypothesisEnsemble, psi0, t: float) -> DiscriminationResult:
    """Evolve one probe state under each of two candidate channels, then
    perform the minimum-error measurement on the outputs."""
    if len(ensemble) != 2:
        raise ValueError("exactly two hypotheses are required")
    psi0 = qmath.check_state(psi0)
    rho0 = np.outer(psi0, psi0.conj())
    h1, h2 = ensemble.hypotheses
    out1 = evolve(EvolutionSpec(h1.generator, h1.noise, t), rho0)
    out2 = evolve(EvolutionSpec(h2.generator, h2.noise, t), rho0)
    return _binary_decision([out1, out2], [h1.prior, h2.prior], t)


def optimal_time_qubit(omega: float, gamma: float) -> float:
    """Measurement time maximizing the gain for a precessing, damped qubit.

    Smallest t > 0 with tan(omega t / 2) = omega / (2 gamma); the undamped
    limit is the half-turn pi/omega.
    """
    if not omega > 0:
        raise ValueError("omega must be positive")
    if not gamma >= 0:
        raise ValueError("gamma must be nonnegative")
    if gamma == 0:
        return math.pi / omega
    return (2.0 / omega) * math.atan(omega / (2.0 * gamma))


# ---------------------------------------------------------------------------
# Entangled probes for field directions
# ---------------------------------------------------------------------------


def superdense_probe_state(a_hat, t: float) -> np.ndarray:
    """Expose one member of a Bell pair to the field a.sigma for time t.

    exp(-i t (a.sigma (x) I)) |phi+> expanded in the Bell basis:
    cos t |phi+> - i sin t (a_x |psi+> - i a_y |psi-> + a_z |phi->).
    """
    a = qmath.check_axis(a_hat)
    return (
        math.cos(t) * qmath.BELL_PHI_PLUS
        - 1j
        * math.sin(t)
        * (
            a[0] * qmath.BELL_PSI_PLUS
            - 1j * a[1] * qmath.BELL_PSI_MINUS
            + a[2] * qmath.BELL_PHI_MINUS
        )
    )


def superdense_overlap(a_hat, b_hat, t):
    """Inner product of the probe states for two field axes:
    cos^2 t + (a.b) sin^2 t, for a scalar or an array of times t (the
    overlap is real). Vanishes iff a.b = -cot^2 t."""
    a, b = qmath.check_axis(a_hat), qmath.check_axis(b_hat)
    return np.cos(t) ** 2 + float(a @ b) * np.sin(t) ** 2


def symmetric_directions(n: int, cos_theta: float) -> list[np.ndarray]:
    """n unit vectors with all pairwise inner products equal to cos_theta.

    n = 2: two vectors in the x-z plane. n = 3: a cone about z with
    threefold symmetry (planar for cos_theta = -1/2). n = 4: z plus a cone,
    which requires the tetrahedral value cos_theta = -1/3.
    """
    if n == 2:
        if not -1.0 <= cos_theta <= 1.0:
            raise ValueError(f"two unit vectors need cos_theta in [-1, 1], got {cos_theta}")
        theta = math.acos(cos_theta)
        return [
            np.array([math.sin(theta / 2), 0.0, math.cos(theta / 2)]),
            np.array([-math.sin(theta / 2), 0.0, math.cos(theta / 2)]),
        ]
    if n == 3:
        if not -0.5 <= cos_theta <= 1.0:
            raise ValueError(f"a threefold cone needs cos_theta in [-1/2, 1], got {cos_theta}")
        cos2_alpha = (2.0 * cos_theta + 1.0) / 3.0
        ca = math.sqrt(cos2_alpha)
        sa = math.sqrt(1.0 - cos2_alpha)
        return [
            np.array([sa * math.cos(2 * math.pi * k / 3), sa * math.sin(2 * math.pi * k / 3), ca])
            for k in range(3)
        ]
    if n == 4:
        if abs(cos_theta + 1.0 / 3.0) > tolerances.GEOMETRY:
            raise ValueError("four equiangular directions require cos_theta = -1/3")
        dirs = [np.array([0.0, 0.0, 1.0])]
        sa = math.sqrt(1.0 - 1.0 / 9.0)
        for k in range(3):
            phi = 2 * math.pi * k / 3
            dirs.append(np.array([sa * math.cos(phi), sa * math.sin(phi), -1.0 / 3.0]))
        return dirs
    raise ValueError("supported direction counts are 2, 3, 4")


def trine_discriminate(directions, priors=None) -> DiscriminationResult:
    """Distinguish equiangular field directions with an entangled probe.

    For 3 or 4 directions with pairwise inner product cos_theta in [-1/2, 0]
    (or exactly -1/3 for 4), evolving one half of a Bell pair for the time
    with cot^2 t = -cos_theta makes the probe states mutually orthogonal; an
    orthogonal measurement in that state basis then identifies the direction
    with certainty. The degenerate 2-direction case uses the same time, which
    minimizes the overlap, and falls back to the minimum-error binary
    measurement.
    """
    dirs = [qmath.check_axis(d) for d in directions]
    n = len(dirs)
    if n not in (2, 3, 4):
        raise ValueError("supported direction counts are 2, 3, 4")
    priors = [1.0 / n] * n if priors is None else [float(p) for p in priors]
    if len(priors) != n:
        raise ValueError(f"need one prior per direction, got {len(priors)} for {n}")
    _check_priors(priors)

    dots = [float(dirs[i] @ dirs[j]) for i in range(n) for j in range(i + 1, n)]
    cos_theta = dots[0]
    if max(dots) - min(dots) > tolerances.GEOMETRY:
        raise ValueError("pairwise inner products must be equal")

    if n == 3 and not -0.5 - tolerances.GEOMETRY <= cos_theta <= tolerances.GEOMETRY:
        raise ValueError("three directions need cos_theta in [-1/2, 0]")
    if n == 4 and abs(cos_theta + 1.0 / 3.0) > tolerances.GEOMETRY:
        raise ValueError("four directions need cos_theta = -1/3")

    # The overlap 1 - (1 - cos_theta) sin^2 t vanishes where cot^2 t = -cos_theta,
    # and is otherwise least at pi/2.
    t_star = math.atan(1.0 / math.sqrt(-cos_theta)) if cos_theta < 0 else math.pi / 2
    states = [superdense_probe_state(d, t_star) for d in dirs]

    if n == 2:
        return _binary_decision([np.outer(s, s.conj()) for s in states], priors, t_star)

    # The evolved states are orthonormal by construction; complete them to a
    # basis of the two-qubit space so the measurement is a full von Neumann one.
    basis = np.zeros((4, 4), dtype=complex)
    basis[:, :n] = np.column_stack(states)
    if n < 4:
        # Deterministic completion: eigenvectors of the complement projector.
        comp = np.eye(4, dtype=complex)
        for k in range(n):
            comp -= np.outer(states[k], states[k].conj())
        w, V = np.linalg.eigh(comp)
        basis[:, n:] = V[:, w > 0.5][:, : 4 - n]

    probs = np.abs(basis.conj().T @ np.column_stack(states)) ** 2  # p[outcome, hyp]
    joint = probs.T * np.asarray(priors)[:, None]
    success = sum(priors[a] * probs[a, a] for a in range(n))
    p_error = float(min(max(1.0 - success, 0.0), 1.0))
    info = mutual_information(joint)
    return DiscriminationResult(p_error, info, t_star, basis)


# ---------------------------------------------------------------------------
# Two alternatives: cancellation driving and fixed-time optima
# ---------------------------------------------------------------------------


def cancellation_strategy(H1, H2):
    """Drive with -H2 and split the extremal eigenstates of H1 - H2.

    Returns (drive, psi0, t_star): the probe (|E_min> + |E_max>)/sqrt(2) of
    the difference evolves to its orthogonal partner after
    t_star = pi / (E_max - E_min), so the two alternatives separate exactly.
    """
    H1 = np.asarray(H1, dtype=complex)
    H2 = np.asarray(H2, dtype=complex)
    if H1.shape != H2.shape:
        raise ValueError("Hamiltonian dimensions do not match")
    w, V = qmath.herm_eig(H1 - H2)
    gap = float(w[-1] - w[0])
    if gap <= tolerances.NORM:
        raise NoDiscriminationError("the two Hamiltonians coincide")
    psi0 = (V[:, 0] + V[:, -1]) / math.sqrt(2.0)
    return -H2, psi0, math.pi / gap


def fixed_time_overlap(H, K, t: float):
    """Best-case overlap for distinguishing H + K from K in a fixed time t.

    Diagonalizes W = exp(i t K) exp(-i t (H + K)); the optimal probe is the
    equal superposition of the eigenvectors whose eigenvalue arguments are
    extremal, and the achieved overlap is cos(arc/2) for arc < pi. An arc of
    pi or more means the alternatives can be separated exactly within the
    allotted time, reported as overlap 0.

    Returns (psi0, overlap).
    """
    if not t > 0:
        raise ValueError("t must be positive")
    H = np.asarray(H, dtype=complex)
    K = np.asarray(K, dtype=complex)
    W = qmath.expm_i(K, -t) @ qmath.expm_i(H + K, t)
    args, V = qmath.unitary_eig(W)
    arc = float(args[-1] - args[0])
    psi0 = (V[:, 0] + V[:, -1]) / math.sqrt(2.0) if len(args) > 1 else V[:, 0]
    if arc >= math.pi:
        return psi0, 0.0
    return psi0, float(math.cos(arc / 2.0))


FixedTimeRow = NamedTuple("FixedTimeRow", [
    ("sample", int), ("dim", int), ("t", float), ("overlap_driven", float),
    ("overlap_undriven", float), ("margin", float)])


def fixed_time_sweep(
    dim: int, t: float, samples: int, seed: int, h_norm: float, k_norm: float
) -> list[FixedTimeRow]:
    """`fixed_time_overlap` of `samples` random pairs (H, K), with the driving
    term K and without it. Sample i draws from `qmath.spawned_rngs(seed,
    samples)`: a sup norm h_norm * U(0.2, 1) and then H, a sup norm
    k_norm * U(0, 1) and then K, each (A + A^dag)/2 rescaled, with A's real and
    imaginary parts from rng.normal(size=(2, dim, dim))."""
    rows = []
    for (H, _, _), (K, _, _) in spectral_arc._generator_blocks(
            dim, samples, seed, lambda rng: h_norm * rng.uniform(0.2, 1.0),
            lambda rng: k_norm * rng.uniform(0.0, 1.0)):
        for h, k in zip(H, K):
            _, driven = fixed_time_overlap(h, k, t)
            _, undriven = fixed_time_overlap(h, np.zeros_like(k), t)
            rows.append(FixedTimeRow(len(rows), dim, t, driven, undriven, driven - undriven))
    return rows


# ---------------------------------------------------------------------------
# Adaptive elimination
# ---------------------------------------------------------------------------


def adaptive_eliminate(ensemble: HypothesisEnsemble, true_index: int, rng_seed):
    """Identify one of N noiseless Hamiltonians by pairwise elimination.

    Each round drives to cancel the first of the two leading candidates,
    prepares the cancellation probe for the pair, evolves for the pair's
    flip time, and measures the binary flipped/not-flipped projector. One
    candidate is eliminated per round, and the true Hamiltonian survives
    every round, so N - 1 measurements always suffice. The outcomes are drawn
    from `default_rng(rng_seed)`: `rng_seed` is a seed or a Generator, which
    is used as it is.

    Returns (identified_index, measurement_count, transcript).
    """
    n = len(ensemble)
    if not 0 <= true_index < n:
        raise ValueError("true_index out of range")
    for h in ensemble.hypotheses:
        if h.noise.kind is not NoiseKind.NONE:
            raise UnsupportedModelError("adaptive elimination assumes noiseless hypotheses")
    gens = [generator_matrix(h.generator) for h in ensemble.hypotheses]
    rng = np.random.default_rng(rng_seed)

    alive = list(range(n))
    transcript = []
    measurements = 0
    while len(alive) > 1:
        i, j = alive[0], alive[1]
        # Drive with -H_i: the pair becomes (0, H_j - H_i).
        drive, psi0, t_star = cancellation_strategy(gens[j], gens[i])
        flipped_state = qmath.expm_i(gens[j] + drive, t_star) @ psi0

        evolved = qmath.expm_i(gens[true_index] + drive, t_star) @ psi0
        p_flip = float(np.abs(np.vdot(flipped_state, evolved)) ** 2)
        outcome_flip = bool(rng.random() < p_flip)

        eliminated = i if outcome_flip else j
        alive.remove(eliminated)
        measurements += 1
        transcript.append(
            {
                "pair": (i, j),
                "t_star": t_star,
                "p_flip": p_flip,
                "outcome_flip": outcome_flip,
                "eliminated": eliminated,
            }
        )
    return alive[0], measurements, transcript


EliminateRow = NamedTuple("EliminateRow", [
    ("trial", int), ("true_index", int), ("identified", int), ("measurements", int),
    ("correct", int)])


def eliminate_sweep(n_hypotheses: int, dim: int, trials: int, seed: int) -> list[EliminateRow]:
    """`adaptive_eliminate` over `trials` random noiseless ensembles. Trial i
    draws from `qmath.spawned_rngs(seed, trials)`: n_hypotheses equally likely
    generators of sup norm 2, each (A + A^dag)/2 rescaled with A's real and imaginary
    parts from rng.normal(size=(n_hypotheses, 2, dim, dim)), the true index, and
    then, from the same generator, the elimination's measurement outcomes."""
    rows = []
    for idx, rng in enumerate(qmath.spawned_rngs(seed, trials)):
        gens = spectral_arc._random_hermitians(n_hypotheses, dim, 2.0, rng)
        ensemble = HypothesisEnsemble(
            tuple(Hypothesis(g, NoiseModel(), 1.0 / n_hypotheses) for g in gens)
        )
        true_index = int(rng.integers(n_hypotheses))
        identified, count, _ = adaptive_eliminate(ensemble, true_index, rng)
        rows.append(EliminateRow(idx, true_index, identified, count, int(identified == true_index)))
    return rows


# ---------------------------------------------------------------------------
# Sampled adaptive single-qubit strategies (separation demonstration)
# ---------------------------------------------------------------------------


def sampled_adaptive_two_qubit_info(directions, rng_seed: int, samples: int = 1000) -> float:
    """Best information gain over random two-step single-qubit strategies.

    Two probe qubits are measured one at a time; the second step's state,
    exposure time, and basis may depend on the first outcome. Returns the
    maximum mutual information (bits) found over `samples` random strategies
    with equal priors; exposure uses the unit-field generator a.sigma.
    """
    dirs = [np.asarray(d, dtype=float) for d in directions]
    n = len(dirs)
    priors = np.full(n, 1.0 / n)
    rng = np.random.default_rng(rng_seed)
    ops = [qmath.axis_operator(d) for d in dirs]

    def evolved(axis_idx: int, psi: np.ndarray, t: float) -> np.ndarray:
        # exp(-i t a.sigma) = cos t I - i sin t a.sigma for unit axes.
        return (math.cos(t) * qmath.I2 - 1j * math.sin(t) * ops[axis_idx]) @ psi

    def random_state() -> np.ndarray:
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        return v / np.linalg.norm(v)

    def random_basis() -> np.ndarray:
        v0 = random_state()
        v1 = np.array([-v0[1].conjugate(), v0[0].conjugate()])
        return np.column_stack([v0, v1])

    best = 0.0
    for _ in range(samples):
        psi1 = random_state()
        t1 = rng.uniform(0.0, math.pi)
        basis1 = random_basis()
        step2 = [(random_state(), rng.uniform(0.0, math.pi), random_basis()) for _ in range(2)]

        joint = np.zeros((n, 4))
        for a in range(n):
            out1 = evolved(a, psi1, t1)
            p1 = np.abs(basis1.conj().T @ out1) ** 2
            for r1 in range(2):
                psi2, t2, basis2 = step2[r1]
                out2 = evolved(a, psi2, t2)
                p2 = np.abs(basis2.conj().T @ out2) ** 2
                for r2 in range(2):
                    joint[a, 2 * r1 + r2] = priors[a] * p1[r1] * p2[r2]
        best = max(best, mutual_information(joint))
    return best
