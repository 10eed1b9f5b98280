"""Decision theory for distinguishing Hamiltonians and channels.

Helstrom-optimal binary measurements, entanglement-assisted discrimination of
field directions, perfect two-alternative discrimination by cancellation
driving, optimal probe states at fixed time, adaptive pairwise elimination,
and information-gain accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qmath, spectral_arc, tolerances
from .dynamics import NoiseModel, apply_channel
from .errors import NoDiscriminationError


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscriminationResult:
    p_error: float
    info_bits: float
    t_star: float


# ---------------------------------------------------------------------------
# Batched optimization shared with the metrology module
# ---------------------------------------------------------------------------

# Times per objective call in the grid pre-scan (one grid point at least).
_SCAN_ELEMS = 4096
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Golden section's last relative width in _golden_finish: at x +/- h = _FINISH_TOL max(1, |b|)
# an analytic objective's values still resolve its curvature, and a parabola's error is ~h^2.
_FINISH_TOL = 1e-5
_TIME_TOL = 1e-9  # the relative accuracy in t of every _golden_finish search


def golden_minimize(fn, a, b, rel_tol: float):
    """Golden-section search for the minimum of a unimodal function on
    [a, b], for every row of a batch at once.

    The batch has the broadcast shape of `a` and `b` (scalars give 0-d
    arrays); `fn` maps an array of that shape to its rows' values. A row
    stops once its bracket is narrower than rel_tol * max(1, |b|) and is not
    updated after that, so it takes the path a search on that row alone
    would take. Returns the bracket midpoints x, without a call of `fn` when
    every bracket is that narrow already.

    Refuses with ValueError, before any call of `fn`, a bracket with a
    non-finite end or width or with a > b, and a rel_tol below (or NaN
    against) tolerances.GOLDEN_REL_TOL, where rounding could stall the loop.
    """
    a, b = (np.array(v, dtype=float) for v in np.broadcast_arrays(a, b))
    span = b - a
    if not np.all((span >= 0) & (span < np.inf)):
        raise ValueError("golden_minimize needs finite brackets with a <= b")
    if not rel_tol >= tolerances.GOLDEN_REL_TOL:
        raise ValueError(f"rel_tol must be at least {tolerances.GOLDEN_REL_TOL:g}")
    if not np.any(span > rel_tol * np.maximum(1.0, np.abs(b))):
        return (a + b) / 2
    c, d = np.array(b - _INVPHI * span), np.array(a + _INVPHI * span)
    fc, fd = (np.array(f, dtype=float) for f in (fn(c), fn(d)))
    # Each step moves only the active rows, in place, to the points a one-row
    # search would take; `fn` still sees every row.
    while (active := span > rel_tol * np.maximum(1.0, np.abs(b))).any():
        lower = active & (fc < fd)
        upper = active ^ lower
        np.copyto(b, d, where=lower), np.copyto(d, c, where=lower), np.copyto(fd, fc, where=lower)
        np.copyto(a, c, where=upper), np.copyto(c, d, where=upper), np.copyto(fc, fd, where=upper)
        span = b - a
        w = _INVPHI * span
        np.copyto(c, b - w, where=lower), np.copyto(d, a + w, where=upper)
        f_new = fn(np.where(lower, c, d))
        np.copyto(fc, f_new, where=lower), np.copyto(fd, f_new, where=upper)
    return (a + b) / 2


def _golden_finish(fn, lo, hi, domain):
    """(x, fn(x)) of golden_minimize(fn, lo, hi, _TIME_TOL), fn defined on [0, domain]. Golden
    section stops at _FINISH_TOL, and a parabolic step through x and x +/- h in [0, domain] ends
    each row; rows it does not model to _TIME_TOL (kinks, plateaus, underflows, bounds) go on
    with golden section. At least 4 calls of fn, however narrow the brackets."""
    x = golden_minimize(fn, lo, hi, _FINISH_TOL)
    h = _FINISH_TOL * np.maximum(1.0, np.abs(hi))
    p, q, fx = np.maximum(x - h, 0.0), np.minimum(x + h, domain), fn(x)
    dp, dq = fn(p) - fx, fn(q) - fx
    rise = dp + dq  # twice the parabola's rise over h: > 0 iff it is convex
    ok = (p == x - h) & (q == x + h) & (np.abs(dp - dq) < 2.0 * rise)  # vertex inside (p, q)
    v = np.divide(h * (dp - dq), 2.0 * rise, out=np.zeros_like(x), where=ok)
    ft = fn(t := np.clip(x + v, lo, hi))
    d = (t - x) / h  # a parabola has 2 (fn(x + d h) - fx) = d (dq - dp + rise d)
    ok &= np.abs(2.0 * (ft - fx) - d * (dq - dp + rise * d)) <= _TIME_TOL / _FINISH_TOL * rise
    if not ok.all():  # the other rows go on with golden section, on [p, q] clipped to [lo, hi]
        t = golden_minimize(fn, *(np.where(ok, t, e) for e in np.clip([p, q], lo, hi)), _TIME_TOL)
        ft = np.where(ok, ft, fn(t))
    return t, ft


def grid_golden_minimize(fn, t_max, grid_points: int):
    """Minimize functions of t that are unimodal on (0, t_max], for every row of a batch.

    The batch has the shape of `t_max`; `fn` maps times whose trailing axes are the batch axes
    to values of the same shape, so per-row parameters broadcast against them. A pre-scan of
    t_max * k / grid_points (k = 1..grid_points), in (m,) + batch blocks of about _SCAN_ELEMS
    times, brackets each row's minimum by its best grid time's neighbours (0 below the first;
    golden-section evaluates no bracket end), then _golden_finish refines every row to _TIME_TOL
    relative accuracy in t, by golden section and one parabolic step. Returns (t, fn(t)).
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
        j, v = np.argmin(vals, axis=0), np.min(vals, axis=0)
        improved = v < best
        best, k_best = np.where(improved, v, best), np.where(improved, ks[j], k_best)
    lo = t_max * (k_best - 1) / grid_points
    hi = t_max * np.minimum(k_best + 1, grid_points) / grid_points
    return _golden_finish(fn, lo, hi, t_max)


# ---------------------------------------------------------------------------
# Binary decisions
# ---------------------------------------------------------------------------


def helstrom(rho1, rho2):
    """Minimum-error two-outcome measurement for two equally likely density matrices.

    The optimal element projects onto the positive-eigenvalue subspace of
    delta = rho1 / 2 - rho2 / 2; the achieved error is 1/2 - 1/2 tr|delta|.
    Returns (E, p_error): the projector E decides for rho1, I - E for rho2.
    """
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise ValueError("state dimensions do not match")
    delta = 0.5 * rho1 - 0.5 * rho2
    w, V = qmath.herm_eig(delta)
    pos = V[:, w > 0]
    E = pos @ pos.conj().T
    p_error = 0.5 - 0.5 * float(np.sum(np.abs(w)))
    return E, float(min(max(p_error, 0.0), 1.0))


_BELOW_ONE, _LN2 = np.nextafter(1.0, 0.0), math.log(2.0)


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
    c = np.minimum(u, _BELOW_ONE)
    w = np.arctanh(c)
    phi = np.where(u < 0.5, np.log1p(-c * c) + 2.0 * c * w, 2.0 * (np.log1p(u) - (1.0 - u) * w))
    return m * phi / _LN2


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


def discriminate_superops(generators, noise: NoiseModel, psi0, t: float) -> DiscriminationResult:
    """Evolve one probe state under each of two equally likely generators
    (Hermitian ndarrays or FieldHamiltonians) with the same noise, then
    perform the minimum-error measurement on the outputs; info_bits is the
    mutual information between the hypothesis and its outcome."""
    if len(generators) != 2:
        raise ValueError("exactly two generators are required")
    psi0 = qmath.check_state(psi0)
    rho0 = np.outer(psi0, psi0.conj())
    rhos = [apply_channel(rho0, g, noise, t) for g in generators]
    E, p_error = helstrom(*rhos)
    joint = np.array([[0.5 * float(np.trace(F @ rho).real) for F in (E, np.eye(len(E)) - E)]
                      for rho in rhos])
    return DiscriminationResult(p_error, mutual_information(joint), t)


def optimal_time_qubit(omega: float, gamma: float) -> float:
    """Measurement time maximizing the gain for a precessing, damped qubit.

    Smallest t > 0 with tan(omega t / 2) = omega / (2 gamma); the undamped
    limit is the half-turn pi/omega. Raises OverflowError if t is not finite.
    """
    if not omega > 0:
        raise ValueError("omega must be positive")
    if not gamma >= 0:
        raise ValueError("gamma must be nonnegative")
    t = math.pi / omega if gamma == 0 else 2.0 * math.atan(omega / (2.0 * gamma)) / omega
    if not math.isfinite(t):
        raise OverflowError(f"the optimal time is not finite at omega {omega!r}")
    return t


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

    n = 3: a cone about z with threefold symmetry (planar for
    cos_theta = -1/2). n = 4: z plus a cone, which requires the tetrahedral
    value cos_theta = -1/3.
    """
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
    raise ValueError("supported direction counts are 3, 4")


def trine_discriminate(directions) -> DiscriminationResult:
    """Distinguish equally likely equiangular field directions with an entangled probe.

    For 3 or 4 directions with pairwise inner product cos_theta in [-1/2, 0]
    (or exactly -1/3 for 4), evolving one half of a Bell pair for the time
    with cot^2 t = -cos_theta makes the probe states mutually orthogonal; an
    orthogonal measurement in that state basis then identifies the direction
    with certainty.
    """
    dirs = [qmath.check_axis(d) for d in directions]
    n = len(dirs)
    if n not in (3, 4):
        raise ValueError("supported direction counts are 3, 4")
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
    # The evolved states are orthonormal by construction; measuring in their
    # basis identifies the direction (a third direction's missing basis vector
    # has probability 0 under every hypothesis).
    S = np.column_stack([superdense_probe_state(d, t_star) for d in dirs])
    probs = np.abs(S.conj().T @ S) ** 2  # p[outcome, hyp]
    joint = probs.T * (1.0 / n)
    success = sum((1.0 / n) * probs[a, a] for a in range(n))
    p_error = float(min(max(1.0 - success, 0.0), 1.0))
    info = mutual_information(joint)
    return DiscriminationResult(p_error, info, t_star)


# ---------------------------------------------------------------------------
# Two alternatives: cancellation driving and fixed-time optima
# ---------------------------------------------------------------------------


def cancellation_strategy(H1, H2):
    """Drive with -H2 and split the extremal eigenstates of H1 - H2, for a pair
    or for every pair of two (..., d, d) stacks, which any coinciding pair refuses.

    Returns (drive, psi0, t_star): the probe (|E_min> + |E_max>)/sqrt(2) of
    the difference evolves to its orthogonal partner after
    t_star = pi / (E_max - E_min), so the two alternatives separate exactly;
    for stacks, psi0 has shape (..., d) and t_star shape (...).
    """
    H1 = np.asarray(H1, dtype=complex)
    H2 = np.asarray(H2, dtype=complex)
    if H1.shape != H2.shape:
        raise ValueError("Hamiltonian dimensions do not match")
    w, V = qmath.herm_eig(H1 - H2)
    gap = w[..., -1] - w[..., 0]
    if np.any(gap <= tolerances.NORM):
        raise NoDiscriminationError("the two Hamiltonians coincide")
    psi0 = (V[..., 0] + V[..., -1]) / math.sqrt(2.0)
    return -H2, psi0, math.pi / gap


def fixed_time_overlap(H, K, t: float) -> float:
    """Best-case overlap for distinguishing H + K from K in a fixed time t.

    The spectrum of W = exp(i t K) exp(-i t (H + K)) sets it: the best probe
    is the equal superposition of the eigenvectors whose eigenvalue arguments
    are extremal, and its overlap is cos(arc/2) for arc < pi. An arc of pi or
    more means the alternatives can be separated exactly within the allotted
    time, reported as overlap 0.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    H = np.asarray(H, dtype=complex)
    K = np.asarray(K, dtype=complex)
    U = qmath.expm_i(np.stack([K, H + K]), np.array([-t, t]))
    args = qmath.unitary_args(U[0] @ U[1])
    arc = float(args[-1] - args[0])
    if arc >= math.pi:
        return 0.0
    return float(math.cos(arc / 2.0))


FixedTimeRow = NamedTuple("FixedTimeRow", [
    ("sample", int), ("dim", int), ("t", float), ("overlap_driven", float),
    ("overlap_undriven", float), ("margin", float)])


def fixed_time_sweep(
    dim: int, t: float, samples: int, seed: int, h_norm: float, k_norm: float
) -> list[FixedTimeRow]:
    """`fixed_time_overlap` of `samples` random pairs (H, K), with the driving
    term K and without it (one zero matrix for the sweep). Sample i draws from
    `qmath.spawned_rngs(seed, samples)`: a sup norm h_norm * U(0.2, 1) and then H,
    a sup norm k_norm * U(0, 1) and then K, each (A + A^dag)/2 rescaled, with A's
    real and imaginary parts from rng.normal(size=(2, dim, dim))."""
    rows, zero = [], np.zeros((dim, dim), dtype=complex)
    for (H, _, _), (K, _, _) in spectral_arc._generator_blocks(
            dim, samples, seed, (h_norm, 0.2, 1.0), (k_norm, 0.0, 1.0)):
        for h, k in zip(H, K):
            driven = fixed_time_overlap(h, k, t)
            undriven = fixed_time_overlap(h, zero, t)
            rows.append(FixedTimeRow(len(rows), dim, t, driven, undriven, driven - undriven))
    return rows


# ---------------------------------------------------------------------------
# Adaptive elimination
# ---------------------------------------------------------------------------


def adaptive_eliminate(gens, true_index: int, rng_seed):
    """Identify one of the N noiseless Hamiltonians of an (N, d, d) stack,
    N >= 2, by pairwise elimination.

    Each round drives to cancel the first of the two leading candidates,
    prepares the cancellation probe for the pair, evolves for the pair's
    flip time, and measures the binary flipped/not-flipped projector. One
    candidate is eliminated per round, and the true Hamiltonian survives
    every round, so N - 1 measurements always suffice. The outcomes are drawn
    from `default_rng(rng_seed)`: `rng_seed` is a seed or a Generator, which
    is used as it is. This is `_eliminate_block` for a block of one trial.

    Returns (identified_index, measurement_count, transcript).
    """
    gens = np.asarray(gens, dtype=complex)
    if gens.ndim != 3 or len(gens) < 2 or gens.shape[1] != gens.shape[2]:
        raise ValueError(f"expected a stack of two or more square generators, got {gens.shape}")
    if not 0 <= true_index < len(gens):
        raise ValueError("true_index out of range")
    identified, rounds = _eliminate_block(
        gens[None], np.array([true_index]), [np.random.default_rng(rng_seed)])
    transcript = [{"pair": (int(i[0]), j), "t_star": float(t[0]), "p_flip": float(p[0]),
                   "outcome_flip": bool(flip[0]), "eliminated": int(out[0])}
                  for i, j, t, p, flip, out in rounds]
    return int(identified[0]), len(rounds), transcript


def _eliminate_block(gens, true_index, rngs):
    """Pairwise elimination for every trial of a block at once, one round at a time.
    Trial b has the candidates gens[b] of a (trials, n, d, d) stack and the true index
    true_index[b], and draws one rng.random() per round from rngs[b]. Returns the
    identified indices and, per round, (i, j, t_star, p_flip, outcome_flip, eliminated):
    arrays over the block, but for the challenger j."""
    rows, rounds = np.arange(len(gens)), []
    truth, i = gens[rows, true_index], np.zeros_like(rows)
    for j in range(1, gens.shape[1]):
        # Drive with -H_i to pair the survivor i with j: the pair becomes (0, H_j - H_i).
        drive, psi0, t_star = cancellation_strategy(gens[:, j], gens[rows, i])
        flipped_and_true = np.stack([gens[:, j], truth]) + drive
        flipped_state, evolved = qmath.expm_i(flipped_and_true, t_star) @ psi0[..., None]
        p_flip = np.abs(np.sum(flipped_state.conj() * evolved, axis=(-2, -1))) ** 2
        outcome_flip = np.array([rng.random() for rng in rngs]) < p_flip
        rounds.append((i, j, t_star, p_flip, outcome_flip, np.where(outcome_flip, i, j)))
        i = np.where(outcome_flip, j, i)
    return i, rounds


EliminateRow = NamedTuple("EliminateRow", [
    ("trial", int), ("true_index", int), ("identified", int), ("measurements", int),
    ("correct", int)])


def eliminate_sweep(n_hypotheses: int, dim: int, trials: int, seed: int) -> list[EliminateRow]:
    """`adaptive_eliminate` over `trials` random noiseless ensembles. Trial i
    draws from `qmath.spawned_rngs(seed, trials)`: n_hypotheses equally likely
    generators of sup norm 2, each (A + A^dag)/2 rescaled with A's real and imaginary
    parts from rng.standard_normal((n_hypotheses, 2, dim, dim)), the true index, and
    then, from the same generator, the elimination's measurement outcomes. The
    trials run through `_eliminate_block` in blocks of at most
    _ARC_BLOCK_ELEMS // (n_hypotheses * dim^2) trials, at least one."""
    if n_hypotheses < 2:
        raise ValueError("an ensemble needs at least two hypotheses")
    rows, rngs = [], qmath.spawned_rngs(seed, trials)
    block = max(1, spectral_arc._ARC_BLOCK_ELEMS // max(1, n_hypotheses * dim * dim))
    chunk = max(1, spectral_arc._ARC_BLOCK_ELEMS // max(1, dim * dim))  # generators per rescale
    for start in range(0, trials, block):
        size = min(block, trials - start)
        block_rngs = [next(rngs) for _ in range(size)]
        gens = np.empty((size, n_hypotheses, dim, dim), dtype=complex)
        # The normals fill the generators' bytes; one rescale per block (per chunk of a big trial).
        g = gens.view(float).reshape(-1, 2, dim, dim)
        for rng, normals in zip(block_rngs, g.reshape(size, n_hypotheses, 2, dim, dim)):
            rng.standard_normal(out=normals)
        for k in range(0, len(g), chunk):
            spectral_arc._hermitian_stack(g[k:k + chunk], 2.0)
        true_index = np.array([rng.integers(n_hypotheses) for rng in block_rngs])
        identified, rounds = _eliminate_block(gens, true_index, block_rngs)
        for idx, (true_i, found) in enumerate(zip(true_index.tolist(), identified.tolist()), start):
            rows.append(EliminateRow(idx, true_i, found, len(rounds), int(found == true_i)))
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
                    joint[a, 2 * r1 + r2] = (1.0 / n) * p1[r1] * p2[r2]
        best = max(best, mutual_information(joint))
    return best
