"""Frequency metrology: product versus entangled probes under decoherence.

The decay and phase rate of each probe family's single-shot outcome
probability, the frequency uncertainty that repeated shots give by error
propagation, time-budget optimization of that uncertainty, and the
information-gain improvement curve for the two-hypothesis problem (static
field versus no field) under basis-free symmetric decoherence.

Information-gain semantics for the improvement curve: the gain of a strategy
at decoherence ratio r is the mutual information between the hypothesis and
the outcome of the complete orthogonal measurement in the eigenbasis of the
minimum-error decision operator, maximized over the interrogation time. The
curve reports the difference of the two separately optimized gains. The
binary-channel reading 1 - H2(p_error) and the raw error probabilities are
reported alongside for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .discrimination import _TIME_TOL, _golden_finish, grid_golden_minimize, two_outcome_gain
from .dynamics import NoiseKind, NoiseModel
from .errors import UnsupportedModelError


class StrategyKind:
    PRODUCT = "product"
    CAT = "cat"


@dataclass(frozen=True)
class Strategy:
    """Probe family, qubit count, time budget, and noise."""

    kind: str
    n: int
    T_total: float
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self):
        if self.kind not in (StrategyKind.PRODUCT, StrategyKind.CAT):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("need at least one qubit")
        if not self.T_total > 0:
            raise ValueError("need T_total > 0")


@dataclass(frozen=True)
class OptimizedPrecision:
    t_star: float
    delta_omega: float
    at_boundary: bool


def _decay_and_rate(s: Strategy) -> tuple[float, float]:
    """Effective amplitude decay exponent gamma_eff (per unit time) and the
    phase accumulation rate (multiples of omega) of the probability
    (1 + e^{-gamma_eff t} cos(rate omega t)) / 2 of the + outcome of the
    transverse parity measurement.

    Product probes precess at omega and keep their single-qubit decay (none
    without noise); the cat state precesses n times faster, pays n-fold decay
    under independent depolarizing, but only single-qubit decay otherwise.
    Under qubit depolarizing the cat has a closed form on one qubit only.
    """
    g = 0.0 if s.noise.kind is NoiseKind.NONE else s.noise.gamma
    if s.kind == StrategyKind.PRODUCT:
        return g, 1.0
    if s.noise.kind is NoiseKind.QUBIT_DEPOLARIZING and s.n != 1:
        raise UnsupportedModelError(f"no closed form for ({s.kind}, {s.noise.kind.value}, n={s.n})")
    if s.noise.kind is NoiseKind.INDEPENDENT_DEPOLARIZING:
        return s.n * g, float(s.n)
    return g, float(s.n)


def precision_envelope(s: Strategy, t: float) -> float:
    """Frequency uncertainty delta_P / |dP/domega| of m shots of duration t,
    P = (1 + e^{-gamma_eff t} cos(rate omega t)) / 2 and delta_P = sqrt(P (1 - P) / m), tuned
    to quadrature (cos(rate omega t) = 0): m is n T/t for product probes and T/t for the cat,
    and 1 / sqrt(m) is formed from the roots of t, T and n, since m itself can overflow. For
    the same reason the rate divides last: the cat's phase 0.5 rate t can overflow."""
    gamma_eff, rate = _decay_and_rate(s)
    n = s.n if s.kind == StrategyKind.PRODUCT else 1
    shot = 0.5 * math.sqrt(t) / math.sqrt(s.T_total) / math.sqrt(n)
    return math.exp(gamma_eff * t) / (0.5 * t) / rate * shot


def optimize_precision(s: Strategy) -> OptimizedPrecision:
    """Minimize the quadrature-tuned uncertainty over t in (0, T_total].

    With decay gamma_eff the envelope exp(gamma_eff t)/sqrt(t) has its
    interior optimum at gamma_eff t = 1/2; without decay the objective
    improves monotonically with t and the budget boundary is returned with
    a flag. Raises OverflowError when the uncertainty is not finite (a budget
    so small, or a decay so fast, that it overflows or its shot time is 0).
    """
    gamma_eff, _ = _decay_and_rate(s)
    t_star = min(1.0 / (2.0 * gamma_eff), s.T_total) if gamma_eff else s.T_total
    try:
        delta_omega = precision_envelope(s, t_star)
    except ZeroDivisionError:
        delta_omega = math.inf
    if not math.isfinite(delta_omega):
        raise OverflowError(f"delta_omega {delta_omega} is not finite at t_star {t_star!r}")
    return OptimizedPrecision(t_star, delta_omega, t_star == s.T_total)


# ---------------------------------------------------------------------------
# Information-gain improvement curve (two hypotheses, symmetric decoherence)
# ---------------------------------------------------------------------------
#
# Two equiprobable hypotheses on a two-qubit probe: no field versus a static
# field of frequency omega on each qubit. Either probe is prepared, evolves
# for time t under symmetric decoherence at rate gamma, and the minimum-error
# measurement is performed. The undamped overlap angle theta between the
# evolved and static states is omega t for the entangled (Bell) probe and
# arccos(cos^2(omega t / 2)) for the product probe; the minimum achievable
# error is 1/2 - 1/2 e^{-gamma t} |sin theta|.

ENTANGLED = "entangled"
PRODUCT = "product"
FIGURE1_GRID = 64  # pre-scan points: on _fig1_window they only seed golden-section's bracket


def _entangled(strategy):
    """Check the probe names; return the boolean mask of the entangled ones."""
    strategy = np.asarray(strategy)
    entangled = strategy == ENTANGLED
    if not np.all(entangled | (strategy == PRODUCT)):
        raise ValueError(f"unknown strategy {strategy!r}")
    return entangled


def _sin_theta(entangled, omega_t):
    """|sin theta(t)|, one sine per element; `entangled` is a mask, or a bool for one probe."""
    if entangled is True:
        return np.abs(np.sin(omega_t))
    half = omega_t / 2.0
    # The product form is sqrt(1 - cos^4(omega t / 2)) factored: no 1 - cos^4 cancels.
    if entangled is False:
        return np.abs(np.sin(half)) * np.sqrt(1.0 + np.square(np.cos(half)))
    s = np.abs(np.sin(np.where(entangled, omega_t, half)))
    return np.where(entangled, s, s * np.sqrt(1.0 + np.square(np.cos(half))))


# Each objective as a function of e = e^{-gamma t} and s = |sin theta(t)|.
def _error_probability(e, s):
    return 0.5 - 0.5 * e * s


def _measurement_info(e, s):
    e1 = 1.0 + e
    return two_outcome_gain(e1 / 4.0, 2.0 * e * s / e1)


def _binary_info(e, s):
    return two_outcome_gain(0.5, e * s)


def _fig1_kernel(objective, entangled, gamma, omega, t):
    return objective(np.exp(-gamma * t), _sin_theta(entangled, omega * t))


def fig1_sin_theta(strategy, omega_t):
    """|sin theta(t)| of the evolving-versus-static state pair, for one
    strategy or an array of them that broadcasts against omega_t."""
    return _sin_theta(_entangled(strategy), np.asarray(omega_t, dtype=float))


def fig1_error_probability(strategy, gamma, omega: float, t):
    """Minimum-error probability 1/2 - 1/2 e^{-gamma t} |sin theta|."""
    t = np.asarray(t, dtype=float)
    return _fig1_kernel(_error_probability, _entangled(strategy), gamma, omega, t)


def fig1_measurement_info(strategy, gamma, omega: float, t):
    """Mutual information (bits) between the hypothesis and the outcome of
    the complete orthogonal measurement in the decision eigenbasis.

    In the four-dimensional probe space the two states are
    e^{-gamma t} |psi_i><psi_i| + (1 - e^{-gamma t}) I/4; the decision
    operator's eigenbasis consists of the two in-span vectors (outcome
    probabilities m (1 +/- u) with m = (1+e)/4 and u = 2 e sin theta / (1+e),
    the signs swapped between the hypotheses) and two null-space vectors
    ((1-e)/4 each under both hypotheses). The null-space outcomes add the
    same terms to H(Y) and H(Y|X), so I = H(Y) - H(Y|X) is the two-outcome
    gain of m and u.
    """
    t = np.asarray(t, dtype=float)
    return _fig1_kernel(_measurement_info, _entangled(strategy), gamma, omega, t)


def fig1_binary_info(strategy, gamma, omega: float, t):
    """1 - H2(p_error): the symmetric binary-channel reading of the gain, the
    two-outcome gain of m = 1/2 and u = e^{-gamma t} |sin theta|."""
    t = np.asarray(t, dtype=float)
    return _fig1_kernel(_binary_info, _entangled(strategy), gamma, omega, t)


class Figure1Point(NamedTuple):
    ratio: float
    t_star_ent: float
    t_star_prod: float
    info_ent: float
    info_prod: float
    delta_bits: float
    info_ent_binary: float
    info_prod_binary: float
    delta_bits_binary: float
    p_err_ent: float
    p_err_prod: float
    delta_p_err: float


@dataclass(frozen=True)
class Figure1Result:
    points: tuple[Figure1Point, ...]
    peak_ratio: float
    peak_bits: float


def _fig1_window(entangled, gamma):
    """The first rise of s = |sin theta(t)|, (0, pi / 2] entangled or (0, pi] product, up to
    10 / max(gamma, 1), holds every figure1 optimum, and each objective has one lobe on it: each
    improves with s and with e = e^{-gamma t}, and s is symmetric within each period. s(t) <= t,
    so t = 1 / gamma beats every t past 10 / gamma; the cap keeps e >= e^{-10}, so no search
    compares values that have all underflowed to 0. max(gamma, 1) keeps it finite at 5e-324."""
    return np.minimum(np.where(entangled, math.pi / 2, math.pi), 10.0 / np.maximum(gamma, 1.0))


def _fig1_optimize(objective, entangled, ratios, grid: int, sign: float):
    """Minimize sign * objective(e^{-gamma t}, |sin theta(t)|) over t in _fig1_window, in one
    batched search over the broadcast of `entangled` (one probe's bool, or a mask) and `ratios`,
    at omega = 1 (the gains depend only on the ratio), in tau = t max(gamma, 1) so that its 1e-9
    is relative to t* ~ 1 / gamma too. Returns (t_star, sign * minimum)."""
    gamma = np.broadcast_arrays(entangled, ratios)[1]
    scale = np.maximum(gamma, 1.0)
    tau, value = grid_golden_minimize(
        lambda tau: sign * _fig1_kernel(objective, entangled, gamma, 1.0, tau / scale),
        _fig1_window(entangled, gamma) * scale, grid_points=grid)
    return tau / scale, sign * value


def _fig1_information(ratios, grid: int):
    """(ratios, t_star, info): the checked ratios and their (probe, ratio) information optima."""
    ratios = np.asarray(ratios, dtype=float)
    if ratios.size == 0 or not np.all((ratios > 0) & np.isfinite(ratios)):
        raise ValueError("ratios must be positive and finite")
    return ratios, *np.reshape([_fig1_optimize(_measurement_info, p, ratios, grid, -1)
                                for p in (True, False)], (2, 2, -1)).swapaxes(0, 1)


def _fig1_rows(ratios, t_star, info, grid: int) -> list[Figure1Point]:
    """The rows of `ratios` from their information columns and their binary and error searches."""
    binary, p_err = np.reshape([_fig1_optimize(objective, p, ratios, grid, sign)[1]
                                for objective, sign in ((_binary_info, -1), (_error_probability, 1))
                                for p in (True, False)], (2, 2, -1))
    # Figure1Point's columns, in its field order.
    table = np.stack([ratios.reshape(-1), *t_star, *info, info[0] - info[1], *binary,
                      binary[0] - binary[1], *p_err, p_err[1] - p_err[0]])
    return [Figure1Point(*map(float, row)) for row in table.T]


def figure1_points(ratios, grid: int = FIGURE1_GRID) -> list[Figure1Point]:
    """Evaluate both strategies at every decoherence-to-frequency ratio.

    The information and its optimal times come from maximizing the
    measurement information over t; the binary-reading columns are evaluated
    at their own optimal times, and the error columns at the
    error-minimizing times. Each column of each probe is one batched search
    over all ratios; a scalar `ratios` is searched on 0-d arrays.
    """
    return _fig1_rows(*_fig1_information(ratios, grid), grid)


def figure1_point(ratio: float, grid: int = FIGURE1_GRID) -> Figure1Point:
    """figure1_points at a single ratio."""
    return figure1_points(float(ratio), grid)[0]


def figure1_curve(ratios, grid: int = FIGURE1_GRID, refine_peak: bool = True) -> Figure1Result:
    """Information-gain improvement over a set of decoherence ratios.

    Evaluates every requested ratio, in ratio order, optionally refines the
    peak of the improvement between its neighbours on the log-ratio axis
    (refine_log_peak), and returns the points together with the located peak.
    """
    ratios, t_star, info = _fig1_information(np.sort(ratios, axis=None), grid)
    i = int(np.argmax(info[0] - info[1]))
    # An end point is not refined: its bracket could only converge back to it.
    if refine_peak and 0 < i < ratios.size - 1 and ratios[i - 1] < ratios[i + 1]:
        ratio, t, value = refine_log_peak(ratios[[i - 1, i + 1]], t_star[:, [i - 1, i + 1]].T)
        ratios = np.append(ratios, ratio)
        t_star, info = np.column_stack([t_star, t]), np.column_stack([info, value])
    points = sorted(_fig1_rows(ratios, t_star, info, grid), key=lambda p: p.ratio)
    best = max(points, key=lambda p: p.delta_bits)
    return Figure1Result(points=tuple(points), peak_ratio=best.ratio, peak_bits=best.delta_bits)


# Interior log-ratios per search in refine_log_peak: keeping the two intervals
# around the best of them shrinks the bracket (REFINE_POINTS + 1) / 2 = 32 times.
REFINE_POINTS = 63


def refine_log_peak(ratios, times):
    """Maximize delta_bits on the log-ratio interval between two curve ratios.

    `times` holds a (t_star_ent, t_star_prod) row per end of `ratios`. Each step
    evaluates REFINE_POINTS evenly spaced interior log-ratios and keeps the two
    intervals around the best (the first of equal values), until the bracket [a, b]
    is narrower than 1e-7 * max(1, |b|). Each probe's information optimum time falls
    as the ratio grows, so a step is one _golden_finish (golden section, then a parabolic
    step below _FINISH_TOL, to _TIME_TOL) of the REFINE_POINTS x 2 (log-ratio, probe) rows
    between the end times. Returns the last step's best ratio, and its (entangled, product)
    times and measurement information there."""
    (a, b), ends = map(math.log, ratios), np.asarray(times, dtype=float)
    entangled = np.array([True, False])
    while True:
        x = np.linspace(a, b, REFINE_POINTS + 2)
        gamma = np.exp(x[1:-1])[:, None]
        bracket = np.sort(ends, axis=0)  # each probe's shorter and longer end time
        # Widened by 4 _TIME_TOL max(1, t), 8 times the half-width of the last bracket of the
        # search that gave each end, so the interior optima lie inside; clamped to each window.
        bracket += [[-4.0], [4.0]] * np.maximum(1.0, bracket) * _TIME_TOL
        window = _fig1_window(entangled, gamma)
        t, neg_info = _golden_finish(
            lambda t: -_fig1_kernel(_measurement_info, entangled, gamma, 1.0, t),
            np.maximum(bracket[0], 0), np.minimum(bracket[1], window), window)
        i = int(np.argmax(neg_info[:, 1] - neg_info[:, 0]))  # the best delta_bits
        a, b = float(x[i]), float(x[i + 2])
        if b - a <= 1e-7 * max(1.0, abs(b)):
            return float(gamma[i, 0]), t[i], -neg_info[i]
        ends = np.concatenate([ends[:1], t, ends[1:]])[[i, i + 2]]
