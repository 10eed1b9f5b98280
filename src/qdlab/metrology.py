"""Frequency metrology: product versus entangled probes under decoherence.

Single-shot outcome probabilities for the two probe families, the
error-propagation chain turning repeated shots into a frequency uncertainty,
time-budget optimization of that uncertainty, and the information-gain
improvement curve for the two-hypothesis problem (static field versus no
field) under basis-free symmetric decoherence.

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

from .discrimination import golden_minimize, grid_golden_minimize, two_outcome_gain
from .dynamics import NoiseKind, NoiseModel
from .errors import UnsupportedModelError


class StrategyKind:
    PRODUCT = "product"
    CAT = "cat"


@dataclass(frozen=True)
class Strategy:
    """Probe family, qubit count, per-shot duration, and time budget."""

    kind: str
    n: int
    t: float
    T_total: float
    omega: float
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self):
        if self.kind not in (StrategyKind.PRODUCT, StrategyKind.CAT):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("need at least one qubit")
        if not 0 < self.t <= self.T_total:
            raise ValueError("need 0 < t <= T_total")


@dataclass(frozen=True)
class PrecisionReport:
    delta_omega: float
    p_plus: float
    shots: int


@dataclass(frozen=True)
class OptimizedPrecision:
    t_star: float
    delta_omega: float
    at_boundary: bool


def _decay_and_rate(s: Strategy) -> tuple[float, float]:
    """Effective amplitude decay exponent gamma_eff (per unit time) and the
    phase accumulation rate (multiples of omega) for the +/- probability."""
    g = s.noise.gamma
    if s.kind == StrategyKind.PRODUCT:
        if s.noise.kind is NoiseKind.NONE:
            return 0.0, 1.0
        if s.noise.kind in (
            NoiseKind.QUBIT_DEPOLARIZING,
            NoiseKind.INDEPENDENT_DEPOLARIZING,
            NoiseKind.SYMMETRIC,
        ):
            return g, 1.0
    else:  # cat
        if s.noise.kind is NoiseKind.NONE:
            return 0.0, float(s.n)
        if s.noise.kind is NoiseKind.INDEPENDENT_DEPOLARIZING:
            return s.n * g, float(s.n)
        if s.noise.kind is NoiseKind.SYMMETRIC:
            return g, float(s.n)
        if s.noise.kind is NoiseKind.QUBIT_DEPOLARIZING and s.n == 1:
            return g, 1.0
    raise UnsupportedModelError(f"no closed form for ({s.kind}, {s.noise.kind.value}, n={s.n})")


def shot_probability(s: Strategy) -> float:
    """Probability of the + outcome of the transverse parity measurement.

    Product probes precess at omega and keep their single-qubit decay; the
    cat state precesses n times faster, pays n-fold decay under independent
    depolarizing, but only single-qubit decay under symmetric decoherence.
    """
    gamma_eff, rate = _decay_and_rate(s)
    return 0.5 * (1.0 + math.exp(-gamma_eff * s.t) * math.cos(rate * s.omega * s.t))


def _repetitions(s: Strategy, t: float) -> float:
    if s.kind == StrategyKind.PRODUCT:
        return s.n * s.T_total / t
    return s.T_total / t


def precision(s: Strategy) -> PrecisionReport:
    """Frequency uncertainty from the error-propagation chain.

    delta_P = sqrt(P (1 - P) / m) with m the repetition count
    (n T/t for product probes, T/t for the cat), and
    delta_omega = delta_P / |dP/domega|. Shots are reported rounded; the
    chain itself uses the ideal (real) repetition rate.
    """
    gamma_eff, rate = _decay_and_rate(s)
    p = shot_probability(s)
    m = _repetitions(s, s.t)
    if gamma_eff == 0.0:
        # The |sin| factors of delta_P and dP/domega cancel algebraically;
        # dividing them numerically would break down at the turning points.
        delta_omega = 1.0 / (rate * s.t * math.sqrt(m))
    else:
        dp_domega = (
            0.5 * rate * s.t * math.exp(-gamma_eff * s.t) * abs(math.sin(rate * s.omega * s.t))
        )
        delta_p = math.sqrt(max(p * (1.0 - p), 0.0) / m)
        delta_omega = delta_p / dp_domega if dp_domega > 0 else math.inf
    return PrecisionReport(delta_omega=delta_omega, p_plus=p, shots=int(round(m)))


def precision_envelope(s: Strategy, t: float) -> float:
    """The chain of `precision` with the shot tuned to quadrature
    (cos(rate omega t) = 0), as a function of the per-shot duration."""
    gamma_eff, rate = _decay_and_rate(s)
    return math.exp(gamma_eff * t) / (0.5 * rate * t) * 0.5 / math.sqrt(_repetitions(s, t))


def optimize_precision(s: Strategy) -> OptimizedPrecision:
    """Minimize the quadrature-tuned uncertainty over t in (0, T_total].

    With decay gamma_eff the envelope exp(gamma_eff t)/sqrt(t) has its
    interior optimum at gamma_eff t = 1/2; without decay the objective
    improves monotonically with t and the budget boundary is returned with
    a flag.
    """
    gamma_eff, _ = _decay_and_rate(s)
    if gamma_eff == 0.0:
        t_star = s.T_total
        return OptimizedPrecision(t_star, precision_envelope(s, t_star), at_boundary=True)
    t_star = 1.0 / (2.0 * gamma_eff)
    if t_star >= s.T_total:
        return OptimizedPrecision(s.T_total, precision_envelope(s, s.T_total), at_boundary=True)
    return OptimizedPrecision(t_star, precision_envelope(s, t_star), at_boundary=False)


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


def fig1_sin_theta(strategy, omega_t):
    """|sin theta(t)| of the evolving-versus-static state pair, for one
    strategy or an array of them that broadcasts against omega_t."""
    strategy = np.asarray(strategy)
    entangled = strategy == ENTANGLED
    if not np.all(entangled | (strategy == PRODUCT)):
        raise ValueError(f"unknown strategy {strategy!r}")
    omega_t = np.asarray(omega_t, dtype=float)
    # The product form is sqrt(1 - cos^4(omega t / 2)) factored: no 1 - cos^4 cancels.
    return np.where(
        entangled,
        np.abs(np.sin(omega_t)),
        np.abs(np.sin(omega_t / 2.0)) * np.sqrt(1.0 + np.square(np.cos(omega_t / 2.0))),
    )


def fig1_error_probability(strategy, gamma, omega: float, t):
    """Minimum-error probability 1/2 - 1/2 e^{-gamma t} |sin theta|."""
    t = np.asarray(t, dtype=float)
    return 0.5 - 0.5 * np.exp(-gamma * t) * fig1_sin_theta(strategy, omega * t)


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
    e = np.exp(-gamma * t)
    s = fig1_sin_theta(strategy, omega * t)
    return two_outcome_gain((1.0 + e) / 4.0, 2.0 * e * s / (1.0 + e))


def fig1_binary_info(strategy, gamma, omega: float, t):
    """1 - H2(p_error): the symmetric binary-channel reading of the gain, the
    two-outcome gain of m = 1/2 and u = e^{-gamma t} |sin theta|."""
    t = np.asarray(t, dtype=float)
    return two_outcome_gain(0.5, np.exp(-gamma * t) * fig1_sin_theta(strategy, omega * t))


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


def _fig1_optimize(objective, strategy, ratios, grid: int, sign: float):
    """Minimize sign * objective over t, in one batched search over the
    broadcast of `strategy` and `ratios`, with omega = 1 (the gains depend
    only on the ratio). Returns (t_star, sign * minimum)."""
    strategy, gamma = np.broadcast_arrays(strategy, ratios)
    # min(4 pi, 10 / gamma) holds every optimum: each objective improves with
    # s = |sin theta(t)| and e = e^{-gamma t} (a smaller e only mixes in uniform,
    # hypothesis-independent noise), s has period pi or 2 pi, so the optimum is
    # in (0, 2 pi]; and s(t) <= t, so t = 1 / gamma beats every t past 10 / gamma.
    t_max = 10.0 / np.maximum(gamma, 2.5 / math.pi)
    t, value = grid_golden_minimize(
        lambda t: sign * objective(strategy, gamma, 1.0, t), t_max, grid_points=grid
    )
    return t, sign * value


def figure1_points(ratios, grid: int = 2048) -> list[Figure1Point]:
    """Evaluate both strategies at every decoherence-to-frequency ratio.

    The information and its optimal times come from maximizing the
    measurement information over t; the binary-reading columns are evaluated
    at their own optimal times, and the error columns at the
    error-minimizing times. Each column of each probe is one batched search
    over all ratios; a scalar `ratios` is searched on 0-d arrays.
    """
    ratios = np.asarray(ratios, dtype=float)
    if ratios.size == 0 or not np.all((ratios > 0) & np.isfinite(ratios)):
        raise ValueError("ratios must be positive and finite")
    columns = ((fig1_measurement_info, -1), (fig1_binary_info, -1), (fig1_error_probability, 1))
    searches = [
        _fig1_optimize(objective, strategy, ratios, grid, sign)
        for objective, sign in columns
        for strategy in (ENTANGLED, PRODUCT)
    ]
    # Axes: objective, probe (entangled first), (t_star, value), ratio.
    s = np.reshape(searches, (3, 2, 2, -1))
    t_star, info, binary, p_err = s[0, :, 0], s[0, :, 1], s[1, :, 1], s[2, :, 1]
    return [
        Figure1Point(
            ratio=float(r),
            t_star_ent=float(t_star[0, i]),
            t_star_prod=float(t_star[1, i]),
            info_ent=float(info[0, i]),
            info_prod=float(info[1, i]),
            delta_bits=float(info[0, i] - info[1, i]),
            info_ent_binary=float(binary[0, i]),
            info_prod_binary=float(binary[1, i]),
            delta_bits_binary=float(binary[0, i] - binary[1, i]),
            p_err_ent=float(p_err[0, i]),
            p_err_prod=float(p_err[1, i]),
            delta_p_err=float(p_err[1, i] - p_err[0, i]),
        )
        for i, r in enumerate(ratios.reshape(-1))
    ]


def figure1_point(ratio: float, grid: int = 2048) -> Figure1Point:
    """figure1_points at a single ratio."""
    return figure1_points(float(ratio), grid)[0]


def figure1_curve(ratios, grid: int = 2048, refine_peak: bool = True) -> Figure1Result:
    """Information-gain improvement over a set of decoherence ratios.

    Evaluates every requested ratio, optionally refines the peak of the
    improvement by golden section on the log-ratio axis, and returns the
    ratio-ordered points together with the located peak.
    """
    points = figure1_points(ratios, grid)

    if refine_peak and len(points) >= 3:
        deltas = [p.delta_bits for p in points]
        i = int(np.argmax(deltas))
        lo = points[max(i - 1, 0)].ratio
        hi = points[min(i + 1, len(points) - 1)].ratio
        if lo < hi:
            points.append(refine_log_peak(lo, hi, grid))
            points.sort(key=lambda p: p.ratio)

    best = max(points, key=lambda p: p.delta_bits)
    return Figure1Result(points=tuple(points), peak_ratio=best.ratio, peak_bits=best.delta_bits)


# Golden steps per objective call in refine_log_peak: 2^k - 1 log-ratio nodes,
# two probe rows each, in one time search. k = 3 measured faster than 2 and 4.
REFINE_LOOKAHEAD = 3


def refine_log_peak(lo: float, hi: float, grid: int) -> Figure1Point:
    """Golden-section maximization of delta_bits on the log-ratio interval.
    Each objective call is one measurement-information search over both
    probes at every log-ratio node of a REFINE_LOOKAHEAD-step lookahead."""

    def neg_delta(x):
        ratios = np.exp(x)[..., None]
        _, info = _fig1_optimize(fig1_measurement_info, [ENTANGLED, PRODUCT], ratios, grid, -1)
        return info[..., 1] - info[..., 0]

    x, _ = golden_minimize(neg_delta, math.log(lo), math.log(hi), 1e-7, REFINE_LOOKAHEAD)
    return figure1_point(math.exp(x), grid)
