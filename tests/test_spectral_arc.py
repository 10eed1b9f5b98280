import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from qdlab import cli, discrimination as disc, qmath, spectral_arc as arc, tolerances
from qdlab.errors import NoDiscriminationError
from conftest import random_hermitian, random_unitary


# Reference copies of the sweep's formula evaluated one case at a time; the
# stacked sweep must reproduce them bit for bit.
def reference_random_hermitian(dim, sup, rng):
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Hm = (A + A.conj().T) / 2
    current = qmath.sup_norm(Hm)
    if current == 0.0:
        return Hm
    return Hm * (sup / current)


def reference_draw(dim, sup, rng):
    """reference_random_hermitian's matrix, with its eigenvalues (those of the
    raw draw times the scale) and the raw draw's eigenvectors."""
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Hm = (A + A.conj().T) / 2
    w, V = qmath.herm_eig(Hm)
    current = float(np.max(np.abs(w)))
    scale = sup / current if current != 0.0 else sup
    return Hm * scale, w * scale, V


def reference_arc_bound_check(H, K, w_h=None, eig_k=None, tol=tolerances.ARC_CHECK):
    """One case: e^{iK} rebuilt from K's eigendecomposition and the arguments of
    e^{-iH} read off exp(-i w_h); H's and K's own decompositions by default."""
    w_h = qmath.herm_eig(H)[0] if w_h is None else w_h
    w_k, V_k = qmath.herm_eig(K) if eig_k is None else eig_k
    W = (V_k * np.exp(1j * w_k)) @ V_k.conj().T @ qmath.expm_i(H + K, 1.0)
    args_w = qmath.unitary_args(W)
    lam = np.exp(-1j * w_h)
    args_h = np.angle(lam / np.abs(lam))
    args_h[args_h <= -np.pi + tolerances.BRANCH_FOLD] = np.pi
    args_h.sort()
    lhs_max, lhs_min = float(args_w[-1]), float(args_w[0])
    rhs_max, rhs_min = float(args_h[-1]), float(args_h[0])
    holds = (lhs_max <= rhs_max + tol) and (lhs_min >= rhs_min - tol)
    return arc.ArcBoundCases(
        H, K, lhs_max, rhs_max, lhs_min, rhs_min, holds, float(np.max(np.abs(w_h))) < math.pi
    )


def reference_recheck(H, K, margin):
    """The independent recheck of one candidate: Pade exponentials, Schur eigenvalues."""
    W = scipy.linalg.expm(1j * K) @ scipy.linalg.expm(-1j * (H + K))
    args_w = np.sort(np.angle(np.diag(scipy.linalg.schur(W, output="complex")[0])))
    U = scipy.linalg.expm(-1j * H)
    args_h = np.sort(np.angle(np.diag(scipy.linalg.schur(U, output="complex")[0])))
    return max(args_w[-1] - args_h[-1], args_h[0] - args_w[0]) > margin


def exponentiate_then_eig(H, K, tol=tolerances.ARC_CHECK):
    """The route the sweep took before each generator was diagonalized once:
    e^{iK} and e^{-iH} from their own eigh, eig of both unitaries, and a
    separate sup norm for the regime. Returns the ArcBoundCases fields after K."""
    W = qmath.expm_i(K, -1.0) @ qmath.expm_i(H + K, 1.0)
    args_w = qmath.unitary_args(W)
    args_h = qmath.unitary_args(qmath.expm_i(H, 1.0))
    lhs_max, lhs_min = args_w[:, -1], args_w[:, 0]
    rhs_max, rhs_min = args_h[:, -1], args_h[:, 0]
    holds = (lhs_max <= rhs_max + tol) & (lhs_min >= rhs_min - tol)
    return lhs_max, rhs_max, lhs_min, rhs_min, holds, qmath.sup_norm(H) < math.pi


def reference_verify_rows(params, seed):
    """The theorem-check verify runner, one trial at a time."""
    rows = []
    for i, dim in enumerate(params["dims"]):
        holds, worst = 0, -math.inf
        for child in np.random.SeedSequence(seed + 1000 * i).spawn(params["trials"]):
            rng = np.random.default_rng(child)
            H, w_h, _ = reference_draw(dim, rng.uniform(0, params["h_norm_max"]), rng)
            K, w_k, V_k = reference_draw(dim, rng.uniform(0, params["k_norm_max"]), rng)
            case = reference_arc_bound_check(H, K, w_h, (w_k, V_k))
            holds += int(case.holds)
            worst = max(worst, case.max_violation)
        rows.append({"dim": dim, "trials": params["trials"], "holds": holds,
                     "violations": params["trials"] - holds, "worst_violation": worst})
    return rows


def reference_search(dim, trials, rng_seed, margin=1e-6):
    found = []
    for child in np.random.SeedSequence(rng_seed).spawn(trials):
        rng = np.random.default_rng(child)
        H, w_h, _ = reference_draw(dim, rng.uniform(math.pi, 1.5 * math.pi), rng)
        K, w_k, V_k = reference_draw(dim, rng.uniform(0.1, 10.0), rng)
        case = reference_arc_bound_check(H, K, w_h, (w_k, V_k))
        if case.max_violation > margin and reference_recheck(H, K, margin):
            found.append(case)
    return found


def reference_fixed_time(dim, t, samples, seed, h_norm, k_norm):
    """fixed_time_sweep one sample at a time: its rows and the (H, K) pairs."""
    rows, pairs = [], []
    for idx, child in enumerate(np.random.SeedSequence(seed).spawn(samples)):
        rng = np.random.default_rng(child)
        H = reference_random_hermitian(dim, h_norm * rng.uniform(0.2, 1.0), rng)
        K = reference_random_hermitian(dim, k_norm * rng.uniform(0.0, 1.0), rng)
        driven = disc.fixed_time_overlap(H, K, t)
        undriven = disc.fixed_time_overlap(H, np.zeros_like(K), t)
        rows.append(disc.FixedTimeRow(idx, dim, t, driven, undriven, driven - undriven))
        pairs.append((H, K))
    return rows, pairs


def reference_adaptive_eliminate(gens, true_index, rng):
    """Pairwise elimination one trial and one round at a time: (identified,
    measurements, transcript) as adaptive_eliminate returns them."""
    alive, transcript = list(range(len(gens))), []
    while len(alive) > 1:
        i, j = alive[0], alive[1]
        drive, psi0, t_star = disc.cancellation_strategy(gens[j], gens[i])
        flipped_state = qmath.expm_i(gens[j] + drive, t_star) @ psi0
        evolved = qmath.expm_i(gens[true_index] + drive, t_star) @ psi0
        p_flip = float(np.abs(np.vdot(flipped_state, evolved)) ** 2)
        outcome_flip = bool(rng.random() < p_flip)
        eliminated = i if outcome_flip else j
        alive.remove(eliminated)
        transcript.append({"pair": (i, j), "t_star": float(t_star), "p_flip": p_flip,
                           "outcome_flip": outcome_flip, "eliminated": eliminated})
    return alive[0], len(transcript), transcript


def reference_eliminate(n, dim, trials, seed):
    """eliminate_sweep one generator and one trial at a time: its rows and each
    trial's generators."""
    rows, ensembles = [], []
    for idx, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.default_rng(child)
        gens = [reference_random_hermitian(dim, 2.0, rng) for _ in range(n)]
        true_index = int(rng.integers(n))
        found, count, _ = reference_adaptive_eliminate(gens, true_index, rng)
        rows.append(disc.EliminateRow(idx, true_index, found, count, int(found == true_index)))
        ensembles.append(gens)
    return rows, ensembles


def spy_kernels(monkeypatch, kernels=("herm_eig", "expm_i", "_eig_expm_i", "unitary_args",
                                      "_eig_unitary_args")):
    """Record (kernel name, input size) of every call of the named qmath kernels."""
    calls = []

    def spy(name, kernel):
        def spied(M, *args, **kwargs):
            calls.append((name, np.asarray(M).size))
            return kernel(M, *args, **kwargs)
        return spied

    for name in kernels:
        monkeypatch.setattr(qmath, name, spy(name, getattr(qmath, name)))
    return calls


def assert_same_case(a, b):
    assert np.array_equal(a.H, b.H) and np.array_equal(a.K, b.K)
    assert (a.lhs_max, a.rhs_max, a.lhs_min, a.rhs_min) == (
        b.lhs_max, b.rhs_max, b.lhs_min, b.rhs_min
    )
    assert (a.holds, a.in_regime) == (b.holds, b.in_regime)
    assert type(a.holds) is type(b.holds) is bool
    assert type(a.in_regime) is type(b.in_regime) is bool


class TestMaxMinArg:
    def test_identity(self):
        assert arc.maxarg(np.eye(4)) == pytest.approx(0.0, abs=1e-12)
        assert arc.minarg(np.eye(4)) == pytest.approx(0.0, abs=1e-12)

    def test_constructed_diagonal(self):
        U = np.diag([np.exp(3j), np.exp(-1j)])
        assert arc.maxarg(U) == pytest.approx(3.0, abs=1e-12)
        assert arc.minarg(U) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_generator_extremes(self, rng):
        H = random_hermitian(rng, 5)
        H *= 0.9 * math.pi / np.max(np.abs(np.linalg.eigvalsh(H)))
        w = np.linalg.eigvalsh(H)
        assert arc.maxarg(qmath.expm_i(H, 1.0)) == pytest.approx(-w[0], abs=1e-10)
        assert arc.minarg(qmath.expm_i(H, 1.0)) == pytest.approx(-w[-1], abs=1e-10)

    def test_conjugation_invariance(self, rng):
        U = random_unitary(rng, 4)
        V = random_unitary(rng, 4)
        assert arc.maxarg(V @ U @ V.conj().T) == pytest.approx(arc.maxarg(U), abs=1e-10)
        assert arc.minarg(V @ U @ V.conj().T) == pytest.approx(arc.minarg(U), abs=1e-10)

    def test_constant_shift(self, rng):
        H = random_hermitian(rng, 3)
        H *= 0.5 / np.max(np.abs(np.linalg.eigvalsh(H)))
        for c in (-0.7, 0.3, 0.7):
            shifted = arc.maxarg(qmath.expm_i(H + c * np.eye(3), 1.0))
            assert shifted == pytest.approx(arc.maxarg(qmath.expm_i(H, 1.0)) - c, abs=1e-10)


class TestProductArcs:
    """maxarg and minarg add at most across a product of unitaries whose arcs are
    confined: the composition lemma behind the arc bound."""

    def test_random_confined_arcs(self, rng):
        for _ in range(500):
            dim = int(rng.integers(2, 5))
            U1 = qmath.expm_i(arc.random_hermitian(dim, rng.uniform(0, math.pi / 4), rng), 1.0)
            U2 = qmath.expm_i(arc.random_hermitian(dim, rng.uniform(0, math.pi / 4), rng), 1.0)
            tol = tolerances.ARC_CHECK
            assert arc.maxarg(U1 @ U2) <= arc.maxarg(U1) + arc.maxarg(U2) + tol
            assert arc.minarg(U1 @ U2) >= arc.minarg(U1) + arc.minarg(U2) - tol

    def test_equality_for_shared_eigenvectors(self, rng):
        H = random_hermitian(rng, 3)
        H *= 0.3 / np.max(np.abs(np.linalg.eigvalsh(H)))
        U = qmath.expm_i(H, 1.0)
        assert arc.maxarg(U @ U) == pytest.approx(2 * arc.maxarg(U), abs=1e-9)
        assert arc.minarg(U @ U) == pytest.approx(2 * arc.minarg(U), abs=1e-9)

    def test_commuting_factors_add_phases(self):
        a, b = np.array([0.4, -0.2, 1.1]), np.array([-0.9, 0.5, 0.3])
        U = np.diag(np.exp(1j * a)) @ np.diag(np.exp(1j * b))
        assert arc.maxarg(U) == pytest.approx(1.4, abs=1e-12)
        assert arc.minarg(U) == pytest.approx(-0.5, abs=1e-12)


class TestArcBound:
    def test_commuting_drive_equality(self, rng):
        # With [H, K] = 0, e^{iK} e^{-i(H+K)} is e^{-iH}: both sides coincide.
        H = np.diag(rng.uniform(-3.0, 3.0, size=4))
        K = np.diag(rng.normal(scale=5.0, size=4))
        case = arc.arc_bound_check(H, K)
        assert case.holds and case.in_regime
        assert case.lhs_max == pytest.approx(case.rhs_max, abs=1e-10)
        assert case.lhs_min == pytest.approx(case.rhs_min, abs=1e-10)

    def test_zero_drive_equality(self, rng):
        H = random_hermitian(rng, 4)
        H *= 2.0 / np.max(np.abs(np.linalg.eigvalsh(H)))
        case = arc.arc_bound_check(H, np.zeros_like(H))
        assert case.holds and case.in_regime
        assert case.lhs_max == pytest.approx(case.rhs_max, abs=1e-10)
        assert case.lhs_min == pytest.approx(case.rhs_min, abs=1e-10)

    def test_full_cancellation_equality(self, rng):
        H = random_hermitian(rng, 3)
        H *= 1.5 / np.max(np.abs(np.linalg.eigvalsh(H)))
        case = arc.arc_bound_check(H, -H)
        assert case.holds
        assert case.lhs_max == pytest.approx(case.rhs_max, abs=1e-10)

    def test_randomized_in_regime(self, rng):
        # Trimmed version of the acceptance sweep.
        for _ in range(500):
            dim = int(rng.integers(2, 7))
            H = arc.random_hermitian(dim, rng.uniform(0, math.pi * 0.999), rng)
            K = arc.random_hermitian(dim, rng.uniform(0, 10.0), rng)
            case = arc.arc_bound_check(H, K)
            assert case.in_regime
            assert case.holds, case.max_violation

    def test_out_of_regime_flag(self, rng):
        H = arc.random_hermitian(3, 1.2 * math.pi, rng)
        case = arc.arc_bound_check(H, np.zeros_like(H))
        assert not case.in_regime


class TestStackedArcBound:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 6),
        sup=st.floats(0.0, 20.0),
    )
    def test_random_hermitian_matches_reference(self, seed, dim, sup):
        got = arc.random_hermitian(dim, sup, np.random.default_rng(seed))
        want = reference_random_hermitian(dim, sup, np.random.default_rng(seed))
        assert got.shape == (dim, dim)
        assert np.array_equal(got, want)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 8), dim=st.integers(1, 6))
    def test_case_rows_equal_one_case_checks(self, seed, batch, dim):
        rng = np.random.default_rng(seed)
        pairs = [
            (reference_random_hermitian(dim, rng.uniform(0, 1.5 * math.pi), rng),
             reference_random_hermitian(dim, rng.uniform(0, 10.0), rng))
            for _ in range(batch)
        ]
        H_stack, K_stack = (np.stack(side) for side in zip(*pairs))
        cases = arc.arc_bound_cases(H_stack, K_stack)
        violations = cases.max_violation
        for i, ((H, K), case) in enumerate(zip(pairs, cases, strict=True)):
            one = arc.arc_bound_check(H, K)
            assert_same_case(case, one)
            assert_same_case(one, reference_arc_bound_check(H, K))
            assert violations[i] == one.max_violation

    def test_rescale_keeps_zero_matrices(self):
        normals = np.zeros((2, 2, 3, 3))
        normals[1, 0] = np.diag([1.0, -4.0, 2.0])
        with np.errstate(all="raise"):
            out, w, V = arc._hermitian_stack(normals, np.array([5.0, 2.0]))
        np.testing.assert_array_equal(out[0], 0.0)
        np.testing.assert_array_equal(out[1], np.diag([0.5, -2.0, 1.0]))
        np.testing.assert_array_equal(w, [[0.0, 0.0, 0.0], [-2.0, 0.5, 1.0]])
        np.testing.assert_array_equal((V * w[:, None, :]) @ V.conj().swapaxes(-1, -2), out)

    def test_zero_generators(self):
        Z = np.zeros((3, 3))
        case = arc.arc_bound_check(Z, Z)
        assert case.holds and case.in_regime
        assert case.max_violation == 0.0

    def test_sweep_rejects_empty_sizes(self):
        for dim, trials in ((0, 5), (2, 0), (-1, 5)):
            with pytest.raises(ValueError):
                arc.arc_bound_sweep(dim, trials, 1, (0.0, 1.0), (0.0, 1.0))


def same_float(x, y):
    """Equal bit for bit up to the NaN payload: the sign of a zero counts."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


class TestMaxViolation:
    """One formula for a case and a stack, taken as Python max takes it."""

    NAN = float("nan")
    # (lhs_max - rhs_max, rhs_min - lhs_min) per case.
    DIFFS = [(0.0, -0.0), (-0.0, 0.0), (NAN, 1.0), (1.0, NAN), (NAN, NAN), (2.0, -1.0),
             (-1.0, 2.0)]

    @staticmethod
    def stack(diffs):
        a, b = (np.array(side) for side in zip(*diffs))
        zeros, n = np.zeros(len(diffs)), len(diffs)
        generators = np.zeros((n, 1, 1), dtype=complex)
        flags = np.zeros(n, dtype=bool)
        return arc.ArcBoundCases(generators, generators, a, zeros, zeros, b, flags, flags)

    @pytest.mark.parametrize("a, b", DIFFS)
    def test_case_takes_what_python_max_takes(self, a, b):
        # Ties keep the first difference, and a NaN wins only in first place.
        case, = self.stack([(a, b)])
        assert isinstance(case.max_violation, float)  # a scalar, not a 0-d array
        assert same_float(float(case.max_violation), max(a, b))

    def test_case_and_its_stack_row_agree(self):
        cases = self.stack(self.DIFFS)
        violations = cases.max_violation
        assert violations.shape == (len(self.DIFFS),)
        for case, row in zip(cases, violations, strict=True):
            assert same_float(float(case.max_violation), float(row))

    def test_a_case_is_a_record_of_python_scalars(self, rng):
        H = arc.random_hermitian(3, 1.0, rng)
        case = arc.arc_bound_check(H, arc.random_hermitian(3, 2.0, rng))
        assert isinstance(case, arc.ArcBoundCases)
        assert case.H.shape == case.K.shape == (3, 3)
        assert type(case.holds) is bool and type(case.in_regime) is bool
        assert all(type(v) is float for v in (case.lhs_max, case.rhs_max, case.lhs_min,
                                              case.rhs_min))
        with pytest.raises(TypeError):  # as for a 0-d array, len is for stacks only
            len(case)


class TestTheoremCheckRunner:
    """theorem-check verify and the counterexample search reproduce the
    one-trial-at-a-time code they replaced."""

    @staticmethod
    def params(**overrides):
        return cli._merge_params(cli.EXPERIMENTS["theorem-check"], overrides)

    @pytest.mark.parametrize("trials", [250, 400])
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_verify_rows_equal_reference_loop(self, seed, trials):
        params = self.params(trials=trials)
        _, rows, _ = cli._run_theorem_check(params, seed)
        assert [r._asdict() for r in rows] == reference_verify_rows(params, seed)

    def test_blocks_give_the_same_rows_within_the_element_budget(self, monkeypatch):
        budget = 100  # blocks of 25 cases at d = 2, 11 at d = 3, 2 at d = 6
        monkeypatch.setattr(arc, "_ARC_BLOCK_ELEMS", budget)
        calls = spy_kernels(monkeypatch)
        params = self.params(trials=60)
        _, rows, _ = cli._run_theorem_check(params, 5)
        assert max(size for _, size in calls) <= budget
        # Per block: one herm_eig of each raw stack (the rescale), expm_i of
        # H + K with its herm_eig and _eig_expm_i, e^{iK} rebuilt by _eig_expm_i
        # from K's eigendecomposition, one eig-based unitary_args of W and
        # e^{-iH}'s arguments from H's spectrum: 3 eigh and 1 eig in all.
        blocks = sum(math.ceil(60 / (budget // (d * d))) for d in params["dims"])
        per_block = {"herm_eig": 3, "expm_i": 1, "_eig_expm_i": 2, "unitary_args": 1,
                     "_eig_unitary_args": 1}
        assert Counter(name for name, _ in calls) == {k: n * blocks for k, n in per_block.items()}
        monkeypatch.undo()
        assert [r._asdict() for r in rows] == reference_verify_rows(params, 5)

    # 100: blocks of 25 trials at d = 2 and of 2 at d = 6, whose flagged rows are joined.
    @pytest.mark.parametrize("budget", [None, 100])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_search_equals_reference_loop(self, dim, budget, monkeypatch):
        if budget:
            monkeypatch.setattr(arc, "_ARC_BLOCK_ELEMS", budget)
        found = arc.counterexample_search(dim, 40, 11)
        want = reference_search(dim, 40, 11)
        assert len(found) == len(want) > 0
        for a, b in zip(found, want):
            assert_same_case(a, b)

    @pytest.mark.parametrize("budget", [None, 100])
    def test_flagged_cases_are_one_stack(self, budget, monkeypatch):
        if budget:
            monkeypatch.setattr(arc, "_ARC_BLOCK_ELEMS", budget)
        flagged = arc.arc_bound_sweep(3, 60, 4, (math.pi, 1.5 * math.pi), (0.1, 10.0),
                                      1e-6).flagged
        assert isinstance(flagged, arc.ArcBoundCases)
        assert 0 < len(flagged) < 60
        assert flagged.H.shape == flagged.K.shape == (len(flagged), 3, 3)
        assert all(field.shape == (len(flagged),) for field in (
            flagged.lhs_max, flagged.rhs_max, flagged.lhs_min, flagged.rhs_min, flagged.holds,
            flagged.in_regime))
        assert (flagged.max_violation > 1e-6).all()
        assert [case.max_violation for case in flagged] == flagged.max_violation.tolist()
        rows = [0, len(flagged) - 1]
        for a, b in zip(flagged.select(rows), [list(flagged)[i] for i in rows], strict=True):
            assert_same_case(a, b)


class TestOneDiagonalizationPerGenerator:
    """Reading e^{-iH}'s arguments off H's spectrum and rebuilding e^{iK} from
    the rescale's eigendecomposition moves the rows only in the last digits."""

    @pytest.mark.parametrize("h_sup", [(0.0, math.pi * 0.999), (math.pi, 1.5 * math.pi)])
    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_sweep_rows_match_exponentiate_then_eig(self, dim, seed, h_sup):
        cases = arc.arc_bound_sweep(dim, 150, seed, h_sup, (0.0, 10.0), -math.inf).flagged
        assert len(cases) == 150
        H, K = (np.stack([getattr(case, side) for case in cases]) for side in "HK")
        *values, holds, in_regime = exponentiate_then_eig(H, K)
        for field, old in zip(("lhs_max", "rhs_max", "lhs_min", "rhs_min"), values):
            new = np.array([getattr(case, field) for case in cases])
            np.testing.assert_allclose(new, old, rtol=0, atol=1e-13, err_msg=field)
        assert [case.holds for case in cases] == holds.tolist()
        assert [case.in_regime for case in cases] == in_regime.tolist()
        assert all(case.in_regime for case in cases) == (h_sup[1] < math.pi)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_fold_edge(self, sign, rng):
        # e^{-iH} = -I sits on the branch cut: its arguments fold to +pi.
        H = np.stack([sign * math.pi * np.eye(3)] * 3)
        K = np.stack([np.zeros((3, 3)), random_hermitian(rng, 3), -H[0]])
        cases = arc.arc_bound_cases(H, K)
        *values, holds, in_regime = exponentiate_then_eig(H, K)
        np.testing.assert_array_equal(cases.rhs_max, math.pi)
        np.testing.assert_array_equal(cases.rhs_min, math.pi)
        for new, old in zip((cases.lhs_max, cases.rhs_max, cases.lhs_min, cases.rhs_min), values):
            np.testing.assert_allclose(new, old, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(cases.holds, holds)
        assert not in_regime.any() and not cases.in_regime.any()

    # At d = 64 a recheck block holds 8 cases, so the 60 flagged cases span 8 blocks.
    @pytest.mark.parametrize("dim", [3, 64])
    def test_stacked_recheck_equals_one_case_rechecks(self, dim):
        cases = arc.arc_bound_sweep(dim, 60, 4, (0.5 * math.pi, 1.5 * math.pi), (0.1, 10.0),
                                    -math.inf).flagged
        H, K = (np.stack([getattr(case, side) for case in cases]) for side in "HK")
        confirmed = arc._recheck_independently(H, K, 1e-6)
        assert confirmed == [reference_recheck(c.H, c.K, 1e-6) for c in cases]
        assert 0 < sum(confirmed) < len(cases)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_empty_stack_rechecks_to_nothing(self, dim):
        empty = np.zeros((0, dim, dim), dtype=complex)
        assert arc._recheck_independently(empty, empty, 1e-6) == []


class TestStackedGeneratorDraws:
    """fixed_time_sweep and eliminate_sweep build and rescale a block's generators
    as one stack, and reproduce the one-matrix-at-a-time draws bit for bit."""

    @staticmethod
    def fixed_time(monkeypatch, *args):
        """fixed_time_sweep(*args), with the (H, K) pair of each driven overlap."""
        overlap, pairs = disc.fixed_time_overlap, []

        def spied(H, K, t):
            pairs.append((H, K))
            return overlap(H, K, t)

        with monkeypatch.context() as m:
            m.setattr(disc, "fixed_time_overlap", spied)
            rows = disc.fixed_time_sweep(*args)
        assert len(pairs) == 2 * len(rows)  # the driven and the undriven overlap
        return rows, pairs[::2]

    @staticmethod
    def record_blocks(monkeypatch):
        """A list that collects the (generators, true indices, generators of the
        outcomes) of each _eliminate_block call."""
        run, blocks = disc._eliminate_block, []

        def spied(gens, true_index, rngs):
            blocks.append((gens.copy(), true_index.copy(), list(rngs)))
            return run(gens, true_index, rngs)

        monkeypatch.setattr(disc, "_eliminate_block", spied)
        return blocks

    @staticmethod
    def trial_generators(blocks):
        """Each trial's (n, d, d) generators, in trial order, from the recorded blocks."""
        return [gens for block, _, _ in blocks for gens in block]

    @pytest.mark.parametrize("norms", [(1.5, 5.0), (0.0, 5.0), (1.5, 0.0), (0.0, 0.0)])
    @pytest.mark.parametrize("budget", [None, 20])  # 20: blocks of 20, 5 and 1 samples
    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_fixed_time_rows_equal_reference_loop(self, dim, budget, norms, monkeypatch):
        if budget:
            monkeypatch.setattr(arc, "_ARC_BLOCK_ELEMS", budget)
        args = (dim, 1.3, 23, 7, *norms)
        rows, pairs = self.fixed_time(monkeypatch, *args)
        want_rows, want_pairs = reference_fixed_time(*args)
        assert rows == want_rows
        for (H, K), (want_H, want_K) in zip(pairs, want_pairs, strict=True):
            assert H.shape == K.shape == (dim, dim)
            assert np.array_equal(H, want_H) and np.array_equal(K, want_K)
            # A zero sup norm gives the zero matrix.
            assert np.any(H) == (norms[0] > 0) and np.any(K) == (norms[1] > 0)

    @pytest.mark.parametrize("budget", [None, 20])  # 20: stacks of 5 and 1 generators
    @pytest.mark.parametrize("dim", [2, 4])
    def test_eliminate_rows_equal_reference_loop(self, dim, budget, monkeypatch):
        if budget:
            monkeypatch.setattr(arc, "_ARC_BLOCK_ELEMS", budget)
        with monkeypatch.context() as m:
            blocks = self.record_blocks(m)
            rows = disc.eliminate_sweep(23, dim, 4, 11)
        want_rows, want_ensembles = reference_eliminate(23, dim, 4, 11)
        assert rows == want_rows
        for gens, want in zip(self.trial_generators(blocks), want_ensembles, strict=True):
            assert len(gens) == len(want) == 23
            assert all(np.array_equal(g, w) for g, w in zip(gens, want))

    # Trials per block: all 7 in one, one each, and 3, 3 and a ragged last 1.
    @pytest.mark.parametrize("per_block, sizes", [(None, [7]), (1, [1] * 7), (3, [3, 3, 1])])
    @pytest.mark.parametrize("n, dim", [(2, 2), (5, 3), (9, 4), (23, 2)])
    def test_eliminate_blocks_equal_reference_loop(self, n, dim, per_block, sizes, monkeypatch):
        if per_block:
            monkeypatch.setattr(arc, "_ARC_BLOCK_ELEMS", per_block * n * dim * dim)
        for seed in (0, 3, 11):
            with monkeypatch.context() as m:
                blocks = self.record_blocks(m)
                rows = disc.eliminate_sweep(n, dim, 7, seed)
            want_rows, want_ensembles = reference_eliminate(n, dim, 7, seed)
            assert rows == want_rows
            assert [len(gens) for gens, _, _ in blocks] == sizes
            assert [t for _, true_index, _ in blocks for t in true_index] == [
                r.true_index for r in want_rows]
            for gens, want in zip(self.trial_generators(blocks), want_ensembles, strict=True):
                assert all(np.array_equal(g, w) for g, w in zip(gens, want, strict=True))

    @pytest.mark.parametrize("n, dim", [(2, 2), (5, 3), (9, 4), (23, 2)])
    def test_adaptive_eliminate_transcript_equals_reference(self, n, dim):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            gens = [arc.random_hermitian(dim, 2.0, rng) for _ in range(n)]
            for true_index in sorted({0, n // 2, n - 1}):
                found, count, transcript = disc.adaptive_eliminate(
                    np.stack(gens), true_index, seed)
                want_found, want_count, want = reference_adaptive_eliminate(
                    gens, true_index, np.random.default_rng(seed))
                assert (found, count) == (want_found, want_count) == (true_index, n - 1)
                for got, ref in zip(transcript, want, strict=True):
                    assert got.keys() == ref.keys()
                    for key in ("pair", "eliminated", "outcome_flip"):
                        assert got[key] == ref[key]
                    assert type(got["outcome_flip"]) is bool
                    assert all(type(v) is int for v in (*got["pair"], got["eliminated"]))
                    for key in ("t_star", "p_flip"):
                        assert type(got[key]) is float
                        assert got[key] == pytest.approx(ref[key], rel=0.0, abs=1e-12)

    def test_eliminate_trial_draws_its_outcomes_from_its_own_generator(self, monkeypatch):
        spawn, run = qmath.spawned_rngs, disc._eliminate_block
        yielded, passed = [], []

        def spied_spawn(seed, count):
            for rng in spawn(seed, count):
                yielded.append(rng)
                yield rng

        def spied_run(gens, true_index, rngs):
            passed.extend(rngs)
            return run(gens, true_index, rngs)

        monkeypatch.setattr(qmath, "spawned_rngs", spied_spawn)
        monkeypatch.setattr(disc, "_eliminate_block", spied_run)
        rows = disc.eliminate_sweep(5, 3, 4, 11)
        assert len(rows) == len(yielded) == len(passed) == 4
        for rng, trial_rng in zip(passed, yielded):
            assert isinstance(rng, np.random.Generator) and rng is trial_rng

    @pytest.mark.parametrize("budget", [None, 2])  # 2: stacks of 2, 2 and 1 generators
    def test_eliminate_draws_equal_reference_at_dim_1(self, budget, monkeypatch):
        if budget:
            monkeypatch.setattr(arc, "_ARC_BLOCK_ELEMS", budget)
        # A 1 x 1 pair has no spectral gap, so the first round refuses the block.
        with monkeypatch.context() as m:
            blocks = self.record_blocks(m)
            with pytest.raises(NoDiscriminationError):
                disc.eliminate_sweep(5, 1, 3, 11)
        with pytest.raises(NoDiscriminationError):
            reference_eliminate(5, 1, 3, 11)
        # The first block holds all 3 trials by default, and 1 trial under budget 2.
        assert [len(gens) for gens, _, _ in blocks] == [1 if budget else 3]
        children = np.random.SeedSequence(11).spawn(3)
        for gens, child in zip(self.trial_generators(blocks), children):
            rng = np.random.default_rng(child)
            want = [reference_random_hermitian(1, 2.0, rng) for _ in range(5)]
            assert all(np.array_equal(g, w) for g, w in zip(gens, want, strict=True))

    def test_fixed_time_stacks_within_the_element_budget(self, monkeypatch):
        budget = 20  # blocks of 5 samples at d = 2
        monkeypatch.setattr(arc, "_ARC_BLOCK_ELEMS", budget)
        calls = spy_kernels(monkeypatch)
        rows, _ = self.fixed_time(monkeypatch, 2, 1.0, 23, 5, 1.5, 5.0)
        assert max(size for _, size in calls) <= budget
        # One herm_eig of the H stack and one of the K stack per block (4 of 5
        # samples, 1 of 3), then one expm_i of the stacked K and H + K in each of
        # the two fixed_time_overlap calls per sample.
        rescales = [20, 20] * 4 + [12, 12]
        assert sorted(s for name, s in calls if name == "herm_eig") == sorted(
            rescales + [8] * (2 * 23))
        assert len(rows) == 23

    # 20: blocks of 1 trial, stacks of 5 and 2 generators; 56: blocks of 2 and 1 trials,
    # one stack each.
    @pytest.mark.parametrize("budget, want", [
        (20, [20, 8] * 3 + [4, 8] * (3 * 6)),
        (56, [56, 28] + [8, 16] * 6 + [4, 8] * 6)])
    def test_eliminate_stacks_within_the_element_budget(self, budget, want, monkeypatch):
        monkeypatch.setattr(arc, "_ARC_BLOCK_ELEMS", budget)
        calls = spy_kernels(monkeypatch)
        rows = disc.eliminate_sweep(7, 2, 3, 5)
        assert max(size for _, size in calls) <= budget
        # Per block the rescales of its trials' 7 generators each, then per block and elimination
        # round one herm_eig of the pairs' differences and one expm_i of the stacked
        # flipped and true generators, two per trial.
        assert sorted(s for name, s in calls if name == "herm_eig") == sorted(want)
        assert len(rows) == 3

    def test_eliminate_trial_holds_its_generators_and_a_few_stacks(self):
        n, dim = 256, 64  # n * dim^2 = 2^20 entries: 16 MiB of generators
        disc.eliminate_sweep(2, dim, 1, 0)  # so that one-time set-up is not counted
        tracemalloc.start()
        try:
            disc.eliminate_sweep(n, dim, 1, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack_bytes = arc._ARC_BLOCK_ELEMS * 16
        # One rescale of all 256 generators would hold several copies of them.
        assert peak - n * dim * dim * 16 <= 5 * stack_bytes

    def test_eliminate_memory_stays_flat_however_many_trials_run(self):
        disc.eliminate_sweep(5, 3, 2, 0)  # so that one-time set-up is not counted
        tracemalloc.start()
        try:
            rows = disc.eliminate_sweep(5, 3, 20000, 1)
            rows_bytes, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 20000
        # What stays is the rows: per trial a list slot, a 5-tuple and its trial
        # number, 125 bytes. A Generator object alone takes about 790 bytes.
        assert rows_bytes <= 150 * len(rows)
        # A block of 728 trials holds its generators (one stack), their Generator
        # objects (about one more) and a round's stacks: 5.0 stacks in all at
        # numpy 2.4. Holding every trial's Generator would take 15 MiB, 30 stacks.
        assert peak - rows_bytes <= 6 * arc._ARC_BLOCK_ELEMS * 16


class TestSupNormRanges:
    """A sweep checks its sup-norm ranges as Generator.uniform does, once, before any draw."""

    @pytest.mark.parametrize("h_sup, error", [((1.0, 0.0), ValueError),
                                              ((0.0, math.inf), OverflowError),
                                              ((0.0, math.nan), OverflowError)])
    def test_bad_range_refused_before_any_draw(self, h_sup, error, monkeypatch):
        with pytest.raises(error) as numpy_error:
            np.random.default_rng(0).uniform(*h_sup)

        def refuse(*args):
            raise AssertionError("drew trials with a bad sup-norm range")

        monkeypatch.setattr(qmath, "child_states", refuse)
        with pytest.raises(error) as sweep_error:
            arc.arc_bound_sweep(2, 3, 0, h_sup, (0.0, 1.0))
        assert str(sweep_error.value) == str(numpy_error.value)


class TestPadeExponential:
    """spectral_arc._expm, the recheck's stacked Pade-13 exponential, against scipy's
    expm one matrix at a time. The exponentials are unitary, so their entries are at
    most 1 and an absolute tolerance fits; 1e-13 is far below SEARCH_MARGIN."""

    @staticmethod
    def assert_matches_scipy(A):
        expected = np.array([scipy.linalg.expm(a) for a in A]).reshape(A.shape)
        np.testing.assert_allclose(arc._expm(A), expected, rtol=0, atol=1e-13)

    # The search's sup norms: H in [pi, 1.5 pi], K in [0.1, 10], H + K up to about 15,
    # whose 1-norm exceeds theta_13, so the result is squared.
    @pytest.mark.parametrize("sup", [0.1, math.pi, 1.5 * math.pi, 10.0, 15.0])
    @pytest.mark.parametrize("dim", range(1, 17))
    def test_unitary_exponentials(self, dim, sup):
        rng = np.random.default_rng([dim, round(100 * sup)])
        H = np.stack([arc.random_hermitian(dim, sup, rng) for _ in range(4)])
        self.assert_matches_scipy(-1j * H)

    def test_tiny_norm_needs_no_squaring(self, rng):
        H = np.stack([arc.random_hermitian(4, 1e-3, rng) for _ in range(3)])
        assert np.abs(H).sum(axis=-2).max() < arc._THETA13
        self.assert_matches_scipy(-1j * H)

    @pytest.mark.parametrize("dim", [2, 8, 16])
    def test_mixed_norms_share_one_scaling(self, dim, rng):
        # The stack's largest 1-norm sets the squarings for every matrix in it.
        H = np.stack([arc.random_hermitian(dim, sup, rng) for sup in (1e-6, 0.1, math.pi, 15.0)])
        self.assert_matches_scipy(-1j * H)

    def test_zero_stack(self):
        self.assert_matches_scipy(np.zeros((3, 4, 4), dtype=complex))

    def test_empty_stack(self):
        assert arc._expm(np.zeros((0, 5, 5), dtype=complex)).shape == (0, 5, 5)


class TestCounterexampleSearch:
    def test_in_regime_search_is_empty(self):
        # In the regime the sweep flags no candidate, even before the recheck.
        sweep = arc.arc_bound_sweep(
            2, 300, 11, (0.0, math.pi * 0.999), (0.1, 10.0), tolerances.SEARCH_MARGIN
        )
        assert len(sweep.flagged) == 0

    @pytest.mark.parametrize("dim", [1, 3])
    def test_search_returns_one_stack(self, dim):
        # At d = 1, e^{iK} e^{-i(H+K)} is e^{-iH}: nothing is flagged, and the
        # result is an empty stack.
        found = arc.counterexample_search(dim, 60, 4)
        assert isinstance(found, arc.ArcBoundCases)
        assert (len(found) > 0) == (dim > 1)
        assert found.H.shape == found.K.shape == (len(found), dim, dim)
        assert found.max_violation.shape == found.holds.shape == (len(found),)

    def test_out_of_regime_candidates_are_verified(self):
        found = arc.counterexample_search(2, trials=2000, rng_seed=3)
        for case in found:
            assert case.max_violation > 1e-6
            assert not case.in_regime
            # Re-verification contract: recomputing reproduces the violation.
            recheck = arc.arc_bound_check(case.H, case.K)
            assert recheck.max_violation > 1e-6

    def test_search_actually_finds_violations(self):
        # Not an acceptance gate; with this seed and budget the 2x2 search
        # does exhibit the failure of the bound outside its regime.
        found = arc.counterexample_search(2, trials=4000, rng_seed=123)
        assert len(found) > 0

    def test_lemma_first_order_perturbation(self, rng):
        # maxarg(U e^{i eps A}) <= maxarg(U) + maxarg(e^{i eps A}) + c eps^2
        # for small eps, away from the branch cut.
        H = random_hermitian(rng, 3)
        H *= 1.0 / np.max(np.abs(np.linalg.eigvalsh(H)))
        U = qmath.expm_i(H, 1.0)
        A = random_hermitian(rng, 3)
        A /= np.max(np.abs(np.linalg.eigvalsh(A)))
        for eps in (1e-2, 1e-3):
            lhs = arc.maxarg(U @ qmath.expm_i(A, -eps))
            rhs = arc.maxarg(U) + arc.maxarg(qmath.expm_i(A, -eps))
            assert lhs <= rhs + 10.0 * eps**2
