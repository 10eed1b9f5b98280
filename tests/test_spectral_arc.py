import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from qdlab import cli, discrimination as disc, qmath, spectral_arc as arc, tolerances
from qdlab.dynamics import NoiseModel
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
    """The high-precision recheck of one candidate: Pade exponentials, Schur eigenvalues."""
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
        _, driven = disc.fixed_time_overlap(H, K, t)
        _, undriven = disc.fixed_time_overlap(H, np.zeros_like(K), t)
        rows.append(disc.FixedTimeRow(idx, dim, t, driven, undriven, driven - undriven))
        pairs.append((H, K))
    return rows, pairs


def reference_eliminate(n, dim, trials, seed):
    """eliminate_sweep one generator at a time: its rows and each trial's generators."""
    rows, ensembles = [], []
    for idx, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.default_rng(child)
        gens = [reference_random_hermitian(dim, 2.0, rng) for _ in range(n)]
        ensemble = disc.HypothesisEnsemble(
            tuple(disc.Hypothesis(g, NoiseModel(), 1.0 / n) for g in gens))
        true_index = int(rng.integers(n))
        found, count, _ = disc.adaptive_eliminate(ensemble, true_index, rng)
        rows.append(disc.EliminateRow(idx, true_index, found, count, int(found == true_index)))
        ensembles.append(gens)
    return rows, ensembles


def spy_kernels(monkeypatch, kernels=("herm_eig", "expm_i", "_eig_expm_i", "unitary_args",
                                      "_eig_unitary_args", "unitary_eig")):
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


class TestArcBound:
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

    def test_stacked_recheck_equals_one_case_rechecks(self):
        cases = arc.arc_bound_sweep(3, 60, 4, (0.5 * math.pi, 1.5 * math.pi), (0.1, 10.0),
                                    -math.inf).flagged
        H, K = (np.stack([getattr(case, side) for case in cases]) for side in "HK")
        confirmed = arc._recheck_high_precision(H, K, 1e-6)
        assert confirmed == [reference_recheck(c.H, c.K, 1e-6) for c in cases]
        assert 0 < sum(confirmed) < len(cases)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_empty_stack_rechecks_to_nothing(self, dim):
        empty = np.zeros((0, dim, dim), dtype=complex)
        assert arc._recheck_high_precision(empty, empty, 1e-6) == []


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
    def record_ensembles(monkeypatch):
        """A list that collects the generators of each adaptive_eliminate call."""
        run, ensembles = disc.adaptive_eliminate, []

        def spied(ensemble, *rest):
            ensembles.append([h.generator for h in ensemble.hypotheses])
            return run(ensemble, *rest)

        monkeypatch.setattr(disc, "adaptive_eliminate", spied)
        return ensembles

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
            ensembles = self.record_ensembles(m)
            rows = disc.eliminate_sweep(23, dim, 4, 11)
        want_rows, want_ensembles = reference_eliminate(23, dim, 4, 11)
        assert rows == want_rows
        for gens, want in zip(ensembles, want_ensembles, strict=True):
            assert len(gens) == len(want) == 23
            assert all(np.array_equal(g, w) for g, w in zip(gens, want))

    def test_eliminate_trial_draws_its_outcomes_from_its_own_generator(self, monkeypatch):
        spawn, run = qmath.spawned_rngs, disc.adaptive_eliminate
        yielded, passed = [], []

        def spied_spawn(seed, count):
            for rng in spawn(seed, count):
                yielded.append(rng)
                yield rng

        def spied_run(ensemble, true_index, rng_seed):
            passed.append(rng_seed)
            return run(ensemble, true_index, rng_seed)

        monkeypatch.setattr(qmath, "spawned_rngs", spied_spawn)
        monkeypatch.setattr(disc, "adaptive_eliminate", spied_run)
        rows = disc.eliminate_sweep(5, 3, 4, 11)
        assert len(rows) == len(yielded) == len(passed) == 4
        for rng, trial_rng in zip(passed, yielded):
            assert isinstance(rng, np.random.Generator) and rng is trial_rng

    @pytest.mark.parametrize("budget", [None, 2])  # 2: stacks of 2, 2 and 1 generators
    def test_eliminate_draws_equal_reference_at_dim_1(self, budget, monkeypatch):
        if budget:
            monkeypatch.setattr(arc, "_ARC_BLOCK_ELEMS", budget)
        # A 1 x 1 pair has no spectral gap, so the first round refuses the ensemble.
        with monkeypatch.context() as m:
            ensembles = self.record_ensembles(m)
            with pytest.raises(NoDiscriminationError):
                disc.eliminate_sweep(5, 1, 3, 11)
        with pytest.raises(NoDiscriminationError):
            reference_eliminate(5, 1, 3, 11)
        rng = np.random.default_rng(np.random.SeedSequence(11).spawn(3)[0])
        want = [reference_random_hermitian(1, 2.0, rng) for _ in range(5)]
        assert len(ensembles) == 1
        assert all(np.array_equal(g, w) for g, w in zip(ensembles[0], want, strict=True))

    def test_fixed_time_stacks_within_the_element_budget(self, monkeypatch):
        budget = 20  # blocks of 5 samples at d = 2
        monkeypatch.setattr(arc, "_ARC_BLOCK_ELEMS", budget)
        calls = spy_kernels(monkeypatch)
        rows, _ = self.fixed_time(monkeypatch, 2, 1.0, 23, 5, 1.5, 5.0)
        assert max(size for _, size in calls) <= budget
        # One herm_eig of the H stack and one of the K stack per block (4 of 5
        # samples, 1 of 3), then expm_i of K and of H + K in each of the two
        # fixed_time_overlap calls per sample.
        rescales = [20, 20] * 4 + [12, 12]
        assert sorted(s for name, s in calls if name == "herm_eig") == sorted(
            rescales + [4] * (4 * 23))
        assert len(rows) == 23

    def test_eliminate_stacks_within_the_element_budget(self, monkeypatch):
        budget = 20  # stacks of 5 generators at d = 2
        monkeypatch.setattr(arc, "_ARC_BLOCK_ELEMS", budget)
        calls = spy_kernels(monkeypatch)
        rows = disc.eliminate_sweep(7, 2, 3, 5)
        assert max(size for _, size in calls) <= budget
        # Per trial: the rescales of 5 and 2 generators, then per elimination
        # round one herm_eig of the pair's difference and two expm_i.
        assert sorted(s for name, s in calls if name == "herm_eig") == sorted(
            [20, 8] * 3 + [4] * (3 * 6 * 3))
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


class TestSubadditivity:
    def test_one_spectrum_per_unitary(self, rng, monkeypatch):
        U1, U2 = (qmath.expm_i(arc.random_hermitian(3, 0.5, rng), 1.0) for _ in range(2))
        want = (arc.maxarg(U1), arc.maxarg(U2), arc.minarg(U1), arc.minarg(U2))
        calls = []

        def spied(U, *args, **kwargs):
            calls.append(U)
            return unitary_args(U, *args, **kwargs)

        unitary_args = qmath.unitary_args
        monkeypatch.setattr(qmath, "unitary_args", spied)
        case = arc.arc_subadditivity_check(U1, U2)
        assert case.applicable and len(calls) == 3  # U1, U2 and their product
        assert (case.rhs_max, case.rhs_min) == (want[0] + want[1], want[2] + want[3])

    def test_identity_factor(self, rng):
        U = random_unitary(rng, 3)
        if arc.maxarg(U) >= math.pi * 0.99 or arc.minarg(U) <= -math.pi * 0.99:
            pytest.skip("arc too wide for the lemma's hypotheses")
        case = arc.arc_subadditivity_check(U, np.eye(3))
        assert case.applicable and case.holds
        assert case.lhs_max == pytest.approx(case.rhs_max, abs=1e-9)

    def test_random_confined_arcs(self, rng):
        for _ in range(500):
            dim = int(rng.integers(2, 5))
            U1 = qmath.expm_i(arc.random_hermitian(dim, rng.uniform(0, math.pi / 4), rng), 1.0)
            U2 = qmath.expm_i(arc.random_hermitian(dim, rng.uniform(0, math.pi / 4), rng), 1.0)
            case = arc.arc_subadditivity_check(U1, U2)
            assert case.applicable
            assert case.holds

    def test_equality_for_shared_eigenvectors(self, rng):
        H = random_hermitian(rng, 3)
        H *= 0.3 / np.max(np.abs(np.linalg.eigvalsh(H)))
        U = qmath.expm_i(H, 1.0)
        case = arc.arc_subadditivity_check(U, U)
        assert case.applicable and case.holds
        assert case.lhs_max == pytest.approx(case.rhs_max, abs=1e-9)

    def test_flags_inapplicable_inputs(self):
        U = np.diag([np.exp(1j * 2.0), 1.0])
        case = arc.arc_subadditivity_check(U, U)
        assert not case.applicable


class TestSplittingResidual:
    def test_commuting_generators(self, rng):
        d = np.diag(rng.normal(size=4))
        e = np.diag(rng.normal(size=4))
        for n in (1, 4, 64):
            assert arc.splitting_residual(d, e, n) < 1e-12

    def test_first_order_convergence(self, rng):
        H = random_hermitian(rng, 3)
        K = random_hermitian(rng, 3)
        r64 = arc.splitting_residual(H, K, 64)
        r128 = arc.splitting_residual(H, K, 128)
        r256 = arc.splitting_residual(H, K, 256)
        assert r64 / r128 == pytest.approx(2.0, abs=0.1)
        assert r128 / r256 == pytest.approx(2.0, abs=0.1)

    def test_pauli_pair(self):
        residuals = [
            arc.splitting_residual(qmath.SIGMA_X, qmath.SIGMA_Z, n) for n in (64, 256, 1024)
        ]
        assert residuals[-1] < 1e-2
        assert residuals[0] > residuals[1] > residuals[2]


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
