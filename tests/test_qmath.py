import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdlab import qmath, tolerances
from conftest import eig_unitary, random_density, random_hermitian, random_state, random_unitary


class TestHermEig:
    def test_sigma_z_spectrum(self):
        w, _ = qmath.herm_eig(qmath.SIGMA_Z)
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_unit_axis_spectrum(self, rng):
        a = random_state(rng, 3).real
        a /= np.linalg.norm(a)
        w, _ = qmath.herm_eig(qmath.axis_operator(a))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12)

    def test_reconstruction_residual(self, rng):
        M = random_hermitian(rng, 6)
        w, V = qmath.herm_eig(M)
        residual = np.max(np.abs(M - (V * w) @ V.conj().T))
        assert residual < 1e-10
        assert np.all(np.diff(w) >= 0)
        np.testing.assert_allclose(V.conj().T @ V, np.eye(6), atol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            qmath.herm_eig(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            qmath.herm_eig(np.zeros((0, 0)))


class TestExpmI:
    def test_zero_hamiltonian(self):
        for t in (0.0, 1.7, -42.0):
            np.testing.assert_allclose(qmath.expm_i(np.zeros((3, 3)), t), np.eye(3), atol=1e-14)

    def test_axis_rotation_form(self, rng):
        # exp(-i t a.sigma) = cos t I - i sin t a.sigma for a unit axis.
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        t = 0.83
        expected = np.cos(t) * np.eye(2) - 1j * np.sin(t) * qmath.axis_operator(a)
        np.testing.assert_allclose(qmath.expm_i(qmath.axis_operator(a), t), expected, atol=1e-12)

    def test_diagonal_quarter_turn(self):
        np.testing.assert_allclose(
            qmath.expm_i(qmath.SIGMA_Z, np.pi / 2), np.diag([-1j, 1j]), atol=1e-14
        )

    def test_inverse_property(self, rng):
        for dim in (2, 3, 5):
            H = random_hermitian(rng, dim)
            t = rng.uniform(0.1, 7.0)
            U = qmath.expm_i(H, t) @ qmath.expm_i(H, -t)
            assert np.max(np.abs(U - np.eye(dim))) < 1e-10

    def test_result_unitary(self, rng):
        H = random_hermitian(rng, 4)
        U = qmath.expm_i(H, 2.31)
        assert np.max(np.abs(U.conj().T @ U - np.eye(4))) <= tolerances.ALGEBRAIC

    def test_commuting_generators_split_exactly(self, rng):
        d, e = np.diag(rng.normal(size=4)), np.diag(rng.normal(size=4))
        for t in (0.3, 1.0, 5.7):
            np.testing.assert_allclose(
                qmath.expm_i(d + e, t), qmath.expm_i(d, t) @ qmath.expm_i(e, t), atol=1e-12
            )

    def test_lie_product_first_order(self, rng):
        # (e^{-iH/n} e^{-iK/n})^n approaches e^{-i(H+K)} with an error that halves as n doubles.
        H, K = random_hermitian(rng, 3), random_hermitian(rng, 3)
        exact = qmath.expm_i(H + K, 1.0)

        def residual(n):
            step = qmath.expm_i(H, 1.0 / n) @ qmath.expm_i(K, 1.0 / n)
            return np.linalg.norm(np.linalg.matrix_power(step, n) - exact, 2)

        r64, r128, r256 = residual(64), residual(128), residual(256)
        assert r64 / r128 == pytest.approx(2.0, abs=0.1)
        assert r128 / r256 == pytest.approx(2.0, abs=0.1)


class TestUnitaryArgs:
    def test_identity(self):
        np.testing.assert_allclose(qmath.unitary_args(np.eye(5)), np.zeros(5), atol=1e-12)

    def test_constructed_diagonal(self):
        U = np.diag([np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 4)])
        np.testing.assert_allclose(qmath.unitary_args(U), [-np.pi / 4, np.pi / 3], atol=1e-12)

    def test_matches_generator_spectrum(self, rng):
        # For U = exp(-i B) with ||B|| < pi the arguments are -eigenvalues.
        B = random_hermitian(rng, 5)
        B *= 0.9 * np.pi / np.max(np.abs(np.linalg.eigvalsh(B)))
        args = qmath.unitary_args(qmath.expm_i(B, 1.0))
        w, _ = qmath.herm_eig(B)
        np.testing.assert_allclose(args, np.sort(-w), atol=1e-10)

    def test_branch_fold(self):
        np.testing.assert_allclose(qmath.unitary_args(np.diag([-1.0 + 0j])), [np.pi])

    def test_adjoint_negates(self, rng):
        U = random_unitary(rng, 4)
        args = qmath.unitary_args(U)
        if np.min(np.abs(np.abs(args) - np.pi)) < 1e-9:
            pytest.skip("argument on the branch cut")
        np.testing.assert_allclose(
            qmath.unitary_args(U.conj().T), -args[::-1], atol=1e-10
        )

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError):
            qmath.unitary_args(np.diag([2.0, 1.0]))


class TestUnitaryArgsAgainstEig:
    @pytest.mark.parametrize("case", ["random", "identity", "repeated", "branch-cut"])
    def test_equal_to_folded_eig_arguments(self, rng, case):
        V0 = random_unitary(rng, 4)
        phases = {
            "random": rng.uniform(-np.pi, np.pi, 4),
            "identity": np.zeros(4),
            "repeated": [0.3, 0.3, 0.3 + 1e-13, -2.0],
            "branch-cut": [np.pi, -np.pi + 1e-13, 0.5, 0.5],
        }[case]
        U = V0 @ np.diag(np.exp(1j * np.asarray(phases))) @ V0.conj().T
        args, V = eig_unitary(U)
        assert np.max(np.abs(U @ V - V * np.exp(1j * args))) <= 1e-10
        assert np.max(np.abs(V.conj().T @ V - np.eye(4))) <= 1e-10
        np.testing.assert_allclose(args, qmath.unitary_args(U), rtol=0, atol=1e-12)


def _hermitian_stack(seed, batch, dim, zero_member):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(batch, dim, dim)) + 1j * rng.normal(size=(batch, dim, dim))
    H = (A + A.conj().swapaxes(-1, -2)) / 2
    if zero_member is not None:
        H[zero_member % batch] = 0.0
    return H


class TestStackedKernels:
    """Each row of a stacked kernel call equals the call on that matrix alone."""

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 8),
        dim=st.integers(1, 6),
        zero_member=st.none() | st.integers(0, 7),
        t=st.floats(-7.0, 7.0),
    )
    def test_rows_equal_single_matrix_calls(self, seed, batch, dim, zero_member, t):
        H = _hermitian_stack(seed, batch, dim, zero_member)
        w, V = qmath.herm_eig(H)
        U = qmath.expm_i(H, t)
        U_rows = qmath.expm_i(H, t + np.arange(batch))  # one time per matrix
        args = qmath.unitary_args(U)
        norms = qmath.sup_norm(H)
        assert w.shape == (batch, dim) and V.shape == U.shape == U_rows.shape == H.shape
        assert args.shape == (batch, dim) and norms.shape == (batch,)
        for i in range(batch):
            w_i, V_i = qmath.herm_eig(H[i].copy())
            U_i = qmath.expm_i(H[i].copy(), t)
            assert np.array_equal(w[i], w_i) and np.array_equal(V[i], V_i)
            assert np.array_equal(U[i], U_i)
            assert np.array_equal(U_rows[i], qmath.expm_i(H[i].copy(), t + i))
            assert np.array_equal(args[i], qmath.unitary_args(U_i))
            assert norms[i] == qmath.sup_norm(H[i].copy())

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 8), dim=st.integers(1, 6),
           sup=st.floats(0.0, 12.0), t=st.floats(-3.0, 3.0))
    def test_kernels_from_an_eigendecomposition(self, seed, batch, dim, sup, t):
        H = _hermitian_stack(seed, batch, dim, None)
        H *= sup / np.maximum(qmath.sup_norm(H), 1e-300)[:, None, None]
        w, V = qmath.herm_eig(H)
        assert np.array_equal(qmath._eig_expm_i(w, V, t), qmath.expm_i(H, t))
        args = qmath._eig_unitary_args(t * w)
        assert np.all(np.diff(args, axis=-1) >= 0)
        assert np.all((args > -np.pi) & (args <= np.pi))
        # Same arguments as eig of the unitary, up to rounding: within
        # BRANCH_FOLD of the cut both fold to +pi, elsewhere they agree closely.
        np.testing.assert_allclose(
            np.exp(1j * args), np.exp(1j * qmath.unitary_args(qmath.expm_i(H, t))), atol=1e-12
        )

    def test_eig_unitary_args_folds_the_branch_cut(self):
        args = qmath._eig_unitary_args(np.array([-np.pi, 0.5, np.pi]))
        np.testing.assert_array_equal(args, [-0.5, np.pi, np.pi])

    def test_zero_and_one_dimensional_members(self):
        H = np.zeros((3, 1, 1), dtype=complex)
        H[1, 0, 0] = -2.5
        np.testing.assert_array_equal(qmath.sup_norm(H), [0.0, 2.5, 0.0])
        np.testing.assert_array_equal(
            qmath.expm_i(np.zeros((2, 4, 4)), 1.3), np.broadcast_to(np.eye(4), (2, 4, 4))
        )
        assert isinstance(qmath.sup_norm(np.zeros((3, 3))), float)

    def test_one_non_unitary_member_raises(self, rng):
        U = qmath.expm_i(_hermitian_stack(7, 5, 3, None), 1.0)
        qmath.unitary_args(U)
        U[3] *= 1.01
        with pytest.raises(ValueError, match="not unitary"):
            qmath.unitary_args(U)

    def test_two_dimensional_functions_reject_stacks(self):
        stack = np.stack([np.eye(2, dtype=complex) / 2] * 3)
        for call in (
            qmath.density_to_bloch,
            lambda M: qmath.partial_trace(M, [2], [0]),
        ):
            with pytest.raises(ValueError):
                call(stack)

    def test_rejects_non_square_stacks(self):
        for shape in ((3,), (2, 2, 3), (4, 0, 0)):
            with pytest.raises(ValueError):
                qmath.herm_eig(np.zeros(shape))


class TestTensor:
    def test_product_state(self):
        psi = qmath.tensor(qmath.KET_PLUS, qmath.basis_state(2, 0))
        np.testing.assert_allclose(psi, [1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0], atol=1e-14)

    def test_bell_state_construction(self):
        ket0, ket1 = qmath.basis_state(2, 0), qmath.basis_state(2, 1)
        phi = (qmath.tensor(ket0, ket0) + qmath.tensor(ket1, ket1)) / np.sqrt(2)
        np.testing.assert_allclose(phi, qmath.BELL_PHI_PLUS, atol=1e-14)

    def test_mixed_product_rule(self, rng):
        A, B, C, D = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
        lhs = qmath.tensor(A, B) @ qmath.tensor(C, D)
        rhs = qmath.tensor(A @ C, B @ D)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestPartialTrace:
    def test_bell_reduction(self):
        rho = np.outer(qmath.BELL_PHI_PLUS, qmath.BELL_PHI_PLUS.conj())
        np.testing.assert_allclose(
            qmath.partial_trace(rho, [2, 2], [0]), np.eye(2) / 2, atol=1e-14
        )

    def test_product_reduction(self, rng):
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        reduced = qmath.partial_trace(qmath.tensor(rho_a, rho_b), [2, 3], [0])
        np.testing.assert_allclose(reduced, rho_a, atol=1e-12)

    def test_against_index_sum_oracle(self, rng):
        rho = random_density(rng, 4)
        # Explicit double sum for tracing out the second qubit.
        expected = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    expected[i, j] += rho[2 * i + k, 2 * j + k]
        np.testing.assert_allclose(qmath.partial_trace(rho, [2, 2], [0]), expected, atol=1e-13)

    def test_trace_preserved_and_positive(self, rng):
        for dims, keep in (([2, 2], [1]), ([2, 2, 2], [0, 2]), ([2, 3], [1])):
            rho = random_density(rng, int(np.prod(dims)))
            reduced = qmath.partial_trace(rho, dims, keep)
            assert abs(np.trace(reduced) - 1.0) < 1e-10
            assert np.linalg.eigvalsh(reduced).min() > -1e-10

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            qmath.partial_trace(np.eye(4) / 4, [2, 3], [0])


class TestRoleValidators:
    def test_state_norm_gate(self):
        qmath.check_state(qmath.KET_PLUS)
        with pytest.raises(ValueError):
            qmath.check_state(np.array([1.0, 1.0]))

    def test_state_shape_gate(self):
        with pytest.raises(ValueError, match="nonempty vector"):
            qmath.check_state(np.eye(2) / np.sqrt(2))
        with pytest.raises(ValueError, match="nonempty vector"):
            qmath.check_state(np.zeros(0))

    def test_bloch_gate(self):
        P = qmath.check_bloch([0, 0, 1])
        assert P.dtype == float and np.array_equal(P, [0.0, 0.0, 1.0])
        qmath.check_bloch([0, 0, 1 + 0.5 * tolerances.ALGEBRAIC])
        with pytest.raises(ValueError, match="exceeds 1"):
            qmath.check_bloch([0, 0, 1 + 2 * tolerances.ALGEBRAIC])
        with pytest.raises(ValueError, match="three components"):
            qmath.check_bloch([0.5, 0.5])

    def test_axis_gate(self):
        np.testing.assert_array_equal(qmath.check_axis((0, 1, 0)), [0.0, 1.0, 0.0])
        for bad in ([0, 0, 0.5], [np.nan, 0, 1], [1, 0], [[1, 0, 0]]):
            with pytest.raises(ValueError, match="unit 3-vector"):
                qmath.check_axis(bad)


class TestBlochConversions:
    def test_center_is_maximally_mixed(self):
        np.testing.assert_allclose(qmath.bloch_to_density([0, 0, 0]), np.eye(2) / 2, atol=1e-15)

    def test_x_axis(self):
        np.testing.assert_allclose(
            qmath.bloch_to_density([1, 0, 0]), 0.5 * (np.eye(2) + qmath.SIGMA_X), atol=1e-15
        )

    def test_roundtrip(self, rng):
        for _ in range(20):
            rho = random_density(rng, 2)
            back = qmath.bloch_to_density(qmath.density_to_bloch(rho))
            assert np.max(np.abs(back - rho)) < 1e-12
        P = rng.normal(size=3)
        P = 0.9 * P / np.linalg.norm(P)
        np.testing.assert_allclose(qmath.density_to_bloch(qmath.bloch_to_density(P)), P, atol=1e-12)

    def test_rejects_long_vector(self):
        with pytest.raises(ValueError):
            qmath.bloch_to_density([1.1, 0, 0])


def spawned_states(seed, start, stop):
    """numpy's own states of children start .. stop-1 of SeedSequence(seed)."""
    children = np.random.SeedSequence(seed).spawn(stop)[start:stop]
    return np.array([c.generate_state(4, np.uint64) for c in children], dtype=np.uint64)


class TestChildStates:
    # The parent makes 4 * max(words, 4) hashmix calls: 2**96 and 2**128 are
    # the first seeds of four and five 32-bit words.
    @pytest.mark.parametrize("seed", [0, 3, 2**32 - 1, 2**32, 2**64 - 1, 2**64 - 1 + 4000,
                                      2**96 - 1, 2**96, 2**128 - 1, 2**128, 2**160])
    @pytest.mark.parametrize("start, stop", [(0, 1), (0, 5), (3, 9), (1000, 1030), (0, 2049)])
    def test_equals_numpy_children(self, seed, start, stop):
        states = qmath.child_states(seed, start, stop)
        assert states.dtype == np.uint64 and states.shape == (stop - start, 4)
        np.testing.assert_array_equal(states, spawned_states(seed, start, stop))

    def test_last_one_word_index(self):
        # spawn_key=(i,) is the i-th spawned child; 2**32 - 1 is the last one-word key.
        states = qmath.child_states(7, 2**32 - 2, 2**32)
        expected = [np.random.SeedSequence(7, spawn_key=(i,)).generate_state(4, np.uint64)
                    for i in (2**32 - 2, 2**32 - 1)]
        np.testing.assert_array_equal(states, expected)

    def test_empty_range(self):
        assert qmath.child_states(5, 4, 4).shape == (0, 4)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**200),
        start=st.integers(0, 300),
        count=st.integers(0, 40),
    )
    def test_equals_numpy_children_property(self, seed, start, count):
        np.testing.assert_array_equal(
            qmath.child_states(seed, start, start + count).reshape(-1, 4),
            spawned_states(seed, start, start + count).reshape(-1, 4),
        )

    def test_negative_seed_raises_like_seed_sequence(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence(-1)
        with pytest.raises(ValueError):
            qmath.child_states(-1, 0, 1)

    @pytest.mark.parametrize("start, stop", [(0, 2**32 + 1), (-1, 3), (5, 4)])
    def test_index_range_raises(self, start, stop):
        with pytest.raises(ValueError):
            qmath.child_states(0, start, stop)


class TestChildUniforms:
    # Counts around the 1024-child spawn block; n up to the phase-est qubit cap (12).
    @pytest.mark.parametrize("seed", [0, 3, 1234567890, 2**64 + 1, 2**70 + 5])
    @pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("n", [1, 4, 12])
    def test_equals_numpy_generators(self, seed, count, n):
        expected = [np.random.default_rng(c).random(n)
                    for c in np.random.SeedSequence(seed).spawn(count)]
        draws = qmath.child_uniforms(seed, count, n)
        assert draws.shape == (count, n)
        assert np.array_equal(draws, np.reshape(expected, (count, n)))