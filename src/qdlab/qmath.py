"""Dense complex linear-algebra kernels for small Hilbert spaces.

Eigendecompositions, matrix exponentials of Hermitian generators, tensor
products, partial traces, Bloch-vector conversions and seeding. Everything
works on plain complex ndarrays, with no wrapper class for the role of a
matrix (Hermitian, unitary, density); states, Bloch vectors and axes are
checked by the check_* validators. hbar = 1 throughout and all entries are
dimensionless.

Conventions:
  - time evolution is U(t) = exp(-i t H)
  - Pauli matrices are the standard ones, sigma_z = diag(1, -1)
  - unitary eigenvalue arguments live on (-pi, pi], with values within
    BRANCH_FOLD of -pi folded to +pi
  - the spectral kernels (herm_eig, expm_i, unitary_args, sup_norm) take a
    (..., d, d) stack and act on each matrix; a d x d matrix is a stack of one
"""

from __future__ import annotations

import operator

import numpy as np

from . import tolerances

# Standard qubit operators and states.
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
I2 = np.eye(2, dtype=complex)

KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)

# Bell basis: phi+/phi- have even parity, psi+/psi- odd parity.
BELL_PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
BELL_PHI_MINUS = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
BELL_PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
BELL_PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def _as_stack(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2] or M.shape[-1] == 0:
        raise ValueError(f"expected nonempty square matrices, got shape {M.shape}")
    return M


def _as_square(M) -> np.ndarray:
    M = _as_stack(M)
    if M.ndim != 2:
        raise ValueError(f"expected a nonempty square matrix, got shape {M.shape}")
    return M


def check_state(psi) -> np.ndarray:
    """Validate a pure-state vector (unit norm) and return it as complex."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or psi.size == 0:
        raise ValueError("state must be a nonempty vector")
    if abs(np.vdot(psi, psi).real - 1.0) > tolerances.NORM:
        raise ValueError("state is not normalized")
    return psi


def check_bloch(P) -> np.ndarray:
    """Validate a Bloch vector (|P| <= 1) and return it as float."""
    P = np.asarray(P, dtype=float)
    if P.shape != (3,):
        raise ValueError("Bloch vector must have exactly three components")
    if np.linalg.norm(P) > 1.0 + tolerances.ALGEBRAIC:
        raise ValueError(f"Bloch vector length {np.linalg.norm(P)} exceeds 1")
    return P


def check_axis(axis) -> np.ndarray:
    """Validate a unit 3-vector (a field or measurement axis) and return it as float."""
    a = np.asarray(axis, dtype=float)
    # Written so that a NaN component fails the comparison and is refused.
    if a.shape != (3,) or not abs(np.linalg.norm(a) - 1.0) <= tolerances.NORM:
        raise ValueError("axis must be a unit 3-vector")
    return a


def herm_eig(M):
    """Eigendecomposition of each Hermitian matrix of a (..., d, d) stack.

    The input is symmetrized as M/2 + M^dag/2 before the decomposition: halving
    first keeps entries above half the largest float from overflowing.
    Returns (eigenvalues ascending, eigenvectors as orthonormal columns)
    with M = V diag(w) V^dag.
    """
    half = _as_stack(M) / 2
    half += half.conj().swapaxes(-1, -2)  # conj() copies: the add reads no updated entry
    w, V = np.linalg.eigh(half)
    return w, V


def expm_i(H, t) -> np.ndarray:
    """exp(-i t H) for each Hermitian H of a stack, exact on the eigenbasis; t is
    one time, or an array of the stack's shape (...) with one time per matrix."""
    return _eig_expm_i(*herm_eig(H), t)


def _eig_expm_i(w, V, t) -> np.ndarray:
    """exp(-i t H) rebuilt from H's eigendecomposition (w, V) as `herm_eig` returns it."""
    phases = np.exp(-1j * np.asarray(t)[..., None] * w)
    return (V * phases[..., None, :]) @ V.conj().swapaxes(-1, -2)


def _folded_args(lam: np.ndarray) -> np.ndarray:
    """Arguments of unit-modulus eigenvalues on (-pi, pi], sorted ascending."""
    moduli = np.abs(lam)
    if np.max(np.abs(moduli - 1.0)) > tolerances.SPECTRAL:
        raise ValueError("matrix is not unitary: eigenvalue moduli deviate from 1")
    args = np.angle(lam / moduli)
    args[args <= -np.pi + tolerances.BRANCH_FOLD] = np.pi
    return np.sort(args, axis=-1)


def unitary_args(U) -> np.ndarray:
    """Eigenvalue arguments of each unitary of a stack, ascending, on (-pi, pi].

    Eigenvalue moduli must be within SPECTRAL of 1, for every matrix of the
    stack; arguments within BRANCH_FOLD of -pi are folded to +pi.
    """
    return _folded_args(np.linalg.eigvals(_as_stack(U)))


def _eig_unitary_args(w) -> np.ndarray:
    """`unitary_args(expm_i(H, 1))` read off H's eigenvalues w: exp(-i w), folded."""
    return _folded_args(np.exp(-1j * np.asarray(w)))


def tensor(*ops) -> np.ndarray:
    """Kronecker product of matrices (or of state vectors)."""
    if not ops:
        raise ValueError("tensor needs at least one factor")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in `keep`.

    dims lists the subsystem dimensions in tensor order; keep is an iterable
    of subsystem indices to retain (original order preserved).
    """
    rho = _as_square(rho)
    dims = [int(d) for d in dims]
    if int(np.prod(dims)) != rho.shape[0]:
        raise ValueError(f"subsystem dims {dims} do not multiply to {rho.shape[0]}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError("keep indices out of range")
    n = len(dims)
    reshaped = rho.reshape(dims + dims)
    # Contract row/column indices of every traced-out subsystem.
    for k in reversed([i for i in range(n) if i not in keep]):
        reshaped = np.trace(reshaped, axis1=k, axis2=k + reshaped.ndim // 2)
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return reshaped.reshape(d_keep, d_keep)


def bloch_to_density(P) -> np.ndarray:
    """rho = (I + P.sigma)/2; requires |P| <= 1."""
    P = check_bloch(P)
    return 0.5 * (I2 + P[0] * SIGMA_X + P[1] * SIGMA_Y + P[2] * SIGMA_Z)


def density_to_bloch(rho) -> np.ndarray:
    """Polarization vector (tr rho sigma_x, tr rho sigma_y, tr rho sigma_z)."""
    rho = _as_square(rho)
    if rho.shape != (2, 2):
        raise ValueError("Bloch conversion is defined for 2x2 densities only")
    return np.array([np.trace(rho @ s).real for s in PAULIS])


def axis_operator(axis) -> np.ndarray:
    """a . sigma for a unit 3-vector a."""
    a = check_axis(axis)
    return a[0] * SIGMA_X + a[1] * SIGMA_Y + a[2] * SIGMA_Z


def basis_state(dim: int, index: int) -> np.ndarray:
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    e = np.zeros(dim, dtype=complex)
    e[index] = 1.0
    return e


def sup_norm(H):
    """Operator sup norm, max |eigenvalue|, of each Hermitian matrix of a stack:
    a float for one matrix, an array of shape (...) for a (..., d, d) stack."""
    w, _ = herm_eig(H)
    norms = np.max(np.abs(w), axis=-1)
    return float(norms) if norms.ndim == 0 else norms


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_SPAWN_BLOCK = 1024  # children whose states are alive at once in spawned_rngs


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^k mod 2^32 for k = 0 .. count, as a (count + 1, 1) uint32 column."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(values, consts):
    """SeedSequence's hashmix of each row of `values` with the hash constant in
    effect for it: row k is xored with consts[k] and multiplied by consts[k + 1]."""
    v = (values ^ consts[:-1]) * consts[1:]
    return v ^ (v >> _XSHIFT)


def _mix(x, y):
    v = _MIX_MULT_L * x - _MIX_MULT_R * y
    return v ^ (v >> _XSHIFT)


def child_states(seed, start: int, stop: int) -> np.ndarray:
    """c.generate_state(4, np.uint64) for children c = start .. stop-1 of
    SeedSequence(seed), as a (stop - start, 4) uint64 array.

    A child's entropy is the seed's, zero-padded to the pool size, followed by
    the child index, and SeedSequence's hash constants do not depend on the
    data. So every child starts from the parent's mixed pool, with the hash
    constant skipped past the parent's 4 * max(words, 4) hashmix calls, and
    only the mixing of its index into the pool and generate_state are left,
    run for all children at once in uint32 arrays.
    """
    # Imported here so that importing qdlab does not load numpy.random.
    from numpy.random import SeedSequence

    if not 0 <= start <= stop <= 2**32:
        raise ValueError("child indices must lie in [0, 2**32)")  # one spawn-key word
    parent = SeedSequence(seed).pool[:, None]
    words = (operator.index(seed).bit_length() + 31) // 32
    skipped = _INIT_A * pow(_MULT_A, _POOL_SIZE * max(words, _POOL_SIZE), 2**32) & 0xFFFFFFFF
    index = np.arange(start, stop, dtype=np.uint32)
    pool = _mix(parent, _hashmix(index, _hash_consts(skipped, _MULT_A, _POOL_SIZE)))
    # generate_state: 8 uint32 words cycled from the pool, read as 4 little-endian uint64.
    state = _hashmix(np.tile(pool, (2, 1)), _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


# PCG64's 128-bit multiplier (numpy/random/src/pcg64/pcg64.h), its low word in 32-bit halves.
_MULT_HI, _MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_LOW32 = np.uint64(0xFFFFFFFF)
_M0, _M1 = _MULT_LO & _LOW32, _MULT_LO >> np.uint64(32)


def child_uniforms(seed, count: int, n: int) -> np.ndarray:
    """default_rng(c).random(n) for each child c of SeedSequence(seed).spawn(count),
    as a (count, n) array, with no generator built.

    PCG64 (O'Neill, HMC-CS-2014-0905) is a 128-bit LCG with XSL-RR output, seeded from
    the 4 `child_states` words: inc = (w2:w3 << 1) | 1, state inc + w0:w1 stepped once.
    A draw steps state = state * MULT + inc and keeps the top 53 bits of rotr64(hi ^ lo,
    hi >> 58). All children step at once in uint64 halves, lo * MULT_LO's high word
    summed from 32-bit halves.
    """
    w = child_states(seed, 0, count).T
    inc_hi, inc_lo = (w[2] << 1) | (w[3] >> 63), (w[3] << 1) | 1
    lo = w[1] + inc_lo
    hi = w[0] + inc_hi + (lo < inc_lo)
    out = np.empty((n + 1, count))  # row 0 is the seeding step's output, dropped
    for k in range(n + 1):
        l0, l1 = lo & _LOW32, lo >> 32
        t = l1 * _M0 + ((l0 * _M0) >> 32)
        carry = l1 * _M1 + (t >> 32) + ((l0 * _M1 + (t & _LOW32)) >> 32)
        hi = hi * _MULT_LO + lo * _MULT_HI + carry + inc_hi
        lo = lo * _MULT_LO + inc_lo
        hi += lo < inc_lo
        x, rot = hi ^ lo, hi >> 58
        out[k] = ((x >> rot) | (x << ((64 - rot) & 63))) >> 11
    return out[1:].T * 2.0**-53


def spawned_rngs(seed, count: int):
    """default_rng(child) for each child of SeedSequence(seed).spawn(count),
    built one at a time from `child_states` blocks: the one place where a
    trial's seed becomes its generator."""
    # Imported here so that importing qdlab does not load numpy.random.
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Child(ISeedSequence):
        """A spawned child as PCG64 reads it: its generate_state(4, np.uint64)."""

        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    for start in range(0, count, _SPAWN_BLOCK):
        for state in child_states(seed, start, min(start + _SPAWN_BLOCK, count)):
            yield Generator(PCG64(Child(state)))
