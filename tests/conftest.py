import numpy as np
import pytest

from qdlab import tolerances


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(rng, dim):
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (A + A.conj().T) / 2


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim, rank=None):
    rank = rank or dim
    A = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = A @ A.conj().T
    return rho / np.trace(rho)


def random_unitary(rng, dim):
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Q, R = np.linalg.qr(A)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def eig_unitary(U):
    """`np.linalg.eig` of a unitary: its eigenvalue arguments folded and sorted
    as `qmath.unitary_args` does, and orthonormal eigenvector columns V in that
    order. `eig` vectors of a (nearly) repeated eigenvalue need not be
    orthogonal; QR in ascending-argument order orthonormalizes each cluster
    within its own span."""
    lam, V = np.linalg.eig(U)
    args = np.angle(lam / np.abs(lam))
    args[args <= -np.pi + tolerances.BRANCH_FOLD] = np.pi
    order = np.argsort(args)
    return args[order], np.linalg.qr(V[:, order])[0]
