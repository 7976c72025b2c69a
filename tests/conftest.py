import itertools
import math

import numpy as np
import pytest

from ueigen import SolverConfig, catalog, contract_excluding, multi_start, overlap


def random_tensor(rng, dims):
    data = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    from ueigen import ComplexTensor

    return ComplexTensor(data)


def reference_sampling_bound(T, samples, seed):
    """``sampling_oracle`` rebuilt from its documented draws, one explicit
    product state per grid point.

    Mode 1 is never drawn. When the order is >= 2 and some mode has dim 2,
    mode q is not drawn either: the largest mode after mode 1 (first on
    ties) when mode 1 has dim 2, else the first mode of dim 2. A mode of
    dim 1 is not drawn; its factor is 1. The r modes left are drawn on a
    grid of B_k factors each: the first r - 1 share the largest side whose
    r-th power is at most ``samples`` and whose (r-1)-th power is at most
    2^17 // (the undrawn size), or 1, and the last is ceil(samples / their
    product). One ``default_rng(seed)`` draws the modes in increasing
    order, each as normals of shape (B_k, d, 2), the real and imaginary
    parts of each entry, scaled to unit norm by row. Every combination of
    one row per drawn mode is a sample. The contraction over the drawn
    modes, with the qubit mode's factor set to each basis vector in turn,
    gives the 2 x n matrix M; the undrawn factors are the conjugated top
    singular pair of M from ``np.linalg.svd``. With mode 1 alone undrawn,
    its factor is conj(c) / ||c|| for c the contraction over the drawn
    modes. The value is the overlap modulus of that product state.
    """
    m, dims = T.order, T.dims
    pair = None
    if m >= 2 and 2 in dims:
        pair = (0, 1 + int(np.argmax(dims[1:]))) if dims[0] == 2 else (dims.index(2), 0)
    undrawn = pair or (0,)
    drawn = [k for k in range(1, m) if k not in undrawn and dims[k] > 1]
    r = len(drawn)

    def unit_rows(rng, count, d):
        parts = rng.standard_normal((count, d, 2))
        z = parts[..., 0] + 1j * parts[..., 1]
        return z / np.linalg.norm(z, axis=1, keepdims=True)

    grid = []
    if r:
        cap = max(1, (1 << 17) // math.prod(dims[j] for j in undrawn))
        side = 1
        while r > 1 and (side + 1) ** r <= samples and (side + 1) ** (r - 1) <= cap:
            side += 1
        sizes = [side] * (r - 1) + [-(-samples // side ** (r - 1))]
        rng = np.random.default_rng(seed)
        grid = [unit_rows(rng, b, dims[k]) for k, b in zip(drawn, sizes)]
    best = 0.0
    for point in itertools.product(*grid):
        factors = [np.ones(1)] * m
        for k, z in zip(drawn, point):
            factors[k] = z
        if pair is None:
            c = contract_excluding(T, factors, 1)
            factors[0] = np.conj(c) / np.linalg.norm(c)
        else:
            qubit, other = pair
            M = np.array([
                contract_excluding(T, factors[:qubit] + [e] + factors[qubit + 1:], other + 1)
                for e in np.eye(2)
            ])
            U, _, Vh = np.linalg.svd(M)
            factors[qubit], factors[other] = np.conj(U[:, 0]), np.conj(Vh[0])
        best = max(best, abs(overlap(T, factors)))
    return best


def reference_eigenpair(T, algorithm, tol, iterate, lam, status):
    """The solvers' finish rebuilt from its documentation, one start alone.

    ``iterate`` is a run's final iterate (for embed one vector of length
    sum(dims), else one vector per mode), ``lam`` its eigenvalue estimate and
    ``status`` the status its iteration ended with. The iterate is rotated by
    the principal m-th root of |lam| / lam, embed's vector is split into T's
    mode blocks, and each vector is divided by its ``np.linalg.norm``. The
    eigenvalue is |lam| times (sqrt m)^m / m! for embed, (sqrt m)^m for joint
    and 1 for Gauss-Seidel; the residual is the largest norm over modes k of
    contract_excluding(T, x, k) - eigenvalue conj(x_k), and a converged run
    whose residual exceeds 100 tol max(1, eigenvalue) is "stalled".

    Returns (eigenvalue, residual, factors, status).
    """
    m = T.order
    phase = complex(abs(lam) / lam) ** (1.0 / m)
    if algorithm == "embed":
        iterate = np.split(iterate, np.cumsum(T.dims[:-1]))
        scale = math.sqrt(m) ** m / math.factorial(m)
    else:
        scale = math.sqrt(m) ** m if algorithm == "joint" else 1.0
    factors = []
    for v in iterate:
        w = phase * v
        factors.append(w / np.linalg.norm(w))
    eigenvalue = scale * abs(lam)
    res = 0.0
    for k in range(m):
        dev = contract_excluding(T, factors, k + 1) - eigenvalue * np.conj(factors[k])
        res = max(res, float(np.linalg.norm(dev)))
    if status == "converged" and res > 100 * tol * max(1.0, eigenvalue):
        status = "stalled"
    return eigenvalue, res, factors, status


def random_dims(rng, max_order=4, max_dim=4, min_order=2):
    m = int(rng.integers(min_order, max_order + 1))
    return tuple(int(rng.integers(2, max_dim + 1)) for _ in range(m))


@pytest.fixture(scope="session")
def ex41():
    return catalog.example_4_1()


@pytest.fixture(scope="session")
def ex41_solved(ex41):
    cfg = SolverConfig(algorithm="gauss_seidel", tol=1e-9, starts=10, seed=0)
    return multi_start(ex41.tensor, cfg)


@pytest.fixture(scope="session")
def ex42_solved():
    state = catalog.example_4_2()
    cfg = SolverConfig(algorithm="gauss_seidel", tol=1e-9, starts=10, seed=0)
    return multi_start(state.tensor, cfg)
