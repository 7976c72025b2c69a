import math

import numpy as np
import pytest

from ueigen import SolverConfig, catalog, contract_excluding, multi_start, overlap


def random_tensor(rng, dims):
    data = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    from ueigen import ComplexTensor

    return ComplexTensor(data)


def reference_sampling_bound(T, samples, seed, batch):
    """``sampling_oracle`` rebuilt from its documented draws, one product
    state per sample.

    Each batch of ``batch`` samples has its own child of ``SeedSequence(seed)``
    and draws, per mode 2..m, real then imaginary normals of shape
    (count, d), normalized by row. Each sample's mode-1 factor is the one
    that attains the bound, conj(c) / ||c|| with c the contraction over the
    drawn modes, and the value is the overlap modulus of that product state.
    """
    children = np.random.SeedSequence(seed).spawn(-(-samples // batch))
    best = 0.0
    for b, child in enumerate(children):
        rng = np.random.default_rng(child)
        count = min(batch, samples - b * batch)
        mats = []
        for d in T.dims[1:]:
            z = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
            mats.append(z / np.linalg.norm(z, axis=1, keepdims=True))
        for s in range(count):
            drawn = [z[s] for z in mats]
            c = contract_excluding(T, [None] + drawn, 1)
            factors = [np.conj(c) / np.linalg.norm(c)] + drawn
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
