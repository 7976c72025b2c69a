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
