"""Property tests of the largest eigenvalue lambda on small random tensors:
it lies between the oracles' lower bounds and the flattening bound; a global
phase, a unitary on one mode or a permutation of the modes leaves it
unchanged; a rank-one tensor's is the product of its factor norms; and the
zero tensor has none, under every algorithm.

Needs hypothesis; without it this module is skipped and the rest of the
suite runs unchanged.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ueigen import (  # noqa: E402
    ALGORITHMS,
    ComplexTensor,
    SolverConfig,
    SolverError,
    evaluate_oracles,
    multi_start,
    rank_one,
    zeros,
)
from conftest import random_tensor  # noqa: E402

_CFG = SolverConfig(algorithm="gauss_seidel", tol=1e-12, starts=10, seed=0)

_DIMS = st.lists(st.integers(1, 3), min_size=2, max_size=3)
_SEEDS = st.integers(0, 2**32 - 1)


def _lam(T):
    return multi_start(T, _CFG).best.eigenvalue


def _haar_unitary(rng, n):
    """Haar-distributed n x n unitary: QR of a complex Ginibre matrix with
    the phases of R's diagonal moved into Q (Mezzadri, Notices AMS 54, 2007)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


@hypothesis.settings(derandomize=True, deadline=None)
@hypothesis.given(dims=_DIMS, seed=_SEEDS)
def test_lambda_between_lower_and_flattening_bounds(dims, seed):
    T = random_tensor(np.random.default_rng(seed), tuple(dims))
    lam = _lam(T)
    sampling, flattening = evaluate_oracles(T, seed=seed)
    lower = max(sampling.lambda_lower_bound, float(np.max(np.abs(T.data))))
    assert lower <= lam + 1e-8 <= flattening.lambda_upper_bound + 2e-8


@hypothesis.settings(derandomize=True, deadline=None)
@hypothesis.given(
    dims=_DIMS,
    seed=_SEEDS,
    mode=st.integers(0, 2),
    phase=st.floats(0.0, 2 * math.pi),
)
def test_lambda_invariant_under_phase_and_local_unitary(dims, seed, mode, phase):
    rng = np.random.default_rng(seed)
    T = random_tensor(rng, tuple(dims))
    k = mode % len(dims)
    U = _haar_unitary(rng, dims[k])
    rotated = np.moveaxis(np.tensordot(U, T.data, axes=([1], [k])), 0, k)
    lam = _lam(T)
    assert abs(_lam(ComplexTensor(np.exp(1j * phase) * T.data)) - lam) <= 1e-8
    assert abs(_lam(ComplexTensor(rotated)) - lam) <= 1e-8


@hypothesis.settings(derandomize=True, deadline=None)
@hypothesis.given(dims=_DIMS, seed=_SEEDS)
def test_lambda_invariant_under_mode_permutation(dims, seed):
    rng = np.random.default_rng(seed)
    T = random_tensor(rng, tuple(dims))
    permuted = np.transpose(T.data, rng.permutation(len(dims)))
    assert abs(_lam(ComplexTensor(permuted)) - _lam(T)) <= 1e-8


@hypothesis.settings(derandomize=True, deadline=None)
@hypothesis.given(dims=_DIMS, seed=_SEEDS)
def test_rank_one_lambda_is_the_product_of_norms(dims, seed):
    rng = np.random.default_rng(seed)
    vecs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
    expected = math.prod(float(np.linalg.norm(v)) for v in vecs)
    assert _lam(rank_one(vecs)) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@hypothesis.settings(derandomize=True, deadline=None, max_examples=20)
@hypothesis.given(dims=_DIMS)
def test_zero_tensor_fails_every_start(algorithm, dims):
    cfg = SolverConfig(algorithm=algorithm, starts=3)
    with pytest.raises(SolverError, match="every start failed"):
        multi_start(zeros(dims), cfg)
