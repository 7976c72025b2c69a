"""Property tests of the contraction kernels and the sampling oracle against
per-entry and per-sample references.

Needs hypothesis; without it this module is skipped and the rest of the
suite runs unchanged.
"""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ueigen import (  # noqa: E402
    contract_excluding,
    norm,
    oracle,
    overlap,
    rank_one,
    sampling_oracle,
)
from ueigen.solvers import _row_norms  # noqa: E402
from ueigen.tensor import _contract_excluding, _dot_rows  # noqa: E402
from conftest import random_tensor, reference_sampling_bound  # noqa: E402


def _reference_overlap(T, f):
    return np.vdot(T.data, rank_one(f).data)


@hypothesis.settings(derandomize=True, deadline=None)
@hypothesis.given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=7),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernels_match_dense_reference(dims, seed):
    # Unit factors bound every value by ||T|| (Cauchy-Schwarz), the scale of
    # the 1e-12 relative tolerance.
    rng = np.random.default_rng(seed)
    T = random_tensor(rng, tuple(dims))
    f = [z / np.linalg.norm(z) for z in (
        rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims
    )]
    tol = 1e-12 * norm(T)
    assert abs(overlap(T, f) - _reference_overlap(T, f)) <= tol
    for k, d in enumerate(dims, start=1):
        vec = contract_excluding(T, f, k)
        assert vec.shape == (d,)
        for j, basis in enumerate(np.eye(d, dtype=complex)):
            ref = _reference_overlap(T, f[: k - 1] + [basis] + f[k:])
            assert abs(vec[j] - ref) <= tol


def _lone_contraction(conj_data, vecs, k0):
    """One factor tuple contracted by plain matrix-vector products."""
    dims = conj_data.shape
    t = conj_data
    for i in range(len(dims) - 1, k0, -1):
        t = t.reshape(-1, dims[i]) @ vecs[i]
    for i in range(k0):
        t = vecs[i] @ t.reshape(dims[i], -1)
    return t


@hypothesis.settings(derandomize=True, deadline=None)
@hypothesis.given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=6),
    starts=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_rows_are_bitwise_lone_rows(dims, starts, seed):
    # The solvers' starts stay bitwise independent of the batch because
    # every row of a batched kernel is the computation a lone row makes.
    rng = np.random.default_rng(seed)
    conj_data = np.conj(random_tensor(rng, tuple(dims)).data)
    rows = [rng.standard_normal((starts, d)) + 1j * rng.standard_normal((starts, d))
            for d in dims]
    for k0, d in enumerate(dims):
        # Order one reads no factor and gives one row for every start.
        batch = np.broadcast_to(_contract_excluding(conj_data, rows, k0), (starts, d))
        for r in range(starts):
            vecs = [X[r] for X in rows]
            assert np.array_equal(batch[r], _lone_contraction(conj_data, vecs, k0))
    for X in rows:
        norms = _row_norms(X)
        squares = _dot_rows(np.conj(X), X).real
        for r in range(starts):
            assert norms[r] == np.linalg.norm(X[r])
            assert squares[r] == np.real(np.vdot(X[r], X[r]))


@hypothesis.settings(derandomize=True, deadline=None)
@hypothesis.given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=6),
    samples=st.integers(1, 300),
    batch=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampling_oracle_matches_overlap_reference(dims, samples, batch, seed):
    T = random_tensor(np.random.default_rng(seed), tuple(dims))
    # A patch, not a fixture: hypothesis rejects function-scoped fixtures.
    with mock.patch.object(oracle, "_BATCH", batch):
        value = sampling_oracle(T, samples, seed=seed)
    reference = reference_sampling_bound(T, samples, seed)
    assert abs(value - reference) <= 1e-12 * norm(T)
