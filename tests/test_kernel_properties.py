"""Property tests of the contraction kernels and the sampling oracle against
per-entry and per-sample references.

Needs hypothesis; without it this module is skipped and the rest of the
suite runs unchanged.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ueigen import (  # noqa: E402
    contract_excluding,
    norm,
    overlap,
    rank_one,
    sampling_oracle,
)
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


@hypothesis.settings(derandomize=True, deadline=None)
@hypothesis.given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=6),
    samples=st.integers(1, 300),
    batch=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampling_oracle_matches_overlap_reference(dims, samples, batch, seed):
    T = random_tensor(np.random.default_rng(seed), tuple(dims))
    value = sampling_oracle(T, samples, seed=seed, batch=batch)
    reference = reference_sampling_bound(T, samples, seed, batch)
    assert abs(value - reference) <= 1e-12 * norm(T)
