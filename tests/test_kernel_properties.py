"""Property tests of the contraction kernels and the sampling oracle against
per-entry and per-sample references.

Needs hypothesis; without it this module is skipped and the rest of the
suite runs unchanged.
"""

import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ueigen import (  # noqa: E402
    ComplexTensor,
    SolverConfig,
    contract_excluding,
    norm,
    oracle,
    overlap,
    random_start,
    rank_one,
    sampling_oracle,
    solve,
)
from ueigen.tensor import (  # noqa: E402
    _contract_leading,
    _dot_rows,
    _joint_norms,
    _right_chain,
    _row_norms,
)
from ueigen.solvers import ALGORITHMS, _iterate, _random_rows  # noqa: E402
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
    # Runs of equal dims: the joint norm takes one stacked dot per run.
    dims=st.one_of(st.lists(st.integers(1, 4), min_size=1, max_size=6),
                   st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=6)),
    starts=st.integers(1, 5),
    views=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_rows_are_bitwise_lone_rows(dims, starts, views, seed):
    # The solvers' starts stay bitwise independent of the batch because
    # every row of a batched kernel is the computation a lone row makes,
    # also when the rows are the column blocks of one array, as the
    # solvers keep them.
    rng = np.random.default_rng(seed)
    conj_data = np.conj(random_tensor(rng, tuple(dims)).data)
    rows = [rng.standard_normal((starts, d)) + 1j * rng.standard_normal((starts, d))
            for d in dims]
    if views:
        V = np.concatenate(rows, axis=1)
        rows = np.split(V, np.cumsum(dims[:-1]), axis=1)
    chain = _right_chain(conj_data, rows)
    for k0, d in enumerate(dims):
        # Order one reads no factor and gives one row for every start.
        batch = np.broadcast_to(_contract_leading(chain[k0], rows, k0), (starts, d))
        for r in range(starts):
            vecs = [X[r] for X in rows]
            assert np.array_equal(batch[r], _lone_contraction(conj_data, vecs, k0))
    for X in rows:
        norms = _row_norms(X)
        squares = _dot_rows(np.conj(X), X).real
        for r in range(starts):
            assert norms[r] == np.linalg.norm(X[r])
            assert squares[r] == np.real(np.vdot(X[r], X[r]))
    joint = _joint_norms(np.concatenate(rows, axis=1), dims)
    for r in range(starts):
        assert joint[r] == math.sqrt(sum(float(np.real(np.vdot(X[r], X[r]))) for X in rows))


def _outcome_bytes(outcome):
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    vecs, lam, trace = outcome
    return ([v.tobytes() for v in vecs], repr(lam), repr(trace.lams), repr(trace.step_errors),
            trace.status, trace.shift_scale,
            [[v.tobytes() for v in it] for it in trace.iterates])


@hypothesis.settings(derandomize=True, deadline=None, max_examples=50)
@hypothesis.given(
    dims=st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=5),
    starts=st.integers(1, 4),
    algorithm=st.sampled_from(ALGORITHMS),
    seed=st.integers(0, 2**32 - 1),
)
def test_iterate_reads_views_as_contiguous_rows(dims, starts, algorithm, seed):
    # The loop keeps its K starts as one (K, sum n_i) array and contracts
    # its column blocks as views: starts given as views of one array end
    # with the bytes that starts given as separate contiguous rows do.
    rng = np.random.default_rng(seed)
    conj_data = np.conj(random_tensor(rng, tuple(dims)).data)
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(starts)]
    # Embed iterates its unit vector as jointly normalized blocks.
    normalization = "gauss_seidel" if algorithm == "gauss_seidel" else "joint"
    V = np.concatenate(_random_rows(rngs, dims, normalization), axis=1)
    views = np.split(V, np.cumsum(dims[:-1]), axis=1)
    contiguous = [np.ascontiguousarray(X) for X in views]
    assert not any(X.flags.c_contiguous for X in views[1:]) or starts == 1
    results = [
        [_outcome_bytes(o) for o in _iterate(conj_data, rows, algorithm, 1.0, 1e-9, 1e-9, 40, True)]
        for rows in (views, contiguous)
    ]
    assert results[0] == results[1]


@hypothesis.settings(derandomize=True, deadline=None)
@hypothesis.given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    starts=st.integers(1, 4),
    data=st.data(),
)
def test_right_chain_is_bitwise_the_contraction(dims, starts, data):
    # The solvers read every mode's contraction from one right chain, and
    # contract_excluding reads mode k's from a chain that stops at k: its
    # first link is bitwise link k of the full chain.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    conj_data = np.conj(random_tensor(rng, tuple(dims)).data)
    rows = [rng.standard_normal((starts, d)) + 1j * rng.standard_normal((starts, d))
            for d in dims]
    rows = [X / _row_norms(X)[:, None] for X in rows]
    chain = _right_chain(conj_data, rows)
    assert len(chain) == len(dims) and chain[-1].shape == (1, *dims)
    for k in range(len(dims)):
        stopped = _right_chain(conj_data, rows, k)
        assert len(stopped) == len(dims) - k
        assert stopped[0].tobytes() == chain[k].tobytes()
    # Rows that leave: the kept links of the chain, the shared last link as
    # it is, are bitwise the chain of the kept rows.
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=starts, max_size=starts)))
    hypothesis.assume(keep.any())
    compressed = [t[keep] for t in chain[:-1]] + chain[-1:]
    kept = _right_chain(conj_data, [X[keep] for X in rows])
    assert [t.tobytes() for t in compressed] == [t.tobytes() for t in kept]


@hypothesis.settings(derandomize=True, deadline=None)
@hypothesis.given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_public_primitives_are_bitwise_lone_rows(dims, seed):
    # overlap and contract_excluding read the solvers' chain as a batch of
    # one; the excluded factor may be None, as the chain never reads it.
    rng = np.random.default_rng(seed)
    T = random_tensor(rng, tuple(dims))
    conj_data = np.conj(T.data)
    f = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
    lone = f[0] @ _lone_contraction(conj_data, f, 0)
    assert complex(overlap(T, f)) == complex(lone)
    for k in range(1, len(dims) + 1):
        vec = contract_excluding(T, f[: k - 1] + [None] + f[k:], k)
        assert vec.tobytes() == _lone_contraction(conj_data, f, k - 1).tobytes()


@hypothesis.settings(derandomize=True, deadline=None)
@hypothesis.given(
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    algorithm=st.sampled_from(["gauss_seidel", "joint"]),
    k=st.integers(-600, 600),
    seed=st.integers(0, 2**32 - 1),
)
def test_first_lambda_is_the_overlap(dims, algorithm, k, seed):
    # The loop's first lambda and overlap come from one kernel,
    # tensor._overlaps: bitwise equal on A, and 2^k times it on 2^k A, whose
    # loop runs on the same scaled copy of A.
    rng = np.random.default_rng(seed)
    T = random_tensor(rng, tuple(dims))
    start = random_start(rng, T.dims, algorithm)
    cfg = SolverConfig(algorithm=algorithm, max_iter=1)
    value = overlap(T, start)
    assert solve(T, cfg, start).trace.lams[0] == value
    scaled = ComplexTensor(np.ldexp(T.data.view(float), k).view(complex))
    assert overlap(scaled, start) == 2.0**k * value
    assert solve(scaled, cfg, start).trace.lams[0] == 2.0**k * value


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
