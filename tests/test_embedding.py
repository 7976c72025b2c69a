import itertools
import math

import numpy as np
import pytest

from ueigen import (
    SolverConfig,
    ZeroEigenvalueError,
    contract_excluding,
    embedded_to_json,
    from_array,
    from_sparse,
    is_symmetric,
    norm,
    overlap,
    random_start,
    shift_to_embedded,
    solve_embed,
    sym_embed,
    tensor_from_json,
    zeros,
)
from conftest import random_dims, random_tensor


def split_blocks(x, dims):
    offs = np.concatenate(([0], np.cumsum(dims)))
    return [x[offs[i] : offs[i + 1]] for i in range(len(dims))]


def embedded_block(S, dims, i):
    """Block of S at the 0-based block multi-index i, blocks cut at cumsum(dims)."""
    offs = np.concatenate(([0], np.cumsum(dims)))
    return S.data[tuple(slice(offs[b], offs[b + 1]) for b in i)]


class TestSymEmbed:
    def test_shape_and_partition(self):
        rng = np.random.default_rng(0)
        A = random_tensor(rng, (3, 4, 5))
        emb = sym_embed(A)
        assert emb.tensor.dims == (12, 12, 12)
        assert emb.source_dims == (3, 4, 5)

    def test_permutation_blocks_hold_transpositions(self):
        rng = np.random.default_rng(1)
        A = random_tensor(rng, (3, 4, 5))
        emb = sym_embed(A)
        for perm in itertools.permutations(range(3)):
            sub = embedded_block(emb.tensor, A.dims, perm)
            np.testing.assert_array_equal(sub, np.transpose(A.data, perm))
        # identity block recovers A itself
        np.testing.assert_array_equal(embedded_block(emb.tensor, A.dims, (0, 1, 2)), A.data)

    def test_non_permutation_blocks_zero(self):
        rng = np.random.default_rng(2)
        A = random_tensor(rng, (2, 3, 2))
        emb = sym_embed(A)
        for i in itertools.product(range(3), repeat=3):
            if sorted(i) != [0, 1, 2]:
                assert not np.any(embedded_block(emb.tensor, A.dims, i))

    def test_norm_scaling(self, ex41):
        emb = sym_embed(ex41.tensor)
        assert emb.tensor.dims == (6, 6, 6)
        assert norm(emb.tensor) == pytest.approx(math.sqrt(6), abs=1e-12)

    def test_smallest_case(self):
        A = from_array([[3.0 + 1j]])
        emb = sym_embed(A)
        expected = np.array([[0, 3 + 1j], [3 + 1j, 0]])
        np.testing.assert_array_equal(emb.tensor.data, expected)

    def test_order_one_rejected(self):
        with pytest.raises(ValueError):
            sym_embed(from_array([1.0, 2.0]))

    def test_random_norm_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            dims = random_dims(rng)
            A = random_tensor(rng, dims)
            S = sym_embed(A).tensor
            assert norm(S) == pytest.approx(
                math.sqrt(math.factorial(len(dims))) * norm(A), rel=1e-10
            )


class TestIsSymmetric:
    def test_embeddings_are_symmetric(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            A = random_tensor(rng, random_dims(rng))
            assert is_symmetric(sym_embed(A).tensor, 1e-12)

    def test_asymmetric_matrix(self):
        assert not is_symmetric(from_array([[0.0, 1.0], [0.0, 0.0]]))

    def test_vector_vacuously_symmetric(self):
        assert is_symmetric(from_array([1.0, 2.0, 3.0]))

    def test_non_cubical_rejected(self):
        with pytest.raises(ValueError, match="cubical"):
            is_symmetric(from_sparse((2, 3), {}))


class TestLiftEigenpair:
    def test_zero_eigenvalue_rejected(self):
        # A zero tensor drives the embedded iteration to lambda = 0, where no
        # U-eigenvalue of A can be recovered from the embedded eigenpair.
        A = zeros((2, 2, 2))
        x0 = random_start(np.random.default_rng(1), A.dims, "embed")
        with pytest.raises(ZeroEigenvalueError, match="zero eigenvalue"):
            solve_embed(A, SolverConfig(algorithm="embed", max_iter=50), x0)


class TestShiftToEmbedded:
    def test_values(self):
        assert shift_to_embedded(1.0, 3) == 12.0
        assert shift_to_embedded(1.0, 2) == 2.0
        assert shift_to_embedded(0.5, 4) == 72.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            shift_to_embedded(0.0, 3)
        with pytest.raises(ValueError):
            shift_to_embedded(-1.0, 3)


class TestEmbeddingIdentities:
    def test_overlap_identity(self):
        # full symmetric overlap is m! times the source overlap
        rng = np.random.default_rng(7)
        for _ in range(10):
            dims = random_dims(rng)
            m = len(dims)
            A = random_tensor(rng, dims)
            S = sym_embed(A).tensor
            x = rng.standard_normal(sum(dims)) + 1j * rng.standard_normal(sum(dims))
            x /= np.linalg.norm(x)
            left = overlap(S, (x,) * m)
            right = math.factorial(m) * overlap(A, split_blocks(x, dims))
            assert left == pytest.approx(right, abs=1e-10)

    def test_gradient_identity(self):
        # per-block restriction of the symmetric contraction
        rng = np.random.default_rng(8)
        for _ in range(10):
            dims = random_dims(rng)
            m = len(dims)
            A = random_tensor(rng, dims)
            S = sym_embed(A).tensor
            x = rng.standard_normal(sum(dims)) + 1j * rng.standard_normal(sum(dims))
            x /= np.linalg.norm(x)
            grad = contract_excluding(S, (x,) * m, 1)
            blocks = split_blocks(x, dims)
            for i, gi in enumerate(split_blocks(grad, dims), start=1):
                ci = contract_excluding(A, blocks, i)
                np.testing.assert_allclose(
                    gi, math.factorial(m - 1) * ci, atol=1e-10
                )


class TestEmbeddedJson:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        A = random_tensor(rng, (2, 3))
        emb = sym_embed(A)
        obj = embedded_to_json(emb)
        assert obj["source_dims"] == [2, 3]
        back = tensor_from_json({k: v for k, v in obj.items() if k != "source_dims"})
        assert back == emb.tensor
