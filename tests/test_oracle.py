import math

import numpy as np
import pytest

from ueigen import (
    ComplexTensor,
    SolverConfig,
    from_array,
    from_sparse,
    multi_start,
    norm,
    orthogonal_sum_oracle,
    sampling_oracle,
    svd_oracle,
)
from ueigen import catalog
from ueigen.catalog import example_4_1, example_4_2, example_4_7
from conftest import random_tensor


class TestSvdOracle:
    def test_scaled_identity(self):
        A = from_array(np.eye(2) / math.sqrt(2))
        assert svd_oracle(A) == pytest.approx(1 / math.sqrt(2), abs=1e-10)

    def test_diagonal(self):
        A = from_array(np.diag([0.6, 0.8]))
        assert svd_oracle(A) == pytest.approx(0.8, abs=1e-10)

    def test_matches_numpy_svd(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            shape = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            A = random_tensor(rng, shape)
            expected = float(np.linalg.svd(A.data, compute_uv=False)[0])
            assert svd_oracle(A) == pytest.approx(expected, abs=1e-9)

    def test_matches_solver(self):
        rng = np.random.default_rng(1)
        A = random_tensor(rng, (4, 3))
        cfg = SolverConfig(algorithm="gauss_seidel", tol=1e-11, starts=5, seed=0)
        lam = multi_start(A, cfg).best.eigenvalue
        assert abs(svd_oracle(A) - lam) <= 1e-7

    def test_rejects_higher_order(self):
        with pytest.raises(ValueError, match="matrix"):
            svd_oracle(from_sparse((2, 2, 2), {}))

    def test_zero_matrix(self):
        assert svd_oracle(from_sparse((3, 3), {})) == 0.0


class TestSamplingOracle:
    def test_lower_bounds_fixture(self):
        state = example_4_1()
        value = sampling_oracle(state.tensor, samples=100_000, seed=0)
        assert 0.80 < value <= 0.8165 + 1e-9

    def test_rank_one_approaches_one(self):
        T = from_sparse((2, 2), {(1, 1): 1.0})
        value = sampling_oracle(T, samples=20_000, seed=1)
        assert 0.9 < value <= 1.0 + 1e-12

    def test_never_exceeds_solver(self):
        cfg = SolverConfig(algorithm="gauss_seidel", starts=10, seed=0)
        for state in (example_4_1(), example_4_2()):
            lam = multi_start(state.tensor, cfg).best.eigenvalue
            bound = sampling_oracle(state.tensor, samples=10_000, seed=2)
            assert bound <= lam + 1e-6

    def test_deterministic(self):
        T = example_4_2().tensor
        a = sampling_oracle(T, samples=5000, seed=3)
        b = sampling_oracle(T, samples=5000, seed=3)
        assert a == b

    def test_batching_invariant(self):
        T = example_4_2().tensor
        a = sampling_oracle(T, samples=3000, seed=4, batch=512)
        b = sampling_oracle(T, samples=3000, seed=4, batch=512)
        assert a == b

    def test_order_thirteen(self):
        # More modes than the twelve letters the subscript once had.
        state = catalog.random_state((2,) * 13, seed=0)
        bound = sampling_oracle(state.tensor, samples=8, seed=0)
        assert 0.0 < bound <= 1.0

    def test_order_beyond_labels_rejected(self):
        # Order 26 fits the contraction labels but leaves none for samples.
        A = ComplexTensor(np.ones((1,) * 26))
        with pytest.raises(ValueError, match="order < 26"):
            sampling_oracle(A, samples=1)

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            sampling_oracle(example_4_1().tensor, samples=0)


class TestOrthogonalSumOracle:
    def test_four_term_fixture_exact(self):
        T = example_4_7()
        value = orthogonal_sum_oracle(T)
        assert value == math.sqrt(1 / 3)
        assert value == float(np.max(np.abs(T.data)))

    def test_single_entry(self):
        T = from_sparse((3, 2, 2), {(2, 1, 2): 0.9j})
        assert orthogonal_sum_oracle(T) == pytest.approx(0.9, abs=1e-15)

    def test_zero_tensor(self):
        assert orthogonal_sum_oracle(from_sparse((2, 2), {})) == 0.0

    def test_two_amplitude_state_applicable(self):
        # entries share a mode-2 index but split cleanly over {1} x {2,3}
        value = orthogonal_sum_oracle(example_4_1().tensor)
        assert value == pytest.approx(math.sqrt(2 / 3), abs=1e-15)

    def test_w_state_not_applicable(self):
        # every bipartition has a pair of entries agreeing on one side
        c = 1 / math.sqrt(3)
        W = from_sparse((2, 2, 2), {(1, 2, 2): c, (2, 1, 2): c, (2, 2, 1): c})
        assert orthogonal_sum_oracle(W) is None

    def test_shared_row_not_applicable(self):
        T = from_sparse((2, 2), {(1, 1): 0.6, (1, 2): 0.8})
        assert orthogonal_sum_oracle(T) is None

    def test_diagonal_matrix_applicable(self):
        T = from_array(np.diag([0.6, 0.8]))
        assert orthogonal_sum_oracle(T) == pytest.approx(0.8)

    def test_dense_tensor_not_applicable(self):
        rng = np.random.default_rng(5)
        T = random_tensor(rng, (4, 4, 4))
        assert orthogonal_sum_oracle(T) is None

    def test_w_state_value_exceeds_max_entry(self):
        # soundness guard: the inapplicable case really is above max entry
        c = 1 / math.sqrt(3)
        W = from_sparse((2, 2, 2), {(1, 2, 2): c, (2, 1, 2): c, (2, 2, 1): c})
        cfg = SolverConfig(algorithm="gauss_seidel", starts=10, seed=0)
        lam = multi_start(W, cfg).best.eigenvalue
        assert lam > c + 1e-3


class TestOracleBounds:
    def test_lower_bounds_never_exceed_norm(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            T = random_tensor(rng, (3, 3, 2))
            assert sampling_oracle(T, 1000, seed=7) <= norm(T) + 1e-10
            value = orthogonal_sum_oracle(T)
            if value is not None:
                assert value <= norm(T) + 1e-10

    def test_evaluate_oracles_collects_applicable_methods(self):
        from ueigen import evaluate_oracles

        results = evaluate_oracles(example_4_7(), samples=2000, seed=0)
        methods = {r.method for r in results}
        assert methods == {"sampling", "analytic"}
        for r in results:
            assert r.lambda_lower_bound <= norm(example_4_7()) + 1e-10
        sampling = next(r for r in results if r.method == "sampling")
        assert sampling.samples == 2000

        rng = np.random.default_rng(8)
        matrix = random_tensor(rng, (3, 4))
        results = evaluate_oracles(matrix, samples=500, seed=1)
        svd = next(r for r in results if r.method == "svd")
        assert svd.iterations is not None and svd.iterations > 0
        expected = float(np.linalg.svd(matrix.data, compute_uv=False)[0])
        assert svd.lambda_lower_bound == pytest.approx(expected, abs=1e-9)
