import math
import tracemalloc

import numpy as np
import pytest

from ueigen import (
    ComplexTensor,
    SolverConfig,
    evaluate_oracles,
    from_array,
    from_sparse,
    multi_start,
    norm,
    sampling_oracle,
    svd_oracle,
)
from ueigen import catalog
from ueigen.catalog import example_4_1, example_4_2, example_4_7
from conftest import random_tensor, reference_sampling_bound


def interval(T):
    """(lower, upper) of the flattening row of ``evaluate_oracles``."""
    row = evaluate_oracles(T, samples=1)[1]
    assert row.method == "flattening"
    return row.lambda_lower_bound, row.lambda_upper_bound


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
            assert svd_oracle(A) == expected

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
        # 40 * 40 = 1600 leading entries make chunks of 81 samples, so each
        # batch of 512 (and the last one, of 440) spans several chunks.
        T = catalog.random_state((40, 40, 3), seed=0).tensor
        value = sampling_oracle(T, samples=3000, seed=4, batch=512)
        reference = reference_sampling_bound(T, 3000, seed=4, batch=512)
        assert abs(value - reference) <= 1e-12

    def test_order_thirteen(self):
        # More modes than the twelve letters the subscript once had.
        state = catalog.random_state((2,) * 13, seed=0)
        bound = sampling_oracle(state.tensor, samples=8, seed=0)
        assert 0.0 < bound <= 1.0

    def test_order_beyond_labels_rejected(self):
        # Order 52 once exceeded einsum's 52 labels; the kernel has no limit.
        bound = sampling_oracle(ComplexTensor(np.ones((1,) * 52)), samples=2)
        assert bound == pytest.approx(1.0, abs=1e-12)

    def test_order_one_is_the_norm(self):
        # The one factor is solved, so the bound is exact and nothing is drawn.
        T = from_array(np.array([0.6, 0.0, 0.8j]))
        assert sampling_oracle(T, samples=3, seed=5) == norm(T)

    def test_matrix_bound_approaches_sigma_1(self):
        # One drawn factor per sample; the solved one makes each sample the
        # best overlap over its mode-1 unit sphere.
        rng = np.random.default_rng(8)
        A = random_tensor(rng, (3, 4))
        sigma_1 = svd_oracle(A)
        bound = sampling_oracle(A, samples=10_000, seed=0)
        assert 0.95 * sigma_1 <= bound <= sigma_1 + 1e-12

    @pytest.mark.parametrize("dims", [(2, 5), (4, 2), (2, 2)])
    def test_matrix_with_a_qubit_mode_is_sigma_1(self, dims):
        # Both modes are solved, so nothing is drawn and the bound is exact.
        A = random_tensor(np.random.default_rng(9), dims)
        assert abs(sampling_oracle(A, samples=3, seed=0) - svd_oracle(A)) <= 1e-12

    @pytest.mark.parametrize("catalog_id", ["example_4_1", "example_4_2", "trig_2"])
    def test_bound_ratio_with_a_qubit_mode(self, catalog_id):
        # Solving a qubit mode beside mode 1 reaches 1.0000, 0.9975 and
        # 1.0000 here; solving mode 1 alone reached 0.9955, 0.954 and 0.9927.
        T = catalog.build(catalog_id).tensor
        cfg = SolverConfig(algorithm="gauss_seidel", starts=10, seed=0)
        lam = multi_start(T, cfg).best.eigenvalue
        bound = sampling_oracle(T, samples=10_000, seed=0)
        assert 0.99 * lam <= bound <= lam + 1e-9

    @pytest.mark.parametrize(
        "build, ratio",
        [
            (lambda: catalog.build("trig_20").tensor, 0.2),
            (lambda: catalog.random_state((24,) * 3, seed=0).tensor, 0.4),
        ],
        ids=["trig_20", "random_24^3"],
    )
    def test_bound_ratio_on_cubes(self, build, ratio):
        # Solving mode 1 reaches 0.244 and 0.505 here; drawing every factor
        # reached 0.103 and 0.220, below both thresholds.
        T = build()
        cfg = SolverConfig(algorithm="gauss_seidel", starts=10, seed=0)
        lam = multi_start(T, cfg).best.eigenvalue
        bound = sampling_oracle(T, samples=10_000, seed=0)
        assert ratio * lam <= bound <= lam + 1e-9

    def test_peak_memory_is_chunked(self):
        # Unchunked, the first product of a batch of 2048 peaks at 22 MB here.
        T = catalog.random_state((24, 24, 24), seed=0).tensor
        tracemalloc.start()
        try:
            sampling_oracle(T, samples=10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8_000_000

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            sampling_oracle(example_4_1().tensor, samples=0)

    @pytest.mark.parametrize("batch", [0, -1])
    def test_invalid_batch(self, batch):
        with pytest.raises(ValueError, match="batch must be >= 1"):
            sampling_oracle(example_4_1().tensor, samples=10, batch=batch)


class TestOrthogonalSumOracle:
    """The inputs the orthogonal-sum search was tested on, now checked
    against the flattening interval: "applicable" means the interval
    closes on max|entry|."""

    def test_four_term_fixture_exact(self):
        T = example_4_7()
        lower, upper = interval(T)
        assert lower == math.sqrt(1 / 3)
        assert lower == float(np.max(np.abs(T.data)))
        assert upper - lower <= 1e-12

    def test_single_entry(self):
        T = from_sparse((3, 2, 2), {(2, 1, 2): 0.9j})
        lower, upper = interval(T)
        assert lower == pytest.approx(0.9, abs=1e-15)
        assert upper - lower <= 1e-12

    def test_zero_tensor(self):
        assert interval(from_sparse((2, 2), {})) == (0.0, 0.0)

    def test_two_amplitude_state_applicable(self):
        # entries share a mode-2 index but split cleanly over {1} x {2,3}
        lower, upper = interval(example_4_1().tensor)
        assert lower == pytest.approx(math.sqrt(2 / 3), abs=1e-15)
        assert upper - lower <= 1e-12

    def test_w_state_not_applicable(self):
        # every flattening of W has sigma_1 = sqrt(2/3) > max entry sqrt(1/3)
        c = 1 / math.sqrt(3)
        W = from_sparse((2, 2, 2), {(1, 2, 2): c, (2, 1, 2): c, (2, 2, 1): c})
        lower, upper = interval(W)
        assert lower == pytest.approx(c, abs=1e-15)
        assert upper - lower > 1e-3

    def test_shared_row_certified(self):
        # a rank-one matrix: sigma_1 is the row norm, not the larger entry
        T = from_sparse((2, 2), {(1, 1): 0.6, (1, 2): 0.8})
        lower, upper = interval(T)
        assert lower == upper == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_matrix_applicable(self):
        T = from_array(np.diag([0.6, 0.8]))
        lower, upper = interval(T)
        assert lower == upper == pytest.approx(0.8, abs=1e-12)

    def test_dense_tensor_not_applicable(self):
        rng = np.random.default_rng(5)
        T = random_tensor(rng, (4, 4, 4))
        lower, upper = interval(T)
        assert upper - lower > 1e-3

    def test_w_state_value_exceeds_max_entry(self):
        # soundness guard: the inapplicable case really is above max entry
        c = 1 / math.sqrt(3)
        W = from_sparse((2, 2, 2), {(1, 2, 2): c, (2, 1, 2): c, (2, 2, 1): c})
        cfg = SolverConfig(algorithm="gauss_seidel", starts=10, seed=0)
        lam = multi_start(W, cfg).best.eigenvalue
        assert lam > c + 1e-3
        lower, upper = interval(W)
        assert lower <= lam <= upper + 1e-9


class TestOracleBounds:
    def test_lower_bounds_never_exceed_norm(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            T = random_tensor(rng, (3, 3, 2))
            assert sampling_oracle(T, 1000, seed=7) <= norm(T) + 1e-10
            lower, upper = interval(T)
            assert lower <= upper <= norm(T) + 1e-10

    def test_evaluate_oracles_collects_applicable_methods(self):
        results = evaluate_oracles(example_4_7(), samples=2000, seed=0)
        assert [r.method for r in results] == ["sampling", "flattening"]
        for r in results:
            assert r.lambda_lower_bound <= norm(example_4_7()) + 1e-10
        sampling, flattening = results
        assert sampling.samples == 2000
        assert sampling.lambda_upper_bound == math.inf
        assert flattening.lambda_lower_bound == flattening.lambda_upper_bound

        rng = np.random.default_rng(8)
        matrix = random_tensor(rng, (3, 4))
        flattening = evaluate_oracles(matrix, samples=500, seed=1)[1]
        expected = float(np.linalg.svd(matrix.data, compute_uv=False)[0])
        assert flattening.lambda_lower_bound == expected
        assert flattening.lambda_upper_bound == expected

    def test_order_one_interval_is_the_norm(self):
        T = from_array(np.array([0.6, 0.8j]))
        lower, upper = interval(T)
        assert lower == upper == pytest.approx(1.0, abs=1e-15)

    def test_example_4_2_upper_bound_is_exact(self):
        # max|entry| is below lambda here; the flattening bound is tight
        lower, upper = interval(example_4_2().tensor)
        assert lower < upper
        assert abs(upper - math.sqrt(1 / 3)) <= 1e-12

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_interval_brackets_solver(self, order):
        rng = np.random.default_rng(20 + order)
        cfg = SolverConfig(algorithm="gauss_seidel", tol=1e-10, starts=5, seed=0)
        for _ in range(3):
            dims = tuple(int(d) for d in rng.integers(2, 5, size=order))
            T = random_tensor(rng, dims)
            lam = multi_start(T, cfg).best.eigenvalue
            lower, upper = interval(T)
            assert lower - 1e-9 <= lam <= upper + 1e-9
