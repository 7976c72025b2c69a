import math
import tracemalloc
from unittest import mock

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
from ueigen import catalog, oracle
from ueigen.catalog import example_4_1, example_4_2, example_4_7, trig_tensor
from conftest import random_tensor, reference_flattening_interval, reference_sampling_bound


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
        # 300 samples are a 17 x 18 grid; 17 x 2000 entries per draw make
        # chunks of 3 draws (below the cap of 8), so the last mode's 18
        # draws come from six calls to the generator, the reference's from one.
        T = catalog.random_state((2000, 3, 3), seed=0).tensor
        with mock.patch.object(oracle, "_BATCH", 8):
            value = sampling_oracle(T, samples=300, seed=4)
        reference = reference_sampling_bound(T, 300, seed=4)
        assert abs(value - reference) <= 1e-12

    def test_capped_inner_grid(self):
        # 16 x 8000 entries fill a chunk, so the inner grid is capped at 16
        # points and the last mode takes the rest of the count: 300 samples
        # are a 16 x 19 grid, in 19 chunks of one draw. The drawn modes
        # differ in dim, so an uncapped 17 x 18 grid cannot reuse the
        # reference's draws and match it.
        T = catalog.random_state((8000, 3, 4), seed=0).tensor
        with mock.patch.object(oracle, "_BATCH", 8):
            value = sampling_oracle(T, samples=300, seed=4)
        reference = reference_sampling_bound(T, 300, seed=4)
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
        # A 100 x 100 grid with mode 1 solved reaches 0.257 and 0.525 here;
        # as many independent samples reached 0.244 and 0.505, and drawing
        # every factor 0.103 and 0.220, below both thresholds.
        T = build()
        cfg = SolverConfig(algorithm="gauss_seidel", starts=10, seed=0)
        lam = multi_start(T, cfg).best.eigenvalue
        bound = sampling_oracle(T, samples=10_000, seed=0)
        assert ratio * lam <= bound <= lam + 1e-9

    def test_peak_memory_is_chunked(self):
        # Unchunked, the first product of 2048 draws peaks at 22 MB here.
        T = catalog.random_state((24, 24, 24), seed=0).tensor
        tracemalloc.start()
        try:
            sampling_oracle(T, samples=10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8_000_000

    def test_peak_memory_does_not_grow_with_samples(self):
        # A 1000 x 1000 grid: a chunk is sized by the grid's 24,000 entries
        # per draw, not by the first product's 576, and the inner draws
        # hold 0.4 MB. The peak is near 2.9 MB here.
        T = catalog.random_state((24, 24, 24), seed=0).tensor
        tracemalloc.start()
        try:
            sampling_oracle(T, samples=1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8_000_000

    def test_peak_memory_does_not_grow_with_batches(self):
        # 3,000 chunks of one sample: each chunk's draws are made as it is
        # contracted, from the one generator, so the peak stays near 6 kB.
        # The warm-up keeps numpy's first-call allocations out of the trace.
        T = example_4_1().tensor
        sampling_oracle(T, samples=1)
        with mock.patch.object(oracle, "_BATCH", 1):
            tracemalloc.start()
            try:
                sampling_oracle(T, samples=3000)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 400_000

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            sampling_oracle(example_4_1().tensor, samples=0)

    @pytest.mark.parametrize("oracle_fn", [sampling_oracle, evaluate_oracles])
    @pytest.mark.parametrize("name, value", [
        ("samples", 2.5), ("samples", True), ("seed", 1.5), ("seed", True),
    ])
    def test_rejects_non_integer_arguments(self, oracle_fn, name, value):
        # These raised TypeError from range or SeedSequence, or ran one
        # sample (samples=True) or seed 1 (seed=True) as if they were ints.
        kwargs = {"samples": 10, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            oracle_fn(example_4_1().tensor, **kwargs)

    def test_takes_numpy_integers(self):
        T = example_4_2().tensor
        bound = sampling_oracle(T, samples=np.int64(500), seed=np.uint8(3))
        assert bound == sampling_oracle(T, samples=500, seed=3)
        rows = evaluate_oracles(T, samples=np.int32(500), seed=np.int64(3))
        assert rows[0].lambda_lower_bound == bound and rows[0].samples == 500


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

    def test_dim_one_modes_are_not_split(self):
        # Splitting 52 dim-1 modes would take 2^51 - 1 SVDs of 1 x 1
        # matrices; a tensor with at most two modes of dim > 1 is a matrix,
        # and its interval is the point sigma_1.
        assert interval(ComplexTensor(np.ones((1,) * 52))) == (1.0, 1.0)
        T = random_tensor(np.random.default_rng(10), (3, 1, 4))
        sigma_1 = float(np.linalg.svd(T.data.reshape(3, 4), compute_uv=False)[0])
        assert interval(T) == (sigma_1, sigma_1)

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


def _ghz(n):
    data = np.zeros((2,) * n, dtype=complex)
    data[(0,) * n] = data[(1,) * n] = 1 / math.sqrt(2)
    return ComplexTensor(data)


class TestFlatteningInterval:
    """The interval from Gram matrices of the scaled tensor, against the
    every-split LAPACK loop of ``reference_flattening_interval``."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1.0, 2.0**600, 2.0**-600, 1e200, 1e-300])
    def test_matches_every_split_reference(self, scale):
        # Random dims of 1 to 4, so dim-1 modes anywhere, and three inputs
        # whose splits tie: every flattening of GHZ has sigma_1 = 1/sqrt(2),
        # and example_4_7's interval is the point max|entry|. On the tensor
        # itself the Gram matrix would overflow at 1e200 and underflow at
        # 1e-300.
        rng = np.random.default_rng(31)
        tensors = [
            random_tensor(rng, tuple(int(d) for d in rng.integers(1, 5, size=order)))
            for order in (1, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5) * 4
        ]
        tensors += [trig_tensor(5).tensor, example_4_7(), _ghz(5)]
        for T in tensors:
            T = ComplexTensor(T.data * scale)
            lower, upper = interval(T)
            ref_lower, ref_upper = reference_flattening_interval(T)
            assert lower <= upper
            if sum(d > 1 for d in T.dims[1:]) <= 1:
                # one flattening in both: the same LAPACK SVD
                assert (lower, upper) == (ref_lower, ref_upper)
                continue
            assert abs(upper - ref_upper) <= 1e-14 * ref_upper
            if sum(d > 1 for d in T.dims) <= 2:
                # A matrix behind a leading dim-1 mode: one SVD here, the
                # least of three (both orientations and the 1 x n row) there.
                assert lower == upper
            else:
                assert lower == ref_lower

    def test_windows_above_the_budget(self):
        # Haar 2^8 has 127 splits. Below that budget the interval takes
        # the 28 contiguous cyclic windows: a subfamily, so the same lower
        # end and an upper end no lower than the least over every split.
        # Here it is wider, so the windows miss the least split.
        T = catalog.random_state((2,) * 8, seed=0).tensor
        ref_lower, ref_upper = reference_flattening_interval(T)
        assert abs(interval(T)[1] - ref_upper) <= 1e-14 * ref_upper
        with mock.patch.object(oracle, "_SPLIT_BUDGET", 126):
            assert len(list(oracle._splits(8))) == 28
            lower, upper = interval(T)
        assert lower == ref_lower
        assert upper > ref_upper * (1 + 1e-3)
