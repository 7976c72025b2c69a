import math

import numpy as np
import pytest

from ueigen import (
    RankOneFactors,
    catalog,
    contract_excluding,
    from_array,
    from_sparse,
    norm,
    overlap,
    random_start,
    rank_one,
    tensor_from_json,
    tensor_to_json,
    zeros,
)
from conftest import random_dims, random_tensor

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def unit_factors(rng, dims):
    return [
        (lambda z: z / np.linalg.norm(z))(
            rng.standard_normal(d) + 1j * rng.standard_normal(d)
        )
        for d in dims
    ]


class TestFromSparse:
    def test_fixture_entries(self, ex41):
        data = ex41.tensor.data
        assert data[0, 0, 1] == pytest.approx(math.sqrt(1 / 3))
        assert data[1, 0, 0] == pytest.approx(math.sqrt(2 / 3))
        assert np.count_nonzero(data) == 2

    def test_empty_entries_give_zero_tensor(self):
        T = from_sparse((2, 2), {})
        assert T.dims == (2, 2)
        assert np.all(T.data == 0)

    def test_single_entry_vector(self):
        T = from_sparse((3,), {(2,): 1j})
        assert np.array_equal(T.data, np.array([0, 1j, 0]))

    def test_out_of_range_index(self):
        with pytest.raises(ValueError, match="out of range"):
            from_sparse((2, 2), {(1, 3): 1.0})
        with pytest.raises(ValueError, match="out of range"):
            from_sparse((2, 2), {(0, 1): 1.0})

    def test_duplicate_index(self):
        with pytest.raises(ValueError, match="duplicate"):
            from_sparse((2,), [((1,), 1.0), ((1,), 2.0)])

    def test_empty_dims(self):
        with pytest.raises(ValueError):
            from_sparse((), {})

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            from_sparse((2,), {(1,): float("nan")})

    @pytest.mark.parametrize("dims", [(2000,) * 3, (2**27 + 1,)])
    def test_size_budget_checked_before_allocating(self, dims):
        # 2000^3 entries take 119 GiB, and 2^27 + 1 are one entry over
        # 2 GiB: only the dims are read, so neither is allocated.
        with pytest.raises(ValueError, match="over the 2 GiB limit"):
            from_sparse(dims, {})


class TestNorm:
    def test_fixture_unit_norm(self, ex41):
        # 1/3 + 2/3 = 1 by direct summation
        assert norm(ex41.tensor) == pytest.approx(1.0, abs=1e-12)

    def test_zero_tensor(self):
        assert norm(zeros((3, 2))) == 0.0

    def test_single_entry_modulus(self):
        T = from_sparse((2, 2), {(1, 2): 3 + 4j})
        assert norm(T) == pytest.approx(5.0, abs=1e-12)


class TestInner:
    # overlap(T, f) is the inner product <T, x1 x ... x xm>, conjugate-linear in T

    def test_self_inner_is_squared_norm(self):
        rng = np.random.default_rng(0)
        f = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (3, 4)]
        val = overlap(rank_one(f), f)
        assert val.imag == pytest.approx(0.0, abs=1e-12)
        assert val.real == pytest.approx(norm(rank_one(f)) ** 2, rel=1e-12)

    def test_orthogonal_basis_tensors(self):
        assert overlap(rank_one((E1, E1)), (E1, E2)) == 0

    def test_conjugation_on_first_argument(self):
        assert overlap(from_array(1j * E1), (E1,)) == pytest.approx(-1j)


class TestRankOne:
    def test_basis_product(self):
        T = rank_one((E1, E2))
        expected = np.zeros((2, 2), dtype=complex)
        expected[0, 1] = 1.0
        assert np.array_equal(T.data, expected)

    def test_direct_product_evaluation(self):
        x = np.array([1.0, 1j]) / math.sqrt(2)
        y = np.array([1.0, 0.0], dtype=complex)
        T = rank_one((x, y))
        expected = np.array([[1 / math.sqrt(2), 0], [1j / math.sqrt(2), 0]])
        np.testing.assert_allclose(T.data, expected, atol=1e-15)

    def test_unit_factors_give_unit_norm(self):
        rng = np.random.default_rng(2)
        T = rank_one(unit_factors(rng, (3, 2, 4)))
        assert norm(T) == pytest.approx(1.0, abs=1e-12)

    def test_norm_multiplicativity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            dims = random_dims(rng)
            vecs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
            expected = math.prod(float(np.linalg.norm(v)) for v in vecs)
            assert norm(rank_one(vecs)) == pytest.approx(expected, rel=1e-12)


class TestOverlap:
    def test_fixture_value(self, ex41):
        # only the (2,1,1) entry survives against e2 x e1 x e1
        val = overlap(ex41.tensor, (E2, E1, E1))
        assert val == pytest.approx(math.sqrt(2 / 3), abs=1e-12)

    def test_zero_factor(self, ex41):
        val = overlap(ex41.tensor, (np.zeros(2, dtype=complex), E1, E1))
        assert val == 0

    def test_self_overlap_of_unit_rank_one(self):
        rng = np.random.default_rng(4)
        f = unit_factors(rng, (2, 3, 2))
        assert overlap(rank_one(f), f) == pytest.approx(1.0, abs=1e-12)

    def test_cauchy_schwarz_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dims = random_dims(rng)
            T = random_tensor(rng, dims)
            f = unit_factors(rng, dims)
            assert abs(overlap(T, f)) <= norm(T) + 1e-12

    def test_dimension_mismatch(self, ex41):
        with pytest.raises(ValueError):
            overlap(ex41.tensor, (E1, E1, np.zeros(3, dtype=complex)))


class TestContractExcluding:
    def test_fixture_value(self, ex41):
        vec = contract_excluding(ex41.tensor, (None, E1, E2), 1)
        np.testing.assert_allclose(
            vec, np.array([math.sqrt(1 / 3), 0.0]), atol=1e-12
        )

    def test_rank_one_fixed_point(self):
        f = (E1, E1, E1)
        T = rank_one(f)
        for k in (1, 2, 3):
            np.testing.assert_allclose(contract_excluding(T, f, k), E1, atol=1e-15)

    def test_zero_tensor(self):
        vec = contract_excluding(zeros((2, 3)), (None, np.ones(3, dtype=complex)), 1)
        assert np.all(vec == 0)

    def test_contraction_consistency(self):
        # dotting the k-th vector back in reproduces the full overlap
        rng = np.random.default_rng(6)
        for _ in range(20):
            dims = random_dims(rng)
            T = random_tensor(rng, dims)
            f = unit_factors(rng, dims)
            ov = overlap(T, f)
            for k in range(1, len(dims) + 1):
                back = np.sum(f[k - 1] * contract_excluding(T, f, k))
                assert back == pytest.approx(ov, abs=1e-10)

    def test_strided_factors_read_as_contiguous(self):
        # The kernels' sums depend on the strides of the vectors they read,
        # so a factor given as every other entry of a wider array gives the
        # bytes of its contiguous copy.
        T = catalog.build("example_4_6").tensor
        for seed in range(20):
            f = random_start(np.random.default_rng(seed), T.dims, "gauss_seidel").vectors
            strided = []
            for v in f:
                wide = np.zeros(2 * len(v), dtype=complex)
                wide[::2] = v
                strided.append(wide[::2])
            for k in range(1, T.order + 1):
                got = contract_excluding(T, strided, k)
                assert got.tobytes() == contract_excluding(T, f, k).tobytes()

    def test_mode_out_of_range(self, ex41):
        with pytest.raises(ValueError, match="out of range"):
            contract_excluding(ex41.tensor, (E1, E1, E1), 4)

    def test_hand_evaluated_entry(self):
        # single entry i at (1,1); the contraction conjugates T: (-i, 0)
        T = from_sparse((2, 2), {(1, 1): 1j})
        np.testing.assert_allclose(
            contract_excluding(T, (None, E1), 1), np.array([-1j, 0]), atol=1e-15
        )


class TestHighOrder:
    """Order 27: one more mode than einsum subscript strings have lowercase
    letters."""

    def setup_method(self):
        rng = np.random.default_rng(27)
        self.small = random_tensor(rng, (2, 3, 2))
        self.dims = (2,) + (1,) * 12 + (3,) + (1,) * 12 + (2,)
        self.T = from_array(self.small.data.reshape(self.dims))
        self.f = unit_factors(rng, self.dims)
        self.f_small = [self.f[0], self.f[13], self.f[26]]
        self.phase = np.prod([v[0] for i, v in enumerate(self.f) if i not in (0, 13, 26)])

    def test_overlap(self):
        assert overlap(self.T, self.f) == pytest.approx(
            self.phase * overlap(self.small, self.f_small), abs=1e-12
        )

    def test_contract_excluding(self):
        for k, k_small in ((1, 1), (14, 2), (27, 3)):
            np.testing.assert_allclose(
                contract_excluding(self.T, self.f, k),
                self.phase * contract_excluding(self.small, self.f_small, k_small),
                atol=1e-12,
            )


class TestJsonRoundTrip:
    def test_round_trip(self, ex41):
        obj = tensor_to_json(ex41.tensor)
        assert tensor_from_json(obj) == ex41.tensor

    def test_zeros_omitted(self, ex41):
        obj = tensor_to_json(ex41.tensor)
        assert len(obj["entries"]) == 2
        assert all(e["re"] != 0 or e["im"] != 0 for e in obj["entries"])

    def test_indices_one_based(self):
        T = from_sparse((2, 2), {(1, 2): 1.0})
        obj = tensor_to_json(T)
        assert obj["entries"][0]["idx"] == [1, 2]

    def test_string_input(self, ex41):
        import json

        assert tensor_from_json(json.dumps(tensor_to_json(ex41.tensor))) == ex41.tensor

    def test_random_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            T = random_tensor(rng, random_dims(rng))
            assert tensor_from_json(tensor_to_json(T)) == T

    def test_bad_json_rejected(self):
        with pytest.raises(ValueError):
            tensor_from_json({"entries": []})

    @pytest.mark.parametrize(
        "entries, where",
        [
            ([0.6, 0.8], "entries[0]"),
            ([{"idx": [1], "re": 0.6}, {"re": 0.8}], "entries[1]"),
            ({"idx": [1], "re": 1.0}, "'entries' must be a list"),
        ],
        ids=["bare_numbers", "missing_idx", "entries_object"],
    )
    def test_malformed_entries_named(self, entries, where):
        with pytest.raises(ValueError) as info:
            tensor_from_json({"dims": [2], "entries": entries})
        assert where in str(info.value)
        assert '{"idx": [...], "re": x, "im": y}' in str(info.value)


class TestRankOneFactors:
    def test_per_vector_normalization(self):
        rng = np.random.default_rng(12)
        raw = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2)]
        f = RankOneFactors.per_vector(raw)
        assert all(abs(n - 1) < 1e-12 for n in f.norms())

    def test_joint_normalization(self):
        rng = np.random.default_rng(13)
        raw = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (2, 3, 4)]
        f = RankOneFactors.joint(raw)
        assert sum(n * n for n in f.norms()) == pytest.approx(1.0, abs=1e-12)

    def test_vectors_are_copies(self):
        # The factors own their vectors: writing to the caller's array
        # later does not reach them.
        v = np.array([0.6, 0.8j])
        f = RankOneFactors((v,))
        v[0] = 5
        assert f.vectors[0][0] == 0.6

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            RankOneFactors.per_vector([np.zeros(2, dtype=complex)])

    @pytest.mark.parametrize("dims", [(1,), (2, 3, 4), (7, 1, 5), (33, 2)])
    def test_norms_are_bitwise_the_inline_formulas(self, dims):
        # The row kernels stand in for np.linalg.norm and a sum of vdots.
        rng = np.random.default_rng(15)
        raw = [10.0 ** rng.integers(-5, 5) * rng.standard_normal(d)
               + 1j * rng.standard_normal(d) for d in dims]
        per_vector = RankOneFactors.per_vector(raw)
        assert [v.tobytes() for v in per_vector.vectors] == [
            (x / np.linalg.norm(x)).tobytes() for x in raw
        ]
        total = np.sqrt(sum(float(np.real(np.vdot(x, x))) for x in raw))
        joint = RankOneFactors.joint(raw)
        assert [v.tobytes() for v in joint.vectors] == [(x / total).tobytes() for x in raw]
        for f in (per_vector, joint, RankOneFactors(tuple(raw))):
            assert f.norms() == tuple(float(np.linalg.norm(v)) for v in f.vectors)
