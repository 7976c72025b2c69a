import math

import numpy as np
import pytest

from ueigen import (
    ComplexTensor,
    PureState,
    RankOneFactors,
    SolverConfig,
    from_sparse,
    gme_from_lambda,
    multi_start,
    norm,
    overlap,
    rank_one,
)


class TestGmeFromLambda:
    def test_fixture_values(self):
        assert gme_from_lambda(0.8165) == pytest.approx(0.6058, abs=1e-4)
        assert gme_from_lambda(0.3626) == pytest.approx(1.1291, abs=1e-4)

    def test_separable_state(self):
        assert gme_from_lambda(1.0) == 0.0

    def test_clamps_tiny_overshoot(self):
        assert gme_from_lambda(1.0 + 5e-11) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gme_from_lambda(0.0)
        with pytest.raises(ValueError):
            gme_from_lambda(-0.3)

    def test_rejects_above_one(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            gme_from_lambda(1.001)

    def test_strictly_decreasing(self):
        xs = np.linspace(1e-6, 1.0, 200)
        ys = [gme_from_lambda(float(x)) for x in xs]
        assert all(a > b for a, b in zip(ys, ys[1:]))


class TestPureState:
    def test_small_deviation_renormalized(self):
        data = np.zeros((2, 2), dtype=complex)
        data[0, 0] = 1.0 + 1e-7
        state = PureState(ComplexTensor(data))
        assert norm(state.tensor) == pytest.approx(1.0, abs=1e-12)

    def test_large_deviation_rejected(self):
        data = np.zeros((2, 2), dtype=complex)
        data[0, 0] = 1.001
        with pytest.raises(ValueError, match="deviates"):
            PureState(ComplexTensor(data))

    def test_label_kept(self, ex41):
        assert ex41.label == "example_4_1"


class TestAnalyze:
    def test_fixture_report(self, ex41):
        cfg = SolverConfig(algorithm="gauss_seidel", tol=1e-9, starts=10, seed=0)
        best = multi_start(ex41.tensor, cfg).best
        gme = gme_from_lambda(best.eigenvalue)
        assert best.eigenvalue == pytest.approx(0.8165, abs=5e-4)
        assert gme == pytest.approx(0.6058, abs=5e-4)
        assert abs(overlap(ex41.tensor, best.factors)) == pytest.approx(0.8165, abs=5e-4)
        assert gme == pytest.approx(math.sqrt(2 - 2 * best.eigenvalue), abs=1e-12)
        assert best.converged and best.iterations > 0

    def test_product_state_has_zero_gme(self):
        state = PureState(from_sparse((2, 2, 2), {(1, 1, 1): 1.0}))
        cfg = SolverConfig(algorithm="gauss_seidel", starts=5, seed=0)
        best = multi_start(state.tensor, cfg).best
        assert best.eigenvalue == pytest.approx(1.0, abs=1e-9)
        assert gme_from_lambda(best.eigenvalue) == pytest.approx(0.0, abs=1e-4)

    def test_consistency_with_verify_closest(self, ex41):
        # ||T - x1 x ... x xm|| = sqrt(2 - 2 lambda) at the best unit factors
        cfg = SolverConfig(algorithm="gauss_seidel", starts=10, seed=0)
        best = multi_start(ex41.tensor, cfg).best
        distance = norm(ComplexTensor(ex41.tensor.data - rank_one(best.factors).data))
        assert distance == pytest.approx(gme_from_lambda(best.eigenvalue), abs=1e-6)


class TestVerifyClosest:
    def test_best_factors_distance_is_gme(self, ex41, ex41_solved):
        factors = ex41_solved.best.factors
        distance = norm(ComplexTensor(ex41.tensor.data - rank_one(factors).data))
        assert distance == pytest.approx(0.6058, abs=5e-4)

    def test_rank_one_state_zero_distance(self):
        rng = np.random.default_rng(0)
        vecs = []
        for d in (2, 3):
            z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            vecs.append(z / np.linalg.norm(z))
        factors = RankOneFactors.per_vector(vecs)
        state = PureState(rank_one(factors))
        distance = norm(ComplexTensor(state.tensor.data - rank_one(factors).data))
        assert distance == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_product_state(self):
        state = PureState(from_sparse((2, 2), {(1, 1): 1.0}))
        factors = RankOneFactors.per_vector(
            [np.array([0, 1], dtype=complex), np.array([0, 1], dtype=complex)]
        )
        distance = norm(ComplexTensor(state.tensor.data - rank_one(factors).data))
        assert distance == pytest.approx(math.sqrt(2), abs=1e-12)


class TestPhaseGauge:
    def test_compensating_phases_leave_overlap_invariant(self, ex41, ex41_solved):
        factors = ex41_solved.best.factors
        theta = 1.234
        twisted = list(factors.vectors)
        twisted[0] = np.exp(1j * theta) * twisted[0]
        twisted[1] = np.exp(-1j * theta) * twisted[1]
        before = abs(overlap(ex41.tensor, factors))
        after = abs(overlap(ex41.tensor, twisted))
        assert after == pytest.approx(before, abs=1e-12)
