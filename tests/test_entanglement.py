import dataclasses
import json
import math

import numpy as np
import pytest

from ueigen import (
    ComplexTensor,
    PureState,
    RankOneFactors,
    SolverConfig,
    analyze,
    from_sparse,
    gme_from_lambda,
    norm,
    overlap,
    rank_one,
    verify_closest,
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
        report = analyze(ex41, cfg)
        assert report.entanglement_eigenvalue == pytest.approx(0.8165, abs=5e-4)
        assert report.gme == pytest.approx(0.6058, abs=5e-4)
        ov = overlap(ex41.tensor, report.closest_product_state)
        assert abs(ov) == pytest.approx(0.8165, abs=5e-4)
        assert report.gme == pytest.approx(
            math.sqrt(2 - 2 * report.entanglement_eigenvalue), abs=1e-12
        )
        stats = report.stats["gauss_seidel"]
        assert stats.converged and stats.iterations > 0 and stats.seconds >= 0

    def test_product_state_has_zero_gme(self):
        state = PureState(from_sparse((2, 2, 2), {(1, 1, 1): 1.0}))
        cfg = SolverConfig(algorithm="gauss_seidel", starts=5, seed=0)
        report = analyze(state, cfg)
        assert report.entanglement_eigenvalue == pytest.approx(1.0, abs=1e-9)
        assert report.gme == pytest.approx(0.0, abs=1e-4)

    def test_consistency_with_verify_closest(self, ex41):
        cfg = SolverConfig(algorithm="gauss_seidel", starts=10, seed=0)
        report = analyze(ex41, cfg)
        distance = verify_closest(ex41, report.closest_product_state)
        assert distance == pytest.approx(report.gme, abs=1e-6)

    def test_report_json_shape(self, ex41):
        cfg = SolverConfig(algorithm="gauss_seidel", starts=3, seed=0)
        report = analyze(ex41, cfg)
        payload = report.to_json()
        text = json.dumps(payload)
        assert "entanglement_eigenvalue" in payload
        assert payload["stats"]["gauss_seidel"]["iterations"] > 0
        assert len(payload["closest_product_state"]) == 3
        assert json.loads(text) == payload

    def test_report_table_lines(self, ex41):
        cfg = SolverConfig(algorithm="gauss_seidel", starts=3, seed=0)
        report = analyze(ex41, cfg)
        table = report.format_table()
        assert "gauss_seidel" in table
        assert "0.8165" in table

    def test_report_table_rejects_lambda_above_one(self, ex41):
        cfg = SolverConfig(algorithm="gauss_seidel", starts=1, seed=0)
        report = analyze(ex41, cfg)
        stats = report.stats["gauss_seidel"]
        report.stats["gauss_seidel"] = dataclasses.replace(stats, eigenvalue=1.5)
        with pytest.raises(ValueError, match="exceeds 1"):
            report.format_table()


class TestVerifyClosest:
    def test_best_factors_distance_is_gme(self, ex41, ex41_solved):
        distance = verify_closest(ex41, ex41_solved.best.factors)
        assert distance == pytest.approx(0.6058, abs=5e-4)

    def test_rank_one_state_zero_distance(self):
        rng = np.random.default_rng(0)
        vecs = []
        for d in (2, 3):
            z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            vecs.append(z / np.linalg.norm(z))
        factors = RankOneFactors.per_vector(vecs)
        state = PureState(rank_one(factors))
        assert verify_closest(state, factors) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_product_state(self):
        state = PureState(from_sparse((2, 2), {(1, 1): 1.0}))
        factors = RankOneFactors.per_vector(
            [np.array([0, 1], dtype=complex), np.array([0, 1], dtype=complex)]
        )
        assert verify_closest(state, factors) == pytest.approx(math.sqrt(2), abs=1e-12)


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
