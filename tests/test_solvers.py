import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from ueigen import (
    ALGORITHMS,
    BreakdownError,
    ComplexTensor,
    IterationTrace,
    RankOneFactors,
    SolverConfig,
    SolverError,
    UEigenpair,
    ZeroEigenvalueError,
    catalog,
    multi_start,
    overlap,
    norm,
    random_start,
    rank_one,
    residual,
    sampling_oracle,
    shift_to_embedded,
    solve,
    solve_embed,
    solve_gauss_seidel,
    solve_joint,
    zeros,
)
from ueigen.solvers import _finish, _iterate
from conftest import random_dims, random_tensor, reference_eigenpair


def bits(pair):
    """Everything a run reports, as exact bytes and reprs."""
    return (
        repr(pair.eigenvalue),
        repr(pair.residual),
        [v.tobytes() for v in pair.factors.vectors],
        pair.trace.status,
        [(s.k, repr(s.lam), repr(s.abs_lam), repr(s.step_error)) for s in pair.trace.steps],
    )


def solo_runs(A, cfg):
    """Each start of ``multi_start(A, cfg)`` solved on its own."""
    out = []
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.starts):
        start = random_start(np.random.default_rng(child), A.dims, cfg.algorithm)
        try:
            out.append(solve(A, cfg, start))
        except SolverError as exc:
            out.append(str(exc))
    return out


def residual_at(A, lam, vecs):
    """``residual`` of the pair (lam, vecs), whatever solved it."""
    return residual(A, UEigenpair(lam, RankOneFactors(tuple(vecs)), 0.0, IterationTrace()))


def unit_vectors(rng, dims):
    out = []
    for d in dims:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        out.append(z / np.linalg.norm(z))
    return out


def scale_case(name):
    """A tensor, and a pair off its eigenpairs (so that its residual is
    of order one) for the scale tests."""
    if name == "order_1":
        A = ComplexTensor(np.array([0.6, 0, 0.8j]))
    else:
        built = catalog.build(name)
        A = getattr(built, "tensor", built)
    return A, 0.3, unit_vectors(np.random.default_rng(5), A.dims)


class TestFixedPoints:
    def test_gauss_seidel_stationary_on_rank_one(self):
        rng = np.random.default_rng(0)
        f = unit_vectors(rng, (2, 3, 2))
        A = rank_one(f)
        cfg = SolverConfig(algorithm="gauss_seidel", tol=1e-9, max_iter=50)
        pair = solve_gauss_seidel(A, cfg, f)
        assert pair.eigenvalue == pytest.approx(1.0, abs=1e-12)
        assert pair.iterations <= 2
        assert pair.residual <= 1e-12

    def test_embed_stationary_from_lifted_eigenvector(self):
        # basis-vector rank-one tensor: the eigenvector blocks are e_i/sqrt(m)
        dims = (2, 3, 2)
        m = len(dims)
        basis = [np.eye(d, dtype=complex)[0] for d in dims]
        A = rank_one(basis)
        x0 = np.concatenate([b / math.sqrt(m) for b in basis])
        cfg = SolverConfig(algorithm="embed", tol=1e-9, max_iter=100)
        pair = solve_embed(A, cfg, x0, record_iterates=True)
        assert pair.eigenvalue == pytest.approx(1.0, abs=1e-10)
        first, second = pair.trace.iterates[0], pair.trace.iterates[1]
        # stationary up to a scalar: x1 proportional to x0
        ratio = second[np.abs(first) > 1e-12] / first[np.abs(first) > 1e-12]
        np.testing.assert_allclose(ratio, ratio[0], atol=1e-12)
        lams = [s.lam for s in pair.trace.steps]
        assert abs(lams[1] - lams[0]) <= 1e-12

    def test_joint_zero_tensor_errors(self):
        A = zeros((2, 2, 2))
        rng = np.random.default_rng(1)
        start = RankOneFactors.joint(unit_vectors(rng, (2, 2, 2)))
        cfg = SolverConfig(algorithm="joint", max_iter=50)
        with pytest.raises(ZeroEigenvalueError):
            solve_joint(A, cfg, start)


class TestStartValidation:
    def test_embed_requires_unit_start(self, ex41):
        cfg = SolverConfig(algorithm="embed")
        with pytest.raises(ValueError, match="unit norm"):
            solve_embed(ex41.tensor, cfg, np.ones(6, dtype=complex))

    def test_embed_rejects_order_one(self):
        A = ComplexTensor(np.array([0.6, 0.8j]))
        cfg = SolverConfig(algorithm="embed", starts=2)
        with pytest.raises(ValueError, match="order >= 2"):
            solve_embed(A, cfg, np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(ValueError, match="order >= 2"):
            multi_start(A, cfg)

    def test_joint_requires_joint_normalization(self, ex41):
        rng = np.random.default_rng(2)
        cfg = SolverConfig(algorithm="joint")
        with pytest.raises(ValueError, match="jointly"):
            solve_joint(ex41.tensor, cfg, unit_vectors(rng, (2, 2, 2)))

    def test_gauss_seidel_requires_unit_vectors(self, ex41):
        rng = np.random.default_rng(3)
        cfg = SolverConfig(algorithm="gauss_seidel")
        bad = [0.5 * v for v in unit_vectors(rng, (2, 2, 2))]
        with pytest.raises(ValueError, match="unit norm"):
            solve_gauss_seidel(ex41.tensor, cfg, bad)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.0)
        with pytest.raises(ValueError):
            SolverConfig(tol=-1e-9)
        with pytest.raises(ValueError):
            SolverConfig(starts=0)
        with pytest.raises(ValueError):
            SolverConfig(algorithm="hopm")
        for name in ("alpha", "tol"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=name):
                    SolverConfig(**{name: value})


class TestEmbedMemory:
    # The embedding S has (sum dims)^m entries: 13 MB for example_4_7 and
    # 386 MB for example_4_6. The solver reads A's blocks and never builds it.
    @pytest.mark.parametrize("fixture", ["example_4_7", "example_4_6"])
    def test_peak_stays_far_below_the_embedding(self, fixture):
        built = catalog.build(fixture)
        A = getattr(built, "tensor", built)
        start = random_start(np.random.default_rng(0), A.dims, "embed")
        cfg = SolverConfig(algorithm="embed", max_iter=50)
        tracemalloc.start()
        try:
            solve_embed(A, cfg, start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20


class TestResidual:
    def test_converged_fixture_residual(self, ex41, ex41_solved):
        pair = ex41_solved.best
        assert residual(ex41.tensor, pair) <= 1e-8
        assert pair.residual == residual(ex41.tensor, pair)

    def test_exact_rank_one_zero_residual(self):
        rng = np.random.default_rng(4)
        f = RankOneFactors.per_vector(unit_vectors(rng, (3, 2)))
        A = rank_one(f)
        assert residual_at(A, 1.0, f.vectors) <= 1e-14

    def test_perturbation_detected(self, ex41, ex41_solved):
        pair = ex41_solved.best
        vecs = [v.copy() for v in pair.factors.vectors]
        bump = np.zeros_like(vecs[0])
        bump[-1] = 1e-3
        v = vecs[0] + bump
        vecs[0] = v / np.linalg.norm(v)
        assert residual_at(ex41.tensor, pair.eigenvalue, vecs) > 1e-4


class TestIterationInvariants:
    def test_joint_normalization_every_step(self, ex41):
        rng = np.random.default_rng(5)
        start = RankOneFactors.joint(unit_vectors(rng, (2, 2, 2)))
        cfg = SolverConfig(algorithm="joint", max_iter=40, tol=1e-300)
        pair = solve_joint(ex41.tensor, cfg, start, record_iterates=True)
        for vecs in pair.trace.iterates:
            total = sum(float(np.real(np.vdot(v, v))) for v in vecs)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_gauss_seidel_normalization_every_step(self, ex41):
        rng = np.random.default_rng(6)
        start = unit_vectors(rng, (2, 2, 2))
        cfg = SolverConfig(algorithm="gauss_seidel", max_iter=40, tol=1e-300)
        pair = solve_gauss_seidel(ex41.tensor, cfg, start, record_iterates=True)
        for vecs in pair.trace.iterates:
            for v in vecs:
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_max_iter_flagged_not_raised(self, ex41):
        rng = np.random.default_rng(7)
        start = unit_vectors(rng, (2, 2, 2))
        cfg = SolverConfig(algorithm="gauss_seidel", max_iter=3, tol=1e-300)
        pair = solve_gauss_seidel(ex41.tensor, cfg, start)
        assert pair.trace.status == "max_iter_reached"
        assert pair.iterations == 3

    def test_stop_without_eigenpair_is_stalled(self):
        # An over-damped shift scale moves the iterate so little per step
        # that both halves of the stop rule pass far from an eigenpair.
        A = catalog.build("example_4_1").tensor
        cfg = SolverConfig(algorithm="joint", alpha=300, tol=1e-4, starts=2, seed=1)
        result = multi_start(A, cfg)
        for run in result.runs:
            assert run.pair.iterations < cfg.max_iter
            assert run.pair.residual > 100 * cfg.tol
            assert run.pair.trace.status == "stalled"
        assert not result.best.converged

    def test_scaled_converged_stop_is_not_stalled(self, ex41):
        # The residual scales with A: example_4_1 times 1e3 converges with a
        # residual above 100 * tol, within 100 * tol * lambda.
        A = ComplexTensor(1e3 * ex41.tensor.data)
        cfg = SolverConfig(algorithm="gauss_seidel", starts=3)
        for run in multi_start(A, cfg).runs:
            assert run.pair.trace.status == "converged"
            assert 100 * cfg.tol < run.pair.residual
            assert run.pair.residual <= 100 * cfg.tol * run.pair.eigenvalue

    def test_trace_records_step_errors(self, ex41_solved):
        trace = ex41_solved.best.trace
        assert trace.steps[0].step_error is None
        assert all(s.step_error is not None for s in trace.steps[1:])
        assert trace.steps[-1].step_error < 1e-9
        assert trace.converged


class TestPhaseCorrection:
    def test_overlap_real_nonnegative_equals_lambda(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            dims = random_dims(rng, max_order=3)
            A = random_tensor(rng, dims)
            cfg = SolverConfig(algorithm="gauss_seidel", seed=trial)
            pair = multi_start(A, cfg).best
            ov = overlap(A, pair.factors)
            assert abs(ov.imag) <= 1e-8 * max(1.0, pair.eigenvalue)
            assert ov.real == pytest.approx(pair.eigenvalue, abs=1e-8 * max(1.0, pair.eigenvalue))

    def test_lambda_bounded_by_norm(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            dims = random_dims(rng, max_order=3)
            A = random_tensor(rng, dims)
            for algo in ("joint", "gauss_seidel"):
                cfg = SolverConfig(algorithm=algo, seed=trial, starts=3)
                pair = multi_start(A, cfg).best
                assert pair.eigenvalue <= norm(A) + 1e-10


class TestLockstep:
    def test_embed_matches_joint_iterate_for_iterate(self):
        rng = np.random.default_rng(10)
        for trial in range(6):
            dims = random_dims(rng, max_order=4)
            m = len(dims)
            A = random_tensor(rng, dims)
            start = RankOneFactors.joint(
                [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
            )
            x0 = np.concatenate(start.vectors)
            alpha = 1.0
            cfg_e = SolverConfig(algorithm="embed", alpha=alpha, tol=1e-300, max_iter=50)
            cfg_j = SolverConfig(algorithm="joint", alpha=alpha, tol=1e-300, max_iter=50)
            pe = solve_embed(A, cfg_e, x0, record_iterates=True)
            pj = solve_joint(A, cfg_j, start, record_iterates=True)
            for k in range(51):
                concat = np.concatenate(pj.trace.iterates[k])
                assert np.max(np.abs(pe.trace.iterates[k] - concat)) <= 1e-10
                lam_s = pe.trace.steps[k].lam
                lam_a = pj.trace.steps[k].lam
                assert abs(lam_s - math.factorial(m) * lam_a) <= 1e-10

    def test_shift_relation_used(self, ex41):
        # the embedded shift that matches a source-side one is m!(m-1)! times it
        assert shift_to_embedded(1.0, 3) == 12.0

    def test_lifted_round_trip_residual(self, ex41):
        cfg = SolverConfig(algorithm="embed", tol=1e-9, starts=5, seed=0)
        result = multi_start(ex41.tensor, cfg)
        for run in result.runs:
            assert run.ok and run.pair.converged
            assert run.pair.residual <= 1e-8


class TestScaleCovariance:
    def test_scaled_tensor_same_iterates(self):
        # The shift scales with |lambda|^2, so A and s A take the same steps
        # at the same shift scale c, under every algorithm, also once the
        # safeguard has doubled c. A Gauss-Seidel run can reach an exact
        # fixed point, where it stops, at a different step for s A.
        rng = np.random.default_rng(11)
        dims = (3, 2, 2)
        A = random_tensor(rng, dims)
        s = 2.5
        B = ComplexTensor(s * A.data)
        for algorithm in ALGORITHMS:
            start = random_start(np.random.default_rng(42), dims, algorithm)
            cfg = SolverConfig(algorithm=algorithm, alpha=0.03, tol=1e-300, max_iter=100)
            pa = solve(A, cfg, start, record_iterates=True)
            pb = solve(B, cfg, start, record_iterates=True)
            steps = min(pa.iterations, pb.iterations)
            if algorithm != "gauss_seidel":
                assert steps == 100
            for k in range(steps + 1):
                for va, vb in zip(pa.trace.iterates[k], pb.trace.iterates[k]):
                    np.testing.assert_allclose(va, vb, atol=1e-10)
                assert pb.trace.steps[k].lam == pytest.approx(
                    s * pa.trace.steps[k].lam, abs=1e-10 * s
                )
            assert pb.eigenvalue == pytest.approx(s * pa.eigenvalue, rel=1e-10)
            assert pb.trace.shift_scale == pa.trace.shift_scale
            # Embed and joint double c on this start; Gauss-Seidel has no shift.
            assert (pa.trace.shift_scale > cfg.alpha) == (algorithm != "gauss_seidel")

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_power_of_two_scale_is_exact(self, algorithm):
        # The loop runs on A scaled to a largest entry in [1/2, 1), so A and
        # 2^k A take bitwise the same steps, and every reported number
        # scales exactly; without the scaling 2^-600 A breaks down and
        # 2^600 A overflows. The tiny tol stops a run only at an exact
        # fixed point, the same step for both (tol is absolute in lambda).
        A = random_tensor(np.random.default_rng(12), (3, 2, 2))
        cfg = SolverConfig(algorithm=algorithm, tol=1e-100, max_iter=200, starts=3, seed=4)
        runs = multi_start(A, cfg).runs
        for k in (-600, 7, 600):
            s = 2.0**k
            for a, b in zip(runs, multi_start(ComplexTensor(s * A.data), cfg).runs):
                pa, pb = a.pair, b.pair
                assert (repr(pb.eigenvalue), repr(pb.residual)) == (
                    repr(s * pa.eigenvalue), repr(s * pa.residual)
                )
                assert bits(pb)[2] == bits(pa)[2]
                assert [repr(x) for x in pb.trace.lams] == [repr(s * x) for x in pa.trace.lams]
                assert pb.trace.step_errors[1:] == [s * x for x in pa.trace.step_errors[1:]]

    @pytest.mark.parametrize("s", [1e-300, 1e-200, 1e150, 1e200, 1e300])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_extreme_scales_solve(self, algorithm, s):
        A = ComplexTensor(s * catalog.build("example_4_2").tensor.data)
        best = multi_start(A, SolverConfig(algorithm=algorithm, starts=3)).best
        assert best.converged
        assert best.eigenvalue / s == pytest.approx(math.sqrt(1 / 3), abs=1e-9)
        # residual() is the solver's own residual, computed alike.
        assert repr(residual(A, best)) == repr(best.residual)

    @pytest.mark.parametrize("s", [2.0**-600, 2.0**7, 2.0**600, 1e-300, 1e150, 1e300])
    @pytest.mark.parametrize("name", ["example_4_2", "trig_5", "order_1"])
    def test_residual_and_bound_scale_with_the_tensor(self, name, s):
        # residual() and the sampling bound run on the scaled copy the loop
        # runs on: on 2^k A they are bitwise 2^k times A's, and on s A, whose
        # entries s rounds, equal to rounding. On the unscaled tensor they
        # underflowed to 0.0 or overflowed to inf at the extremes.
        A, lam, vecs = scale_case(name)
        B = ComplexTensor(s * A.data)
        got = residual_at(B, s * lam, vecs), sampling_oracle(B, 500)
        expected = s * residual_at(A, lam, vecs), s * sampling_oracle(A, 500)
        if math.frexp(s)[0] == 0.5:  # a power of two
            assert [repr(x) for x in got] == [repr(x) for x in expected]
        else:
            assert all(math.isfinite(x) for x in got)
            assert got == pytest.approx(expected, rel=1e-12, abs=0)


class TestShiftSafeguard:
    # A five-qubit Haar state under joint at c = 0.02. Without the doubling,
    # start 3 cycles between |lambda| 0.00602 and 0.00523 until max_iter.
    @pytest.fixture(scope="class")
    def haar_runs(self):
        A = catalog.random_state((2,) * 5, 3597359297).tensor
        cfg = SolverConfig(algorithm="joint", alpha=0.02, starts=10, seed=2000, max_iter=5000)
        return multi_start(A, cfg).runs

    def test_every_start_converges(self, haar_runs):
        assert all(run.pair.converged for run in haar_runs)

    def test_trace_records_the_doubled_scale(self, haar_runs):
        scales = [run.pair.trace.shift_scale for run in haar_runs]
        for c in scales:
            j = round(math.log2(c / 0.02))
            assert j >= 0 and c == 0.02 * 2**j
        assert max(scales) > 0.02

    def test_gauss_seidel_takes_no_shift(self, ex41):
        start = random_start(np.random.default_rng(5), ex41.tensor.dims, "gauss_seidel")
        a, b = (
            solve(ex41.tensor, SolverConfig(algorithm="gauss_seidel", alpha=alpha), start,
                  record_iterates=True)
            for alpha in (1.0, 300.0)
        )
        assert a.iterations == b.iterations and a.eigenvalue == b.eigenvalue
        for xs, ys in zip(a.trace.iterates, b.trace.iterates):
            assert all(np.array_equal(x, y) for x, y in zip(xs, ys))

    def test_zero_eigenvalue_ends_before_the_update(self):
        # At lambda = 0 the shift is 0 as well, so the update would vanish.
        A = zeros((2, 2, 2))
        for algorithm in ALGORITHMS:
            start = random_start(np.random.default_rng(3), A.dims, algorithm)
            cfg = SolverConfig(algorithm=algorithm)
            with pytest.raises(ZeroEigenvalueError):
                solve(A, cfg, start)


class TestHighOrder:
    def test_singleton_modes_past_26(self, ex41):
        # Order 27: example_4_1 padded with 24 singleton modes. The padding
        # draws its start entries after the real modes', so every start and
        # iteration count matches the unpadded run.
        padded = ComplexTensor(ex41.tensor.data.reshape((2, 2, 2) + (1,) * 24))
        cfg = SolverConfig(algorithm="gauss_seidel", starts=3)
        result = multi_start(padded, cfg)
        plain = multi_start(ex41.tensor, cfg)
        assert result.best.eigenvalue == pytest.approx(math.sqrt(2 / 3), abs=1e-12)
        assert result.best.converged
        assert [r.pair.iterations for r in result.runs] == [
            r.pair.iterations for r in plain.runs
        ]


class TestMultiStart:
    def test_trig_family_values(self):
        from ueigen.catalog import trig_tensor

        cfg = SolverConfig(algorithm="gauss_seidel", tol=1e-9, starts=10, seed=0)
        lam2 = multi_start(trig_tensor(2).tensor, cfg).best.eigenvalue
        assert lam2 == pytest.approx(0.8895, abs=5e-4)
        lam5 = multi_start(trig_tensor(5).tensor, cfg).best.eigenvalue
        assert lam5 == pytest.approx(0.7815, abs=5e-4)

    def test_deterministic_repeat(self, ex41):
        cfg = SolverConfig(algorithm="gauss_seidel", seed=77, starts=4)
        r1 = multi_start(ex41.tensor, cfg)
        r2 = multi_start(ex41.tensor, cfg)
        assert r1.best.eigenvalue == r2.best.eigenvalue
        assert r1.best.residual == r2.best.residual
        for v1, v2 in zip(r1.best.factors.vectors, r2.best.factors.vectors):
            assert np.array_equal(v1, v2)
        assert [s.lam for s in r1.best.trace.steps] == [
            s.lam for s in r2.best.trace.steps
        ]

    def test_all_starts_fail_raises(self):
        A = zeros((2, 2))
        cfg = SolverConfig(algorithm="joint", starts=3)
        with pytest.raises(SolverError, match="every start failed"):
            multi_start(A, cfg)

    def test_runs_reported_per_start(self, ex41):
        cfg = SolverConfig(algorithm="gauss_seidel", starts=5, seed=1)
        result = multi_start(ex41.tensor, cfg)
        assert len(result.runs) == 5
        assert all(r.ok for r in result.runs)
        best = max(r.pair.eigenvalue for r in result.runs if r.ok)
        assert result.best.eigenvalue == best

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_starts_are_independent_of_the_batch(self, ex41, algorithm):
        cfg = SolverConfig(algorithm=algorithm, starts=10, seed=5)
        batch = multi_start(ex41.tensor, cfg)
        assert [bits(r.pair) for r in batch.runs] == [
            bits(pair) for pair in solo_runs(ex41.tensor, cfg)
        ]
        single = multi_start(ex41.tensor, dataclasses.replace(cfg, starts=1))
        assert bits(single.runs[0].pair) == bits(batch.runs[0].pair)

    def test_failed_starts_leave_the_rest_unchanged(self):
        # At this over-damped shift scale and loose tol nine of the ten embed
        # starts stop without an eigenpair (stalled) while start 0 converges.
        A = catalog.build("example_4_1").tensor
        cfg = SolverConfig(algorithm="embed", alpha=300, tol=1e-4, starts=10, seed=1)
        batch = multi_start(A, cfg)
        assert [r.pair.trace.status for r in batch.runs] == [
            "converged" if i == 0 else "stalled" for i in range(10)
        ]
        assert [bits(r.pair) for r in batch.runs] == [bits(p) for p in solo_runs(A, cfg)]

    @pytest.mark.parametrize("gauss_seidel, message", [
        (True, "update for mode 1 vanished at iteration 1"),
        (False, "all update vectors vanished at iteration 1"),
    ])
    def test_breakdown_leaves_only_its_row(self, gauss_seidel, message):
        # Row 1 starts at e2 x e2, where lambda = 1e-170, so its update
        # (about 1e-340) underflows to zero at the first step. Rows 0 and 2
        # start at the fixed points e1 x e1 and e3 x e3 and converge.
        conj_data = np.diag([1.0, 1e-170, 0.5]).astype(complex)
        algorithm = "gauss_seidel" if gauss_seidel else "joint"
        X = np.eye(3, dtype=complex)
        if not gauss_seidel:
            X /= math.sqrt(2)
        results = _iterate(conj_data, [X, X], algorithm, 1.0, 1e-9, 1e-9, 10, False)
        assert isinstance(results[1], BreakdownError)
        assert str(results[1]) == message
        for row in (0, 2):
            vecs, lam, trace = results[row]
            assert all(np.allclose(vec, X[row], rtol=0, atol=1e-15) for vec in vecs)
            assert trace.status == "converged" and trace.iterations == 1

    @pytest.mark.parametrize("algorithm", ["joint", "embed"])
    def test_nan_start_leaves_the_batch(self, ex41, algorithm):
        # At c = 1e300 the shift overflows the first update, lambda turns
        # NaN, and the start leaves the batch instead of iterating to
        # max_iter; ``_finish`` then reports the overflow.
        A = ex41.tensor
        start = random_start(np.random.default_rng(0), A.dims, "joint")
        rows = [v[None] for v in start.vectors]
        with pytest.warns(RuntimeWarning):
            ((vecs, lam, trace),) = _iterate(
                np.conj(A.data), rows, algorithm, 1e300, 1e-9, 1e-9, 5000, False
            )
        assert not cmath.isfinite(lam) and trace.iterations <= 2

    @pytest.mark.parametrize("algorithm, message", [
        ("joint", "final vector for mode 2 vanished"),
        ("embed", "final block for mode 2 vanished"),
    ])
    def test_finish_turns_a_zero_block_into_a_breakdown(self, ex41, algorithm, message):
        # Start 0's mode-2 vector vanished (underflowed, say) while its lambda
        # did not; start 1 finishes as usual. Neither raises ValueError.
        e0, e1 = np.eye(2, dtype=complex)
        good = [e0, e1, e0]
        vecs = [[e0, 0 * e0, e0], good]  # embed's too: _finish reads blocks
        cfg = SolverConfig(algorithm=algorithm)
        outcomes = [(v, 0.5 + 0j, IterationTrace([0.5 + 0j], [None])) for v in vecs]
        conj_data = np.conj(ex41.tensor.data)
        results = _finish(ex41.tensor, cfg, conj_data, outcomes)
        assert isinstance(results[0], BreakdownError)
        assert str(results[0]) == message
        assert all(np.array_equal(f, g) for f, g in zip(results[1].factors.vectors, good))

    @pytest.mark.parametrize("algorithm", ["joint", "embed"])
    def test_overflow_is_a_numerical_failure(self, ex41, algorithm):
        # A shift scale of 1e300 overflows the first update: each start
        # fails as a SolverError, not as the ValueError of an input.
        # Gauss-Seidel takes no shift, and the loop runs on A scaled to a
        # largest entry in [1/2, 1), so it cannot overflow.
        cfg = SolverConfig(algorithm=algorithm, alpha=1e300, starts=2)
        with pytest.warns(RuntimeWarning), pytest.raises(SolverError) as info:
            multi_start(ex41.tensor, cfg)
        assert str(info.value).count("the iteration overflowed") == 2

    @pytest.mark.parametrize("bad", [complex("nan+nanj"), complex("inf")])
    def test_finish_turns_a_non_finite_start_into_a_failure(self, ex41, bad):
        # Start 0 ended not finite; start 1 finishes bitwise as it does
        # alone, and nothing warns on the way.
        e0, e1 = np.eye(2, dtype=complex)
        good = [e0, e1, e0]
        outcomes = [
            ([e0, np.array([0, bad]), e0], bad, IterationTrace([bad], [None])),
            (good, 0.5 + 0j, IterationTrace([0.5 + 0j], [None])),
        ]
        cfg = SolverConfig(algorithm="gauss_seidel")
        conj_data = np.conj(ex41.tensor.data)
        results = _finish(ex41.tensor, cfg, conj_data, outcomes)
        (alone,) = _finish(ex41.tensor, cfg, conj_data, outcomes[1:])
        assert type(results[0]) is SolverError
        assert "overflowed" in str(results[0])
        assert bits(results[1]) == bits(alone)

    @pytest.mark.parametrize("algorithm", ["gauss_seidel", "joint"])
    def test_batched_starts_are_chunked(self, algorithm):
        # 2^16 entries: chunks of four starts peak at 4.1 MB, one start at a
        # time at 2.8 MB, all ten starts in one batch at 8.6 MB.
        A = catalog.random_state((2,) * 16, 7).tensor
        cfg = SolverConfig(algorithm=algorithm, starts=10, max_iter=3)
        tracemalloc.start()
        try:
            multi_start(A, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20

    def test_start_conventions(self):
        rng = np.random.default_rng(0)
        x = random_start(rng, (2, 3), "embed")
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        f = random_start(rng, (2, 3), "joint")
        assert sum(n * n for n in f.norms()) == pytest.approx(1.0, abs=1e-12)
        f = random_start(rng, (2, 3), "gauss_seidel")
        assert all(abs(n - 1) <= 1e-12 for n in f.norms())


@pytest.mark.parametrize("fixture", ["example_4_1", "example_4_2", "trig_5", "example_4_7"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_finish_matches_the_reference(fixture, algorithm):
    # Every start of the batched finish is bitwise the documented finish of
    # that start alone, applied to its final iterate.
    built = catalog.build(fixture)
    A = getattr(built, "tensor", built)
    cfg = SolverConfig(algorithm=algorithm, starts=10, seed=0)
    result = multi_start(A, cfg)
    for run, child in zip(result.runs, np.random.SeedSequence(cfg.seed).spawn(cfg.starts)):
        start = random_start(np.random.default_rng(child), A.dims, algorithm)
        trace = solve(A, cfg, start, record_iterates=True).trace
        ended = "converged" if trace.status == "stalled" else trace.status
        eigenvalue, res, factors, status = reference_eigenpair(
            A, algorithm, cfg.tol, trace.iterates[-1], trace.lams[-1], ended
        )
        assert bits(run.pair)[:4] == (
            repr(eigenvalue), repr(res), [f.tobytes() for f in factors], status
        )


# Per-start iteration counts of the seed-0, 10-start, tol-1e-9 runs. Any
# change to the shared iteration loop that moves a bit shows up here.
PINNED_ITERATIONS = {
    ("example_4_1", "embed"): [125, 119, 124, 119, 128, 115, 127, 128, 136, 134],
    ("example_4_1", "joint"): [126, 126, 123, 122, 119, 122, 127, 129, 130, 116],
    ("example_4_1", "gauss_seidel"): [31, 31, 31, 30, 31, 30, 31, 32, 34, 30],
    ("example_4_2", "embed"): [74, 72, 104, 83, 72, 77, 75, 67, 73, 76],
    ("example_4_2", "joint"): [76, 68, 80, 67, 74, 72, 85, 71, 73, 67],
    ("example_4_2", "gauss_seidel"): [18, 24, 18, 17, 17, 20, 17, 17, 18, 16],
}
PINNED_LAMBDA = {"example_4_1": math.sqrt(2 / 3), "example_4_2": math.sqrt(1 / 3)}


@pytest.mark.parametrize("fixture,algorithm", sorted(PINNED_ITERATIONS))
def test_pinned_iteration_counts(fixture, algorithm):
    cfg = SolverConfig(algorithm=algorithm, tol=1e-9, starts=10, seed=0)
    result = multi_start(catalog.build(fixture).tensor, cfg)
    assert [r.pair.iterations for r in result.runs] == PINNED_ITERATIONS[
        fixture, algorithm
    ]
    assert all(r.pair.converged for r in result.runs)
    assert abs(result.best.eigenvalue - PINNED_LAMBDA[fixture]) <= 1e-12
