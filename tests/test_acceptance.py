"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Reference values carry an absolute tolerance of
5e-4 (four printed decimals).
"""

import math
import time

import numpy as np
import pytest

from ueigen import (
    RankOneFactors,
    SolverConfig,
    contract_excluding,
    evaluate_oracles,
    gme_from_lambda,
    is_symmetric,
    multi_start,
    norm,
    overlap,
    residual,
    sampling_oracle,
    shift_to_embedded,
    solve_embed,
    solve_gauss_seidel,
    solve_joint,
    svd_oracle,
    sym_embed,
)
from ueigen.catalog import (
    example_4_1,
    example_4_2,
    example_4_3,
    example_4_6,
    example_4_7,
    random_state,
    trig_tensor,
)
from conftest import random_dims, random_tensor

VALUE_TOL = 5e-4


def report(criterion: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion:>2}: {description}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed: {description} {suffix}"


def run_all_algorithms(tensor, alpha_by_algo=None, max_iter_by_algo=None, seed=0):
    alpha_by_algo = alpha_by_algo or {}
    max_iter_by_algo = max_iter_by_algo or {}
    results = {}
    for algo in ("embed", "joint", "gauss_seidel"):
        cfg = SolverConfig(
            algorithm=algo,
            alpha=alpha_by_algo.get(algo, 1.0),
            tol=1e-9,
            max_iter=max_iter_by_algo.get(algo, 5000),
            starts=10,
            seed=seed,
        )
        results[algo] = multi_start(tensor, cfg)
    return results


def test_criterion_01_table1_example_4_1():
    state = example_4_1()
    t0 = time.perf_counter()
    results = run_all_algorithms(state.tensor)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    detail = [f"time={elapsed:.2f}s"]
    for algo, res in results.items():
        lam = res.best.eigenvalue
        gme = gme_from_lambda(lam)
        detail.append(f"{algo}: lam={lam:.4f} gme={gme:.4f}")
        ok = ok and abs(lam - 0.8165) <= VALUE_TOL and abs(gme - 0.6058) <= VALUE_TOL
    report(1, "three-qubit fixture under all algorithms", ok, "; ".join(detail))


def test_criterion_02_table2_example_4_2():
    state = example_4_2()
    results = run_all_algorithms(state.tensor)
    ok = True
    detail = []
    for algo, res in results.items():
        lam = res.best.eigenvalue
        gme = gme_from_lambda(lam)
        detail.append(f"{algo}: lam={lam:.4f} gme={gme:.4f}")
        ok = ok and abs(lam - 0.5774) <= VALUE_TOL and abs(gme - 0.9194) <= VALUE_TOL
    report(2, "2x3x3 fixture under all algorithms", ok, "; ".join(detail))


def test_criterion_03_table3_example_4_3():
    state = example_4_3()
    # The jointly normalized update (and its embedded twin) scales like
    # lambda^2 m^(1-m), so the default shift of 1 vastly over-damps it at
    # m=5; a small shift keeps the runs well inside the time budget.
    t0 = time.perf_counter()
    results = run_all_algorithms(
        state.tensor,
        alpha_by_algo={"embed": 0.02, "joint": 0.02},
        max_iter_by_algo={"embed": 100_000, "joint": 100_000},
    )
    elapsed = time.perf_counter() - t0
    ok = elapsed < 600.0
    detail = [f"time={elapsed:.1f}s (embedded tensor: 10^5 entries)"]
    for algo, res in results.items():
        lam = res.best.eigenvalue
        gme = gme_from_lambda(lam)
        detail.append(f"{algo}: lam={lam:.4f} gme={gme:.4f}")
        ok = ok and abs(lam - 0.3626) <= VALUE_TOL and abs(gme - 1.1291) <= VALUE_TOL
    report(3, "five-qubit AME fixture under all algorithms", ok, "; ".join(detail))


def test_criterion_04_table4_trig_family():
    expected = {2: 0.8895, 5: 0.7815, 10: 0.7072}
    ok = True
    detail = []
    for n, target in expected.items():
        state = trig_tensor(n)
        for algo, solver in (("joint", solve_joint), ("gauss_seidel", solve_gauss_seidel)):
            cfg = SolverConfig(
                algorithm=algo, tol=1e-9, max_iter=20_000, starts=10, seed=0
            )
            lam = multi_start(state.tensor, cfg).best.eigenvalue
            ok = ok and abs(lam - target) <= VALUE_TOL
            detail.append(f"n={n} {algo}: {lam:.4f}")
    report(4, "trigonometric family n=2,5,10", ok, "; ".join(detail))


def test_criterion_05_example_4_6():
    state = example_4_6()
    t0 = time.perf_counter()
    ok = True
    detail = []
    for algo, alpha, max_iter in (("joint", 0.002, 50_000), ("gauss_seidel", 1.0, 5000)):
        cfg = SolverConfig(
            algorithm=algo, alpha=alpha, tol=1e-9, max_iter=max_iter, starts=10, seed=0
        )
        lam = multi_start(state.tensor, cfg).best.eigenvalue
        gme = gme_from_lambda(lam)
        ok = ok and abs(gme - 1.2364) <= VALUE_TOL
        detail.append(f"{algo}: gme={gme:.4f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    detail.append(f"time={elapsed:.1f}s")
    report(5, "order-6 fixture gme", ok, "; ".join(detail))


def test_criterion_06_table7_example_4_7():
    T = example_4_7()
    cfg = SolverConfig(algorithm="gauss_seidel", tol=1e-9, starts=10, seed=0)
    lam = multi_start(T, cfg).best.eigenvalue
    flattening = evaluate_oracles(T, samples=1000, seed=0)[1]
    lower, upper = flattening.lambda_lower_bound, flattening.lambda_upper_bound
    ok = (
        abs(lam - 0.5774) <= VALUE_TOL
        and upper - lower <= 1e-12
        and lower == math.sqrt(1 / 3)
        and abs(lam - lower) <= 1e-7
    )
    report(
        6,
        "four-term fixture vs certified flattening interval",
        ok,
        f"lam={lam:.6f} interval=[{lower:.6f}, {upper:.6f}]",
    )


def test_criterion_07_lockstep_equivalence():
    rng = np.random.default_rng(2024)
    worst_x = worst_lam = 0.0
    trials = 20
    for _ in range(trials):
        dims = random_dims(rng, max_order=4, max_dim=4)
        m = len(dims)
        A = random_tensor(rng, dims)
        start = RankOneFactors.joint(
            [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
        )
        x0 = np.concatenate(start.vectors)
        cfg_e = SolverConfig(algorithm="embed", alpha=1.0, tol=1e-300, max_iter=50)
        cfg_j = SolverConfig(algorithm="joint", alpha=1.0, tol=1e-300, max_iter=50)
        assert shift_to_embedded(1.0, m) == math.factorial(m) * math.factorial(m - 1)
        pe = solve_embed(A, cfg_e, x0, record_iterates=True)
        pj = solve_joint(A, cfg_j, start, record_iterates=True)
        for k in range(51):
            concat = np.concatenate(pj.trace.iterates[k])
            worst_x = max(worst_x, float(np.max(np.abs(pe.trace.iterates[k] - concat))))
            worst_lam = max(
                worst_lam,
                abs(pe.trace.steps[k].lam - math.factorial(m) * pj.trace.steps[k].lam),
            )
    ok = worst_x <= 1e-10 and worst_lam <= 1e-10
    report(
        7,
        f"embed/joint lockstep on {trials} random tensors",
        ok,
        f"worst |dx|={worst_x:.2e}, worst |dlam|={worst_lam:.2e}",
    )


def test_criterion_08_residual_suite():
    tol = 1e-9
    bound = 100 * tol
    worst = 0.0
    checked = 0
    # Every run that passed the stop rule counts, stalled ones too: a stall
    # above the bound is what this criterion exists to catch.
    # paper fixtures
    fixtures = [
        example_4_1().tensor,
        example_4_2().tensor,
        example_4_3().tensor,
        example_4_7(),
    ]
    for tensor in fixtures:
        cfg = SolverConfig(algorithm="gauss_seidel", tol=tol, starts=5, seed=0)
        res = multi_start(tensor, cfg)
        for run in res.runs:
            if run.ok and run.pair.trace.status != "max_iter_reached":
                worst = max(worst, run.pair.residual)
                checked += 1
    # 50 random instances across algorithms
    rng = np.random.default_rng(7)
    for trial in range(50):
        dims = random_dims(rng, max_order=4, max_dim=4)
        A = random_tensor(rng, dims)
        algo = ("gauss_seidel", "joint", "embed")[trial % 3]
        cfg = SolverConfig(algorithm=algo, tol=tol, starts=2, seed=trial)
        result = multi_start(A, cfg)
        for run in result.runs:
            if run.ok and run.pair.trace.status != "max_iter_reached":
                assert run.pair.residual == pytest.approx(
                    residual(A, run.pair), abs=1e-15
                )
                worst = max(worst, run.pair.residual)
                checked += 1
    ok = worst <= bound and checked > 50
    report(
        8,
        "residuals of runs that passed the stop rule within 100*tol",
        ok,
        f"{checked} runs, worst={worst:.2e}, bound={bound:.0e}",
    )


def test_criterion_09_oracle_concordance():
    rng = np.random.default_rng(11)
    worst_svd = 0.0
    for _ in range(20):
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        A = random_tensor(rng, shape)
        cfg = SolverConfig(algorithm="gauss_seidel", tol=1e-11, starts=5, seed=3)
        lam = multi_start(A, cfg).best.eigenvalue
        worst_svd = max(worst_svd, abs(svd_oracle(A) - lam))
    ok = worst_svd <= 1e-7
    detail = [f"worst |svd-solver|={worst_svd:.2e}"]
    fixtures = {
        "example_4_1": example_4_1().tensor,
        "example_4_2": example_4_2().tensor,
        "example_4_3": example_4_3().tensor,
        "example_4_7": example_4_7(),
    }
    cfg = SolverConfig(algorithm="gauss_seidel", tol=1e-9, starts=10, seed=0)
    for name, tensor in fixtures.items():
        lam = multi_start(tensor, cfg).best.eigenvalue
        bound = sampling_oracle(tensor, samples=10_000, seed=0)
        margin = lam + 1e-6 - bound
        ok = ok and margin >= 0
        detail.append(f"{name}: sample={bound:.4f} <= lam={lam:.4f}")
    report(9, "svd and sampling oracle concordance", ok, "; ".join(detail))


def test_criterion_10_embedding_suite():
    rng = np.random.default_rng(13)
    ok = True
    worst_norm = worst_overlap = worst_grad = 0.0
    for _ in range(20):
        dims = random_dims(rng, max_order=4, max_dim=4)
        m = len(dims)
        A = random_tensor(rng, dims)
        emb = sym_embed(A)
        S = emb.tensor
        ok = ok and is_symmetric(S, 1e-12)
        worst_norm = max(
            worst_norm, abs(norm(S) - math.sqrt(math.factorial(m)) * norm(A))
        )
        x = rng.standard_normal(sum(dims)) + 1j * rng.standard_normal(sum(dims))
        x /= np.linalg.norm(x)
        offs = np.concatenate(([0], np.cumsum(dims)))
        blocks = [x[offs[i] : offs[i + 1]] for i in range(m)]
        worst_overlap = max(
            worst_overlap,
            abs(overlap(S, (x,) * m) - math.factorial(m) * overlap(A, blocks)),
        )
        grad = contract_excluding(S, (x,) * m, 1)
        for i in range(m):
            gi = grad[offs[i] : offs[i + 1]]
            ci = contract_excluding(A, blocks, i + 1)
            worst_grad = max(
                worst_grad,
                float(np.max(np.abs(gi - math.factorial(m - 1) * ci))),
            )
    ok = ok and worst_norm <= 1e-10 and worst_overlap <= 1e-10 and worst_grad <= 1e-10
    report(
        10,
        "embedding symmetry, norm and contraction identities",
        ok,
        f"norm dev={worst_norm:.2e}, overlap dev={worst_overlap:.2e}, "
        f"grad dev={worst_grad:.2e}",
    )


def test_criterion_11_determinism():
    state = example_4_1()
    cfg = SolverConfig(algorithm="joint", tol=1e-9, starts=5, seed=99)
    r1 = multi_start(state.tensor, cfg)
    r2 = multi_start(state.tensor, cfg)
    ok = r1.best.eigenvalue == r2.best.eigenvalue
    ok = ok and r1.best.residual == r2.best.residual
    for v1, v2 in zip(r1.best.factors.vectors, r2.best.factors.vectors):
        ok = ok and np.array_equal(v1, v2)
    t1 = [(s.k, s.lam, s.abs_lam, s.step_error) for s in r1.best.trace.steps]
    t2 = [(s.k, s.lam, s.abs_lam, s.step_error) for s in r2.best.trace.steps]
    ok = ok and t1 == t2
    for run1, run2 in zip(r1.runs, r2.runs):
        ok = ok and run1.ok == run2.ok
        if run1.ok:
            ok = ok and run1.pair.eigenvalue == run2.pair.eigenvalue
    # random instances are reproducible by seed as well
    s1 = random_state((3, 3, 3), seed=5)
    s2 = random_state((3, 3, 3), seed=5)
    ok = ok and np.array_equal(s1.tensor.data, s2.tensor.data)
    report(11, "bitwise determinism under a fixed seed", ok)
