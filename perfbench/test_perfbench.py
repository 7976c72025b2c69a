"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import ueigen  # noqa: E402
from perfbench import calibrate, harness, jobs, run, workloads  # noqa: E402
from perfbench.spans import Spans, layer_self_times  # noqa: E402


def _job(catalog_id, **solver):
    b = workloads._Builder(ueigen, 0, Spans())
    b.catalog(catalog_id, **solver)
    return b.jobs[0]


def _run(job):
    return jobs.run_job(job, jobs.reference(job.tensor), Spans(), keep_pair=True)


@pytest.mark.parametrize("catalog_id, total", [("example_4_1", 1343), ("trig_20", 6197)])
def test_baseline_iteration_sums(catalog_id, total):
    # Gauss-Seidel, seed 0, 10 starts, tol 1e-9: the baseline table's sums.
    outcome = _run(_job(catalog_id))
    assert sum(outcome.iterations) == total
    assert not outcome.failed


@pytest.mark.parametrize(
    "catalog_id, value",
    [("example_4_1", 0.816497), ("example_4_2", 0.577350),
     ("example_4_6", 0.235702), ("example_4_7", 0.577350)],
)
def test_flattening_bound_is_tight_on_fixtures(catalog_id, value):
    built = ueigen.catalog.build(catalog_id)
    tensor = built.tensor if isinstance(built, ueigen.PureState) else built
    assert jobs.flattening_bound(tensor.data) == pytest.approx(value, abs=1e-6)


def test_flattening_bound_of_a_matrix_is_its_norm():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    assert jobs.flattening_bound(data) == pytest.approx(np.linalg.norm(data, 2))


def test_gate_counts_the_known_example_4_7_failure():
    outcome = _run(_job("example_4_7", algorithm="joint", starts=1))
    assert outcome.failed
    assert outcome.statuses == ("max_iter_reached",)
    assert outcome.lam < 0.1
    wl = workloads.build(ueigen, "high_order", 0)
    assert outcome.name in wl.expected_failures
    assert outcome.name in {job.name for job in wl.jobs}


def test_gate_flags_a_lambda_above_the_flattening_bound():
    job = _job("example_4_1")
    ref = jobs.reference(job.tensor)
    result = ueigen.multi_start(job.tensor, job.config)
    assert jobs.gate(job, ref, result, None, 0.0) == []
    low = jobs.Reference(ref.max_entry, ref.flattening - 1e-3)
    assert any("flattening" in p for p in jobs.gate(job, low, result, None, 0.0))


def test_job_records_repeat_for_a_seed():
    job = _job("example_4_2")
    assert _run(job).record() == _run(job).record()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    a = workloads.build(ueigen, workload, 5)
    b = workloads.build(ueigen, workload, 5)
    c = workloads.build(ueigen, workload, 6)
    assert [j.name for j in a.jobs] == [j.name for j in b.jobs]
    assert all(np.array_equal(x.tensor.data, y.tensor.data) for x, y in zip(a.jobs, b.jobs))
    assert {j.config.seed for j in a.jobs} <= set(range(5000, 6000))
    random_a = [j for j in a.jobs if j.catalog_id is None]
    random_c = [j for j in c.jobs if j.catalog_id is None]
    assert not np.array_equal(random_a[0].tensor.data, random_c[0].tensor.data)
    assert a.cli_job in {j.name for j in a.jobs}
    assert a.probe_id in {j.catalog_id for j in a.jobs}
    for j in a.jobs:
        if j.is_state:
            assert np.linalg.norm(j.tensor.data) == pytest.approx(1.0, abs=1e-12)


def test_cli_parity_on_a_converged_job():
    job = _job("trig_2")
    _, seconds, problems = jobs.cli_parity(job, _run(job), Spans())
    assert problems == [] and seconds > 0


def test_layer_self_times_subtract_children():
    records = [
        ["bench.job", 0.0, 10.0, None, "j"],
        ["solvers.multi_start", 1.0, 7.0, 0, "j"],
        ["oracle.evaluate_oracles", 7.0, 9.0, 0, "j"],
        ["bench.gate", 9.0, 9.5, 0, "j"],
    ]
    assert layer_self_times(records) == pytest.approx(
        {"bench": 1.5 + 0.5, "solvers": 6.0, "oracle": 2.0}
    )
    assert layer_self_times(records, first=1) == pytest.approx(
        {"solvers": 6.0, "oracle": 2.0, "bench": 0.5}
    )


def test_spans_nest_and_share_the_job_id():
    spans = Spans()
    with spans.span("bench.job", "j1"):
        pass  # disabled: nothing recorded
    spans.enabled = True
    with spans.span("bench.job", "j2"):
        with spans.span("solvers.multi_start"):
            pass
    assert [r[0] for r in spans.records] == ["bench.job", "solvers.multi_start"]
    assert spans.records[1][3] == 0 and spans.records[1][4] == "j2"


def test_sampler_scales_by_the_samples_inside_or_around():
    sampler = calibrate.Sampler()
    sampler.times = [0.0, 1.0, 2.0, 3.0]
    sampler.samples = [0.01, 0.02, 0.04, 0.01]
    ref = calibrate.REFERENCE_S
    assert sampler.scale(0.5, 2.5) == pytest.approx(ref / 0.03)
    assert sampler.scale(1.2, 1.8) == pytest.approx(ref / 0.03)
    assert sampler.scale(3.5, 4.0) == pytest.approx(ref / 0.01)


def test_sampler_clock_excludes_samples():
    with calibrate.Sampler() as sampler:
        t0 = sampler.now()
        sampler.take()
        inside = sampler.now() - t0
    assert len(sampler.samples) >= 3
    assert inside < min(sampler.samples)


def test_tail_needs_ten_jobs_beyond():
    assert harness._tail([1.0] * 10) is None
    pct, value = harness._tail([float(i) for i in range(40)])
    assert pct == 75.0 and value == 29.0


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_states",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
