"""Set-up, timed closed loop, checks and metrics of one benchmark run.

One client runs the workload's fixed job list (a pass) again and again,
each job starting when the previous one ends, until ``seconds`` would be
exceeded; at least one pass runs. With tracing on, untraced and traced
passes alternate, at least one of each, and the probes run afterwards.

Every time the benchmark reports is converted to the reference speed with
the calibration samples taken while it was measured (see ``calibrate``);
the report also prints the raw seconds of set-up and of the timed loop.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench import calibrate, workloads
from perfbench.spans import Spans, layer_self_times

SETUP_REPEATS = 9
TAIL_BEYOND = 10  # jobs beyond the reported tail percentile
OUT_DIR = ".perfbench"

END_TO_END = {  # name: unit; the JSON line of an untraced run
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
# Printed in the report, not in the JSON line. A dense_cubes or high_order
# pass holds 6 to 11 unlike jobs, so which job is the median one changes with
# the seed and job_s_p50 spreads by up to 60 % there; the tail needs 11 jobs;
# the two ratios are 0 on some workloads.
REPORTED = {
    "job_s_p50": "s",
    "job_s_tail": "s",
    "start_fail_ratio": "ratio",
    "job_fail_ratio": "ratio",
    "cli.solve_s": "s",
    "raw.setup_s": "s",
    "raw.wall_s": "s",
    "machine_speed": "ratio",
}
PER_LAYER = {  # name: unit; the JSON line of a traced run
    "solvers.multi_start_s": "s",
    "solvers.us_per_iter": "us",
    "solvers.iterations": "count",
    "solvers.best_basin_ratio": "ratio",
    "solvers.residual_us": "us",
    "start_fail_ratio": "ratio",
    "job_fail_ratio": "ratio",
    "tensor.contract_excluding_us": "us",
    "tensor.contract_excluding_gbps": "GB/s",
    "tensor.overlap_us": "us",
    "tensor.overlap_gbps": "GB/s",
    "embedding.sym_embed_ms": "ms",
    "embedding.contract_S_us": "us",
    "embedding.S_mb": "MB",
    "entanglement.self_s": "s",
    "oracle.evaluate_s": "s",
    "oracle.samples_per_s": "1/s",
    "oracle.lower_bound_ratio": "ratio",
    "bench.self_s": "s",
    "catalog.build_ms": "ms",
    "cli.solve_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _import_fresh(src: Path):
    for name in [n for n in sys.modules if n == "ueigen" or n.startswith("ueigen.")]:
        del sys.modules[name]
    ue = importlib.import_module("ueigen")
    if Path(ue.__file__).resolve().parent != (src / "ueigen").resolve():
        raise ImportError(f"ueigen imported from {ue.__file__}, not from {src}")
    return ue


def set_up(workload: str, seed: int, src: Path, spans: Spans, sampler, trace: bool):
    """Import ueigen afresh and build every input, SETUP_REPEATS times, with
    a calibration sample after each; with ``trace`` the last repetition
    records spans.

    Returns the median set-up seconds, raw and at the reference speed, and
    the median catalog build seconds at the reference speed, with the inputs
    of the last repetition, which bind to the module left imported.
    """
    clock = spans.clock
    raw, builds = [], []
    start = clock()
    for repeat in range(SETUP_REPEATS):
        spans.enabled = trace and repeat == SETUP_REPEATS - 1
        t0 = clock()
        ue = _import_fresh(src)
        wl = workloads.build(ue, workload, seed, spans)
        raw.append(clock() - t0)
        spans.enabled = False
        builds.append(wl.catalog_build_s)
        sampler.take()
    scale = sampler.scale(start, clock())
    return {
        "raw": statistics.median(raw),
        "scaled": statistics.median(raw) * scale,
        "catalog": statistics.median(builds) * scale,
    }, wl


def _blas_threads() -> int | None:
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(seed: int) -> dict:
    cpu = platform.processor()
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _blas_threads()
    nproc = os.cpu_count()
    if threads is not None and threads > nproc:
        raise RuntimeError(f"BLAS runs {threads} threads on {nproc} CPUs")
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "seed": seed,
    }


def _source_digest(root: Path) -> str:
    """Digest of the package and benchmark sources that decide the records."""
    h = hashlib.sha256()
    for path in sorted([*(root / "src" / "ueigen").glob("*.py"), *(root / "perfbench").glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, latency) of the highest percentile with TAIL_BEYOND jobs beyond it."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(latencies)[n - TAIL_BEYOND - 1]


@dataclass
class Pass:
    traced: bool
    outcomes: list
    scaled: list[float]  # job latencies at the reference speed
    window: tuple[float, float]  # on the clock
    spans: tuple[int, int]  # range of span records

    @property
    def raw_s(self) -> float:
        return self.window[1] - self.window[0]

    @property
    def wall_s(self) -> float:
        return sum(self.scaled)


def run_pass(wl, refs: dict, spans: Spans, sampler, traced: bool) -> Pass:
    """Run the job list once; only the probe input's best pairs are kept."""
    from perfbench import jobs  # imported by run() once ueigen is set up

    spans.enabled = traced
    first_span = len(spans.records)
    start = spans.clock()
    outcomes = [jobs.run_job(job, refs[job.name], spans, job.catalog_id == wl.probe_id)
                for job in wl.jobs]
    end = spans.clock()
    spans.enabled = False
    scaled = [o.seconds * sampler.scale(o.start, o.start + o.seconds) for o in outcomes]
    return Pass(traced, outcomes, scaled, (start, end), (first_span, len(spans.records)))


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    src = root / "src"
    env = environment(seed)
    sampler = calibrate.Sampler()
    spans = Spans(sampler.now)
    with sampler:
        setup, wl = set_up(workload, seed, src, spans, sampler, trace)
        from perfbench import jobs  # binds to the ueigen module imported last

        refs = {job.name: jobs.reference(job.tensor) for job in wl.jobs}
        passes: list[Pass] = []
        start = spans.clock()
        while True:
            passes.append(run_pass(wl, refs, spans, sampler, trace and len(passes) % 2 == 1))
            elapsed = spans.clock() - start
            typical = statistics.median(p.raw_s for p in passes)
            if not (trace and len(passes) < 2) and elapsed + typical > seconds:
                break
        first = passes[0].outcomes
        by_name = {o.name: o for o in first}
        cli = next(job for job in wl.jobs if job.name == wl.cli_job)
        spans.enabled = trace
        cli_start, cli_s, problems = jobs.cli_parity(cli, by_name[cli.name], spans)
        spans.enabled = False
        cli_s *= sampler.scale(cli_start, cli_start + cli_s)
        if trace:
            probe_job = next(job for job in wl.jobs if job.catalog_id == wl.probe_id)
            probes = jobs.probe_layers(probe_job.tensor, by_name[probe_job.name].best,
                                       seed, spans, sampler.scale)

    # Determinism: every pass repeats the first, and a run of the same
    # sources with the same seed in this checkout repeats it too.
    records = [o.record() for o in first]
    for index, p in enumerate(passes[1:], start=2):
        if [o.record() for o in p.outcomes] != records:
            problems.append(f"pass {index} differs from pass 1")
    record_path = root / OUT_DIR / "records" / f"{workload}-seed{seed}-{_source_digest(root)}.json"
    if record_path.exists():
        if json.loads(record_path.read_text()) != records:
            problems.append(f"records differ from the earlier run in {record_path.name}")
    else:
        record_path.parent.mkdir(parents=True, exist_ok=True)
        record_path.write_text(json.dumps(records))
    for o in first:
        if o.failed and o.name not in wl.expected_failures:
            problems.append(f"{o.name}: {'; '.join(o.problems)}")

    all_outcomes = [o for p in passes for o in p.outcomes]
    attempted = len(all_outcomes)
    failed = sum(o.failed for o in all_outcomes)
    starts = sum(len(o.statuses) for o in first)
    untraced = [p for p in passes if not p.traced]
    latencies = [t for p in untraced for t in p.scaled]
    tail = _tail(latencies)
    values = {
        "setup_s": setup["scaled"],
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "job_s_p50": statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "job_s_tail": tail[1] if tail else None,
        "start_fail_ratio": sum(s != "converged" for o in first for s in o.statuses) / starts,
        "job_fail_ratio": failed / attempted,
        "cli.solve_s": cli_s,
        "raw.setup_s": setup["raw"],
        "raw.wall_s": statistics.median(p.raw_s for p in untraced),
        "machine_speed": calibrate.REFERENCE_S / statistics.fmean(sampler.samples),
    }
    units = {**END_TO_END, **REPORTED}
    notes = [
        f"job_s_tail: p{tail[0]:.1f} of {len(latencies)} jobs, {TAIL_BEYOND} beyond"
        if tail else f"job_s_tail: undefined, only {len(latencies)} jobs",
    ]
    emit = END_TO_END

    if trace:
        traced = [p for p in passes if p.traced]
        per_pass = []
        for p in traced:
            scale = sampler.scale(*p.window)
            self_s = layer_self_times(spans.records[:p.spans[1]], p.spans[0])
            per_pass.append({layer: t * scale for layer, t in self_s.items()})

        def layer_s(layer):
            return statistics.median(s.get(layer, 0.0) for s in per_pass)

        iterations = sum(sum(o.iterations) for o in first)
        lower_ratios = [o.sampling_bound / o.lam for o in first if o.sampling_bound is not None]
        values.update(probes)
        values.update({
            "solvers.multi_start_s": layer_s("solvers"),
            "solvers.us_per_iter": 1e6 * layer_s("solvers") / iterations,
            "solvers.iterations": iterations,
            "solvers.best_basin_ratio": sum(o.basin for o in first) / starts,
            "entanglement.self_s": layer_s("entanglement"),
            "oracle.evaluate_s": layer_s("oracle"),
            "oracle.samples_per_s": jobs.SAMPLES * len(first) / layer_s("oracle"),
            "oracle.lower_bound_ratio": statistics.median(lower_ratios),
            "bench.self_s": layer_s("bench"),
            "catalog.build_ms": 1e3 * setup["catalog"],
            "trace.overhead_ratio": statistics.median(p.wall_s for p in traced)
            / values["wall_s"] - 1.0,
        })
        units.update(PER_LAYER)
        emit = PER_LAYER
        spans.write(root / OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")

    kinds = "".join("T" if p.traced else "U" for p in passes)
    print(f"perfbench workload={workload} seed={seed} trace={int(trace)} "
          f"passes={kinds} jobs/pass={len(wl.jobs)} attempted={attempted} failed={failed}")
    print("env " + json.dumps(env))
    for name, unit in units.items():
        value = values.get(name)
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:<32}{shown:>14} {unit}")
    for note in notes:
        print("note " + note)
    for o in first:
        if o.failed:
            tag = "expected failure" if o.name in wl.expected_failures else "FAILED"
            print(f"{tag} {o.name}: {'; '.join(o.problems)}")
    for problem in problems:
        print("check failed: " + problem)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in emit.items()},
    }
    detail = {
        "env": env,
        "workload": workload,
        "passes": kinds,
        "calibration": {"times": sampler.times, "samples": sampler.samples},
        "values": values,
        "notes": notes,
        "problems": problems,
        "jobs": [
            {"record": o.record(), "gme": o.gme, "sampling_bound": o.sampling_bound,
             "start": o.start, "seconds": o.seconds, "problems": list(o.problems)}
            for o in first
        ],
        "result": result,
    }
    out = root / OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0
