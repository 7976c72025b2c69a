"""One certified-GME job, the correctness gate run outside the program, the
CLI parity check and the per-layer probes.

Only names exported by ``ueigen``, ``ueigen.catalog`` and ``ueigen.cli.main``
are called, so refactors of the package internals cannot break this file.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import statistics
from dataclasses import dataclass

import numpy as np

import ueigen
from ueigen import catalog
from ueigen.cli import main as cli_main

SAMPLES = 10_000  # the `ueigen oracle` default
VALUE_TOL = 5e-4  # catalog references carry four decimals
BOUND_SLACK = 1e-8  # rounding allowance on the certified bounds
RESIDUAL_FACTOR = 100  # acceptance criterion 8: residual <= 100 * tol
BASIN_TOL = 1e-6
EXIT_OK, EXIT_NO_CONVERGENCE = 0, 3


@dataclass(frozen=True)
class Reference:
    """Certified bounds on lambda, computed with numpy before timing."""

    max_entry: float
    flattening: float


def flattening_bound(data: np.ndarray) -> float:
    """Smallest top singular value over all bipartition flattenings.

    A product state stays a product state across any split of the modes,
    so each flattening's sigma_1 bounds lambda from above (Wei & Goldbart,
    PRA 68, 042307, 2003). Mode 0 stays on the left to skip mirror splits.
    """
    m = data.ndim
    best = math.inf
    for r in range(m - 1):
        for rest in itertools.combinations(range(1, m), r):
            left = (0, *rest)
            right = tuple(k for k in range(m) if k not in left)
            rows = math.prod(data.shape[k] for k in left)
            mat = np.transpose(data, left + right).reshape(rows, -1)
            best = min(best, float(np.linalg.svd(mat, compute_uv=False)[0]))
    return best


def reference(tensor) -> Reference:
    data = tensor.data
    return Reference(float(np.max(np.abs(data))), flattening_bound(data))


@dataclass(frozen=True)
class Outcome:
    name: str
    lam: float | None
    gme: float | None
    iterations: tuple[int, ...]  # per start; 0 for a start that raised
    statuses: tuple[str, ...]  # converged | max_iter_reached | error
    basin: int  # starts within BASIN_TOL of the best lambda
    sampling_bound: float | None
    problems: tuple[str, ...]
    start: float  # on the spans' clock
    seconds: float
    converged: bool  # the best start converged
    best: object  # the best ueigen.UEigenpair, when asked to keep it

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    def record(self) -> list:
        """The deterministic part: equal for equal seeds, bit for bit."""
        return [self.name, repr(self.lam), list(self.iterations), list(self.statuses)]


def gate(job, ref: Reference, result, gme, sampling_bound: float) -> list[str]:
    lam = result.best.eigenvalue
    problems = []
    if job.catalog_id is not None:
        entry = catalog.get(job.catalog_id)
        if entry.expected_lambda is not None and abs(lam - entry.expected_lambda) > VALUE_TOL:
            problems.append(f"lambda {lam:.6f} != reference {entry.expected_lambda}")
        if entry.expected_gme is not None and gme is not None and abs(gme - entry.expected_gme) > VALUE_TOL:
            problems.append(f"gme {gme:.6f} != reference {entry.expected_gme}")
    lower = max(ref.max_entry, sampling_bound)
    if lam < lower - BOUND_SLACK:
        problems.append(f"lambda {lam:.6f} below lower bound {lower:.6f}")
    if lam > ref.flattening + BOUND_SLACK:
        problems.append(f"lambda {lam:.6f} above flattening bound {ref.flattening:.6f}")
    bound = RESIDUAL_FACTOR * job.config.tol
    for run in result.runs:
        if run.ok and run.pair.converged and run.pair.residual > bound:
            problems.append(f"start {run.index} residual {run.pair.residual:.2e} > {bound:.0e}")
    return problems


def run_job(job, ref: Reference, spans, keep_pair: bool = False) -> Outcome:
    """multi_start, gme_from_lambda for states, evaluate_oracles, then the gate.

    The best pair, with its iteration trace, is kept only with ``keep_pair``,
    so the peak memory of a run does not grow with the jobs it has run.
    """
    t0 = spans.clock()
    result = gme = sampling_bound = None
    with spans.span("bench.job", job.name):
        try:
            with spans.span("solvers.multi_start"):
                result = ueigen.multi_start(job.tensor, job.config)
            if job.is_state:
                with spans.span("entanglement.gme_from_lambda"):
                    gme = ueigen.gme_from_lambda(result.best.eigenvalue)
            with spans.span("oracle.evaluate_oracles"):
                oracles = ueigen.evaluate_oracles(job.tensor, samples=SAMPLES, seed=job.config.seed)
            sampling_bound = next(
                o.lambda_lower_bound for o in oracles if o.method == "sampling"
            )
            with spans.span("bench.gate"):
                problems = gate(job, ref, result, gme, sampling_bound)
        except (ueigen.SolverError, ValueError) as exc:
            problems = [f"raised {type(exc).__name__}: {exc}"]
    seconds = spans.clock() - t0
    if result is None:
        starts = job.config.starts
        return Outcome(job.name, None, None, (0,) * starts, ("error",) * starts, 0,
                       None, tuple(problems), t0, seconds, False, None)
    best = result.best
    iterations = tuple(r.pair.iterations if r.ok else 0 for r in result.runs)
    statuses = tuple(r.pair.trace.status if r.ok else "error" for r in result.runs)
    basin = sum(1 for r in result.runs if r.ok and abs(r.pair.eigenvalue - best.eigenvalue) <= BASIN_TOL)
    return Outcome(job.name, best.eigenvalue, gme, iterations, statuses, basin,
                   sampling_bound, tuple(problems), t0, seconds, best.converged,
                   best if keep_pair else None)


def cli_parity(job, outcome: Outcome, spans) -> tuple[float, float, list[str]]:
    """Replay ``job`` through ``ueigen solve --format json`` in this process.

    Its lambda must equal the library path's bit for bit, and its exit code
    must say whether the best start converged. Returns the start and length
    of the call on the spans' clock, and the problems found.
    """
    cfg = job.config
    argv = [
        "solve", "--catalog", job.catalog_id, "--format", "json",
        "--algo", cfg.algorithm.replace("_", "-"), "--alpha", repr(cfg.alpha),
        "--tol", repr(cfg.tol), "--max-iter", str(cfg.max_iter),
        "--starts", str(cfg.starts), "--seed", str(cfg.seed),
    ]
    out = io.StringIO()
    t0 = spans.clock()
    with spans.span("cli.main", "cli"), contextlib.redirect_stdout(out):
        code = cli_main(argv)
    seconds = spans.clock() - t0
    expected = EXIT_OK if outcome.converged else EXIT_NO_CONVERGENCE
    problems = []
    if code != expected:
        problems.append(f"cli exit code {code}, expected {expected}")
    try:
        lam = json.loads(out.getvalue())["lambda"]
    except (ValueError, KeyError) as exc:
        problems.append(f"cli output is not solve JSON: {exc}")
    else:
        if lam != outcome.lam:
            problems.append(f"cli lambda {lam!r} != library lambda {outcome.lam!r}")
    return t0, seconds, problems


def _median_call(spans, name: str, fn, budget_s: float = 0.25, max_calls: int = 2000) -> float:
    """Median seconds of one ``fn()`` call, repeated within ``budget_s``."""
    clock = spans.clock
    times = []
    with spans.span(name, "probe"):
        start = clock()
        while len(times) < 5 or (clock() - start < budget_s and len(times) < max_calls):
            t0 = clock()
            fn()
            times.append(clock() - t0)
    return statistics.median(times)


def probe_layers(tensor, pair, seed: int, spans, scale) -> dict[str, float]:
    """Per-layer probes through the public functions on one input, with
    times converted to the reference speed by ``scale(start, end)``.

    Computed bytes: ``contract_excluding`` and ``overlap`` conjugate the
    tensor on every call (one read, one write) and contract the copy (one
    read), so each call moves 3 * 16 bytes per complex128 entry.
    """
    m = tensor.order
    factors = pair.factors
    modes = itertools.cycle(range(1, m + 1))
    moved = 3 * tensor.data.nbytes
    S = ueigen.sym_embed(tensor).tensor
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(S.dims[0]) + 1j * rng.standard_normal(S.dims[0])
    x /= np.linalg.norm(x)

    def seconds(name, fn):
        t0 = spans.clock()
        median = _median_call(spans, name, fn)
        return median * scale(t0, spans.clock())

    excluding = seconds("tensor.contract_excluding",
                        lambda: ueigen.contract_excluding(tensor, factors, next(modes)))
    overlap = seconds("tensor.overlap", lambda: ueigen.overlap(tensor, factors))
    return {
        "tensor.contract_excluding_us": 1e6 * excluding,
        "tensor.contract_excluding_gbps": moved / excluding / 1e9,
        "tensor.overlap_us": 1e6 * overlap,
        "tensor.overlap_gbps": moved / overlap / 1e9,
        "solvers.residual_us": 1e6 * seconds(
            "solvers.residual", lambda: ueigen.residual(tensor, pair)),
        "embedding.sym_embed_ms": 1e3 * seconds(
            "embedding.sym_embed", lambda: ueigen.sym_embed(tensor)),
        "embedding.contract_S_us": 1e6 * seconds(
            "embedding.contract_S", lambda: ueigen.contract_excluding(S, (x,) * m, 1)),
        "embedding.S_mb": S.data.nbytes / 1e6,
    }
