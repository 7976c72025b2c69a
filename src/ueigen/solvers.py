"""Shifted power iterations for unitary eigenpairs of complex tensors.

Three algorithms compute the same quantity, the largest unitary eigenvalue
lambda with per-mode unit eigenvectors x(1..m) satisfying, for every mode k,

    contract_excluding(A, x, k) = lambda * conj(x(k)),

through one loop, ``_iterate``: x_hat = lambda_prev * (conjugated
contraction) + alpha_k * x, then renormalize. One switch picks Jacobi order
with joint rescaling (squared norms summing to one) or Gauss-Seidel order
with per-vector normalization (later updates of a sweep read earlier ones):

* ``embed``        -- one vector on the symmetric embedding S of A;
* ``joint``        -- the m mode vectors of A in Jacobi order;
* ``gauss_seidel`` -- the m mode vectors of A in Gauss-Seidel order.

Embed is joint in other coordinates: its unit vector, split into A's m
mode blocks, is a jointly normalized start, lambda_S = m! lambda, and its
shifted update is m!(m-1)! times joint's. So embed runs joint's loop on its
blocks, with its stop rule and trace in S's units (below).

The shift is scale-free: alpha_k = c * m * |lambda_{k-1}|^2 for joint and
embed, relative to the update term m |lambda|^2 x at an eigenpair. Each
start keeps its own c, starting at ``SolverConfig.alpha``, and doubles it
whenever |lambda| falls by more than a relative 1e-8 in one step: the
shifted iteration ascends monotonically once the shift is large enough
(SS-HOPM and its adaptive-shift form GEAP, Kolda & Mayo 2011 and 2014), and
a start whose c is too small can otherwise cycle. Gauss-Seidel takes no
shift: each mode update maximizes |lambda| over that mode with the others
fixed, so it ascends unshifted, and any shift only slows it. The loop runs
on conj(A) 2^-e (``tensor._scaled_conj``), so that no update underflows or
overflows whatever the scale of A; ``_finish`` multiplies lambda, the step
errors, the eigenvalue and the residual back by 2^e, which is exact, and
``residual`` is its residual for one pair. All three finish alike there,
checked by one residual rule below.

A run is a batch of K starts from end to end. The starts are drawn (each
from its own generator, as ``random_start`` draws them), stacked per mode
and checked as one batch. In the loop each mode's iterate is a (K, n_i)
array and lambda a length-K array, so one pass advances every live start,
and a start leaves the batch when it converges, breaks down, reaches a zero
eigenvalue (where the shift vanishes too) or a NaN one (an overflow), or
reaches ``max_iter``. The finished starts are phase-corrected, normalized
and checked by residual in one stacked pass. Every batched step (the
stacked contraction, the row dots and norms, the shift) makes, per row, the
same BLAS call and arithmetic as a lone start, so each start's result is
bitwise what it is alone, whatever K. ``solve`` and the single-start
solvers are the batch of one, through the same start check and finish;
``multi_start`` runs its starts in chunks that keep the first contraction
near 2 MB. Each start's trace keeps lambda and the step error as two
columns; ``IterationTrace.steps`` is derived from them.

Convergence detection: an iteration stops once the eigenvalue-magnitude
increment | |lam_k| - |lam_{k-1}| | is below ``tol`` *and* every vector
moved by less than ``tol`` (``tol / m`` for embed and joint) since the
previous iteration; embed's lambda is lambda_S, and its one vector moves by
the root sum of squares of its block moves. The displacement condition is
needed because the eigenvalue estimate is stationary in the iterates: its
increments fall below tol while the eigenvector error is still near
sqrt(tol), which would leave residuals orders of magnitude above the
eigenvalue accuracy. Both halves can still pass far from an eigenpair when
the iterate barely moves (a large c damps every step), so a stop whose
verified residual exceeds 100 tol max(1, lam) has status ``"stalled"``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .tensor import (
    _CHUNK_ENTRIES,
    ComplexTensor,
    RankOneFactors,
    _as_vectors,
    _check_factor_dims,
    _contract_excluding,
    _dot_rows,
    _scaled_conj,
)

__all__ = [
    "SolverError",
    "ZeroEigenvalueError",
    "BreakdownError",
    "SolverConfig",
    "IterationStep",
    "IterationTrace",
    "UEigenpair",
    "StartResult",
    "MultiStartResult",
    "ALGORITHMS",
    "solve_embed",
    "solve_joint",
    "solve_gauss_seidel",
    "solve",
    "residual",
    "multi_start",
    "random_start",
]

ALGORITHMS = ("embed", "joint", "gauss_seidel")
# A start whose |lambda| falls by more than this fraction in one step doubles
# its shift scale. Relative, so that rounding never fires it, whatever tol.
_DESCENT_TOL = 1e-8


class SolverError(RuntimeError):
    """Numerical failure of a solver run."""


class ZeroEigenvalueError(SolverError):
    """The iteration terminated at a zero eigenvalue; no phase correction
    or eigenpair conversion is possible."""


class BreakdownError(SolverError):
    """An update vector, or a vector or block of the final iterate, vanished,
    so normalization is undefined."""


@dataclass(frozen=True)
class SolverConfig:
    """Settings shared by all algorithms.

    ``alpha`` is the initial shift scale c of every start: the shift at step
    k is c * m * |lambda_{k-1}|^2 for joint and embed (Gauss-Seidel takes
    none), and a start doubles its c whenever |lambda| falls (see the module
    docstring).
    """

    algorithm: str = "gauss_seidel"
    alpha: float = 1.0
    tol: float = 1e-9
    max_iter: int = 5000
    starts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}"
            )
        for name in ("alpha", "tol"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.starts < 1:
            raise ValueError("starts must be >= 1")


@dataclass(frozen=True)
class IterationStep:
    k: int
    lam: complex
    abs_lam: float
    step_error: float | None  # None for the initial value


@dataclass
class IterationTrace:
    """Per-step eigenvalue history plus the termination status.

    The history is two columns: ``lams[k]`` is the eigenvalue estimate after
    step k and ``step_errors[k]`` its | |lam_k| - |lam_{k-1}| | (None for the
    initial value, k = 0). ``steps`` derives one ``IterationStep`` per step.
    ``shift_scale`` is the start's final shift scale c: ``SolverConfig.alpha``
    times 2^j when the monotone safeguard fired j times.
    """

    lams: list[complex] = field(default_factory=list)
    step_errors: list[float | None] = field(default_factory=list)
    status: str = "max_iter_reached"  # or "converged" or "stalled"
    iterates: list | None = None  # populated when record_iterates is set
    shift_scale: float | None = None  # set when the iteration ends

    @property
    def steps(self) -> list[IterationStep]:
        return [
            IterationStep(k, lam, abs(lam), step_error)
            for k, (lam, step_error) in enumerate(zip(self.lams, self.step_errors))
        ]

    @property
    def iterations(self) -> int:
        return max(len(self.lams) - 1, 0)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


@dataclass(frozen=True)
class UEigenpair:
    """A computed eigenpair: nonnegative eigenvalue, per-mode unit factors,
    the verified residual of the eigenpair equations, and the trace."""

    eigenvalue: float
    factors: RankOneFactors
    residual: float
    trace: IterationTrace

    @property
    def iterations(self) -> int:
        return self.trace.iterations

    @property
    def converged(self) -> bool:
        return self.trace.converged


def _start_rows(A: ComplexTensor, algorithm: str, start) -> list[np.ndarray]:
    """The vectors of one ``solve`` start as a batch of one: a (1, n_i) row
    per vector, checked later by ``_check_starts`` like every other batch."""
    if algorithm == "embed":
        vecs = [np.asarray(start, dtype=np.complex128).reshape(-1)]
    else:
        vecs = _as_vectors(start)
        _check_factor_dims(A, vecs)
    return [np.stack([v]) for v in vecs]


def _check_starts(A: ComplexTensor, algorithm: str, rows: list[np.ndarray]):
    """Check K starts, ``rows[i]`` holding their vector i one per row, against
    the normalization that ``algorithm`` iterates in (see ``random_start``)."""
    if algorithm == "embed":
        if A.order < 2:
            raise ValueError("symmetric embedding needs an order >= 2 tensor")
        n = sum(A.dims)
        if rows[0].shape[1] != n:
            raise ValueError(f"start has length {rows[0].shape[1]}, embedding size is {n}")
    norms = [_row_norms(X) for X in rows]
    if algorithm == "joint":
        if np.any(np.abs(np.sqrt(sum(nrm**2 for nrm in norms)) - 1.0) > 1e-8):
            raise ValueError("start factors must be jointly normalized")
        return
    for i, nrm in enumerate(norms, start=1):
        if np.any(np.abs(nrm - 1.0) > 1e-8):
            raise ValueError(
                "start vector must have unit norm" if algorithm == "embed"
                else f"start vector for mode {i} must have unit norm"
            )


def _residuals(conj_data: np.ndarray, eigenvalues, rows: list[np.ndarray]) -> list[float]:
    """Per row j: max over modes k of || contract_excluding(A, x_j, k) -
    eigenvalues[j] conj(x_j(k)) ||, one stacked contraction per mode, each
    row bitwise what it is alone."""
    eig = np.array(eigenvalues, dtype=float)[:, None]
    norms = [
        _row_norms(_contract_excluding(conj_data, rows, k) - eig * np.conj(X)).tolist()
        for k, X in enumerate(rows)
    ]
    return [max(0.0, *worst) for worst in zip(*norms)]


def residual(A: ComplexTensor, pair: UEigenpair) -> float:
    """Max over modes of || contract_excluding(A, x, k) - lambda conj(x(k)) ||:
    ``_finish``'s residual for one pair, on conj(A) 2^-e and scaled back, so
    finite at any scale of A and bitwise a solver's ``pair.residual``."""
    conj_data, exponent = _scaled_conj(A)
    gain = 2.0**exponent
    rows = [v[None] for v in pair.factors.vectors]
    return _residuals(conj_data, [pair.eigenvalue / gain], rows)[0] * gain


def _row_norms(U: np.ndarray) -> np.ndarray:
    """The norm of each row of U, bitwise ``np.linalg.norm`` of the row
    alone: the same two strided dots (``np.linalg.norm(U, axis=1)`` sums
    differently)."""
    re, im = U.real, U.imag
    return np.sqrt(_dot_rows(re, re) + _dot_rows(im, im))


def _vanished(nrm: np.ndarray, broken: dict, what: str, *args) -> np.ndarray:
    """The row norms ``nrm`` as a column to divide by. A row whose norm is
    zero gets 1 instead, and ``broken`` its ``BreakdownError(what.format(*args))``
    unless it already holds an error for that row."""
    if 0.0 in nrm.tolist():
        for j in np.flatnonzero(nrm == 0).tolist():
            broken.setdefault(j, BreakdownError(what.format(*args)))
        nrm[nrm == 0] = 1.0
    return nrm[:, None]


def _iterate(
    conj_data: np.ndarray,
    rows: list[np.ndarray],
    algorithm: str,
    scale: float,
    tol: float,
    disp_tol: float,
    max_iter: int,
    record_iterates: bool,
) -> list:
    """The shifted power iteration of the module docstring, on K starts.

    ``rows[i]`` holds the mode-i vectors of the starts, one per row (embed's
    blocks for embed), and ``conj_data`` is the conjugated tensor they are
    contracted with. Joint and embed update in Jacobi order with the shift
    c * m * |lam|^2, c starting at ``scale`` and doubling whenever |lam|
    falls; Gauss-Seidel sweeps the modes unshifted. A start stops once its
    step error is below ``tol`` and its largest vector move below
    ``disp_tol``; embed's blocks move as one vector. Every row is computed
    as it would be alone. A start leaves the batch when it converges, breaks
    down, reaches a zero or NaN eigenvalue or reaches ``max_iter``.

    Returns, per start, its final vectors, eigenvalue estimate and trace,
    or the ``SolverError`` that ended it.
    """
    live = list(range(len(rows[0])))  # the start of each row
    results: list = [None] * len(live)
    c0 = _contract_excluding(conj_data, rows, 0)
    lam = _dot_rows(rows[0], c0)
    traces = [IterationTrace([lam_j], [None]) for lam_j in lam.tolist()]
    if record_iterates:
        for j, trace in enumerate(traces):
            trace.iterates = [[X[j].copy() for X in rows]]
    abs_lam = np.array([abs(trace.lams[0]) for trace in traces])
    scales = np.full(len(live), float(scale))

    def finish(j):
        lam_j = complex(lam[j])
        if lam_j == 0:
            return ZeroEigenvalueError("iteration terminated at a zero eigenvalue")
        traces[live[j]].shift_scale = float(scales[j])
        return [X[j].copy() for X in rows], lam_j, traces[live[j]]

    for k in range(1, max_iter + 1):
        # Rows that cannot update: at a zero eigenvalue the shift is zero
        # too, and after an overflow lambda is NaN. They are removed with
        # the error they raise alone (``_finish`` reports the overflow).
        broken = {j: finish(j) for j in np.nonzero(~(abs_lam > 0))[0].tolist()}
        lam_col = lam[:, None]
        previous = list(rows)
        if algorithm == "gauss_seidel":
            for i in range(len(rows)):
                update = lam_col * np.conj(_contract_excluding(conj_data, rows, i) if i else c0)
                what = "update for mode {} vanished at iteration {}"
                update /= _vanished(_row_norms(update), broken, what, i + 1, k)
                rows[i] = update
        else:
            shift = (scales * len(rows) * abs_lam**2)[:, None]
            updates = [
                lam_col * np.conj(_contract_excluding(conj_data, rows, i) if i else c0) + shift * X
                for i, X in enumerate(rows)
            ]
            squares = [_dot_rows(np.conj(u), u).real.tolist() for u in updates]
            totals = np.array([math.sqrt(sum(sq)) for sq in zip(*squares)])
            total = _vanished(totals, broken, "all update vectors vanished at iteration {}", k)
            rows = [u / total for u in updates]
        c0 = _contract_excluding(conj_data, rows, 0)
        lam = _dot_rows(rows[0], c0)
        lams = lam.tolist()
        abs_new = np.array([abs(lam_j) for lam_j in lams])
        # The safeguard: a start whose |lam| fell by more than rounding
        # doubles its c, as the monotone shifted iteration needs.
        scales[abs_new < (1.0 - _DESCENT_TOL) * abs_lam] *= 2.0
        step_errors = np.abs(abs_new - abs_lam).tolist()
        abs_lam = abs_new
        # The displacement decides a stop only for a row whose step error is
        # below tol (about half the steps of a converging run), so it is
        # computed only when some row's is.
        if min(step_errors) < tol:
            moves = [X - P for X, P in zip(rows, previous)]
            if algorithm == "embed":
                moves = [np.concatenate(moves, axis=1)]
            displacements = map(max, zip(*[_row_norms(M).tolist() for M in moves]))
        else:
            displacements = itertools.repeat(math.inf)
        leaving = []
        for j, (lam_j, step_error, disp_j) in enumerate(zip(lams, step_errors, displacements)):
            if j in broken:
                results[live[j]] = broken[j]
                leaving.append(j)
                continue
            trace = traces[live[j]]
            trace.lams.append(lam_j)
            trace.step_errors.append(step_error)
            if record_iterates:
                trace.iterates.append([X[j].copy() for X in rows])
            if step_error < tol and disp_j < disp_tol:
                trace.status = "converged"
                results[live[j]] = finish(j)
                leaving.append(j)
        if leaving:
            keep = np.ones(len(live), dtype=bool)
            keep[leaving] = False
            if not keep.any():
                return results
            rows = [X[keep] for X in rows]
            lam = lam[keep]
            abs_lam = abs_lam[keep]
            scales = scales[keep]
            # An order-1 tensor's contraction reads no vector: one row for all.
            c0 = c0[keep] if len(c0) == len(keep) else c0
            live = [s for s, kept in zip(live, keep) if kept]

    for j in range(len(live)):
        results[live[j]] = finish(j)
    return results


def _finish(
    A: ComplexTensor, cfg: SolverConfig, conj_data: np.ndarray, outcomes: list,
    exponent: int = 0,
) -> list:
    """The eigenpairs of A from finished iterations, checked by residual.

    ``outcomes`` are ``_iterate``'s on ``conj_data`` = conj(A) 2^-exponent,
    embed's as blocks. One pass passes their errors through and turns a
    start whose eigenvalue or iterate is not finite (an overflow) into a
    ``SolverError``. The others' lambdas and traces go back to A's units
    (lambda_S = m! lambda for embed, whose iterates are joined back into one
    vector) and finish in one stacked pass, each row bitwise as alone: the
    iterate is rotated by a principal m-th root of |lam| / lam, and the
    factors are its vectors rescaled to unit norm, one that vanished being a
    ``BreakdownError``. The eigenvalue is |lam| times (sqrt(m))^m / m! for
    embed, (sqrt(m))^m for joint and 1 for Gauss-Seidel.
    A converged trace whose residual exceeds 100 tol max(1, eigenvalue)
    stopped without an eigenpair and is marked "stalled". The residual scales
    with A, hence the factor max(1, eigenvalue).
    """
    m, embed = A.order, cfg.algorithm == "embed"
    lift = math.factorial(m) if embed else 1  # lambda_S = m! lambda
    scale = 1.0 if cfg.algorithm == "gauss_seidel" else math.sqrt(m) ** m / lift
    gain = 2.0**exponent
    unit = lift * gain
    results = list(outcomes)
    done = []
    for j, outcome in enumerate(outcomes):
        if isinstance(outcome, SolverError):
            continue
        vecs, lam, trace = outcome
        lam = unit * lam if unit != 1.0 else lam
        if math.isfinite(scale * abs(lam)) and all(np.isfinite(v).all() for v in vecs):
            done.append((j, vecs, lam, trace))
        else:
            # The iteration overflowed: a numerical failure of the start, not
            # an input error. The other starts finish without it.
            results[j] = SolverError(
                "the iteration overflowed: its final eigenvalue or iterate is not finite"
            )
    if not done:
        return results
    index, vecs, lams, traces = zip(*done)
    if unit != 1.0:
        for trace in traces:
            trace.lams = [unit * lam for lam in trace.lams]
            trace.step_errors = [None] + [unit * e for e in trace.step_errors[1:]]
    phases = np.array([complex(abs(lam) / lam) ** (1.0 / m) for lam in lams])[:, None]
    rows = [phases * np.stack(col) for col in zip(*vecs)]
    broken = {}
    what = "block" if embed else "vector"
    factors = [
        X / _vanished(_row_norms(X), broken, f"final {what} for mode {i + 1} vanished")
        for i, X in enumerate(rows)
    ]
    eigenvalues = [scale * abs(lam) for lam in lams]
    residuals = _residuals(conj_data, [e / gain for e in eigenvalues], factors)
    for row, (j, eigenvalue, res, trace) in enumerate(zip(index, eigenvalues, residuals, traces)):
        if row in broken:
            results[j] = broken[row]
            continue
        res *= gain
        if embed and trace.iterates is not None:
            trace.iterates = [np.concatenate(it) for it in trace.iterates]
        if trace.converged and res > 100 * cfg.tol * max(1.0, eigenvalue):
            trace.status = "stalled"
        pair_factors = RankOneFactors(tuple(F[row] for F in factors))
        results[j] = UEigenpair(eigenvalue, pair_factors, res, trace)
    return results


def _solve_batch(
    A: ComplexTensor, cfg: SolverConfig, rows: list[np.ndarray], record_iterates: bool = False,
) -> list:
    """Run ``cfg.algorithm`` from K starts, ``rows[i]`` holding their vector
    i one per row, in chunks that keep the first contraction near 2 MB; per
    start, its eigenpair or the ``SolverError`` that ended it."""
    _check_starts(A, cfg.algorithm, rows)
    m = A.order
    conj_data, exponent = _scaled_conj(A)
    tol = cfg.tol * 2.0**-exponent
    if cfg.algorithm == "embed":
        # Joint's loop on embed's blocks, stopping on |lam_S| = m! |lam|.
        rows = np.split(rows[0], np.cumsum(A.dims[:-1]), axis=1)
        tol /= math.factorial(m)
    # Embed and joint return their iterates rescaled by sqrt(m); settling
    # the iterates m times tighter keeps their accuracy at tol with margin.
    disp_tol = cfg.tol if cfg.algorithm == "gauss_seidel" else cfg.tol / m
    chunk = max(1, _CHUNK_ENTRIES // math.prod(A.dims[:-1]))
    outcomes = []
    for first in range(0, len(rows[0]), chunk):
        outcomes += _finish(A, cfg, conj_data, _iterate(
            conj_data, [X[first:first + chunk] for X in rows], cfg.algorithm, cfg.alpha,
            tol, disp_tol, cfg.max_iter, record_iterates,
        ), exponent)
    return outcomes


def solve(A: ComplexTensor, cfg: SolverConfig, start, record_iterates: bool = False) -> UEigenpair:
    """Run ``cfg.algorithm`` from ``start``: the batch of one, its error raised."""
    (outcome,) = _solve_batch(A, cfg, _start_rows(A, cfg.algorithm, start), record_iterates)
    if isinstance(outcome, SolverError):
        raise outcome
    return outcome


def solve_embed(
    A: ComplexTensor,
    cfg: SolverConfig,
    start: np.ndarray,
    record_iterates: bool = False,
) -> UEigenpair:
    """Power iteration on the symmetric embedding S of ``A``, read from A.

    ``start`` is a unit vector of length sum(dims). S is never built: the
    vector runs as its m mode blocks through joint's loop, which is the
    same iteration (see the module docstring), and its trace reports
    lambda_S = m! lambda. The eigenvalue of A is (sqrt(m))^m / m! * |lam_S|,
    its factors the blocks of x rescaled to unit norm.
    """
    return solve(A, replace(cfg, algorithm="embed"), start, record_iterates)


def solve_joint(
    A: ComplexTensor,
    cfg: SolverConfig,
    start: RankOneFactors | Sequence[np.ndarray],
    record_iterates: bool = False,
) -> UEigenpair:
    """Simultaneous per-mode updates with joint normalization.

    ``start`` holds one vector per mode with squared norms summing to one.
    Each iteration updates every mode from the previous iterate, then
    rescales all vectors together. The eigenvalue of A is
    (sqrt(m))^m * |lam| with the factors rescaled to unit norm.
    """
    return solve(A, replace(cfg, algorithm="joint"), start, record_iterates)


def solve_gauss_seidel(
    A: ComplexTensor,
    cfg: SolverConfig,
    start: RankOneFactors | Sequence[np.ndarray],
    record_iterates: bool = False,
) -> UEigenpair:
    """Gauss-Seidel sweep: modes updated in order with immediate per-vector
    normalization, each update using the vectors already refreshed in the
    current sweep. ``start`` holds one unit vector per mode."""
    return solve(A, replace(cfg, algorithm="gauss_seidel"), start, record_iterates)


def _random_rows(
    rngs: Sequence[np.random.Generator], dims: Sequence[int], algorithm: str
) -> list[np.ndarray]:
    """One ``random_start`` per generator, as a (K, n_i) array per vector
    with one start per row: the same draws and, per row, the same
    normalization, bitwise."""
    sizes = [int(sum(dims))] if algorithm == "embed" else [int(d) for d in dims]
    re = [np.empty((len(rngs), n)) for n in sizes]
    im = [np.empty((len(rngs), n)) for n in sizes]
    for j, rng in enumerate(rngs):
        for R, I in zip(re, im):
            rng.standard_normal(out=R[j])
            rng.standard_normal(out=I[j])
    rows = [R + 1j * I for R, I in zip(re, im)]
    if algorithm == "joint":
        # RankOneFactors.joint's total: a sum of per-vector vdots.
        totals = np.sqrt([
            sum(float(np.real(np.vdot(v, v))) for v in vecs) for vecs in zip(*rows)
        ])
        return [X / totals[:, None] for X in rows]
    return [X / _row_norms(X)[:, None] for X in rows]


def random_start(rng: np.random.Generator, dims: Sequence[int], algorithm: str):
    """Draw a starting point in the normalization the algorithm expects.

    Every component has independent standard-normal real and imaginary
    parts (real parts first, mode by mode); the result is normalized to unit
    norm for ``embed``, jointly for ``joint``, per vector for
    ``gauss_seidel``. ``multi_start`` draws its starts as a batch of these.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    vecs = [X[0] for X in _random_rows([rng], dims, algorithm)]
    return vecs[0] if algorithm == "embed" else RankOneFactors(tuple(vecs))


@dataclass(frozen=True)
class StartResult:
    index: int
    pair: UEigenpair | None
    error: str | None

    @property
    def ok(self) -> bool:
        return self.pair is not None


@dataclass(frozen=True)
class MultiStartResult:
    best: UEigenpair
    runs: tuple[StartResult, ...]

    @property
    def failures(self) -> tuple[StartResult, ...]:
        return tuple(r for r in self.runs if not r.ok)


def multi_start(A: ComplexTensor, cfg: SolverConfig) -> MultiStartResult:
    """Run the configured solver from ``cfg.starts`` seeded random starts.

    Per-start generators are spawned from SeedSequence(cfg.seed), each
    drawing what ``random_start`` draws. The starts are drawn, checked,
    iterated and finished together, in chunks that keep the first
    contraction of a chunk near 2 MB; each start's result is bitwise the one
    it gets alone, whatever the number of starts, the chunking or the other
    starts' failures. A failed start is recorded and skipped; the sweep fails
    only if every start fails. The best eigenpair is the one with the largest
    eigenvalue, first occurrence winning ties.
    """
    rngs = [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(cfg.seed).spawn(cfg.starts)
    ]
    outcomes = _solve_batch(A, cfg, _random_rows(rngs, A.dims, cfg.algorithm))
    runs = tuple(
        StartResult(index, None, str(outcome))
        if isinstance(outcome, SolverError) else StartResult(index, outcome, None)
        for index, outcome in enumerate(outcomes)
    )
    best = None
    for run in runs:
        if run.ok and (best is None or run.pair.eigenvalue > best.eigenvalue):
            best = run.pair
    if best is None:
        messages = "; ".join(f"start {r.index}: {r.error}" for r in runs)
        raise SolverError(f"every start failed ({messages})")
    return MultiStartResult(best=best, runs=runs)
