"""Shifted power iterations for unitary eigenpairs of complex tensors.

Three algorithms compute the same quantity, the largest unitary eigenvalue
lambda with per-mode unit eigenvectors x(1..m) satisfying, for every mode k,

    contract_excluding(A, x, k) = lambda * conj(x(k)),

through one loop, ``_iterate``: x_hat = lambda_prev * (conjugated
contraction) + alpha_k * x, then renormalize. One switch picks Jacobi order
with joint rescaling (squared norms summing to one) or Gauss-Seidel order
with per-vector normalization (later updates of a sweep read earlier ones):

* ``embed``        -- one vector on the symmetric embedding S of A (the two
                      orders coincide; S's gradient is read blockwise from
                      A), split back into A's m mode blocks at the end;
* ``joint``        -- the m mode vectors of A in Jacobi order;
* ``gauss_seidel`` -- the m mode vectors of A in Gauss-Seidel order.

The shift is scale-free: alpha_k = c * p * |lambda_{k-1}|^2, with p = m for
joint, p = 1 for embed and p = 0 for Gauss-Seidel. At an eigenpair the
update term is |lambda|^2 x for embed and m |lambda|^2 x for joint, so c is
the shift relative to it, whatever the scale or order of A. Each start keeps
its own c, starting at ``SolverConfig.alpha``, and doubles it whenever
|lambda| falls by more than a relative 1e-8 in one step: the shifted
iteration ascends monotonically once the shift is large enough (SS-HOPM and
its adaptive-shift form GEAP, Kolda & Mayo 2011 and 2014), and a start whose
c is too small can otherwise cycle. Embed's shift c |lambda_S|^2 is joint's
times m!(m-1)!, the factor between their update terms, so embed and joint
produce identical iterates. Gauss-Seidel takes no shift: each of its mode
updates maximizes |lambda| over that mode with the others fixed (an
alternating least-squares step), so it ascends unshifted, and any shift only
slows it. All three finish alike, in ``_finish``, and are checked by the
same residual rule below.

A run is a batch of K starts from end to end. The starts are drawn (each
from its own generator, as ``random_start`` draws them), stacked per mode
and checked as one batch. In the loop each mode's iterate is a (K, n_i)
array and lambda a length-K array, so one pass advances every live start,
and a start leaves the batch when it converges, breaks down, reaches a zero
eigenvalue (where the shift vanishes too) or reaches ``max_iter``. The
finished starts are phase-corrected, normalized and checked by residual in
one stacked pass. Every batched step (the stacked contraction, the row dots
and norms, the shift) makes, per row, the same BLAS call and arithmetic as a
lone start, so each start's result is bitwise what it is alone, whatever K.
``solve`` and the single-start solvers are the batch of one, through the
same start check and finish; ``multi_start`` runs its starts in chunks that
keep the first contraction near 2 MB. Each start's trace keeps lambda and
the step error as two columns; ``IterationTrace.steps`` is derived from them.

Convergence detection: an iteration stops once the eigenvalue-magnitude
increment | |lam_k| - |lam_{k-1}| | is below ``tol`` *and* every vector
moved by less than ``tol`` (``tol / m`` for embed and joint) since the
previous iteration. The displacement condition is needed because the
eigenvalue estimate is stationary in the iterates: its increments fall
below tol while the eigenvector error is still near sqrt(tol), which would
leave residuals orders of magnitude above the eigenvalue accuracy. Both
halves can still pass far from an eigenpair when the iterate barely moves
(a large c damps every step), so a stop whose verified residual
exceeds 100 tol max(1, lam) has status ``"stalled"``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .tensor import (
    _CHUNK_ENTRIES,
    ComplexTensor,
    RankOneFactors,
    _as_vectors,
    _check_factor_dims,
    _contract_excluding,
    _dot_rows,
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
    k is c * p * |lambda_{k-1}|^2 (p = m for joint, 1 for embed, 0 for
    Gauss-Seidel), and a start doubles its c whenever |lambda| falls (see
    the module docstring).
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


def _principal_root(w: complex, m: int) -> complex:
    """Principal m-th root: argument in (-pi/m, pi/m]."""
    return complex(w) ** (1.0 / m)


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
    """Max over modes of || contract_excluding(A, x, k) - lambda conj(x(k)) ||."""
    rows = [v[None] for v in pair.factors.vectors]
    return _residuals(np.conj(A.data), [pair.eigenvalue], rows)[0]


def _row_norms(U: np.ndarray) -> np.ndarray:
    """The norm of each row of U, bitwise ``np.linalg.norm`` of the row
    alone: the same two strided dots (``np.linalg.norm(U, axis=1)`` sums
    differently)."""
    re, im = U.real, U.imag
    return np.sqrt(_dot_rows(re, re) + _dot_rows(im, im))


def _iterate(
    value: Callable[[list[np.ndarray]], tuple[np.ndarray, np.ndarray]],
    contract: Callable[[list[np.ndarray], int], np.ndarray],
    rows: list[np.ndarray],
    scale: float,
    power: int,
    tol: float,
    disp_tol: float,
    max_iter: int,
    record_iterates: bool,
    gauss_seidel: bool,
) -> list:
    """The shifted power iteration of the module docstring, on K starts.

    ``rows[i]`` holds the mode-i vectors of the starts, one per row.
    ``value(rows)`` returns the eigenvalue estimates of the rows and the
    contraction they were read from, the one that updates mode 0 next;
    ``contract(rows, i)`` is the contraction that updates mode i >= 1.
    Each start's shift is c * ``power`` * |lam|^2, its c starting at
    ``scale`` and doubling whenever |lam| falls. Every row is computed as it
    would be alone. A start leaves the batch when it converges, breaks down,
    reaches a zero eigenvalue or reaches ``max_iter``.

    Returns, per start, its final vectors, eigenvalue estimate and trace,
    or the ``SolverError`` that ended it.
    """
    live = list(range(len(rows[0])))  # the start of each row
    results: list = [None] * len(live)
    lam, c0 = value(rows)
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
        # too, and an update can vanish. They are zeroed so they cannot
        # disturb the rest of the step, and removed with the error they
        # raise alone.
        broken = {j: finish(j) for j in np.flatnonzero(lam == 0).tolist()}
        # Gauss-Seidel (power 0) adds no shift term at all.
        shift = (scales * power * abs_lam**2)[:, None] if power else None
        lam_col = lam[:, None]
        previous = list(rows)
        if gauss_seidel:
            for i in range(len(rows)):
                update = lam_col * np.conj(c0 if i == 0 else contract(rows, i))
                if power:
                    update += shift * rows[i]
                nrm = _row_norms(update)
                if 0.0 in nrm.tolist():
                    # Embed iterates one vector, which has no mode to name.
                    what = f"update for mode {i + 1}" if len(rows) > 1 else "update vector"
                    for j in np.flatnonzero(nrm == 0).tolist():
                        broken.setdefault(j, BreakdownError(f"{what} vanished at iteration {k}"))
                    nrm[nrm == 0] = 1.0
                update /= nrm[:, None]
                rows[i] = update
        else:
            updates = [
                lam_col * np.conj(c0 if i == 0 else contract(rows, i)) + shift * X
                for i, X in enumerate(rows)
            ]
            squares = [_dot_rows(np.conj(u), u).real.tolist() for u in updates]
            totals = [math.sqrt(sum(sq)) for sq in zip(*squares)]
            for j in [j for j, t in enumerate(totals) if t == 0.0]:
                broken.setdefault(
                    j, BreakdownError(f"all update vectors vanished at iteration {k}")
                )
                totals[j] = 1.0
            total = np.array(totals)[:, None]
            rows = [u / total for u in updates]
        lam, c0 = value(rows)
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
            moves = [_row_norms(X - P).tolist() for X, P in zip(rows, previous)]
            displacements = map(max, zip(*moves))
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
    A: ComplexTensor, cfg: SolverConfig, algorithm: str, conj_data: np.ndarray,
    outcomes: list,
) -> list:
    """The eigenpairs of A from finished iterations, checked by residual.

    ``outcomes`` are ``_iterate``'s; its errors pass through. Every other
    start is finished in one stacked pass, each row bitwise as alone: the
    iterate is rotated by a principal m-th root of |lam| / lam, embed's one
    vector is split into A's m mode blocks, and the factors are the vectors
    rescaled to unit norm. A vector or block that vanished there raises
    ``BreakdownError`` for its start. The eigenvalue is |lam| times
    (sqrt(m))^m / m! for embed, (sqrt(m))^m for joint and 1 for Gauss-Seidel.
    A converged trace whose residual exceeds 100 tol max(1, eigenvalue)
    stopped without an eigenpair and is marked "stalled". The residual scales
    with A, hence the factor max(1, eigenvalue).
    """
    done = [j for j, outcome in enumerate(outcomes) if not isinstance(outcome, SolverError)]
    if not done:
        return outcomes
    m = A.order
    vecs, lams, traces = zip(*(outcomes[j] for j in done))
    phases = np.array([_principal_root(abs(lam) / lam, m) for lam in lams])[:, None]
    rows = [phases * np.stack(col) for col in zip(*vecs)]
    if algorithm == "embed":
        rows = np.split(rows[0], np.cumsum(A.dims[:-1]), axis=1)
        scale = math.sqrt(m) ** m / math.factorial(m)
    else:
        scale = math.sqrt(m) ** m if algorithm == "joint" else 1.0
    broken = {}
    factors = []
    for i, X in enumerate(rows):
        nrm = _row_norms(X)
        if 0.0 in nrm.tolist():
            what = "block" if algorithm == "embed" else "vector"
            for j in np.flatnonzero(nrm == 0).tolist():
                broken.setdefault(j, BreakdownError(f"final {what} for mode {i + 1} vanished"))
            nrm[nrm == 0] = 1.0
        factors.append(X / nrm[:, None])
    eigenvalues = [scale * abs(lam) for lam in lams]
    residuals = _residuals(conj_data, eigenvalues, factors)
    results = list(outcomes)
    for j, (eigenvalue, res, trace) in enumerate(zip(eigenvalues, residuals, traces)):
        if j in broken:
            results[done[j]] = broken[j]
            continue
        if algorithm == "embed" and trace.iterates is not None:
            trace.iterates = [it for (it,) in trace.iterates]
        if trace.converged and res > 100 * cfg.tol * max(1.0, eigenvalue):
            trace.status = "stalled"
        pair_factors = RankOneFactors(tuple(F[j] for F in factors))
        results[done[j]] = UEigenpair(eigenvalue, pair_factors, res, trace)
    return results


def _solve_batch(
    A: ComplexTensor, cfg: SolverConfig, algorithm: str, rows: list[np.ndarray],
    record_iterates: bool = False,
) -> list:
    """Run ``algorithm`` from K starts, ``rows[i]`` holding their vector i
    one per row, in chunks that keep the first contraction near 2 MB; per
    start, its eigenpair or the ``SolverError`` that ended it."""
    _check_starts(A, algorithm, rows)
    m = A.order
    conj_data = np.conj(A.data)
    if algorithm == "embed":
        bounds = np.cumsum((0,) + A.dims).tolist()
        scale = math.factorial(m - 1)

        def value(rows):
            # Block i of the gradient of S at x is (m-1)! times A contracted
            # with the other blocks of x: one blockwise pass per step.
            (x,) = rows
            blocks = [x[:, a:b] for a, b in zip(bounds, bounds[1:])]
            grad = scale * np.concatenate(
                [_contract_excluding(conj_data, blocks, i) for i in range(m)], axis=1
            )
            return _dot_rows(grad, x), grad
    else:

        def value(rows):
            c0 = _contract_excluding(conj_data, rows, 0)
            return _dot_rows(rows[0], c0), c0
    # Embed and joint return their iterates rescaled by sqrt(m); settling
    # the iterates m times tighter keeps their accuracy at tol with margin.
    disp_tol = cfg.tol if algorithm == "gauss_seidel" else cfg.tol / m
    # At an eigenpair joint's update term is m |lam|^2 x, embed's |lam|^2 x;
    # the Gauss-Seidel sweep ascends unshifted.
    power = {"joint": m, "embed": 1, "gauss_seidel": 0}[algorithm]
    chunk = max(1, _CHUNK_ENTRIES // math.prod(A.dims[:-1]))
    outcomes = []
    for first in range(0, len(rows[0]), chunk):
        outcomes += _finish(A, cfg, algorithm, conj_data, _iterate(
            value, partial(_contract_excluding, conj_data),
            [X[first:first + chunk] for X in rows], cfg.alpha, power, cfg.tol,
            disp_tol, cfg.max_iter, record_iterates, gauss_seidel=algorithm != "joint",
        ))
    return outcomes


def _solve_one(
    A: ComplexTensor, cfg: SolverConfig, algorithm: str, start,
    record_iterates: bool = False,
) -> UEigenpair:
    """``algorithm`` from one start: the batch of one, its error raised."""
    (outcome,) = _solve_batch(
        A, cfg, algorithm, _start_rows(A, algorithm, start), record_iterates
    )
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

    ``start`` is a unit vector of length sum(dims). S is never built: block i
    of its gradient is (m-1)! times A contracted with the other blocks of x.
    The eigenvalue of A is (sqrt(m))^m / m! * |lam|, its factors the blocks
    of x rescaled to unit norm.
    """
    return _solve_one(A, cfg, "embed", start, record_iterates)


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
    return _solve_one(A, cfg, "joint", start, record_iterates)


def solve_gauss_seidel(
    A: ComplexTensor,
    cfg: SolverConfig,
    start: RankOneFactors | Sequence[np.ndarray],
    record_iterates: bool = False,
) -> UEigenpair:
    """Gauss-Seidel sweep: modes updated in order with immediate per-vector
    normalization, each update using the vectors already refreshed in the
    current sweep. ``start`` holds one unit vector per mode."""
    return _solve_one(A, cfg, "gauss_seidel", start, record_iterates)


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


def solve(A: ComplexTensor, cfg: SolverConfig, start, **kwargs) -> UEigenpair:
    """Run the algorithm selected by ``cfg.algorithm`` from ``start``."""
    return _solve_one(A, cfg, cfg.algorithm, start, **kwargs)


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
    outcomes = _solve_batch(A, cfg, cfg.algorithm, _random_rows(rngs, A.dims, cfg.algorithm))
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
