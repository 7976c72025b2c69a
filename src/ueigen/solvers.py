"""Shifted power iterations for unitary eigenpairs of complex tensors.

Three algorithms compute the same quantity, the largest unitary eigenvalue
lambda with per-mode unit eigenvectors x(1..m) satisfying, for every mode k,

    contract_excluding(A, x, k) = lambda * conj(x(k)),

through one loop, ``_iterate``, whose update rule is one function,
``_update``: x_hat = lambda_prev * (conjugated contraction) + alpha_k * x,
then renormalize. One switch, read only in ``_update``, picks Jacobi order
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

A run is a batch of K starts, one (K, sum n_i) array with a start a row
from end to end: the starts are drawn into it (each from its own generator,
as ``random_start`` draws it), checked, iterated and finished. Its mode
blocks are views, and lambda a length-K array, so one pass advances
every live start (joint and embed update, norm and rescale it whole),
and a start leaves the batch when it converges, breaks down, reaches a zero
eigenvalue (where the shift vanishes too) or a NaN one (an overflow), or
reaches ``max_iter``. The loop keeps this bookkeeping, the shift safeguard
and the stop rule; ``_update`` only maps each step's iterate to the next. The
finished starts are phase-corrected, normalized and checked by residual in
one stacked pass. Each step builds one right chain, A with modes m-1 down
to k+1 contracted for every k, and mode k adds only its leading products
(the trailing half of a dimension tree, Phan, Tichavsky & Cichocki 2013).
One kernel, ``tensor._overlaps``, builds the chain and reads lambda from
its link 0, for the loop's start, every step and ``overlap`` alike; the
loop drops the old chain first, so two are never held at once. Every
batched step (the contractions, the row dots and norms, the shift) makes,
per row, the same BLAS call and arithmetic as a lone start, so each
start's result is bitwise what it is alone, whatever K. ``solve`` and the
single-start solvers are the batch of one, through the same start check and finish;
``multi_start`` runs its starts in chunks whose chains hold about 2 MB.
Each start's trace keeps lambda and the step error as two columns;
``IterationTrace.steps`` is derived from them.

Convergence detection: an iteration stops once the eigenvalue-magnitude
increment | |lam_k| - |lam_{k-1}| | is below ``tol`` *and* every vector
moved by less than ``tol`` (``tol / m`` for embed and joint) since the
previous iteration; embed's lambda is lambda_S, and its one vector moves by
the root sum of squares of its block moves. The moves are measured mode by
mode while some start can still stop: the starts whose increment is below
tol are the candidates, each mode drops those that moved too far, and the
measuring ends once none is left. A start that stops has had every move
measured. The displacement condition is
needed because the eigenvalue estimate is stationary in the iterates: its
increments fall below tol while the eigenvector error is still near
sqrt(tol), which would leave residuals orders of magnitude above the
eigenvalue accuracy. Both halves can still pass far from an eigenpair when
the iterate barely moves (a large c damps every step), so a stop whose
verified residual exceeds 100 tol max(1, lam) has status ``"stalled"``.
"""

from __future__ import annotations

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
    _contract_leading,
    _is_integer,
    _joint_norms,
    _overlaps,
    _right_chain,
    _row_norms,
    _scaled_conj,
    _spans,
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
        for name in ("max_iter", "starts", "seed"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
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


def _start_rows(A: ComplexTensor, algorithm: str, start) -> np.ndarray:
    """One ``solve`` start as a batch of one: its contiguous (1, sum n_i)
    row, checked later by ``_check_starts`` like every other batch."""
    if algorithm == "embed":
        return np.ascontiguousarray(start, dtype=np.complex128).reshape(1, -1)
    vecs = _as_vectors(start)
    _check_factor_dims(A, vecs)
    return np.concatenate(vecs)[None]


def _check_starts(A: ComplexTensor, algorithm: str, V: np.ndarray):
    """Check K starts, one per row of V, against the normalization that
    ``algorithm`` iterates in (see ``random_start``)."""
    if algorithm == "embed":
        if A.order < 2:
            raise ValueError("symmetric embedding needs an order >= 2 tensor")
        n = sum(A.dims)
        if V.shape[1] != n:
            raise ValueError(f"start has length {V.shape[1]}, embedding size is {n}")
    # Written as "not within" so that a NaN norm fails too.
    if algorithm == "joint":
        if not np.all(np.abs(_joint_norms(V, A.dims) - 1.0) <= 1e-8):
            raise ValueError("start factors must be jointly normalized")
        return
    for i, s in enumerate(_spans([V.shape[1]] if algorithm == "embed" else A.dims), start=1):
        if not np.all(np.abs(_row_norms(V[:, s]) - 1.0) <= 1e-8):
            raise ValueError(
                "start vector must have unit norm" if algorithm == "embed"
                else f"start vector for mode {i} must have unit norm"
            )


def _residuals(conj_data: np.ndarray, eigenvalues, V: np.ndarray) -> list[float]:
    """Per row j of V, the vectors x_j side by side: max over modes k of
    || contract_excluding(A, x_j, k) - eigenvalues[j] conj(x_j(k)) ||, read
    from one right chain, each row bitwise what it is alone."""
    eig = np.array(eigenvalues, dtype=float)[:, None]
    rows = [V[:, s] for s in _spans(conj_data.shape)]
    chain = _right_chain(conj_data, rows)
    norms = [
        _row_norms(_contract_leading(chain[k], rows, k) - eig * np.conj(X)).tolist()
        for k, X in enumerate(rows)
    ]
    return [max(0.0, *worst) for worst in zip(*norms)]


def residual(A: ComplexTensor, pair: UEigenpair) -> float:
    """Max over modes of || contract_excluding(A, x, k) - lambda conj(x(k)) ||:
    ``_finish``'s residual for one pair, on conj(A) 2^-e and scaled back, so
    finite at any scale of A and bitwise a solver's ``pair.residual``. Factors
    that do not match A's order and dims raise ``ValueError``."""
    _check_factor_dims(A, pair.factors.vectors)
    conj_data, exponent = _scaled_conj(A)
    gain = 2.0**exponent
    V = np.concatenate(pair.factors.vectors)[None]
    return _residuals(conj_data, [pair.eigenvalue / gain], V)[0] * gain


def _vanished(nrm: np.ndarray, broken: dict, what: str, *args) -> np.ndarray:
    """The row norms ``nrm`` as a column to divide by. A row whose norm is
    zero gets 1 instead, and ``broken`` its ``BreakdownError(what.format(*args))``
    unless it already holds an error for that row."""
    if 0.0 in nrm.tolist():
        for j in np.flatnonzero(nrm == 0).tolist():
            broken.setdefault(j, BreakdownError(what.format(*args)))
        nrm[nrm == 0] = 1.0
    return nrm[:, None]


def _update(algorithm: str, chain: list, V: np.ndarray, rows: list[np.ndarray],
            lam: np.ndarray, abs_lam: list[float], scales: np.ndarray, ending: dict,
            k: int) -> np.ndarray:
    """Step k's new (K, sum n_i) iterate from V, its mode blocks ``rows``,
    their right ``chain``, lam, |lam| and shift scales c. Gauss-Seidel sweeps
    unshifted, each vector normalized at once and read by the later modes,
    mode i reading the chain's old vectors i+1..m-1; joint and embed update
    all of V at once, lam conj(C) + c m |lam|^2 V with C the modes'
    contractions side by side, and normalize jointly. A row whose update
    vanished gets its ``BreakdownError`` in ``ending``."""
    lam_col = lam[:, None]
    if algorithm == "gauss_seidel":
        new = []
        for i in range(len(rows)):
            update = lam_col * np.conj(_contract_leading(chain[i], new, i))
            what = "update for mode {} vanished at iteration {}"
            update /= _vanished(_row_norms(update), ending, what, i + 1, k)
            new.append(update)
        return np.concatenate(new, axis=1)
    C = np.concatenate([_contract_leading(chain[i], rows, i) for i in range(len(rows))], axis=1)
    U = lam_col * np.conj(C, out=C)
    U += (scales * len(rows) * np.square(abs_lam))[:, None] * V
    what = "all update vectors vanished at iteration {}"
    U /= _vanished(_joint_norms(U, [X.shape[1] for X in rows]), ending, what, k)
    return U


def _iterate(
    conj_data: np.ndarray,
    V: np.ndarray,
    algorithm: str,
    scale: float,
    tol: float,
    disp_tol: float,
    max_iter: int,
    record_iterates: bool,
) -> list:
    """The shifted power iteration of the module docstring, on K starts.

    V holds the starts, one per row, as the (K, sum n_i) iterate.
    ``conj_data`` is the conjugated tensor they are contracted with. The
    loop keeps V, its mode blocks as column views: these need unit element
    stride and may have any row stride, so V may be a row or column slice of
    a wider array. Each step's new V comes from ``_update``, and each
    iterate's right chain and lam from ``tensor._overlaps``. The loop keeps
    the rest. Each start's c starts at ``scale`` and doubles whenever |lam|
    falls. A start stops once its step error is below ``tol`` and its every
    vector move below ``disp_tol``; embed's blocks move as one vector, and
    the moves are measured mode by mode, for the starts that can still stop.
    Every row is computed as it would be alone. A start leaves the batch
    when it converges, breaks down, reaches a zero or NaN eigenvalue or
    reaches ``max_iter``.

    Returns, per start, a copy of its final row, its eigenvalue estimate
    and trace, or the ``SolverError`` that ended it.
    """
    spans = _spans(conj_data.shape)
    rows = [V[:, s] for s in spans]
    live = list(range(len(V)))  # the start of each row
    results: list = [None] * len(live)
    chain, lam = _overlaps(conj_data, rows)
    traces = [IterationTrace([lam_j], [None]) for lam_j in lam.tolist()]
    if record_iterates:
        for j, trace in enumerate(traces):
            trace.iterates = [V[j].copy()]
    abs_lam = [abs(trace.lams[0]) for trace in traces]
    scales = np.full(len(live), float(scale))

    def finish(j):
        lam_j = complex(lam[j])
        if lam_j == 0:
            return ZeroEigenvalueError("iteration terminated at a zero eigenvalue")
        traces[live[j]].shift_scale = float(scales[j])
        return V[j].copy(), lam_j, traces[live[j]]

    for k in range(1, max_iter + 1):
        # The rows that end this step, with their outcomes: first those that
        # cannot update, at a zero eigenvalue (the shift is zero too) or a
        # NaN one after an overflow (``_finish`` reports it), as if alone.
        ending = {j: finish(j) for j, a in enumerate(abs_lam) if not a > 0}
        P, previous = V, rows
        V = _update(algorithm, chain, V, rows, lam, abs_lam, scales, ending, k)
        rows = [V[:, s] for s in spans]
        del chain  # first, so that two chains are never held at once
        chain, lam = _overlaps(conj_data, rows)
        lams = lam.tolist()
        abs_new = [abs(lam_j) for lam_j in lams]
        # The safeguard: a start whose |lam| fell by more than rounding
        # doubles its c, as the monotone shifted iteration needs.
        fell = [a < (1.0 - _DESCENT_TOL) * b for a, b in zip(abs_new, abs_lam)]
        if any(fell):
            scales[np.array(fell)] *= 2.0
        step_errors = [abs(a - b) for a, b in zip(abs_new, abs_lam)]
        abs_lam = abs_new
        # Stop candidates: step error below tol (NaN never is); each mode's
        # move then drops those that moved too far, while any are left.
        stopping = {j for j, e in enumerate(step_errors) if e < tol and j not in ending}
        for X, Y in [(V, P)] if algorithm == "embed" else zip(rows, previous):
            if not stopping:
                break
            disp = _row_norms(X - Y).tolist()
            stopping = {j for j in stopping if disp[j] < disp_tol}
        for j, (lam_j, step_error) in enumerate(zip(lams, step_errors)):
            if j in ending:
                continue
            trace = traces[live[j]]
            trace.lams.append(lam_j)
            trace.step_errors.append(step_error)
            if record_iterates:
                trace.iterates.append(V[j].copy())
            if j in stopping:
                trace.status = "converged"
                ending[j] = finish(j)
        if ending:
            for j, outcome in ending.items():
                results[live[j]] = outcome
            keep = np.ones(len(live), dtype=bool)
            keep[list(ending)] = False
            if not keep.any():
                return results
            V = V[keep]
            rows = [V[:, s] for s in spans]
            lam = lam[keep]
            abs_lam = [a for a, kept in zip(abs_lam, keep) if kept]
            scales = scales[keep]
            # The last link is conj_data[None], one row for all.
            chain = [t[keep] for t in chain[:-1]] + chain[-1:]
            live = [s for s, kept in zip(live, keep) if kept]

    for j in range(len(live)):
        results[live[j]] = finish(j)
    return results


def _finish(
    A: ComplexTensor, cfg: SolverConfig, conj_data: np.ndarray, outcomes: list,
    exponent: int = 0,
) -> list:
    """The eigenpairs of A from finished iterations, checked by residual.

    ``outcomes`` are ``_iterate``'s on ``conj_data`` = conj(A) 2^-exponent.
    One pass passes their errors through and turns a start whose eigenvalue
    or iterate is not finite (an overflow) into a ``SolverError``. The
    others' lambdas and traces go back to A's units (lambda_S = m! lambda
    for embed; joint's and Gauss-Seidel's iterates are split into their
    vectors) and finish in one stacked pass, each row bitwise as alone: the
    iterate is rotated by a principal m-th root of |lam| / lam, and the
    factors are its blocks rescaled to unit norm, one that vanished being a
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
    index = [j for j, outcome in enumerate(outcomes) if not isinstance(outcome, SolverError)]
    if not index:
        return results
    V = np.array([outcomes[j][0] for j in index])
    done = []
    for row, (j, finite) in enumerate(zip(index, np.isfinite(V).all(axis=1).tolist())):
        _, lam, trace = outcomes[j]
        lam = unit * lam if unit != 1.0 else lam
        if math.isfinite(scale * abs(lam)) and finite:
            done.append((j, row, lam, trace))
        else:
            # The iteration overflowed: a numerical failure of the start, not
            # an input error. The other starts finish without it.
            results[j] = SolverError(
                "the iteration overflowed: its final eigenvalue or iterate is not finite"
            )
    if not done:
        return results
    index, picked, lams, traces = zip(*done)
    if unit != 1.0:
        for trace in traces:
            trace.lams = [unit * lam for lam in trace.lams]
            trace.step_errors = [None] + [unit * e for e in trace.step_errors[1:]]
    phases = np.array([complex(abs(lam) / lam) ** (1.0 / m) for lam in lams])[:, None]
    V = phases * V[list(picked)]
    spans = _spans(A.dims)
    broken = {}
    what = "final " + ("block" if embed else "vector") + " for mode {} vanished"
    for i, s in enumerate(spans, start=1):
        V[:, s] /= _vanished(_row_norms(V[:, s]), broken, what, i)
    eigenvalues = [scale * abs(lam) for lam in lams]
    residuals = _residuals(conj_data, [e / gain for e in eigenvalues], V)
    for row, (j, eigenvalue, res, trace) in enumerate(zip(index, eigenvalues, residuals, traces)):
        if row in broken:
            results[j] = broken[row]
            continue
        res *= gain
        if not embed and trace.iterates is not None:
            trace.iterates = [[it[s] for s in spans] for it in trace.iterates]
        if trace.converged and res > 100 * cfg.tol * max(1.0, eigenvalue):
            trace.status = "stalled"
        pair_factors = RankOneFactors(tuple(V[row, s] for s in spans))
        results[j] = UEigenpair(eigenvalue, pair_factors, res, trace)
    return results


def _solve_batch(
    A: ComplexTensor, cfg: SolverConfig, V: np.ndarray, record_iterates: bool = False,
) -> list:
    """Run ``cfg.algorithm`` from K starts, one per row of V, in chunks of
    rows whose chains (sum(prod(dims[:k]), k = 1..m-1) entries a start) hold
    about 2 MB; per start, its eigenpair or the ``SolverError`` that ended
    it. A chunk peaks at its chain plus the last mode's first leading
    product, prod(dims[1:]) entries a start."""
    _check_starts(A, cfg.algorithm, V)
    m = A.order
    conj_data, exponent = _scaled_conj(A)
    tol = cfg.tol * 2.0**-exponent
    if cfg.algorithm == "embed":
        tol /= math.factorial(m)  # joint's loop on embed's blocks: |lam_S| = m! |lam|
    # Embed and joint return their iterates rescaled by sqrt(m); settling
    # the iterates m times tighter keeps their accuracy at tol with margin.
    disp_tol = cfg.tol if cfg.algorithm == "gauss_seidel" else cfg.tol / m
    chunk = max(1, _CHUNK_ENTRIES // (sum(math.prod(A.dims[:k]) for k in range(1, m)) or 1))
    outcomes = []
    for first in range(0, len(V), chunk):
        outcomes += _finish(A, cfg, conj_data, _iterate(
            conj_data, V[first:first + chunk], cfg.algorithm, cfg.alpha,
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
) -> np.ndarray:
    """One ``random_start`` per generator, as the (K, sum n_i) batch with
    one start per row: the same draws and, per row, the same normalization,
    bitwise: one draw of 2 sum(n_i) normals a start, sliced in its order,
    as a stream does not depend on how calls split it."""
    sizes = [int(sum(dims))] if algorithm == "embed" else [int(d) for d in dims]
    parts = np.empty((len(rngs), 2 * sum(sizes)))
    for j, rng in enumerate(rngs):
        rng.standard_normal(out=parts[j])
    V = np.empty((len(rngs), sum(sizes)), dtype=np.complex128)
    for s, n in zip(_spans(sizes), sizes):  # each vector's real, then imaginary parts
        X = parts[:, 2 * s.start:2 * s.start + n] + 1j * parts[:, 2 * s.start + n:2 * s.stop]
        V[:, s] = X if algorithm == "joint" else X / _row_norms(X)[:, None]
    if algorithm == "joint":
        V /= _joint_norms(V, sizes)[:, None]
    return V


def random_start(rng: np.random.Generator, dims: Sequence[int], algorithm: str):
    """Draw a starting point in the normalization the algorithm expects.

    Every component has independent standard-normal real and imaginary
    parts (each vector's real, then imaginary parts, mode by mode); the
    result is normalized to unit norm for ``embed``, jointly for ``joint``,
    per vector for ``gauss_seidel``. ``multi_start`` draws its starts as a
    batch of these.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    x = _random_rows([rng], dims, algorithm)[0]
    return x if algorithm == "embed" else RankOneFactors(tuple(x[s] for s in _spans(dims)))


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
    iterated and finished together, in chunks whose chains hold about 2 MB
    and which peak at the chain plus one leading product (``_solve_batch``);
    each start's result is bitwise the one it gets alone, whatever the
    number of starts, the chunking or the other starts' failures. A failed
    start is recorded and skipped; the sweep fails only if every start
    fails. The best eigenpair is the one with the largest eigenvalue, first
    occurrence winning ties.
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
