"""Shifted power iterations for unitary eigenpairs of complex tensors.

Three algorithms compute the same quantity, the largest unitary eigenvalue
lambda with per-mode unit eigenvectors x(1..m) satisfying, for every mode k,

    contract_excluding(A, x, k) = lambda * conj(x(k)),

through one loop, ``_iterate``: x_hat = lambda_prev * (conjugated
contraction) + alpha * x, then renormalize. One switch picks Jacobi order
with joint rescaling (squared norms summing to one) or Gauss-Seidel order
with per-vector normalization (later updates of a sweep read earlier ones):

* ``embed``        -- one vector on the symmetric embedding S of A (the two
                      orders coincide; S's gradient is read blockwise from
                      A), then converted back to A;
* ``joint``        -- the m mode vectors of A in Jacobi order;
* ``gauss_seidel`` -- the m mode vectors of A in Gauss-Seidel order.

With matched shifts (alpha_embedded = m!(m-1)! alpha) the embed and joint
iterations produce identical iterates; the Gauss-Seidel sweep is distinct
and typically converges in far fewer iterations.

Convergence detection: an iteration stops once the eigenvalue-magnitude
increment | |lam_k| - |lam_{k-1}| | is below ``tol`` (the ``check_stop``
criterion) *and* every vector moved by less than ``tol`` (``tol / m`` for
embed and joint) since the previous iteration. The displacement condition
is needed because the eigenvalue estimate is stationary in the iterates:
its increments fall below tol while the eigenvector error is still near
sqrt(tol), which would leave residuals orders of magnitude above the
eigenvalue accuracy. Both halves can still pass far from an eigenpair when
the iterate barely moves (joint's lam scales like sqrt(m)^-m), so a stop
whose verified residual exceeds 100 tol max(1, lam) has status
``"stalled"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .embedding import lift_eigenpair, shift_to_embedded
from .tensor import ComplexTensor, RankOneFactors, _contract_all, _contract_excluding

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
    "check_stop",
    "multi_start",
    "random_start",
]

ALGORITHMS = ("embed", "joint", "gauss_seidel")


class SolverError(RuntimeError):
    """Numerical failure of a solver run."""


class ZeroEigenvalueError(SolverError):
    """The iteration terminated at a zero eigenvalue; no phase correction
    or eigenpair conversion is possible."""


class BreakdownError(SolverError):
    """An update vector vanished, so normalization is undefined."""


@dataclass(frozen=True)
class SolverConfig:
    """Settings shared by all algorithms.

    ``alpha`` is the source-side shift; the embed algorithm converts it with
    ``shift_to_embedded`` so that runs are comparable across algorithms.
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
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
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
    """Per-step eigenvalue history plus the termination status."""

    steps: list[IterationStep] = field(default_factory=list)
    status: str = "max_iter_reached"  # or "converged" or "stalled"
    iterates: list | None = None  # populated when record_iterates is set

    @property
    def iterations(self) -> int:
        return self.steps[-1].k if self.steps else 0

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def record(self, k: int, lam: complex, step_error: float | None):
        self.steps.append(IterationStep(k, lam, abs(lam), step_error))


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


def check_stop(lambdas: Sequence[complex], tol: float) -> bool:
    """True once the last two eigenvalue magnitudes differ by less than tol."""
    if len(lambdas) < 2:
        raise ValueError("need at least two eigenvalue estimates")
    return abs(abs(lambdas[-1]) - abs(lambdas[-2])) < tol


def _principal_root(w: complex, m: int) -> complex:
    """Principal m-th root: argument in (-pi/m, pi/m]."""
    return complex(w) ** (1.0 / m)


def _vector_list(start, dims) -> list[np.ndarray]:
    vecs = start.vectors if isinstance(start, RankOneFactors) else start
    out = [np.asarray(v, dtype=np.complex128).reshape(-1).copy() for v in vecs]
    if len(out) != len(dims) or any(v.shape[0] != d for v, d in zip(out, dims)):
        raise ValueError("start factors do not match the tensor dimensions")
    return out


def _residual_vectors(A: ComplexTensor, lam: float, vecs: Sequence[np.ndarray]) -> float:
    conj_data = np.conj(A.data)
    worst = 0.0
    for k0 in range(A.order):
        dev = _contract_excluding(conj_data, vecs, k0) - lam * np.conj(vecs[k0])
        worst = max(worst, float(np.linalg.norm(dev)))
    return worst


def residual(A: ComplexTensor, pair: UEigenpair) -> float:
    """Max over modes of || contract_excluding(A, x, k) - lambda conj(x(k)) ||."""
    return _residual_vectors(A, pair.eigenvalue, pair.factors.vectors)


def _iterate(
    value: Callable[[list[np.ndarray]], complex],
    contract: Callable[[list[np.ndarray], int], np.ndarray],
    vecs: list[np.ndarray],
    alpha: float,
    tol: float,
    disp_tol: float,
    max_iter: int,
    record_iterates: bool,
    gauss_seidel: bool,
) -> tuple[list[np.ndarray], complex, IterationTrace]:
    """The shifted power iteration of the module docstring.

    ``value(vecs)`` is the eigenvalue estimate of an iterate and
    ``contract(vecs, i)`` the contraction whose conjugate updates vector i.
    Returns the final vectors, eigenvalue estimate and trace.
    """
    trace = IterationTrace(iterates=[] if record_iterates else None)
    lam = value(vecs)
    trace.record(0, lam, None)
    if record_iterates:
        trace.iterates.append([v.copy() for v in vecs])

    for k in range(1, max_iter + 1):
        if gauss_seidel:
            displacement = 0.0
            for i in range(len(vecs)):
                update = lam * np.conj(contract(vecs, i)) + alpha * vecs[i]
                nrm = float(np.linalg.norm(update))
                if nrm == 0.0:
                    raise BreakdownError(
                        f"update for mode {i + 1} vanished at iteration {k}"
                    )
                update /= nrm
                displacement = max(displacement, float(np.linalg.norm(update - vecs[i])))
                vecs[i] = update
        else:
            updates = [
                lam * np.conj(contract(vecs, i)) + alpha * v for i, v in enumerate(vecs)
            ]
            total = math.sqrt(sum(float(np.real(np.vdot(u, u))) for u in updates))
            if total == 0.0:
                raise BreakdownError(f"all update vectors vanished at iteration {k}")
            new_vecs = [u / total for u in updates]
            displacement = max(
                float(np.linalg.norm(nv - v)) for nv, v in zip(new_vecs, vecs)
            )
            vecs = new_vecs
        new_lam = value(vecs)
        trace.record(k, new_lam, abs(abs(new_lam) - abs(lam)))
        stop = check_stop((lam, new_lam), tol) and displacement < disp_tol
        lam = new_lam
        if record_iterates:
            trace.iterates.append([v.copy() for v in vecs])
        if stop:
            trace.status = "converged"
            break

    if lam == 0:
        raise ZeroEigenvalueError("iteration terminated at a zero eigenvalue")
    return vecs, lam, trace


def _verified(
    A: ComplexTensor, lam: float, factors: RankOneFactors, trace: IterationTrace,
    tol: float,
) -> UEigenpair:
    """The eigenpair with its residual. A converged trace whose residual
    exceeds 100 tol max(1, lam) stopped without an eigenpair and is marked
    "stalled". The residual scales with A, hence the factor max(1, lam)."""
    res = _residual_vectors(A, lam, factors.vectors)
    if trace.converged and res > 100 * tol * max(1.0, lam):
        trace.status = "stalled"
    return UEigenpair(lam, factors, res, trace)


def _phase_corrected(
    A: ComplexTensor, vecs, lam: complex, scale: float, trace: IterationTrace,
    tol: float,
) -> UEigenpair:
    """Eigenpair scale * |lam| with the factors rotated by a principal m-th
    root of |lam| / lam, rescaled to unit norm, and checked by residual."""
    phase = _principal_root(abs(lam) / lam, A.order)
    factors = RankOneFactors.per_vector([phase * v for v in vecs])
    return _verified(A, scale * abs(lam), factors, trace, tol)


def solve_embed(
    A: ComplexTensor,
    cfg: SolverConfig,
    start: np.ndarray,
    record_iterates: bool = False,
) -> UEigenpair:
    """Power iteration on the symmetric embedding S of ``A``, read from A.

    ``start`` is a unit vector of length sum(dims). S is never built: block i
    of its gradient is (m-1)! times A contracted with the other blocks of x.
    The converged embedded eigenpair is phase-corrected and converted back to
    an eigenpair of A; an iterate that does not convert raises ``SolverError``.
    """
    m = A.order
    if m < 2:
        raise ValueError("symmetric embedding needs an order >= 2 tensor")
    x = np.asarray(start, dtype=np.complex128).reshape(-1).copy()
    n = sum(A.dims)
    if x.shape[0] != n:
        raise ValueError(f"start has length {x.shape[0]}, embedding size is {n}")
    if abs(np.linalg.norm(x) - 1.0) > 1e-8:
        raise ValueError("start vector must have unit norm")

    conj_a = np.conj(A.data)
    splits = np.cumsum(A.dims)[:-1]
    grad = None

    def value(vecs):
        # Keeps the gradient for the next update: one blockwise pass per step.
        nonlocal grad
        blocks = np.split(vecs[0], splits)
        grad = math.factorial(m - 1) * np.concatenate(
            [_contract_excluding(conj_a, blocks, i) for i in range(m)]
        )
        return complex(np.dot(grad, vecs[0]))

    # Returned factors are the blocks rescaled by sqrt(m); settling the
    # iterate m times tighter keeps their accuracy at tol with margin.
    (x,), lam, trace = _iterate(
        value, lambda vecs, i: grad, [x], shift_to_embedded(cfg.alpha, m),
        cfg.tol, cfg.tol / m, cfg.max_iter, record_iterates, gauss_seidel=True,
    )
    if record_iterates:
        trace.iterates = [it for (it,) in trace.iterates]

    lambda_s = abs(lam)
    x = _principal_root(lambda_s / lam, m) * x
    try:
        lifted = lift_eigenpair(lambda_s, x, A.dims, check_block_norms=trace.converged)
    except ValueError as exc:
        raise SolverError(str(exc)) from None
    return _verified(A, lifted.eigenvalue, lifted.factors, trace, cfg.tol)


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
    m = A.order
    vecs = _vector_list(start, A.dims)
    total = math.sqrt(sum(float(np.real(np.vdot(v, v))) for v in vecs))
    if abs(total - 1.0) > 1e-8:
        raise ValueError("start factors must be jointly normalized")

    conj_data = np.conj(A.data)
    # Returned factors are the iterates rescaled by sqrt(m); settling the
    # iterates m times tighter keeps their accuracy at tol with margin.
    vecs, lam, trace = _iterate(
        partial(_contract_all, conj_data), partial(_contract_excluding, conj_data),
        vecs, cfg.alpha, cfg.tol, cfg.tol / m, cfg.max_iter, record_iterates,
        gauss_seidel=False,
    )
    return _phase_corrected(A, vecs, lam, math.sqrt(m) ** m, trace, cfg.tol)


def solve_gauss_seidel(
    A: ComplexTensor,
    cfg: SolverConfig,
    start: RankOneFactors | Sequence[np.ndarray],
    record_iterates: bool = False,
) -> UEigenpair:
    """Gauss-Seidel sweep: modes updated in order with immediate per-vector
    normalization, each update using the vectors already refreshed in the
    current sweep. ``start`` holds one unit vector per mode."""
    vecs = _vector_list(start, A.dims)
    for i, v in enumerate(vecs, start=1):
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ValueError(f"start vector for mode {i} must have unit norm")

    conj_data = np.conj(A.data)
    vecs, lam, trace = _iterate(
        partial(_contract_all, conj_data), partial(_contract_excluding, conj_data),
        vecs, cfg.alpha, cfg.tol, cfg.tol, cfg.max_iter, record_iterates,
        gauss_seidel=True,
    )
    return _phase_corrected(A, vecs, lam, 1.0, trace, cfg.tol)


def random_start(rng: np.random.Generator, dims: Sequence[int], algorithm: str):
    """Draw a starting point in the normalization the algorithm expects.

    Every component has independent standard-normal real and imaginary
    parts (real parts drawn first); the result is normalized to unit norm
    for ``embed``, jointly for ``joint``, per vector for ``gauss_seidel``.
    """
    if algorithm == "embed":
        n = int(sum(dims))
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return z / np.linalg.norm(z)
    draws = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
    if algorithm == "joint":
        return RankOneFactors.joint(draws)
    if algorithm == "gauss_seidel":
        return RankOneFactors.per_vector(draws)
    raise ValueError(f"unknown algorithm {algorithm!r}")


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
    solver = {
        "embed": solve_embed,
        "joint": solve_joint,
        "gauss_seidel": solve_gauss_seidel,
    }[cfg.algorithm]
    return solver(A, cfg, start, **kwargs)


def multi_start(A: ComplexTensor, cfg: SolverConfig) -> MultiStartResult:
    """Run the configured solver from ``cfg.starts`` seeded random starts.

    Per-start generators are spawned from SeedSequence(cfg.seed), so the
    result is identical regardless of execution order. A failed start is
    recorded and skipped; the sweep fails only if every start fails. The
    best eigenpair is the one with the largest eigenvalue, first occurrence
    winning ties.
    """
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.starts)
    runs = []
    for index, child in enumerate(children):
        start = random_start(np.random.default_rng(child), A.dims, cfg.algorithm)
        try:
            runs.append(StartResult(index, solve(A, cfg, start), None))
        except SolverError as exc:
            runs.append(StartResult(index, None, str(exc)))
    best = None
    for run in runs:
        if run.ok and (best is None or run.pair.eigenvalue > best.eigenvalue):
            best = run.pair
    if best is None:
        messages = "; ".join(f"start {r.index}: {r.error}" for r in runs)
        raise SolverError(f"every start failed ({messages})")
    return MultiStartResult(best=best, runs=tuple(runs))
