"""Geometric entanglement of multipartite pure states.

A normalized pure state corresponds to a unit-norm complex tensor. Its
entanglement eigenvalue G is the maximal overlap modulus with separable
(product) unit states, which equals the largest unitary eigenvalue of the
tensor; the geometric measure of entanglement is the distance to the
separable set, E = sqrt(2 - 2 G).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .solvers import MultiStartResult, SolverConfig, multi_start
from .tensor import ComplexTensor, RankOneFactors, norm, overlap, rank_one

__all__ = [
    "PureState",
    "AlgorithmStats",
    "GmeReport",
    "gme_from_lambda",
    "analyze",
    "verify_closest",
]

# States further than this from unit norm are rejected instead of rescaled.
RENORM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class PureState:
    """A normalized multipartite pure state backed by a complex tensor.

    Inputs within 1e-6 of unit norm are rescaled exactly; anything further
    off is rejected as not a state.
    """

    tensor: ComplexTensor
    label: str = ""

    def __post_init__(self):
        nrm = norm(self.tensor)
        if abs(nrm - 1.0) > RENORM_TOLERANCE:
            raise ValueError(
                f"state norm {nrm:.8f} deviates from 1 by more than {RENORM_TOLERANCE}"
            )
        if nrm != 1.0:
            object.__setattr__(self, "tensor", ComplexTensor(self.tensor.data / nrm))

    @property
    def dims(self) -> tuple[int, ...]:
        return self.tensor.dims


@dataclass(frozen=True)
class AlgorithmStats:
    eigenvalue: float
    residual: float
    iterations: int
    converged: bool
    seconds: float


@dataclass
class GmeReport:
    """Entanglement eigenvalue, geometric measure, closest product state and
    per-algorithm run statistics."""

    entanglement_eigenvalue: float
    gme: float
    closest_product_state: RankOneFactors
    stats: dict[str, AlgorithmStats] = field(default_factory=dict)
    label: str = ""

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "entanglement_eigenvalue": self.entanglement_eigenvalue,
            "gme": self.gme,
            "closest_product_state": [
                [{"re": float(z.real), "im": float(z.imag)} for z in vec]
                for vec in self.closest_product_state.vectors
            ],
            "stats": {
                name: {
                    "lambda": s.eigenvalue,
                    "residual": s.residual,
                    "iterations": s.iterations,
                    "converged": s.converged,
                    "seconds": s.seconds,
                }
                for name, s in self.stats.items()
            },
        }

    def format_table(self) -> str:
        lines = [
            f"{'Algorithm':<14}{'lambda':>10}{'GME':>10}{'iters':>8}{'time(s)':>10}"
        ]
        for name, s in self.stats.items():
            lines.append(
                f"{name:<14}{s.eigenvalue:>10.4f}{gme_from_lambda(s.eigenvalue):>10.4f}"
                f"{s.iterations:>8d}{s.seconds:>10.2f}"
            )
        return "\n".join(lines)


def gme_from_lambda(lambda_max: float) -> float:
    """Geometric measure from the largest eigenvalue: sqrt(2 - 2 lambda).

    ``lambda_max`` must lie in (0, 1] up to a 1e-10 rounding allowance
    (values just above 1 are clamped); anything else signals a
    non-normalized state or a solver failure.
    """
    if lambda_max <= 0:
        raise ValueError(f"largest eigenvalue must be positive, got {lambda_max}")
    if lambda_max > 1.0 + 1e-10:
        raise ValueError(
            f"largest eigenvalue {lambda_max} exceeds 1; state is not normalized"
        )
    return math.sqrt(2.0 - 2.0 * min(lambda_max, 1.0))


def analyze(state: PureState, cfg: SolverConfig) -> GmeReport:
    """Compute the entanglement eigenvalue, GME and closest product state.

    Runs the configured multi-start solver on the state's tensor; the
    best eigenvalue is G, and the returned unit factors define the closest
    separable state (the best rank-one approximation).
    """
    t0 = time.perf_counter()
    result: MultiStartResult = multi_start(state.tensor, cfg)
    elapsed = time.perf_counter() - t0
    best = result.best
    g = best.eigenvalue
    report = GmeReport(
        entanglement_eigenvalue=g,
        gme=gme_from_lambda(g),
        closest_product_state=best.factors,
        label=state.label,
    )
    report.stats[cfg.algorithm] = AlgorithmStats(
        eigenvalue=g,
        residual=best.residual,
        iterations=best.iterations,
        converged=best.converged,
        seconds=elapsed,
    )
    return report


def verify_closest(state: PureState, factors: RankOneFactors) -> float:
    """Distance from the state to the product state of ``factors``.

    For a unit state and unit factors the distance satisfies
    ||T - x1 x ... x xm|| = sqrt(2 - 2 Re<T, x1 ... xm>); both sides are
    evaluated and cross-checked before the distance is returned.
    """
    diff = state.tensor.data - rank_one(factors).data
    distance = float(np.linalg.norm(diff.ravel()))
    expected = math.sqrt(
        max(2.0 - 2.0 * float(np.real(overlap(state.tensor, factors))), 0.0)
    )
    if abs(distance - expected) > 1e-9:
        raise ValueError(
            f"norm expansion mismatch ({distance} vs {expected}); "
            "factors are probably not unit vectors"
        )
    return distance
