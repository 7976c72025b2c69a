"""Geometric entanglement of multipartite pure states.

A normalized pure state corresponds to a unit-norm complex tensor. Its
entanglement eigenvalue G is the maximal overlap modulus with separable
(product) unit states, which equals the largest unitary eigenvalue of the
tensor; the geometric measure of entanglement is the distance to the
separable set, E = sqrt(2 - 2 G).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .tensor import ComplexTensor, norm

__all__ = ["PureState", "gme_from_lambda"]

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
