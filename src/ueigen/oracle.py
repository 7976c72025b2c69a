"""Independent correctness anchors for the iterative solvers.

None of these share iteration machinery with the solvers: the matrix oracle
takes the top singular value from LAPACK's SVD; the sampling oracle draws
random unit factors for modes 2..m and solves the mode-1 factor in closed
form, with no iteration, so each sample is the overlap of an explicit
product state (for order 1 the bound is the norm, and nothing is drawn);
and the flattening interval reads lambda off the singular values of the
tensor's matrix reshapings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import _CHUNK_ENTRIES, ComplexTensor, norm

__all__ = [
    "OracleResult",
    "svd_oracle",
    "sampling_oracle",
    "evaluate_oracles",
]

@dataclass(frozen=True)
class OracleResult:
    lambda_lower_bound: float
    method: str  # "sampling" | "flattening"
    samples: int | None = None
    lambda_upper_bound: float = math.inf


def svd_oracle(A: ComplexTensor) -> float:
    """Largest singular value of an order-2 tensor, from LAPACK's SVD.

    For matrices the maximal overlap modulus over unit vector pairs is the
    top singular value. The one flattening of a matrix is the matrix itself,
    so the value is the upper end of its flattening interval.
    """
    if A.order != 2:
        raise ValueError(f"svd oracle needs a matrix, got order {A.order}")
    return _flattening_interval(A)[1]


def sampling_oracle(
    A: ComplexTensor,
    samples: int,
    seed: int = 0,
    batch: int = 2048,
) -> float:
    """Certified lower bound: best overlap modulus over sampled product states.

    Draws ``samples`` tuples of complex-normal unit vectors for modes 2..m
    and solves the mode-1 factor: with c the contraction of ``conj(A)``
    against x_2..x_m, the best overlap over unit x_1 is ``||c||``, attained
    by the product state with x_1 = conj(c) / ||c||. The largest ``||c||``
    found is returned; it is the overlap of an explicit product state, so it
    can never exceed the true maximum, and solver results must dominate it.
    For order 1 nothing is drawn and the bound is ``||A||``, which is exact.
    No iteration runs.

    The draws come in batches of ``batch`` samples, each from its own child
    of ``SeedSequence(seed)``: per mode 2..m, real then imaginary normals of
    shape ``(count, d)``, normalized by row. Each batch is contracted in
    chunks, last mode first: one matrix product of the chunk's last-mode
    factors with ``conj(A)`` reshaped to ``(prod(dims[:-1]), dims[-1])``,
    then one batched matrix-vector product per mode down to mode 2, and a
    row norm in place of mode 1. The chunk keeps the first product near
    2 MB whatever the batch.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if A.order == 1:
        return norm(A)
    *lead_dims, last = A.dims
    lead = math.prod(lead_dims)
    conj_t = np.conj(A.data).reshape(lead, last).T
    chunk = max(1, _CHUNK_ENTRIES // lead)
    children = np.random.SeedSequence(seed).spawn(
        (samples + batch - 1) // batch
    )
    best = 0.0
    remaining = samples
    for child in children:
        rng = np.random.default_rng(child)
        count = min(batch, remaining)
        remaining -= count
        mats = []
        for d in A.dims[1:]:
            z = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            mats.append(z)
        for start in range(0, count, chunk):
            rows = slice(start, start + chunk)
            t = mats[-1][rows] @ conj_t
            for z in reversed(mats[:-1]):
                t = (t.reshape(len(t), -1, z.shape[1]) @ z[rows, :, None])[..., 0]
            best = max(best, float(np.max(np.linalg.norm(t, axis=1))))
    return best


def _flattening_interval(A: ComplexTensor) -> tuple[float, float]:
    """``max|entry| <= lambda <= min sigma_1`` over the flattenings of ``A``.

    A flattening reshapes ``A`` into a matrix whose rows are mode 0 and a
    subset of the other modes, the columns the rest. A product state stays
    a product state across the split, so each sigma_1 bounds lambda from
    above (Wei & Goldbart, PRA 68, 042307, 2003); a product of basis vectors
    is a product state, so max|entry| bounds it from below. For order <= 2
    the one flattening is ``A`` itself (a column for order 1) and sigma_1
    is exact.
    """
    m = A.order
    upper = math.inf
    for mask in range(max(1, 2 ** (m - 1) - 1)):
        rows = [0] + [k for k in range(1, m) if mask >> (k - 1) & 1]
        matrix = np.moveaxis(A.data, rows, range(len(rows))).reshape(
            math.prod(A.dims[k] for k in rows), -1
        )
        upper = min(upper, float(np.linalg.svd(matrix, compute_uv=False)[0]))
    lower = upper if m <= 2 else float(np.max(np.abs(A.data)))
    return lower, upper


def evaluate_oracles(
    A: ComplexTensor, samples: int = 10_000, seed: int = 0
) -> list[OracleResult]:
    """The sampling lower bound, then the flattening interval on lambda."""
    results = [
        OracleResult(sampling_oracle(A, samples, seed), "sampling", samples=samples)
    ]
    lower, upper = _flattening_interval(A)
    results.append(OracleResult(lower, "flattening", lambda_upper_bound=upper))
    return results
