"""Independent correctness anchors for the iterative solvers.

None of these share iteration machinery with the solvers: the matrix oracle
takes the top singular value from LAPACK's SVD; the sampling oracle, one
loop over batches of ``_BATCH`` samples, each seeded as it is drawn, draws
random factors for all modes but mode 1 and, when some mode has dim 2, a
second mode q, and solves the undrawn factors in closed form (a vector norm,
or the top singular value of a 2 x n matrix from its 2 x 2 Gram matrix),
with no iteration and no code shared with the flattening, so each sample is
the overlap of an explicit product state (nothing is drawn, and the bound is
exact, for order 1 and order 2 with a mode of dim 2); and the flattening
interval reads lambda off the singular values of the matrix reshapings.

All bounds hold at any finite scale of A: the sampling oracle runs on the
solvers' conj(A) 2^-e (``tensor._scaled_conj``) and multiplies its bound
back by 2^e, which is exact, and LAPACK's SVD scales its input itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import _CHUNK_ENTRIES, ComplexTensor, _scaled_conj

__all__ = [
    "OracleResult",
    "svd_oracle",
    "sampling_oracle",
    "evaluate_oracles",
]

_BATCH = 2048  # samples per batch of the sampling oracle, one child seed each


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


def sampling_oracle(A: ComplexTensor, samples: int, seed: int = 0) -> float:
    """Certified lower bound: best overlap modulus over sampled product states.

    Each sample leaves mode 1 undrawn and, when some mode has dim 2, a
    second mode q: the largest mode after mode 1 (first on ties) when mode 1
    has dim 2, else the first mode of dim 2. It draws complex-normal factors
    for the other modes. With those scaled to unit norm, the contraction of
    ``conj(A)`` against them leaves the best overlap over unit factors at
    the undrawn modes in closed form:

    * mode 1 alone: a vector c, whose best overlap is ``||c||``, attained by
      the product state with x_1 = conj(c) / ||c||;
    * modes 1 and q: a 2 x n matrix M (its rows the qubit mode's two
      slices M_0, M_1), whose best overlap is its top singular value. With
      a = ||M_0||^2, c = ||M_1||^2 and b = sum(M_0 conj(M_1)), the entries
      of its 2 x 2 Gram matrix, sigma_1^2 = (a + c) / 2 +
      sqrt(((a - c) / 2)^2 + |b|^2), attained by the product state that
      takes M's top singular pair at modes 1 and q.

    The largest value found is returned; it is the overlap of an explicit
    product state, so it can never exceed the true maximum, and solver
    results must dominate it. For order 1, and order 2 with a mode of dim 2,
    no mode is drawn: the same closed form on ``conj(A)`` itself gives the
    exact ``||A||`` or sigma_1 of A. No iteration runs, and the bound of
    2^k A is bitwise 2^k times A's.

    The draws come in batches of ``_BATCH`` samples, the last one shorter,
    each from the next child spawned from ``SeedSequence(seed)`` as it is
    drawn: per drawn mode, in increasing order, real then imaginary normals
    of shape ``(count, d)``. They are not normalized: the value is
    multilinear in them, so each sample's squared value is divided once by
    the product of its factors' squared norms. Each batch is contracted in
    chunks, last drawn mode first: one matrix product of the chunk's last
    factors with ``conj(A)``, its undrawn modes moved to the front (qubit
    mode first), then one batched matrix-vector product per drawn mode,
    leaving c or M per sample. The chunk keeps the first product near 2 MB.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    conj_data, exponent = _scaled_conj(A)
    undrawn = _undrawn_modes(A.dims)
    qubit = len(undrawn) == 2
    drawn = [k for k in range(1, A.order) if k not in undrawn]
    if not drawn:
        row = conj_data.transpose(undrawn).reshape(1, -1)
        return math.sqrt(float(_top_square(row, qubit)[0])) * 2.0**exponent
    axes = undrawn + drawn
    lead = math.prod(A.dims[k] for k in axes[:-1])
    conj_t = conj_data.transpose(axes).reshape(lead, A.dims[axes[-1]]).T
    chunk = max(1, _CHUNK_ENTRIES // lead)
    root = np.random.SeedSequence(seed)
    best = 0.0  # the largest squared value
    for first in range(0, samples, _BATCH):
        rng = np.random.default_rng(root.spawn(1)[0])
        count = min(_BATCH, samples - first)
        mats, norms2 = [], np.ones(count)
        for k in drawn:
            z, squares = _complex_normals(rng, count, A.dims[k])
            mats.append(z)
            norms2 *= squares
        for start in range(0, count, chunk):
            rows = slice(start, start + chunk)
            t = mats[-1][rows] @ conj_t
            for z in reversed(mats[:-1]):
                t = (t.reshape(len(t), -1, z.shape[1]) @ z[rows, :, None])[..., 0]
            best = max(best, float(np.max(_top_square(t, qubit) / norms2[rows])))
    return math.sqrt(best) * 2.0**exponent


def _complex_normals(
    rng: np.random.Generator, count: int, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` complex-normal rows of length ``d``, all real parts drawn
    before the imaginary ones, and the squared norm of each row."""
    parts = rng.standard_normal((2, count, d))
    z = np.empty((count, d), dtype=np.complex128)
    z.real, z.imag = parts
    return z, np.einsum("kij,kij->i", parts, parts)


def _undrawn_modes(dims: tuple[int, ...]) -> list[int]:
    """The modes ``sampling_oracle`` solves instead of drawing, qubit first:
    mode 1 alone, or mode 1 and q when the order is >= 2 and a mode has
    dim 2 (0-based here)."""
    if len(dims) < 2 or 2 not in dims:
        return [0]
    if dims[0] == 2:
        return [0, max(range(1, len(dims)), key=dims.__getitem__)]
    return [dims.index(2), 0]


def _top_square(t: np.ndarray, qubit: bool) -> np.ndarray:
    """Per row of ``t``, the squared top singular value of the row read as
    a matrix with two rows (``qubit``) or one: the top eigenvalue of its
    2 x 2 Gram matrix in closed form, or its squared norm."""
    v = t.view(np.float64)
    if not qubit:
        return np.einsum("ij,ij->i", v, v)
    # Per row, the squared norms of its two slices and their inner product.
    halves = v.reshape(len(t), 2, -1)
    a, c = np.einsum("ikj,ikj->ki", halves, halves)
    width = t.shape[1] // 2
    b = np.einsum("ij,ij->i", t[:, :width], np.conj(t[:, width:]))
    half = 0.5 * (a - c)
    return 0.5 * (a + c) + np.sqrt(half * half + (b.real**2 + b.imag**2))


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
