"""Independent correctness anchors for the iterative solvers.

None of these share iteration machinery with the solvers: the matrix oracle
takes the top singular value from LAPACK's SVD; the sampling oracle draws
random factors on a product grid for all modes but mode 1 and, when some
mode has dim 2, a second mode q, and solves the undrawn factors in closed
form (a vector norm, or the top singular value of a 2 x n matrix from its
2 x 2 Gram matrix), with no iteration and no code shared with the
flattening, so each grid point is the overlap of an explicit product state
(nothing is drawn, and the bound is exact, for order 1 and order 2 with a
mode of dim 2); and the flattening interval bounds lambda by the top
singular values of matrix reshapings of A: from LAPACK's SVD when A is a
matrix, else from the Gram matrix of each reshaping's smaller side, over
every split of the modes while the splits fit ``_SPLIT_BUDGET`` and over
the contiguous cyclic windows of the modes above it. One generator, read
in order, draws every factor of the grid, and one matrix product that
reads the whole tensor serves every grid point of a draw of the last drawn
mode.

All bounds hold at any finite scale of A: the sampling oracle and the Gram
matrices run on the solvers' conj(A) 2^-e (``tensor._scaled_conj``) and
multiply their values back by 2^e, which is exact, and LAPACK's SVD scales
its input itself.
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

# Caps a chunk's rows of last-mode draws; not a seed boundary. Without the
# cap (bounds bitwise equal) 10,000 samples took 1.47 against 1.13 ms on
# example_4_1 and 1.96 against 1.43 ms on example_4_2, but 1.25 against
# 1.97 ms on trig_20 (one BLAS thread, median of 41 calls).
_BATCH = 2048
# The most splits the flattening interval takes all of: every split up to
# 8 modes of dim > 1, 2.9 ms on 2^8 and 31 ms on 3^8 (0.5 and 4.3 ms with
# the windows); every split of 3^9 took 164 ms (one BLAS thread).
_SPLIT_BUDGET = 127


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
    """Certified lower bound: best overlap modulus over a grid of product states.

    Each sample leaves mode 1 undrawn and, when some mode has dim 2, a
    second mode q: the largest mode after mode 1 (first on ties) when mode 1
    has dim 2, else the first mode of dim 2. It draws complex-normal factors
    for the other modes of dim > 1; a dim-1 mode's unit factors are phases,
    which leave the modulus alone, so its factor is 1. With the drawn
    factors scaled to unit norm, the contraction of ``conj(A)`` against them
    leaves the best overlap over unit factors at the undrawn modes in closed
    form:

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
    results must dominate it. When no mode is left to draw (order 1, order 2
    with a mode of dim 2, or every other mode of dim 1), the same closed
    form on ``conj(A)`` itself gives the exact ``||A||`` or sigma_1 of A.
    No iteration runs, and the bound of 2^k A is bitwise 2^k times A's.

    The samples form a product grid: B_k factors per drawn mode, every
    combination taken once (``_grid_sizes``). The inner modes (every drawn
    mode but the last) share one side, the largest whose power fits both
    ``samples`` and, as their grid is held in memory, the 2 MB chunk; the
    last mode takes the rest of the count, so ``samples <= prod B_k < 2
    samples``. One ``default_rng(seed)`` draws every factor, read in order:
    the inner modes in increasing order, then the last mode's draws chunk
    by chunk, each chunk one array of normals of shape ``(count, 2 d)``
    read as complex rows. The generator's stream does not depend on where
    the calls split it, so neither does the bound. Draws are not
    normalized: the value is multilinear in them, so each grid point's
    squared value is divided once by the product of its factors' squared
    norms.

    Each chunk of at most ``_BATCH`` last-mode draws is contracted by one
    matrix product with ``conj(A)``, its inner modes first and its undrawn
    modes (qubit mode first) after them, then, from the last inner mode
    inwards, one matrix product of that mode's B_k draws with each chunk
    row, which leaves c or M at every grid point. The chunk keeps the
    widest of these products near 2 MB.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    conj_data, exponent = _scaled_conj(A)
    dims = A.dims
    undrawn = _undrawn_modes(dims)
    qubit = len(undrawn) == 2
    drawn = [k for k in range(1, A.order) if k not in undrawn and dims[k] > 1]
    axes = drawn[:-1] + undrawn + drawn[-1:]
    axes += [k for k in range(A.order) if k not in axes]  # the dim-1 modes
    width = math.prod(dims[k] for k in undrawn)
    if not drawn:
        row = conj_data.transpose(axes).reshape(1, -1)
        return math.sqrt(float(_top_square(row, qubit)[0])) * 2.0**exponent
    *inner, last = drawn
    sizes = _grid_sizes(samples, len(drawn), max(1, _CHUNK_ENTRIES // width))
    lead = math.prod(dims) // dims[last]
    conj_t = conj_data.transpose(axes).reshape(lead, dims[last]).T
    rng = np.random.default_rng(seed)
    grid, grid_norms2 = [], np.ones(1)
    for k, b in zip(inner, sizes):
        z, squares = _complex_normals(rng, b, dims[k])
        grid.append(z)
        grid_norms2 = np.multiply.outer(grid_norms2, squares).ravel()
    widest = step = lead  # entries per chunk row along the chain of products
    for k, z in zip(reversed(inner), reversed(grid)):
        step = step // dims[k] * len(z)
        widest = max(widest, step)
    chunk = max(1, min(_BATCH, _CHUNK_ENTRIES // widest))
    best = 0.0  # the largest squared value
    for first in range(0, sizes[-1], chunk):
        outer, norms2 = _complex_normals(rng, min(chunk, sizes[-1] - first), dims[last])
        t = outer @ conj_t
        tail = width  # entries after mode k's index in a chunk row
        for k, z in zip(reversed(inner), reversed(grid)):
            t = z @ t.reshape(len(t), -1, dims[k], tail)
            tail *= len(z)
        values = _top_square(t.reshape(-1, width), qubit).reshape(len(t), -1)
        best = max(best, float(np.max(values / (norms2[:, None] * grid_norms2))))
    return math.sqrt(best) * 2.0**exponent


def _grid_sizes(samples: int, n: int, inner_cap: int) -> list[int]:
    """B_k for n drawn modes: the first n - 1 share the largest side whose
    n-th power is at most ``samples`` and whose (n - 1)-th power is at most
    ``inner_cap``; the last is the rest of the count, ceil(samples / their
    product), so the product stays in [samples, 2 samples)."""
    side = min(_root(samples, n), _root(inner_cap, n - 1)) if n > 1 else 1
    return [side] * (n - 1) + [-(-samples // side ** (n - 1))]


def _root(count: int, n: int) -> int:
    """The largest integer side with side**n <= count (count >= 1)."""
    side = max(1, round(count ** (1 / n)))
    while side**n > count:
        side -= 1
    while (side + 1) ** n <= count:
        side += 1
    return side


def _complex_normals(
    rng: np.random.Generator, count: int, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` complex-normal rows of length ``d``, each entry's real and
    imaginary parts drawn in turn, and the squared norm of each row."""
    parts = rng.standard_normal((count, 2 * d))
    return parts.view(np.complex128), np.einsum("ij,ij->i", parts, parts)


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
    """``max|entry| <= lambda <= min sigma_1`` over a family of flattenings.

    A flattening reshapes ``A`` into a matrix whose rows are one side of a
    split of the modes, the columns the other. A product state stays a
    product state across the split, so each sigma_1 bounds lambda from above
    (Wei & Goldbart, PRA 68, 042307, 2003), whatever the family; a product
    of basis vectors is a product state, so max|entry| bounds it from below.
    A mode of dim 1 moves no entry across a split, so only the m' modes of
    dim > 1 are split.

    When m' <= 2, A is a matrix, a vector or a scalar: the interval is the
    point sigma_1 of its one flattening, from LAPACK's SVD. Otherwise the
    family is ``_splits(m')``, and each sigma_1^2 is the top eigenvalue of
    the Gram matrix M M^H, M the flattening with its smaller side on the
    rows, taken as the Gram matrix's top singular value. The Gram matrix is
    built from conj(A) 2^-e (``tensor._scaled_conj``), so it neither
    overflows nor underflows, and sigma_1 is multiplied back by 2^e, which
    is exact. No margin is added: on the inputs measured, the upper end
    stayed within 8e-16 relative of the least LAPACK SVD over every split,
    and never fell below the lower end. One flattening is held at a time.
    """
    dims = [d for d in A.dims if d > 1]
    if len(dims) <= 2:
        rows = dims[0] if len(dims) == 2 else A.dims[0]
        sigma = float(np.linalg.svd(A.data.reshape(rows, -1), compute_uv=False)[0])
        return sigma, sigma
    conj_data, exponent = _scaled_conj(A)
    x = conj_data.reshape(dims)
    top = math.inf  # the smallest sigma_1^2 of conj(A) 2^-e
    for side in _splits(len(dims)):
        rest = [k for k in range(len(dims)) if k not in side]
        if math.prod(dims[k] for k in side) > math.prod(dims[k] for k in rest):
            side, rest = rest, side
        m = x.transpose(side + rest).reshape(math.prod(dims[k] for k in side), -1)
        top = min(top, float(np.linalg.svd(m @ m.conj().T, compute_uv=False)[0]))
    return float(np.max(np.abs(A.data))), math.ldexp(math.sqrt(top), exponent)


def _splits(n: int):
    """One side of each split of n modes, mode 0 on the other: every
    nonempty subset of modes 1..n-1 while their 2^(n-1) - 1 fit
    ``_SPLIT_BUDGET``, else the n(n-1)/2 runs i..j-1, 1 <= i < j <= n. A run
    and its complement are the contiguous cyclic windows of the n modes."""
    if 2 ** (n - 1) - 1 <= _SPLIT_BUDGET:
        masks = range(1, 2 ** (n - 1))
        return ([k for k in range(1, n) if mask >> k - 1 & 1] for mask in masks)
    return (list(range(i, j)) for i in range(1, n) for j in range(i + 1, n + 1))


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
