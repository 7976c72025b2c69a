"""Independent correctness anchors for the iterative solvers.

None of these share iteration machinery with the solvers: the matrix oracle
runs plain power iteration on the Gram operator, the sampling oracle
evaluates random product states directly, and the orthogonal-sum oracle is
a closed-form value for tensors whose nonzero entries are separated enough
that no product state can combine them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import _AXIS_LETTERS, ComplexTensor, _contract_excluding

__all__ = [
    "OracleResult",
    "svd_oracle",
    "sampling_oracle",
    "orthogonal_sum_oracle",
    "evaluate_oracles",
]


@dataclass(frozen=True)
class OracleResult:
    lambda_lower_bound: float
    method: str  # "svd" | "sampling" | "analytic"
    samples: int | None = None
    iterations: int | None = None


def _gram_power_iteration(
    A: ComplexTensor, tol: float, max_iter: int, seed: int
) -> tuple[float, int]:
    conj_data = np.conj(A.data)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    v = rng.standard_normal(A.dims[1]) + 1j * rng.standard_normal(A.dims[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for k in range(1, max_iter + 1):
        w = _contract_excluding(conj_data, (None, v), 0)  # conj(M) v
        new_sigma = float(np.linalg.norm(w))
        if new_sigma == 0.0:
            return 0.0, k
        # adjoint application: rows of conj(M) against w
        u = np.conj(_contract_excluding(conj_data, (np.conj(w), None), 1))
        v = u / np.linalg.norm(u)
        if abs(new_sigma - sigma) < tol:
            return new_sigma, k
        sigma = new_sigma
    return sigma, max_iter


def svd_oracle(
    A: ComplexTensor,
    tol: float = 1e-12,
    max_iter: int = 200_000,
    seed: int = 0,
) -> float:
    """Largest singular value of an order-2 tensor via Gram power iteration.

    For matrices the maximal overlap modulus over unit vector pairs is the
    top singular value. Iterates v -> normalize(G v) with G the Gram
    operator (the matrix applied, then its adjoint), built from the same
    contraction primitives but through an entirely different update than
    the eigenpair solvers.
    """
    if A.order != 2:
        raise ValueError(f"svd oracle needs a matrix, got order {A.order}")
    sigma, _ = _gram_power_iteration(A, tol, max_iter, seed)
    return sigma


def sampling_oracle(
    A: ComplexTensor,
    samples: int,
    seed: int = 0,
    batch: int = 2048,
) -> float:
    """Certified lower bound: best overlap modulus over random unit factors.

    Draws ``samples`` tuples of per-mode complex-normal unit vectors and
    returns the largest overlap modulus found. The value can never exceed
    the true maximum, so solver results must dominate it.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    m = A.order
    conj_data = np.conj(A.data)
    if m >= len(_AXIS_LETTERS):
        raise ValueError(f"sampling oracle supports order < {len(_AXIS_LETTERS)}")
    letters, z = _AXIS_LETTERS[:m], _AXIS_LETTERS[m]
    subscript = letters + "," + ",".join(z + ch for ch in letters) + "->" + z
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
        for d in A.dims:
            z = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            mats.append(z)
        values = np.einsum(subscript, conj_data, *mats)
        best = max(best, float(np.max(np.abs(values))))
    return best


def _disjoint_bipartition_exists(indices: np.ndarray, dims: tuple[int, ...]) -> bool:
    """True if the modes split into two groups such that every pair of
    nonzero entries differs somewhere inside each group."""
    m = len(dims)
    n_entries = indices.shape[0]
    if n_entries < 2:
        return True
    # Pigeonhole prefilter: pairwise-distinct flattened indices on a side
    # require at least n_entries slots there. This rejects dense tensors
    # before any pairwise work.
    total = math.prod(dims)
    candidates = []
    for r in range(1, m // 2 + 1):
        for group in itertools.combinations(range(m), r):
            side = math.prod(dims[k] for k in group)
            if n_entries <= side and n_entries <= total // side:
                mask = np.zeros(m, dtype=bool)
                mask[list(group)] = True
                candidates.append(mask)
    if not candidates:
        return False
    # diff[e, f, k]: entries e and f differ in mode k
    diff = indices[:, None, :] != indices[None, :, :]
    pair_diff = diff[np.triu_indices(n_entries, k=1)]  # (n_pairs, m)
    for mask in candidates:
        if np.all(pair_diff[:, mask].any(axis=1)) and np.all(
            pair_diff[:, ~mask].any(axis=1)
        ):
            return True
    return False


def orthogonal_sum_oracle(A: ComplexTensor) -> float | None:
    """Exact largest eigenvalue for sufficiently index-separated tensors.

    Applies when the modes admit a bipartition in which the nonzero entries
    are pairwise distinct on both sides: flattened over that bipartition
    the entries occupy distinct rows and distinct columns, so the singular
    values are exactly the entry moduli and the best product state picks
    the largest one. Returns that modulus, or None when no such bipartition
    exists (the value would not be certified).
    """
    if A.order < 2:
        return float(np.max(np.abs(A.data))) if A.data.size else None
    indices = np.argwhere(A.data != 0)
    if indices.shape[0] == 0:
        return 0.0
    if _disjoint_bipartition_exists(indices, A.dims):
        return float(np.max(np.abs(A.data)))
    return None


def evaluate_oracles(
    A: ComplexTensor, samples: int = 10_000, seed: int = 0
) -> list[OracleResult]:
    """Every applicable oracle value for ``A``, sampling bound first."""
    results = [
        OracleResult(sampling_oracle(A, samples, seed), "sampling", samples=samples)
    ]
    if A.order == 2:
        sigma, iterations = _gram_power_iteration(A, 1e-12, 200_000, seed)
        results.append(OracleResult(sigma, "svd", iterations=iterations))
    analytic = orthogonal_sum_oracle(A)
    if analytic is not None:
        results.append(OracleResult(analytic, "analytic"))
    return results
