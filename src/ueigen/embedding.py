"""Symmetric embedding of a non-symmetric tensor.

An order-m tensor A with mode sizes (n1, ..., nm) embeds into a symmetric
cubical tensor S of size n = n1 + ... + nm per mode: partition each mode of S
into m blocks with lengths (n1, ..., nm); the block at multi-index i equals
the i-transposition of A when i is a permutation of 1..m and is zero
otherwise. An eigenpair (lambda_S, x) of S gives one of A: the m blocks of x
rescaled to unit norm, with eigenvalue (sqrt(m))^m / m! * lambda_S.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import ComplexTensor, _check_dense_size, tensor_to_json

__all__ = [
    "EmbeddedTensor",
    "sym_embed",
    "is_symmetric",
    "shift_to_embedded",
    "embedded_to_json",
]


@dataclass(frozen=True)
class EmbeddedTensor:
    """The symmetric embedding of a source tensor; ``source_dims`` are the
    block lengths of every mode."""

    tensor: ComplexTensor
    source_dims: tuple[int, ...]


def sym_embed(A: ComplexTensor) -> EmbeddedTensor:
    """Construct the symmetric embedding of ``A``.

    The result is cubical with side n = sum of A's mode sizes. Blocks
    indexed by permutations of 1..m (enumerated in lexicographic order)
    hold the corresponding transpositions of A; all other blocks are zero.
    An embedding whose dense array would exceed 2 GiB is rejected before
    anything is allocated.
    """
    if A.order < 2:
        raise ValueError("symmetric embedding needs an order >= 2 tensor")
    dims = A.dims
    m = A.order
    n = sum(dims)
    _check_dense_size((n,) * m, "symmetric embedding")
    offsets = np.concatenate(([0], np.cumsum(dims)))
    data = np.zeros((n,) * m, dtype=np.complex128)
    for perm in itertools.permutations(range(m)):
        slices = tuple(slice(offsets[q], offsets[q] + dims[q]) for q in perm)
        data[slices] = np.transpose(A.data, axes=perm)
    return EmbeddedTensor(tensor=ComplexTensor(data), source_dims=dims)


def is_symmetric(S: ComplexTensor, tol: float = 1e-12) -> bool:
    """True when S is invariant under every mode permutation within ``tol``.

    Checks the adjacent-swap generators, which suffices since they generate
    the full permutation group. The deviation is the entrywise max modulus.
    """
    m = S.order
    if len(set(S.dims)) > 1:
        raise ValueError(f"symmetry is only defined for cubical tensors, got {S.dims}")
    if m == 1:
        return True
    for k in range(m - 1):
        axes = list(range(m))
        axes[k], axes[k + 1] = axes[k + 1], axes[k]
        if np.max(np.abs(S.data - np.transpose(S.data, axes))) > tol:
            return False
    return True


def shift_to_embedded(alpha_a: float, m: int) -> float:
    """Shift for the embedded iteration matching a source-side shift:
    alpha_s = m! (m-1)! alpha_a.

    No solver calls it, as the shift of joint and embed is scale-free. It
    states the identity between fixed shifts under which the iteration on
    S is the one on A, which acceptance criterion 7 checks."""
    if alpha_a <= 0:
        raise ValueError(f"shift must be positive, got {alpha_a}")
    if m < 1:
        raise ValueError("order must be >= 1")
    return float(math.factorial(m) * math.factorial(m - 1) * alpha_a)


def embedded_to_json(emb: EmbeddedTensor) -> dict:
    obj = tensor_to_json(emb.tensor)
    obj["source_dims"] = [int(d) for d in emb.source_dims]
    return obj
