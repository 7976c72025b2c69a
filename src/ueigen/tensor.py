"""Dense complex tensors and the multilinear primitives built on them.

Storage is a C-ordered (last index fastest) ``numpy`` array of complex128.
Mode labels and entry multi-indices are 1-based everywhere in the public API,
matching the standard tensor-analysis notation; the underlying array is
indexed 0-based as usual for numpy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "ComplexTensor",
    "RankOneFactors",
    "from_sparse",
    "from_array",
    "zeros",
    "norm",
    "rank_one",
    "overlap",
    "contract_excluding",
    "tensor_to_json",
    "tensor_from_json",
]

@dataclass(frozen=True)
class ComplexTensor:
    """Immutable dense tensor of complex entries.

    ``data`` is a read-only complex128 array; ``dims`` are the mode sizes.
    All entries must be finite.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.complex128))
        if arr.ndim < 1:
            raise ValueError("tensor must have at least one mode")
        if any(d < 1 for d in arr.shape):
            raise ValueError(f"every mode size must be >= 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def order(self) -> int:
        return self.data.ndim

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexTensor):
            return NotImplemented
        return self.dims == other.dims and bool(np.array_equal(self.data, other.data))

    def __hash__(self):
        return hash((self.dims, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"ComplexTensor(dims={self.dims}, norm={norm(self):.6g})"


@dataclass(frozen=True)
class RankOneFactors:
    """Tuple of per-mode complex vectors defining a rank-one tensor."""

    vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        vecs = []
        for v in self.vectors:
            arr = np.asarray(v, dtype=np.complex128).reshape(-1)
            if not np.all(np.isfinite(arr)):
                raise ValueError("factor entries must be finite")
            arr.flags.writeable = False
            vecs.append(arr)
        if not vecs:
            raise ValueError("at least one factor vector is required")
        object.__setattr__(self, "vectors", tuple(vecs))

    @classmethod
    def per_vector(cls, vectors: Iterable[np.ndarray]) -> "RankOneFactors":
        """Normalize each vector to unit norm."""
        vecs = []
        for v in vectors:
            arr = np.asarray(v, dtype=np.complex128).reshape(-1)
            nrm = np.linalg.norm(arr)
            if nrm == 0:
                raise ValueError("cannot normalize a zero factor vector")
            vecs.append(arr / nrm)
        return cls(tuple(vecs))

    @classmethod
    def joint(cls, vectors: Iterable[np.ndarray]) -> "RankOneFactors":
        """Scale all vectors so their squared norms sum to one."""
        vecs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]
        total = np.sqrt(sum(float(np.real(np.vdot(v, v))) for v in vecs))
        if total == 0:
            raise ValueError("cannot normalize all-zero factors")
        return cls(tuple(v / total for v in vecs))

    def __len__(self) -> int:
        return len(self.vectors)

    def norms(self) -> tuple[float, ...]:
        return tuple(float(np.linalg.norm(v)) for v in self.vectors)


def _as_vectors(factors) -> tuple[np.ndarray | None, ...]:
    """Accept RankOneFactors or a plain sequence of vectors (None allowed)."""
    if isinstance(factors, RankOneFactors):
        return factors.vectors
    return tuple(
        None if v is None else np.asarray(v, dtype=np.complex128).reshape(-1)
        for v in factors
    )



def _check_factor_dims(T: ComplexTensor, vecs, skip: int | None = None):
    if len(vecs) != T.order:
        raise ValueError(f"expected {T.order} factor vectors, got {len(vecs)}")
    for i, (v, d) in enumerate(zip(vecs, T.dims), start=1):
        if skip is not None and i == skip:
            continue
        if v is None:
            raise ValueError(f"factor for mode {i} is missing")
        if v.shape[0] != d:
            raise ValueError(f"factor {i} has length {v.shape[0]}, mode size is {d}")


# Complex entries per chunk of a batched first contraction (2 MB): the
# sampling oracle's samples and the solvers' starts are split to fit it.
_CHUNK_ENTRIES = 1 << 17


# Largest dense tensor that ``from_sparse`` and ``sym_embed`` allocate (2 GiB).
_MAX_DENSE_BYTES = 2 << 30


def _check_dense_size(dims: tuple[int, ...], what: str):
    """Raise ``ValueError`` when a complex128 array of ``dims`` would exceed
    ``_MAX_DENSE_BYTES``; reads the dims only, so nothing is allocated."""
    nbytes = math.prod(dims) * 16
    if nbytes > _MAX_DENSE_BYTES:
        raise ValueError(
            f"{what} of dims {dims} needs {nbytes / 2**30:.4g} GiB, "
            f"over the {_MAX_DENSE_BYTES >> 30} GiB limit on dense tensors"
        )


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise sum a * b of two (K, n) arrays, one stacked BLAS dot each."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _scaled_conj(T: ComplexTensor) -> tuple[np.ndarray, int]:
    """conj(T) 2^-e and e, the binary exponent of max |T| clipped to
    [-1000, 1000]: the largest scaled entry lies in [1/2, 1), so nothing
    computed on the copy underflows or overflows at any finite scale of T,
    and 2^e, a normal double, multiplies a result back exactly."""
    exponent = min(max(math.frexp(np.abs(T.data).max())[1], -1000), 1000)
    conj_data = np.conj(T.data)
    if exponent:
        np.ldexp(conj_data.view(float), -exponent, out=conj_data.view(float))
    return conj_data, exponent


def _contract_excluding(conj_data: np.ndarray, rows, k0: int) -> np.ndarray:
    """Mode-k0 sums conj(T) * prod_{i != k0} xi, one row per factor row
    (k0 zero-based).

    ``rows[i]`` holds K mode-i factors as a (K, n_i) array; the result is
    (K, n_k0), or (1, n_k0) for order one, where no factor is read. One
    stacked matrix-vector product per mode: the trailing modes are
    contracted from the last one inwards, then the leading modes from the
    first one, so any order works and ``rows[k0]`` is never read. numpy runs
    each stacked slice as the BLAS call a lone row makes, so every row of
    the result is bitwise independent of the other rows and of K.
    """
    dims = conj_data.shape
    t = conj_data[None]
    for i in range(len(dims) - 1, k0, -1):
        t = t.reshape(len(t), -1, dims[i]) @ rows[i][:, :, None]
    for i in range(k0):
        t = rows[i][:, None, :] @ t.reshape(len(t), dims[i], -1)
    return t.reshape(len(t), dims[k0])


def from_sparse(dims: Sequence[int], entries) -> ComplexTensor:
    """Build a dense tensor from 1-based (multi-index, value) entries.

    ``entries`` may be a mapping {index tuple: value} or an iterable of
    (index tuple, value) pairs. Unlisted entries are zero. Duplicate or
    out-of-range indices are rejected, and so are dims whose dense array
    would exceed 2 GiB.
    """
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ValueError("dims must be nonempty")
    if any(d < 1 for d in dims):
        raise ValueError(f"every mode size must be >= 1, got {dims}")
    _check_dense_size(dims, "tensor")
    data = np.zeros(dims, dtype=np.complex128)
    seen: set[tuple[int, ...]] = set()
    items = entries.items() if isinstance(entries, Mapping) else entries
    for idx, value in items:
        idx = tuple(int(i) for i in (idx if isinstance(idx, (tuple, list)) else (idx,)))
        if len(idx) != len(dims):
            raise ValueError(f"index {idx} has wrong length for dims {dims}")
        if any(i < 1 or i > d for i, d in zip(idx, dims)):
            raise ValueError(f"index {idx} out of range for dims {dims}")
        if idx in seen:
            raise ValueError(f"duplicate index {idx}")
        seen.add(idx)
        data[tuple(i - 1 for i in idx)] = value
    return ComplexTensor(data)


def from_array(data) -> ComplexTensor:
    """Wrap an array-like (copied) as a ComplexTensor."""
    return ComplexTensor(np.array(data, dtype=np.complex128))


def zeros(dims: Sequence[int]) -> ComplexTensor:
    return ComplexTensor(np.zeros(tuple(int(d) for d in dims), dtype=np.complex128))


def norm(T: ComplexTensor) -> float:
    """Frobenius norm: sqrt of the sum of squared entry moduli."""
    return float(np.linalg.norm(T.data.ravel()))


def rank_one(factors) -> ComplexTensor:
    """Outer product tensor with entries x1_{i1} * ... * xm_{im}."""
    vecs = _as_vectors(factors)
    if any(v is None for v in vecs):
        raise ValueError("all factor vectors are required")
    return ComplexTensor(reduce(np.multiply.outer, vecs))


def overlap(T: ComplexTensor, factors) -> complex:
    """Inner product of T with the rank-one tensor of ``factors``.

    Equals sum over all indices of conj(T) * x1 * ... * xm.
    """
    vecs = _as_vectors(factors)
    _check_factor_dims(T, vecs)
    rows = [v[None] for v in vecs]
    return complex(_dot_rows(rows[0], _contract_excluding(np.conj(T.data), rows, 0))[0])


def contract_excluding(T: ComplexTensor, factors, k: int) -> np.ndarray:
    """Vector over mode k: contract conj(T) against every factor but the k-th.

    ``k`` is a 1-based mode label; the k-th entry of ``factors`` is ignored
    and may be None.
    """
    if not 1 <= k <= T.order:
        raise ValueError(f"mode {k} out of range 1..{T.order}")
    vecs = _as_vectors(factors)
    _check_factor_dims(T, vecs, skip=k)
    rows = [None if v is None else v[None] for v in vecs]
    return _contract_excluding(np.conj(T.data), rows, k - 1)[0]


def tensor_to_json(T: ComplexTensor) -> dict:
    """JSON-ready dict {dims, entries} with 1-based indices; zeros omitted."""
    entries = []
    for idx in np.argwhere(T.data != 0):
        val = T.data[tuple(idx)]
        entries.append(
            {
                "idx": [int(i) + 1 for i in idx],
                "re": float(val.real),
                "im": float(val.imag),
            }
        )
    return {"dims": [int(d) for d in T.dims], "entries": entries}


_ENTRY_FORM = '{"idx": [...], "re": x, "im": y}'


def _entry_from_json(pos: int, e) -> tuple[tuple[int, ...], complex]:
    """One (index, value) pair of a JSON entry, or a ValueError naming it."""
    if isinstance(e, dict):
        idx, parts = e.get("idx"), (e.get("re", 0.0), e.get("im", 0.0))
        if (
            isinstance(idx, list)
            and all(isinstance(i, int) and not isinstance(i, bool) for i in idx)
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts)
        ):
            return tuple(idx), complex(*parts)
    raise ValueError(f"entries[{pos}] must be {_ENTRY_FORM}, got {json.dumps(e)[:60]}")


def tensor_from_json(obj: dict | str) -> ComplexTensor:
    """Inverse of :func:`tensor_to_json`; accepts a dict or a JSON string."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "dims" not in obj:
        raise ValueError("tensor JSON must be an object with a 'dims' field")
    entries = obj.get("entries", [])
    if not isinstance(entries, list):
        raise ValueError(f"'entries' must be a list of {_ENTRY_FORM} objects")
    return from_sparse(
        obj["dims"], [_entry_from_json(pos, e) for pos, e in enumerate(entries)]
    )

