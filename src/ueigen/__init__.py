"""Unitary eigenpairs of dense complex tensors and geometric entanglement
of multipartite pure states."""

from .tensor import (
    ComplexTensor,
    RankOneFactors,
    contract_excluding,
    from_array,
    from_sparse,
    norm,
    overlap,
    rank_one,
    tensor_from_json,
    tensor_to_json,
    zeros,
)
from .embedding import (
    EmbeddedTensor,
    embedded_to_json,
    is_symmetric,
    shift_to_embedded,
    sym_embed,
)
from .solvers import (
    ALGORITHMS,
    BreakdownError,
    IterationTrace,
    MultiStartResult,
    SolverConfig,
    SolverError,
    UEigenpair,
    ZeroEigenvalueError,
    multi_start,
    random_start,
    residual,
    solve,
    solve_embed,
    solve_gauss_seidel,
    solve_joint,
)
from .entanglement import PureState, gme_from_lambda
from .oracle import (
    OracleResult,
    evaluate_oracles,
    sampling_oracle,
    svd_oracle,
)
from . import catalog

__version__ = "0.5.0"

__all__ = [
    "ALGORITHMS",
    "BreakdownError",
    "ComplexTensor",
    "EmbeddedTensor",
    "IterationTrace",
    "MultiStartResult",
    "OracleResult",
    "PureState",
    "RankOneFactors",
    "SolverConfig",
    "SolverError",
    "UEigenpair",
    "ZeroEigenvalueError",
    "catalog",
    "contract_excluding",
    "embedded_to_json",
    "evaluate_oracles",
    "from_array",
    "from_sparse",
    "gme_from_lambda",
    "is_symmetric",
    "multi_start",
    "norm",
    "overlap",
    "random_start",
    "rank_one",
    "residual",
    "sampling_oracle",
    "shift_to_embedded",
    "solve",
    "solve_embed",
    "solve_gauss_seidel",
    "solve_joint",
    "svd_oracle",
    "sym_embed",
    "tensor_from_json",
    "tensor_to_json",
    "zeros",
]
