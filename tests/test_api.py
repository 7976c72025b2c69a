import importlib
import re
from pathlib import Path

import pytest

import ueigen

PUBLIC_NAMES = [
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
    "check_stop",
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

SUBMODULES = ["tensor", "embedding", "solvers", "entanglement", "oracle", "catalog"]


def test_public_names_pinned():
    assert sorted(ueigen.__all__) == PUBLIC_NAMES


def test_public_names_resolve():
    missing = [name for name in ueigen.__all__ if not hasattr(ueigen, name)]
    assert missing == []


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_names_exist(module):
    mod = importlib.import_module(f"ueigen.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert ueigen.__version__ == match.group(1)
