import ast
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

ROOT = Path(__file__).resolve().parent.parent
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
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert ueigen.__version__ == match.group(1)


def _unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports but never reads; ``__all__`` entries count as
    read, ``from __future__`` imports are skipped."""
    tree = ast.parse(path.read_text())
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in imported.items()
        if name not in read
    ]


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "ueigen").glob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py")
    )
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert unused == []
