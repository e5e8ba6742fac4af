"""The numerical modules run their dense linear algebra in numpy's BLAS alone.

scipy ships its own OpenBLAS.  Alternating its calls with numpy's products
made the factor, preconditioner and PCG phases several times slower with two
BLAS threads, so these modules import nothing from ``scipy.linalg``.
"""

import ast
from pathlib import Path

import pytest

import krrsolve

NUMPY_BLAS_MODULES = ("krr", "precond", "lowrank", "pcg", "kernels", "sketch")


def scipy_linalg_imports(source: str) -> list:
    """Line numbers of every import that binds scipy.linalg or a name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "scipy.linalg" or name.startswith("scipy.linalg.")
               for name in names):
            found.append(node.lineno)
    return found


@pytest.mark.parametrize("module", NUMPY_BLAS_MODULES)
def test_module_imports_nothing_from_scipy_linalg(module):
    path = Path(krrsolve.__file__).parent / f"{module}.py"
    assert scipy_linalg_imports(path.read_text()) == [], path


@pytest.mark.parametrize("line", [
    "import scipy.linalg",
    "import scipy.linalg as sla",
    "from scipy.linalg import cholesky",
    "from scipy.linalg.blas import dgemm",
    "from scipy import linalg",
    "from scipy import sparse, linalg as la",
])
def test_every_import_form_is_caught(line):
    assert scipy_linalg_imports(f"import numpy\n{line}\n") == [2]


@pytest.mark.parametrize("line", [
    "import scipy.sparse as sp",
    "from scipy.spatial.distance import cdist",
    "from scipy import sparse",
    "from .linalg import solve",
])
def test_other_imports_pass(line):
    assert scipy_linalg_imports(line) == []
