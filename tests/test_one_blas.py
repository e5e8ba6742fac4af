"""The numerical modules run their dense linear algebra in numpy's BLAS alone.

scipy ships its own OpenBLAS.  Alternating its calls with numpy's products
made the factor, preconditioner and PCG phases several times slower with two
BLAS threads, so these modules import nothing from ``scipy.linalg``.

They also invert matrices one way: ``np.linalg.inv`` appears only inside
``lowrank._inverse_cholesky``, the inverse Cholesky factorization the factor
rounds and every preconditioner build call.
"""

import ast
from pathlib import Path

import pytest

import krrsolve

from .test_precond import uses_outside

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


def matrix_inverse_uses(source: str) -> list:
    """(line, name) of every ``inv`` outside ``_inverse_cholesky``."""
    return uses_outside(source, ("inv",), "_inverse_cholesky")


@pytest.mark.parametrize("module", NUMPY_BLAS_MODULES)
def test_module_inverts_only_in_the_triangular_inverse(module):
    path = Path(krrsolve.__file__).parent / f"{module}.py"
    assert matrix_inverse_uses(path.read_text()) == [], path


def test_the_triangular_inverse_is_where_inv_is_called():
    source = (Path(krrsolve.__file__).parent / "lowrank.py").read_text()
    renamed = source.replace("def _inverse_cholesky(", "def _renamed(")
    assert [name for _, name in matrix_inverse_uses(renamed)] == ["inv"]


@pytest.mark.parametrize("source", [
    "def build(g, l):\n    return g @ np.linalg.inv(l).T\n",
    "from numpy.linalg import inv\n",
    "from numpy.linalg import inv as invert\n",
    "def _inverse_cholesky(m):\n    return np.tril(np.linalg.inv(m))\n"
    "def other(l):\n    return np.linalg.inv(l)\n",
])
def test_a_second_inverse_is_caught(source):
    assert len(matrix_inverse_uses(source)) == 1


def test_uses_inside_the_triangular_inverse_pass():
    source = ("def _inverse_cholesky(m):\n"
              "    return np.tril(np.linalg.inv(np.linalg.cholesky(m)))\n"
              "def build(pre):\n    return pre.l_inv\n")
    assert matrix_inverse_uses(source) == []
