"""Each shared input rule is written once, in ``krrsolve.errors``.

``check_positive`` is the one ``0 < x < inf`` test that raises an
``InputError``, ``check_count`` the one range test of an integer count, and
``rng`` the one caller of ``np.random.default_rng``, behind its seed check.
Copies of these rules drifted apart before: one layer let NaN through where
another caught it, a seed reached numpy unchecked, and no copy of the count
rule checked that the count was an integer.  ``lowrank._check_seed``, the
old seed rule, stays deleted.

A copy of the count rule is an ``if`` that raises ``InputError`` on an
ordering comparison between an integer literal and a parameter of the
enclosing function or a ``self`` field, such as ``if rank < 1``.  ``rng``'s
``seed < 0`` is that rule's one copy, since its messages are its own.

A ``0 < x < inf`` test that raises ``NumericalError`` is not a copy: it
guards a computed value, such as the trace ``precond._stabilized_cholesky``
factors, not an input.
"""

import ast
from pathlib import Path

import pytest

import krrsolve

PACKAGE = Path(krrsolve.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "errors")


def _is_inf(node) -> bool:
    """``np.inf``, ``math.inf``, ``inf`` or ``float("inf")``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "inf"
    if isinstance(node, ast.Name):
        return node.id == "inf"
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float" and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).lower() in ("inf", "infinity"))


def _is_positive_range(node) -> bool:
    return (isinstance(node, ast.Compare) and isinstance(node.left, ast.Constant)
            and node.left.value == 0 and len(node.ops) == 2
            and all(isinstance(op, ast.Lt) for op in node.ops)
            and _is_inf(node.comparators[-1]))


def _raises_input_error(body) -> bool:
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name == "InputError":
                    return True
    return False


_ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _compares_a_count(node, params) -> bool:
    """An ordering comparison of an integer literal with a name in
    ``params`` or a ``self`` field, other than ``0 < x < inf``."""
    if not (isinstance(node, ast.Compare) and not _is_positive_range(node)
            and any(isinstance(op, _ORDERINGS) for op in node.ops)):
        return False
    operands = [node.left, *node.comparators]
    literal = any(isinstance(o, ast.Constant) and type(o.value) is int for o in operands)
    named = any(isinstance(o, ast.Name) and o.id in params
                or isinstance(o, ast.Attribute) and isinstance(o.value, ast.Name)
                and o.value.id == "self" for o in operands)
    return literal and named


def count_copies(tree) -> set:
    """(line, "count") of every ``if`` in a function of ``tree`` that copies
    the count rule; an ``if`` in a nested function is judged against the
    parameters of each function around it."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        for node in ast.walk(func):
            if (isinstance(node, ast.If) and _raises_input_error(node.body)
                    and any(_compares_a_count(n, params) for n in ast.walk(node.test))):
                found.add((node.lineno, "count"))
    return found


def rule_copies(source: str) -> list:
    """(line, rule) of every copy of a shared rule in ``source``: an ``if``
    on ``0 < x < inf`` that raises ``InputError``, an ``if`` that copies the
    count rule, a use or import of ``default_rng``, and a definition of
    ``_check_seed``."""
    tree = ast.parse(source)
    found = sorted(count_copies(tree))
    for node in ast.walk(tree):
        if (isinstance(node, ast.If) and _raises_input_error(node.body)
                and any(_is_positive_range(n) for n in ast.walk(node.test))):
            found.append((node.lineno, "0 < x < inf"))
        elif (isinstance(node, ast.Attribute) and node.attr == "default_rng"
              or isinstance(node, ast.Name) and node.id == "default_rng"
              or isinstance(node, ast.alias) and node.name == "default_rng"):
            found.append((getattr(node, "lineno", None), "default_rng"))
        elif isinstance(node, ast.FunctionDef) and node.name == "_check_seed":
            found.append((node.lineno, "_check_seed"))
    return found


@pytest.mark.parametrize("module", MODULES)
def test_module_copies_no_shared_rule(module):
    path = PACKAGE / f"{module}.py"
    assert rule_copies(path.read_text()) == [], path


def test_the_rules_are_written_once_in_errors():
    found = rule_copies((PACKAGE / "errors.py").read_text())
    assert sorted(rule for _, rule in found) == ["0 < x < inf", "count", "default_rng"]


@pytest.mark.parametrize("source", [
    "if not 0 < mu < np.inf:\n    raise InputError('mu')\n",
    "if not 0 < mu < math.inf:\n    raise InputError('mu')\n",
    "if not 0.0 < mu < float('inf'):\n    raise errors.InputError('mu')\n",
    "if n < 1 or not 0 < x < inf:\n    raise InputError('x')\n",
    "gen = np.random.default_rng(seed)\n",
    "gen = numpy.random.default_rng(0)\n",
    "from numpy.random import default_rng\n",
    "from numpy.random import default_rng as draw\n",
    "def _check_seed(seed):\n    pass\n",
    "def f(rank):\n    if rank < 1:\n        raise InputError('rank')\n",
    "def f(n, k):\n    if not 1 <= k <= n:\n        raise InputError('k')\n",
    "def f(max_iter=250):\n    if 0 > max_iter:\n        raise errors.InputError('max_iter')\n",
    "def f(n):\n    def g():\n        if n < 8:\n            raise InputError('n')\n",
    "class C:\n    def check(self):\n"
    "        if self.block_size is not None and self.block_size < 1:\n"
    "            raise InputError('block_size')\n",
])
def test_every_copy_is_caught(source):
    assert len(rule_copies(source)) == 1


@pytest.mark.parametrize("source", [
    "if not 0 < trace < np.inf:\n    raise NumericalError('trace')\n",
    "if not 0 <= x < 1:\n    raise InputError('x')\n",
    "if not 0 < x < 1:\n    raise InputError('x')\n",
    "check_positive('mu', mu)\n",
    "gen = rng(seed)\n",
    "def _check_n_seeds(n_seeds):\n    pass\n",
    "def f(rank):\n    rank = check_count('rank', rank)\n",
    "def f(rank):\n    if rank < 1:\n        raise NumericalError('rank')\n",
    "def f(delta):\n    if not 0.0 < delta < 1.0:\n        raise InputError('delta')\n",
    "def f(x):\n    if x.ndim != 2:\n        raise InputError('x')\n",
    "def f(x):\n    n = len(x)\n    if n < 1:\n        raise InputError('x')\n",
    "def f(factor):\n    if factor.rank < 1:\n        raise InputError('factor')\n",
])
def test_other_code_passes(source):
    assert rule_copies(source) == []
