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

A copy of the array rule, ``check_array``, is an ``if`` that raises
``InputError`` on ``np.isfinite``, ``np.isnan`` or ``np.isinf`` of a
parameter or a ``self`` field reduced by ``all`` or ``any``, such as
``if not np.isfinite(b).all()``.  Five such copies once checked features,
targets, an explicit matrix and ``pcg``'s b, while the targets of both
problems, the point sets and the scores took NaN.
``data._finite_or_raise`` is not a copy: it tests one parsed value, not an
array, and names the ``path:line`` it came from.

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
    return literal and any(_names_an_input(o, params) for o in operands)


def _names_an_input(node, params) -> bool:
    """A name in ``params`` or a ``self`` field."""
    return (isinstance(node, ast.Name) and node.id in params
            or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def _tests_finiteness(node, params) -> bool:
    """``all`` or ``any``, as a method or a function, of ``isfinite``,
    ``isnan`` or ``isinf`` of a name in ``params`` or a ``self`` field."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("all", "any")):
        return False
    for inner in (node.func.value, *node.args):
        if isinstance(inner, ast.Call) and inner.args:
            func = inner.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in ("isfinite", "isnan", "isinf") and _names_an_input(inner.args[0],
                                                                          params):
                return True
    return False


def _input_copies(tree, rule, copies) -> set:
    """(line, rule) of every ``if`` in a function of ``tree`` that raises
    ``InputError`` on a test with a node for which ``copies(node, params)``
    holds; an ``if`` in a nested function is judged against the parameters
    of each function around it."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        for node in ast.walk(func):
            if (isinstance(node, ast.If) and _raises_input_error(node.body)
                    and any(copies(n, params) for n in ast.walk(node.test))):
                found.add((node.lineno, rule))
    return found


def count_copies(tree) -> set:
    """(line, "count") of every ``if`` in a function of ``tree`` that copies
    the count rule."""
    return _input_copies(tree, "count", _compares_a_count)


def finite_copies(tree) -> set:
    """(line, "finite") of every ``if`` in a function of ``tree`` that copies
    the array rule's finiteness test."""
    return _input_copies(tree, "finite", _tests_finiteness)


def rule_copies(source: str) -> list:
    """(line, rule) of every copy of a shared rule in ``source``: an ``if``
    on ``0 < x < inf`` that raises ``InputError``, an ``if`` that copies the
    count rule or the array rule's finiteness test, a use or import of
    ``default_rng``, and a definition of ``_check_seed``."""
    tree = ast.parse(source)
    found = sorted(count_copies(tree) | finite_copies(tree))
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


# the five finiteness tests that ``check_array`` replaced, as they read
# before, then three other spellings of the same test
ARRAY_RULE_COPIES = {
    "Dataset.features": "class Dataset:\n    def __post_init__(self):\n"
                        "        if not np.isfinite(self.features).all():\n"
                        "            raise InputError('features contain non-finite values')\n",
    "Dataset.targets": "class Dataset:\n    def __post_init__(self):\n"
                       "        if self.targets is not None:\n"
                       "            if not np.isfinite(self.targets).all():\n"
                       "                raise InputError('targets contain non-finite values')\n",
    "DatasetKernelOracle": "def __init__(self, features, spec, memory_budget=1):\n"
                           "    features = np.asarray(features, dtype=np.float64)\n"
                           "    if not np.isfinite(features).all():\n"
                           "        raise InputError('features contain non-finite values')\n",
    "ExplicitMatrixOracle": "def __init__(self, matrix):\n"
                            "    if not np.isfinite(matrix).all():\n"
                            "        raise InputError('matrix contains non-finite values')\n",
    "pcg": "def pcg(product, b, epsilon):\n    if not np.isfinite(b).all():\n"
           "        raise InputError('right-hand side contains non-finite values')\n",
    "np.all": "def f(x):\n    if not np.all(np.isfinite(x)):\n        raise InputError('x')\n",
    "isnan": "def f(y):\n    if np.isnan(y).any():\n        raise errors.InputError('y')\n",
    "numpy.any": "def f(y):\n    if numpy.any(numpy.isinf(y)):\n        raise InputError('y')\n",
}


@pytest.mark.parametrize("source", ARRAY_RULE_COPIES.values(), ids=ARRAY_RULE_COPIES.keys())
def test_every_copy_of_the_array_rule_is_caught(source):
    assert [rule for _, rule in rule_copies(source)] == ["finite"]


@pytest.mark.parametrize("source", [
    # one parsed value, reported with its path:line
    "def _finite_or_raise(value, path, line_no):\n    if not np.isfinite(value):\n"
    "        raise InputError(f'{path}:{line_no}: non-finite value {value!r}')\n",
    # a local array, such as a parsed table
    "def load(path):\n    table = parse(path)\n    if not np.isfinite(table).all():\n"
    "        raise InputError(path)\n",
    # a computed value
    "def f(m):\n    if not np.isfinite(m).all():\n        raise NumericalError('m')\n",
    "def f(x):\n    x = check_array('x', x)\n",
], ids=["one-parsed-value", "local-table", "numerical-error", "check_array"])
def test_other_finiteness_tests_pass(source):
    assert rule_copies(source) == []
