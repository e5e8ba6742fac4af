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

A copy of the array rule's shape test is an ``if`` that raises
``InputError`` on ``.ndim`` or ``np.ndim(...)`` of a parameter or a
``self`` field, such as ``if np.ndim(a_ss) != 2``: ``check_array`` with
``ndim=2`` is that test, and ``precond``'s builders once wrote it out three
times, behind a bare ``np.asarray`` or none, so a nested list raised
``AttributeError`` and a NaN reached the factorization.  A relational test
on a checked array's ``shape``, such as one column per center, is not a
copy.  ``shape_copies`` finds these.

A ``0 < x < inf`` test that raises ``NumericalError`` is not a copy: it
guards a computed value, such as the trace ``precond._stabilized_cholesky``
factors, not an input.

``rule_copies`` finds copies of those four rules.  ``input_rule_copies``
finds copies of the other three, each once a set of inline checks in as many
message formats:

* ``check_choice``: an ``if`` that raises ``InputError`` on a ``not in``
  test of a parameter, a ``self`` field or ``getattr(self, ...)``, such as
  ``if task not in TASKS``, or the last link of an ``if``/``elif`` chain on
  ``==`` of such an input whose ``else`` raises ``InputError``, as
  ``separation_experiment`` once checked its ``kind``.  ``load_csv`` looks
  its target column up with ``list.index``: a column name is data, not an
  allowed name.
* ``check_indices``: a cast of a parameter or a ``self`` field to an
  integer dtype, such as ``np.asarray(indices, dtype=np.int64)``, which
  truncates floats and reads a boolean mask as the indices 0 and 1, as
  ``Dataset.subset`` once did.  A cast of a local array the code built
  itself, such as ``lowrank``'s pivot lists, is not a copy.
* ``check_fraction``: an ``if`` that raises ``InputError`` on a
  ``0 < x < 1`` test (``<`` or ``<=``, int or float literals) of a
  parameter or a ``self`` field.
"""

import ast
import re
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


def _is_number(node, value) -> bool:
    """An int or float literal equal to ``value``."""
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and node.value == value)


def _is_fraction_range(node) -> bool:
    """``0 < x < 1``, with ``<`` or ``<=`` and int or float literals."""
    return (isinstance(node, ast.Compare) and len(node.ops) == 2
            and all(isinstance(op, (ast.Lt, ast.LtE)) for op in node.ops)
            and _is_number(node.left, 0) and _is_number(node.comparators[-1], 1))


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
    ``params`` or a ``self`` field, other than ``0 < x < inf`` and
    ``0 < x < 1``."""
    if not (isinstance(node, ast.Compare) and not _is_positive_range(node)
            and not _is_fraction_range(node)
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


def _is_getattr_self(node) -> bool:
    """``getattr(self, ...)``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) >= 1
            and isinstance(node.args[0], ast.Name) and node.args[0].id == "self")


def _tests_a_choice(node, params) -> bool:
    """``x not in names`` of a name in ``params``, a ``self`` field or
    ``getattr(self, ...)``."""
    return (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.NotIn)
            and (_names_an_input(node.left, params) or _is_getattr_self(node.left)))


def _equals_an_input(node, params) -> bool:
    """An ``==`` comparison with a name in ``params`` or a ``self`` field."""
    return (isinstance(node, ast.Compare) and any(isinstance(op, ast.Eq) for op in node.ops)
            and any(_names_an_input(o, params) for o in [node.left, *node.comparators]))


_INTEGER_DTYPE = re.compile(r"u?int(8|16|32|64|p|c|_)?")


def _is_integer_dtype(node) -> bool:
    """``int``, ``np.int64``, ``np.intp``, ``"int32"`` and the like."""
    name = (node.attr if isinstance(node, ast.Attribute)
            else node.id if isinstance(node, ast.Name)
            else node.value if isinstance(node, ast.Constant) and isinstance(node.value, str)
            else "")
    return bool(_INTEGER_DTYPE.fullmatch(name))


def _casts_to_indices(node, params) -> bool:
    """``x.astype(T)``, or ``np.asarray``, ``np.array`` or
    ``np.asanyarray`` of x with dtype T, where x is a name in ``params`` or
    a ``self`` field and T an integer dtype."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return False
    dtypes = [k.value for k in node.keywords if k.arg == "dtype"]
    if node.func.attr == "astype":
        source, dtypes = node.func.value, dtypes + node.args[:1]
    elif node.func.attr in ("asarray", "array", "asanyarray") and node.args:
        source, dtypes = node.args[0], dtypes + node.args[1:2]
    else:
        return False
    return _names_an_input(source, params) and any(_is_integer_dtype(d) for d in dtypes)


def _tests_a_shape(node, params) -> bool:
    """``x.ndim`` or ``np.ndim(x)`` of a name in ``params`` or a ``self``
    field."""
    if isinstance(node, ast.Attribute) and node.attr == "ndim":
        return _names_an_input(node.value, params)
    if isinstance(node, ast.Call) and node.args:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        return name == "ndim" and _names_an_input(node.args[0], params)
    return False


def _tests_a_fraction(node, params) -> bool:
    """``0 < x < 1`` of a name in ``params`` or a ``self`` field."""
    return _is_fraction_range(node) and _names_an_input(node.comparators[0], params)


def _raised_on(node):
    """The nodes of the test of an ``if`` whose body raises ``InputError``."""
    if isinstance(node, ast.If) and _raises_input_error(node.body):
        return ast.walk(node.test)
    return ()


def _else_raised_on(node):
    """The nodes of the test of an ``if`` whose own ``else``, not a later
    ``elif``, raises ``InputError``."""
    if isinstance(node, ast.If) and _raises_input_error(
            [s for s in node.orelse if isinstance(s, ast.Raise)]):
        return ast.walk(node.test)
    return ()


def _input_copies(tree, rule, copies, site=_raised_on) -> set:
    """(line, rule) of every node of a function of ``tree`` at which
    ``site(node)``, by default the test of an ``if`` that raises
    ``InputError``, holds a node for which ``copies(node, params)`` holds;
    a node in a nested function is judged against the parameters of each
    function around it."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        for node in ast.walk(func):
            if any(copies(n, params) for n in site(node)):
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


def choice_copies(tree) -> set:
    """(line, "choice") of every ``if`` in a function of ``tree`` that copies
    the name rule: a ``not in`` test, or the raising ``else`` of an
    ``if``/``elif`` chain over the names."""
    return (_input_copies(tree, "choice", _tests_a_choice)
            | _input_copies(tree, "choice", _equals_an_input, _else_raised_on))


def index_copies(tree) -> set:
    """(line, "indices") of every cast of an input to an integer dtype in a
    function of ``tree``."""
    return _input_copies(tree, "indices", _casts_to_indices, lambda node: (node,))


def fraction_copies(tree) -> set:
    """(line, "fraction") of every ``if`` in a function of ``tree`` that
    copies the fraction rule."""
    return _input_copies(tree, "fraction", _tests_a_fraction)


def shape_copies(source: str) -> list:
    """(line, "shape") of every ``if`` in a function of ``source`` that
    copies the array rule's shape test."""
    return sorted(_input_copies(ast.parse(source), "shape", _tests_a_shape))


def input_rule_copies(source: str) -> list:
    """(line, rule) of every copy of the name, index or fraction rule in
    ``source``."""
    tree = ast.parse(source)
    return sorted(choice_copies(tree) | index_copies(tree) | fraction_copies(tree))


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


@pytest.mark.parametrize("module", MODULES)
def test_module_copies_no_name_index_or_fraction_rule(module):
    path = PACKAGE / f"{module}.py"
    assert input_rule_copies(path.read_text()) == [], path


def test_the_rules_are_written_once_in_errors():
    source = (PACKAGE / "errors.py").read_text()
    found = rule_copies(source) + input_rule_copies(source)
    assert sorted(rule for _, rule in found) == ["0 < x < inf", "choice", "count",
                                                 "default_rng", "fraction", "indices"]


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


# the copies that ``check_choice``, ``check_indices`` and ``check_fraction``
# replaced, as they read before, then other spellings of the same tests
INPUT_RULE_COPIES = {
    "choice": {
        "ExperimentConfig.validate": (
            "class ExperimentConfig:\n    def validate(self):\n"
            "        for f in fields(self):\n"
            "            names = f.metadata.get('choices')\n"
            "            if names and getattr(self, f.name) not in names:\n"
            "                raise InputError(f'{f.name} must be one of {names}')\n"),
        "load_dataset": "def load_dataset(path, fmt, target_column=None):\n"
                        "    if fmt not in FORMATS:\n"
                        "        raise InputError(f'unknown dataset format {fmt!r}')\n",
        "KernelSpec": "class KernelSpec:\n    def __post_init__(self):\n"
                      "        if self.family not in KERNEL_FAMILIES:\n"
                      "            raise InputError('unknown kernel family')\n",
        "RestrictedKrrProblem": "class RestrictedKrrProblem:\n    def __post_init__(self):\n"
                                "        if self.preconditioner not in PRECONDITIONERS:\n"
                                "            raise InputError('unknown preconditioner')\n",
        "test_error": "def test_error(predictions, labels, task):\n"
                      "    if task not in TASKS:\n"
                      "        raise InputError(f'unknown task {task!r}')\n",
        "PivotRule": "class PivotRule:\n    def __post_init__(self):\n"
                     "        if self.kind not in PIVOT_RULES:\n"
                     "            raise InputError('unknown pivot rule')\n",
        "separation_experiment": (
            "def separation_experiment(kind, n=1000):\n"
            "    if kind == 'uniform':\n        a = uniform(n)\n"
            "    elif kind == 'greedy':\n        a = greedy(n)\n"
            "    else:\n        raise InputError(f'kind must be uniform or greedy, got {kind!r}')\n"),
        "or": "def f(mode, x):\n    if x < 0 or mode not in MODES:\n"
              "        raise errors.InputError('mode')\n",
    },
    "indices": {
        "Dataset.subset": "class Dataset:\n    def subset(self, indices):\n"
                          "        idx = np.asarray(indices, dtype=np.int64)\n",
        "kernels._as_indices": "def _as_indices(idx, n):\n"
                               "    idx = idx.astype(np.int64, copy=False).ravel()\n",
        "np.array, int": "def f(rows):\n    return np.array(rows, dtype=int)\n",
        "positional dtype": "def f(cols):\n    return np.asarray(cols, np.intp)\n",
        "self field, str dtype": "class C:\n    def g(self):\n"
                                 "        return self.centers.astype('int32')\n",
    },
    "fraction": {
        "build_greedy_failure_matrix": "def build_greedy_failure_matrix(n, delta):\n"
                                       "    if not 0.0 < delta < 1.0:\n"
                                       "        raise InputError('delta must lie in (0, 1)')\n",
        "split_train_test": "def split_train_test(data, test_fraction, seed=None):\n"
                            "    if not 0.0 < test_fraction < 1.0:\n"
                            "        raise InputError('test_fraction must lie in (0, 1)')\n",
        "ExperimentConfig.validate": "class ExperimentConfig:\n    def validate(self):\n"
                                     "        if not 0.0 <= self.test_fraction < 1.0:\n"
                                     "            raise InputError('test_fraction')\n",
        "int literals": "def f(p):\n    if not 0 < p < 1:\n        raise InputError('p')\n",
    },
}


@pytest.mark.parametrize("rule,source", [
    (rule, source) for rule, copies in INPUT_RULE_COPIES.items() for source in copies.values()
], ids=[f"{rule}-{name}" for rule, copies in INPUT_RULE_COPIES.items() for name in copies])
def test_every_copy_of_the_name_index_and_fraction_rules_is_caught(rule, source):
    assert [found for _, found in input_rule_copies(source)] == [rule]


@pytest.mark.parametrize("source", [
    "def f(kind):\n    check_choice('kind', kind, (UNIFORM, GREEDY))\n"
    "    if kind == UNIFORM:\n        a = 1\n    else:\n        a = 2\n",
    # a local, such as a parsed key, and a column looked up in a header
    "def parse(text):\n    key = text.strip()\n    if key not in TYPES:\n"
    "        raise InputError(key)\n",
    "def load(path, target_column):\n    try:\n        tcol = header.index(target_column)\n"
    "    except ValueError:\n        raise InputError(target_column) from None\n",
    "def f(mode):\n    if mode not in MODES:\n        raise NumericalError(mode)\n",
    "def f(text):\n    kind = text.strip()\n    if kind == 'a':\n        a = 1\n"
    "    else:\n        raise InputError(kind)\n",
    "def f(idx, n):\n    idx = check_indices(idx, n)\n",
    "def f(h):\n    taken = []\n    return np.asarray(taken, dtype=np.int64)\n",
    "def f(x):\n    return np.asarray(x, dtype=np.float64)\n",
    "def f(weights, n):\n    return (weights * n).astype(int)\n",
    "def f(delta):\n    check_fraction('delta', delta)\n",
    "def f(p):\n    if not 0 < p < 2:\n        raise NumericalError('p')\n",
    "def f(trace):\n    if not 0.0 < trace < 1.0:\n        raise NumericalError('trace')\n",
], ids=["check_choice", "local-key", "header-index", "numerical-error", "local-chain",
        "check_indices", "local-cast", "float-cast", "expression-cast", "check_fraction",
        "other-range", "numerical-fraction"])
def test_other_name_index_and_fraction_code_passes(source):
    assert input_rule_copies(source) == []


@pytest.mark.parametrize("module", MODULES)
def test_module_copies_no_shape_test(module):
    path = PACKAGE / f"{module}.py"
    assert shape_copies(path.read_text()) == [], path


# the three shape tests that ``check_array`` replaced in ``precond``, as
# they read before, then other spellings of the same test
SHAPE_COPIES = {
    "krill_from_sketch A(S,S)": (
        "def krill_from_sketch(y_sketch, a_ss, mu):\n"
        "    if np.ndim(a_ss) != 2 or a_ss.shape[0] != a_ss.shape[1]:\n"
        "        raise InputError(f'A(S,S) must be square, got shape {np.shape(a_ss)}')\n"),
    "krill_from_sketch sketch": (
        "def krill_from_sketch(y_sketch, a_ss, mu):\n    k = a_ss.shape[0]\n"
        "    if np.ndim(y_sketch) != 2 or y_sketch.shape[1] != k:\n"
        "        raise InputError('the sketch must be 2-d with one column per center')\n"),
    "precond_condition_number": (
        "def precond_condition_number(m, apply_inv):\n"
        "    m = np.asarray(m, dtype=np.float64)\n"
        "    if m.ndim != 2 or m.shape[0] != m.shape[1]:\n"
        "        raise InputError('M must be square')\n"),
    "self field": "class C:\n    def check(self):\n        if self.features.ndim != 2:\n"
                  "            raise errors.InputError('features')\n",
    "numpy.ndim": "def f(x):\n    if numpy.ndim(x) < 2:\n        raise InputError('x')\n",
}


@pytest.mark.parametrize("source", SHAPE_COPIES.values(), ids=SHAPE_COPIES.keys())
def test_every_copy_of_the_shape_test_is_caught(source):
    assert [rule for _, rule in shape_copies(source)] == ["shape"]


@pytest.mark.parametrize("source", [
    "def f(a_ss):\n    a_ss = check_array('A(S,S) entries', a_ss, ndim=2)\n"
    "    if a_ss.shape[0] != a_ss.shape[1]:\n        raise InputError('square')\n",
    "def f(x):\n    y = np.asarray(x)\n    if y.ndim != 2:\n        raise InputError('y')\n",
    "def f(x):\n    if x.ndim != 2:\n        raise NumericalError('x')\n",
    "def check_array(name, value, ndim=1):\n    if ndim == 2:\n"
    "        raise InputError(name)\n",
], ids=["relational", "local", "numerical-error", "ndim-parameter"])
def test_other_shape_code_passes(source):
    assert shape_copies(source) == []
