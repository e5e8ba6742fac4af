"""Experiment configuration: a flat key = value text format.

Example::

    # full-data run at protocol defaults
    dataset = data/ijcnn1.txt
    format = libsvm
    mode = full
    pivot_rule = rpcholesky
    rank = 200
    seed = 7
    output_dir = results/run1

Lines starting with '#' and blank lines are ignored.  Unknown keys are hard
errors so that protocol drift never passes silently.  Defaults follow the
standard protocol: bandwidth 3, mu/N = 1e-7, and per mode either
(epsilon 1e-3, 250 iterations) for full or (epsilon 1e-4, 100 iterations,
the ``direct`` method, ``krr.DEFAULT_PRECONDITIONER``) for restricted
runs.  A restricted run with ``preconditioner = krill`` uses the embedding
of ``sketch.practical_params`` unless ``embedding_dim`` and
``embedding_nnz`` are set.

``ExperimentConfig`` is the one list of keys and their types; the parser
and the CLI flags are derived from its fields.  Each allowed-name set is a
tuple kept beside the code that implements it: ``data.FORMATS``,
``kernels.KERNEL_FAMILIES``, ``lowrank.PIVOT_RULES``, and ``krr.MODES``,
``krr.TASKS`` and ``krr.PRECONDITIONERS``, and each name key is checked
against its tuple by ``errors.check_choice``.  The per-mode epsilon and
iteration defaults are ``krr.DEFAULT_EPSILON`` and ``krr.DEFAULT_MAX_ITER``;
the bandwidth and memory budget defaults are ``kernels.DEFAULT_BANDWIDTH``
and ``kernels.DEFAULT_MEMORY_BUDGET``.

``ExperimentConfig.validate`` builds the run's ``KernelSpec`` and ``PivotRule``,
which need no data, so their bandwidth and seed checks precede the data load.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, fields
from typing import Optional

from .data import FORMATS, LIBSVM
from .errors import InputError, check_choice, check_count, check_fraction, check_positive
from .kernels import (
    DEFAULT_BANDWIDTH,
    DEFAULT_MEMORY_BUDGET,
    KERNEL_FAMILIES,
    SQUARED_EXPONENTIAL,
    KernelSpec,
)
from .krr import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITER,
    DEFAULT_PRECONDITIONER,
    FULL,
    MODES,
    PRECONDITIONERS,
    REGRESSION,
    RESTRICTED,
    TASKS,
)
from .lowrank import PIVOT_RULES, RPCHOLESKY, PivotRule


def _key(default, choices=None, mode=None):
    """A field whose value must be one of ``choices`` and whose CLI flag
    exists only for the solve subcommand of ``mode`` (both when given)."""
    return field(default=default, metadata={"choices": choices, "mode": mode})


@dataclass
class ExperimentConfig:
    dataset: str = ""
    format: str = _key(LIBSVM, choices=FORMATS)
    target_column: Optional[str] = None
    task: str = _key(REGRESSION, choices=TASKS)
    subsample: int = 0  # 0 = use everything
    seed: Optional[int] = None
    kernel: str = _key(SQUARED_EXPONENTIAL, choices=KERNEL_FAMILIES)
    bandwidth: float = DEFAULT_BANDWIDTH
    mu_over_n: float = 1e-7
    mode: str = _key(FULL, choices=MODES)
    pivot_rule: str = _key(RPCHOLESKY, choices=PIVOT_RULES, mode=FULL)
    rank: int = _key(0, mode=FULL)
    block_size: int = _key(0, mode=FULL)  # 0 = min(100, rank/10); greedy ignores it
    preconditioner: str = _key(DEFAULT_PRECONDITIONER, choices=PRECONDITIONERS,
                               mode=RESTRICTED)
    centers: int = _key(0, mode=RESTRICTED)
    embedding_dim: int = _key(0, mode=RESTRICTED)  # 0 = sketch.practical_params
    embedding_nnz: int = _key(0, mode=RESTRICTED)  # 0 = min(8, embedding_dim)
    epsilon: float = 0.0  # 0 = mode default
    max_iter: int = 0  # 0 = mode default
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET
    test_fraction: float = 0.0
    center_targets: bool = False
    output_dir: str = "."

    def validate(self):
        """Check cross-field consistency; fields may be assembled piecemeal
        (config file plus flag overrides) before this runs."""
        for f in fields(self):
            if f.metadata.get("choices"):
                check_choice(f.name, getattr(self, f.name), f.metadata["choices"])
        if self.seed is None:
            raise InputError("seed is required (stochastic command): "
                             "set it in the config or pass --seed")
        check_positive("mu_over_n", self.mu_over_n)
        for name in ("subsample", "rank", "centers", "block_size", "embedding_dim",
                     "embedding_nnz", "max_iter"):
            check_count(name, getattr(self, name), low=0)  # 0 selects the default
        if self.mode == FULL:
            check_count("rank", self.rank)
        else:
            check_count("centers", self.centers)
        KernelSpec(self.kernel, self.bandwidth)
        PivotRule(self.pivot_rule, self.block_size or None, seed=self.seed)
        if self.epsilon != 0:  # 0 selects the mode default
            check_positive("epsilon", self.epsilon)
        if self.test_fraction != 0:  # 0 means no split
            check_fraction("test_fraction", self.test_fraction)
        check_positive("memory budget", self.memory_budget_bytes)

    @property
    def effective_epsilon(self) -> float:
        return self.epsilon if self.epsilon > 0 else DEFAULT_EPSILON[self.mode]

    @property
    def effective_max_iter(self) -> int:
        return self.max_iter if self.max_iter > 0 else DEFAULT_MAX_ITER[self.mode]


def field_types() -> dict:
    """Each key's value type, with ``Optional[T]`` unwrapped to ``T``."""
    types = {}
    for name, hint in typing.get_type_hints(ExperimentConfig).items():
        if typing.get_origin(hint) is typing.Union:
            hint = next(t for t in typing.get_args(hint) if t is not type(None))
        types[name] = hint
    return types


_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False,
               "1": True, "0": False}


def _coerce(name: str, text: str, typ):
    text = text.strip()
    if typ is bool:
        try:
            return _BOOL_WORDS[text.lower()]
        except KeyError:
            raise InputError(f"key {name}: expected a boolean, got {text!r}") from None
    try:
        if typ is int:
            return int(text)
        if typ is float:
            return float(text)
    except ValueError:
        raise InputError(f"key {name}: expected {typ.__name__}, got {text!r}") from None
    return text


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    types = field_types()
    values = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{source}:{line_no}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in types:
            raise InputError(f"{source}:{line_no}: unknown key {key!r}")
        if key in values:
            raise InputError(f"{source}:{line_no}: duplicate key {key!r}")
        values[key] = _coerce(key, val, types[key])
    return ExperimentConfig(**values)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, source=path)
