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
d = 2k, zeta = min(8, d)) for restricted runs.

``ExperimentConfig`` is the one list of keys and their types; the parser
and the CLI flags are derived from its fields.  Each allowed-name set is a
tuple kept beside the code that implements it: ``data.FORMATS``,
``kernels.KERNEL_FAMILIES``, ``lowrank.PIVOT_RULES``, and ``krr.MODES``,
``krr.TASKS`` and ``krr.PRECONDITIONERS``.  The per-mode epsilon and
iteration defaults are ``krr.DEFAULT_EPSILON`` and ``krr.DEFAULT_MAX_ITER``;
the bandwidth and memory budget defaults are ``kernels.DEFAULT_BANDWIDTH``
and ``kernels.DEFAULT_MEMORY_BUDGET``.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field, fields
from typing import Optional

from .data import FORMATS, LIBSVM
from .errors import InputError
from .kernels import (
    DEFAULT_BANDWIDTH,
    DEFAULT_MEMORY_BUDGET,
    KERNEL_FAMILIES,
    SQUARED_EXPONENTIAL,
)
from .krr import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITER,
    FULL,
    KRILL,
    MODES,
    PRECONDITIONERS,
    REGRESSION,
    RESTRICTED,
    TASKS,
)
from .lowrank import PIVOT_RULES, RPCHOLESKY


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
    block_size: int = _key(0, mode=FULL)  # 0 = min(100, rank/10)
    preconditioner: str = _key(KRILL, choices=PRECONDITIONERS, mode=RESTRICTED)
    centers: int = _key(0, mode=RESTRICTED)
    embedding_dim: int = _key(0, mode=RESTRICTED)  # 0 = 2k
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
            names = f.metadata.get("choices")
            if names and getattr(self, f.name) not in names:
                raise InputError(f"{f.name} must be one of {', '.join(names)}; "
                                 f"got {getattr(self, f.name)!r}")
        if self.seed is None:
            raise InputError("seed is required (stochastic command): "
                             "set it in the config or pass --seed")
        if self.bandwidth <= 0:
            raise InputError("bandwidth must be positive")
        if not 0 < self.mu_over_n < math.inf:
            raise InputError(f"mu_over_n must be finite and positive, got {self.mu_over_n}")
        for name in ("subsample", "rank", "centers", "block_size", "embedding_dim",
                     "embedding_nnz", "epsilon", "max_iter"):
            if not getattr(self, name) >= 0:
                raise InputError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if not 0.0 <= self.test_fraction < 1.0:
            raise InputError("test_fraction must lie in [0, 1)")
        if self.memory_budget_bytes <= 0:
            raise InputError("memory budget must be positive")
        if self.mode == FULL and self.rank < 1:
            raise InputError("full mode requires rank >= 1")
        if self.mode == RESTRICTED and self.centers < 1:
            raise InputError("restricted mode requires centers >= 1")

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
