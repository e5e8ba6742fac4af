import math
import typing
from dataclasses import fields, replace
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krrsolve.config import ExperimentConfig, parse_config_text
from krrsolve.errors import InputError

FIELD_TYPES = {
    "dataset": str, "format": str, "target_column": Optional[str], "task": str,
    "subsample": int, "seed": Optional[int], "kernel": str, "bandwidth": float,
    "mu_over_n": float, "mode": str, "pivot_rule": str, "rank": int,
    "block_size": int, "preconditioner": str, "centers": int,
    "embedding_dim": int, "embedding_nnz": int, "epsilon": float,
    "max_iter": int, "memory_budget_bytes": int, "test_fraction": float,
    "center_targets": bool, "output_dir": str,
}

DEFAULTS = {
    "dataset": "", "format": "libsvm", "target_column": None,
    "task": "regression", "subsample": 0, "seed": None,
    "kernel": "squared_exponential", "bandwidth": 3.0, "mu_over_n": 1e-7,
    "mode": "full", "pivot_rule": "rpcholesky", "rank": 0, "block_size": 0,
    "preconditioner": "direct", "centers": 0, "embedding_dim": 0,
    "embedding_nnz": 0, "epsilon": 0.0, "max_iter": 0,
    "memory_budget_bytes": 1 << 30, "test_fraction": 0.0,
    "center_targets": False, "output_dir": ".",
}

# one non-default value per field, as text and as the parsed value
ROUND_TRIP = {
    "dataset": ("data/x.txt", "data/x.txt"),
    "format": ("csv", "csv"),
    "target_column": ("y", "y"),
    "task": ("classification", "classification"),
    "subsample": ("50", 50),
    "seed": ("7", 7),
    "kernel": ("laplace1", "laplace1"),
    "bandwidth": ("2.5", 2.5),
    "mu_over_n": ("1e-6", 1e-6),
    "mode": ("restricted", "restricted"),
    "pivot_rule": ("greedy", "greedy"),
    "rank": ("12", 12),
    "block_size": ("3", 3),
    "preconditioner": ("falkon", "falkon"),
    "centers": ("9", 9),
    "embedding_dim": ("20", 20),
    "embedding_nnz": ("4", 4),
    "epsilon": ("1e-5", 1e-5),
    "max_iter": ("33", 33),
    "memory_budget_bytes": ("4096", 4096),
    "test_fraction": ("0.25", 0.25),
    "center_targets": ("yes", True),
    "output_dir": ("out/run", "out/run"),
}


def test_fields_types_and_defaults_are_pinned():
    assert [f.name for f in fields(ExperimentConfig)] == list(FIELD_TYPES)
    assert typing.get_type_hints(ExperimentConfig) == FIELD_TYPES
    assert {f.name: getattr(ExperimentConfig(), f.name)
            for f in fields(ExperimentConfig)} == DEFAULTS


def test_empty_text_gives_defaults():
    assert parse_config_text("# only a comment\n\n") == ExperimentConfig()


def test_round_trip_over_every_field():
    text = "\n".join(f"  {key} =  {val}  # note" for key, (val, _) in ROUND_TRIP.items())
    config = parse_config_text(text)
    for key, (_, expect) in ROUND_TRIP.items():
        value = getattr(config, key)
        assert value == expect, key
        assert type(value) is type(expect), key


@pytest.mark.parametrize("word,expect", [
    ("true", True), ("FALSE", False), ("Yes", True), ("no", False),
    ("1", True), ("0", False)])
def test_boolean_words(word, expect):
    assert parse_config_text(f"center_targets = {word}").center_targets is expect


def test_optional_fields():
    config = parse_config_text("seed = -3\ntarget_column = price")
    assert config.seed == -3 and config.target_column == "price"
    assert parse_config_text("target_column =").target_column == ""
    with pytest.raises(InputError, match="seed"):
        parse_config_text("seed =")


@pytest.mark.parametrize("text,match", [
    ("colour = red", "unknown key"),
    ("rank = 3\nrank = 4", "duplicate key"),
    ("rank = abc", "rank"),
    ("rank = 1.5", "rank"),
    ("seed = 1.5", "seed"),
    ("bandwidth = wide", "bandwidth"),
    ("center_targets = maybe", "center_targets"),
    ("just words", "key = value"),
])
def test_bad_lines_raise(text, match):
    with pytest.raises(InputError, match=match):
        parse_config_text(text, source="t.cfg")


_WORDS = st.text(alphabet="abcXYZ019/._-= ", max_size=12).filter(lambda s: s == s.strip())
_BOOLS = st.sampled_from(["true", "false", "yes", "no", "1", "0"]).flatmap(
    lambda w: st.sampled_from([w, w.upper(), w.capitalize()]))


def _value_strategy(typ):
    """(text, parsed value) pairs for one field type."""
    if typ is bool:
        return _BOOLS.map(lambda w: (w, w.lower() in ("true", "yes", "1")))
    if typ in (int, Optional[int]):
        return st.integers(-10**12, 10**12).map(lambda v: (str(v), v))
    if typ is float:
        return st.floats(allow_nan=False, allow_infinity=False).map(lambda v: (repr(v), v))
    return _WORDS.map(lambda v: (v, v))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(list(FIELD_TYPES)), unique=True).flatmap(
    lambda keys: st.tuples(*(st.tuples(st.just(k), _value_strategy(FIELD_TYPES[k]))
                             for k in keys))))
def test_round_trip_property(pairs):
    text = "\n".join(f"{key} = {val}" for key, (val, _) in pairs)
    config = parse_config_text(text)
    assert config == replace(ExperimentConfig(), **{k: v for k, (_, v) in pairs})


def _valid(**overrides):
    return replace(ExperimentConfig(dataset="d.txt", seed=0, rank=5, centers=5),
                   **overrides)


@pytest.mark.parametrize("name", ["epsilon", "max_iter", "block_size",
                                  "embedding_dim", "embedding_nnz"])
@pytest.mark.parametrize("mode", ["full", "restricted"])
def test_negative_values_are_rejected(name, mode):
    config = _valid(mode=mode, **{name: 0})
    config.validate()  # 0 selects the default
    with pytest.raises(InputError, match=name):
        replace(config, **{name: -1}).validate()


@pytest.mark.parametrize("name,value", [
    ("epsilon", math.inf), ("bandwidth", math.inf), ("bandwidth", math.nan),
    ("bandwidth", 0.0), ("bandwidth", -1.0), ("seed", -1)])
def test_nonfinite_or_nonpositive_values_are_rejected(name, value):
    # caught before the dataset loads; inf would report every run as solved
    with pytest.raises(InputError, match=name):
        _valid(**{name: value}).validate()


@pytest.mark.parametrize("overrides,match", [
    ({"test_fraction": 1.0}, "test_fraction"),
    ({"memory_budget_bytes": 0}, "memory budget"),
    ({"mode": "restricted", "centers": 0}, "centers"),
])
def test_out_of_range_values_are_rejected(overrides, match):
    with pytest.raises(InputError, match=match):
        _valid(**overrides).validate()


def test_missing_seed_is_rejected():
    _valid().validate()
    with pytest.raises(InputError, match="seed"):
        _valid(seed=None).validate()


@pytest.mark.parametrize("name", ["format", "task", "kernel", "mode", "pivot_rule",
                                  "preconditioner"])
def test_unknown_names_are_rejected(name):
    with pytest.raises(InputError, match=name):
        _valid(**{name: "bogus"}).validate()


@pytest.mark.parametrize("mode,epsilon,max_iter", [("full", 1e-3, 250),
                                                   ("restricted", 1e-4, 100)])
def test_mode_defaults(mode, epsilon, max_iter):
    config = _valid(mode=mode)
    assert (config.effective_epsilon, config.effective_max_iter) == (epsilon, max_iter)
    config = _valid(mode=mode, epsilon=0.5, max_iter=3)
    assert (config.effective_epsilon, config.effective_max_iter) == (0.5, 3)
