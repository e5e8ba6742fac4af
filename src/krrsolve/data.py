"""Dataset container, standardization, and file ingestion.

Supported input formats:

* libsvm text: ``label idx:val idx:val ...`` with 1-based feature indices,
* CSV with a header row; the target column is selected by name.

Rows that parse to non-finite values are rejected with their line number.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError

LIBSVM = "libsvm"
CSV = "csv"
FORMATS = (LIBSVM, CSV)


@dataclass
class Dataset:
    """Feature matrix (N x dim) with optional length-N targets."""

    features: np.ndarray
    targets: Optional[np.ndarray] = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise InputError("features must be a nonempty N x dim array")
        if not np.isfinite(self.features).all():
            raise InputError("features contain non-finite values")
        if self.targets is not None:
            self.targets = np.asarray(self.targets, dtype=np.float64).ravel()
            if self.targets.shape[0] != self.features.shape[0]:
                raise InputError("targets length does not match feature rows")
            if not np.isfinite(self.targets).all():
                raise InputError("targets contain non-finite values")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        t = self.targets[idx] if self.targets is not None else None
        return Dataset(self.features[idx], t)


def standardization_params(features: np.ndarray):
    """Column means and population standard deviations (ddof=0).

    Columns with zero spread get scale 0, which ``apply_standardization``
    maps to an all-zero column.
    """
    features = np.asarray(features, dtype=np.float64)
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    return mean, std


def apply_standardization(features: np.ndarray, params) -> np.ndarray:
    mean, std = params
    out = features - mean
    nonconst = std > 0
    out[:, nonconst] /= std[nonconst]
    out[:, ~nonconst] = 0.0
    return out


def standardize(data: Dataset, center_targets: bool = False) -> Dataset:
    """Shift each feature column to mean 0 and scale to standard deviation 1.

    Uses the population (divide-by-N) convention; constant columns become
    all zeros.  Targets pass through unchanged unless ``center_targets``.
    """
    if data.n < 2:
        raise InputError("standardization needs at least 2 rows")
    feats = apply_standardization(data.features, standardization_params(data.features))
    targets = data.targets
    if targets is not None and center_targets:
        targets = targets - targets.mean()
    return Dataset(feats, targets)


def _finite_or_raise(value: float, path: str, line_no: int) -> float:
    if not np.isfinite(value):
        raise InputError(f"{path}:{line_no}: non-finite value {value!r}")
    return value


def load_libsvm(path: str) -> Dataset:
    """Parse libsvm text format (1-based sparse indices, zeros implicit)."""
    labels = []
    rows = []  # list of (indices array, values array)
    max_index = 0
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise InputError(f"{path}:{line_no}: bad label {parts[0]!r}") from None
            labels.append(_finite_or_raise(label, path, line_no))
            idxs, vals = [], []
            for tok in parts[1:]:
                try:
                    sidx, sval = tok.split(":", 1)
                    idx = int(sidx)
                    val = float(sval)
                except ValueError:
                    raise InputError(
                        f"{path}:{line_no}: bad feature token {tok!r}"
                    ) from None
                if idx < 1:
                    raise InputError(f"{path}:{line_no}: index {idx} not 1-based")
                idxs.append(idx)
                vals.append(_finite_or_raise(val, path, line_no))
            if idxs:
                max_index = max(max_index, max(idxs))
            rows.append((idxs, vals))
    if not rows:
        raise InputError(f"{path}: no data rows")
    features = np.zeros((len(rows), max(max_index, 1)))
    for r, (idxs, vals) in enumerate(rows):
        for idx, val in zip(idxs, vals):
            features[r, idx - 1] = val
    return Dataset(features, np.asarray(labels))


def load_csv(path: str, target_column: Optional[str] = None) -> Dataset:
    """Parse a CSV file with a header row.

    All non-target columns become features, in header order.  With no
    ``target_column`` the dataset has no targets (prediction-only use).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if target_column is not None:
            if target_column not in header:
                raise InputError(f"{path}: no column named {target_column!r}")
            tcol = header.index(target_column)
        else:
            tcol = None
        feats, targets = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise InputError(
                    f"{path}:{line_no}: {len(row)} fields, expected {len(header)}"
                )
            try:
                values = [float(c) for c in row]
            except ValueError:
                bad = next(c for c in row if not _is_float(c))
                raise InputError(f"{path}:{line_no}: bad value {bad!r}") from None
            for v in values:
                _finite_or_raise(v, path, line_no)
            if tcol is None:
                feats.append(values)
            else:
                targets.append(values[tcol])
                feats.append(values[:tcol] + values[tcol + 1:])
    if not feats:
        raise InputError(f"{path}: no data rows")
    return Dataset(np.asarray(feats), np.asarray(targets) if tcol is not None else None)


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def load_dataset(path: str, fmt: str, target_column: Optional[str] = None) -> Dataset:
    if fmt not in FORMATS:
        raise InputError(f"unknown dataset format {fmt!r}")
    return load_libsvm(path) if fmt == LIBSVM else load_csv(path, target_column)
