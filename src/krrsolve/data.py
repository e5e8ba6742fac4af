"""Dataset container, standardization, and file ingestion.

Supported input formats:

* libsvm text: one row per line, ``label idx:val idx:val ...``.  The label
  and every value use Python ``float`` syntax and every index uses Python
  ``int`` syntax, with indices 1-based; each feature token has exactly one
  colon with text on both sides.  ``#`` starts a comment, and blank or
  comment-only lines are skipped.  Absent indices are zero, and an index
  repeated within a row keeps its last value.
* CSV with a header row; the target column is selected by name.

Malformed and non-finite values are rejected with an ``InputError`` that
names ``path:line`` of the first bad line in the file.  A libsvm file is
converted one chunk of lines at a time, so the loader's Python strings stay
bounded by the chunk size whatever the file size.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NoReturn, Optional

import numpy as np

from .errors import InputError

LIBSVM = "libsvm"
CSV = "csv"
FORMATS = (LIBSVM, CSV)

# load_libsvm reads whole lines in chunks of about this many characters and
# converts each chunk in bulk, so its Python strings never outgrow one chunk.
# At 64 KiB every per-chunk buffer is small enough to be reused from malloc's
# free lists; 1 MiB chunks left holes in the heap whose layout, and with it
# the resident size of the work after loading, changed from run to run.
_CHUNK_BYTES = 1 << 16


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
    """Parse libsvm text format (1-based sparse indices, zeros implicit).

    The grammar is the module's: Python ``float`` labels and values, Python
    ``int`` indices of at least 1, one colon per feature token, ``#``
    comments.  An index repeated within a row keeps its last value.  The
    first bad line in the file is reported as ``path:line``.

    A first pass counts the lines and colons; the parsed labels, indices and
    values go into arrays allocated once at those bounds (16 bytes per line
    and per colon), so that parsing allocates nothing but the current
    chunk's buffers and the heap left behind is laid out the same in every
    run.  The file is read twice, so it must be seekable.  Whole lines are
    read in chunks of about ``_CHUNK_BYTES`` characters; each chunk is split
    once per line and converted by one NumPy call per column kind.  The
    Python strings of one chunk are all that is held at a time.  One scatter
    fills the dense features at the end.
    """
    with open(path) as fh:
        # Bounds for the parsed arrays: a row per line, a colon per token.
        max_rows, max_tokens = 1, 0
        while text := fh.read(_CHUNK_BYTES):
            max_rows += text.count("\n")
            max_tokens += text.count(":")
        fh.seek(0)
        labels = np.empty(max_rows)
        counts = np.empty(max_rows, dtype=np.int64)
        idx = np.empty(max_tokens, dtype=np.int64)
        vals = np.empty(max_tokens)
        n = n_tokens = 0
        first_line = 1
        while lines := fh.readlines(_CHUNK_BYTES):
            chunk = _parse_libsvm_chunk(path, lines, first_line)
            rows, toks = n + chunk[0].size, n_tokens + chunk[2].size
            labels[n:rows], counts[n:rows], idx[n_tokens:toks], vals[n_tokens:toks] = chunk
            n, n_tokens = rows, toks
            first_line += len(lines)
    if n == 0:
        raise InputError(f"{path}: no data rows")
    labels, counts, idx, vals = labels[:n], counts[:n], idx[:n_tokens], vals[:n_tokens]
    dim = int(idx.max()) if n_tokens else 1
    # row-major position of every token in the dense features
    flat = np.repeat(np.arange(n) * dim - 1, counts)
    flat += idx
    if not (flat[1:] > flat[:-1]).all():
        # Unsorted or repeated indices in some row.  Fancy assignment
        # does not say which of several writes to one cell lands, so
        # keep the last occurrence of each cell explicitly.
        order = np.argsort(flat, kind="stable")
        flat, vals = flat[order], vals[order]
        last = np.append(flat[1:] != flat[:-1], True)
        flat, vals = flat[last], vals[last]
    features = np.zeros((n, dim))
    np.put(features, flat, vals)
    # a copy, so that the array sized by the line count is freed
    return Dataset(features, labels.copy())


def _parse_libsvm_chunk(path: str, lines: list, first_line: int):
    """Labels, per-row token counts, indices and values of whole lines."""
    labels, tokens, counts = [], [], []
    for line in lines:
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if parts:
            labels.append(parts[0])
            counts.append(len(parts) - 1)
            tokens += parts[1:]
    # One colon per token with text on both sides: the colon count, a colon
    # in every token, and two pieces per token all have to hold.
    n_tokens = len(tokens)
    joined = " ".join(tokens)
    ok = joined.count(":") == n_tokens and all(":" in tok for tok in tokens)
    del tokens
    pieces = joined.replace(":", " ").split()
    ok = ok and len(pieces) == 2 * n_tokens
    if ok:
        try:
            # np.array parses str with Python's own float() and int()
            y = np.array(labels, dtype=np.float64)
            idx = np.array(pieces[0::2], dtype=np.int64)
            vals = np.array(pieces[1::2], dtype=np.float64)
        except (ValueError, OverflowError):
            ok = False
        else:
            ok = bool((idx >= 1).all() and np.isfinite(y).all() and np.isfinite(vals).all())
    if not ok:
        _raise_first_libsvm_error(path, lines, first_line)
    return y, np.array(counts, dtype=np.int64), idx, vals


def _raise_first_libsvm_error(path: str, lines: list, first_line: int) -> NoReturn:
    """Check ``lines`` token by token and raise for the first bad one."""
    for line_no, line in enumerate(lines, start=first_line):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        try:
            label = float(parts[0])
        except ValueError:
            raise InputError(f"{path}:{line_no}: bad label {parts[0]!r}") from None
        _finite_or_raise(label, path, line_no)
        for tok in parts[1:]:
            try:
                sidx, sval = tok.split(":", 1)
                idx = int(sidx)
                val = float(sval)
            except ValueError:
                raise InputError(f"{path}:{line_no}: bad feature token {tok!r}") from None
            if idx < 1:
                raise InputError(f"{path}:{line_no}: index {idx} not 1-based")
            if idx > np.iinfo(np.int64).max:
                raise InputError(f"{path}:{line_no}: index {idx} too large")
            _finite_or_raise(val, path, line_no)
    raise AssertionError(f"{path}: bulk and per-token libsvm checks disagree")


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
        rows, line_nos, error = [], [], None
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                error = f"{path}:{line_no}: {len(row)} fields, expected {len(header)}"
                break
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                bad = next(c for c in row if not _is_float(c))
                error = f"{path}:{line_no}: bad value {bad!r}"
                break
            line_nos.append(line_no)
    # One finiteness check for the whole file; a non-finite value on a line
    # before a malformed one is still the first error.
    values = np.array(rows)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, col = bad[0]
        raise InputError(
            f"{path}:{line_nos[row]}: non-finite value {float(values[row, col])!r}"
        )
    if error is not None:
        raise InputError(error)
    if not rows:
        raise InputError(f"{path}: no data rows")
    if tcol is None:
        return Dataset(values)
    return Dataset(np.delete(values, tcol, axis=1), values[:, tcol])


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
