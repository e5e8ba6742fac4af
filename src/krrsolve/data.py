"""Dataset container, standardization, and file ingestion.

Supported input formats:

* libsvm text: one row per line, ``label idx:val idx:val ...``.  The label
  and every value use Python ``float`` syntax and every index uses Python
  ``int`` syntax, with indices 1-based; each feature token has exactly one
  colon with text on both sides.  ``#`` starts a comment, and blank or
  comment-only lines are skipped.  Absent indices are zero, and an index
  repeated within a row keeps its last value.
* CSV with a header row; the target column is selected by name.

Both are read as UTF-8, after a byte-order mark if the file starts with
one: a file that is not UTF-8 is rejected before any row is parsed, with
an ``InputError`` that names its first line that is not.
Malformed and non-finite values are rejected with an ``InputError`` that
names ``path:line`` of the first bad line in the file.

A libsvm file is converted one chunk of lines at a time, so the loader's
Python strings stay bounded by the chunk size whatever the file size.  A
chunk that is a dense block goes to numpy's C reader, ``np.loadtxt``; any
other chunk goes to the general parser, which implements the grammar above
token by token.  In a dense block every row reads ``label 1:v 2:v ... d:v``
for one d, with one space before each feature token and nothing after the
last, and the label and values are spelled in the characters
``0-9 + - . e E`` alone.  One regular expression checks this, and the check
is exact: such text holds no comment, blank line or other whitespace, each
index is the decimal text of its position, so the indices are 1..d in
order, and on those characters numpy's reader and Python's ``float`` both
call ``PyOS_string_to_double``, so either path gives the same bits.  A chunk
that fails the check, that the reader rejects, or that holds a non-finite
label or value goes to the general parser, which names the bad line.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import re
from dataclasses import dataclass
from typing import NoReturn, Optional

import numpy as np

from .errors import InputError, check_array

LIBSVM = "libsvm"
CSV = "csv"
FORMATS = (LIBSVM, CSV)

# load_libsvm reads whole lines in chunks of about this many characters and
# converts each chunk in bulk, so its Python strings never outgrow one chunk.
# At 64 KiB every per-chunk buffer is small enough to be reused from malloc's
# free lists; 1 MiB chunks left holes in the heap whose layout, and with it
# the resident size of the work after loading, changed from run to run.
_CHUNK_BYTES = 1 << 16

# The number text of a dense libsvm block (see _dense_rows).
_DENSE_NUMBER = r"[0-9+\-.eE]+"


@dataclass
class Dataset:
    """Feature matrix (N x dim) with optional length-N targets."""

    features: np.ndarray
    targets: Optional[np.ndarray] = None

    def __post_init__(self):
        self.features = check_array("features", self.features, ndim=2)
        if self.targets is not None:
            self.targets = check_array("targets", self.targets, length=self.n)

    @property
    def n(self) -> int:
        return self.features.shape[0]

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
    read in chunks of about ``_CHUNK_BYTES`` characters.  A chunk whose rows
    all read ``label 1:v 2:v ... d:v`` with single spaces and number text of
    ``0-9 + - . e E`` (a dense block; the module docstring says why the
    check is exact) is converted by one ``np.loadtxt`` call.  Any other
    chunk, or a dense one that the reader rejects or that holds a non-finite
    number, goes to the general parser: it is split once per line and
    converted by one NumPy call per column kind.  Both give the same labels,
    token counts, indices and values, and one scatter fills the dense
    features at the end.
    """
    with _utf8_text(path) as fh:
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
            chunk = (_parse_dense_chunk("".join(lines))
                     or _parse_libsvm_chunk(path, lines, first_line))
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
    try:
        features = np.zeros((n, dim))
    except (MemoryError, ValueError):  # ValueError: n * dim overflows the address space
        raise InputError(
            f"{path}: the dense features, {n} x {dim} float64, need "
            f"{8 * n * dim / 2**30:.1f} GiB, which cannot be allocated") from None
    np.put(features, flat, vals)
    # a copy, so that the array sized by the line count is freed
    return Dataset(features, labels.copy())


@functools.lru_cache(maxsize=16)
def _dense_rows(dim: int) -> re.Pattern:
    """One or more rows ``label 1:v 2:v ... dim:v\\n`` of number text."""
    row = _DENSE_NUMBER + "".join(f" {j}:{_DENSE_NUMBER}" for j in range(1, dim + 1))
    return re.compile(f"(?:{row}\\n)+")


def _parse_dense_chunk(text: str):
    """Labels, per-row token counts, indices and values of a chunk of whole
    lines that is a dense block, by numpy's C reader; None for any other
    chunk, which the general parser then reads."""
    if not text.endswith("\n"):
        text += "\n"
    dim = text.count(":", 0, text.index("\n"))
    # Rows of different lengths fail the count before a pattern is compiled.
    if text.count(":") != dim * text.count("\n") or not _dense_rows(dim).fullmatch(text):
        return None
    try:
        # the label and value columns once each colon is a space
        table = np.loadtxt(io.StringIO(text.replace(":", " ")), delimiter=" ",
                           comments=None, usecols=range(0, 2 * dim + 1, 2), ndmin=2)
    except ValueError:
        return None
    if not np.isfinite(table).all():
        return None
    rows = table.shape[0]
    return (table[:, 0], np.full(rows, dim, dtype=np.int64),
            np.tile(np.arange(1, dim + 1, dtype=np.int64), rows), table[:, 1:].ravel())


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


@contextlib.contextmanager
def _utf8_text(path: str, newline: Optional[str] = None):
    """``path`` opened as UTF-8 text, less a leading byte-order mark (also
    after ``seek(0)``); a byte that is not UTF-8, met anywhere in the block,
    raises an ``InputError`` instead."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _not_utf8(path: str) -> InputError:
    """The error for a file that is not UTF-8, naming its first such line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return InputError(f"{path}:{line_no}: not UTF-8 text")
    return InputError(f"{path}: not UTF-8 text")


def load_csv(path: str, target_column: Optional[str] = None) -> Dataset:
    """Parse a CSV file with a header row.

    All non-target columns become features, in header order.  With no
    ``target_column`` the dataset has no targets (prediction-only use).
    """
    with _utf8_text(path, newline="") as fh:
        # the whole text first, so that it is known to be UTF-8 before a row is read
        reader = csv.reader(io.StringIO(fh.read(), newline=""))
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
