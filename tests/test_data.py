import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from krrsolve import data
from krrsolve.data import (
    Dataset,
    apply_standardization,
    load_csv,
    load_libsvm,
    standardization_params,
)
from krrsolve.errors import InputError


def test_dataset_validation():
    with pytest.raises(InputError):
        Dataset(np.empty((0, 2)))
    with pytest.raises(InputError):
        Dataset(np.ones((3, 2)), np.ones(2))


def _targets_10_11_12():
    return Dataset(np.arange(6.0).reshape(3, 2), np.array([10.0, 11.0, 12.0]))


@pytest.mark.parametrize("indices,error", [
    ([0.7, 2.9], "indices must be integers, got dtype float64"),
    ([True, False, True], "indices must be integers, got dtype bool"),
    ([-1], r"index out of range \[0, 3\): -1"),
    ([3], r"index out of range \[0, 3\): 3"),
], ids=["float", "mask", "minus-one", "n"])
def test_subset_takes_only_integer_indices_in_range(indices, error):
    # a cast once truncated 0.7 to 0 and read a mask as the indices 0 and 1
    with pytest.raises(InputError, match=error):
        _targets_10_11_12().subset(indices)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_subset_takes_the_rows_at_integer_indices(dtype):
    data = _targets_10_11_12()
    part = data.subset(np.array([2, 0], dtype=dtype))
    np.testing.assert_array_equal(part.targets, [12.0, 10.0])
    np.testing.assert_array_equal(part.features, [[4.0, 5.0], [0.0, 1.0]])


def standardized(features):
    return apply_standardization(features, standardization_params(features))


class TestStandardize:
    def test_hand_case(self):
        out = standardized(np.array([[1.0], [3.0]]))
        np.testing.assert_allclose(out[:, 0], [-1.0, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        once = standardized(rng.standard_normal((40, 5)) * 3 + 1)
        np.testing.assert_allclose(standardized(once), once, atol=1e-12)

    def test_constant_column_zeroed(self):
        out = standardized(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        np.testing.assert_array_equal(out[:, 0], 0.0)

    def test_moments(self):
        rng = np.random.default_rng(2)
        out = standardized(rng.standard_normal((100, 4)) * 7 - 2)
        np.testing.assert_allclose(out.mean(0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(0), 1.0, atol=1e-12)

    def test_training_parameters_apply_to_new_rows(self):
        train = np.array([[1.0, 4.0], [3.0, 4.0]])
        params = standardization_params(train)
        out = apply_standardization(np.array([[5.0, 9.0]]), params)
        np.testing.assert_array_equal(out, [[3.0, 0.0]])
        np.testing.assert_array_equal(train, [[1.0, 4.0], [3.0, 4.0]])

    @pytest.mark.parametrize("features,error", [
        ([[1.0, np.nan], [2.0, 3.0]], "features contain non-finite"),
        ([1.0, 2.0], "nonempty N x dim"),
        (np.ones((0, 2)), "nonempty N x dim"),
    ], ids=["nan", "1-d", "empty"])
    def test_bad_features_are_input_errors(self, features, error):
        # NaN once gave that column a NaN mean and scale
        with pytest.raises(InputError, match=error):
            standardization_params(features)
        with pytest.raises(InputError, match=error):
            apply_standardization(features, (np.zeros(2), np.ones(2)))

    @pytest.mark.parametrize("params,error", [
        ((np.zeros(3), np.ones(2)), "mean length is 3, need 2"),
        ((np.zeros(2), np.ones(1)), "scale length is 1, need 2"),
        ((np.zeros(2), [1.0, np.nan]), "scales contain non-finite"),
    ], ids=["mean", "scale", "nan-scale"])
    def test_parameters_must_fit_the_features(self, params, error):
        with pytest.raises(InputError, match=error):
            apply_standardization(np.ones((4, 2)), params)


def test_libsvm_roundtrip(tmp_path):
    p = tmp_path / "toy.txt"
    p.write_text("1 1:0.5 3:-2\n-1 2:4\n+1\n")
    ds = load_libsvm(str(p))
    np.testing.assert_array_equal(ds.targets, [1, -1, 1])
    np.testing.assert_array_equal(
        ds.features,
        [[0.5, 0.0, -2.0], [0.0, 4.0, 0.0], [0.0, 0.0, 0.0]],
    )


def test_libsvm_bad_rows(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 0:2\n")
    with pytest.raises(InputError, match="1-based"):
        load_libsvm(str(p))
    p.write_text("1 2:nan\n")
    with pytest.raises(InputError, match="bad.txt:1"):
        load_libsvm(str(p))
    p.write_text("x 1:2\n")
    with pytest.raises(InputError, match="label"):
        load_libsvm(str(p))


@pytest.mark.parametrize("text,error", [
    # the colon count and the piece count agree; only '35' lacks a colon
    ("1 1:2\n2 35 3:1:2\n", "bad.txt:2: bad feature token '35'"),
    # a colon in every token, but two sides are empty
    ("1 3: :4\n", "bad.txt:1: bad feature token '3:'"),
    ("1 1:2\n1 1:nan\nx 1:1\n", "bad.txt:2: non-finite value nan"),
    ("1 1:2 99999999999999999999:1\n", "bad.txt:1: index 99999999999999999999 too large"),
])
def test_libsvm_first_bad_line(tmp_path, text, error):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(InputError, match=re.escape(error)):
        load_libsvm(str(p))


def test_libsvm_dense_size_beyond_address_space(tmp_path):
    # 2 x (2^63 - 1) float64 entries: numpy refuses the shape outright
    p = tmp_path / "wide.txt"
    p.write_text("1 1:2\n1 9223372036854775807:1\n")
    with pytest.raises(InputError, match=re.escape(
            f"{p}: the dense features, 2 x 9223372036854775807 float64, need")):
        load_libsvm(str(p))


def test_csv_roundtrip(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("a,target,b\n1,10,2\n3,20,4\n")
    ds = load_csv(str(p), target_column="target")
    np.testing.assert_array_equal(ds.targets, [10.0, 20.0])
    np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])


def test_csv_errors(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(InputError, match="no column"):
        load_csv(str(p), target_column="missing")
    p.write_text("a,b\n1,oops\n")
    with pytest.raises(InputError, match="toy.csv:2"):
        load_csv(str(p))
    p.write_text("a,b\n1,inf\n")
    with pytest.raises(InputError, match="toy.csv:2"):
        load_csv(str(p))


def test_csv_first_bad_line(tmp_path):
    # finiteness is checked on the whole array, after the rows are read,
    # yet a non-finite value still comes before a later malformed row
    p = tmp_path / "toy.csv"
    p.write_text("a,b\n1,2\n1,inf\n1,oops\n1\n")
    with pytest.raises(InputError, match=re.escape("toy.csv:3: non-finite value inf")):
        load_csv(str(p))


def test_csv_without_target(tmp_path):
    p = tmp_path / "feat.csv"
    p.write_text("a,b\n1,2\n3,4\n")
    ds = load_csv(str(p))
    assert ds.targets is None
    assert ds.features.shape == (2, 2)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# each spelling parses back to the same float64: repr, 18 significant digits
# in exponent notation, and an explicit plus sign
_SPELLINGS = st.sampled_from([
    repr,
    lambda v: f"{v:.17e}",
    lambda v: repr(v) if repr(v).startswith("-") else "+" + repr(v),
])
_ROW = st.tuples(_FINITE, st.lists(st.tuples(st.integers(1, 12), _FINITE), max_size=8))
_FILLER = st.sampled_from(["", "   ", "\t", "# a comment", "  # 1:2 x:y"])


@st.composite
def libsvm_lines(draw):
    """Lines of a valid libsvm file, each ``(parts, text)``: a data row's
    ``parts`` are ``[label, (index, value), ...]``; filler lines have None."""
    items = draw(st.lists(st.one_of(_ROW, _FILLER), min_size=1, max_size=30)
                 .filter(lambda items: any(isinstance(i, tuple) for i in items)))
    lines = []
    for item in items:
        if isinstance(item, str):
            lines.append((None, item))
            continue
        label, tokens = item
        words = [draw(_SPELLINGS)(label)]
        words += [f"{j}:{draw(_SPELLINGS)(v)}" for j, v in tokens]
        text = draw(st.sampled_from([" ", "  ", "\t"])).join(words)
        text += draw(st.sampled_from(["", " ", " # trailing 3:4", "#x"]))
        lines.append(([label, *tokens], text))
    return lines


def write_lines(path, texts, newline, final_newline):
    path.write_bytes((newline.join(texts) + (newline if final_newline else "")).encode())


def dense_rows(rows):
    """The loader's contract, one token at a time: later tokens overwrite."""
    dim = max((j for row in rows for j, _ in row[1:]), default=1)
    features = np.zeros((len(rows), dim))
    for r, row in enumerate(rows):
        for j, v in row[1:]:
            features[r, j - 1] = v
    return features, np.array([row[0] for row in rows])


_LINE_ENDS = st.sampled_from(["\n", "\r\n"])
# 1 byte puts every line in a chunk of its own
_CHUNKS = st.sampled_from([1, 40, 300, data._CHUNK_BYTES])
_PROPERTY_SETTINGS = settings(max_examples=100, deadline=None,
                        suppress_health_check=[HealthCheck.function_scoped_fixture])


@_PROPERTY_SETTINGS
@given(libsvm_lines(), _LINE_ENDS, st.booleans(), _CHUNKS)
def test_libsvm_property_roundtrip(tmp_path, monkeypatch, lines, newline, final, chunk):
    monkeypatch.setattr(data, "_CHUNK_BYTES", chunk)
    p = tmp_path / "rows.txt"
    write_lines(p, [text for _, text in lines], newline, final)
    features, targets = dense_rows([parts for parts, _ in lines if parts])
    ds = load_libsvm(str(p))
    assert ds.features.shape == features.shape
    assert ds.features.tobytes() == features.tobytes()
    assert ds.targets.tobytes() == targets.tobytes()


# (bad text, where it goes, the message keyword)
_CORRUPTIONS = [
    ("x1", "label", "bad label"),
    ("1.5.2", "label", "bad label"),
    ("nan", "label", "non-finite value"),
    ("-inf", "label", "non-finite value"),
    ("35", "token", "bad feature token"),
    ("3:1:2", "token", "bad feature token"),
    (":4", "token", "bad feature token"),
    ("4:", "token", "bad feature token"),
    ("1.5:2", "token", "bad feature token"),
    ("2:0x1", "token", "bad feature token"),
    ("0:1.5", "token", "not 1-based"),
    ("-2:1", "token", "not 1-based"),
    ("-99999999999999999999:1", "token", "not 1-based"),
    ("99999999999999999999:1", "token", "too large"),
    ("2:nan", "token", "non-finite value"),
    ("2:-inf", "token", "non-finite value"),
    ("2:1e999", "token", "non-finite value"),
]


@_PROPERTY_SETTINGS
@given(libsvm_lines(), _LINE_ENDS, _CHUNKS, st.sampled_from(_CORRUPTIONS), st.data())
def test_libsvm_property_names_the_corrupted_line(tmp_path, monkeypatch, lines, newline,
                                                  chunk, corruption, draw):
    monkeypatch.setattr(data, "_CHUNK_BYTES", chunk)
    bad, where, keyword = corruption
    at = draw.draw(st.sampled_from([i for i, (parts, _) in enumerate(lines) if parts]))
    label, *tokens = lines[at][0]
    words = [repr(label)] + [f"{j}:{v!r}" for j, v in tokens]
    if where == "label":
        words[0] = bad
    else:
        words.insert(draw.draw(st.integers(1, len(words))), bad)
    texts = [text for _, text in lines]
    texts[at] = " ".join(words)
    p = tmp_path / "rows.txt"
    write_lines(p, texts, newline, True)
    with pytest.raises(InputError, match=re.escape(f"{p}:{at + 1}: ") + ".*" + keyword):
        load_libsvm(str(p))


@st.composite
def dense_libsvm_rows(draw):
    """The words of dense rows, ``[label, "1:v", ..., "d:v"]``, for one d."""
    dim = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(_FINITE, min_size=dim + 1, max_size=dim + 1),
                         min_size=1, max_size=30))
    return [[draw(_SPELLINGS)(row[0])]
            + [f"{j}:{draw(_SPELLINGS)(v)}" for j, v in enumerate(row[1:], 1)]
            for row in rows]


def _token(edit):
    """Apply ``edit(index, value)`` to the text of feature token j."""
    def apply(words, j):
        index, _, value = words[j].partition(":")
        return words[:j] + [edit(index, value)] + words[j + 1:]
    return apply


def _swap(words, j):
    k = j % (len(words) - 1) + 1
    words = list(words)
    words[j], words[k] = words[k], words[j]
    return words


_FULL_WIDTH = str.maketrans("0123456789", "".join(chr(0xFF10 + d) for d in range(10)))
# Edits of one row of a dense block, each given the row's words and a token
# position j >= 1.  Each makes the text sparse, irregular or malformed, or
# keeps it dense with a spelling at the edge of the number syntax.
_DENSE_EDITS = {
    "label takes the colon": lambda w, j: ["1:" + w[0], w[1].partition(":")[2]] + w[2:],
    "double colon": _token(lambda i, v: f"{i}::{v}"),
    "index 1.0": _token(lambda i, v: f"{i}.0:{v}"),
    "index 01": _token(lambda i, v: f"0{i}:{v}"),
    "index +1": _token(lambda i, v: f"+{i}:{v}"),
    "index 1_0": _token(lambda i, v: f"{i}_0:{v}"),
    "full-width index": _token(lambda i, v: f"{i.translate(_FULL_WIDTH)}:{v}"),
    "tab": lambda w, j: w[:j - 1] + [w[j - 1] + "\t" + w[j]] + w[j + 1:],
    "double space": lambda w, j: w[:j] + [""] + w[j:],
    "trailing space": lambda w, j: w + [""],
    "comment": lambda w, j: w + ["# 1:2"],
    "CRLF": lambda w, j: w[:-1] + [w[-1] + "\r"],
    "lone CR": lambda w, j: w[:j] + ["\r" + w[j]] + w[j + 1:],
    "nan": _token(lambda i, v: f"{i}:nan"),
    "inf": _token(lambda i, v: f"{i}:inf"),
    "1e999": _token(lambda i, v: f"{i}:1e999"),
    "subnormal": _token(lambda i, v: f"{i}:5e-324"),
    "negative zero": _token(lambda i, v: f"{i}:-0.0"),
    "short row": lambda w, j: w[:-1],
    "gap": lambda w, j: w[:j] + w[j + 1:],
    "swapped indices": _swap,
    "repeated index": lambda w, j: w + [w[j]],
    "extra column": lambda w, j: w + [f"{len(w)}:1.5"],
    "label only": lambda w, j: w[:1],
}
# number text in the dense block's own characters, most of it malformed
_NUMBER_TEXT = st.text(alphabet="0123456789+-.eE", min_size=1, max_size=8)
_EDITS = st.one_of(
    st.sampled_from(sorted(_DENSE_EDITS.items())),
    st.builds(lambda text, label: (f"label {text}", lambda w, j: [text] + w[1:]) if label
              else (f"value {text}", _token(lambda i, v: f"{i}:{text}")),
              _NUMBER_TEXT, st.booleans()),
)


def _load_both_ways(monkeypatch, path):
    """What ``load_libsvm`` gives, or the InputError it raises, with the
    dense parse and with the general parser alone."""
    results = []
    for dense in (True, False):
        with monkeypatch.context() as m:
            if not dense:
                m.setattr(data, "_parse_dense_chunk", lambda text: None)
            try:
                ds = load_libsvm(str(path))
            except InputError as exc:
                results.append(str(exc))
            else:
                results.append((ds.features.shape, ds.features.tobytes(),
                                ds.targets.tobytes()))
    return results


@settings(_PROPERTY_SETTINGS, max_examples=400)
@given(dense_libsvm_rows(), st.booleans(), _CHUNKS, st.data())
def test_libsvm_dense_parse_matches_the_general_parser(tmp_path, monkeypatch, rows, final,
                                                       chunk, draw):
    monkeypatch.setattr(data, "_CHUNK_BYTES", chunk)
    edits = draw.draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                         st.integers(1, len(rows[0]) - 1), _EDITS),
                               max_size=3))
    for r, j, (_, edit) in edits:
        if j < len(rows[r]):
            rows[r] = edit(rows[r], j)
    p = tmp_path / "rows.txt"
    write_lines(p, [" ".join(words) for words in rows], "\n", final)
    with_dense, general = _load_both_ways(monkeypatch, p)
    assert with_dense == general


def test_libsvm_dense_file_takes_the_dense_parse(tmp_path, monkeypatch):
    # signed labels in exponent notation, CRLF line ends and no final
    # newline keep a chunk dense
    x = np.random.default_rng(2).standard_normal((50, 4))
    texts = [f"{row[0]:+.17e} " + " ".join(f"{j}:{v!r}" for j, v in enumerate(row, 1))
             for row in x.tolist()]
    p = tmp_path / "dense.txt"
    write_lines(p, texts, "\r\n", False)
    monkeypatch.setattr(data, "_CHUNK_BYTES", 300)

    def general(*args):
        raise AssertionError("a dense chunk reached the general parser")

    monkeypatch.setattr(data, "_parse_libsvm_chunk", general)
    ds = load_libsvm(str(p))
    assert ds.features.tobytes() == x.tobytes()
    assert ds.targets.tobytes() == x[:, 0].tobytes()


@pytest.mark.parametrize("text,line", [
    (b"1 1:0.5\n-1 1:\xe9\n", 2),
    (b"1 1:0.5\n# caf\xe9\n1 1:2\n", 2),
    # the encoding is checked before any row, even a malformed one
    (b"1 1:x\n" + b"1 1:2\n" * 10000 + b"1 1:\xe9\n", 10002),
])
def test_libsvm_not_utf8(tmp_path, text, line):
    p = tmp_path / "bad.txt"
    p.write_bytes(text)
    with pytest.raises(InputError, match=re.escape(f"{p}:{line}: not UTF-8 text")):
        load_libsvm(str(p))


@pytest.mark.parametrize("text,line", [
    (b"a,b\xe9\n1,2\n", 1),
    (b"a,b\n1,2\n3,\xe94\n", 3),
    (b"a,b\n1,oops\n" + b"1,2\n" * 10000 + b"3,\xe94\n", 10003),
])
def test_csv_not_utf8(tmp_path, text, line):
    p = tmp_path / "bad.csv"
    p.write_bytes(text)
    with pytest.raises(InputError, match=re.escape(f"{p}:{line}: not UTF-8 text")):
        load_csv(str(p))


def test_libsvm_after_a_byte_order_mark_parses_as_without_it(tmp_path, monkeypatch):
    # both passes drop the mark, so every chunk stays dense and the line
    # numbers are unchanged
    x = np.random.default_rng(5).standard_normal((60, 3))
    text = "".join(f"{row[0]!r} " + " ".join(f"{j}:{v!r}" for j, v in enumerate(row, 1))
                   + "\n" for row in x.tolist())
    plain, marked = tmp_path / "plain.svm", tmp_path / "bom.svm"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    monkeypatch.setattr(data, "_CHUNK_BYTES", 300)

    def general(*args):
        raise AssertionError("a dense chunk reached the general parser")

    with monkeypatch.context() as m:
        m.setattr(data, "_parse_libsvm_chunk", general)
        ds, expect = load_libsvm(str(marked)), load_libsvm(str(plain))
    assert ds.features.tobytes() == expect.features.tobytes() == x.tobytes()
    assert ds.targets.tobytes() == expect.targets.tobytes()
    marked.write_text("1 1:2\n-1 1:x\n", encoding="utf-8-sig")
    with pytest.raises(InputError, match=re.escape(f"{marked}:2: bad feature token '1:x'")):
        load_libsvm(str(marked))


def test_csv_after_a_byte_order_mark_finds_its_first_column(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_text("y,a,b\n10,1,2\n20,3,4\n", encoding="utf-8-sig")
    ds = load_csv(str(p), target_column="y")
    np.testing.assert_array_equal(ds.targets, [10.0, 20.0])
    np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])


def test_libsvm_of_comments_and_blank_lines_has_no_data_rows(tmp_path):
    p = tmp_path / "empty.svm"
    p.write_text("# a header\n\n   \n# 1 1:2\n")
    with pytest.raises(InputError, match=re.escape(f"{p}: no data rows")):
        load_libsvm(str(p))


@st.composite
def csv_table(draw):
    """A header and rows of finite floats, with the target column's name."""
    width = draw(st.integers(1, 5))
    header = [f"c{j}" for j in range(width)]
    rows = draw(st.lists(st.lists(_FINITE, min_size=width, max_size=width),
                         min_size=1, max_size=20))
    target = draw(st.one_of(st.none(), st.sampled_from(header)))
    return header, rows, target


def write_csv(path, header, texts):
    path.write_text("\n".join([",".join(header)] + [",".join(r) for r in texts]) + "\n")


@_PROPERTY_SETTINGS
@given(csv_table())
def test_csv_property_roundtrip(tmp_path, table):
    header, rows, target = table
    p = tmp_path / "t.csv"
    write_csv(p, header, [[repr(v) for v in row] for row in rows])
    ds = load_csv(str(p), target_column=target)
    values = np.array(rows)
    if target is None:
        assert ds.targets is None
        assert ds.features.tobytes() == values.tobytes()
    else:
        t = header.index(target)
        assert ds.targets.tobytes() == values[:, t].tobytes()
        assert ds.features.tobytes() == np.delete(values, t, axis=1).tobytes()


@_PROPERTY_SETTINGS
@given(csv_table(), st.sampled_from([("oops", "bad value"), ("1,5", "fields"),
                                     ("inf", "non-finite value"),
                                     ("nan", "non-finite value")]), st.data())
def test_csv_property_names_the_corrupted_line(tmp_path, table, corruption, draw):
    header, rows, target = table
    texts = [[repr(v) for v in row] for row in rows]
    r = draw.draw(st.integers(0, len(rows) - 1))
    texts[r][draw.draw(st.integers(0, len(header) - 1))] = corruption[0]
    p = tmp_path / "t.csv"
    write_csv(p, header, texts)
    with pytest.raises(InputError, match=re.escape(f"{p}:{r + 2}: ") + ".*" + corruption[1]):
        load_csv(str(p), target_column=target)


def test_libsvm_memory_stays_within_one_chunk_of_strings(tmp_path):
    # Six MiB of dense rows span many default chunks.  Chunked parsing holds
    # one chunk's strings plus 16 bytes per token of parsed arrays, and
    # peaks near two fifths of what the file's tokens alone take as a list of
    # Python strings; reading the whole file before converting peaks above
    # twice that list.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((14000, 20))
    text = "".join(f"{row[0]!r} " + " ".join(f"{j}:{v!r}" for j, v in enumerate(row, 1))
                   + "\n" for row in x.tolist())
    tokens = text.split()
    token_list_bytes = sys.getsizeof(tokens) + sum(map(sys.getsizeof, tokens))
    del tokens
    p = tmp_path / "big.txt"
    p.write_text(text)
    assert len(text) >= 5 * data._CHUNK_BYTES
    del text
    tracemalloc.start()
    try:
        ds = load_libsvm(str(p))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.features.tobytes() == x.tobytes()
    assert peak <= 0.75 * token_list_bytes


def test_libsvm_general_path_memory_stays_within_one_chunk_of_strings(tmp_path, monkeypatch):
    # The same bound on rows whose indices are gapped and out of order, which
    # only the general parser reads; the scatter then also sorts the tokens.
    rng = np.random.default_rng(1)
    x = rng.standard_normal((14000, 20))
    x[:, 1] = 0.0
    order = [j for j in range(20, 0, -1) if j != 2]
    text = "".join(f"{row[0]!r} " + " ".join(f"{j}:{row[j - 1]!r}" for j in order)
                   + "\n" for row in x.tolist())
    tokens = text.split()
    token_list_bytes = sys.getsizeof(tokens) + sum(map(sys.getsizeof, tokens))
    del tokens
    p = tmp_path / "big.txt"
    p.write_text(text)
    assert len(text) >= 5 * data._CHUNK_BYTES
    del text
    dense_chunks = []
    dense = data._parse_dense_chunk

    def spy(text):
        chunk = dense(text)
        dense_chunks.append(chunk is not None)
        return chunk

    monkeypatch.setattr(data, "_parse_dense_chunk", spy)
    tracemalloc.start()
    try:
        ds = load_libsvm(str(p))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.features.tobytes() == x.tobytes()
    assert len(dense_chunks) >= 5 and not any(dense_chunks)
    assert peak <= 0.75 * token_list_bytes
