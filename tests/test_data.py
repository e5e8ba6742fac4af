import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from krrsolve import data
from krrsolve.data import Dataset, load_csv, load_libsvm
from krrsolve.errors import InputError


def test_dataset_validation():
    with pytest.raises(InputError):
        Dataset(np.empty((0, 2)))
    with pytest.raises(InputError):
        Dataset(np.ones((3, 2)), np.ones(2))


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
