import csv
import io
import multiprocessing as mp
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqids import data as D
from seqids.errors import ConfigError, ContractError, InputError, SeqidsError


def nearest_centroid_accuracy(train: D.Dataset, test: D.Dataset) -> float:
    """Brute-force oracle: classify by Euclidean distance to class means."""
    centroids = np.stack([train.X[train.y == c].mean(axis=0)
                          for c in range(train.encoder.num_classes)])
    d2 = ((test.X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float(np.mean(d2.argmin(axis=1) == test.y))


def brute_force_neighbors(X, k):
    """Each row's k nearest other rows from the full n x n x F difference array,
    ties to the lower row index."""
    d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def smote_reference(train: D.Dataset, k_neighbors: int = 5, seed: int = 0):
    """SMOTE as first written: dense neighbor search, same draws in the same order."""
    counts = train.class_counts()
    rng = np.random.default_rng(seed)
    xs, ys = [train.X], [train.y]
    for c in np.flatnonzero(counts < counts.max()):
        need = int(counts.max() - counts[c])
        Xc = train.X[train.y == c]
        k = min(k_neighbors, Xc.shape[0] - 1)
        nn = brute_force_neighbors(Xc, k)
        base = rng.integers(0, Xc.shape[0], size=need)
        pick = nn[base, rng.integers(0, k, size=need)]
        lam = rng.random(need)[:, None]
        xs.append(Xc[base] + lam * (Xc[pick] - Xc[base]))
        ys.append(np.full(need, c, dtype=train.y.dtype))
    return np.concatenate(xs), np.concatenate(ys)


def write_csv(path, header, rows):
    path.write_text("\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n")


# ---------------------------------------------------------------------------
# Label encoding and CSV ingestion

def test_encoder_is_lexicographic():
    enc = D.LabelEncoder().fit(["b", "a", "b"])
    assert enc.class_names == ["a", "b"]
    assert enc.mapping == {"a": 0, "b": 1}


def test_encoder_round_trip():
    enc = D.LabelEncoder().fit(["ddos", "benign", "mitm"])
    for name in enc.class_names:
        assert enc.decode([enc.mapping[name]])[0] == name


def test_load_csv_basic(tmp_path):
    f = tmp_path / "t.csv"
    write_csv(f, ["x1", "x2", "label"], [["1", "4.5", "a"], ["2", "5.5", "b"], ["3", "6.5", "a"]])
    ds, dropped = D.load_csv(f)
    assert dropped == 0
    np.testing.assert_array_equal(ds.y, [0, 1, 0])
    np.testing.assert_allclose(ds.X[:, 1], [4.5, 5.5, 6.5])
    assert ds.feature_names == ["x1", "x2"]


def test_load_csv_drops_unparseable_rows(tmp_path):
    f = tmp_path / "t.csv"
    write_csv(f, ["x1", "label"], [["1", "a"], ["?", "b"], ["3", "a"]])
    ds, dropped = D.load_csv(f)
    assert dropped == 1
    assert ds.X.shape == (2, 1)


def test_load_csv_drops_rows_with_non_finite_numeric_cells(tmp_path):
    f = tmp_path / "t.csv"
    write_csv(f, ["x1", "x2", "proto", "label"],
              [["1", "2", "inf", "a"], ["inf", "3", "tcp", "b"], ["4", "-Infinity", "tcp", "a"],
               ["5", "1e999", "tcp", "b"], ["6", "7", "tcp", "b"]])
    ds, dropped = D.load_csv(f)
    assert dropped == 3
    # "inf" in a categorical column is just a category name
    np.testing.assert_array_equal(ds.X, [[1.0, 2.0, 0.0], [6.0, 7.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the standardizer sees only finite values
        assert np.all(np.isfinite(D.fit_standardizer(ds.X).transform(ds.X)))


def test_load_csv_encodes_categorical_feature_columns(tmp_path):
    f = tmp_path / "t.csv"
    write_csv(f, ["proto", "size", "label"],
              [["tcp", "10", "a"], ["udp", "20", "b"], ["icmp", "30", "a"]])
    ds, _ = D.load_csv(f)
    # icmp < tcp < udp lexicographically
    np.testing.assert_array_equal(ds.X[:, 0], [1.0, 2.0, 0.0])


def test_load_csv_missing_label_column(tmp_path):
    f = tmp_path / "t.csv"
    write_csv(f, ["x1", "target"], [["1", "a"]])
    with pytest.raises(ConfigError):
        D.load_csv(f, label_column="label")


def test_load_csv_label_only_file_fails(tmp_path):
    f = tmp_path / "t.csv"
    write_csv(f, ["label"], [["a"], ["b"]])
    with pytest.raises(InputError, match="no feature column"):
        D.load_csv(f)


def test_load_csv_invalid_utf8_fails_with_input_error(tmp_path):
    f = tmp_path / "t.csv"
    f.write_bytes(b"x1,label\n1,a\xff\n2,b\n")
    with pytest.raises(InputError, match="not UTF-8"):
        D.load_csv(f)


@pytest.mark.parametrize("header", [["label", "f1", "f2"], ["f1", "f2", "label"]])
def test_load_csv_drops_a_byte_order_mark(tmp_path, header):
    # Excel's "CSV UTF-8" export starts the file with one; it names no column
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_csv(plain, header, [["a", "1", "2"], ["b", "3", "4"]] if header[0] == "label"
              else [["1", "2", "a"], ["3", "4", "b"]])
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    (want, _), (got, dropped) = D.load_csv(plain), D.load_csv(marked)
    assert dropped == 0 and got.feature_names == ["f1", "f2"]
    assert got.encoder.class_names == want.encoder.class_names == ["a", "b"]
    np.testing.assert_array_equal(got.X, want.X)


@pytest.mark.parametrize("bad_row", [1, 3])
def test_load_csv_oversized_quoted_cell_fails_with_input_error(tmp_path, bad_row):
    # csv.reader refuses a field over its 131072-character limit
    rows = ["x1,label", "1,a", "2,b"]
    rows.insert(bad_row - 1, '"' + "1" * 200_000 + '",a')
    f = tmp_path / "t.csv"
    f.write_text("\n".join(rows) + "\n")
    with pytest.raises(InputError, match=rf"t\.csv:{bad_row}: unreadable CSV row: field larger"):
        D.load_csv(f, label_column="label")


def test_load_csv_empty_file(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("")
    with pytest.raises(InputError):
        D.load_csv(f)


def test_load_csv_reference_shape(tmp_path):
    ds = D.synth_dataset(classes=6, features=60, per_class=5, seed=0)
    f = tmp_path / "wide.csv"
    D.save_csv(ds, f)
    loaded, dropped = D.load_csv(f)
    assert dropped == 0
    assert loaded.num_features == 60
    assert loaded.encoder.num_classes == 6
    np.testing.assert_allclose(loaded.X, ds.X)
    np.testing.assert_array_equal(loaded.y, ds.y)


def test_load_csv_ragged_row_names_its_line_past_a_chunk_boundary(tmp_path, monkeypatch):
    monkeypatch.setattr(D, "_CHUNK_ROWS", 4)
    f = tmp_path / "t.csv"
    # the blank line counts: the short row is the 10th data row, on line 12
    f.write_text("x1,x2,label\n" + "1,2,a\n" * 5 + "\n" + "3,4,b\n" * 4 + "5,b\n" + "6,7,a\n")
    with pytest.raises(InputError, match=r"t\.csv:12: expected 3 cells, got 2"):
        D.load_csv(f)
    f.write_text("x1,label\n1,a,extra\n")
    with pytest.raises(InputError, match=r"t\.csv:2: expected 2 cells, got 3"):
        D.load_csv(f)


def test_load_csv_error_names_the_file_line_after_a_cell_that_spans_lines(tmp_path):
    # the quoted cell of the first data row holds a line break, so the short
    # row is the third data row but sits on the file's fifth line
    f = tmp_path / "bad.csv"
    f.write_text('x1,x2,label\n1,"two\nlines",a\n2,3,b\n4,b\n')
    with pytest.raises(InputError, match=r"bad\.csv:5: expected 3 cells, got 2"):
        D.load_csv(f)
    # a row that csv.reader refuses is named by its first line too
    f.write_text('x1,label\n"1\n2",a\n3,b\n"' + "1" * 200_000 + '",a\n')
    with pytest.raises(InputError, match=r"bad\.csv:5: unreadable CSV row"):
        D.load_csv(f)


def test_load_csv_header_only_file_has_no_data_rows(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("x1,x2,label\n\n")
    with pytest.raises(InputError, match="no data rows"):
        D.load_csv(f)


def test_load_csv_drops_rows_whose_label_is_a_missing_marker(tmp_path):
    f = tmp_path / "t.csv"
    write_csv(f, ["x1", "label"], [["1", "a"], ["2", " NA "], ["3", "b"], ["4", ""]])
    ds, dropped = D.load_csv(f)
    assert dropped == 2
    assert ds.encoder.class_names == ["a", "b"]
    np.testing.assert_array_equal(ds.X[:, 0], [1.0, 3.0])


def test_load_csv_numeric_column_with_question_marks_stays_numeric(tmp_path):
    f = tmp_path / "t.csv"
    write_csv(f, ["x1", "label"], [["10.5", "a"], ["?", "b"], ["-2", "a"], ["?", "a"]])
    ds, dropped = D.load_csv(f)
    assert dropped == 2
    np.testing.assert_array_equal(ds.X[:, 0], [10.5, -2.0])   # values, not category codes


def test_load_csv_column_turning_categorical_after_the_first_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(D, "_CHUNK_ROWS", 4)
    f = tmp_path / "t.csv"
    proto = ["10", "2", "1.0", "10", "2", "7", "1.0", "udp", "2", "10"]
    write_csv(f, ["proto", "size", "label"],
              [[p, str(i), "ab"[i % 2]] for i, p in enumerate(proto)])
    ds, dropped = D.load_csv(f)
    assert dropped == 0
    # codes of the cell strings in lexicographic order: 1.0 < 10 < 2 < 7 < udp
    np.testing.assert_array_equal(ds.X[:, 0], [1, 2, 0, 1, 2, 3, 0, 4, 2, 1])
    np.testing.assert_array_equal(ds.X[:, 1], np.arange(10.0))


def test_load_csv_numeric_label_column_is_encoded_by_its_strings(tmp_path):
    f = tmp_path / "t.csv"
    write_csv(f, ["x1", "label"], [["1", "10"], ["2", "2"], ["3", "1.0"], ["4", "10"]])
    ds, _ = D.load_csv(f)
    assert ds.encoder.class_names == ["1.0", "10", "2"]
    np.testing.assert_array_equal(ds.y, [1, 2, 0, 1])


def test_load_csv_numeric_label_column_is_read_in_one_pass(tmp_path, monkeypatch):
    f = tmp_path / "t.csv"
    rows = [[str(i), str(i % 3)] for i in range(3 * D._CHUNK_ROWS)]
    write_csv(f, ["x1", "label"], rows)
    passes = []
    row_chunks = D._row_chunks

    def counted(path, *span):
        passes.append(path)
        return row_chunks(path, *span)

    monkeypatch.setattr(D, "_row_chunks", counted)
    ds, _ = D.load_csv(f)
    assert len(passes) == 1
    assert ds.encoder.class_names == ["0", "1", "2"]
    np.testing.assert_array_equal(ds.y, np.arange(len(rows)) % 3)


def test_load_csv_wrong_label_column_fails_at_the_header(tmp_path):
    # the ragged row is past the first chunk: the label error must come first
    f = tmp_path / "t.csv"
    rows = [["1", "a"]] * (D._CHUNK_ROWS + 5) + [["1", "a", "extra"]]
    write_csv(f, ["x1", "target"], rows)
    with pytest.raises(ConfigError, match="label column 'label' not found"):
        D.load_csv(f, label_column="label")


@pytest.mark.parametrize("header,name", [(["a", "a", "label"], "a"),
                                         (["label", "f1", "label"], "label")])
def test_load_csv_repeated_column_name_fails_at_the_header(tmp_path, header, name):
    # the ragged row would fail the first chunk: the header error must come first
    f = tmp_path / "t.csv"
    write_csv(f, header, [["1", "2", "3"], ["1"]])
    with pytest.raises(InputError, match=f"the header repeats the column name '{name}'"):
        D.load_csv(f)


def test_load_csv_quoted_label_with_a_comma_and_blank_lines(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text('x1,label\r\n\r\n1,"scan, port"\r\n2,benign\n\n3,"scan, port"\n\n')
    ds, dropped = D.load_csv(f)
    assert dropped == 0
    assert ds.encoder.class_names == ["benign", "scan, port"]
    np.testing.assert_array_equal(ds.y, [1, 0, 1])
    np.testing.assert_array_equal(ds.X[:, 0], [1.0, 2.0, 3.0])


def assert_load_csv_peak_is_two_x_plus_one_chunk(tmp_path, ds: D.Dataset) -> None:
    f = tmp_path / "t.csv"
    D.save_csv(ds, f)
    tracemalloc.start()
    try:
        loaded, _ = D.load_csv(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the str cells of one chunk, with their list and array slots: ~85 bytes a cell
    chunk_budget = D._CHUNK_ROWS * len(ds.feature_names + ["label"]) * 128
    # the label codes, the keep mask and y: ~9 bytes a row above 2x X
    row_budget = 12 * loaded.X.shape[0]
    assert peak <= 2 * loaded.X.nbytes + chunk_budget + row_budget


def test_load_csv_peak_memory_is_two_x_plus_one_chunk(tmp_path):
    # 8 chunks; reading every cell into a Python str peaked near 12x the bytes of X here
    ds = D.synth_dataset(classes=4, features=20, per_class=2 * D._CHUNK_ROWS, seed=0)
    assert_load_csv_peak_is_two_x_plus_one_chunk(tmp_path, ds)


def test_load_csv_peak_memory_of_a_split_read_is_two_x_plus_one_chunk(tmp_path, monkeypatch):
    # the parent's peak, with each child's float columns received into it
    monkeypatch.setattr(D, "cpus", lambda: 3)
    monkeypatch.setattr(D, "_PART_BYTES", 1 << 18)
    ds = D.synth_dataset(classes=4, features=20, per_class=2 * D._CHUNK_ROWS, seed=0)
    assert_load_csv_peak_is_two_x_plus_one_chunk(tmp_path, ds)
    assert len(D._ranges(tmp_path / "t.csv")) == 3


def test_load_csv_peak_memory_of_a_narrow_file_grows_by_few_bytes_a_row(tmp_path):
    # with 2 features X is 16 bytes a row, so the per-row arrays beside it, not
    # the chunk, decide whether the peak stays within the bound
    ds = D.synth_dataset(classes=2, features=2, per_class=50_000, seed=0)
    assert_load_csv_peak_is_two_x_plus_one_chunk(tmp_path, ds)


def reference_load_csv(path, label_column="label"):
    """``load_csv`` as first written: every cell a Python str, numerized cell by cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [r for r in reader if r]
    label_idx = header.index(label_column)
    feature_idx = [i for i in range(len(header)) if i != label_idx]
    keep = np.array([r[label_idx].strip().lower() not in D.MISSING_MARKERS for r in rows])
    numeric = {}
    for i in feature_idx:
        cells = [r[i] for r in rows]
        present = [c.strip().lower() not in D.MISSING_MARKERS for c in cells]
        try:
            values = np.array([float(c) if ok else np.nan for c, ok in zip(cells, present)])
        except ValueError:
            keep &= present
        else:
            numeric[i] = values
            keep &= np.isfinite(values)
    kept = [r for r, ok in zip(rows, keep) if ok]
    if not kept:
        raise InputError("all rows dropped during numerization")
    encoder = D.LabelEncoder().fit(r[label_idx] for r in kept)
    columns = []
    for i in feature_idx:
        if i in numeric:
            columns.append(numeric[i][keep])
        else:
            cells = [r[i] for r in kept]
            mapping = D.LabelEncoder().fit(cells).mapping
            columns.append(np.array([mapping[c] for c in cells], dtype=float))
    X = np.column_stack(columns)
    labels = encoder.mapping
    y = np.array([labels[r[label_idx]] for r in kept], dtype=np.int64)
    return X, y, encoder.class_names, \
        [header[i] for i in feature_idx], len(rows) - len(kept)


NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, width=64).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["inf", "-Infinity", "1e999", "-1e999", "nan", "NaN", "1_000", "0.5e-3"]))
MARKER_CELLS = st.sampled_from(sorted(D.MISSING_MARKERS) + ["?", " NA ", "Null", "None"])
WORD_CELLS = st.sampled_from(["tcp", "udp", "icmp", "inf", "x y", "a,b", 'q"t', "Tcp"])
PADDING = st.sampled_from(["", " ", "\t", "  "])


def sometimes_missing(cells):
    """``cells`` with a missing marker in about one cell of eight."""
    return st.integers(0, 7).flatmap(lambda k: MARKER_CELLS if k == 0 else cells)


COLUMN_CELLS = {"numeric": sometimes_missing(NUMBER_CELLS),
                "late": sometimes_missing(NUMBER_CELLS),   # plus one word, placed below
                "categorical": sometimes_missing(st.one_of(WORD_CELLS, NUMBER_CELLS))}
LABEL_CELLS = [sometimes_missing(st.sampled_from(["benign", "ddos", "Scan, udp", "2"])),
               sometimes_missing(st.sampled_from(["2", "10", "1.0"]))]


@st.composite
def csv_tables(draw):
    """(header, rows, rows followed by a blank line) of numeric, categorical and
    late-categorical feature columns around a word or number label column."""
    n = draw(st.integers(1, 30))
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(COLUMN_CELLS)), min_size=1, max_size=5)):
        cells = draw(st.lists(COLUMN_CELLS[kind], min_size=n, max_size=n))
        if kind == "late":
            cells[draw(st.integers(0, n - 1))] = draw(WORD_CELLS)
        pad = draw(PADDING)
        columns.append([pad + c + draw(PADDING) for c in cells])
    labels = draw(st.lists(draw(st.sampled_from(LABEL_CELLS)), min_size=n, max_size=n))
    position = draw(st.integers(0, len(columns)))
    columns.insert(position, labels)
    header = [f"c{i}" for i in range(len(columns))]
    header[position] = "label"
    rows = [list(r) for r in zip(*columns)]
    return header, rows, draw(st.sets(st.integers(0, n - 1), max_size=3))


@settings(max_examples=100, deadline=None)
@given(table=csv_tables(), chunk_rows=st.integers(1, 7), cpus=st.integers(1, 3),
       part_bytes=st.integers(16, 256))
def test_load_csv_matches_the_cell_by_cell_reference(tmp_path_factory, table, chunk_rows, cpus,
                                                     part_bytes):
    header, rows, blank_after = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, row in enumerate(rows):
            writer.writerow(row)
            if i in blank_after:
                fh.write("\r\n")
    try:
        want = reference_load_csv(path)
    except InputError as exc:
        want = exc
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(D, "_CHUNK_ROWS", chunk_rows)
        patch.setattr(D, "cpus", lambda: cpus)   # up to 3 byte ranges of part_bytes or more
        patch.setattr(D, "_PART_BYTES", part_bytes)
        if isinstance(want, InputError):
            with pytest.raises(InputError, match=str(want)):
                D.load_csv(path)
            return
        ds, dropped = D.load_csv(path)
    X, y, class_names, feature_names, want_dropped = want
    assert ds.X.dtype == np.float64 and ds.X.shape == X.shape
    assert ds.X.tobytes() == X.tobytes()
    np.testing.assert_array_equal(ds.y, y)
    assert ds.encoder.class_names == class_names
    assert ds.feature_names == feature_names
    assert dropped == want_dropped


def csv_module_row_chunks(path):
    """``_row_chunks`` with every line tokenized by ``csv.reader``; the header
    is the first non-blank row, and an error names the file line its row
    starts on, from the reader's line count."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        lineno = 1   # the first line of the row being read
        try:
            header = next((row for row in reader if row), None)
            if header is None:
                raise InputError(f"{path}: file is empty")
            yield header
            chunk = []
            lineno = reader.line_num + 1
            for row in reader:
                first, lineno = lineno, reader.line_num + 1
                if not row:
                    continue
                if len(row) != len(header):
                    raise InputError(
                        f"{path}:{first}: expected {len(header)} cells, got {len(row)}")
                chunk.append(row)
                if len(chunk) == D._CHUNK_ROWS:
                    yield chunk
                    chunk = []
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            raise InputError(f"{path}:{lineno}: unreadable CSV row: {exc}") from None
        if chunk:
            yield chunk


def drain(chunks):
    """Every chunk a generator yields, then the type and text of what it raised, if anything."""
    out = []
    try:
        out.extend(chunks)
    except Exception as exc:
        out.append((type(exc), str(exc)))
    return out


LINE_BREAKS = st.sampled_from(["\n", "\r\n", "\r"])
TAME_CELLS = st.text(alphabet="ab 7.\té中\x00", max_size=5)
WILD_CELLS = st.text(alphabet='ab ,"\r\n\x00é', max_size=5)


@st.composite
def csv_texts(draw):
    """CSV text of a few columns: rows written by ``csv.writer`` (quoting cells
    that hold commas, quotes or line breaks), rows joined by hand (NULs,
    non-ASCII, empty last cells as trailing commas), blank lines, and lines
    of stray commas, quotes and line breaks, in LF, CRLF or CR line breaks."""
    width = draw(st.integers(1, 4))
    parts = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["written", "written", "joined", "joined", "blank", "wild"]))
        eol = draw(LINE_BREAKS)
        if kind == "written":
            buf = io.StringIO()
            quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
            csv.writer(buf, lineterminator=eol, quoting=quoting).writerow(
                draw(st.lists(st.one_of(TAME_CELLS, WILD_CELLS), min_size=width,
                              max_size=width)))
            parts.append(buf.getvalue())
        elif kind == "joined":
            parts.append(",".join(draw(st.lists(TAME_CELLS, min_size=width,
                                                max_size=width))) + eol)
        elif kind == "blank":
            parts.append(eol)
        else:
            parts.append(draw(WILD_CELLS) + eol)
    text = "".join(parts)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None)
@given(text=csv_texts(), chunk_rows=st.integers(1, 3))
def test_row_chunks_yield_the_csv_module_rows(tmp_path_factory, text, chunk_rows):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(D, "_CHUNK_ROWS", chunk_rows)
        assert drain(D._row_chunks(path)) == drain(csv_module_row_chunks(path))


def rows_by_range(path):
    """Every row ``_row_chunks`` yields over the file's ``_ranges``, the
    header first; or the text of the first error."""
    out = []
    try:
        (start, _, first, lines), *rest = D._ranges(path)
        chunks = D._row_chunks(path, start, first, lines)
        header = next(chunks)
        out.append(header)
        for chunk in chunks:
            out.extend(chunk)
        for start, _, first, lines in rest:
            for chunk in D._row_chunks(path, start, first, lines, header):
                out.extend(chunk)
    except InputError as exc:
        return str(exc)
    return out


@settings(max_examples=300, deadline=None)
@given(text=csv_texts(), unquoted=st.booleans(), cpus=st.integers(2, 4),
       part_bytes=st.integers(3, 40))
def test_byte_ranges_hold_the_rows_and_line_numbers_of_one_pass(tmp_path_factory, text, unquoted,
                                                                cpus, part_bytes):
    # LF, CRLF and bare CR line ends meet the cuts and the scan's block ends;
    # most texts hold a quote, which allows no cut after it, so half lose theirs
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes((text.replace('"', "") if unquoted else text).encode("utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(D, "cpus", lambda: 1)
        want = rows_by_range(path)
        patch.setattr(D, "cpus", lambda: cpus)
        patch.setattr(D, "_PART_BYTES", part_bytes)
        ranges = D._ranges(path)
        got = rows_by_range(path)
    assert got == want
    data = path.read_bytes()
    quote = data.find(b'"')
    for start, *_ in ranges[1:]:
        assert data[start - 1:start] == b"\n" and not 0 <= quote < start
    assert [r[1] for r in ranges] == [r[0] for r in ranges[1:]] + [len(data)]


@pytest.fixture(params=[1, 3], ids=["one_part", "three_parts"])
def parts(request, monkeypatch):
    """Files read in one part, or cut into three byte ranges where 64-byte
    parts and the quotes allow: each test asserts the same in both."""
    monkeypatch.setattr(D, "cpus", lambda: request.param)
    monkeypatch.setattr(D, "_PART_BYTES", 64)
    return request.param


def test_split_read_of_a_column_with_text_only_in_the_last_range(tmp_path, monkeypatch, parts):
    monkeypatch.setattr(D, "_CHUNK_ROWS", 4)
    f = tmp_path / "t.csv"
    proto = [str(i % 3) for i in range(40)]
    proto[37] = "udp"
    write_csv(f, ["size", "proto", "label"], [[str(i), p, "ab"[i % 2]] for i, p in enumerate(proto)])
    assert len(D._ranges(f)) == parts
    ds, dropped = D.load_csv(f)
    assert dropped == 0 and ds.categories == {"proto": ["0", "1", "2", "udp"]}
    np.testing.assert_array_equal(ds.X[:, 1], [3 if p == "udp" else int(p) for p in proto])
    np.testing.assert_array_equal(ds.X[:, 0], np.arange(40.0))
    assert mp.active_children() == []


def test_split_read_keeps_first_seen_order_across_ranges(tmp_path, parts):
    f = tmp_path / "t.csv"
    labels = ["b", "a"] * 10 + ["d", "a", "c"] * 10   # d and c first appear past the first third
    protos = ["tcp", "udp"] * 10 + ["icmp", "udp", "tcp"] * 10
    write_csv(f, ["size", "proto", "label"],
              [[str(i), p, lab] for i, (p, lab) in enumerate(zip(protos, labels))])
    assert len(D._ranges(f)) == parts
    table = D.read_table(f, "label")
    assert list(table.categorical[table.label].index) == ["b", "a", "d", "c"]
    assert list(table.categorical[1].index) == ["tcp", "udp", "icmp"]
    ds, _ = D.table_to_dataset(table)
    assert ds.encoder.class_names == ["a", "b", "c", "d"]
    np.testing.assert_array_equal(ds.y, ["abcd".index(lab) for lab in labels])
    np.testing.assert_array_equal(ds.X[:, 1], [["icmp", "tcp", "udp"].index(p) for p in protos])


def test_split_read_names_the_line_of_a_short_row_in_the_last_range(tmp_path, parts):
    f = tmp_path / "t.csv"
    # header on line 1, rows on 2-21, a CRLF and a bare CR blank line on 22
    # and 23, rows on 24-43: the short row is on line 44
    f.write_bytes(b"x1,x2,label\r\n" + b"1,2,a\r\n" * 20 + b"\r\n\r" + b"3,4,b\r\n" * 20
                  + b"5,b\r\n6,7,a\r\n")
    assert len(D._ranges(f)) == parts
    with pytest.raises(InputError, match=r"t\.csv:44: expected 3 cells, got 2"):
        D.load_csv(f)
    assert mp.active_children() == []


def test_split_read_makes_no_cut_after_a_quote(tmp_path, parts):
    # the quoted label spans lines 22 and 23, past a third of the file but
    # before two thirds: a cut may come before it, none after it
    f = tmp_path / "t.csv"
    rows = "x1,x2,label\n" + "1,2,a\n" * 20 + '3,4,"scan\nport"\n' + "6,7,a\n" * 20
    f.write_text(rows)
    ranges = D._ranges(f)
    assert len(ranges) == min(parts, 2)
    assert all(start <= rows.index('"') for start, *_ in ranges)
    ds, _ = D.load_csv(f)
    assert ds.encoder.class_names == ["a", "scan\nport"]
    np.testing.assert_array_equal(ds.y, [0] * 20 + [1] + [0] * 20)
    f.write_text(rows + "8,a\n")
    with pytest.raises(InputError, match=r"t\.csv:44: expected 3 cells, got 2"):
        D.load_csv(f)


def test_split_read_through_a_schema(tmp_path, parts):
    schema = D.Schema(feature_names=["size", "proto"], class_names=["a", "b", "c"],
                      categories={"proto": ["icmp", "tcp", "udp"]})
    f = tmp_path / "t.csv"
    protos = ["udp", "tcp", "icmp"] * 15
    # other columns and order than the training file's; class c is absent
    write_csv(f, ["label", "proto", "extra", "size"],
              [["ab"[i % 2], p, "x", str(i)] for i, p in enumerate(protos)])
    assert len(D._ranges(f)) == parts
    ds, dropped = D.table_to_dataset(D.read_table(f, "label", schema), schema)
    assert dropped == 0 and ds.encoder.class_names == ["a", "b", "c"]
    np.testing.assert_array_equal(ds.X, [[i, ["icmp", "tcp", "udp"].index(p)]
                                         for i, p in enumerate(protos)])
    np.testing.assert_array_equal(ds.y, np.arange(45) % 2)
    # text in the schema's numeric column, in the last range only
    write_csv(f, ["label", "proto", "extra", "size"],
              [["a", p, "x", "big" if i == 40 else str(i)] for i, p in enumerate(protos)])
    with pytest.raises(InputError, match="column 'size' holds text, but the training data's"):
        D.read_table(f, "label", schema)
    assert mp.active_children() == []


def test_split_read_ends_its_child_processes(tmp_path, monkeypatch):
    monkeypatch.setattr(D, "cpus", lambda: 3)
    monkeypatch.setattr(D, "_PART_BYTES", 64)
    f = tmp_path / "t.csv"
    write_csv(f, ["x1", "label"], [[str(i), "ab"[i % 2]] for i in range(60)])
    assert len(D._ranges(f)) == 3
    D.load_csv(f)
    assert mp.active_children() == []
    parse, parent = D._parse, os.getpid()

    def interrupted(*args):   # the parent is interrupted while the children parse
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return parse(*args)

    monkeypatch.setattr(D, "_parse", interrupted)
    with pytest.raises(KeyboardInterrupt):
        D.load_csv(f)
    assert mp.active_children() == []

    def dying(*args):   # a child ends without sending a result
        if os.getpid() != parent:
            os._exit(3)
        return parse(*args)

    monkeypatch.setattr(D, "_parse", dying)
    with pytest.raises(SeqidsError, match=r"t\.csv: the process parsing bytes \d+ to \d+ ended "
                                          "with exit code 3 and no result"):
        D.load_csv(f)
    assert mp.active_children() == []


def test_load_csv_skips_blank_lines_before_the_header(tmp_path, parts):
    # the blank lines are over two thirds of the file: no cut may come before the header
    f = tmp_path / "t.csv"
    blank = "\n" * 100 + "\r\n" * 50
    f.write_text(blank + "x,label\n" + "1,a\n\n2,b\n" * 8)
    assert len(D._ranges(f)) == parts
    ds, dropped = D.load_csv(f)
    assert dropped == 0 and ds.feature_names == ["x"] and ds.encoder.class_names == ["a", "b"]
    # the lines are still counted from the file's first: the header is on
    # line 151 and the last row on line 175
    f.write_text(blank + "x,label\n" + "1,a\n\n2,b\n" * 7 + "1,a\n\n2,b,extra\n")
    with pytest.raises(InputError, match=r"t\.csv:175: expected 2 cells, got 3"):
        D.load_csv(f)


def test_all_rows_dropped_names_the_columns_with_no_usable_cell(tmp_path):
    # a comma at the end of every line makes an unnamed column of empty cells
    f = tmp_path / "t.csv"
    f.write_text("x,label,\n1,a,\n2,b,\n")
    with pytest.raises(InputError, match="^all rows dropped during numerization; no usable "
                                         "cell in column ''$"):
        D.load_csv(f)
    write_csv(f, ["x", "y", "label"], [["?", "1", "a"], ["2", "nan", "b"]])
    with pytest.raises(InputError, match="^all rows dropped during numerization$"):
        D.load_csv(f)


# ---------------------------------------------------------------------------
# Splitting

def test_split_sizes():
    ds = D.synth_dataset(classes=2, features=4, per_class=50, seed=1)
    pair = D.train_test_split(ds, fraction=0.8, seed=0)
    assert pair.train.X.shape[0] == 80
    assert pair.test.X.shape[0] == 20


def test_split_is_seed_deterministic():
    ds = D.synth_dataset(classes=3, features=5, per_class=30, seed=2)
    p1 = D.train_test_split(ds, fraction=0.8, seed=7)
    p2 = D.train_test_split(ds, fraction=0.8, seed=7)
    np.testing.assert_array_equal(p1.train.X, p2.train.X)
    np.testing.assert_array_equal(p1.test.y, p2.test.y)


def test_stratified_split_preserves_proportions():
    ds = D.synth_dataset(classes=3, features=4, per_class=60, seed=3)
    pair = D.train_test_split(ds, fraction=0.8, seed=0)
    np.testing.assert_array_equal(pair.train.class_counts(), [48, 48, 48])
    np.testing.assert_array_equal(pair.test.class_counts(), [12, 12, 12])


def test_split_train_test_disjoint():
    ds = D.synth_dataset(classes=2, features=3, per_class=25, seed=4)
    pair = D.train_test_split(ds, fraction=0.8, seed=1)
    train_rows = {tuple(r) for r in pair.train.X}
    assert not any(tuple(r) in train_rows for r in pair.test.X)


def test_stratified_split_rejects_singleton_class():
    enc = D.LabelEncoder().fit(["a", "b"])
    ds = D.Dataset(X=np.zeros((3, 2)), y=np.array([0, 0, 1]), encoder=enc,
                   feature_names=["f0", "f1"])
    with pytest.raises(ContractError) as exc:
        D.train_test_split(ds, fraction=0.8, seed=0)
    assert "class 'b' has 1 sample(s)" in str(exc.value)


def row_id_dataset() -> D.Dataset:
    """18 rows in classes of 2, 3, 5 and 8, interleaved; the one feature is the row id."""
    y = np.array([3, 0, 1, 3, 2, 3, 1, 2, 3, 0, 2, 3, 1, 2, 3, 2, 3, 3])
    return D.Dataset(X=np.arange(18.0)[:, None], y=y, encoder=D.LabelEncoder().fit("abcd"),
                     feature_names=["row"])


@pytest.mark.parametrize("fraction, seed, train_rows, test_rows", [
    (0.8, 0, [1, 12, 2, 10, 15, 13, 7, 16, 5, 17, 11, 14, 3], [9, 6, 4, 0, 8]),
    (0.8, 1, [1, 2, 6, 13, 4, 7, 15, 3, 16, 17, 5, 8, 11], [9, 12, 10, 14, 0]),
    (0.2, 0, [1, 12, 10, 16, 5], [9, 2, 6, 15, 13, 7, 4, 17, 11, 14, 3, 0, 8]),
])
def test_split_row_ids_are_pinned(fraction, seed, train_rows, test_rows):
    # the 2-row class hits the n - 1 clamp at 0.8 and the 1-row minimum at 0.2
    pair = D.train_test_split(row_id_dataset(), fraction=fraction, seed=seed)
    assert pair.train.X[:, 0].astype(int).tolist() == train_rows
    assert pair.test.X[:, 0].astype(int).tolist() == test_rows


@pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.2])
def test_split_fraction_outside_zero_one_is_rejected(fraction):
    with pytest.raises(ContractError, match="fraction must be in"):
        D.train_test_split(row_id_dataset(), fraction=fraction, seed=0)


def test_stratified_carve_keeps_every_row_once():
    y = row_id_dataset().y
    first, rest = D.stratified_carve(y, 0.9, np.random.default_rng(0), min_first=0)
    np.testing.assert_array_equal(np.sort(np.concatenate([first, rest])), np.arange(y.size))
    # round(0.9 * 2) = 2 is clamped to n - 1, so every class keeps a row on each side
    np.testing.assert_array_equal(np.bincount(y[first]), [1, 2, 4, 7])
    np.testing.assert_array_equal(np.bincount(y[rest]), [1, 1, 1, 1])


# ---------------------------------------------------------------------------
# SMOTE

def test_smote_balanced_input_is_unchanged():
    ds = D.synth_dataset(classes=3, features=4, per_class=20, seed=5)
    out = D.smote_oversample(ds, seed=0)
    np.testing.assert_array_equal(out.X, ds.X)
    np.testing.assert_array_equal(out.y, ds.y)


def test_smote_balances_counts():
    ds = D.synth_dataset(classes=3, features=5, per_class=100,
                         imbalance_profile=[1.0, 0.2, 0.1], seed=6)
    np.testing.assert_array_equal(ds.class_counts(), [100, 20, 10])
    out = D.smote_oversample(ds, seed=0)
    np.testing.assert_array_equal(out.class_counts(), [100, 100, 100])
    # brute-force recount
    assert {int((out.y == c).sum()) for c in range(3)} == {100}


def test_smote_preserves_originals_first():
    ds = D.synth_dataset(classes=2, features=3, per_class=30,
                         imbalance_profile=[1.0, 0.5], seed=7)
    out = D.smote_oversample(ds, seed=1)
    np.testing.assert_array_equal(out.X[:ds.X.shape[0]], ds.X)


def test_smote_synthetics_lie_on_base_neighbor_segments():
    ds = D.synth_dataset(classes=2, features=4, per_class=40,
                         imbalance_profile=[1.0, 0.3], seed=8)
    out = D.smote_oversample(ds, seed=2)
    n_orig = ds.X.shape[0]
    synth = out.X[n_orig:]
    assert synth.shape[0] > 0
    minority = ds.X[ds.y == 1]
    # oracle: recompute the 5-NN sets and check each synthetic point is a
    # convex combination of some base point and one of its neighbors
    nn = brute_force_neighbors(minority, 5)
    for s in synth:
        best = np.inf
        for b in range(minority.shape[0]):
            for j in nn[b]:
                seg = minority[j] - minority[b]
                denom = seg @ seg
                lam = 0.0 if denom == 0 else float(np.clip((s - minority[b]) @ seg / denom, 0, 1))
                best = min(best, float(np.abs(minority[b] + lam * seg - s).max()))
        assert best < 1e-9


@pytest.mark.parametrize("n", [2, 511, 512, 513, 1100])
def test_blocked_neighbors_match_brute_force(n):
    # class sizes on both sides of the 512-row block boundary
    X = np.random.default_rng(n).normal(size=(n, 6))
    k = min(5, n - 1)
    np.testing.assert_array_equal(D._nearest_neighbors(X, k), brute_force_neighbors(X, k))


@pytest.mark.parametrize("integer_features", [False, True], ids=["gaussian", "tied_integers"])
def test_smote_matches_dense_reference(integer_features):
    ds = D.synth_dataset(classes=4, features=6, per_class=300,
                         imbalance_profile=[1.0, 0.5, 0.1, 0.02], seed=12)
    if integer_features:  # many exactly tied distances
        ds.X = np.round(ds.X)
    for seed in (1, 2, 3):
        out = D.smote_oversample(ds, seed=seed)
        X, y = smote_reference(ds, seed=seed)
        assert out.X.tobytes() == X.tobytes()
        assert out.y.tobytes() == y.tobytes()


@pytest.mark.parametrize("n", [7, 600])
def test_neighbor_ties_go_to_the_lower_row_index(n):
    # four distinct integer rows, each repeated: most distances tie exactly,
    # also at the k-th place, and the 600-row case crosses a block boundary
    rng = np.random.default_rng(n)
    X = rng.integers(-3, 4, size=(4, 5)).astype(float)[rng.integers(0, 4, size=n)]
    nn = D._nearest_neighbors(X, 5)
    d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    for i in range(n):
        want = sorted(range(n), key=lambda j: (d2[i, j], j))[:5]
        assert nn[i].tolist() == want


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(2, 40), cols=st.integers(1, 3), values=st.integers(1, 4),
       seed=st.integers(0, 2**16))
def test_neighbors_are_the_stable_argsort_of_the_distances(rows, cols, values, seed):
    # few distinct small integers: ties at, below and above the k-th place,
    # in a different number on every row
    X = np.random.default_rng(seed).integers(0, values, size=(rows, cols)).astype(float)
    k = min(5, rows - 1)
    np.testing.assert_array_equal(D._nearest_neighbors(X, k), brute_force_neighbors(X, k))


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(2, 12), min_size=2, max_size=5), seed=st.integers(0, 2**16))
def test_smote_counts_equal_the_largest_class_and_originals_come_first(sizes, seed):
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    ds = D.Dataset(X=rng.normal(size=(y.size, 3)), y=y,
                   encoder=D.LabelEncoder().fit(f"c{i}" for i in range(len(sizes))),
                   feature_names=["f0", "f1", "f2"])
    out = D.smote_oversample(ds, seed=seed)
    np.testing.assert_array_equal(out.class_counts(), [max(sizes)] * len(sizes))
    np.testing.assert_array_equal(out.X[:y.size], ds.X)
    np.testing.assert_array_equal(out.y[:y.size], ds.y)


def test_smote_rejects_singleton_class():
    enc = D.LabelEncoder().fit(["a", "b"])
    ds = D.Dataset(X=np.random.default_rng(0).normal(size=(4, 2)),
                   y=np.array([0, 0, 0, 1]), encoder=enc, feature_names=["f0", "f1"])
    with pytest.raises(ContractError) as exc:
        D.smote_oversample(ds, seed=0)
    assert "'b'" in str(exc.value)


# ---------------------------------------------------------------------------
# Standardization and reshape

def test_reshape_adds_channel_axis():
    ds = D.synth_dataset(classes=2, features=60, per_class=10, seed=9)
    std = D.fit_standardizer(ds.X)
    out = D.reshape_for_model(ds.X, std)
    assert out.shape == (20, 60, 1)


def test_standardized_train_means_are_zero():
    ds = D.synth_dataset(classes=3, features=8, per_class=50, seed=10)
    std = D.fit_standardizer(ds.X)
    z = std.transform(ds.X)
    np.testing.assert_allclose(z.mean(axis=0), np.zeros(8), atol=1e-6)
    np.testing.assert_allclose(z.std(axis=0), np.ones(8), atol=1e-6)


def test_test_set_uses_train_statistics():
    rng = np.random.default_rng(11)
    train_X = rng.normal(loc=5.0, size=(100, 3))
    test_X = rng.normal(loc=-5.0, size=(50, 3))
    std = D.fit_standardizer(train_X)
    z = std.transform(test_X)
    np.testing.assert_allclose(z, (test_X - train_X.mean(0)) / train_X.std(0))
    assert abs(z.mean()) > 1.0  # clearly not centered on its own stats


@pytest.mark.parametrize("rows, cols", [
    (1, 60), (D._STD_BLOCK - 1, 60), (D._STD_BLOCK, 60), (D._STD_BLOCK + 1, 60),
    (96_000, 60), (5000, 1)])
def test_standardizer_is_byte_equal_to_numpy_mean_and_std(rows, cols):
    rng = np.random.default_rng(rows + cols)
    X = rng.normal(loc=rng.normal(size=cols) * 50, scale=rng.uniform(0.1, 9, cols),
                   size=(rows, cols))
    with warnings.catch_warnings():   # one row has no variance: its scale is floored to 1
        warnings.simplefilter("ignore", UserWarning)
        std = D.fit_standardizer(X)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    assert std.mean.tobytes() == X.mean(axis=0).tobytes()
    assert std.scale.tobytes() == scale.tobytes()
    assert std.transform(X).tobytes() == ((X - X.mean(axis=0)) / scale).tobytes()


def test_standardizer_fit_holds_one_row_block_not_the_whole_array():
    X = np.random.default_rng(0).normal(size=(50_000, 60))   # 24 MB
    tracemalloc.start()
    try:
        D.fit_standardizer(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (block, 60) buffer plus numpy's reduction buffers, far from the 24 MB of X
    assert peak < D._STD_BLOCK * 60 * 8 + 2 ** 18


def test_zero_variance_feature_warns_and_zeroes():
    X = np.column_stack([np.ones(10), np.arange(10, dtype=float)])
    with pytest.warns(UserWarning):
        std = D.fit_standardizer(X)
    z = std.transform(X)
    np.testing.assert_array_equal(z[:, 0], np.zeros(10))
    assert np.all(np.isfinite(z))


# ---------------------------------------------------------------------------
# Synthetic generator

def test_synth_nearest_centroid_oracle_is_perfect_at_wide_separation():
    ds = D.synth_dataset(classes=6, features=60, per_class=100, seed=12, separation=5.0)
    pair = D.train_test_split(ds, fraction=0.8, seed=0)
    assert nearest_centroid_accuracy(pair.train, pair.test) == 1.0


def test_synth_imbalance_profile_exact_ratio():
    ds = D.synth_dataset(classes=3, features=6, per_class=100,
                         imbalance_profile=[1.0, 0.1, 0.1], seed=13)
    np.testing.assert_array_equal(ds.class_counts(), [100, 10, 10])


def test_synth_is_seed_deterministic():
    a = D.synth_dataset(classes=4, features=10, per_class=20, seed=14)
    b = D.synth_dataset(classes=4, features=10, per_class=20, seed=14)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)


def test_synth_sequence_structure_sets_class_lag_autocorrelation():
    # class c is autocorrelated at lag 2c+1 and nowhere else
    ds = D.synth_dataset(classes=2, features=400, per_class=200, seed=15,
                         separation=0.0, structure_strength=0.6)

    def lag_corr(rows, lag):
        return np.mean([np.corrcoef(r[:-lag], r[lag:])[0, 1] for r in rows])

    c0, c1 = ds.X[ds.y == 0], ds.X[ds.y == 1]
    assert abs(lag_corr(c0, 1) - 0.6) < 0.1
    assert abs(lag_corr(c0, 3) - 0.6 ** 3) < 0.1  # AR decay, not a direct lag
    assert abs(lag_corr(c1, 3) - 0.6) < 0.1
    assert abs(lag_corr(c1, 1)) < 0.1


def test_synth_unit_variance_regardless_of_structure():
    ds = D.synth_dataset(classes=2, features=300, per_class=300, seed=16,
                         separation=0.0, structure_strength=0.8)
    stds = ds.X.std(axis=0)
    assert abs(stds.mean() - 1.0) < 0.05


def test_centroid_pairwise_distances_match_separation():
    sep = 5.0
    ds = D.synth_dataset(classes=4, features=30, per_class=2000, seed=17,
                         separation=sep, structure_strength=0.0)
    cents = np.stack([ds.X[ds.y == c].mean(axis=0) for c in range(4)])
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(np.linalg.norm(cents[i] - cents[j]) - 2 * sep) < 0.25
