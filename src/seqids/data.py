"""Data pipeline: CSV ingestion, label encoding, stratified splitting, SMOTE
oversampling, standardization, and synthetic dataset generation.

The CSV contract of ``load_csv``:

- The file is UTF-8 in the ``csv`` module's default dialect: cells are
  separated by commas and may be quoted with ``"`` (a quoted cell may hold
  commas, line breaks and ``""`` for a quote). A byte-order mark at the
  start of the file (Excel's "CSV UTF-8" writes one) is dropped, so it
  never reaches the first column's name. Blank lines are skipped, also
  before the header, which is the first row that is not blank. Any other
  row with a cell count unlike the header's fails with an ``InputError``
  that names the file line the row starts on, counting every physical line
  of the file: blank ones, and those of quoted cells that span lines.
- A line with no ``"`` and no NUL (which the ``csv`` module of Python 3.10
  rejects) is split on its commas directly: that gives the cells
  ``csv.reader`` would, without its per-character tokenizer. Any other line
  goes to one ``csv.reader`` shared by the whole byte range being parsed
  (see below), which also reads the continuation lines of a quoted cell
  that spans lines. So
  ``csv.field_size_limit`` bounds only the cells of such lines, and a file
  with every cell quoted costs what a plain ``csv.reader`` does.
- A cell is missing when, stripped and lower-cased, it is one of
  ``MISSING_MARKERS``. Rows with a missing cell in any column, label
  included, are dropped and counted, as are rows with a non-finite number
  (``inf``, ``1e999``) in a numeric column. When every row is dropped, the
  ``InputError`` names each column that has no usable cell at all.
- A column is numeric when every cell of the whole file that is not missing
  parses with ``float()``; otherwise it is categorical and encoded by its
  strings in lexicographic order. The class names are the label cells'
  strings, also when they all parse as numbers.
- The header is checked first: a label column it lacks, a column name it
  repeats, or a header with no other column is an ``InputError`` naming
  the file, raised before any data row is parsed. So every column, the
  label's included, has a name of its own. The label cells are kept as
  strings from the first row on and never parsed as numbers.
- Given a ``Schema`` (a training file's layout), ``read_table`` and
  ``table_to_dataset`` read a file through it instead: its feature columns
  are the schema's, picked by name in the schema's order (others are not
  read), and its labels and categorical columns are coded by the schema's
  vocabularies. A missing column, text in a column the schema has numeric,
  or a value outside a vocabulary is an ``InputError`` that names it; a
  class the file lacks is simply absent.
- Rows are parsed ``_CHUNK_ROWS`` at a time, so the cell strings of only
  one chunk are alive at once. A feature column that turns categorical
  after the first chunk, whose earlier strings are gone, is read again in
  a second pass; nothing else is. The memory peak is about twice the
  bytes of the final ``X``, plus ~85 bytes for each cell of one chunk and
  ~9 bytes a row for the label codes, the keep mask and ``y``: each float
  column leaves the table as ``X`` takes it in.
- A file of at least ``2 * _PART_BYTES`` bytes is parsed on several CPUs,
  where the process can fork: ``read_table`` cuts it into up to one byte
  range per CPU that ``cpus.cpus()`` counts, parses the first range itself
  and each other one in a forked child, through the same chunk loop and the
  same ``float()``, and merges the ranges in file order. The table is the
  one a single pass gives, so ``load_csv`` returns the same bytes. A cut
  always follows a ``\\n`` byte past the header's first line, and never
  follows a ``"`` byte: a quoted cell may span lines, and ``csv.reader``
  returns a partial row when its input ends inside quotes. So a file with
  an early ``"`` is parsed in one process. The scan that finds the cuts
  also counts the lines before each, so every error names the line a
  single pass would, and the first failing range in file order gives the
  error. Each process holds the strings of one chunk at a time; the parent
  also receives each child's float columns, which stays within the peak
  above.

The processing order is fixed: split first, oversample the training split
only, and fit standardization statistics on the (possibly oversampled)
training split. Synthetic rows therefore never reach the test set and test
features are always scaled with training statistics.
"""

from __future__ import annotations

import codecs
import csv
import io
import os
import re
import warnings
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .cpus import cpus
from .errors import ContractError, InputError, SeqidsError

#: cell values treated as unparseable in any column
MISSING_MARKERS = {"", "?", "na", "n/a", "nan", "null", "none"}


@dataclass
class LabelEncoder:
    """Bijection between class names and contiguous indices, lexicographic."""
    class_names: list[str] = field(default_factory=list)

    def fit(self, names) -> "LabelEncoder":
        self.class_names = sorted(set(names))
        return self

    @property
    def mapping(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.class_names)}

    def decode(self, indices) -> list[str]:
        return [self.class_names[i] for i in indices]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


@dataclass
class Dataset:
    X: np.ndarray                 # (N, F) float
    y: np.ndarray                 # (N,) int in 0..K-1
    encoder: LabelEncoder
    feature_names: list[str]
    #: the vocabulary of each categorical feature, by name, in code order
    categories: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        if self.X.shape[0] != self.y.shape[0]:
            raise ContractError(f"X has {self.X.shape[0]} rows but y has {self.y.shape[0]}")

    @property
    def num_features(self) -> int:
        return self.X.shape[1]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=self.encoder.num_classes)


@dataclass(frozen=True)
class Schema:
    """A training file's layout, which another file is read through: the
    feature columns in order, the class names and each categorical feature's
    vocabulary, each in code order, and the name of the label column."""
    feature_names: list[str]
    class_names: list[str]
    categories: dict[str, list[str]]
    label_column: str


@dataclass
class SplitPair:
    train: Dataset
    test: Dataset
    fraction: float


#: data rows parsed per chunk by ``read_table``; bounds the Python strings
#: alive at once to about ``_CHUNK_ROWS`` times the column count
_CHUNK_ROWS = 1024
#: the fewest file bytes each process of ``read_table`` parses, so a file of
#: under twice this is parsed in one. On a 2-vCPU x86-64 machine a MiB took
#: ~25 ms to parse and a fork with its join 4-8 ms; split in two, a 1 MiB file
#: gained ~1 ms and a 0.5 MiB file lost ~2 ms
_PART_BYTES = 1 << 20


@dataclass
class Categories:
    """A column's str cells as codes into its distinct strings, in first-seen order."""
    index: dict[str, int] = field(default_factory=dict)
    parts: list[np.ndarray] = field(default_factory=list)   # the codes, one array per chunk

    def add(self, cells) -> None:
        index = self.index
        self.parts.append(np.fromiter((index.setdefault(c, len(index)) for c in cells),
                                      dtype=np.intp, count=len(cells)))

    def extend(self, other: "Categories") -> None:
        """Append ``other``'s rows, its codes remapped into this index, in first-seen order."""
        index = self.index
        lut = np.fromiter((index.setdefault(c, len(index)) for c in other.index),
                          dtype=np.intp, count=len(other.index))
        self.parts.extend(lut[codes] for codes in other.parts)

    def present(self) -> np.ndarray:
        """Per row: is the cell something other than a missing marker."""
        return _present(self.index)[np.concatenate(self.parts)]

    def encode(self, keep: np.ndarray,
               vocabulary: list[str] | None = None) -> tuple[LabelEncoder, np.ndarray]:
        """The encoder of the kept rows' strings and each kept row's code in it.

        The encoder is fitted to those strings, or is ``vocabulary``'s when
        given; a kept string outside ``vocabulary`` raises ``KeyError``.
        """
        codes = np.concatenate(self.parts)
        if not keep.all():   # with no row dropped, no [keep] copy
            codes = codes[keep]
        names = np.array(list(self.index), dtype=object)
        used = np.flatnonzero(np.bincount(codes, minlength=names.size))
        encoder = LabelEncoder(list(vocabulary)) if vocabulary is not None \
            else LabelEncoder().fit(names[used])
        mapping = encoder.mapping
        lut = np.zeros(names.size, dtype=np.int64)
        lut[used] = [mapping[n] for n in names[used]]
        return encoder, lut[codes]


@dataclass
class RawTable:
    """A CSV file parsed column by column.

    Every column is either numeric (float values, nan where a cell is a
    missing marker) or categorical; the label column is always categorical.
    """
    column_names: list[str]
    label: int   # the label column's index
    features: list[int]   # the feature columns' indices, in the dataset's order
    row_count: int
    numeric: dict[int, np.ndarray]
    categorical: dict[int, Categories]


def _rows(fh, path, first=1):
    """Each row of the open text file ``fh`` as ``csv.reader`` gives it, ``[]``
    for a blank line, with the number of the row's first line in the file,
    ``first`` being the number of ``fh``'s first line.

    A line with no ``"`` and no NUL is split on commas directly. Any other
    line is fed to one ``csv.reader``, which reads the continuation lines of
    a multi-line quoted cell from ``fh`` itself; the line numbers count
    those lines too. A row ``csv.reader`` refuses is an ``InputError`` that
    names ``path`` and the row's first line.
    """
    pending = []

    def lines():   # the line handed over, then what the reader asks for
        while line := pending.pop() if pending else next(fh, ""):
            yield line

    reader = csv.reader(lines())
    quoted = 0   # rows the reader has read; its line_num counts all their lines
    for lineno, line in enumerate(fh, first):
        lineno += reader.line_num - quoted
        if '"' in line or "\0" in line:
            pending.append(line)
            quoted += 1
            try:
                row = next(reader)
            except csv.Error as exc:   # e.g. a cell over csv's field size limit
                raise InputError(f"{path}:{lineno}: unreadable CSV row: {exc}") from None
            yield lineno, row
        else:
            line = line.rstrip("\r\n")
            yield lineno, line.split(",") if line else []


def _row_chunks(path, start=0, first=1, lines=None, header=None):
    """Yield the header, then the non-blank data rows in lists of ``_CHUNK_ROWS``.

    Reads ``lines`` lines, or to the end of the file when None, from byte
    ``start``, the first of them being line ``first`` of the file. The
    header is the first non-blank row. Given a ``header``, the lines hold
    data rows only: the rows are checked against it and it is not yielded.
    """
    with open(path, "rb") as raw:
        raw.seek(start)
        # a byte-order mark is dropped at the start of the file only
        fh = io.TextIOWrapper(raw, encoding="utf-8" if start else "utf-8-sig", newline="")
        rows = _rows(islice(fh, lines), path, first)
        try:
            if header is None:
                header = next((row for _, row in rows if row), None)
                if header is None:
                    raise InputError(f"{path}: file is empty")
                yield header
            chunk = []
            for lineno, row in rows:
                if not row:
                    continue
                if len(row) != len(header):
                    raise InputError(
                        f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
                chunk.append(row)
                if len(chunk) == _CHUNK_ROWS:
                    yield chunk
                    chunk = []
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text: {exc.reason}") from None
        if chunk:
            yield chunk


def _line_breaks(b: np.ndarray, after_cr: bool) -> int:
    """The line ends among the bytes ``b`` as text mode with ``newline=""``
    counts them: ``\\r\\n``, ``\\n`` and a bare ``\\r``. ``after_cr`` when the
    byte before ``b`` is a ``\\r``, whose line a ``\\n`` at ``b[0]`` then ends.

    numpy counts a MiB in ~0.6 ms, where three ``bytes.count`` calls took
    ~2.2 ms (2-vCPU x86-64).
    """
    cr = np.flatnonzero(b == 13)
    crlf = np.count_nonzero(b[cr[cr + 1 < b.size] + 1] == 10)
    return int(np.count_nonzero(b == 10) + cr.size - crlf) - (after_cr and b[:1].tolist() == [10])


def _ranges(path) -> list[tuple[int, int, int, int | None]]:
    """The byte ranges ``read_table`` parses the file in, in file order, each
    as (first byte, end byte, number of its first line, its line count, None
    for the last range).

    ``min(cpus(), file bytes // _PART_BYTES)`` ranges are aimed at, of
    equal size. A cut follows the first ``\\n`` byte past its aim and past
    the header's first byte, and no ``"`` byte may come before it, so no
    quoted cell, which may span lines, spans two ranges: a file whose first
    ``"`` comes early is cut fewer times or not at all. One pass over the
    bytes before the last cut, ``_PART_BYTES`` at a time, finds the cuts and
    counts the lines before each.
    """
    size = os.path.getsize(path)
    parts = min(cpus(), size // _PART_BYTES)
    aims = [size * k // parts for k in range(parts - 1, 0, -1)]   # popped in file order
    cuts = [(0, 1)]   # (first byte, first line) of each range
    text, pos, line, cr = None, 0, 1, False
    with open(path, "rb") as fh:
        while aims and (block := fh.read(_PART_BYTES)):
            # the header's first byte: neither a line break nor the byte-order mark
            if text is None and (found := re.compile(rb"[^\r\n]").search(
                    block, 3 if pos == 0 and block.startswith(codecs.BOM_UTF8) else 0)):
                text = pos + found.start()
            quote = block.find(b'"')
            data = np.frombuffer(block, dtype=np.uint8)
            counted = 0   # the bytes of the block whose line ends are in ``line``
            while aims and text is not None:
                at = block.find(b"\n", max(aims[-1] - pos, text - pos, counted),
                                len(block) if quote < 0 else quote)
                if at < 0:
                    break
                line += _line_breaks(data[counted:at + 1], cr)
                cr, counted = False, at + 1
                cuts.append((pos + counted, line))
                aims.pop()
            if quote >= 0:
                break
            line += _line_breaks(data[counted:], cr)
            cr = block.endswith(b"\r")
            pos += len(block)
    ends = cuts[1:] + [(size, None)]
    return [(start, stop, first, None if next_line is None else next_line - first)
            for (start, first), (stop, next_line) in zip(cuts, ends)]


def _present(cells) -> np.ndarray:
    """Per str cell: is it something other than a missing marker."""
    return np.array([c.strip().lower() not in MISSING_MARKERS for c in cells], dtype=bool)


def _parse_floats(cells: np.ndarray) -> np.ndarray | None:
    """float() of each str cell, nan for missing markers; None if a cell is neither."""
    try:
        return cells.astype(np.float64)
    except ValueError:
        pass
    present = _present(cells)
    values = np.full(cells.shape, np.nan)
    try:
        values[present] = cells[present].astype(np.float64)
    except ValueError:
        return None
    return values


def _read_categories(path, columns) -> dict[int, Categories]:
    """Read the file again and keep only ``columns``, as categories."""
    found = {i: Categories() for i in columns}
    chunks = _row_chunks(path)
    next(chunks)
    for chunk in chunks:
        for i, cats in found.items():
            cats.add([row[i] for row in chunk])
    return found


@dataclass
class _Part:
    """A byte range of a file, parsed: its data rows, the chunk arrays of each
    column numeric in all of them, and each column kept as ``Categories``
    from the range's first chunk on. A column in neither held text only
    past the first chunk."""
    rows: int
    numeric: dict[int, list[np.ndarray]]
    categorical: dict[int, Categories]


def _parse(chunks, path, header, floats, kept, schema) -> _Part:
    """Parse the row chunks of one byte range: cast each of the ``floats``
    columns to float64 while it parses, and keep the strings of the ``kept``
    columns as ``Categories``."""
    numeric = {i: [] for i in floats}
    categorical = {i: Categories() for i in kept}
    rows = 0
    for chunk in chunks:
        cells = np.array(chunk, dtype=object)
        for i in list(numeric):
            values = _parse_floats(cells[:, i])
            if values is not None:
                numeric[i].append(values)
                continue
            if schema is not None:
                raise InputError(f"{path}: column {header[i]!r} holds text, but the training "
                                 "data's was numeric")
            del numeric[i]
            if rows == 0:   # the first chunk: its strings are all still here
                categorical[i] = Categories()
        for i, cats in categorical.items():
            cats.add(cells[:, i])
        rows += len(chunk)
        del chunk, cells   # free this chunk's strings before the next one is read
    return _Part(rows, numeric, categorical)


def _parse_in_child(reader, writer, path, span, header, floats, kept, schema) -> None:
    """In a forked child: parse the byte range ``span`` and send the parent
    its ``_Part``, or the error that stopped it."""
    # imported here, as ``multiprocessing`` is in read_table: a command that
    # splits no file then loads neither, nor multiprocessing's socket and
    # selectors modules
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # on an interrupt the parent ends it
    reader.close()
    start, _, first, lines = span
    try:
        part = _parse(_row_chunks(path, start, first, lines, header), path, header, floats,
                      kept, schema)
    except (SeqidsError, MemoryError) as exc:
        part = exc
    writer.send(part)


def _receive(child, reader, path, span) -> _Part:
    """The ``_Part`` a child sends; its error raised here."""
    try:
        part = reader.recv()
    except EOFError:
        child.join()
        raise SeqidsError(f"{path}: the process parsing bytes {span[0]} to {span[1]} ended "
                          f"with exit code {child.exitcode} and no result") from None
    if isinstance(part, BaseException):
        raise part
    return part


def read_table(path, label_column: str, schema: Schema | None = None) -> RawTable:
    """Parse a CSV file under the module's contract, ``_CHUNK_ROWS`` rows at a time.

    Lines free of ``"`` and NUL are split on commas directly, and only the
    others go through ``csv.reader`` (see ``_rows``); the rows are the same.
    The header is checked for ``label_column``, for a repeated name and for
    a feature column before any row is parsed. The label column is kept as
    ``Categories`` of its cell strings and never cast. Each chunk becomes an
    object array whose feature columns are cast to float64 (numpy calls
    ``float()`` on each cell); a column that fails is cast again without its
    missing markers, and if that fails too it is categorical for the whole
    file. A column that fails on the first chunk keeps its strings as
    ``Categories`` from then on; one that fails on a later chunk, whose
    earlier strings are gone, is read again in a second pass over the file.
    With a ``schema`` only its columns are read, and those it has
    categorical are never cast.

    A file of at least ``2 * _PART_BYTES`` bytes is cut into byte ranges
    (see ``_ranges``). The parent parses the first and a forked child each
    other one, through the same chunk loop (``_parse``). It forks rather
    than spawns, which would import numpy again in each child; that is safe
    as a child makes no BLAS call and starts no thread, so it waits on no
    lock the parent's threads may hold. The parent merges the ranges in file
    order: a column numeric in every range is concatenated, one kept as
    ``Categories`` in every range has the later codes remapped into
    first-seen order, and any other is read again as above, so the table is
    that of one pass. The first failing range in file order raises its
    error. Every child is joined before this returns or raises, and is
    ended first on an error or an interrupt; one that ends with no result
    is a ``SeqidsError`` naming its byte range and exit code.
    """
    ranges = _ranges(path)
    start, _, first, lines = ranges[0]
    chunks = _row_chunks(path, start, first, lines)
    header = next(chunks)
    if label_column not in header:
        raise InputError(f"{path}: label column {label_column!r} not found; columns: {header}")
    if len(set(header)) < len(header):
        name = next(name for i, name in enumerate(header) if name in header[:i])
        raise InputError(f"{path}: the header repeats the column name {name!r}")
    if len(header) < 2:
        raise InputError(f"{path}: no feature column besides the label column {label_column!r}")
    label = header.index(label_column)
    features = [i for i in range(len(header)) if i != label]
    kept = [label]   # the columns kept as Categories from the first row on
    if schema is not None:
        where = {header[i]: i for i in features}
        missing = [name for name in schema.feature_names if name not in where]
        if missing:
            raise InputError(f"{path}: no column {missing[0]!r}: the training data had "
                             f"{len(schema.feature_names)} feature columns, this file has "
                             f"{len(features)}")
        features = [where[name] for name in schema.feature_names]
        kept += [where[name] for name in schema.categories]
    floats = [i for i in features if i not in kept]
    children = []
    try:
        for span in ranges[1:]:
            import multiprocessing   # see _parse_in_child
            fork = multiprocessing.get_context("fork")
            reader, writer = fork.Pipe(duplex=False)
            child = fork.Process(target=_parse_in_child, args=(
                reader, writer, path, span, header, floats, kept, schema))
            child.start()
            writer.close()
            children.append((child, reader, span))
        parts = [_parse(chunks, path, header, floats, kept, schema)]
        parts += [_receive(child, reader, path, span) for child, reader, span in children]
    except BaseException:
        for child, _, _ in children:
            child.terminate()
        raise
    finally:
        for child, reader, _ in children:
            child.join()
            reader.close()
    rows = sum(part.rows for part in parts)
    if not rows:
        raise InputError(f"{path}: no data rows")
    numeric, categorical, late = {}, {}, []
    for i in kept + floats:
        if all(i in part.numeric for part in parts):
            numeric[i] = np.concatenate([a for part in parts for a in part.numeric.pop(i)])
        elif all(i in part.categorical for part in parts):
            categorical[i] = parts[0].categorical[i]
            for part in parts[1:]:
                categorical[i].extend(part.categorical[i])
        else:
            late.append(i)
    if late:
        categorical.update(_read_categories(path, late))
    return RawTable(column_names=header, label=label, features=features, row_count=rows,
                    numeric=numeric, categorical=categorical)


def table_to_dataset(table: RawTable, schema: Schema | None = None) -> tuple[Dataset, int]:
    """Numerize a raw table; returns the dataset and the dropped-row count.

    Rows with a missing marker in any column, or a non-finite value in a
    numeric one, are dropped. Categorical columns, and the label, are
    encoded by the kept rows' strings in lexicographic order, or by the
    ``schema``'s vocabularies when given. The float columns are taken out of
    ``table.numeric`` as ``X`` is filled, so a table is numerized once.
    """
    feature_idx = table.features
    feature_names = [table.column_names[i] for i in feature_idx]
    vocabularies = {} if schema is None else schema.categories

    def usable(i):   # per row: is column i's cell neither missing nor non-finite
        if i in table.numeric:
            return np.isfinite(table.numeric[i])  # missing cells are nan here
        return table.categorical[i].present()

    keep = usable(table.label)
    for i in feature_idx:
        keep &= usable(i)
    kept = int(keep.sum())
    if not kept:
        empty = [table.column_names[i] for i in [table.label, *feature_idx]
                 if not usable(i).any()]
        raise InputError("all rows dropped during numerization" + (
            f"; no usable cell in column{'s' * (len(empty) > 1)} "
            f"{', '.join(map(repr, empty))}" if empty else ""))

    # with no row dropped, a column is copied without a [keep] temporary
    X = np.empty((kept, len(feature_idx)))
    categories = {}
    for pos, (i, name) in enumerate(zip(feature_idx, feature_names)):
        if i not in table.numeric:
            encoder, X[:, pos] = _encode(table, i, keep, vocabularies.get(name))
            categories[name] = encoder.class_names
        elif kept == table.row_count:
            X[:, pos] = table.numeric.pop(i)
        else:
            X[:, pos] = table.numeric.pop(i)[keep]
    encoder, y = _encode(table, table.label, keep, None if schema is None else schema.class_names)
    return Dataset(X=X, y=y, encoder=encoder, feature_names=feature_names,
                   categories=categories), table.row_count - kept


def _encode(table: RawTable, i: int, keep: np.ndarray,
            vocabulary: list[str] | None) -> tuple[LabelEncoder, np.ndarray]:
    """``Categories.encode`` of column ``i``, a value outside ``vocabulary``
    an ``InputError`` that names the column and the value."""
    try:
        return table.categorical[i].encode(keep, vocabulary)
    except KeyError as exc:
        raise InputError(f"column {table.column_names[i]!r} holds {exc.args[0]!r}, a value "
                         "the training data did not have") from None


def load_csv(path, label_column: str = "label") -> tuple[Dataset, int]:
    """Read a CSV file with a header row into a numerized dataset.

    Returns the dataset and the count of rows dropped for a missing marker
    or a non-finite number; the module docstring states the full contract
    (dialect, blank lines, markers, column types and memory).
    """
    return table_to_dataset(read_table(path, label_column))


def save_csv(dataset: Dataset, path) -> None:
    """Write ``dataset`` with its feature names as the header and the class
    names in a last column named ``label``, the default ``load_csv`` reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.feature_names + ["label"])
        names = dataset.encoder.decode(dataset.y)
        for row, name in zip(dataset.X, names):
            writer.writerow([repr(float(v)) for v in row] + [name])


def stratified_carve(y: np.ndarray, fraction: float, rng: np.random.Generator,
                     min_first: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded per-class carve of row indices into (first, rest).

    For each class present in ``y`` (non-negative integer labels), in
    increasing order, the class's rows are permuted and the first
    ``min(max(round(fraction * n), min_first), n - 1)`` of its ``n`` rows go
    to the first side, so the rest keeps at least one row.
    """
    first, rest = [], []
    # np.bincount, not np.unique: both give the present classes in order, but
    # np.unique (which imports numpy.ma on first use) added about 5 MB to the
    # peak memory of splitting a 24k-row file
    for c in np.flatnonzero(np.bincount(y)):
        members = rng.permutation(np.flatnonzero(y == c))
        k = min(max(int(round(fraction * members.size)), min_first), members.size - 1)
        first.append(members[:k])
        rest.append(members[k:])
    return np.concatenate(first), np.concatenate(rest)


def train_test_split(d: Dataset, fraction: float, seed: int) -> SplitPair:
    """Seeded stratified split: each class keeps its proportion in both halves."""
    if not 0.0 < fraction < 1.0:
        raise ContractError(f"fraction must be in (0, 1), got {fraction}")
    counts = d.class_counts()
    small = np.flatnonzero(counts < 2)
    if small.size:
        c = small[0]
        raise ContractError(
            f"class {d.encoder.class_names[c]!r} has {counts[c]} sample(s); "
            "stratified split needs at least 2")
    train_idx, test_idx = stratified_carve(d.y, fraction, np.random.default_rng(seed),
                                           min_first=1)

    def subset(idx):
        return replace(d, X=d.X[idx], y=d.y[idx])

    return SplitPair(train=subset(train_idx), test=subset(test_idx), fraction=fraction)


#: rows per block of the SMOTE neighbor search; bounds its memory to
#: about ``_KNN_BLOCK * n`` distances for a class of ``n`` rows
_KNN_BLOCK = 512
#: neighbors each SMOTE base row interpolates towards, the k = 5 of Chawla et al.
_SMOTE_K = 5


def _nearest_neighbors(X: np.ndarray, k: int) -> np.ndarray:
    """(n, k) indices of each row's k nearest other rows, nearest first, by Euclidean distance.

    Squared distances are |a|^2 + |b|^2 - 2ab, computed ``_KNN_BLOCK`` rows
    at a time, so no n x n x F difference array is built. The k smallest of
    each row are selected in linear time and only they are sorted. Ties go
    to the lower row index, both in the order and at the k-th place, so the
    result does not depend on numpy's sort and partition algorithms. A tie
    at the k-th place costs a scan to the k-th lowest-index tied distance,
    not a sort of the row.
    """
    n = X.shape[0]
    sq = np.einsum("ij,ij->i", X, X)
    nn = np.empty((n, k), dtype=np.intp)
    for start in range(0, n, _KNN_BLOCK):
        stop = min(start + _KNN_BLOCK, n)
        d2 = sq[start:stop, None] + sq - 2.0 * (X[start:stop] @ X.T)
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf  # not its own neighbor
        # in index order, so the stable sort below keeps ties lower index first
        near = np.sort(np.argpartition(d2, k - 1, axis=1)[:, :k], axis=1)
        dist = np.take_along_axis(d2, near, axis=1)
        kth = dist.max(axis=1, keepdims=True)
        # where more distances equal the k-th than the partition took, it took
        # among them arbitrarily: put the lowest-index ones in their place
        at, chosen = d2 == kth, dist == kth
        count = chosen.sum(axis=1, keepdims=True)
        tied = np.flatnonzero(np.count_nonzero(at, axis=1) > count[:, 0])
        if tied.size:
            at, count = at[tied], count[tied]
            lowest = np.empty((tied.size, count.max()), dtype=np.intp)
            for j in range(count.max()):   # argmax of bools stops at the first True
                lowest[:, j] = at.argmax(axis=1)
                at[np.arange(tied.size), lowest[:, j]] = False
            sub = near[tied]
            sub[chosen[tied]] = lowest[np.arange(count.max()) < count]
            near[tied] = sub
        nn[start:stop] = np.take_along_axis(near, np.argsort(dist, axis=1, kind="stable"), axis=1)
    return nn


def smote_oversample(train: Dataset, seed: int) -> Dataset:
    """Equalize class counts by interpolating between same-class neighbors.

    Each synthetic row is x + lam * (x_nn - x) for a base sample x, one of
    its ``_SMOTE_K`` nearest same-class neighbors x_nn (Euclidean; fewer in a
    class of ``_SMOTE_K`` rows or less), and lam ~ U[0, 1].
    Original rows are preserved and come first.
    """
    counts = train.class_counts()
    target = counts.max()
    rng = np.random.default_rng(seed)
    n = train.X.shape[0]
    X = np.empty((n + int((target - counts).sum()), train.X.shape[1]))
    y = np.empty(X.shape[0], dtype=train.y.dtype)
    X[:n], y[:n] = train.X, train.y
    for c in np.flatnonzero(counts < target):
        need = int(target - counts[c])
        members = np.flatnonzero(train.y == c)
        if members.size < 2:
            raise ContractError(
                f"class {train.encoder.class_names[c]!r} has one sample; SMOTE needs >= 2")
        Xc = train.X[members]
        k = min(_SMOTE_K, members.size - 1)
        nn_idx = _nearest_neighbors(Xc, k)
        base = rng.integers(0, members.size, size=need)
        pick = nn_idx[base, rng.integers(0, k, size=need)]
        lam = rng.random(need)[:, None]
        synth, x = X[n:n + need], Xc[base]
        np.subtract(Xc[pick], x, out=synth)
        synth *= lam
        synth += x
        del x   # before the next class gathers its own base rows
        y[n:n + need] = c
        n += need
    return replace(train, X=X, y=y)


#: rows per block of ``fit_standardizer``; bounds its buffer to ``_STD_BLOCK`` rows of X
_STD_BLOCK = 2048


@dataclass
class Standardizer:
    mean: np.ndarray
    scale: np.ndarray   # per-feature std with zero-variance floored to 1

    def transform(self, X: np.ndarray) -> np.ndarray:
        out = X - self.mean
        out /= self.scale
        return out


def fit_standardizer(X: np.ndarray) -> Standardizer:
    """Per-feature mean and population std of (N, F) ``X``; a zero std is floored to 1.

    The squared deviations are summed ``_STD_BLOCK`` rows at a time in one
    reused block buffer, so the memory beyond ``X`` is one row block, not
    N x F. The sum runs row by row, carried into the next block through the
    buffer's first row: the order numpy's own axis-0 reduction takes on a
    row-major ``X`` of two or more columns, so there the scale is byte-equal
    to ``X.std(axis=0)``. numpy sums a single column pairwise, so one column
    takes ``X.std`` itself.
    """
    mean = X.mean(axis=0)
    n, f = X.shape
    if f < 2:
        std = X.std(axis=0)
    else:
        buffer = np.empty((min(n, _STD_BLOCK), f), dtype=mean.dtype)
        total = 0.0   # adding +0.0 to a square leaves its bits
        for start in range(0, n, _STD_BLOCK):
            sq = buffer[:min(_STD_BLOCK, n - start)]
            np.subtract(X[start:start + _STD_BLOCK], mean, out=sq)
            sq *= sq
            sq[0] += total
            total = sq.sum(axis=0)
        std = np.sqrt(total / n)
    zero = std == 0.0
    if np.any(zero):
        warnings.warn(f"{int(zero.sum())} zero-variance feature(s) standardized to 0")
        std = np.where(zero, 1.0, std)
    return Standardizer(mean=mean, scale=std)


def reshape_for_model(X: np.ndarray, standardizer: Standardizer) -> np.ndarray:
    """Scale (N, F) features and add the trailing channel axis -> (N, F, 1)."""
    return standardizer.transform(X)[:, :, None]


def synth_dataset(classes: int = 6, features: int = 60, per_class: int = 500,
                  imbalance_profile=None, seed: int = 0, separation: float = 5.0,
                  structure_strength: float = 0.75) -> Dataset:
    """Gaussian class clusters with per-class feature autocorrelation.

    Centroids sit on orthonormal directions scaled so every pair is
    ``2 * separation`` apart in noise-sigma units: ``separation`` is the
    nearest-centroid margin. The noise of class ``c`` is autoregressive at
    lag ``2c + 1`` with coefficient ``structure_strength`` (unit stationary
    variance; 0 gives white noise), so classes differ in
    where along the feature axis their autocorrelation sits. Centroids are
    invisible to that signal and vice versa: temporal layers get
    distribution-level structure, including long-range lags no small
    convolution window can reach. ``imbalance_profile`` scales the
    per-class counts, with at least 2 rows per class.
    """
    if per_class < 2:
        raise ContractError("per_class must be >= 2")
    if classes < 1:
        raise ContractError(f"classes must be >= 1, got {classes}")
    if not (np.isfinite(separation) and separation >= 0):
        raise ContractError(f"separation must be a finite number >= 0, got {separation}")
    if not (np.isfinite(structure_strength) and abs(structure_strength) <= 1):
        raise ContractError(f"structure_strength must be a finite number in [-1, 1], "
                            f"got {structure_strength}")
    if classes > features:
        raise ContractError("synth_dataset needs features >= classes for orthogonal centroids")
    profile = np.ones(classes) if imbalance_profile is None else np.asarray(
        imbalance_profile, dtype=float)
    if profile.size != classes:
        raise ContractError(f"imbalance profile has {profile.size} entries for {classes} classes")
    asked = f"per_class {per_class} with imbalance profile {profile.tolist()}"
    try:
        counts = [max(2, round(per_class * w)) for w in profile.tolist()]
    except OverflowError:  # a row count past the float range
        counts = None
    # numpy indexes an array's bytes with intp, so X's float64 rows are bounded
    max_rows = np.iinfo(np.intp).max // (8 * features)
    if counts is None or sum(counts) > max_rows:
        raise ContractError(f"{asked} asks for more rows than the {max_rows} of "
                            f"{features} float64 features numpy can index")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(features, classes)))
    directions = q.T

    xs, ys = [], []
    try:
        for c, n_c in enumerate(counts):
            centroid = np.sqrt(2.0) * separation * directions[c]
            lag, rho = 2 * c + 1, structure_strength
            white = rng.normal(size=(n_c, features))
            noise = white
            if rho != 0.0 and lag < features:
                noise = white.copy()
                scale = np.sqrt(1.0 - rho ** 2)
                for t in range(lag, features):
                    noise[:, t] = rho * noise[:, t - lag] + scale * white[:, t]
            xs.append(centroid + noise)
            ys.append(np.full(n_c, c, dtype=np.int64))
        X = np.concatenate(xs)
    except MemoryError:
        raise ContractError(f"{asked} asks for {sum(counts)} rows of {features} features, "
                            f"more than fits in memory") from None
    y = np.concatenate(ys)
    encoder = LabelEncoder().fit(f"class{c:02d}" for c in range(classes))
    feature_names = [f"f{i:02d}" for i in range(features)]
    return Dataset(X=X, y=y, encoder=encoder, feature_names=feature_names)
