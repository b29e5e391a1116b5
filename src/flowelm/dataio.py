"""CSV ingestion, model artifact serialization, and synthetic flow generation.

CSV files are UTF-8 with a mandatory header row. A RecordLayout turns the
feature cells of a record into one float row, the same way for training
files, evaluation files and streamed records: cells that fail to parse as
numbers become NaN missing markers for clean() to drop, and a categorical
column (one where no cell parses as a number) expands into one-hot
indicators over its sorted vocabulary, named "column=value".

Model artifacts are a line-oriented text format, version 1, written with 17
significant digits so every float round-trips bit-exactly. See the README
for the field-by-field description. Saves go through a temp file and an
atomic rename, so failures never leave a partial artifact behind.
"""

from __future__ import annotations

import array
import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import elm
from .elm import Activation, ElmModel, ElmParams
from .errors import (
    DataError,
    IntegrityError,
    ParseError,
    SchemaError,
    ShapeError,
    UnsupportedVersionError,
)
from .preprocess import FeatureSelection, FlowDataset, ScalerState, scale_in_place
from .rng import Rng

FORMAT_VERSION = 1
_MAGIC = "flowelm-model"


def format_float(x: float) -> str:
    return "%.17g" % x


@dataclass(frozen=True)
class CsvSchema:
    label_column: str = "Label"
    benign_value: str = "Benign"
    delimiter: str = ","
    exclude_columns: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.label_column:
            raise DataError("label column name must be non-empty")
        if not self.benign_value.strip():  # labels are stripped, and an empty one is rejected
            raise DataError("benign label value must be non-empty")
        if len(self.delimiter) != 1 or not self.delimiter.isprintable():
            raise DataError("delimiter must be a single printable character")
        object.__setattr__(self, "exclude_columns", tuple(self.exclude_columns))
        # the artifact holds each schema value on one line
        broken = [v for v in (self.label_column, self.benign_value, *self.exclude_columns) if "\n" in v]
        if broken:
            raise SchemaError(f"line breaks are not allowed in schema values: {broken}")

    def dropped_positions(self, names) -> list[int]:
        """The positions of a header's cells that are not feature cells, back
        to front: the label column and the excluded columns (names
        stripped). Every other cell is a feature cell."""
        skip = {self.label_column, *self.exclude_columns}
        return [i for i in reversed(range(len(names))) if names[i].strip() in skip]


def _feature_cells(cells: list, dropped) -> list:
    """A record's feature cells: `cells` less those at `dropped`, positions
    back to front, deleted in place. Deleting these few costs less per
    record than building a list of the feature cells. Private, as it runs
    once per record: perfbench's tracer wraps every public function."""
    for i in dropped:
        del cells[i]
    return cells


@dataclass(frozen=True)
class RecordLayout:
    """How the feature cells of one CSV record become one model input row.

    `columns` are the raw feature columns in header order. Per column,
    `vocabularies` holds None for a numeric column, or the sorted values of
    a categorical one, which expands into one indicator per value.
    """

    columns: tuple[str, ...]
    vocabularies: tuple[tuple[str, ...] | None, ...]

    def __post_init__(self):
        reserved = [c for c in self.columns if "=" in c]
        if reserved:
            raise SchemaError(f"'=' is reserved for one-hot feature names; rename column(s) {reserved}")
        # the artifact holds one name per line
        broken = [c for c in self.feature_names if "\n" in c]
        if broken:
            raise SchemaError(f"line breaks are not allowed in column names or category values: {broken}")
        # per column: None, or each category value's indicator tuple
        onehots = tuple(
            None if vocab is None else {v: tuple(float(v == w) for w in vocab) for v in vocab}
            for vocab in self.vocabularies
        )
        object.__setattr__(self, "_onehots", onehots)
        object.__setattr__(self, "_numeric", all(vocab is None for vocab in self.vocabularies))

    @classmethod
    def from_feature_names(cls, names) -> "RecordLayout":
        """The layout behind feature names: runs of "column=value" group into
        one categorical column, any other name is a numeric column."""
        columns, vocabularies = [], []
        for name in names:
            column, is_onehot, value = name.partition("=")
            if not is_onehot:
                columns.append(name)
                vocabularies.append(None)
            elif columns and columns[-1] == column and vocabularies[-1] is not None:
                vocabularies[-1] += (value,)
            else:
                columns.append(column)
                vocabularies.append((value,))
        return cls(tuple(columns), tuple(vocabularies))

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(
            name
            for column, vocab in zip(self.columns, self.vocabularies)
            for name in ([column] if vocab is None else [f"{column}={v}" for v in vocab])
        )

    def decode(self, cells) -> list[float]:
        """One row from a record's feature cells: NaN for an empty or
        unparseable numeric cell, indicators for a known category value.

        Raises ParseError for a category value outside the vocabulary.
        """
        if self._numeric and len(cells) == len(self._onehots):
            # the whole list first: an extend that raised would keep a prefix
            try:
                return list(map(float, cells))
            except ValueError:
                pass  # the per-cell loop below gives that cell NaN
        row = []
        for cell, onehot in zip(cells, self._onehots):
            if onehot is not None:
                try:
                    row.extend(onehot[cell.strip()])
                except KeyError:
                    raise ParseError(f"unknown category value {cell.strip()!r}") from None
                continue
            try:
                row.append(float(cell))
            except ValueError:
                row.append(math.nan)
        return row


# Lines per block that load_csv and score hand to one np.loadtxt call. A
# block that falls back (see _block_parser) is decoded per record, after
# load_csv parses its halves again, so the size changes no result, only
# the time: each call has a fixed cost.
_BLOCK_LINES = 64
# Fewer non-blank lines than this are decoded per record, which costs less
# below it: one 14-cell line took 4-6 us that way against 9 us in the call,
# four lines 15 us against 12 us.
_BLOCK_MIN_LINES = 4
# Characters in a block's label field. A label that fills it may have been
# cut short, so its block is decoded per record.
_LABEL_WIDTH = 64


def _block_parser(layout: RecordLayout, n_cells: int, dropped, delimiter: str, label_pos=None):
    """The block parser of an all-numeric layout's records, or None for a
    layout with a categorical column (or no column), whose records are
    decoded one at a time.

    parse(text) reads `text`, UTF-8 lines separated by "\\n", in one
    np.loadtxt call; a line is blank when it is "" or "\\r", as for
    csv.reader. Its structured dtype has a float per feature cell and a
    string per label or excluded cell, so the C reader converts the cells
    and rejects a line with the wrong cell count. It returns the block's
    feature rows and, with a label position, their stripped labels, or None
    when the block must be decoded per record (csv.reader, then
    RecordLayout.decode), the only source of errors: when it has fewer than
    _BLOCK_MIN_LINES non-blank lines (so no empty block, on which
    np.loadtxt warns, reaches the call); when the text holds a quote (a
    quoted cell may hold the delimiter or a line break), a NUL (a string
    field drops a trailing one) or a line as long as csv's field limit, or
    is not UTF-8; when the call raises (as it does for a carriage return
    inside a line) or gives other than a row per non-blank line; and when
    a label is empty or fills its field. No cell that np.loadtxt accepts
    reads differently in float().
    """
    if not (layout._numeric and layout.columns):
        return None
    m = len(layout.columns)
    names, formats, offsets = [], [], []
    floats, itemsize = 0, 8 * m  # the floats first, so the feature cells are one run per row
    for p in range(n_cells):
        names.append(f"c{p}")
        if p in dropped:
            string = np.dtype(f"U{_LABEL_WIDTH if p == label_pos else 1}")  # an excluded cell is never read
            formats.append(string)
            offsets.append(itemsize)
            itemsize += string.itemsize
        else:
            formats.append(np.float64)
            offsets.append(floats)
            floats += 8
    dtype = np.dtype({"names": names, "formats": formats, "offsets": offsets, "itemsize": itemsize})
    features = np.dtype({"names": ["x"], "formats": [(np.float64, (m,))], "offsets": [0], "itemsize": itemsize})

    def parse(text: bytes):
        # the line count bounds the non-blank lines: a trickle's one-line
        # read goes to the per-record path before any other work
        if text.count(b"\n") + 1 < _BLOCK_MIN_LINES or b'"' in text or b"\0" in text:
            return None
        limit = csv.field_size_limit()
        if len(text) >= limit and max(map(len, text.split(b"\n"))) >= limit:
            return None
        try:
            lines = text.decode("utf-8").split("\n")
        except UnicodeDecodeError:
            return None
        n = len(lines) - lines.count("") - lines.count("\r")  # the reader skips these blank lines too
        if n < _BLOCK_MIN_LINES:
            return None
        try:
            block = np.loadtxt(lines, dtype=dtype, delimiter=delimiter, comments=None, quotechar=None, ndmin=1)
        except ValueError:
            return None
        if len(block) != n:  # the reader skipped or split a line
            return None
        labels = []
        if label_pos is not None:
            cells = block[f"c{label_pos}"].tolist()
            labels = list(map(str.strip, cells))
            if not all(labels) or max(map(len, cells)) == _LABEL_WIDTH:
                return None
        return block.view(features)["x"], labels

    return parse


def record_cells(line: bytes, delimiter: str) -> list[str] | str:
    """The cells of one record line, by the CSV rules load_csv reads files
    with; [] for a blank line, or the reason a line cannot be read."""
    try:
        return next(csv.reader((line.decode("utf-8"),), delimiter=delimiter), [])
    except csv.Error as exc:
        if str(exc).startswith("field larger than field limit"):
            return f"field longer than the csv field limit of {csv.field_size_limit()} characters"
        return "not a UTF-8 CSV record"
    except UnicodeDecodeError:
        return "not a UTF-8 CSV record"


def _read_rows(lines, path, delimiter, before: int = 0):
    """Yield (line number, cells) for each non-blank row of UTF-8 CSV lines
    (bytes: a file open in binary mode, from its current position, or a
    list), numbered from line `before` + 1."""
    reader = csv.reader((line.decode("utf-8") for line in lines), delimiter=delimiter)
    try:
        for row in reader:
            if row:
                yield before + reader.line_num, row
    except UnicodeDecodeError:
        raise ParseError(f"{path}:{before + reader.line_num + 1}: not UTF-8 text") from None
    except csv.Error as exc:
        raise ParseError(f"{path}:{before + reader.line_num}: {exc}") from None


def _infer_layout(rows, n_cells, dropped, columns) -> RecordLayout:
    """Categorical columns are those where no non-empty cell parses as a
    number; reading stops once every column has shown a number."""
    seen = {j: set() for j in range(len(columns))}  # still categorical: values so far
    for _, row in rows:
        if not seen:
            break
        if len(row) != n_cells:
            continue  # the decoding pass reports it
        cells = _feature_cells(row, dropped)
        for j in list(seen):
            text = cells[j].strip()
            if not text or text in seen[j]:
                continue
            try:
                float(text)
                del seen[j]
            except ValueError:
                seen[j].add(text)
    return RecordLayout(
        columns, tuple(tuple(sorted(seen[j])) if seen.get(j) else None for j in range(len(columns)))
    )


def _decoding_pass(fh, path, schema: CsvSchema, layout: RecordLayout | None, chunk_rows=math.inf):
    """Read a labeled CSV file open in binary mode. Yields its layout (the
    given one, or one inferred in a first pass, after which the file is
    rewound, so it must be seekable), then its rows as (features, labels)
    chunks. The rows fill one buffer of each, handed out whole, as arrays
    over them, once they hold chunk_rows rows or more, and fresh buffers
    follow; as a parsed block adds its rows at once, a chunk may hold up
    to _BLOCK_LINES - 1 more. The last chunk holds the rest: without a
    chunk_rows it is the only one.

    A label is 0 if it is the benign value (ignoring case and surrounding
    whitespace), 1 otherwise. With a given layout, the header's feature
    columns must match it, and a row with an unknown category value becomes
    a row of NaN markers. An all-numeric layout's rows are parsed
    _BLOCK_LINES lines at a time (see _block_parser and parse_runs); from
    the first block that holds a quote on, the rest of the file is decoded
    per record. A file without data rows is a DataError.
    """
    records = _read_rows(fh, path, schema.delimiter)
    line_no, header = next(records, (0, None))
    if header is None:
        raise DataError(f"{path}: file is empty")
    header = [h.strip() for h in header]
    if schema.label_column not in header:
        raise SchemaError(
            f"{path}: no {schema.label_column!r} column; header columns: {header}"
        )
    if header.count(schema.label_column) > 1:
        raise SchemaError(
            f"{path}: the {schema.label_column!r} column is named more than once;"
            f" header columns: {header}"
        )
    label_pos = header.index(schema.label_column)
    dropped = schema.dropped_positions(header)
    columns = tuple(_feature_cells(list(header), dropped))
    if layout is None:
        layout = _infer_layout(records, len(header), dropped, columns)
        try:
            fh.seek(0)
        except OSError:
            raise DataError(f"{path}: cannot rewind the input; it must be a regular file") from None
        records = _read_rows(fh, path, schema.delimiter)
        next(records)
    elif layout.columns != columns:
        raise DataError(
            f"{path}: feature columns do not match the model\n"
            f"  model: {list(layout.columns)}\n  input: {list(columns)}"
        )
    yield layout
    missing = [math.nan] * len(layout.feature_names)
    benign = schema.benign_value.strip().lower()
    values, labels = array.array("d"), bytearray()  # the chunk being filled
    taken = False  # whether a chunk has been handed out

    def take():
        """The chunk being filled, as arrays over its buffers; fresh ones follow."""
        nonlocal values, labels, taken
        chunk = np.frombuffer(values).reshape(len(labels), len(missing)), np.frombuffer(labels, dtype=np.uint8)
        values, labels, taken = array.array("d"), bytearray(), True
        return chunk

    def decode_rows(records):
        for line_no, row in records:
            if len(row) != len(header):
                raise ParseError(f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}")
            label = row[label_pos].strip()
            if not label:
                raise ParseError(f"{path}:{line_no}: empty traffic category")
            try:
                values.extend(layout.decode(_feature_cells(row, dropped)))
            except ParseError:
                values.extend(missing)
            labels.append(label.lower() != benign)
            if len(labels) >= chunk_rows:
                yield take()

    def parse_runs(lines, line_no):
        """The rows of `lines`, a block that holds no quote and follows line
        `line_no`: parsed at once, or else each half in turn, halved while
        the parser falls back on at least 2 * _BLOCK_MIN_LINES lines."""
        block = parse(b"".join(lines))
        if block is None and len(lines) >= 2 * _BLOCK_MIN_LINES:
            half = len(lines) // 2
            yield from parse_runs(lines[:half], line_no)
            yield from parse_runs(lines[half:], line_no + half)
        elif block is None:
            yield from decode_rows(_read_rows(lines, path, schema.delimiter, line_no))
        else:
            values.frombytes(block[0].tobytes())
            labels.extend(map(benign.__ne__, map(str.lower, block[1])))
            if len(labels) >= chunk_rows:
                yield take()

    parse = _block_parser(layout, len(header), dropped, schema.delimiter, label_pos)
    if parse is None:
        yield from decode_rows(records)
    else:  # `records` has read no further than the header, so the blocks start after it
        while lines := [line for _, line in zip(range(_BLOCK_LINES), fh)]:
            if b'"' in b"".join(lines):  # a quoted cell may hold a line break: csv.reader reads the rest
                yield from decode_rows(_read_rows((line for part in (lines, fh) for line in part),
                                                  path, schema.delimiter, line_no))
                break
            yield from parse_runs(lines, line_no)
            line_no += len(lines)
    if labels:
        yield take()
    elif not taken:
        raise DataError(f"{path}: no data rows")


def load_csv(path, schema: CsvSchema = CsvSchema(), layout: RecordLayout | None = None) -> FlowDataset:
    """Parse a labeled flow CSV into a dataset (may still contain NaN
    markers), by the rules of _decoding_pass: the dataset holds the pass's
    one chunk, the whole file, as it is."""
    with open(path, "rb") as fh:
        chunks = _decoding_pass(fh, path, schema, layout)
        layout = next(chunks)
        ((features, labels),) = chunks
    return FlowDataset._adopt(features, labels=labels, feature_names=layout.feature_names, source=str(path))


def load_csv_chunks(path, schema: CsvSchema, layout: RecordLayout):
    """load_csv's rows without its array: a generator of (features, labels)
    chunks, read from the file as they are asked for. Every chunk but the
    last holds at least elm._SCORE_ROWS rows and fewer than
    elm._SCORE_ROWS + _BLOCK_LINES. The file is read once, front to back,
    so it may be a pipe."""
    with open(path, "rb") as fh:
        chunks = _decoding_pass(fh, path, schema, layout, elm._SCORE_ROWS)
        next(chunks)
        yield from chunks


def write_csv(dataset: FlowDataset, path, schema: CsvSchema = CsvSchema()) -> None:
    """Write a dataset as a labeled CSV readable by load_csv."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=schema.delimiter, lineterminator="\n")
        writer.writerow(list(dataset.feature_names) + [schema.label_column])
        for i in range(dataset.n_samples):
            if dataset.categories is not None:
                label = dataset.categories[i]
            else:
                label = schema.benign_value if dataset.labels[i] == 0 else "Attack"
            writer.writerow(
                [format_float(v) for v in dataset.features[i]] + [label]
            )


def fingerprint(dataset: FlowDataset) -> str:
    """Content hash of the numeric payload (features plus labels), read
    from the arrays' own memory: SHA-256 from the interpreter's built-in
    module, so no command loads OpenSSL."""
    # Imported here, not at the top: evaluate and score hash nothing.
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            # an interpreter built without its own hash modules has only
            # OpenSSL's, through hashlib (about 3.6 MB resident)
            from hashlib import sha256

    digest = sha256()
    digest.update(memoryview(np.ascontiguousarray(dataset.features)))
    digest.update(b"|")
    digest.update(memoryview(np.ascontiguousarray(dataset.labels)))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# model artifact (format version 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ModelArtifact:
    """Trained model plus everything needed to score raw CSV records."""

    model: ElmModel
    selection: FeatureSelection
    scaler: ScalerState
    schema: CsvSchema
    feature_names: tuple[str, ...]  # ingested feature order, pre-selection
    seed: int
    fingerprint: str = ""
    source: str = ""

    layout: RecordLayout = field(init=False, repr=False)  # from feature_names

    def __post_init__(self):
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "layout", RecordLayout.from_feature_names(self.feature_names))
        n_original = len(self.feature_names)
        kept = self.selection.kept_indices
        if len(self.selection.correlations) != n_original:
            raise IntegrityError("one correlation per original feature is required")
        if any(not 0 <= i < n_original for i in kept):
            raise IntegrityError("selection indices out of range")
        if len(set(kept)) != len(kept) or tuple(sorted(kept)) != kept:
            raise IntegrityError("selection indices must be sorted and unique")
        if self.scaler.means.shape[0] != len(kept):
            raise IntegrityError("scaler width must match the selected feature count")
        if self.model.n_features != len(kept):
            raise IntegrityError("model width must match the selected feature count")
        object.__setattr__(self, "_kept", np.asarray(kept, dtype=np.intp))
        # The largest scaled magnitude at which no value elm.score computes
        # from a row can overflow, whatever the activation. For k kept
        # columns of at most this magnitude, input weights of at most w and
        # an RBF width gamma, gamma * ||x||^2 (in the RBF distance) is at
        # most float max / 16, and x @ w and the sum of a scoring block's
        # values are at most elm._SCORE_ROWS * sqrt(k * float max).
        w = max(1.0, float(np.abs(self.model.input_weights).max()))
        gamma = max(1.0, self.model.params.rbf_gamma)
        limit = math.sqrt(np.finfo(np.float64).max / (len(kept) * gamma)) / (4.0 * w)
        object.__setattr__(self, "_limit", limit)
        # A sum of squares of decoded values below this square proves every
        # value finite and within `bound`, so a kept one scales to at most
        # (bound + |mean|) / std <= limit / 2, rounding included.
        bound = min(1e150, float(np.min(limit / 2 * self.scaler.stds - np.abs(self.scaler.means))))
        object.__setattr__(self, "_clean_squares", bound * bound if bound > 0 else -1.0)

    def transform(self, features) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Model input from decoded rows (2-D, or end to end in a flat
        buffer), failing closed: (x, rows, finite).

        `finite` marks, per decoded row, that every decoded column is finite,
        those the model dropped included. `x` holds the kept columns of the
        finite rows, taken in one copy and z-scored in place, less any row
        with a scaled value that overflows, or that is large enough for the
        model's hidden layer to overflow; `rows` are the indices of the rows
        in `x`. A row not in `rows` is never scored.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:  # decoded rows end to end, as score gathers them
            features = features.reshape(-1, len(self.feature_names))
        if np.vdot(features, features) < self._clean_squares:  # no row mask and no screen needed
            x = scale_in_place(self.scaler, features.take(self._kept, axis=1))
            return x, np.arange(len(features)), np.ones(len(features), dtype=bool)
        finite = np.isfinite(features).all(axis=1)
        rows = np.flatnonzero(finite)
        x = features[rows[:, None], self._kept]
        with np.errstate(over="ignore"):
            scale_in_place(self.scaler, x)
        # one screen of every row, and a per-row mask only when it fails
        if x.size and not max(x.max(), -x.min()) <= self._limit:
            in_range = (np.abs(x) <= self._limit).all(axis=1)
            x, rows = x[in_range], rows[in_range]
        return x, rows, finite


def _floats_text(values) -> str:
    return " ".join(format_float(v) for v in values)


# The v1 header: after the version line, one "key=value" line per entry, in
# this order. save_model writes each value with its getter; load_model reads
# the lines back by key. Then come a "feature=NAME" line per ingested
# feature, a "matrix.KEY=ROWS COLS" line and its rows per _MATRICES key, and
# an "end" line.
_HEADER = (
    ("schema.label_column", lambda a: a.schema.label_column),
    ("schema.benign_value", lambda a: a.schema.benign_value),
    ("schema.delimiter", lambda a: a.schema.delimiter),
    ("schema.exclude_columns", lambda a: ",".join(a.schema.exclude_columns)),
    ("meta.seed", lambda a: a.seed),
    ("meta.source", lambda a: a.source.replace("\n", " ")),
    ("meta.fingerprint", lambda a: a.fingerprint),
    ("selection.n_original", lambda a: len(a.feature_names)),
    ("selection.kept", lambda a: " ".join(map(str, a.selection.kept_indices))),
    ("selection.correlations", lambda a: _floats_text(a.selection.correlations)),
    ("scaler.means", lambda a: _floats_text(a.scaler.means)),
    ("scaler.stds", lambda a: _floats_text(a.scaler.stds)),
    ("elm.hidden_nodes", lambda a: a.model.params.hidden_nodes),
    ("elm.activation", lambda a: a.model.params.activation.value),
    ("elm.rbf_gamma", lambda a: format_float(a.model.params.rbf_gamma)),
    ("elm.seed", lambda a: a.model.params.seed),
    ("elm.n_features", lambda a: a.model.n_features),
)
_MATRICES = ("input_weights", "biases", "output_weights")


def save_model(artifact: ModelArtifact, path) -> None:
    """Serialize to the versioned text format, atomically."""
    lines = [f"{_MAGIC} v{FORMAT_VERSION}"]
    lines += [f"{key}={value(artifact)}" for key, value in _HEADER]
    lines += [f"feature={name}" for name in artifact.feature_names]
    for key in _MATRICES:
        matrix = getattr(artifact.model, key)
        lines.append(f"matrix.{key}={matrix.shape[0]} {matrix.shape[1]}")
        lines += [_floats_text(row) for row in matrix]
    lines.append("end")
    write_atomic(path, "\n".join(lines) + "\n")


def write_atomic(path, text: str) -> None:
    """Write UTF-8 text through a temp file renamed into place, so a failure
    never leaves a partial file behind. The file gets the mode open(path, "w")
    gives a new file, 0o666 less the umask. An OSError names path, not the
    temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".flowelm-tmp-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


def load_model(path) -> ModelArtifact:
    """Parse and validate an artifact. Raises UnsupportedVersionError for
    another format version, and IntegrityError for any other bad file:
    truncated, out of order, malformed or inconsistent."""
    with open(path, "rb") as fh:
        data = fh.read()

    def value(key: str) -> str:
        line = next(lines, None)
        if line is None:
            raise IntegrityError("truncated artifact")
        if not line.startswith(key + "="):
            raise IntegrityError(f"expected {key!r}, found {line[:80]!r}")
        return line[len(key) + 1 :]

    try:
        # "\n" is the only line break save_model writes; a feature name may
        # hold any other character that str.splitlines() would break at
        lines = iter(data.decode("utf-8").split("\n"))
        magic = next(lines)
        if not magic.startswith(_MAGIC + " v"):
            raise IntegrityError("not a flowelm model file")
        version = int(magic[len(_MAGIC) + 2 :])
        if version != FORMAT_VERSION:
            raise UnsupportedVersionError(
                f"{path}: artifact format v{version} not supported (expected v{FORMAT_VERSION})"
            )
        header = {key: value(key) for key, _ in _HEADER}
        feature_names = [value("feature") for _ in range(int(header["selection.n_original"]))]
        matrices = {}
        for key in _MATRICES:
            rows, cols = map(int, value(f"matrix.{key}").split())
            # the row lines read, so a wrong dimension line allocates nothing
            block = [line.split() for _, line in zip(range(rows), lines)]
            if len(block) != rows or any(len(row) != cols for row in block):
                raise IntegrityError(f"matrix.{key} does not hold {rows} rows of {cols} values")
            matrices[key] = np.array(block, dtype=np.float64)
        if next(lines, None) != "end":
            raise IntegrityError("missing end marker")

        def floats(key):
            return np.array(header[key].split(), dtype=np.float64)

        params = ElmParams(
            hidden_nodes=int(header["elm.hidden_nodes"]),
            activation=Activation.from_name(header["elm.activation"]),
            seed=int(header["elm.seed"]),
            rbf_gamma=float(header["elm.rbf_gamma"]),
        )
        return ModelArtifact(
            model=ElmModel(params=params, n_features=int(header["elm.n_features"]), **matrices),
            selection=FeatureSelection(
                kept_indices=tuple(map(int, header["selection.kept"].split())),
                correlations=floats("selection.correlations"),
            ),
            scaler=ScalerState(means=floats("scaler.means"), stds=floats("scaler.stds")),
            schema=CsvSchema(
                label_column=header["schema.label_column"],
                benign_value=header["schema.benign_value"],
                delimiter=header["schema.delimiter"],
                exclude_columns=tuple(c for c in header["schema.exclude_columns"].split(",") if c),
            ),
            feature_names=feature_names,
            seed=int(header["meta.seed"]),
            fingerprint=header["meta.fingerprint"],
            source=header["meta.source"],
        )
    except UnsupportedVersionError:
        raise
    except ValueError as exc:  # DataError, ShapeError and IntegrityError included
        raise IntegrityError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# synthetic flow generator
# ---------------------------------------------------------------------------

ATTACK_CATEGORIES = ("DDoS", "DoS", "Recon", "Spoofing", "MQTT")

# (name, benign mean, benign std, lower clip, upper clip). The request-rate
# feature is first so it survives any n_features truncation; every attack
# category shifts it by at least +4 benign sigmas, which keeps the two
# classes at least 3 pooled standard deviations apart for any category mix.
_FEATURES = (
    ("conn_request_rate", 4.0, 1.5, 0.0, math.inf),
    ("packet_size_mean", 520.0, 180.0, 1.0, math.inf),
    ("inter_arrival_ms", 120.0, 40.0, 0.0, math.inf),
    ("distinct_ports", 3.0, 1.2, 0.0, math.inf),
    ("mqtt_publish_rate", 1.5, 0.6, 0.0, math.inf),
    ("addr_consistency", 0.97, 0.01, 0.0, 1.0),
    ("port_entropy", 0.9, 0.35, 0.0, math.inf),
    ("flow_duration_s", 8.0, 3.0, 0.0, math.inf),
    ("packet_size_std", 90.0, 30.0, 0.0, math.inf),
    ("inter_arrival_jitter", 25.0, 8.0, 0.0, math.inf),
)

# mean shifts per category, in units of the benign std
_SHIFTS = {
    "DDoS": {
        "conn_request_rate": 6.0,
        "inter_arrival_ms": -2.5,
        "packet_size_std": 2.0,
        "flow_duration_s": -1.5,
    },
    "DoS": {
        "conn_request_rate": 6.0,
        "inter_arrival_ms": -2.0,
        "packet_size_mean": -1.5,
    },
    "Recon": {
        "conn_request_rate": 4.0,
        "distinct_ports": 6.0,
        "port_entropy": 4.0,
    },
    "Spoofing": {
        "conn_request_rate": 4.0,
        "addr_consistency": -8.0,
        "inter_arrival_jitter": 2.0,
    },
    "MQTT": {
        "conn_request_rate": 4.0,
        "mqtt_publish_rate": 6.0,
        "packet_size_mean": 1.0,
    },
}

_TCP_PROBABILITY = {"benign": 0.7, "DDoS": 0.45, "DoS": 0.45, "Recon": 0.6, "Spoofing": 0.6, "MQTT": 0.6}


def _default_mix() -> dict[str, float]:
    return {name: 1.0 / len(ATTACK_CATEGORIES) for name in ATTACK_CATEGORIES}


@dataclass(frozen=True, eq=False)
class SyntheticSpec:
    n_benign: int = 2000
    n_attack: int = 2000
    attack_mix: dict[str, float] = field(default_factory=_default_mix)
    seed: int = 7
    n_features: int = 12

    def __post_init__(self):
        if self.n_benign < 0 or self.n_attack < 0:
            raise DataError("sample counts must be non-negative")
        if self.n_benign + self.n_attack < 2:
            raise DataError("generator needs at least 2 samples in total")
        if self.n_features < 1:
            raise DataError("n_features must be >= 1")
        mix = dict(self.attack_mix)
        unknown = sorted(set(mix) - set(ATTACK_CATEGORIES))
        if unknown:
            raise DataError(f"invalid attack mix: unknown categories {unknown}")
        if not all(math.isfinite(w) and w >= 0 for w in mix.values()):
            raise DataError("invalid attack mix: weights must be finite and non-negative")
        if abs(sum(mix.values()) - 1.0) > 1e-9:
            raise DataError("invalid attack mix: weights must sum to 1")
        object.__setattr__(self, "attack_mix", mix)


def _category_counts(spec: SyntheticSpec) -> list[tuple[str, int]]:
    # largest-remainder apportionment in fixed category order
    quotas = [
        (name, spec.attack_mix.get(name, 0.0) * spec.n_attack)
        for name in ATTACK_CATEGORIES
    ]
    counts = {name: int(math.floor(quota)) for name, quota in quotas}
    leftover = spec.n_attack - sum(counts.values())
    remainders = sorted(
        quotas, key=lambda item: (-(item[1] - math.floor(item[1])), ATTACK_CATEGORIES.index(item[0]))
    )
    for name, _ in remainders[:leftover]:
        counts[name] += 1
    return [(name, counts[name]) for name in ATTACK_CATEGORIES]


def generate_synthetic(spec: SyntheticSpec = SyntheticSpec()) -> FlowDataset:
    """Deterministic labeled flows: a benign baseline plus shifted attack rows.

    Rows come out benign block first, then attack categories in fixed
    order. Each row is drawn from one seeded stream, column by column: the
    clipped Gaussian features, then proto_tcp (proto_udp is its
    complement), then standard-normal noise columns; n_features keeps a
    prefix of that list, and only kept columns draw.
    """
    n = spec.n_features
    gauss = _FEATURES[:n]
    names = [f[0] for f in _FEATURES] + ["proto_tcp", "proto_udp"]
    names = (names + [f"noise_{k}" for k in range(n - len(names))])[:n]
    rng = Rng(spec.seed)
    rows = []
    categories = []
    for category, count in [("Benign", spec.n_benign)] + _category_counts(spec):
        shifts = _SHIFTS.get(category, {})
        p_tcp = _TCP_PROBABILITY["benign" if category == "Benign" else category]
        for _ in range(count):
            row = [
                min(high, max(low, rng.normal(mean + shifts.get(name, 0.0) * std, std)))
                for name, mean, std, low, high in gauss
            ]
            if n > len(row):
                tcp = 1.0 if rng.random() < p_tcp else 0.0
                row += [tcp, 1.0 - tcp][: n - len(row)]
            row += [rng.normal() for _ in range(n - len(row))]
            rows.append(row)
            categories.append(category)

    features = np.array(rows, dtype=np.float64).reshape(-1, n)
    labels = np.array([0 if c == "Benign" else 1 for c in categories], dtype=np.int64)
    mix_text = ",".join(
        f"{name}:{format_float(weight)}" for name, weight in sorted(spec.attack_mix.items())
    )
    source = (
        f"synthetic(seed={spec.seed}, benign={spec.n_benign}, "
        f"attack={spec.n_attack}, mix={mix_text})"
    )
    return FlowDataset(
        features=features,
        labels=labels,
        feature_names=tuple(names),
        source=source,
        categories=tuple(categories),
    )
