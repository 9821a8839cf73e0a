"""Dataset model and CSV ingestion.

A dataset is an immutable table of m transactions: categorical columns are
stored integer-coded (codes assigned in first-appearance order, with the
original strings kept for reporting), continuous columns as float64, and the
binary target as a 0/1 vector.  Instances are safe for concurrent shared
reads.

`load_csv` streams a file into those codes a block of rows at a time: it
holds each column's distinct values and codes, never the rows themselves.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from itertools import filterfalse, islice

import numpy as np

from .errors import IngestionError, SchemaError


class Kind(str, Enum):
    CATEGORICAL = "categorical"
    CONTINUOUS = "continuous"
    TARGET = "target"


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: Kind


# A column is inferred continuous only when every value parses as a real
# number and the column has more than this many distinct values; low-arity
# integer columns (grades, counts) behave like categories in practice.
INFER_DISTINCT_THRESHOLD = 12

# rows `load_csv` reads and codes at a time, and rows `to_csv` turns into
# strings and writes at a time
READ_ROWS = 512
TO_CSV_ROWS = 1024


def _cast(values, dtype) -> tuple[np.ndarray, bool]:
    """`values` as a contiguous array of `dtype`, and whether the cast kept
    every value; a cast that is safe from the values' dtype is not checked."""
    src = np.asarray(values)
    with np.errstate(invalid="ignore"):  # NaN: refused below
        arr = np.ascontiguousarray(src, dtype=dtype)
    return arr, np.can_cast(src.dtype, dtype) or np.array_equal(arr, src)


class LabelVector:
    """A binary vector of length m: observed targets or one resample.

    `bits` is a read-only 0/1 uint8 array; two vectors are equal when their
    bits are.
    """

    __slots__ = ("bits", "m", "ones")

    def __init__(self, bits) -> None:
        arr, exact = _cast(bits, np.uint8)
        if arr.ndim != 1:
            raise ValueError("labels must be 1-d")
        if not exact or arr.size and arr.max() > 1:
            raise ValueError("labels must be 0/1")
        self.bits = arr
        self.bits.setflags(write=False)
        self.m = int(arr.size)
        self.ones = int(arr.sum())

    def mean(self) -> float:
        return self.ones / self.m

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelVector) and np.array_equal(self.bits, other.bits)

    def __hash__(self) -> int:
        return hash(self.bits.tobytes())

    def __repr__(self) -> str:
        return f"LabelVector(m={self.m}, ones={self.ones})"


class Dataset:
    """Immutable feature matrix plus binary target.

    `schema` lists the feature columns only (CSV order, target removed),
    at least one; `values[i]` is the i-th feature column: int32 codes for
    categorical columns, float64 for continuous ones.
    """

    def __init__(
        self,
        schema: list[ColumnSchema],
        values: list[np.ndarray],
        target: LabelVector,
        cat_values: dict[int, list[str]] | None = None,
        target_name: str = "target",
    ) -> None:
        names = [c.name for c in schema] + [target_name]
        if len(set(names)) != len(names) or any(not n for n in names):
            raise SchemaError("column names must be unique and non-empty")
        if len(schema) != len(values):
            raise SchemaError("schema/values length mismatch")
        if not schema:
            raise SchemaError("dataset needs at least one feature column")
        m = target.m
        if m < 1:
            raise SchemaError("dataset needs at least one transaction")
        self.schema = list(schema)
        self.values: list[np.ndarray] = []
        self.cat_values = dict(cat_values or {})
        for i, (col, arr) in enumerate(zip(schema, values)):
            if col.kind is Kind.CATEGORICAL:
                a, exact = _cast(arr, np.int32)
                if not exact:
                    raise SchemaError(f"column '{col.name}' has codes that are not int32 integers")
            elif col.kind is Kind.CONTINUOUS:
                a = np.ascontiguousarray(arr, dtype=np.float64)
                if not np.all(np.isfinite(a)):
                    raise SchemaError(f"column '{col.name}' contains non-finite values")
            else:
                raise SchemaError("feature schema must not contain a target column")
            if a.size != m:
                raise SchemaError(f"column '{col.name}' has length {a.size}, expected {m}")
            a.setflags(write=False)
            self.values.append(a)
        self.target = target
        self.target_name = target_name
        self.m = m

    @property
    def n_features(self) -> int:
        return len(self.schema)

    def mean_target(self) -> float:
        return self.target.mean()

    def decode(self, column: int, code: int) -> str:
        """Original string for a categorical code (falls back to the code)."""
        vals = self.cat_values.get(column)
        if vals is not None and 0 <= code < len(vals):
            return vals[code]
        return str(code)


def _reals(values) -> np.ndarray | None:
    """`values` as float64, or None when one of them is not a finite real."""
    try:
        arr = np.fromiter(map(float, values), np.float64, len(values))
    except ValueError:
        return None
    return arr if np.isfinite(arr).all() else None


def read_schema_file(path) -> list[ColumnSchema]:
    """Sidecar schema: one `name=kind` line per column, in column order."""
    out = []
    with open(path, encoding="utf-8-sig") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SchemaError(f"schema line {lineno}: expected name=kind, got {line!r}")
        name, _, kind = line.partition("=")
        try:
            out.append(ColumnSchema(name.strip(), Kind(kind.strip())))
        except ValueError:
            raise SchemaError(f"schema line {lineno}: unknown kind {kind.strip()!r}") from None
    return out


def _infer_schema(header: list[str], reals: dict[int, np.ndarray | None]) -> list[ColumnSchema]:
    """The last column is the target; `reals[j]` is `_reals` of column j's
    distinct values, for each column with more than INFER_DISTINCT_THRESHOLD
    of them."""
    out = []
    for j, name in enumerate(header):
        if j == len(header) - 1:
            out.append(ColumnSchema(name, Kind.TARGET))
        elif reals.get(j) is not None:
            out.append(ColumnSchema(name, Kind.CONTINUOUS))
        else:
            out.append(ColumnSchema(name, Kind.CATEGORICAL))
    return out


def _read_codes(path, reader, width: int) -> tuple[list[dict], list[np.ndarray]]:
    """Each column's distinct values, mapped to codes in first-appearance
    order, and its int32 codes, read READ_ROWS rows at a time.

    The first error in the file is raised: an empty cell, or a row of the
    wrong width; no row after it is read, and the error names the file line
    where that row starts (`_line_of`)."""
    distinct: list[dict] = [{} for _ in range(width)]
    chunks: list[list[np.ndarray]] = [[] for _ in range(width)]
    m = 0
    while block := list(islice(reader, READ_ROWS)):
        ragged = next((i for i, row in enumerate(block) if len(row) != width), len(block))
        rows = block[:ragged]
        empty = False
        for index, chunk, cells in zip(distinct, chunks, zip(*rows)):
            new = list(filterfalse(index.__contains__, dict.fromkeys(cells)))
            if new:
                empty = empty or any(not v.strip() for v in new)
                index.update(zip(new, range(len(index), len(index) + len(new))))
            chunk.append(np.fromiter(map(index.__getitem__, cells), np.int32, len(rows)))
        if empty:
            i = next(i for i, row in enumerate(rows) if any(not cell.strip() for cell in row))
            raise IngestionError(f"{path}: line {_line_of(path, m + i)} has an empty cell")
        if ragged < len(block):
            raise IngestionError(
                f"{path}: line {_line_of(path, m + ragged)} has {len(block[ragged])} values, "
                f"expected {width}"
            )
        m += len(rows)
    if not m:
        raise IngestionError(f"{path}: no data rows")
    codes = []
    for chunk in chunks:  # each column's blocks are freed once joined
        codes.append(np.concatenate(chunk))
        chunk.clear()
    return distinct, codes


def _line_of(path, row: int) -> int:
    """The file line where data row `row` (from 0) starts.  A quoted cell
    may hold newlines, so rows and lines differ; the file is read again up
    to that row, which is done only to word an error."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for _ in islice(reader, row + 1):  # the header and the rows before
            pass
        return reader.line_num + 1


def _first_line(path, codes: np.ndarray, bad: list[bool]) -> tuple[int, int]:
    """File line and code of the first cell whose value is bad: codes count
    values in first-appearance order, so that is the lowest bad code's first
    cell."""
    code = bad.index(True)
    return _line_of(path, int(np.argmax(codes == code))), code


def load_csv(path, schema="infer") -> Dataset:
    """Load a comma-separated UTF-8 file with a header row; a leading
    byte-order mark is dropped.

    `schema` is a list of ColumnSchema covering every CSV column (exactly one
    of kind target), the string "infer", or a path to a sidecar schema file.
    Under inference the last column is the target; a declared schema must
    name the header's columns in order, whitespace stripped.  Rows with
    empty cells are rejected rather than imputed.

    The file is read READ_ROWS rows at a time into each column's int32
    codes of its distinct values, so no list of rows is ever held.  Every
    check and conversion then works on the distinct values, each parsed at
    most once; a continuous column's values and the target bits index an
    array of them with the codes.  Text that is not UTF-8, or that the csv
    module refuses, raises IngestionError.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise IngestionError(f"{path}: empty file")
            distinct, codes = _read_codes(path, reader, len(header))
        except UnicodeDecodeError as exc:
            raise IngestionError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise IngestionError(f"{path}: line {reader.line_num}: {exc}") from None

    reals: dict[int, np.ndarray | None] = {}
    if isinstance(schema, str):
        if schema == "infer":
            reals = {
                j: _reals(values)
                for j, values in enumerate(distinct)
                if len(values) > INFER_DISTINCT_THRESHOLD
            }
            cols = _infer_schema(header, reals)
        else:
            cols = read_schema_file(schema)
    else:
        cols = list(schema)
    if len(cols) != len(header):
        raise SchemaError(f"schema has {len(cols)} columns, file has {len(header)}")
    for j, (col, name) in enumerate(zip(cols, header)):
        if col.name.strip() != name.strip():
            raise SchemaError(f"schema column {j + 1} is {col.name!r}, file header has {name!r}")
    targets = [i for i, c in enumerate(cols) if c.kind is Kind.TARGET]
    if len(targets) != 1:
        raise SchemaError(f"schema must declare exactly one target column, found {len(targets)}")
    tcol = targets[0]

    bits = [v.strip() for v in distinct[tcol]]
    bad = [b not in ("0", "1") for b in bits]
    if any(bad):
        lineno, code = _first_line(path, codes[tcol], bad)
        raise SchemaError(f"{path}: line {lineno}: target value {bits[code]!r} is not in {{0,1}}")
    target_bits = np.array([b == "1" for b in bits], np.uint8)[codes[tcol]]

    feat_schema: list[ColumnSchema] = []
    feat_values: list[np.ndarray] = []
    cat_values: dict[int, list[str]] = {}
    for j, col in enumerate(cols):
        if col.kind is Kind.TARGET:
            continue
        values = list(distinct[j])
        if col.kind is Kind.CONTINUOUS:
            parsed = reals[j] if j in reals else _reals(values)
            if parsed is None:
                lineno, code = _first_line(path, codes[j], [_reals([v]) is None for v in values])
                raise SchemaError(
                    f"{path}: line {lineno}: non-numeric value {values[code]!r} "
                    f"in continuous column '{col.name}'"
                )
            feat_values.append(parsed[codes[j]])
        else:
            cat_values[len(feat_schema)] = values
            feat_values.append(codes[j])
        feat_schema.append(ColumnSchema(col.name, col.kind))

    return Dataset(
        feat_schema,
        feat_values,
        LabelVector(target_bits),
        cat_values,
        target_name=cols[tcol].name,
    )


def to_csv(dataset: Dataset, path) -> None:
    """Write a dataset back to CSV (categorical codes decoded to strings).

    Works a column at a time: each categorical column's distinct codes are
    decoded once (`Dataset.decode`), each float is written as its `repr`,
    and rows go out TO_CSV_ROWS at a time.  The bytes are those of writing
    the cells one by one."""
    decoded = {}
    for j, col in enumerate(dataset.schema):
        if col.kind is Kind.CATEGORICAL:
            codes = np.unique(dataset.values[j])
            names = np.array([dataset.decode(j, c) for c in codes.tolist()], dtype=object)
            decoded[j] = codes, names
    bits = np.array(["0", "1"], dtype=object)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in dataset.schema] + [dataset.target_name])
        for a in range(0, dataset.m, TO_CSV_ROWS):
            block = slice(a, a + TO_CSV_ROWS)
            cells = []
            for j, values in enumerate(dataset.values):
                if j in decoded:
                    codes, names = decoded[j]
                    cells.append(names[np.searchsorted(codes, values[block])].tolist())
                else:
                    cells.append(list(map(repr, values[block].tolist())))
            cells.append(bits[dataset.target.bits[block]].tolist())
            writer.writerows(zip(*cells))
