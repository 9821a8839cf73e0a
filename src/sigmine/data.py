"""Dataset model and CSV ingestion.

A dataset is an immutable table of m transactions: categorical columns are
stored integer-coded (codes assigned in first-appearance order, with the
original strings kept for reporting), continuous columns as float64, and the
binary target as a 0/1 vector.  Instances are safe for concurrent shared
reads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import bitset
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

# rows `to_csv` turns into strings and writes at a time
TO_CSV_ROWS = 1024


class LabelVector:
    """A binary vector of length m: observed targets or one resample.

    Keeps both the 0/1 array and the packed bitset form; the bitset is what
    the search hot loop intersects with covers.
    """

    __slots__ = ("bits", "mask", "m", "ones")

    def __init__(self, bits) -> None:
        arr = np.ascontiguousarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("labels must be 1-d")
        if arr.size and arr.max() > 1:
            raise ValueError("labels must be 0/1")
        self.bits = arr
        self.bits.setflags(write=False)
        self.m = int(arr.size)
        self.mask = bitset.pack(arr)
        self.ones = int(arr.sum())

    def mean(self) -> float:
        return self.ones / self.m

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelVector) and self.m == other.m and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.m, self.mask))

    def __repr__(self) -> str:
        return f"LabelVector(m={self.m}, ones={self.ones})"


class Dataset:
    """Immutable feature matrix plus binary target.

    `schema` lists the feature columns only (CSV order, target removed);
    `values[i]` is the i-th feature column: int32 codes for categorical
    columns, float64 for continuous ones.
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
        m = target.m
        if m < 1:
            raise SchemaError("dataset needs at least one transaction")
        self.schema = list(schema)
        self.values: list[np.ndarray] = []
        self.cat_values = dict(cat_values or {})
        for i, (col, arr) in enumerate(zip(schema, values)):
            if col.kind is Kind.CATEGORICAL:
                a = np.ascontiguousarray(arr, dtype=np.int32)
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

    def fingerprint(self) -> str:
        """Stable content hash used to identify datasets in reports."""
        import hashlib

        h = hashlib.sha256()
        h.update(repr([(c.name, c.kind.value) for c in self.schema]).encode())
        h.update(self.target.bits.tobytes())
        for arr in self.values:
            h.update(arr.tobytes())
        return h.hexdigest()[:16]


def _parse_real(text: str) -> float | None:
    try:
        v = float(text)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def read_schema_file(path) -> list[ColumnSchema]:
    """Sidecar schema: one `name=kind` line per column, in column order."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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


def _infer_schema(
    header: list[str], distinct: list[dict], target_column: str | None
) -> list[ColumnSchema]:
    tgt = target_column if target_column is not None else header[-1]
    if tgt not in header:
        raise SchemaError(f"target column {tgt!r} not in header")
    out = []
    for name, values in zip(header, distinct):
        if name == tgt:
            out.append(ColumnSchema(name, Kind.TARGET))
        elif len(values) > INFER_DISTINCT_THRESHOLD and all(
            _parse_real(v) is not None for v in values
        ):
            out.append(ColumnSchema(name, Kind.CONTINUOUS))
        else:
            out.append(ColumnSchema(name, Kind.CATEGORICAL))
    return out


def _first_line(cells, bad) -> tuple[int, str]:
    """File line and text of the first cell for which `bad` holds."""
    return next((i + 2, cell) for i, cell in enumerate(cells) if bad(cell))


def load_csv(path, schema="infer", target_column: str | None = None) -> Dataset:
    """Load a comma-separated UTF-8 file with a header row.

    `schema` is a list of ColumnSchema covering every CSV column (exactly one
    of kind target), the string "infer", or a path to a sidecar schema file.
    Under inference the last column is the target unless `target_column`
    overrides it.  Rows with empty cells are rejected rather than imputed.

    Every check and conversion works on each column's distinct values, in
    first-appearance order; the cells are scanned again only to name the
    line of an error.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        rows = list(reader)
    width = len(header)
    ragged = next((i for i, row in enumerate(rows) if len(row) != width), len(rows))
    columns = list(zip(*rows[:ragged]))
    distinct = [dict.fromkeys(col) for col in columns]
    if any(not v.strip() for values in distinct for v in values):
        lineno, _ = _first_line(rows, lambda row: any(not cell.strip() for cell in row))
        raise IngestionError(f"{path}: line {lineno} has an empty cell")
    if ragged < len(rows):
        raise IngestionError(
            f"{path}: line {ragged + 2} has {len(rows[ragged])} values, expected {width}"
        )
    if not rows:
        raise IngestionError(f"{path}: no data rows")

    if isinstance(schema, str):
        cols = _infer_schema(header, distinct, target_column) if schema == "infer" else read_schema_file(schema)
    else:
        cols = list(schema)
    if len(cols) != len(header):
        raise SchemaError(f"schema has {len(cols)} columns, file has {len(header)}")
    targets = [i for i, c in enumerate(cols) if c.kind is Kind.TARGET]
    if len(targets) != 1:
        raise SchemaError(f"schema must declare exactly one target column, found {len(targets)}")
    tcol = targets[0]
    m = len(rows)

    bits = {v: v.strip() for v in distinct[tcol]}
    if not set(bits.values()) <= {"0", "1"}:
        lineno, cell = _first_line(columns[tcol], lambda c: bits[c] not in ("0", "1"))
        raise SchemaError(
            f"{path}: line {lineno}: target value {cell.strip()!r} is not in {{0,1}}"
        )
    target_bits = np.fromiter(map(int, map(bits.__getitem__, columns[tcol])), np.uint8, m)

    feat_schema: list[ColumnSchema] = []
    feat_values: list[np.ndarray] = []
    cat_values: dict[int, list[str]] = {}
    for col, cells, values in zip(cols, columns, distinct):
        if col.kind is Kind.TARGET:
            continue
        if col.kind is Kind.CONTINUOUS:
            parsed = {v: _parse_real(v) for v in values}
            if None in parsed.values():
                lineno, cell = _first_line(cells, lambda c: parsed[c] is None)
                raise SchemaError(
                    f"{path}: line {lineno}: non-numeric value {cell!r} "
                    f"in continuous column '{col.name}'"
                )
            feat_values.append(np.fromiter(map(parsed.__getitem__, cells), np.float64, m))
        else:
            codes = {v: code for code, v in enumerate(values)}
            cat_values[len(feat_schema)] = list(values)
            feat_values.append(np.fromiter(map(codes.__getitem__, cells), np.int32, m))
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
