import csv
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigmine.data
from sigmine import (
    ColumnSchema,
    Dataset,
    IngestionError,
    Kind,
    LabelVector,
    SchemaError,
    load_csv,
    to_csv,
)
from sigmine.data import read_schema_file
from sigmine.oracle import generate
from sigmine.suites import mushroom_class_spec

from conftest import contents


def test_load_csv_basic(fruit):
    assert fruit.m == 3
    assert list(fruit.values[0]) == [0, 1, 0]  # first-appearance coding
    assert list(fruit.values[1]) == [1.5, 2.0, 0.5]
    assert list(fruit.target.bits) == [1, 0, 1]
    assert fruit.decode(0, 0) == "red"
    assert fruit.decode(0, 1) == "blue"


def test_mean_target_examples(fruit):
    # two of the three transactions carry label 1
    assert fruit.mean_target() == 2 / 3
    lv = LabelVector(np.zeros(5, dtype=np.uint8))
    assert lv.mean() == 0.0


def test_mean_target_times_m_is_count(fruit):
    assert fruit.mean_target() * fruit.m == pytest.approx(2, abs=1e-12)
    assert fruit.target.ones == 2


def test_reload_is_identical(fruit_csv, fruit_schema):
    a = load_csv(fruit_csv, schema=fruit_schema)
    b = load_csv(fruit_csv, schema=fruit_schema)
    assert contents(a) == contents(b)


# rows before the bad one: none, a first block's worth less one (the bad
# row ends the first block), a block's worth (it starts the second), more
READ = sigmine.data.READ_ROWS
BEFORE = [0, READ - 1, READ, 2 * READ + 7]


def fruit_rows(n: int, header: bool = True) -> str:
    """n good rows of the fruit schema, with new values in every block, led
    by the header unless `header` is false."""
    rows = "".join(f"c{i % 7},{i}.5,{i % 2}\n" for i in range(n))
    return "color,weight,y\n" + rows if header else rows


def refused(path, error, **kw) -> str:
    with pytest.raises(error) as info:
        load_csv(path, **kw)
    return str(info.value)


def test_bad_target_value(tmp_path, fruit_schema):
    path = tmp_path / "bad.csv"
    for before in BEFORE:
        path.write_text(fruit_rows(before) + "blue,2.0,2\nred,1.5,3\n")
        message = refused(path, SchemaError, schema=fruit_schema)
        assert message == f"{path}: line {before + 2}: target value '2' is not in {{0,1}}"
        # a value that strips to 0 or 1 is a bit; the message shows the
        # stripped value
        path.write_text(fruit_rows(before) + "blue,2.0, 1 \nred,1.5, x \n")
        message = refused(path, SchemaError, schema=fruit_schema)
        assert message == f"{path}: line {before + 3}: target value 'x' is not in {{0,1}}"


def test_wrong_arity_names_line(tmp_path, fruit_schema):
    path = tmp_path / "bad.csv"
    for before in BEFORE:
        path.write_text(fruit_rows(before) + "blue,2.0\nred,,1,1\n")
        message = refused(path, IngestionError, schema=fruit_schema)
        assert message == f"{path}: line {before + 2} has 2 values, expected 3"


def test_empty_cell_rejected(tmp_path, fruit_schema):
    path = tmp_path / "bad.csv"
    for before in BEFORE:
        path.write_text(fruit_rows(before) + "red, ,1\n,2.0,1\n")
        message = refused(path, IngestionError, schema=fruit_schema)
        assert message == f"{path}: line {before + 2} has an empty cell"


@pytest.mark.parametrize("before", BEFORE)
@pytest.mark.parametrize("gap", [0, 1, READ])
def test_empty_cell_before_a_ragged_row_is_reported(tmp_path, fruit_schema, before, gap):
    # the first error in the file wins, whichever kind it is and whichever
    # block each sits in
    path = tmp_path / "bad.csv"
    body = fruit_rows(before)
    path.write_text(body + "red,,1\n" + fruit_rows(gap, header=False) + "blue,2.0\n")
    message = refused(path, IngestionError, schema=fruit_schema)
    assert message == f"{path}: line {before + 2} has an empty cell"
    path.write_text(body + "blue,2.0\n" + fruit_rows(gap, header=False) + "red,,1\n")
    message = refused(path, IngestionError, schema=fruit_schema)
    assert message == f"{path}: line {before + 2} has 2 values, expected 3"


def test_non_numeric_continuous(tmp_path, fruit_schema):
    path = tmp_path / "bad.csv"
    for before in BEFORE:
        path.write_text(fruit_rows(before) + "red,heavy,1\nred,light,1\n")
        message = refused(path, SchemaError, schema=fruit_schema)
        assert message == (
            f"{path}: line {before + 2}: non-numeric value 'heavy' in continuous column 'weight'"
        )


@pytest.mark.parametrize(
    "bad, error, message",
    [
        ("red, ,1\n", IngestionError, " has an empty cell"),
        ("blue,2.0\n", IngestionError, " has 2 values, expected 3"),
        ("blue,2.0,2\n", SchemaError, ": target value '2' is not in {0,1}"),
        ("red,heavy,1\n", SchemaError,
         ": non-numeric value 'heavy' in continuous column 'weight'"),
    ],
    ids=["empty cell", "ragged row", "bad target", "non-numeric"],
)
def test_error_lines_count_a_quoted_newline(tmp_path, fruit_schema, bad, error, message):
    # a quoted cell holding a newline takes two file lines for one row
    path = tmp_path / "bad.csv"
    for before in BEFORE:
        path.write_text(fruit_rows(before) + '"re\nd",1.5,1\n' + bad)
        got = refused(path, error, schema=fruit_schema)
        assert got == f"{path}: line {before + 4}{message}"


def test_target_error_comes_before_a_continuous_one(tmp_path, fruit_schema):
    path = tmp_path / "bad.csv"
    path.write_text(fruit_rows(READ) + "red,heavy,1\nred,1.0,2\n")
    message = refused(path, SchemaError, schema=fruit_schema)
    assert message == f"{path}: line {READ + 3}: target value '2' is not in {{0,1}}"


def test_nan_rejected_in_continuous(tmp_path, fruit_schema):
    path = tmp_path / "bad.csv"
    path.write_text("color,weight,y\nred,nan,1\n")
    with pytest.raises(SchemaError):
        load_csv(path, schema=fruit_schema)


def test_schema_needs_one_target(fruit_csv):
    schema = [
        ColumnSchema("color", Kind.CATEGORICAL),
        ColumnSchema("weight", Kind.CONTINUOUS),
        ColumnSchema("y", Kind.CATEGORICAL),
    ]
    with pytest.raises(SchemaError, match="target"):
        load_csv(fruit_csv, schema=schema)


@pytest.mark.parametrize(
    "lines, message",
    [
        ("q=categorical\nr=categorical\ny=target\n", "schema column 1 is 'q', file header has 'a'"),
        ("b=continuous\na=categorical\ny=target\n", "schema column 1 is 'b', file header has 'a'"),
        ("a=categorical\nb=continuous\nz=target\n", "schema column 3 is 'z', file header has 'y'"),
    ],
    ids=["renamed", "swapped", "target renamed"],
)
def test_declared_schema_must_name_the_header(tmp_path, lines, message):
    # a declared schema is read by position, so each name must be the
    # header's at that position
    path = tmp_path / "t.csv"
    path.write_text("a,b,y\nx,1.5,1\nz,2.5,0\n")
    sc = tmp_path / "t.schema"
    sc.write_text(lines)
    assert refused(path, SchemaError, schema=str(sc)) == message
    listed = [ColumnSchema(n, Kind(k)) for n, k in (line.split("=") for line in lines.split())]
    assert refused(path, SchemaError, schema=listed) == message


def test_declared_schema_names_compare_stripped(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(" a ,b,y\nx,1.5,1\nz,2.5,0\n")
    sc = tmp_path / "t.schema"
    sc.write_text(" a = categorical\nb=continuous\ny=target\n")
    ds = load_csv(path, schema=str(sc))
    assert [c.name for c in ds.schema] == ["a", "b"]
    assert ds.values[1].tolist() == [1.5, 2.5]


def test_infer_uses_distinct_count(tmp_path):
    rows = [f"{i % 5},{i / 7.0},{i % 2}" for i in range(40)]
    path = tmp_path / "t.csv"
    path.write_text("grade,score,y\n" + "\n".join(rows) + "\n")
    ds = load_csv(path, schema="infer")
    assert ds.schema[0].kind is Kind.CATEGORICAL  # 5 distinct numeric values
    assert ds.schema[1].kind is Kind.CONTINUOUS  # 40 distinct values
    assert ds.target_name == "y"


def test_infer_needs_more_distinct_values_than_the_threshold(tmp_path):
    # a numeric column with exactly INFER_DISTINCT_THRESHOLD values stays
    # categorical; one more makes it continuous
    n = sigmine.data.INFER_DISTINCT_THRESHOLD
    path = tmp_path / "t.csv"
    path.write_text("at,over,y\n" + "".join(f"{i % n},{i}.5,{i % 2}\n" for i in range(n + 1)))
    ds = load_csv(path, schema="infer")
    assert [c.kind for c in ds.schema] == [Kind.CATEGORICAL, Kind.CONTINUOUS]
    assert ds.values[0].tolist() == [*range(n), 0]
    assert ds.values[1].tolist() == [i + 0.5 for i in range(n + 1)]


def test_sidecar_schema_file(tmp_path, fruit_csv):
    sc = tmp_path / "fruit.schema"
    sc.write_text("color=categorical\nweight=continuous\ny=target\n")
    cols = read_schema_file(sc)
    assert [c.kind for c in cols] == [Kind.CATEGORICAL, Kind.CONTINUOUS, Kind.TARGET]
    ds = load_csv(fruit_csv, schema=str(sc))
    assert ds.m == 3


def test_byte_order_mark_is_dropped(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("\ufeffa,y\nx,1\nz,0\n", encoding="utf-8")
    assert load_csv(path).schema[0].name == "a"


def test_sidecar_schema_byte_order_mark_is_dropped(tmp_path, fruit_csv):
    sc = tmp_path / "fruit.schema"
    sc.write_text("\ufeffcolor=categorical\nweight=continuous\ny=target\n", encoding="utf-8")
    assert read_schema_file(sc)[0].name == "color"
    assert load_csv(fruit_csv, schema=str(sc)).schema[0].name == "color"


def test_to_csv_round_trip(tmp_path, fruit, fruit_schema):
    out = tmp_path / "copy.csv"
    to_csv(fruit, out)
    again = load_csv(out, schema=fruit_schema)
    assert again.m == fruit.m
    assert [again.decode(0, c) for c in again.values[0]] == ["red", "blue", "red"]
    assert np.array_equal(again.values[1], fruit.values[1])
    assert again.target == fruit.target


def to_csv_per_cell(dataset, path):
    """Reference writer: one row at a time, each cell decoded on its own."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in dataset.schema] + [dataset.target_name])
        for i in range(dataset.m):
            row = []
            for j, col in enumerate(dataset.schema):
                if col.kind is Kind.CATEGORICAL:
                    row.append(dataset.decode(j, int(dataset.values[j][i])))
                else:
                    row.append(repr(float(dataset.values[j][i])))
            row.append(str(int(dataset.target.bits[i])))
            writer.writerow(row)


NAMES = st.lists(
    st.text(st.sampled_from('ab ,"\'\n;é-.1'), min_size=1, max_size=5).filter(str.strip),
    max_size=4,
)
FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, 1e300, 5e-324, 3.0, -7.0, 2.0**53]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def datasets(draw):
    m = draw(st.integers(1, 12))
    schema, values, cat_values = [], [], {}
    for j in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            names = draw(NAMES)
            # codes past the names, negative ones included, decode to str(code)
            codes = st.integers(-3, len(names) + 2)
            values.append(np.array(draw(st.lists(codes, min_size=m, max_size=m))))
            schema.append(ColumnSchema(f"c{j}", Kind.CATEGORICAL))
            if names or draw(st.booleans()):
                cat_values[j] = names
        else:
            values.append(np.array(draw(st.lists(FLOATS, min_size=m, max_size=m))))
            schema.append(ColumnSchema(f"c{j}", Kind.CONTINUOUS))
    bits = np.array(draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)), dtype=np.uint8)
    return Dataset(schema, values, LabelVector(bits), cat_values, target_name="y")


def decoded(ds):
    """The cells as written: names for categorical codes, raw floats."""
    return [
        [ds.decode(j, c) for c in arr.tolist()] if col.kind is Kind.CATEGORICAL else arr.tobytes()
        for j, (col, arr) in enumerate(zip(ds.schema, ds.values))
    ]


@settings(max_examples=150, deadline=None)
@given(
    ds=datasets(),
    rows=st.sampled_from([1, 3, sigmine.data.TO_CSV_ROWS]),
    reads=st.sampled_from([1, 3, READ]),
)
def test_to_csv_writes_the_per_cell_bytes(tmp_path_factory, ds, rows, reads):
    path = tmp_path_factory.mktemp("csv")
    with mock.patch.object(sigmine.data, "TO_CSV_ROWS", rows):
        to_csv(ds, path / "columns.csv")
    to_csv_per_cell(ds, path / "cells.csv")
    assert (path / "columns.csv").read_bytes() == (path / "cells.csv").read_bytes()
    # load_csv reads the same cells back, in blocks of any size, and a
    # dataset it read round-trips exactly: codes, names and float bits
    schema = [*ds.schema, ColumnSchema("y", Kind.TARGET)]
    with mock.patch.object(sigmine.data, "READ_ROWS", reads):
        again = load_csv(path / "columns.csv", schema=schema)
    assert decoded(again) == decoded(ds) and again.target == ds.target
    to_csv(again, path / "again.csv")
    twice = load_csv(path / "again.csv", schema=schema)
    assert contents(twice) == contents(again)


def test_label_vector_validates():
    with pytest.raises(ValueError):
        LabelVector(np.array([0, 2], dtype=np.uint8))


def test_label_vector_must_be_one_dimensional():
    with pytest.raises(ValueError, match="labels must be 1-d"):
        LabelVector(np.zeros((2, 2), dtype=np.uint8))


CAT, CONT = ColumnSchema("c", Kind.CATEGORICAL), ColumnSchema("x", Kind.CONTINUOUS)


@pytest.mark.parametrize("schema, values, bits, message", [
    pytest.param([CAT, CONT], [[0, 1]], [0, 1], "schema/values length mismatch", id="lengths"),
    pytest.param([CAT], [[]], [], "dataset needs at least one transaction", id="no_rows"),
    pytest.param([CONT], [[0.5, np.inf]], [0, 1], "column 'x' contains non-finite values",
                 id="non_finite"),
    pytest.param([ColumnSchema("t", Kind.TARGET)], [[0, 1]], [0, 1],
                 "feature schema must not contain a target column", id="target_feature"),
    pytest.param([CAT], [[0, 1, 0]], [0, 1], "column 'c' has length 3, expected 2",
                 id="column_length"),
])
def test_dataset_refuses_inconsistent_parts(schema, values, bits, message):
    with pytest.raises(SchemaError, match=message):
        Dataset(schema, [np.asarray(v) for v in values], LabelVector(bits))


def test_casts_that_would_change_a_value_are_refused():
    # labels and categorical codes are stored as uint8 and int32: a value
    # the cast would truncate or wrap is refused, an exact one kept
    for bits in ([0.5, 0.9, 1.7], np.array([0, 256]), np.array([1, -255])):
        with pytest.raises(ValueError, match="0/1"):
            LabelVector(bits)
    for bits in ([0.0, 1.0, 1.0], [0, 1, 1], np.array([0, 1, 1], dtype=bool)):
        assert LabelVector(bits).bits.tolist() == [0, 1, 1]
    target = LabelVector([0, 1, 1])

    def codes(values):
        ds = Dataset([ColumnSchema("c", Kind.CATEGORICAL)], [values], target)
        return ds.values[0].tolist()

    for values in ([0.5, 1.5, 1.0], np.array([0, 2**31, 1]), [0, 1, np.nan]):
        with pytest.raises(SchemaError, match="'c' has codes"):
            codes(values)
    assert codes([0.0, 2.0, 1.0]) == codes(np.array([0, 2, 1], dtype=np.int8)) == [0, 2, 1]


def test_load_csv_holds_codes_not_rows(tmp_path):
    # the bytes load_csv allocates at its peak stay within a small multiple
    # of the arrays it returns; a list of every row would not
    path = tmp_path / "mushroom.csv"
    to_csv(generate(replace(mushroom_class_spec(), m=20_000)), path)
    tracemalloc.start()
    try:
        ds = load_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = sum(a.nbytes for a in ds.values) + ds.target.bits.nbytes
    assert peak < 3 * arrays
