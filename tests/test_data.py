import numpy as np
import pytest

from sigmine import (
    ColumnSchema,
    IngestionError,
    Kind,
    LabelVector,
    SchemaError,
    load_csv,
    to_csv,
)
from sigmine.data import read_schema_file


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
    assert a.fingerprint() == b.fingerprint()
    assert a.target == b.target


def test_bad_target_value(tmp_path, fruit_schema):
    path = tmp_path / "bad.csv"
    path.write_text("color,weight,y\nred,1.5,1\nblue,2.0,2\n")
    with pytest.raises(SchemaError, match="line 3"):
        load_csv(path, schema=fruit_schema)


def test_wrong_arity_names_line(tmp_path, fruit_schema):
    path = tmp_path / "bad.csv"
    path.write_text("color,weight,y\nred,1.5,1\nblue,2.0\n")
    with pytest.raises(IngestionError, match="line 3"):
        load_csv(path, schema=fruit_schema)


def test_empty_cell_rejected(tmp_path, fruit_schema):
    path = tmp_path / "bad.csv"
    path.write_text("color,weight,y\nred,,1\n")
    with pytest.raises(IngestionError, match="empty cell"):
        load_csv(path, schema=fruit_schema)


def test_non_numeric_continuous(tmp_path, fruit_schema):
    path = tmp_path / "bad.csv"
    path.write_text("color,weight,y\nred,heavy,1\n")
    with pytest.raises(SchemaError, match="continuous"):
        load_csv(path, schema=fruit_schema)


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


def test_infer_uses_distinct_count(tmp_path):
    rows = [f"{i % 5},{i / 7.0},{i % 2}" for i in range(40)]
    path = tmp_path / "t.csv"
    path.write_text("grade,score,y\n" + "\n".join(rows) + "\n")
    ds = load_csv(path, schema="infer")
    assert ds.schema[0].kind is Kind.CATEGORICAL  # 5 distinct numeric values
    assert ds.schema[1].kind is Kind.CONTINUOUS  # 40 distinct values
    assert ds.target_name == "y"


def test_infer_target_override(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y,x\n1,a\n0,b\n")
    ds = load_csv(path, schema="infer", target_column="y")
    assert ds.target_name == "y"
    assert ds.schema[0].name == "x"


def test_sidecar_schema_file(tmp_path, fruit_csv):
    sc = tmp_path / "fruit.schema"
    sc.write_text("color=categorical\nweight=continuous\ny=target\n")
    cols = read_schema_file(sc)
    assert [c.kind for c in cols] == [Kind.CATEGORICAL, Kind.CONTINUOUS, Kind.TARGET]
    ds = load_csv(fruit_csv, schema=str(sc))
    assert ds.m == 3


def test_to_csv_round_trip(tmp_path, fruit, fruit_schema):
    out = tmp_path / "copy.csv"
    to_csv(fruit, out)
    again = load_csv(out, schema=fruit_schema)
    assert again.m == fruit.m
    assert [again.decode(0, c) for c in again.values[0]] == ["red", "blue", "red"]
    assert np.array_equal(again.values[1], fruit.values[1])
    assert again.target == fruit.target


def test_label_vector_validates():
    with pytest.raises(ValueError):
        LabelVector(np.array([0, 2], dtype=np.uint8))
