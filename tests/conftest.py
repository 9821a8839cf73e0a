import numpy as np
import pytest

from sigmine import ColumnSchema, Dataset, Kind, LabelVector


@pytest.fixture
def fruit_csv(tmp_path):
    """3-row table: categorical color, continuous weight, binary target."""
    path = tmp_path / "fruit.csv"
    path.write_text("color,weight,y\nred,1.5,1\nblue,2.0,0\nred,0.5,1\n")
    return path


FRUIT_SCHEMA = [
    ColumnSchema("color", Kind.CATEGORICAL),
    ColumnSchema("weight", Kind.CONTINUOUS),
    ColumnSchema("y", Kind.TARGET),
]


@pytest.fixture
def fruit_schema():
    return list(FRUIT_SCHEMA)


@pytest.fixture
def fruit(fruit_csv, fruit_schema):
    from sigmine import load_csv

    return load_csv(fruit_csv, schema=fruit_schema)


def binary_dataset(codes_per_column: list[list[int]], labels: list[int]) -> Dataset:
    """Hand-built all-categorical dataset for exact small-case tests."""
    m = len(labels)
    schema = [ColumnSchema(f"b{j}", Kind.CATEGORICAL) for j in range(len(codes_per_column))]
    values = [np.asarray(col, dtype=np.int32) for col in codes_per_column]
    cat_values = {
        j: [str(v) for v in range(int(max(col)) + 1)]
        for j, col in enumerate(codes_per_column)
    }
    return Dataset(schema, values, LabelVector(np.asarray(labels, dtype=np.uint8)), cat_values)


def contents(ds: Dataset) -> tuple:
    """Everything a dataset holds, in a form `==` compares: schema, values
    with their dtypes, category strings, target and target name."""
    return (
        ds.schema,
        [(arr.dtype, arr.tobytes()) for arr in ds.values],
        ds.cat_values,
        ds.target,
        ds.target_name,
    )
