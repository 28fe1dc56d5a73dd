"""Tests for the ColumnTable (the pandas substitute)."""

import pytest

from repro.analysis import ColumnTable


@pytest.fixture
def table():
    return ColumnTable(
        {
            "key": [1, 2, 1, 3, 2, 1],
            "value": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
        }
    )


class TestConstruction:
    def test_length_and_names(self, table):
        assert len(table) == 6
        assert table.column_names == ["key", "value"]
        assert "key" in table and "missing" not in table

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="length"):
            ColumnTable({"a": [1, 2], "b": [1]})

    def test_empty_table(self):
        assert len(ColumnTable({})) == 0


class TestTransforms:
    def test_head(self, table):
        assert len(table.head(2)) == 2

    def test_to_rows(self, table):
        rows = table.head(2).to_rows()
        assert rows == [{"key": 1, "value": 10.0}, {"key": 2, "value": 20.0}]
