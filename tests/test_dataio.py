import numpy as np
import pytest

from ecd.dataio import Dataset, RoleConfig, filter_rows, load_csv
from ecd.errors import (
    EmptyAfterFiltering,
    EmptyDataset,
    InvalidConfig,
    InvalidPredicate,
    MissingColumn,
    ParseError,
)

ROLES = RoleConfig(response="B", predictors=("A",))


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestDataset:
    def test_basic_invariants(self):
        data = Dataset({"A": [1.0, 2.0], "B": [3.0, 4.0]})
        assert data.n_rows == 2
        assert data.names == ("A", "B")
        assert (data.column("A")[1], data.column("B")[1]) == (2.0, 4.0)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(InvalidConfig):
            Dataset({"A": [1.0], "B": [1.0, 2.0]})

    def test_no_columns_rejected(self):
        with pytest.raises(EmptyDataset):
            Dataset({})

    def test_columns_are_locked(self):
        data = Dataset({"A": [1.0, 2.0]})
        with pytest.raises(ValueError):
            data.column("A")[0] = 9.0

    def test_missing_column(self):
        with pytest.raises(MissingColumn):
            Dataset({"A": [1.0]}).column("Z")

    def test_zero_row_dataset_is_valid(self):
        data = Dataset({"A": np.array([]), "B": np.array([])})
        assert data.n_rows == 0

    def test_csv_round_trip(self, tmp_path):
        data = Dataset({"A": [1.0, 0.25, -3.0], "B": [2.0, 5.5, 1e-9]})
        path = tmp_path / "out.csv"
        data.to_csv(path)
        again = load_csv(path, RoleConfig(response="B", predictors=("A",)))
        assert np.array_equal(again.column("A"), data.column("A"))
        assert np.array_equal(again.column("B"), data.column("B"))


class TestRoleConfig:
    def test_response_cannot_be_predictor(self):
        with pytest.raises(InvalidConfig):
            RoleConfig(response="A", predictors=("A", "B"))

    def test_needs_predictors(self):
        with pytest.raises(InvalidConfig):
            RoleConfig(response="A", predictors=())

    def test_duplicate_predictors_rejected(self):
        with pytest.raises(InvalidConfig):
            RoleConfig(response="Z", predictors=("A", "A"))


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        data = load_csv(write(tmp_path, "A,B\n1,2\n3,4\n"), ROLES)
        assert data.n_rows == 2
        assert np.array_equal(data.column("A"), [1.0, 3.0])
        assert np.array_equal(data.column("B"), [2.0, 4.0])

    def test_drop_row_policy(self, tmp_path):
        data = load_csv(write(tmp_path, "A,B\n1,2\nNA,4\n5,6\n"), ROLES, "drop_row")
        assert data.n_rows == 2
        assert np.array_equal(data.column("A"), [1.0, 5.0])

    def test_fail_policy(self, tmp_path):
        path = write(tmp_path, "A,B\n1,2\nNA,4\n")
        with pytest.raises(ParseError) as info:
            load_csv(path, ROLES, "fail")
        assert info.value.row == 3
        assert info.value.column == "A"

    def test_missing_header_column(self, tmp_path):
        with pytest.raises(MissingColumn):
            load_csv(write(tmp_path, "A,C\n1,2\n"), ROLES)

    def test_non_finite_cells_count_as_missing(self, tmp_path):
        data = load_csv(write(tmp_path, "A,B\ninf,2\n1,nan\n3,4\n"), ROLES)
        assert data.n_rows == 1
        assert (data.column("A")[0], data.column("B")[0]) == (3.0, 4.0)

    def test_all_rows_bad(self, tmp_path):
        with pytest.raises(EmptyAfterFiltering):
            load_csv(write(tmp_path, "A,B\nx,2\ny,3\n"), ROLES)

    def test_unselected_columns_ignored(self, tmp_path):
        data = load_csv(write(tmp_path, "C,A,B\ntext,1,2\nmore,3,4\n"), ROLES)
        assert data.names == ("A", "B")
        assert data.n_rows == 2

    def test_short_rows_dropped(self, tmp_path):
        data = load_csv(write(tmp_path, "A,B\n1\n3,4\n"), ROLES)
        assert data.n_rows == 1

    def test_unknown_policy(self, tmp_path):
        with pytest.raises(InvalidConfig):
            load_csv(write(tmp_path, "A,B\n1,2\n"), ROLES, "impute")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", ROLES)


class TestFilterRows:
    def setup_method(self):
        self.data = Dataset(
            {"Age": [55, 62, 65, 70, 61], "Sex": [1, 1, 0, 1, 1], "Y": [1, 2, 3, 4, 5]}
        )

    def test_empty_predicate_keeps_everything(self):
        out = filter_rows(self.data, [])
        assert out.n_rows == self.data.n_rows
        assert np.array_equal(out.column("Y"), self.data.column("Y"))

    def test_matching_nothing_gives_zero_rows(self):
        out = filter_rows(self.data, [["Age", ">=", 200]])
        assert out.n_rows == 0
        assert out.names == self.data.names

    def test_range_and_equality(self):
        out = filter_rows(self.data, [["Age", "range", [60, 69]], ["Sex", "==", 1]])
        assert np.array_equal(out.column("Y"), [2, 5])

    def test_comparisons(self):
        assert filter_rows(self.data, [["Age", "<=", 62]]).n_rows == 3
        assert filter_rows(self.data, [["Age", ">=", 62]]).n_rows == 3

    def test_bad_clauses(self):
        with pytest.raises(InvalidPredicate):
            filter_rows(self.data, [["Age", "between", 60]])
        with pytest.raises(InvalidPredicate):
            filter_rows(self.data, [["Age", "range", 60]])
        with pytest.raises(InvalidPredicate):
            filter_rows(self.data, [["Age"]])
        with pytest.raises(MissingColumn):
            filter_rows(self.data, [["Height", "==", 1]])

    def test_value_beyond_float_range(self):
        for spec in ([["Age", ">=", 10**400]], [["Age", "range", [0, 10**400]]]):
            with pytest.raises(InvalidPredicate):
                filter_rows(self.data, spec)

    def test_non_numeric_values_and_non_list_spec(self):
        for spec in ([["Age", ">=", "old"]], [["Age", "range", ["a", 70]]],
                     [["Age", "range", [1, 2, 3]]], [["Age", "==", None]], [["Age", ["=="], 1]], 5):
            with pytest.raises(InvalidPredicate):
                filter_rows(self.data, spec)
