import os
import re
import threading

import numpy as np
import pytest

from ecd import dataio
from ecd.dataio import Dataset, RoleConfig, filter_rows, load_csv
from ecd.errors import (
    EcdError,
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
        path.write_text(data.to_csv(), encoding="utf-8", newline="")
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

    def test_repeated_selected_column_is_refused(self, tmp_path):
        path = write(tmp_path, "A, A,B\n1,2,3\n")
        with pytest.raises(EcdError, match=re.escape(f"{path}: column 'A' appears more than once in the header")):
            load_csv(path, ROLES)

    def test_repeated_unselected_column_is_allowed(self, tmp_path):
        data = load_csv(write(tmp_path, "C,A,C,B\nx,1,y,2\n"), ROLES)
        assert (data.column("A")[0], data.column("B")[0]) == (1.0, 2.0)

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

    def test_whitespace_padded_cells(self, tmp_path):
        data = load_csv(write(tmp_path, "A,B\n 1.5 ,\t2\n3,  4  \n"), ROLES, "fail")
        assert np.array_equal(data.column("A"), [1.5, 3.0])
        assert np.array_equal(data.column("B"), [2.0, 4.0])

    def test_quoted_numbers(self, tmp_path):
        data = load_csv(write(tmp_path, 'A,B\n"1.5","2"\n" 3 ",4\n'), ROLES, "fail")
        assert np.array_equal(data.column("A"), [1.5, 3.0])
        assert np.array_equal(data.column("B"), [2.0, 4.0])

    def test_underscore_digits_parse_as_float_does(self, tmp_path):
        data = load_csv(write(tmp_path, "A,B\n1_000,2.5_5\n"), ROLES, "fail")
        assert (data.column("A")[0], data.column("B")[0]) == (1000.0, 2.55)

    def test_large_finite_cells_kept(self, tmp_path):
        data = load_csv(write(tmp_path, "A,B\n1e308,1e308\n-1e308,1e308\n"), ROLES, "fail")
        assert np.array_equal(data.column("A"), [1e308, -1e308])

    def test_blank_rows_skipped_and_not_counted(self, tmp_path, caplog):
        path = write(tmp_path, "A,B\n1,2\n\n , \n,\n\t\n3,4\nNA,5\n")
        with caplog.at_level("WARNING", logger="ecd.dataio"):
            data = load_csv(path, ROLES)
        assert np.array_equal(data.column("A"), [1.0, 3.0])
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
            f"{path}: dropped 1 row(s) with missing or unparseable cells"
        ]

    def test_blank_rows_pass_the_fail_policy(self, tmp_path):
        data = load_csv(write(tmp_path, "A,B\n1,2\n\n , \n3,4\n"), ROLES, "fail")
        assert data.n_rows == 2

    def test_fail_reports_first_bad_cell_in_selected_order(self, tmp_path):
        # The file lists B before A, but RoleConfig.selected is (A, B).
        path = write(tmp_path, "B,A\n1,2\nx,y\n")
        with pytest.raises(ParseError) as info:
            load_csv(path, ROLES, "fail")
        assert (info.value.row, info.value.column, info.value.text) == (3, "A", "y")

    def test_fail_reports_missing_cell_of_short_row(self, tmp_path):
        with pytest.raises(ParseError) as info:
            load_csv(write(tmp_path, "A,B\n1,2\n3\n"), ROLES, "fail")
        assert (info.value.row, info.value.column, info.value.text) == (3, "B", "")

    def test_fail_reports_non_finite_cell(self, tmp_path):
        with pytest.raises(ParseError) as info:
            load_csv(write(tmp_path, "A,B\n1,2\n -inf ,3\n"), ROLES, "fail")
        assert (info.value.row, info.value.column, info.value.text) == (3, "A", "-inf")

    def test_byte_order_mark_header(self, tmp_path):
        # Excel and many EHR exports start UTF-8 files with a byte order mark.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfA,B\n1,2\n3,4\n")
        data = load_csv(path, ROLES)
        assert data.names == ("A", "B")
        assert np.array_equal(data.column("A"), [1.0, 3.0])

    @pytest.mark.parametrize("text, row", [
        ("A,B\n1,2\n" + "1" * 140_000 + ",2\n", 3),
        ("A,B,C\n1,2,3\n4,5," + "x" * 140_000 + "\n", 3),  # in a column not selected
        ("A,B," + "C" * 140_000 + "\n1,2,3\n", 1),
    ], ids=["selected", "skipped", "header"])
    @pytest.mark.parametrize("policy", ["drop_row", "fail"])
    def test_cell_past_csv_field_limit_names_its_row(self, tmp_path, text, row, policy):
        path = write(tmp_path, text)
        with pytest.raises(EcdError, match=rf"^{re.escape(str(path))}: row {row}: field larger than field limit"):
            load_csv(path, ROLES, policy)

    def test_plain_body_takes_only_c_passes(self, tmp_path, monkeypatch):
        def no_row_reader(*args):
            raise AssertionError("row reader called")

        monkeypatch.setattr(dataio, "_read_rows", no_row_reader)
        path = tmp_path / "plain.csv"
        path.write_bytes(b"\xef\xbb\xbfC,B,A\r\n9, 1.5 ,2\r\n8,\t-3e2,4,extra\r\n\r\n7,0,-0\r")
        data = load_csv(path, ROLES, "fail")
        assert np.array_equal(data.column("A"), [2.0, 4.0, -0.0])
        assert np.array_equal(data.column("B"), [1.5, -300.0, 0.0])
        blocks = "\n" + "1,2\n" * (3 * dataio._BLOCK_LINES) + "\n" * dataio._BLOCK_LINES
        assert load_csv(write(tmp_path, "A,B\n" + blocks), ROLES).n_rows == 3 * dataio._BLOCK_LINES
        for body in ('"1",2\n', "1,2\n3,nan\n", "1,2\n3\n"):
            with pytest.raises(AssertionError, match="row reader called"):
                load_csv(write(tmp_path, "A,B\n" + body), ROLES)

    @pytest.mark.parametrize("last", ["3,\n", '"3",4\n', "3,inf\n"])
    def test_row_reader_starts_at_the_first_block_the_c_pass_refuses(self, tmp_path, monkeypatch, last):
        read_rows = dataio._read_rows
        first_rows = []

        def first_row_seen(path, lines, first_row, *args):
            first_rows.append(first_row)
            return read_rows(path, lines, first_row, *args)

        monkeypatch.setattr(dataio, "_read_rows", first_row_seen)
        plain = 2 * dataio._BLOCK_LINES + 5
        path = write(tmp_path, "A,B\n" + "1,2\n" * plain + last)
        data = load_csv(path, ROLES)
        assert first_rows == [2 + 2 * dataio._BLOCK_LINES]
        assert data.n_rows == plain + (last == '"3",4\n')
        if last != '"3",4\n':
            with pytest.raises(ParseError) as err:
                load_csv(path, ROLES, "fail")
            assert (err.value.row, err.value.column) == (plain + 2, "B")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_pipe_is_read_in_one_pass(self, tmp_path):
        # A body the C pass refuses in its last block: the pipe cannot be
        # rewound, so the row reader must go on from where the pass stopped.
        fifo = tmp_path / "data.fifo"
        os.mkfifo(fifo)
        text = "A,B\n" + "1,2\n" * 200 + "3,\n" + '"4",5\n'
        writer = threading.Thread(target=fifo.write_text, args=(text,))
        writer.start()
        try:
            data = load_csv(fifo, ROLES)
        finally:
            writer.join()
        assert np.array_equal(data.column("A"), [1.0] * 200 + [4.0])
        assert np.array_equal(data.column("B"), [2.0] * 200 + [5.0])


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

    def test_clause_outside_the_roles(self):
        assert dataio.filter_clauses([["A", "range", [1, 2]]], ROLES) == [("A", "range", 1.0, 2.0)]
        with pytest.raises(InvalidPredicate, match="'Age' is neither the response nor a predictor"):
            dataio.filter_clauses([["Age", ">=", 60]], ROLES)

    def test_value_beyond_float_range(self):
        for spec in ([["Age", ">=", 10**400]], [["Age", "range", [0, 10**400]]]):
            with pytest.raises(InvalidPredicate):
                filter_rows(self.data, spec)

    def test_non_numeric_values_and_non_list_spec(self):
        for spec in ([["Age", ">=", "old"]], [["Age", "range", ["a", 70]]],
                     [["Age", "range", [1, 2, 3]]], [["Age", "==", None]], [["Age", ["=="], 1]], 5,
                     [["Age", ">=", "0"]], [["Age", ">=", True]], [[1, ">=", 0]],
                     [["Age", "range", ["0", 1]]], [["Age", "range", [0, False]]],
                     [["", ">=", 0]], [[None, ">=", 0]], [["Age", "range", "01"]],
                     [["Age", "range", {"0": 1, "1": 2}]]):
            with pytest.raises(InvalidPredicate):
                filter_rows(self.data, spec)
