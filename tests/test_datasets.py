import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lambda_saga import (DIGIT_SPLIT, DatasetError, LabelRule, LogisticProblem,
                         QuadraticProblem, datasets, load_dataset)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLabelRule:
    def test_digit_split(self):
        binarized = DIGIT_SPLIT.binarize([0.0, 4.0, 5.0, 9.0])
        assert np.array_equal(binarized, [0.0, 0.0, 1.0, 1.0])

    def test_outside_domain(self, tmp_path):
        assert np.isnan(DIGIT_SPLIT.binarize([12.0, 4.5, -1.0])).all()
        path = write(tmp_path, "labels.csv", "0,1,2\n12,3,4\n")
        with pytest.raises(DatasetError, match="row 2: label 12.0 outside rule domain"):
            load_dataset(path)

    def test_threshold_constructor(self):
        rule = LabelRule.threshold(1, [0, 1])
        assert np.array_equal(rule.binarize([0.0, 1.0]), [0.0, 1.0])

    def test_negative_wins_a_label_in_both(self):
        rule = LabelRule(negative=frozenset({1.0}), positive=frozenset({1.0, 2.0}))
        assert np.array_equal(rule.binarize([1.0, 2.0]), [0.0, 1.0])


class TestDenseCsv:
    def test_digit_binarization(self, tmp_path):
        path = write(tmp_path, "data.csv", "0,1.0,2.0\n7,3.0,4.0\n3,5.0,6.0\n")
        problem = load_dataset(path)
        assert problem.n_components == 3
        assert problem.dim == 2
        assert np.array_equal(problem.labels, [0.0, 1.0, 0.0])
        assert np.array_equal(problem.features[1], [3.0, 4.0])

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "empty.csv", "")
        with pytest.raises(DatasetError, match="no rows"):
            load_dataset(path)

    def test_ragged_row_named(self, tmp_path):
        path = write(tmp_path, "ragged.csv",
                     "0,1,2,3,4\n1,9,9,9,9\n0,1,2,3\n")
        with pytest.raises(DatasetError, match="row 3"):
            load_dataset(path)

    def test_non_numeric_cell_named(self, tmp_path):
        path = write(tmp_path, "bad.csv", "0,1,2\n1,x,3\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_dataset(path)

    def test_label_outside_domain_named(self, tmp_path):
        path = write(tmp_path, "labels.csv", "0,1,2\n42,3,4\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_dataset(path)

    def test_label_column(self, tmp_path):
        path = write(tmp_path, "last.csv", "1.0,2.0,6\n3.0,4.0,1\n")
        problem = load_dataset(path, label_column=-1)
        assert np.array_equal(problem.labels, [1.0, 0.0])
        assert np.array_equal(problem.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_scaling_recorded_in_metadata(self, tmp_path):
        path = write(tmp_path, "scale.csv", "0,255,0\n9,0,255\n")
        problem = load_dataset(path, scale=1 / 255)
        assert problem.metadata["scale"] == 1 / 255
        assert np.allclose(problem.features, [[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_scale_not_finite_and_nonzero_named(self, tmp_path, scale):
        path = write(tmp_path, "scale.csv", "0,255,0\n9,0,255\n")
        with pytest.raises(DatasetError, match="^scale must be finite and nonzero"):
            load_dataset(path, scale=scale)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scaled_overflow_names_first_row(self, tmp_path):
        path = write(tmp_path, "big.csv", "0,1.0,2.0\n\n5,1e300,1.0\n9,-1e300,1.0\n")
        with pytest.raises(DatasetError, match="row 3: a feature overflows when scaled"):
            load_dataset(path, scale=1e10)

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path, "blank.csv", "0,1,2\n\n7,3,4\n")
        problem = load_dataset(path)
        assert problem.n_components == 2

    def test_label_error_names_the_file_line(self, tmp_path):
        path = write(tmp_path, "blank.csv", "0,1,2\n\n\n7.5,1,2\n")
        with pytest.raises(DatasetError, match="row 4: label 7.5 outside rule domain"):
            load_dataset(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("first", ["0", '"0"'], ids=["c-reader", "line-parser"])
    def test_non_finite_cell_named(self, tmp_path, cell, first):
        # A quoted cell sends the file to the line parser.
        path = write(tmp_path, "nan.csv", f"{first},1.0,2.0\n\n5,{cell},2.0\n")
        with pytest.raises(DatasetError, match="row 3: non-finite cell"):
            load_dataset(path)

    def test_first_bad_row_named(self, tmp_path):
        # A bad label on line 2 comes before a non-finite cell on line 4.
        path = write(tmp_path, "both.csv", "0,1.0,2.0\n12,1.0,2.0\n\n5,nan,2.0\n")
        with pytest.raises(DatasetError, match="row 2: label 12.0 outside rule domain"):
            load_dataset(path)
        path = write(tmp_path, "both.csv", "0,1.0,2.0\n5,inf,2.0\n\n12,1.0,2.0\n")
        with pytest.raises(DatasetError, match="row 2: non-finite cell"):
            load_dataset(path)

    def test_non_finite_label_named(self, tmp_path):
        path = write(tmp_path, "nan.csv", "0,1.0,2.0\nnan,1.0,2.0\n")
        with pytest.raises(DatasetError, match="row 2: non-finite cell"):
            load_dataset(path)

    def test_c_reader_takes_plain_input(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("plain input reached the line parser")

        monkeypatch.setattr(datasets, "_read_dense_csv_lines", refuse)
        rows = [f"{i * 0.5:+.17e}, {i % 10} ,{-i}\r\n" for i in range(600)]
        # Blank lines, one a whole chunk's worth, around the data.
        text = "\r\n" + "".join(rows[:300]) + "\n" * 400 + "".join(rows[300:]) + "\n"
        path = write(tmp_path, "plain.csv", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            features, labels, lines = datasets._read_dense_csv(path, 1)
        assert features.flags.c_contiguous
        assert np.array_equal(labels, np.arange(600) % 10)
        assert np.array_equal(features, np.column_stack([np.arange(600) * 0.5, -np.arange(600)]))
        assert np.array_equal(lines, np.r_[2:302, 702:1002])

    def test_blank_lines_keep_no_feature_rows(self, tmp_path):
        path = write(tmp_path, "sparse.csv", "".join(f"{i % 10},{i},1\n\n" for i in range(300)))
        features, labels, lines = datasets._read_dense_csv(path, 0)
        assert features.flags.owndata and features.shape == (300, 2)
        assert np.array_equal(features[:, 0], np.arange(300))
        assert np.array_equal(lines, np.arange(1, 600, 2))

    def test_line_parser_takes_what_the_c_reader_refuses(self, tmp_path):
        path = write(tmp_path, "quoted.csv", '"0",1_000,2\n\n7,"3.5",4\n')
        problem = load_dataset(path)
        assert np.array_equal(problem.features, [[1000.0, 2.0], [3.5, 4.0]])
        assert np.array_equal(problem.labels, [0.0, 1.0])

    def test_line_named_after_a_quoted_cell_spanning_lines(self, tmp_path):
        path = write(tmp_path, "quoted.csv", '0,1,2\n1,"3\n",4\n5,x,2\n')
        with pytest.raises(DatasetError, match="row 4: non-numeric cell"):
            load_dataset(path)

    def test_bare_carriage_returns(self, tmp_path, monkeypatch):
        # Bare \r line ends count toward the capacity, so the C reader
        # reads the file, with the line parser's bits.
        path = tmp_path / "cr.csv"
        path.write_bytes(b"0,1,2\r7,3.1,4\r\r9,5,6e-3\r\n8,0.7,1\n")
        want = datasets._read_dense_csv_lines(path, 0)

        def refuse(*args):
            raise AssertionError("bare carriage returns reached the line parser")

        monkeypatch.setattr(datasets, "_read_dense_csv_lines", refuse)
        got = datasets._read_dense_csv(path, 0)
        for g, w in zip(got, want):
            assert g.shape == w.shape and _bits(g) == _bits(w)
        features, labels, lines = got
        assert np.array_equal(features, [[1, 2], [3.1, 4], [5, 6e-3], [0.7, 1]])
        assert np.array_equal(labels, [0, 7, 9, 8])
        assert np.array_equal(lines, [1, 2, 4, 5])


class TestSvmlight:
    def test_sparse_rows_materialized(self, tmp_path):
        path = write(tmp_path, "data.svm", "0 1:1.5 3:2.5\n8 2:-1.0\n")
        problem = load_dataset(path, format="svmlight")
        assert problem.dim == 3
        assert np.array_equal(problem.features, [[1.5, 0.0, 2.5], [0.0, -1.0, 0.0]])
        assert np.array_equal(problem.labels, [0.0, 1.0])

    def test_malformed_token_named(self, tmp_path):
        path = write(tmp_path, "data.svm", "0 1:1.0\n5 2:oops\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_dataset(path, format="svmlight")

    def test_label_error_names_the_file_line(self, tmp_path):
        path = write(tmp_path, "data.svm", "0 1:1.0\n\n\n7.5 1:2.0\n")
        with pytest.raises(DatasetError, match="row 4: label 7.5 outside rule domain"):
            load_dataset(path, format="svmlight")

    @pytest.mark.parametrize("text, line", [
        ("0 1:1.5 3:nan\n", 1),
        ("0 1:1.0\n\n5 2:inf\n", 3),
        ("0 1:1.0\n5 2:1e400\n", 2),
        ("0 1:1.0\nnan 1:1.0\n", 2),
    ])
    def test_non_finite_cell_named(self, tmp_path, text, line):
        path = write(tmp_path, "data.svm", text)
        with pytest.raises(DatasetError, match=f"row {line}: non-finite cell"):
            load_dataset(path, format="svmlight")

    def test_first_bad_row_named(self, tmp_path):
        path = write(tmp_path, "data.svm", "0 1:1.0\n12 1:1.0\n\n5 1:nan\n")
        with pytest.raises(DatasetError, match="row 2: label 12.0 outside rule domain"):
            load_dataset(path, format="svmlight")

    def test_comments_and_blanks(self, tmp_path):
        path = write(tmp_path, "data.svm", "# header\n0 1:1.0\n\n9 1:2.0 # tail\n")
        problem = load_dataset(path, format="svmlight")
        assert problem.n_components == 2

    def test_labels_only_file_named(self, tmp_path):
        path = write(tmp_path, "labels.svm", "0\n1 # no features\n\n0\n")
        with pytest.raises(DatasetError, match=f"{path}: no row has a feature"):
            load_dataset(path, format="svmlight")

    def test_repeated_index_named(self, tmp_path):
        path = write(tmp_path, "data.svm", "0 1:1.0 2:3.0\n\n1 2:1.0 1:1.0 2:2.0\n")
        with pytest.raises(DatasetError, match="row 3: feature index 2 repeated"):
            load_dataset(path, format="svmlight")


@pytest.mark.parametrize("make", [
    lambda: QuadraticProblem(np.zeros((3, 0))),
    lambda: LogisticProblem(np.zeros((3, 0)), np.zeros(3)),
], ids=["quadratic", "logistic"])
def test_problems_reject_zero_features(make):
    with pytest.raises(ValueError, match=r"must be a nonempty \(N, d\) array"):
        make()


def test_unknown_format(tmp_path):
    path = write(tmp_path, "x.bin", "whatever")
    with pytest.raises(DatasetError, match="unknown dataset format"):
        load_dataset(path, format="parquet")


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8).tobytes()


_CELL_FORMATS = ["{!r}", "{:+.17e}", "{:.17g}", "{:.3E}", "{:.6f}", " {!r} ", "{!r}  "]


@settings(deadline=None, max_examples=60)
@given(
    n_rows=st.integers(1, 600),
    width=st.integers(2, 6),
    label_at=st.integers(0, 11),
    negative_column=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
    blank_share=st.sampled_from([0.0, 0.05, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_c_reader_matches_line_parser(n_rows, width, label_at, negative_column,
                                      newline, blank_share, seed):
    """On valid tables, the C reader's arrays equal the line parser's bit for
    bit, and no warning escapes."""
    rng = np.random.default_rng(seed)
    label_column = label_at % width - (width if negative_column else 0)
    values = rng.standard_normal((n_rows, width)) * 10.0 ** rng.uniform(-320, 300, (n_rows, width))
    values[:, label_column] = rng.integers(0, 10, n_rows)
    formats = rng.choice(_CELL_FORMATS, (n_rows, width))
    lines = []
    for row, fmts in zip(values, formats):
        while rng.random() < blank_share:
            lines.append("")
        lines.append(",".join(f.format(v) for f, v in zip(fmts, row.tolist())))
    text = newline.join(lines) + (newline if rng.random() < 0.5 else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = datasets._read_dense_csv(path, label_column)
            problem = load_dataset(path, label_column=label_column)
        want = datasets._read_dense_csv_lines(path, label_column)
    for g, w in zip(got, want):
        assert g.shape == w.shape and _bits(g) == _bits(w)
    assert problem.features.flags.c_contiguous
    assert _bits(problem.features) == _bits(want[0])
    assert _bits(problem.labels) == _bits(DIGIT_SPLIT.binarize(want[1]))


_MALFORMED = {
    "ragged": ("0,1,2\n1,3\n", 0, "row 2: expected 3 values, got 2"),
    "non-numeric": ("0,1,2\n1,x,3\n", 0, "row 2: non-numeric cell"),
    "quoted": ('0,1,2\n1,"3,5",4\n', 0, "row 2: non-numeric cell"),
    "empty field": ("0,1,2\n1,,3\n", 0, "row 2: non-numeric cell"),
    "empty trailing field": ("0,1,2\n1,2,3,\n", 0, "row 2: expected 3 values, got 4"),
    "# line": ("0,1,2\n#,1,2\n", 0, "row 2: non-numeric cell"),
    "# line, one cell": ("0,1,2\n# note\n", 0, "row 2: expected 3 values, got 1"),
    "width < 2": ("0\n1\n", 0, "row 1: need a label and at least one feature"),
    "label column out of range": ("0,1,2\n", 3, "label column 3 out of range for width 3"),
    "negative label column out of range": ("0,1,2\n", -4, "label column -4 out of range"),
    "no rows": ("\n\n", 0, "no rows"),
    "chunk width change": ("0,1,2\n" * 300 + "0,1,2,3\n", 0, "row 301: expected 3 values, got 4"),
}


@pytest.mark.parametrize("kind", sorted(_MALFORMED))
def test_malformed_table_named_as_line_parser_names_it(tmp_path, kind):
    text, label_column, message = _MALFORMED[kind]
    path = write(tmp_path, "bad.csv", text)
    with pytest.raises(DatasetError) as want:
        datasets._read_dense_csv_lines(path, label_column)
    with pytest.raises(DatasetError) as got:
        load_dataset(path, label_column=label_column)
    assert str(got.value) == str(want.value)
    assert message in str(got.value)


@pytest.mark.parametrize("name, data, message", [
    ("bad.csv", b"0,1,2\n1,\xff,3\n", "row 2: non-numeric cell"),
    ("bad.svm", b"0 1:1\n1 1:\xff\n", r"row 2: malformed feature token '1:\\udcff'"),
    ("bad.svm", b"0 1:1\n\xff 1:2\n", "row 2: non-numeric label"),
    ("note.svm", b"0 1:1 # \xff\n7 1:2\n", None),
], ids=["csv", "svmlight-token", "svmlight-label", "svmlight-comment"])
def test_undecodable_byte_named_by_row(tmp_path, name, data, message):
    path = tmp_path / name
    path.write_bytes(data)
    fmt = "svmlight" if name.endswith(".svm") else "dense-csv"
    if message is None:  # a comment may hold any byte
        assert load_dataset(path, format=fmt).n_components == 2
    else:
        with pytest.raises(DatasetError, match=f"^{re.escape(str(path))}: {message}"):
            load_dataset(path, format=fmt)


# Four rows of each format; DIGIT_SPLIT maps the labels 0 and 3 to 0 and 7
# and 8 to 1.
_FOUR_ROWS = {
    "dense-csv": b"0,1.5,-2.25\n7,0.5,3.0\n3,-1.0,2.0\n8,2.5,0.125\n",
    "svmlight": b"0 1:1.5 2:-2.25\n7 1:0.5 3:3.0 # a note\n3 2:-1.0\n8 1:2.5 2:0.125\n",
}


@settings(deadline=None, max_examples=300)
@given(
    fmt=st.sampled_from(sorted(_FOUR_ROWS)),
    edits=st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                             st.integers(0, 200), st.integers(0, 255)),
                   min_size=1, max_size=4),
)
def test_mutated_bytes_load_or_name_the_file_and_row(fmt, edits):
    """Any few byte edits of a valid file either load or raise a
    DatasetError that names the file and the row at fault (or, for a file
    left with no row or no feature, the file)."""
    data = bytearray(_FOUR_ROWS[fmt])
    for op, at, byte in edits:
        if op == "insert":
            data.insert(at % (len(data) + 1), byte)
        elif op == "replace":
            data[at % len(data)] = byte
        else:
            del data[at % len(data)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated"
        path.write_bytes(bytes(data))
        try:
            problem = load_dataset(path, format=fmt)
        except DatasetError as exc:
            assert re.match(rf"{re.escape(str(path))}: "
                            r"(row \d+: |no rows$|no row has a feature$)", str(exc))
        else:
            assert isinstance(problem, LogisticProblem)
