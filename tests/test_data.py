import csv
import io
import json
import sys
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from labelaudit import data
from labelaudit.confident import flag_multilabel
from labelaudit.data import (
    DataFormatError,
    MultiLabelDataset,
    ProbMatrix,
    check_ids_aligned,
    load_dataset,
    load_features_csv,
    load_jsonl,
    load_labels_csv,
    load_probs_csv,
    load_scores_csv,
    save_features_csv,
    save_jsonl,
    save_labels_csv,
    save_probs_csv,
    save_scores_csv,
    validate,
)
from labelaudit.scoring import PoolingMethod, score_examples


def make_dataset(n=3, k=2, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=(n, k))
    probs = ProbMatrix(rng.random((n, k)))
    ids = tuple(f"ex{i}" for i in range(n))
    return MultiLabelDataset(labels, ids), probs


class TestValidate:
    def test_well_formed_input_is_ok(self):
        dataset = MultiLabelDataset([[1, 0], [0, 1], [1, 1]], ("a", "b", "c"))
        probs = ProbMatrix([[0.9, 0.1], [0.2, 0.8], [0.7, 0.6]])
        report = validate(dataset, probs)
        assert report.ok
        assert report.violations == ()

    def test_probability_out_of_range(self):
        dataset = MultiLabelDataset([[1, 0]], ("a",))
        probs = ProbMatrix([[1.2, 0.5]])
        report = validate(dataset, probs)
        assert not report.ok
        assert any("probability out of [0,1]" in v and "class 0" in v
                   for v in report.violations)

    def test_shape_mismatch(self):
        dataset = MultiLabelDataset(np.zeros((3, 2)), ("a", "b", "c"))
        probs = ProbMatrix(np.full((4, 2), 0.5))
        report = validate(dataset, probs)
        assert any("shape mismatch" in v for v in report.violations)

    def test_nan_probability(self):
        dataset = MultiLabelDataset([[1, 0]], ("a",))
        report = validate(dataset, ProbMatrix([[np.nan, 0.5]]))
        assert any("non-finite probability" in v for v in report.violations)

    def test_zero_positive_class_is_warning_not_error(self):
        dataset = MultiLabelDataset([[0, 1], [0, 1]], ("a", "b"))
        report = validate(dataset, ProbMatrix(np.full((2, 2), 0.5)))
        assert report.ok
        assert any("class 0 has zero positive" in w for w in report.warnings)
        assert any("class 1 has zero negative" in w for w in report.warnings)

    def test_boundary_probabilities_are_legal(self):
        dataset = MultiLabelDataset([[1, 0]], ("a",))
        report = validate(dataset, ProbMatrix([[0.0, 1.0]]))
        assert report.ok

    @pytest.mark.parametrize("corrupt", ["label", "prob_high", "prob_low", "prob_nan"])
    def test_single_entry_corruption_is_rejected(self, corrupt):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 2, size=(6, 4))
        probs = rng.random((6, 4))
        labels[0, 0] = 1  # keep class 0 two-sided
        labels[1, 0] = 0
        if corrupt == "label":
            labels[2, 1] = 2
        elif corrupt == "prob_high":
            probs[3, 2] = 1.0000001
        elif corrupt == "prob_low":
            probs[4, 3] = -0.25
        else:
            probs[5, 0] = np.nan
        dataset = MultiLabelDataset(labels, tuple(f"e{i}" for i in range(6)))
        report = validate(dataset, ProbMatrix(probs))
        assert not report.ok


class TestContainers:
    def test_true_labels_shape_enforced(self):
        with pytest.raises(ValueError, match="true_labels shape"):
            MultiLabelDataset([[1, 0]], ("a",), true_labels=[[1, 0], [0, 1]])

    def test_features_row_count_enforced(self):
        with pytest.raises(ValueError, match="features shape"):
            MultiLabelDataset([[1, 0]], ("a",), features=np.ones((3, 5)))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            MultiLabelDataset([[1], [0]], ("a", "a"))

    def test_arrays_are_immutable(self):
        dataset, probs = make_dataset()
        with pytest.raises(ValueError):
            dataset.given_labels[0, 0] = 1
        with pytest.raises(ValueError):
            probs.values[0, 0] = 0.5


class TestCsv:
    def test_labels_parse(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("id,label_0,label_1\na,1,0\n")
        ids, labels = load_labels_csv(path)
        assert ids == ["a"]
        assert labels.shape == (1, 2)
        assert labels.tolist() == [[1, 0]]

    def test_roundtrip_random_50x10(self, tmp_path):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=(50, 10))
        probs = rng.random((50, 10))
        probs[0, 0] = 0.0
        probs[0, 1] = 1.0
        probs[1, 0] = 1 / 3
        ids = [f"ex{i}" for i in range(50)]
        save_labels_csv(tmp_path / "l.csv", ids, labels)
        save_probs_csv(tmp_path / "p.csv", ids, probs)
        lids, loaded_labels = load_labels_csv(tmp_path / "l.csv")
        pids, loaded_probs = load_probs_csv(tmp_path / "p.csv")
        assert lids == ids and pids == ids
        assert np.array_equal(loaded_labels, labels)
        assert np.array_equal(loaded_probs.values, probs)  # bit-for-bit

    def test_label_value_2_names_the_cell(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("id,label_0,label_1\na,1,0\nb,2,0\n")
        with pytest.raises(DataFormatError, match=r"row 3, column label_0"):
            load_labels_csv(path)

    def test_duplicate_id_error(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("id,label_0\na,1\na,0\n")
        with pytest.raises(DataFormatError, match="duplicate example id"):
            load_labels_csv(path)

    def test_ragged_row_error(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("id,label_0,label_1\na,1\n")
        with pytest.raises(DataFormatError, match="row 2 has 2 cells"):
            load_labels_csv(path)

    def test_bad_header_error(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("id,lbl_0\na,1\n")
        with pytest.raises(DataFormatError, match="header"):
            load_labels_csv(path)

    def test_id_alignment_error(self):
        with pytest.raises(DataFormatError, match="id mismatch at row 1"):
            check_ids_aligned(["a", "b"], ["a", "c"], "labels vs probs")

    def test_scores_roundtrip(self, tmp_path):
        ids = ["a", "b", "c"]
        scores = np.array([0.25, -9.210340371976182, 1e-8])
        save_scores_csv(tmp_path / "s.csv", ids, scores)
        loaded_ids, loaded = load_scores_csv(tmp_path / "s.csv")
        assert loaded_ids == ids
        assert np.array_equal(loaded, scores)

    def test_load_dataset_with_truth_and_features(self, tmp_path):
        ids = ["a", "b"]
        save_labels_csv(tmp_path / "l.csv", ids, np.array([[1, 0], [0, 1]]))
        save_labels_csv(tmp_path / "t.csv", ids, np.array([[1, 1], [0, 1]]))
        from labelaudit.data import save_features_csv
        save_features_csv(tmp_path / "f.csv", ids, np.array([[3.0, 0.0], [1.0, 2.0]]))
        ds = load_dataset(tmp_path / "l.csv", features_path=tmp_path / "f.csv",
                          true_labels_path=tmp_path / "t.csv")
        assert ds.n_examples == 2
        assert ds.true_labels[0, 1] == 1
        assert ds.features[0, 0] == 3.0


# Ids that csv quotes (comma, quote, newline) and floats at the edges of
# the %.17g text: signed zero, nan, +-inf, the smallest subnormal, a decimal
# that 17 digits cannot hide, and an integer-valued 1e16.
GOLDEN_IDS = ["a", "b,c", 'say "hi"', "two\nlines"]
GOLDEN_FLOATS = np.array([[-0.0, np.nan], [np.inf, 5e-324], [0.1, 1e16], [1.0, -np.inf]])
GOLDEN_FLOAT_ROWS = (
    b'a,-0,nan\r\n'
    b'"b,c",inf,4.9406564584124654e-324\r\n'
    b'"say ""hi""",0.10000000000000001,10000000000000000\r\n'
    b'"two\nlines",1,-inf\r\n'
)


FLOAT_CELLS = [
    "1_0", " 1.5 ", "inf", "-nan", "１", "1e500", "-0", "+.5", "5.", "Infinity", "١٢",
    "", "0x1p3", "1,5", "1__0", "nan(1)", "1d0", ".",
]


class TestCsvBytes:
    """The exact bytes of every CSV writer, and the loaders' first-error order."""

    def test_labels_bytes(self, tmp_path):
        save_labels_csv(tmp_path / "l.csv", GOLDEN_IDS, np.array([[1, 0], [0, 1], [1, 1], [0, 0]]))
        assert (tmp_path / "l.csv").read_bytes() == (
            b'id,label_0,label_1\r\na,1,0\r\n"b,c",0,1\r\n"say ""hi""",1,1\r\n'
            b'"two\nlines",0,0\r\n'
        )

    @pytest.mark.parametrize("save, prefix", [(save_probs_csv, b"prob"),
                                              (save_features_csv, b"feat")])
    def test_float_matrix_bytes(self, tmp_path, save, prefix):
        save(tmp_path / "m.csv", GOLDEN_IDS, GOLDEN_FLOATS)
        header = b"id,%s_0,%s_1\r\n" % (prefix, prefix)
        assert (tmp_path / "m.csv").read_bytes() == header + GOLDEN_FLOAT_ROWS

    def test_probs_bytes_from_prob_matrix(self, tmp_path):
        save_probs_csv(tmp_path / "p.csv", GOLDEN_IDS, ProbMatrix(GOLDEN_FLOATS))
        assert (tmp_path / "p.csv").read_bytes() == b"id,prob_0,prob_1\r\n" + GOLDEN_FLOAT_ROWS

    def test_scores_bytes(self, tmp_path):
        save_scores_csv(tmp_path / "s.csv", GOLDEN_IDS, np.array([-0.0, 5e-324, 1e16, np.nan]))
        assert (tmp_path / "s.csv").read_bytes() == (
            b'id,score\r\na,-0\r\n"b,c",4.9406564584124654e-324\r\n'
            b'"say ""hi""",10000000000000000\r\n"two\nlines",nan\r\n'
        )

    @given(ids=st.lists(st.text(alphabet='ab ,;"\r\n\t%\'é', max_size=6),
                        min_size=1, max_size=5, unique=True))
    def test_ids_written_as_csv_writer_writes_them(self, tmp_path_factory, ids):
        path = tmp_path_factory.mktemp("ids") / "s.csv"
        scores = np.arange(len(ids), dtype=np.float64)
        save_scores_csv(path, ids, scores)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["id", "score"])
        writer.writerows([ex_id, format(s, ".17g")] for ex_id, s in zip(ids, scores))
        assert path.read_bytes() == expected.getvalue().encode()
        assert load_scores_csv(path)[0] == ids

    def test_zero_width_matrix_bytes(self, tmp_path):
        # csv quotes an empty field only when it is alone on its row
        save_labels_csv(tmp_path / "l.csv", ["", "a"], np.zeros((2, 0)))
        assert (tmp_path / "l.csv").read_bytes() == b'id\r\n""\r\na\r\n'

    @pytest.mark.parametrize("value", [2, 0.5, -1, np.nan])
    def test_labels_outside_0_1_not_written(self, tmp_path, value):
        labels = np.array([[1, 0, 1], [0, 1, value]], dtype=type(value))
        path = tmp_path / "l.csv"
        with pytest.raises(ValueError) as info:
            save_labels_csv(path, ["a", "b"], labels)
        assert str(info.value) == f"label {labels[1, 2]} not in {{0,1}} at (example 1, class 2)"
        assert not path.exists()

    @settings(max_examples=60)
    @given(n=st.sampled_from([0, 1, 999, 1000, 1001, 2500]) | st.integers(0, 2100),
           k=st.sampled_from([0, 1, 50]),
           dtype=st.sampled_from([bool, np.int8, np.float64]),
           special=st.lists(st.tuples(st.integers(0, 2500),
                                      st.text(alphabet='ab ,"\r\n', max_size=4)),
                            max_size=6),
           seed=st.integers(0, 2**32 - 1))
    def test_labels_written_as_csv_writer_writes_them(self, tmp_path_factory, n, k, dtype,
                                                      special, seed):
        # ids that need quoting, and empty ones, placed anywhere in the blocks
        ids = [f"ex{i}" for i in range(n)]
        for position, ex_id in special:
            if n:
                ids[position % n] = ex_id
        labels = np.random.default_rng(seed).integers(0, 2, size=(n, k)).astype(dtype)
        path = tmp_path_factory.mktemp("labels") / "l.csv"
        save_labels_csv(path, ids, labels)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["id"] + [f"label_{c}" for c in range(k)])
        writer.writerows([ex_id, *("%d" % v for v in row)] for ex_id, row in zip(ids, labels))
        assert path.read_bytes() == expected.getvalue().encode()

    def test_first_bad_row_is_reported(self, tmp_path):
        # row 3 holds a bad cell, row 5 repeats an id: row 3 comes first
        path = tmp_path / "l.csv"
        path.write_text("id,label_0,label_1\na,1,0\nb,0,x\nc,1,1\na,0,0\n")
        with pytest.raises(DataFormatError, match=r"row 3, column label_1: label value 'x'"):
            load_labels_csv(path)
        path.write_text("id,label_0,label_1\na,1,0\nb,0,1\nc,1\na,0,0\nd,1,2\n")
        with pytest.raises(DataFormatError, match=r"row 4 has 2 cells, expected 3"):
            load_labels_csv(path)
        path.write_text("id,prob_0\na,0.5\nb,0.5\na,0.5\nc,half\n")
        with pytest.raises(DataFormatError, match=r"duplicate example id 'a' at row 4"):
            load_probs_csv(path)
        path.write_text("id,feat_0,feat_1\na,1,2\nb,3,-1\nc,nan,0\n")
        with pytest.raises(DataFormatError,
                           match=r"row 3, column feat_1: feature value '-1' is not a non-negative"):
            load_features_csv(path)

    def test_padded_label_loads(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("id,label_0,label_1\na, 1,0\nb,0,1 \n")
        assert load_labels_csv(path)[1].tolist() == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("cell", [
        "2", "1.0", "", "１", "true",
        pytest.param("1\x00", marks=pytest.mark.skipif(
            sys.version_info < (3, 11), reason="csv reads NUL characters from Python 3.11")),
    ])
    def test_label_outside_0_1_rejected(self, tmp_path, cell):
        path = tmp_path / "l.csv"
        path.write_text(f"id,label_0\na,0\nb,{cell}\n", newline="")
        message = f"row 3, column label_0: label value {cell!r} is not 0 or 1"
        with pytest.raises(DataFormatError) as info:
            load_labels_csv(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("cell", FLOAT_CELLS)
    def test_probability_cell_parsed_as_float_parses_it(self, tmp_path, cell):
        path = tmp_path / "p.csv"
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows([["id", "prob_0"], ["a", "0.5"], ["b", cell]])
        try:
            expected = float(cell)
        except ValueError as exc:
            with pytest.raises(DataFormatError) as info:
                load_probs_csv(path)
            assert str(info.value) == f"{path}: row 3, column prob_0: {exc}"
        else:
            loaded = load_probs_csv(path)[1].values
            assert loaded[1].view(np.uint64) == np.array([expected]).view(np.uint64)

    @pytest.mark.parametrize("cell", ["-1", "-inf", "inf", "nan", "-1e-320"])
    def test_bad_feature_rejected(self, tmp_path, cell):
        path = tmp_path / "f.csv"
        path.write_text(f"id,feat_0,feat_1\na,1,2\nb,3,{cell}\n")
        with pytest.raises(DataFormatError) as info:
            load_features_csv(path)
        assert str(info.value) == (
            f"{path}: row 3, column feat_1: feature value {cell!r} is not a non-negative number"
        )

    def test_every_row_too_wide(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("id,label_0,label_1\na,1,0,1\nb,0,1,1\n")
        with pytest.raises(DataFormatError, match=r"row 2 has 4 cells, expected 3"):
            load_labels_csv(path)

    def test_feature_cell_parsed_as_float_parses_it(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,feat_0,feat_1\na,1_0, 2.5 \n")
        assert load_features_csv(path)[1].tolist() == [[10.0, 2.5]]

    @pytest.mark.parametrize("save, load", [(save_probs_csv, load_probs_csv),
                                            (save_features_csv, load_features_csv)])
    def test_random_bits_roundtrip(self, tmp_path, save, load):
        rng = np.random.default_rng(17)
        values = rng.integers(0, 2**64, size=10_000, dtype=np.uint64).view(np.float64)
        values[:50] = rng.integers(1, 2**52, size=50, dtype=np.uint64).view(np.float64)
        # 2500 rows: more than one block of the writers
        values = np.abs(np.where(np.isfinite(values), values, 0.5)).reshape(2500, 4)
        assert (values[values > 0] < np.finfo(np.float64).tiny).sum() >= 50  # subnormals
        ids = [f"e{i}" for i in range(2500)]
        save(tmp_path / "m.csv", ids, values)
        loaded = load(tmp_path / "m.csv")[1]
        loaded = getattr(loaded, "values", loaded)
        assert np.array_equal(loaded.view(np.uint64), values.view(np.uint64))

    def test_scores_row_width_checked(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"id,score\r\nex0,0.5,junk\r\nex1,0.7\r\n")
        with pytest.raises(DataFormatError, match=r"row 2 has 3 cells, expected 2"):
            load_scores_csv(path)

    def test_scores_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"id,score\r\nex0,0.5\r\nex0,0.7\r\n")
        with pytest.raises(DataFormatError, match=r"duplicate example id 'ex0' at row 3"):
            load_scores_csv(path)

    def test_scores_first_bad_row_is_reported(self, tmp_path):
        # row 2 holds a bad score, row 4 repeats an id: row 2 comes first
        path = tmp_path / "s.csv"
        path.write_bytes(b"id,score\r\nex0,x\r\nex1,0.5\r\nex0,0.7\r\n")
        with pytest.raises(DataFormatError) as info:
            load_scores_csv(path)
        assert str(info.value) == (
            f"{path}: row 2, column score: could not convert string to float: 'x'"
        )
        path.write_bytes(b"id,score\r\nex0,0.5\r\nex1,1_0\r\nex0,x\r\n")
        with pytest.raises(DataFormatError, match=r"duplicate example id 'ex0' at row 4"):
            load_scores_csv(path)

    def test_empty_matrix_loads(self, tmp_path):
        save_probs_csv(tmp_path / "p.csv", [], np.zeros((0, 3)))
        ids, probs = load_probs_csv(tmp_path / "p.csv")
        assert ids == [] and probs.values.shape == (0, 3)

    def test_oversized_field_is_a_format_error(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("id,label_0\na,0\n" + "x" * (csv.field_size_limit() + 1) + ",1\n")
        with pytest.raises(DataFormatError, match="line 3: field larger than field limit"):
            load_labels_csv(path)

    def test_non_utf8_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_bytes(b"id,label_0\n\xff\xfe,1\n")
        with pytest.raises(DataFormatError, match="can't decode byte 0xff"):
            load_labels_csv(path)


SCANS = {
    load_probs_csv: ("prob", float),
    load_labels_csv: ("label", data._parse_binary_cell),
    load_features_csv: ("feat", data._parse_count_cell),
}


def _outcome(load, path):
    """The ids and value bits ``load`` reads from ``path``, or its DataFormatError text."""
    try:
        ids, values = load(path)
    except DataFormatError as exc:
        return str(exc)
    values = np.asarray(getattr(values, "values", values), dtype=np.float64)
    return ids, values.shape, values.tobytes()


def assert_loads_as_scan(load, path):
    """``load`` reads ``path`` as csv.reader with a per-cell parse does, bit for bit."""
    prefix, parse_cell = SCANS[load]
    width_of = partial(data._check_header, prefix=prefix)
    scanned = _outcome(lambda p: data._scan_matrix_csv(p, width_of, parse_cell), path)
    assert _outcome(load, path) == scanned


# Characters on which float() and np.loadtxt may disagree: signs, exponents,
# underscores, comments, quotes, NUL, ASCII and Unicode whitespace (loadtxt
# strips \x1c-\x1f, float() does not) and non-ASCII digits.
CELL_CHARS = st.sampled_from(list("0123456789+-_.eE \t\x0b#\"\0,\x1c\x1fnaif") +
                             ["١", "１", "　", "\x85"])


class TestBlockReader:
    """The block reader loads what the per-cell scan loads and fails where it fails."""

    @pytest.mark.parametrize("cell", FLOAT_CELLS + ["\x1c1", "1\x1f", "1\0", '"1"', "#1", "1 #"])
    def test_cell_loads_as_float_scan(self, tmp_path, cell):
        path = tmp_path / "p.csv"
        path.write_bytes(f"id,prob_0\na,0.5\nb,{cell}\n".encode())
        assert_loads_as_scan(load_probs_csv, path)

    @given(cells=st.lists(st.text(CELL_CHARS, max_size=5), min_size=1, max_size=4))
    def test_random_cells_load_as_float_scan(self, tmp_path_factory, cells):
        path = tmp_path_factory.mktemp("cells") / "p.csv"
        rows = "".join(f"e{i},{cell}\r\n" for i, cell in enumerate(cells))
        path.write_bytes(("id,prob_0\r\n" + rows).encode())
        assert_loads_as_scan(load_probs_csv, path)

    @pytest.mark.parametrize("load", list(SCANS))
    @pytest.mark.parametrize("body", [
        "a,1,0\n\nb,0,1\n",                   # a blank line mid-file
        "a,1,0\nb,0,1\n",                     # \n only
        "a,1,0\rb,0,1\r",                     # \r only
        "a,1,0\r\nb,0,1",                     # no final newline
        "a,1,0\r\nb,0,1\n\n",                 # a blank last line
        '"a,1",1,0\r\n"b,""2""",0,1\r\n',     # quoted ids holding commas and quotes
        "a,1,0,1\nb,0,1\n",                   # a too-wide row
        "a,1,0,1,1\n\n",                      # too wide then blank: the comma total fits
        "a,1,0,1\nb,0\n",                     # too wide then too narrow: so does this
        "a,1,0\na,0,1\n",                     # a repeated id
        "a\nb,0,1,1\n",                       # an id alone
        "",                                   # no rows
    ])
    def test_file_loads_as_scan(self, tmp_path, load, body):
        path = tmp_path / "m.csv"
        prefix = SCANS[load][0]
        path.write_bytes(f"id,{prefix}_0,{prefix}_1\n{body}".encode())
        assert_loads_as_scan(load, path)

    @pytest.mark.parametrize("load", list(SCANS))
    def test_second_block_loads_as_scan(self, tmp_path, load):
        n = data._BLOCK_LINES + 100
        prefix = SCANS[load][0]
        rows = [f"e{i},1,0\n" for i in range(n)]
        path = tmp_path / "m.csv"
        for r, bad in [(n - 50, "e{i},1,x\n"), (n - 60, "e0,1,0\n"), (n - 70, '"e{i}",1,0\n'),
                       (n - 80, "e{i},1\n")]:
            changed = rows.copy()
            changed[r] = bad.format(i=r)
            path.write_bytes(f"id,{prefix}_0,{prefix}_1\n{''.join(changed)}".encode())
            assert_loads_as_scan(load, path)

    @settings(max_examples=60)
    @given(lines=st.lists(st.tuples(
        st.sampled_from(["e0", "e1", "e2", "e3", '"e,4"', ""]),
        st.lists(st.sampled_from(["0", "1", "0.5", " 1", "1_0", "x", ""]), max_size=3),
        st.sampled_from(["\n", "\r\n", "\r"])), max_size=7))
    def test_random_files_load_as_scan_in_small_blocks(self, tmp_path_factory, lines):
        body = "".join(",".join([ex_id, *cells]) + end for ex_id, cells, end in lines)
        path = tmp_path_factory.mktemp("files") / "m.csv"
        with mock.patch.object(data, "_BLOCK_LINES", 2):
            for load, (prefix, _) in SCANS.items():
                path.write_bytes(f"id,{prefix}_0,{prefix}_1\n{body}".encode())
                assert_loads_as_scan(load, path)

    def test_field_size_limit_holds(self, tmp_path):
        limit = csv.field_size_limit(100)
        try:
            path = tmp_path / "p.csv"
            # a 130-character line of short fields loads
            path.write_bytes(("id," + ",".join(f"prob_{k}" for k in range(32)) + "\n"
                              "a" + ",0.5" * 32 + "\n").encode())
            assert_loads_as_scan(load_probs_csv, path)
            assert load_probs_csv(path)[1].values.tolist() == [[0.5] * 32]
            path.write_bytes(("id,prob_0\na," + "0" * 101 + "\n").encode())
            assert_loads_as_scan(load_probs_csv, path)
            with pytest.raises(DataFormatError, match="field larger than field limit"):
                load_probs_csv(path)
        finally:
            csv.field_size_limit(limit)

    @pytest.mark.parametrize("body", [
        "a,0.5\nb,-1e-3\n",                   # plain
        '"a,1",0.5\r\n"b",1_0\r\n',            # quoted ids, a cell only float() takes
        "a,0.5\nb,x\nc,0.5,1\n",               # a bad cell before a too-wide row
        "a,0.5\n\nb,0.5\n",                    # a blank line
        "a,0.5\na,x\n",                        # a repeated id before a bad cell
    ])
    def test_scores_file_loads_as_scan(self, tmp_path, body):
        path = tmp_path / "s.csv"
        path.write_bytes(f"id,score\n{body}".encode())

        def load_as_column(p):
            ids, scores = load_scores_csv(p)
            return ids, scores[:, None]

        scan = partial(data._scan_matrix_csv, width_of=data._check_scores_header, parse_cell=float)
        assert _outcome(load_as_column, path) == _outcome(scan, path)

    @pytest.mark.parametrize("end, last", [("\n", "\n"), ("\r\n", ""), ("\r", "\r")])
    def test_plain_file_is_read_in_blocks(self, tmp_path, end, last):
        n = 2 * data._BLOCK_LINES + 3
        ids = [f"e{i}" for i in range(n)]
        path = tmp_path / "m.csv"

        def write(header, cells):
            path.write_bytes((end.join([header] + [f"{i},{cells}" for i in ids]) + last).encode())

        with mock.patch.object(data, "_scan_matrix_csv", side_effect=AssertionError("scanned")):
            write("id,prob_0,prob_1,prob_2", "0.25,1,0")
            assert load_probs_csv(path)[1].values.tolist() == [[0.25, 1, 0]] * n
            write("id,feat_0,feat_1,feat_2", "0.25,1,0")
            assert load_features_csv(path)[1].tolist() == [[0.25, 1, 0]] * n
            write("id,label_0,label_1", "1,0")
            assert load_labels_csv(path)[1].tolist() == [[1, 0]] * n
            write("id,score", "0.5")
            assert load_scores_csv(path) == (ids, pytest.approx([0.5] * n))

    @pytest.mark.parametrize("id_format", ["ex{}", "ex,{}"], ids=["plain", "quoted"])
    def test_load_memory_is_bounded(self, tmp_path, id_format):
        # every cell held as a Python string would take ~12x the array; a
        # quoted id sends the file through the per-cell scan
        rng = np.random.default_rng(5)
        values = rng.random((20_000, 50))
        path = tmp_path / "p.csv"
        save_probs_csv(path, [id_format.format(i) for i in range(len(values))], values)
        tracemalloc.start()
        try:
            _, probs = load_probs_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(probs.values, values)
        assert peak < 3 * values.nbytes


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        dataset, probs = make_dataset(n=20, k=4, seed=3)
        save_jsonl(tmp_path / "d.jsonl", dataset, probs)
        loaded_ds, loaded_probs = load_jsonl(tmp_path / "d.jsonl")
        assert loaded_ds.example_ids == dataset.example_ids
        assert np.array_equal(loaded_ds.given_labels, dataset.given_labels)
        assert np.array_equal(loaded_probs.values, probs.values)

    def test_load_dataset_jsonl_format(self, tmp_path):
        dataset, probs = make_dataset(n=5, k=2, seed=9)
        save_jsonl(tmp_path / "d.jsonl", dataset, probs)
        loaded = load_dataset(tmp_path / "d.jsonl", format="jsonl")
        assert np.array_equal(loaded.given_labels, dataset.given_labels)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            load_dataset(tmp_path / "d.xml", format="xml")

    def test_bad_label_value(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "labels": [0, 2], "probs": [0.1, 0.2]}\n')
        with pytest.raises(DataFormatError, match="labels must be 0/1"):
            load_jsonl(path)

    @pytest.mark.parametrize("label", ["0.7", "1.0", "true", "false", '"1"', "null", "[1]"])
    def test_non_integer_label_names_its_line(self, tmp_path, label):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "labels": [0, 1]}\n'
                        f'{{"id": "b", "labels": [{label}, 1]}}\n')
        with pytest.raises(DataFormatError) as info:
            load_jsonl(path)
        assert str(info.value) == f"{path}: line 2: labels must be 0/1, got {json.loads(label)!r}"

    def test_labels_only_file_loads(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "labels": [0, 1]}\n{"id": "b", "labels": [1, 1]}\n')
        dataset = load_dataset(path, format="jsonl")
        assert dataset.example_ids == ("a", "b")
        assert dataset.given_labels.tolist() == [[0, 1], [1, 1]]
        assert load_jsonl(path)[1] is None

    def test_probs_on_some_rows_only_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "labels": [0, 1], "probs": [0.1, 0.2]}\n'
                        '{"id": "b", "labels": [1, 1]}\n')
        with pytest.raises(DataFormatError, match=r"inconsistent row widths \[0, 2\]"):
            load_dataset(path, format="jsonl")

    @pytest.mark.parametrize("probs", ['[0.1, "x"]', "null", "[0.1, null]", "0.5"])
    def test_bad_probs_entry_names_its_line(self, tmp_path, probs):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "labels": [0, 1], "probs": [0.1, 0.2]}\n'
                        f'{{"id": "b", "labels": [1, 1], "probs": {probs}}}\n')
        with pytest.raises((TypeError, ValueError)) as parsed:
            [float(v) for v in json.loads(probs)]
        with pytest.raises(DataFormatError) as info:
            load_jsonl(path)
        assert str(info.value) == f"{path}: line 2: {parsed.value}"

    def test_duplicate_id_named(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "labels": [0]}\n{"id": "b", "labels": [1]}\n'
                        '{"id": "a", "labels": [1]}\n')
        with pytest.raises(DataFormatError) as info:
            load_jsonl(path)
        assert str(info.value) == f"{path}: line 3: duplicate example id 'a'"

    def test_inconsistent_width(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "labels": [0], "probs": [0.1]}\n'
                        '{"id": "b", "labels": [0, 1], "probs": [0.1, 0.2]}\n')
        with pytest.raises(DataFormatError, match="inconsistent row widths"):
            load_jsonl(path)


@given(
    n=st.integers(1, 12),
    k=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_roundtrip_property(tmp_path_factory, n, k, seed):
    rng = np.random.default_rng(seed)
    label_matrix = rng.integers(0, 2, size=(n, k))
    probs = rng.random((n, k))
    ids = [f"r{i}" for i in range(n)]
    tmp = tmp_path_factory.mktemp("roundtrip")
    save_labels_csv(tmp / "l.csv", ids, label_matrix)
    save_probs_csv(tmp / "p.csv", ids, probs)
    lids, loaded_labels = load_labels_csv(tmp / "l.csv")
    _, loaded_probs = load_probs_csv(tmp / "p.csv")
    assert np.array_equal(loaded_labels, label_matrix)
    assert np.array_equal(loaded_probs.values, probs)
    report = validate(MultiLabelDataset(loaded_labels, tuple(lids)), loaded_probs)
    assert report.ok


class TestLibraryInputChecks:
    """score_examples and flag_multilabel reject what validate() reports."""

    ENTRY_POINTS = {
        "score_examples": lambda labels, probs: score_examples(labels, probs, PoolingMethod("ema")),
        "flag_multilabel": flag_multilabel,
    }

    @staticmethod
    def instance():
        rng = np.random.default_rng(11)
        return rng.integers(0, 2, size=(30, 3)), rng.random((30, 3))

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("bad, message", [
        ("nan", r"non-finite probability \(nan\) at \(example 4, class 1\)"),
        ("inf", r"non-finite probability \(inf\) at \(example 4, class 1\)"),
        ("high", r"probability out of \[0,1\] \(1.5\) at \(example 4, class 1\)"),
        ("negative", r"probability out of \[0,1\] \(-0.25\) at \(example 4, class 1\)"),
        ("label", r"label 2 not in \{0,1\} at \(example 4, class 1\)"),
    ])
    def test_bad_cell_raises_value_error(self, entry, bad, message):
        labels, probs = self.instance()
        if bad == "label":
            labels[4, 1] = 2
        else:
            probs[4, 1] = {"nan": np.nan, "inf": np.inf, "high": 1.5, "negative": -0.25}[bad]
        with pytest.raises(ValueError, match=message):
            self.ENTRY_POINTS[entry](labels, probs)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_shape_mismatch_raises_value_error(self, entry):
        labels, probs = self.instance()
        with pytest.raises(ValueError, match="labels shape"):
            self.ENTRY_POINTS[entry](labels, probs[:, :2])

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_boundary_values_accepted(self, entry):
        labels, probs = self.instance()
        probs[0, 0], probs[1, 1] = 0.0, 1.0
        self.ENTRY_POINTS[entry](labels.astype(bool), probs)
