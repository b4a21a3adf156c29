import csv
import io
import json
import math
import re
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from labelaudit import cli, data
from labelaudit.confident import flag_multilabel
from labelaudit.data import (
    DataFormatError,
    MultiLabelDataset,
    check_ids_aligned,
    check_labels_probs,
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
)
from labelaudit.model import CVConfig, TrainConfig, cross_val_pred_probs, predict_proba, train
from labelaudit.scoring import PoolingMethod, score_examples, self_confidence
from labelaudit.synth import LARGE, GenConfig, draw_noise_spec, gen_multilabel, inject_noise


def make_dataset(n=3, k=2, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=(n, k))
    probs = rng.random((n, k))
    ids = tuple(f"ex{i}" for i in range(n))
    return MultiLabelDataset(labels, ids), probs


# "1" and b"1" look like valid labels, but they are not numbers
STRING_LABELS = [[["1", "0"]], np.array([[b"1", b"0"]])]


def not_numbers(labels):
    return rf"^labels are not numbers \(dtype {re.escape(str(np.asarray(labels).dtype))}\)$"


class TestValidate:
    """check_labels_probs: the one check of labels against probabilities."""

    def test_well_formed_input_is_ok(self):
        labels = [[1, 0], [0, 1], [1, 1]]
        probs = [[0.9, 0.1], [0.2, 0.8], [0.7, 0.6]]
        checked_labels, checked_probs = check_labels_probs(labels, probs)
        assert np.array_equal(checked_labels, labels) and checked_labels.dtype == np.int8
        assert np.array_equal(checked_probs, probs)

    def test_probability_out_of_range(self):
        with pytest.raises(ValueError, match=r"probability out of \[0,1\] .*class 0"):
            check_labels_probs([[1, 0]], [[1.2, 0.5]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            check_labels_probs(np.zeros((3, 2)), np.full((4, 2), 0.5))

    def test_nan_probability(self):
        with pytest.raises(ValueError, match="non-finite probability"):
            check_labels_probs([[1, 0]], [[np.nan, 0.5]])

    def test_boundary_probabilities_are_legal(self):
        check_labels_probs([[1, 0]], [[0.0, 1.0]])

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
        with pytest.raises(ValueError):
            check_labels_probs(labels, probs)

    @pytest.mark.parametrize("labels", STRING_LABELS, ids=["str", "bytes"])
    def test_string_labels_are_not_numbers(self, labels):
        with pytest.raises(ValueError, match=not_numbers(labels)):
            check_labels_probs(labels, [[0.5, 0.5]])

    @pytest.mark.parametrize("labels, message", [
        ([[0, 2]], r"^label 2 not in \{0,1\} at \(example 0, class 1\)$"),
        ([[0.5, 1.0]], r"^label 0.5 not in \{0,1\} at \(example 0, class 0\)$"),
        ([[True, False]], None),
    ], ids=["int", "float", "bool"])
    def test_numeric_and_bool_labels_keep_their_messages(self, labels, message):
        if message is None:
            assert check_labels_probs(labels, [[0.5, 0.5]])[0].tolist() == [[1, 0]]
        else:
            with pytest.raises(ValueError, match=message):
                check_labels_probs(labels, [[0.5, 0.5]])


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

    @pytest.mark.parametrize("value", [0.5, 1.7, 256])
    @pytest.mark.parametrize("field", ["given_labels", "true_labels"])
    def test_label_outside_0_1_rejected_at_construction(self, field, value):
        # neither truncated (0.5 -> 0, 1.7 -> 1) nor wrapped into int8 (256 -> 0)
        matrices = {"given_labels": [[1, 0], [0, 1]], "true_labels": [[1, 0], [0, 1]]}
        matrices[field] = [[1, 0], [0, value]]
        message = rf"^label {value} not in \{{0,1\}} at \(example 1, class 1\)$"
        with pytest.raises(ValueError, match=message):
            MultiLabelDataset(example_ids=("a", "b"), **matrices)

    @pytest.mark.parametrize("labels", STRING_LABELS, ids=["str", "bytes"])
    @pytest.mark.parametrize("field", ["given_labels", "true_labels"])
    def test_string_labels_rejected_at_construction(self, field, labels):
        matrices = {"given_labels": [[1, 0]], "true_labels": [[1, 0]], field: labels}
        with pytest.raises(ValueError, match=not_numbers(labels)):
            MultiLabelDataset(example_ids=("a",), **matrices)

    def test_arrays_are_immutable(self):
        dataset, _ = make_dataset()
        with pytest.raises(ValueError):
            dataset.given_labels[0, 0] = 1


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
        assert np.array_equal(loaded_probs, probs)  # bit-for-bit

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
    # the decimal kernel's edges: zeros and the sign bit, the longest digit
    # run, the most significant digits it takes and one more, the exponent
    # forms of %.17g and %.18e, and exponents past its power table
    "0", "0.", "-0.0", "0.0001234567890123456789", "9999999999999999999",
    "12345678901234567890", "1e-05", "1.0000000000000001e-15", "9.9999999999999989e-01",
    "4.9e-324", "1e308", "1E5", "-1.5e+02",
    # integer parts of more than one digit: 19 significant digits in all,
    # the most it takes, and 20, past what a uint64 holds
    "12.5", "-12.", "1234567890.123456789", "9999999999.999999999", "9999999999.9999999999",
    # hard cases (Paxson 1991): m * 10**q within ~2**-100 of a midpoint
    # between two doubles but not on it. m solves m * 5**q = 2**t + d
    # (mod 2**(t+1)) for q > 0, or m * 2**v = d (mod 5**-q) for q < 0, with
    # a small d != 0. The double-double sum rounds each to the wrong side,
    # so only _scaled's rounding guard sends them to float()
    "9833915031184117609e-27", "9.563986580233236512e-07", "86851929706888939e-23",
    "4264501682519814635e19", "4.9968684148502663e+38", "276177892680255903e24",
]


class TestCsvBytes:
    """The exact bytes of every CSV writer, and the loaders' first-error order."""

    def test_labels_bytes(self, tmp_path):
        save_labels_csv(tmp_path / "l.csv", GOLDEN_IDS, np.array([[1, 0], [0, 1], [1, 1], [0, 0]]))
        assert (tmp_path / "l.csv").read_bytes() == (
            b'id,label_0,label_1\r\na,1,0\r\n"b,c",0,1\r\n"say ""hi""",1,1\r\n'
            b'"two\nlines",0,0\r\n'
        )

    @pytest.mark.parametrize("save, prefix", [(save_probs_csv, b"prob")])
    def test_float_matrix_bytes(self, tmp_path, save, prefix):
        save(tmp_path / "m.csv", GOLDEN_IDS, GOLDEN_FLOATS)
        header = b"id,%s_0,%s_1\r\n" % (prefix, prefix)
        assert (tmp_path / "m.csv").read_bytes() == header + GOLDEN_FLOAT_ROWS

    def test_features_golden_floats_not_written(self, tmp_path):
        # -0.0 is a valid count; the nan after it is the first bad cell
        path = tmp_path / "f.csv"
        with pytest.raises(ValueError) as info:
            save_features_csv(path, GOLDEN_IDS, GOLDEN_FLOATS)
        assert str(info.value) == (
            "feature value nan is not a non-negative number at (example 0, column 1)"
        )
        assert not path.exists()

    @pytest.mark.parametrize("features, message", [
        ([[1, -2], [np.nan, 3]], "feature value -2.0 is not a non-negative number at (example 0, column 1)"),
        ([[1, 2], [np.nan, 3]], "feature value nan is not a non-negative number at (example 1, column 0)"),
        ([[1, 2], [3, np.inf]], "feature value inf is not a non-negative number at (example 1, column 1)"),
        ([[1, 2], [-np.inf, 0]], "feature value -inf is not a non-negative number at (example 1, column 0)"),
        ([[0.5, -1e-300]], "feature value -1e-300 is not a non-negative number at (example 0, column 1)"),
    ], ids=["negative", "nan", "inf", "-inf", "tiny-negative"])
    def test_features_outside_domain_not_written(self, tmp_path, features, message):
        path = tmp_path / "f.csv"
        with pytest.raises(ValueError) as info:
            save_features_csv(path, [f"e{i}" for i in range(len(features))], np.array(features))
        assert str(info.value) == message
        assert not path.exists()

    @pytest.mark.parametrize("features, cell_fmt", [
        ([[0.0, 1.0, 2.0**53 - 1], [2.0**53 - 2, 12345.0, 0.0]], "%d"),
        (np.arange(2**53 - 3000, 2**53, dtype=np.int64).reshape(1000, 3), "%d"),
        ([[1.0, 2.0], [3.5, 4.0]], "%.17g"),
        ([[0.0, -0.0], [1.0, 2.0]], "%.17g"),
        ([[1e17, 2.0**53], [1.0, 0.0]], "%.17g"),
        ([[2.0**53, 1.0]], "%.17g"),
    ], ids=["whole", "whole-near-2**53", "one-fraction", "negative-zero", "1e17", "2**53"])
    def test_features_bytes_are_the_float_rendering(self, tmp_path, features, cell_fmt):
        # whole counts below 2**53 go through "%d", which writes the bytes "%.17g" writes
        values = np.asarray(features, dtype=np.float64)
        ids = [f"e{i}" for i in range(len(values))]
        path = tmp_path / "f.csv"
        with mock.patch.object(data, "write_csv_rows", wraps=data.write_csv_rows) as write:
            save_features_csv(path, ids, features)
        assert set(write.call_args.args[4]) == {cell_fmt}
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["id"] + [f"feat_{d}" for d in range(values.shape[1])])
        writer.writerows([ex_id, *map(data._fmt_float, row)] for ex_id, row in zip(ids, values))
        assert path.read_bytes() == expected.getvalue().encode()

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
            loaded = load_probs_csv(path)[1]
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
        assert ids == [] and probs.shape == (0, 3)

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


def _csv_writer_bytes(header, ids, columns):
    """What csv.writer writes for ``header`` and per id its ``"%d"`` cells."""
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    rows = zip(ids, *(col.tolist() for col in columns))
    writer.writerows([ex_id, *("%d" % v for v in cells)] for ex_id, *cells in rows)
    return expected.getvalue().encode()


# Values with every digit count the writers meet, per column dtype
EDGE_VALUES = {
    bool: [False, True],
    np.int8: [0, 1, 9, 10, 127],
    np.uint8: [0, 1, 9, 10, 99, 100, 255],
    np.int64: [0, 9, 10, 999, 1000, 2**31 - 1, 2**31, 2**53 - 1],
}
# Ids that csv quotes, empty ids, and ids the byte grid cannot hold
SPECIAL_IDS = ["a,b", 'say "hi"', "two\nlines", "", "é", "a\0b"]


class TestIntegerGrid:
    """write_csv_rows lays integer blocks out as one byte grid, with the bytes of %-format."""

    @settings(max_examples=120, deadline=None)
    @given(n=st.sampled_from([0, 1, 7, 8, 15]) | st.integers(0, 40),
           width=st.sampled_from([0, 1, 50]),
           dtypes=st.lists(st.sampled_from(list(EDGE_VALUES)), min_size=1, max_size=3),
           as_matrix=st.booleans(),
           block_rows=st.sampled_from([1, 7, 1000]),
           special=st.lists(st.tuples(st.integers(0, 40), st.sampled_from(SPECIAL_IDS)),
                            max_size=4),
           negative_rows=st.lists(st.integers(0, 40), max_size=2),
           seed=st.integers(0, 2**32 - 1))
    def test_bytes_are_those_of_the_row_writer(self, tmp_path_factory, n, width, dtypes,
                                               as_matrix, block_rows, special, negative_rows,
                                               seed):
        # special ids and negative values make their blocks fall back beside grid blocks
        rng = np.random.default_rng(seed)
        ids = [f"ex{i}" for i in range(n)]
        for position, ex_id in special:
            if n:
                ids[position % n] = ex_id
        if as_matrix:  # one matrix, passed transposed, as the matrix writers pass it
            dtype = dtypes[0]
            matrix = rng.choice(EDGE_VALUES[dtype], size=(n, width)).astype(dtype)
            columns = matrix.T
        else:  # one array per column, of mixed dtypes
            columns = [rng.choice(EDGE_VALUES[dtypes[c % len(dtypes)]], size=n)
                       .astype(dtypes[c % len(dtypes)]) for c in range(width)]
        signed = [col for col in columns if col.dtype.kind == "i"]
        for row in negative_rows:
            if n and signed:
                signed[row % len(signed)][row % n] = -row - 1
        header = ["id"] + [f"c{c}" for c in range(width)]
        tmp = tmp_path_factory.mktemp("grid")
        with mock.patch.object(data, "_BLOCK_ROWS", block_rows):
            data.write_csv_rows(tmp / "grid.csv", header, ids, columns, ["%d"] * width)
        reference.write_csv_rows(tmp / "rows.csv", header, ids, columns, ["%d"] * width)
        written = (tmp / "grid.csv").read_bytes()
        assert written == (tmp / "rows.csv").read_bytes()
        if sys.version_info >= (3, 11) or not any("\0" in ex_id for ex_id in ids):
            assert written == _csv_writer_bytes(header, ids, columns)  # csv writes NUL from 3.11

    def test_generated_blocks_take_the_grid(self, tmp_path):
        # no block of gen's labels, truth or counts falls back to %-formatting
        dataset = gen_multilabel(replace(LARGE, n_samples=2500, seed=3))
        ids = dataset.example_ids
        noisy = inject_noise(dataset.true_labels, draw_noise_spec(50).matrices, 3, seed=1)
        counts = dataset.features.astype(np.int64)
        assert (counts == dataset.features).all() and counts.max() >= 10
        with mock.patch.object(data, "_format_block",
                               side_effect=AssertionError("a block was %-formatted")):
            save_labels_csv(tmp_path / "labels.csv", ids, noisy)
            save_labels_csv(tmp_path / "truth.csv", ids, dataset.true_labels)
            save_features_csv(tmp_path / "features.csv", ids, dataset.features)
        for name, prefix, values in [("labels", "label", noisy),
                                     ("truth", "label", dataset.true_labels),
                                     ("features", "feat", counts)]:
            header = ["id"] + [f"{prefix}_{c}" for c in range(values.shape[1])]
            assert (tmp_path / f"{name}.csv").read_bytes() == _csv_writer_bytes(
                header, ids, values.T)

    def test_fallback_blocks_sit_beside_grid_blocks(self, tmp_path):
        # blocks of two rows: the second holds "é", the fourth a NUL, the fifth a negative
        ids = ["a", "b", "é", "c", "d", "e", "x\0y", "f", "g", "h", "i", "j"]
        values = np.arange(12, dtype=np.int64) * 1001
        values[9] = -5
        header = ["id", "v"]
        with mock.patch.object(data, "_BLOCK_ROWS", 2), \
                mock.patch.object(data, "_format_block", wraps=data._format_block) as fallback:
            data.write_csv_rows(tmp_path / "grid.csv", header, ids, [values], ["%d"])
        assert [call.args[1] for call in fallback.call_args_list] == [
            ["é", "c"], ["x\0y", "f"], ["g", "h"]]
        reference.write_csv_rows(tmp_path / "rows.csv", header, ids, [values], ["%d"])
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("ids, columns", [
        ([1, 2.5, "a"], [np.array([1, 20, 300])]),
        (["a", "b"], [np.array([1, 2], dtype=np.int64),
                      np.array([2**64 - 1, 0], dtype=np.uint64)]),
        (["a", "b"], [np.array([1.0, 2.5])]),
    ], ids=["ids-not-str", "no-shared-integer-type", "float-column"])
    def test_other_inputs_written_as_the_row_writer_writes_them(self, tmp_path, ids, columns):
        header = ["id"] + [f"c{c}" for c in range(len(columns))]
        fmts = ["%d"] * len(columns)
        data.write_csv_rows(tmp_path / "grid.csv", header, ids, columns, fmts)
        reference.write_csv_rows(tmp_path / "rows.csv", header, ids, columns, fmts)
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("header, columns, message", [
        (["id", "v"], [np.arange(4)], r"^columns of \[4\] values for 3 ids$"),
        (["id", "v", "w"], [np.arange(3)], r"^header of 3 names for 1 columns and 1 formats$"),
        (["id", "v"], [np.arange(2)], r"^columns of \[2\] values for 3 ids$"),
    ], ids=["longer-column", "more-names-than-columns", "shorter-column"])
    def test_shapes_checked_before_the_file_is_opened(self, tmp_path, header, columns, message):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=message):
            data.write_csv_rows(path, header, ["a", "b", "c"], columns, ["%d"])
        assert not path.exists()


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


# Characters at the decimal kernel's edges: signs, points, exponents,
# underscores, quotes, NUL, whitespace (float() strips "\t", "\x85" and
# "\u3000" but not "\x1c"-"\x1f") and non-ASCII digits.
CELL_CHARS = st.sampled_from(list("0123456789+-_.eE \t\x0b#\"\0,\x1c\x1fnaif") +
                             ["١", "１", "　", "\x85"])



def _near_midpoint(x: float, digits: int, offset: int) -> str:
    """A cell of ``digits`` significant digits, ``offset`` units in its last digit from
    the midpoint between ``x`` and the next double up, written as ``<digits>e<exp>``."""
    mid = (Fraction(x) + Fraction(float(np.nextafter(x, np.inf)))) / 2
    exp = math.floor(math.log10(x)) - digits + 1
    return f"{round(mid / Fraction(10) ** exp) + offset}e{exp}"


DECIMAL_VALUES = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(-30.0, 20.0).map(lambda e: 10.0**e),
    st.floats(-1e6, -1e-6),
    st.integers(0, 2**53).map(float),
)
DECIMAL_CELLS = st.one_of(
    st.builds(lambda value, fmt: fmt % value, DECIMAL_VALUES,
              st.sampled_from(["%.17g", "%r", "%.15g", "%.18e", "%.20f"])),
    st.builds(_near_midpoint, st.floats(1e-30, 1e20), st.integers(16, 19), st.integers(-3, 3)),
    # the kernel takes "12.5" and "1.5E+07"; the others only float()
    st.sampled_from(["1_0", " 0.5", "+.5", "12.5", ".5", "1.5E+07", "inf", "１"]),
)


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

    @settings(max_examples=60)
    @pytest.mark.parametrize("block_bytes, kernel_cells", [(1, 4096), (7, 6), (512, 4096)])
    @given(rows=st.lists(st.tuples(st.sampled_from(["e", "é", "ex"]),
                                   st.lists(DECIMAL_CELLS, min_size=3, max_size=3)),
                         min_size=1, max_size=20))
    def test_decimal_cells_load_as_float_scan(self, tmp_path_factory, block_bytes, kernel_cells,
                                              rows):
        # every cell the kernel takes, and the cells only float() takes beside
        # them, read 1, 7 and 512 bytes at a time; with 7-byte reads the kernel
        # converts six cells (two lines) a pass
        body = "".join(f"{prefix}{i},{','.join(cells)}\r\n"
                       for i, (prefix, cells) in enumerate(rows))
        path = tmp_path_factory.mktemp("decimals") / "p.csv"
        path.write_bytes(("id,prob_0,prob_1,prob_2\r\n" + body).encode())
        with mock.patch.object(data, "_BLOCK_BYTES", block_bytes), \
                mock.patch.object(data, "_KERNEL_CELLS", kernel_cells):
            assert_loads_as_scan(load_probs_csv, path)

    def test_library_files_take_the_kernel(self, tmp_path, capsys):
        # no cell of a probabilities file the library writes, or of gen's
        # counts, falls back to float(): a fallback would leave every value
        # right and only the load slower, so no other test would see it
        values = np.random.default_rng(8).random((2000, 50))
        save_probs_csv(tmp_path / "probs.csv", [f"ex{i}" for i in range(len(values))], values)
        assert cli.main(["gen", "--preset", "large", "--seed", "3",
                         "--out-dir", str(tmp_path / "gen")]) == 0
        capsys.readouterr()
        with mock.patch.object(data, "_float_cells",
                               side_effect=AssertionError("a cell went to float()")), \
                mock.patch.object(data, "_scan_matrix_csv", side_effect=AssertionError("scanned")):
            probs = load_probs_csv(tmp_path / "probs.csv")[1]
            features = load_features_csv(tmp_path / "gen" / "features.csv")[1]
        assert np.array_equal(probs.view(np.uint64), values.view(np.uint64))
        assert np.array_equal(features, gen_multilabel(replace(LARGE, seed=3)).features)

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
        n = data._BLOCK_BYTES // 8 + 100  # rows of 7-11 bytes: the last ones are past the first block
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
        with mock.patch.object(data, "_BLOCK_BYTES", 3):
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
            assert load_probs_csv(path)[1].tolist() == [[0.5] * 32]
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
        n = data._BLOCK_BYTES // 4 + 3  # rows of ~10 bytes or more: more than two blocks
        ids = [f"e{i}" for i in range(n)]
        path = tmp_path / "m.csv"

        def write(header, cells):
            path.write_bytes((end.join([header] + [f"{i},{cells}" for i in ids]) + last).encode())

        with mock.patch.object(data, "_scan_matrix_csv", side_effect=AssertionError("scanned")):
            write("id,prob_0,prob_1,prob_2", "0.25,1,0")
            assert load_probs_csv(path)[1].tolist() == [[0.25, 1, 0]] * n
            write("id,feat_0,feat_1,feat_2", "0.25,1,0")
            assert load_features_csv(path)[1].tolist() == [[0.25, 1, 0]] * n
            write("id,label_0,label_1", "1,0")
            assert load_labels_csv(path)[1].tolist() == [[1, 0]] * n
            write("id,score", "0.5")
            assert load_scores_csv(path) == (ids, pytest.approx([0.5] * n))

    @pytest.mark.parametrize("block_bytes", [1, 2, 3, 7, 17])
    @pytest.mark.parametrize("body", [
        # "\r\n" line ends; 17-byte reads split the header's between two reads
        "id,prob_0,prob_1\r\ne1,0.5,1\r\ne2,0.25,2\r\n",
        "id,prob_0,prob_1\re1,0.5,1\re2,0.25,2\r",                 # "\r" only
        "id,prob_0,prob_1\r\ne1,0.5,1\re2,0.25,2\r\ne3,1,0\n",    # all three
        "\ufeffid,prob_0,prob_1\r\ne1,0.5,1\r\n",                 # a byte-order mark
        "id,prob_0,prob_1\nɛé,0.5,1\n\u20ac1,0.25,2\n",            # ids of 2- and 3-byte characters
        # ids holding an "e" beside exponent cells
        "id,prob_0,prob_1\r\nex1,1.5E+07,2e-3\r\nee,-1.5e+07,12.5e0\r\nE,1e5,0\r\n",
    ], ids=["crlf", "cr", "mixed", "bom", "utf8", "exponents"])
    def test_byte_blocks_load_as_scan(self, tmp_path, block_bytes, body):
        # read a few bytes at a time, each file loads in blocks, not by the
        # scan, with the values the scan reads
        path = tmp_path / "p.csv"
        path.write_bytes(body.encode())
        scanned = _outcome(partial(data._scan_matrix_csv, width_of=partial(
            data._check_header, prefix="prob"), parse_cell=float), path)
        assert isinstance(scanned, tuple), scanned
        with mock.patch.object(data, "_BLOCK_BYTES", block_bytes), \
                mock.patch.object(data, "_scan_matrix_csv", side_effect=AssertionError("scanned")):
            assert _outcome(load_probs_csv, path) == scanned

    def test_kernel_takes_exponents_beside_e_ids_and_integer_parts(self, tmp_path):
        cells = ["1.5E+07", "-2.5e-3", "12.5", "-123.25e+2", "1234567890.123456789", "7"]
        path = tmp_path / "p.csv"
        path.write_bytes(("id,prob_0,prob_1,prob_2\r\n" + "".join(
            f"{prefix}{i},{','.join(cells[i % 2::2])}\r\n"
            for i, prefix in enumerate(["ex", "e", "E", "eE"]))).encode())
        with mock.patch.object(data, "_float_cells",
                               side_effect=AssertionError("a cell went to float()")):
            ids, values = load_probs_csv(path)
        assert ids == ["ex0", "e1", "E2", "eE3"]
        want = [[float(c) for c in cells[i % 2::2]] for i in range(4)]
        assert np.array_equal(values.view(np.uint64), np.array(want).view(np.uint64))

    def test_pass_of_few_kernel_cells_goes_to_float(self, tmp_path):
        # one cell in five starts and ends with a digit: under _KERNEL_SHARE,
        # so the kernel does not scale any, and float() reads them all
        path = tmp_path / "p.csv"
        path.write_bytes(b"id,prob_0,prob_1,prob_2,prob_3,prob_4\na,0.5, 0.25, 1,.5,+2\n")
        with mock.patch.object(data, "_scaled", side_effect=AssertionError("scaled")):
            assert load_probs_csv(path)[1].tolist() == [[0.5, 0.25, 1, 0.5, 2]]
        assert_loads_as_scan(load_probs_csv, path)

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
        assert np.array_equal(probs, values)
        assert peak < 3 * values.nbytes

    def test_block_load_holds_the_values_once(self, tmp_path):
        # the blocks grow one array, and load_probs_csv returns it without a copy
        rng = np.random.default_rng(6)
        values = rng.random((20_000, 50))
        path = tmp_path / "p.csv"
        save_probs_csv(path, [f"ex{i}" for i in range(len(values))], values)
        with mock.patch.object(data, "_scan_matrix_csv", side_effect=AssertionError("scanned")):
            tracemalloc.start()
            try:
                _, probs = load_probs_csv(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.array_equal(probs, values)
        assert peak < 1.5 * values.nbytes


class TestLabelDtype:
    """Every producer of a label matrix returns int8 holding the int64 values it returned before."""

    def test_gen_multilabel(self):
        config = GenConfig(n_samples=300, n_test=1, n_features=5, n_classes=12,
                           expected_labels_per_example=4.0, seed=3)
        dataset = gen_multilabel(config)
        want = reference.gen_multinomial(config)[0]  # int64, from the same stream
        for labels in (dataset.given_labels, dataset.true_labels):
            assert labels.dtype == np.int8 and np.array_equal(labels, want)

    @pytest.mark.parametrize("dtype", [np.int64, bool])
    def test_inject_noise(self, dtype):
        truth = np.random.default_rng(8).integers(0, 2, size=(400, 10)).astype(dtype)
        matrices = draw_noise_spec(10, gamma_scale=0.3, seed=2).matrices
        noisy = inject_noise(truth, matrices, 3, seed=5)
        want = reference.inject_noise(truth.astype(np.int64), matrices, 3, seed=5)
        assert noisy.dtype == np.int8 and np.array_equal(noisy, want)
        assert not np.array_equal(noisy, truth)

    @pytest.mark.parametrize("id_format", ["ex{}", "ex,{}"], ids=["block", "scan"])
    def test_load_labels_csv(self, tmp_path, id_format):
        # a quoted id sends the file through the per-cell scan
        labels = np.random.default_rng(9).integers(0, 2, size=(700, 6))
        path = tmp_path / "labels.csv"
        save_labels_csv(path, [id_format.format(i) for i in range(len(labels))], labels)
        with mock.patch.object(data, "_scan_matrix_csv", wraps=data._scan_matrix_csv) as scan:
            _, loaded = load_labels_csv(path)
        assert scan.called == (id_format == "ex,{}")
        assert loaded.dtype == np.int8 and np.array_equal(loaded, labels)

    def test_load_jsonl(self, tmp_path):
        dataset, probs = make_dataset(n=30, k=5, seed=4)
        save_jsonl(tmp_path / "d.jsonl", dataset, probs)
        loaded = load_jsonl(tmp_path / "d.jsonl")[0].given_labels
        assert loaded.dtype == np.int8 and np.array_equal(loaded, dataset.given_labels)

    @pytest.mark.parametrize("labels", [
        [[1, 0], [0, 1]],
        np.array([[True, False], [False, True]]),
        np.array([[1.0, 0.0], [0.0, 1.0]]),
    ], ids=["list", "bool", "float"])
    def test_check_labels_probs(self, labels):
        checked, _ = check_labels_probs(labels, np.full((2, 2), 0.5))
        assert checked.dtype == np.int8 and checked.tolist() == [[1, 0], [0, 1]]


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        dataset, probs = make_dataset(n=20, k=4, seed=3)
        save_jsonl(tmp_path / "d.jsonl", dataset, probs)
        loaded_ds, loaded_probs = load_jsonl(tmp_path / "d.jsonl")
        assert loaded_ds.example_ids == dataset.example_ids
        assert np.array_equal(loaded_ds.given_labels, dataset.given_labels)
        assert np.array_equal(loaded_probs, probs)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        dataset, probs = make_dataset(n=4, k=3, seed=5)
        save_jsonl(tmp_path / "d.jsonl", dataset, probs)
        path = tmp_path / "bom.jsonl"
        path.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "d.jsonl").read_bytes())
        loaded_ds, loaded_probs = load_jsonl(path)
        assert loaded_ds.example_ids == dataset.example_ids
        assert np.array_equal(loaded_ds.given_labels, dataset.given_labels)
        assert np.array_equal(loaded_probs, probs)

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
        dataset = load_jsonl(path)[0]
        assert dataset.example_ids == ("a", "b")
        assert dataset.given_labels.tolist() == [[0, 1], [1, 1]]
        assert load_jsonl(path)[1] is None

    def test_empty_label_lists_rejected(self, tmp_path):
        # the CSV loaders reject the same data: "no label columns in header"
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "labels": []}\n{"id": "b", "labels": []}\n')
        with pytest.raises(DataFormatError) as info:
            load_jsonl(path)
        assert str(info.value) == f"{path}: no label columns (every labels list is empty)"

    def test_probs_on_some_rows_only_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "labels": [0, 1], "probs": [0.1, 0.2]}\n'
                        '{"id": "b", "labels": [1, 1]}\n')
        with pytest.raises(DataFormatError, match=r"inconsistent row widths \[0, 2\]"):
            load_jsonl(path)

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


def _cv_probs(dataset, tmp_path):
    return cross_val_pred_probs(dataset, CVConfig(n_folds=2), TrainConfig(epochs=2))


def _predicted_probs(dataset, tmp_path):
    return predict_proba(train(dataset.features, dataset.given_labels, TrainConfig(epochs=2)),
                         dataset.features)


def _csv_probs(dataset, tmp_path):
    save_probs_csv(tmp_path / "p.csv", dataset.example_ids, _cv_probs(dataset, tmp_path))
    return load_probs_csv(tmp_path / "p.csv")[1]


def _jsonl_probs(dataset, tmp_path):
    save_jsonl(tmp_path / "d.jsonl", dataset, _cv_probs(dataset, tmp_path))
    return load_jsonl(tmp_path / "d.jsonl")[1]


@pytest.mark.parametrize("make", [_cv_probs, _predicted_probs, _csv_probs, _jsonl_probs],
                         ids=["cross_val_pred_probs", "predict_proba", "load_probs_csv",
                              "load_jsonl"])
def test_probabilities_are_a_plain_float64_array(tmp_path, make):
    # no wrapper: an N x K float64 array that the caller owns and may change
    dataset = gen_multilabel(GenConfig(n_samples=40, n_test=1, n_features=3, n_classes=4,
                                       expected_labels_per_example=2.0, seed=5))
    probs = make(dataset, tmp_path)
    assert type(probs) is np.ndarray
    assert probs.dtype == np.float64 and probs.shape == (40, 4)
    assert probs.flags.writeable


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
    assert np.array_equal(loaded_probs, probs)
    check_labels_probs(loaded_labels, loaded_probs)


class TestLibraryInputChecks:
    """The library's entry points reject what the CLI rejects, naming the first bad cell."""

    ENTRY_POINTS = {
        "score_examples": lambda labels, probs: score_examples(labels, probs, PoolingMethod("ema")),
        "flag_multilabel": flag_multilabel,
        "self_confidence": self_confidence,
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
