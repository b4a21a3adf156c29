import itertools
import json

import numpy as np
import pytest

import reference
from labelaudit import confident
from labelaudit.confident import (
    FlagReport,
    _confident_joint,
    flag_multilabel,
    save_flag_summary_json,
    save_flags_csv,
)


def random_instance(seed, n=40, k=4):
    """Random labels/probs where every class has both positives and negatives."""
    rng = np.random.default_rng(seed)
    while True:
        labels = rng.integers(0, 2, size=(n, k))
        pos = labels.sum(axis=0)
        if (pos > 0).all() and (pos < n).all():
            return labels, rng.random((n, k))


def oracle_instances(n_trials=150):
    """Random and grid-valued instances, with one-sided classes, K up to 50 and bool labels.

    Every other instance draws probabilities from multiples of 1/8, so that
    p == 0.5 and p equal to a class threshold both occur.
    """
    rng = np.random.default_rng(20240607)
    for trial in range(n_trials):
        n = int(rng.integers(1, 60))
        k = 50 if trial % 10 == 0 else int(rng.integers(1, 12))
        labels = rng.random((n, k)) < rng.uniform(0.1, 0.9)
        one_sided = rng.random(k) < 0.25
        labels[:, one_sided] = rng.random(one_sided.sum()) < 0.5
        probs = rng.integers(0, 9, size=(n, k)) / 8 if trial % 2 else rng.random((n, k))
        yield (labels if trial % 3 == 0 else labels.astype(int)), probs


def block_edge_instances():
    """N = 1 and one row block of the flagger ± 1 row, at K = 1 and K = 50.

    Probabilities are multiples of 1/8, except that class 0 holds 0.5 but
    for pairs of 0.25 and 0.75 among the first block's rows of each given
    label: its thresholds are exactly 0.5, so that in the later blocks
    p == 0.5 is both a tie and equal to a threshold.
    """
    rng = np.random.default_rng(20261022)
    for k in (1, 50):
        rows = confident._BLOCK_CELLS // k
        for n in (1, rows - 1, rows, rows + 1, 2 * rows + 1):
            labels = rng.random((n, k)) < 0.3
            probs = rng.integers(0, 9, size=(n, k)) / 8
            probs[:, 0] = 0.5
            for group in (labels[:rows, 0], ~labels[:rows, 0]):
                paired = np.flatnonzero(group)[:group.sum() // 2 * 2]
                probs[paired, 0] = np.tile([0.25, 0.75], len(paired) // 2)
            yield labels, probs


def flipped_instance(seed, n=60, k=5, n_flips=6):
    """Ground-truth labels, a noisy copy with known flips, and oracle probs."""
    rng = np.random.default_rng(seed)
    while True:
        truth = rng.integers(0, 2, size=(n, k))
        if ((truth.sum(axis=0) > 1) & (truth.sum(axis=0) < n - 1)).all():
            break
    given = truth.copy()
    cells = rng.choice(n * k, size=n_flips, replace=False)
    for cell in cells:
        given[cell // k, cell % k] ^= 1
    return truth, given, truth.astype(float)


class TestThresholds:
    def test_positive_threshold_is_mean_probability(self):
        labels = np.array([[1], [1], [0], [0]])
        probs = np.array([[0.8], [0.6], [0.5], [0.5]])
        t_pos, _ = flag_multilabel(labels, probs).thresholds[0]
        assert t_pos == pytest.approx(0.7)

    def test_negative_threshold_is_mean_complement(self):
        labels = np.array([[1], [0], [0]])
        probs = np.array([[0.5], [0.1], [0.3]])
        _, t_neg = flag_multilabel(labels, probs).thresholds[0]
        assert t_neg == pytest.approx(0.8)

    def test_one_sided_class_raises(self):
        # a class without annotated negatives has no thresholds: a NaN row
        labels = np.ones((3, 1), dtype=int)
        probs = np.full((3, 1), 0.9)
        assert np.isnan(flag_multilabel(labels, probs).thresholds[0]).all()


class TestBinaryConfidentJoint:
    def test_hand_computed_four_examples(self):
        labels = np.array([[1], [1], [0], [0]])
        probs = np.array([[0.9], [0.2], [0.1], [0.8]])
        counts = _confident_joint(labels, probs, np.array([[0.55, 0.85]]))[1][0]
        # i1 -> C[1][1]; i2 unconfident both sides; i3 -> C[0][0]; i4 -> C[0][1]
        assert counts[1, 1] == 1
        assert counts[0, 0] == 1
        assert counts[0, 1] == 1
        assert counts[1, 0] == 0
        assert counts.sum() == 3  # i2 is not counted

    def test_counts_never_exceed_n(self):
        labels, probs = random_instance(0)
        joint_counts = flag_multilabel(labels, probs).joint_counts
        for k in range(labels.shape[1]):
            assert joint_counts[k].sum() <= labels.shape[0]

    def test_perfect_probs_offdiagonal_equals_error_count(self):
        for seed in range(10):
            truth, given, probs = flipped_instance(seed)
            joint_counts = flag_multilabel(given, probs).joint_counts
            for k in range(truth.shape[1]):
                n_errors = int((given[:, k] != truth[:, k]).sum())
                assert joint_counts[k, 0, 1] + joint_counts[k, 1, 0] == n_errors

    def test_agreement_case_has_zero_offdiagonal(self):
        rng = np.random.default_rng(3)
        labels = random_instance(3)[0]
        probs = np.where(labels == 1, 0.9, 0.1) + rng.normal(0, 0.01, labels.shape)
        joint_counts = flag_multilabel(labels, probs).joint_counts
        for k in range(labels.shape[1]):
            assert joint_counts[k, 0, 1] + joint_counts[k, 1, 0] == 0


class TestFlagClass:
    def test_hand_computed_flags_with_pinned_thresholds(self):
        # continuation of the hand-computed joint: only i4 lands off-diagonal
        labels = np.array([[1], [1], [0], [0]])
        probs = np.array([[0.9], [0.2], [0.1], [0.8]])
        flags = _confident_joint(labels, probs, np.array([[0.55, 0.85]]))[0][:, 0]
        assert flags.tolist() == [False, False, False, True]

    def test_hand_computed_flags_with_data_thresholds(self):
        # recomputed thresholds are t_pos = t_neg = 0.55, which also makes
        # i2's absent side confident (1 - 0.2 >= 0.55), flagging it too
        labels = np.array([[1], [1], [0], [0]])
        probs = np.array([[0.9], [0.2], [0.1], [0.8]])
        flags = flag_multilabel(labels, probs).per_class_flags[:, 0]
        assert flags.tolist() == [False, True, False, True]

    def test_self_consistent_probs_give_no_flags(self):
        labels = random_instance(4)[0]
        probs = np.where(labels == 1, 0.95, 0.05).astype(float)
        per_class_flags = flag_multilabel(labels, probs).per_class_flags
        for k in range(labels.shape[1]):
            assert not per_class_flags[:, k].any()

    def test_single_flip_is_exactly_flagged(self):
        for seed in range(8):
            truth, given, probs = flipped_instance(seed, n_flips=1)
            per_class_flags = flag_multilabel(given, probs).per_class_flags
            flagged = np.zeros(truth.shape[0], dtype=bool)
            for k in range(truth.shape[1]):
                flagged |= per_class_flags[:, k]
            expected = (given != truth).any(axis=1)
            assert np.array_equal(flagged, expected)

    def test_skipped_class_is_all_false(self):
        labels = np.ones((5, 1), dtype=int)
        probs = np.full((5, 1), 0.2)
        assert not flag_multilabel(labels, probs).per_class_flags[:, 0].any()

    def test_matches_enumeration_oracle(self):
        for seed in range(25):
            labels, probs = random_instance(seed, n=30, k=3)
            per_class_flags = flag_multilabel(labels, probs).per_class_flags
            for k in range(3):
                mine = per_class_flags[:, k]
                ref = reference.flag_class(labels[:, k].tolist(), probs[:, k].tolist())
                assert mine.tolist() == ref


class TestFlagMultilabel:
    def test_union_decomposition(self):
        labels, probs = random_instance(7, n=80, k=6)
        report = flag_multilabel(labels, probs)
        assert np.array_equal(report.example_flags, report.per_class_flags.any(axis=1))

    def test_union_of_specific_classes(self):
        truth, given, probs = flipped_instance(11, n_flips=4)
        report = flag_multilabel(given, probs)
        per_class_union = np.zeros(truth.shape[0], dtype=bool)
        for k in range(truth.shape[1]):
            per_class_union |= report.per_class_flags[:, k]
        assert np.array_equal(report.example_flags, per_class_union)

    def test_all_classes_skipped(self):
        labels = np.ones((6, 3), dtype=int)
        probs = np.full((6, 3), 0.8)
        report = flag_multilabel(labels, probs)
        assert not report.example_flags.any()
        assert report.skipped_classes == (0, 1, 2)
        np.testing.assert_array_equal(report.estimated_noise_rates,
                                      np.broadcast_to(np.eye(2), (3, 2, 2)))

    def test_ground_truth_recovery_with_perfect_probs(self):
        for seed in range(10):
            truth, given, probs = flipped_instance(seed, n=80, k=5, n_flips=8)
            report = flag_multilabel(given, probs)
            expected = (given != truth).any(axis=1)
            assert np.array_equal(report.example_flags, expected)

    def test_error_counts_are_offdiagonal_totals(self):
        labels, probs = random_instance(9, n=60, k=4)
        report = flag_multilabel(labels, probs)
        np.testing.assert_array_equal(report.per_class_error_counts,
                                      report.per_class_flags.sum(axis=0))

    def test_noise_rates_are_row_stochastic(self):
        for seed in range(6):
            labels, probs = random_instance(seed, n=50, k=5)
            report = flag_multilabel(labels, probs)
            rates = report.estimated_noise_rates
            assert ((rates >= 0) & (rates <= 1)).all()
            np.testing.assert_allclose(rates.sum(axis=2), 1.0, atol=1e-9)

    def test_deterministic(self):
        labels, probs = random_instance(13)
        a = flag_multilabel(labels, probs)
        b = flag_multilabel(labels, probs)
        assert np.array_equal(a.per_class_flags, b.per_class_flags)
        assert np.array_equal(a.estimated_noise_rates, b.estimated_noise_rates)

    def test_added_confident_correct_example_is_not_flagged(self):
        # statistical robustness check over random instances, not a theorem
        for seed in range(50):
            labels, probs = random_instance(seed, n=25, k=3)
            labels = np.vstack([labels, np.ones((1, 3), dtype=int)])
            probs = np.vstack([probs, np.full((1, 3), 0.99)])
            report = flag_multilabel(labels, probs)
            assert not report.example_flags[-1]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            flag_multilabel(np.zeros((3, 2), dtype=int), np.zeros((3, 3)))


class TestClassViewsCheckInput:
    # one class's flags and thresholds come from the checked whole-matrix pass
    def test_flag_class_rejects_label_outside_zero_one(self):
        labels = np.array([[2], [2], [0]])
        with pytest.raises(ValueError, match=r"label 2 not in \{0,1\}"):
            flag_multilabel(labels, np.full((3, 1), 0.5))

    def test_class_thresholds_rejects_nan_probability(self):
        labels = np.array([[1], [0], [0]])
        probs = np.array([[np.nan], [0.1], [0.3]])
        with pytest.raises(ValueError, match="non-finite probability"):
            flag_multilabel(labels, probs)


class TestMatchesOriginalLoop:
    def test_bit_identical_to_reference_loop(self, tmp_path):
        ties = at_threshold = skipped = late_ties = late_at_threshold = 0
        for labels, probs in itertools.chain(oracle_instances(), block_edge_instances()):
            mine = flag_multilabel(labels, probs)
            ref = reference.flag_multilabel(labels, probs)
            for name in ("per_class_flags", "example_flags", "joint_counts",
                         "estimated_noise_rates"):
                assert np.array_equal(getattr(mine, name), ref[name]), name
            assert np.array_equal(mine.thresholds.view(np.uint64), ref["thresholds"].view(np.uint64))
            assert mine.skipped_classes == ref["skipped_classes"]
            save_flag_summary_json(tmp_path / "mine.json", mine)
            save_flag_summary_json(tmp_path / "ref.json", FlagReport(**ref))
            assert (tmp_path / "mine.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

            t_pos, t_neg = ref["thresholds"].T
            both = (probs >= t_pos) & (1.0 - probs >= t_neg)
            tie = both & (probs == 0.5)
            at = (probs == t_pos) | (1.0 - probs == t_neg)
            late = np.arange(len(probs)) >= confident._BLOCK_CELLS // max(probs.shape[1], 1)
            ties += int(tie.sum())
            at_threshold += int(at.sum())
            late_ties += int(tie[late].sum())
            late_at_threshold += int(at[late].sum())
            skipped += len(ref["skipped_classes"])
        assert ties > 0 and at_threshold > 0 and skipped > 0
        assert late_ties > 0 and late_at_threshold > 0

    def test_thresholds_bit_identical_at_benchmark_width(self):
        rng = np.random.default_rng(21)
        labels = rng.random((6000, 50)) < rng.uniform(0.02, 0.5, size=50)
        labels[:, 7], labels[:, 30] = True, False  # one-sided either way
        probs = rng.random((6000, 50))
        expected = reference.flag_multilabel(labels, probs)["thresholds"]
        assert np.isnan(expected[[7, 30]]).all() and not np.isnan(np.delete(expected, [7, 30], 0)).any()
        thresholds = flag_multilabel(labels, probs).thresholds
        assert np.array_equal(thresholds.view(np.uint64), expected.view(np.uint64))


class TestSerialization:
    def test_flags_csv(self, tmp_path):
        truth, given, probs = flipped_instance(2, n_flips=3)
        report = flag_multilabel(given, probs)
        ids = [f"ex{i}" for i in range(truth.shape[0])]
        path = tmp_path / "flags.csv"
        save_flags_csv(path, ids, report)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "id,flagged,classes_flagged"
        assert len(lines) == truth.shape[0] + 1
        n_flagged = sum(line.split(",")[1] == "1" for line in lines[1:])
        assert n_flagged == int(report.example_flags.sum())

    def test_flags_csv_bytes(self, tmp_path):
        per_class = np.zeros((4, 12), dtype=bool)
        per_class[1, [0, 2]] = True
        per_class[3, [1, 11]] = True
        report = FlagReport(per_class, per_class.any(axis=1), np.zeros((12, 2, 2), dtype=int),
                            np.tile(np.eye(2), (12, 1, 1)), (), np.zeros((12, 2)))
        path = tmp_path / "flags.csv"
        save_flags_csv(path, ["a", "b,c", 'say "hi"', "two\nlines"], report)
        assert path.read_bytes() == (
            b'id,flagged,classes_flagged\r\na,0,\r\n"b,c",1,0;2\r\n'
            b'"say ""hi""",0,\r\n"two\nlines",1,1;11\r\n'
        )

    def test_summary_json(self, tmp_path):
        labels, probs = random_instance(21, n=40, k=3)
        report = flag_multilabel(labels, probs)
        path = tmp_path / "summary.json"
        save_flag_summary_json(path, report)
        summary = json.loads(path.read_text())
        assert summary["n_flagged_examples"] == int(report.example_flags.sum())
        assert len(summary["per_class_error_counts"]) == 3
        assert len(summary["estimated_noise_rates"]) == 3

    def test_summary_json_bytes(self, tmp_path):
        # class 0: thresholds (0.625, 0.625); example 1 clears neither side and
        # example 3 (given 0, p 0.75) is counted as present, so the joint is
        # [[1, 1], [0, 1]]; row 1 calibrates 1 count to 2 given positives.
        # class 1 has no annotated negatives: skipped, identity rates.
        labels = np.array([[1, 1], [1, 1], [0, 1], [0, 1]])
        probs = np.array([[0.75, 0.5], [0.5, 0.5], [0.0, 0.5], [0.75, 0.5]])
        path = tmp_path / "summary.json"
        save_flag_summary_json(path, flag_multilabel(labels, probs))
        assert path.read_bytes() == (
            b'{\n  "n_flagged_examples": 1,\n'
            b'  "per_class_error_counts": [\n    1,\n    0\n  ],\n'
            b'  "estimated_noise_rates": [\n'
            b'    [\n      [\n        0.5,\n        0.5\n      ],\n'
            b'      [\n        0.0,\n        1.0\n      ]\n    ],\n'
            b'    [\n      [\n        1.0,\n        0.0\n      ],\n'
            b'      [\n        0.0,\n        1.0\n      ]\n    ]\n  ],\n'
            b'  "skipped_classes": [\n    1\n  ],\n'
            b'  "thresholds": [\n    [\n      0.625,\n      0.625\n    ],\n'
            b'    [\n      null,\n      null\n    ]\n  ]\n}\n'
        )
