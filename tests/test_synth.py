import math
import random

import numpy as np
import pytest

import reference
from labelaudit.data import validate
from labelaudit.synth import (
    LARGE,
    SMALL,
    GenConfig,
    NoiseSpec,
    build_noise_matrix,
    draw_noise_spec,
    gen_multilabel,
    inject_noise,
    load_noise_spec_json,
    make_noisy_dataset,
    sample_noise_traces,
    save_noise_spec_json,
    traces_from_draws,
)

TEST_CONFIG = GenConfig(n_samples=5000, n_test=500, n_features=3, n_classes=4,
                        expected_labels_per_example=2.0, seed=42)


def truncated_poisson_stats(lam: float, kmax: int) -> tuple[float, float]:
    """Exact mean/std of a Poisson conditioned on X <= kmax (the label-count law)."""
    pmf = [math.exp(-lam) * lam**x / math.factorial(x) for x in range(kmax + 1)]
    z = sum(pmf)
    mean = sum(x * p for x, p in zip(range(kmax + 1), pmf)) / z
    second = sum(x * x * p for x, p in zip(range(kmax + 1), pmf)) / z
    return mean, math.sqrt(second - mean * mean)


class TestGenerator:
    def test_deterministic_given_seed(self):
        a = gen_multilabel(TEST_CONFIG)
        b = gen_multilabel(TEST_CONFIG)
        assert np.array_equal(a.given_labels, b.given_labels)
        assert np.array_equal(a.features, b.features)
        c = gen_multilabel(GenConfig(**{**TEST_CONFIG.__dict__, "seed": 43}))
        assert not np.array_equal(a.features, c.features)

    def test_label_count_mean_matches_truncated_poisson(self):
        dataset = gen_multilabel(TEST_CONFIG)
        counts = dataset.true_labels.sum(axis=1)
        mean, std = truncated_poisson_stats(2.0, 4)
        se = std / math.sqrt(TEST_CONFIG.n_samples)
        assert abs(counts.mean() - mean) < 3 * se
        assert counts.max() <= 4

    def test_doc_length_mean_matches_poisson(self):
        dataset = gen_multilabel(TEST_CONFIG)
        totals = dataset.features.sum(axis=1)
        se = math.sqrt(500.0 / TEST_CONFIG.n_samples)
        assert abs(totals.mean() - 500.0) < 3 * se
        assert 490 <= totals.mean() <= 510

    def test_zero_label_examples_are_kept(self):
        dataset = gen_multilabel(TEST_CONFIG)
        assert (dataset.true_labels.sum(axis=1) == 0).any()

    def test_output_passes_validation(self):
        dataset = gen_multilabel(GenConfig(n_samples=300, n_test=50, n_features=5,
                                           n_classes=6, expected_labels_per_example=2.5,
                                           seed=7))
        report = validate(dataset)
        assert report.violations == ()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="n_samples"):
            GenConfig(n_samples=0, n_test=1, n_features=2, n_classes=2,
                      expected_labels_per_example=1.0)
        with pytest.raises(ValueError, match="expected_labels"):
            GenConfig(n_samples=10, n_test=1, n_features=2, n_classes=2,
                      expected_labels_per_example=5.0)

    def test_presets_match_documented_table(self):
        assert (SMALL.n_samples, SMALL.n_features, SMALL.n_classes) == (5000, 3, 4)
        assert SMALL.expected_labels_per_example == 2.0
        assert (LARGE.n_samples, LARGE.n_features, LARGE.n_classes) == (30000, 20, 50)
        assert LARGE.expected_labels_per_example == 5.0
        assert SMALL.expected_doc_length == 500.0


class TestTraces:
    def test_hand_value_half(self):
        # draw 0.5 at ascending rank 1 of 10: Y = 0.5 * (1 - 1/20) = 0.475
        draws = np.array([0.5, 0.6, 0.7, 0.71, 0.72, 0.73, 0.74, 0.75, 0.76, 0.77])
        assert traces_from_draws(draws)[0] == pytest.approx(1.05, abs=1e-12)

    def test_hand_value_zero(self):
        draws = np.array([0.0, 0.6, 0.7, 0.71, 0.72, 0.73, 0.74, 0.75, 0.76, 0.77])
        assert traces_from_draws(draws)[0] == pytest.approx(1.9, abs=1e-12)

    def test_every_trace_in_range(self):
        for seed in range(200):
            traces = sample_noise_traces(10, seed=seed)
            assert ((traces > 0) & (traces <= 2)).all()

    def test_extreme_draws_stay_in_range(self):
        # draws above 1 would push Y negative without the clamp
        traces = traces_from_draws(np.array([0.0, 0.5, 1.0, 1.5, 50.0]))
        assert ((traces > 0) & (traces <= 2)).all()

    def test_default_parameters_give_mostly_light_noise(self):
        traces = np.concatenate([sample_noise_traces(10, seed=s) for s in range(1000)])
        assert traces.size == 10_000
        assert (traces > 1.8).mean() >= 0.99

    def test_deterministic(self):
        assert np.array_equal(sample_noise_traces(8, seed=5), sample_noise_traces(8, seed=5))


class TestNoiseMatrix:
    def test_trace_two_is_identity(self):
        np.testing.assert_array_equal(build_noise_matrix(2.0), np.eye(2))

    def test_trace_19(self):
        np.testing.assert_allclose(build_noise_matrix(1.9),
                                   [[0.95, 0.05], [0.05, 0.95]], atol=1e-15)

    def test_trace_one_is_uninformative(self):
        np.testing.assert_array_equal(build_noise_matrix(1.0), np.full((2, 2), 0.5))

    def test_out_of_range_trace(self):
        for bad in (0.0, -0.5, 2.5):
            with pytest.raises(ValueError, match="trace"):
                build_noise_matrix(bad)

    def test_asymmetric_split_keeps_trace_and_rows(self):
        spec = draw_noise_spec(12, seed=3, symmetric=False)
        np.testing.assert_allclose(spec.matrices.sum(axis=2), 1.0, atol=1e-12)
        np.testing.assert_allclose(spec.matrices[:, 0, 0] + spec.matrices[:, 1, 1],
                                   spec.traces, atol=1e-12)
        assert ((spec.matrices >= 0) & (spec.matrices <= 1)).all()


class TestInjectNoise:
    def test_identity_matrices_change_nothing(self):
        truth = np.random.default_rng(0).integers(0, 2, size=(200, 6))
        matrices = np.broadcast_to(np.eye(2), (6, 2, 2))
        assert np.array_equal(inject_noise(truth, matrices, 3, seed=1), truth)

    def test_zero_cap_changes_nothing(self):
        truth = np.random.default_rng(1).integers(0, 2, size=(200, 6))
        matrices = np.stack([build_noise_matrix(1.0)] * 6)  # 50% flip proposals
        assert np.array_equal(inject_noise(truth, matrices, 0, seed=2), truth)

    def test_per_example_error_cap(self):
        truth = np.random.default_rng(2).integers(0, 2, size=(500, 10))
        matrices = np.stack([build_noise_matrix(1.0)] * 10)
        noisy = inject_noise(truth, matrices, 3, seed=3)
        assert (noisy != truth).sum(axis=1).max() <= 3

    def test_deterministic(self):
        truth = np.random.default_rng(3).integers(0, 2, size=(100, 5))
        matrices = np.stack([build_noise_matrix(1.8)] * 5)
        assert np.array_equal(inject_noise(truth, matrices, 3, seed=9),
                              inject_noise(truth, matrices, 3, seed=9))

    def test_uncapped_flip_rate_matches_matrix(self):
        n, k, p = 5000, 10, 0.05
        truth = np.random.default_rng(4).integers(0, 2, size=(n, k))
        matrices = np.stack([build_noise_matrix(1.9)] * k)  # off-diagonal 0.05
        noisy = inject_noise(truth, matrices, max_errors=k, seed=5)
        rate = (noisy != truth).mean()
        se = math.sqrt(p * (1 - p) / (n * k))
        assert abs(rate - p) < 3 * se

    def test_capped_flip_rate_matches_monte_carlo_oracle(self):
        n, k, p, cap = 5000, 10, 0.05, 3
        truth = np.random.default_rng(5).integers(0, 2, size=(n, k))
        matrices = np.stack([build_noise_matrix(1.9)] * k)
        noisy = inject_noise(truth, matrices, max_errors=cap, seed=6)
        rate = (noisy != truth).mean()

        # independent simulation of the same propose-then-subsample rule
        rng = random.Random(77)
        flips = 0
        for _ in range(n):
            proposed = [c for c in range(k) if rng.random() < p]
            if len(proposed) > cap:
                proposed = rng.sample(proposed, cap)
            flips += len(proposed)
        oracle_rate = flips / (n * k)

        se = math.sqrt(2.0) * math.sqrt(p * (1 - p) / (n * k))
        assert abs(rate - oracle_rate) < 3 * se

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="2x2 matrices"):
            inject_noise(np.zeros((4, 3), dtype=int), np.broadcast_to(np.eye(2), (2, 2, 2)))

    def test_label_outside_0_1_rejected(self):
        truth = np.zeros((3, 2), dtype=int)
        truth[1, 0] = 2
        matrices = np.stack([build_noise_matrix(1.0)] * 2)
        with pytest.raises(ValueError, match=r"label 2 not in \{0,1\} at \(example 1, class 0\)"):
            inject_noise(truth, matrices, 2, seed=0)

    def test_matrix_entry_outside_unit_interval_rejected(self):
        truth = np.zeros((3, 2), dtype=int)
        matrices = np.array([[[1.5, -0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]])
        with pytest.raises(ValueError, match=r"entries must lie in \[0, 1\]"):
            inject_noise(truth, matrices, 2, seed=0)

    def test_non_integer_cap_rejected(self):
        truth = np.random.default_rng(6).integers(0, 2, size=(50, 6))
        matrices = np.stack([build_noise_matrix(1.0)] * 6)  # many rows over the cap
        with pytest.raises(ValueError, match="max_errors must be an integer"):
            inject_noise(truth, matrices, 1.5, seed=0)
        assert np.array_equal(inject_noise(truth, matrices, np.int64(2), seed=0),
                              inject_noise(truth, matrices, 2, seed=0))


class TestInjectNoiseOracle:
    """The whole-matrix injector against the original per-example loop, bit for bit."""

    @staticmethod
    def check(truth, matrices, cap, seed):
        got = inject_noise(truth, matrices, cap, seed)
        want = reference.inject_noise(truth, matrices, cap, seed)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("gamma_scale", [0.01, 0.1, 0.5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_example_loop(self, seed, gamma_scale):
        k = 20
        truth = np.random.default_rng(seed + 100).integers(0, 2, size=(500, k))
        matrices = draw_noise_spec(k, gamma_scale=gamma_scale, seed=seed).matrices
        # rows over each cap, counted from the uncapped output (cap K)
        proposed = (reference.inject_noise(truth, matrices, k, seed) != truth).sum(axis=1)
        for cap in (0, 1, 3, k):
            self.check(truth, matrices, cap, seed)
            self.check(truth.astype(bool), matrices, cap, seed)
        assert (proposed > 1).sum() >= 10
        if gamma_scale >= 0.1:
            assert (proposed > 3).sum() >= 10

    @pytest.mark.parametrize("cap", [0, 1, 3])
    def test_single_class_and_no_examples(self, cap):
        matrices = np.stack([build_noise_matrix(1.0)])
        truth = np.random.default_rng(7).integers(0, 2, size=(300, 1))
        self.check(truth, matrices, cap, seed=4)
        self.check(truth.astype(bool), matrices, cap, seed=4)
        empty, five = np.zeros((0, 5), dtype=np.int64), np.stack([build_noise_matrix(1.0)] * 5)
        self.check(empty, five, cap, seed=4)
        assert inject_noise(empty, five, cap).shape == (0, 5)


class TestNoiseSpec:
    def test_json_roundtrip(self, tmp_path):
        spec = draw_noise_spec(6, seed=11)
        path = tmp_path / "noise.json"
        save_noise_spec_json(path, spec)
        loaded = load_noise_spec_json(path)
        assert np.array_equal(loaded.traces, spec.traces)
        assert np.array_equal(loaded.matrices, spec.matrices)
        assert loaded.seed == spec.seed

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="trace"):
            NoiseSpec(traces=np.array([2.5]), matrices=np.eye(2)[None])
        with pytest.raises(ValueError, match="sum to 1"):
            NoiseSpec(traces=np.array([1.9]),
                      matrices=np.array([[[0.95, 0.2], [0.05, 0.95]]]))

    @pytest.mark.parametrize("field, value, message", [
        ("max_errors_per_example", 1.5, "must be an integer"),
        ("max_errors_per_example", True, "must be an integer"),
        ("max_errors_per_example", -1, "must be >= 0"),
        ("gamma_scale", -1.0, "gamma parameters must be positive"),
        ("gamma_shape", 0.0, "gamma parameters must be positive"),
        ("gamma_scale", math.nan, "gamma parameters must be positive"),
    ])
    def test_bad_parameter_rejected_at_construction(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            NoiseSpec(**{field: value})
        if field == "max_errors_per_example":
            with pytest.raises(ValueError, match=message):
                draw_noise_spec(4, max_errors_per_example=value)

    def test_make_noisy_dataset_respects_cap_and_validates(self):
        config = GenConfig(n_samples=400, n_test=50, n_features=4, n_classes=6,
                           expected_labels_per_example=2.0, seed=1)
        noise = draw_noise_spec(6, seed=2)
        dataset = make_noisy_dataset(config, noise)
        assert (dataset.given_labels != dataset.true_labels).sum(axis=1).max() <= 3
        assert validate(dataset).violations == ()
