import dataclasses
import hashlib
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

import reference
from labelaudit import synth
from labelaudit.synth import (
    LARGE,
    POISSON_LAM_MAX,
    SMALL,
    GenConfig,
    NoiseSpec,
    build_noise_matrix,
    draw_noise_spec,
    gen_multilabel,
    inject_noise,
    load_noise_spec_json,
    sample_noise_traces,
    save_noise_spec_json,
    traces_from_draws,
)

TEST_CONFIG = GenConfig(n_samples=5000, n_test=500, n_features=3, n_classes=4,
                        expected_labels_per_example=2.0, seed=42)
WIDE_CONFIG = GenConfig(n_samples=2000, n_test=400, n_features=5, n_classes=50,
                        expected_labels_per_example=5.0, seed=3)


def truncated_poisson_stats(lam: float, kmax: int) -> tuple[float, float]:
    """Exact mean/std of a Poisson conditioned on X <= kmax (the label-count law)."""
    pmf = [math.exp(-lam) * lam**x / math.factorial(x) for x in range(kmax + 1)]
    z = sum(pmf)
    mean = sum(x * p for x, p in zip(range(kmax + 1), pmf)) / z
    second = sum(x * x * p for x, p in zip(range(kmax + 1), pmf)) / z
    return mean, math.sqrt(second - mean * mean)


class TestGenerator:
    def test_deterministic_given_seed(self):
        for config in (TEST_CONFIG, WIDE_CONFIG):
            a, b = gen_multilabel(config), gen_multilabel(config)
            assert a.example_ids == b.example_ids
            for name in ("given_labels", "true_labels", "features"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
        a = gen_multilabel(TEST_CONFIG)
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
        assert np.isin(dataset.given_labels, (0, 1)).all()
        assert np.isin(dataset.true_labels, (0, 1)).all()
        assert (np.isfinite(dataset.features) & (dataset.features >= 0)).all()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="n_samples"):
            GenConfig(n_samples=0, n_test=1, n_features=2, n_classes=2,
                      expected_labels_per_example=1.0)
        with pytest.raises(ValueError, match="expected_labels"):
            GenConfig(n_samples=10, n_test=1, n_features=2, n_classes=2,
                      expected_labels_per_example=5.0)

    @pytest.mark.parametrize("name", ["n_samples", "n_test", "n_features", "n_classes"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True, "5"])
    def test_non_integer_shape_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            GenConfig(**{**TEST_CONFIG.__dict__, name: value})

    @pytest.mark.parametrize("value, message", [
        (-1, "seed must be >= 0, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
        (True, "seed must be an integer, got True"),
        (None, "seed must be an integer, got None"),
    ])
    def test_bad_seed_rejected(self, value, message):
        with pytest.raises(ValueError, match=message):
            GenConfig(**{**TEST_CONFIG.__dict__, "seed": value})

    def test_numpy_integer_shape_accepted(self):
        config = GenConfig(**{**TEST_CONFIG.__dict__, "n_samples": np.int64(50),
                              "n_classes": np.int32(4)})
        assert gen_multilabel(config).true_labels.shape == (50, 4)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_doc_length_rejected(self, value):
        with pytest.raises(ValueError, match="expected_doc_length must be positive and finite"):
            GenConfig(**{**TEST_CONFIG.__dict__, "expected_doc_length": value})

    def test_doc_length_limit_is_numpys_poisson_limit(self):
        config = GenConfig(**{**TEST_CONFIG.__dict__, "n_samples": 3,
                              "expected_doc_length": POISSON_LAM_MAX})
        assert (gen_multilabel(config).features.sum(axis=1) > 0).all()
        too_large = float(np.nextafter(POISSON_LAM_MAX, np.inf))
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(0).poisson(too_large)
        for value in (too_large, 1e19):
            with pytest.raises(ValueError, match=r"expected_doc_length must be at most"):
                GenConfig(**{**TEST_CONFIG.__dict__, "expected_doc_length": value})

    def test_presets_match_documented_table(self):
        assert (SMALL.n_samples, SMALL.n_features, SMALL.n_classes) == (5000, 3, 4)
        assert SMALL.expected_labels_per_example == 2.0
        assert (LARGE.n_samples, LARGE.n_features, LARGE.n_classes) == (30000, 20, 50)
        assert LARGE.expected_labels_per_example == 5.0
        assert SMALL.expected_doc_length == 500.0


class TestLabelDraw:
    """The batched label draw: the old loop's per-row counts, uniform subsets."""

    @pytest.mark.parametrize("config", [SMALL, WIDE_CONFIG], ids=["small", "2000x50"])
    def test_row_counts_match_per_example_loop(self, config):
        got = gen_multilabel(config).true_labels
        want = reference.gen_label_loop(config)  # int64, as the loop drew them
        assert got.dtype == np.int8 and got.shape == want.shape
        assert np.array_equal(got.sum(axis=1), want.sum(axis=1))
        assert not np.array_equal(got, want)  # same counts, another draw of the classes

    def test_two_label_subsets_are_uniform(self):
        # K=4, c=2: each of the 6 pairs should hold 1/6 of the two-label rows
        config = GenConfig(n_samples=120_000, n_test=1, n_features=1, n_classes=4,
                           expected_labels_per_example=2.0, expected_doc_length=1.0, seed=11)
        labels = gen_multilabel(config).true_labels
        pairs = labels[labels.sum(axis=1) == 2]
        assert len(pairs) >= 30_000
        codes = pairs @ (1 << np.arange(4))  # one bit per class
        observed = np.unique(codes, return_counts=True)[1]
        assert observed.size == math.comb(4, 2)
        assert scipy.stats.chisquare(observed).pvalue > 0.01

    def test_class_marginals_match_count_over_k(self):
        # given the counts c_i, class j is in row i with probability c_i / K, so
        # its column sum has mean sum(c) / K and variance sum(p (1 - p)), p = c / K;
        # every class must lie within 5 standard errors of that mean
        config = GenConfig(**{**WIDE_CONFIG.__dict__, "n_samples": 20_000})
        labels = gen_multilabel(config).true_labels
        p = labels.sum(axis=1) / config.n_classes
        se = math.sqrt((p * (1 - p)).sum())
        assert np.abs(labels.sum(axis=0) - p.sum()).max() < 5 * se
        for c in (1, 5, 9):  # and per label count, c / K within 5 standard errors
            rows = labels[labels.sum(axis=1) == c]
            tol = 5 * math.sqrt(c / 50 * (1 - c / 50) / len(rows))
            assert np.abs(rows.mean(axis=0) - c / 50).max() < tol

    @pytest.mark.parametrize("block_rows", [1, 7, 333, 2000])
    def test_labels_do_not_depend_on_the_block_size(self, block_rows, monkeypatch):
        # 2000 rows of 50 keys in blocks of 1, 7 (a remainder of 5), 333 and
        # all at once: the same labels and words, those of the whole-matrix oracle
        config = WIDE_CONFIG
        monkeypatch.setattr(synth, "_BLOCK_CELLS", block_rows * config.n_classes)
        got = gen_multilabel(config)
        monkeypatch.undo()
        want = gen_multilabel(config)
        assert np.array_equal(got.true_labels, reference.gen_multinomial(config)[0])
        assert np.array_equal(got.true_labels, want.true_labels)
        assert np.array_equal(got.features, want.features)

    def test_tied_keys_mark_exactly_the_count(self):
        # equal keys at the count's boundary mark the lower columns first
        keys = np.array([[0.5, 0.5, 0.5, 0.1],
                         [0.3, 0.3, 0.3, 0.3],
                         [0.3, 0.3, 0.3, 0.3],
                         [0.2, 0.1, 0.2, 0.1],
                         [0.0, 0.0, 0.9, 0.0]])
        counts = np.array([2, 3, 0, 3, 4])
        out = np.full(keys.shape, 7, dtype=np.int8)
        synth._mark_smallest(keys, counts, out)
        assert out.tolist() == [[1, 0, 0, 1], [1, 1, 1, 0], [0, 0, 0, 0],
                                [1, 1, 0, 1], [1, 1, 1, 1]]

    def test_distinct_keys_take_no_repair(self, monkeypatch):
        # distinct keys are marked by the sort and threshold alone: the
        # stable-rank repair (an argsort) runs on no row, c = 0 and c = K included
        rng = np.random.default_rng(4)
        keys = rng.random((400, 50))
        counts = rng.integers(0, 51, size=400)
        counts[:20], counts[20:40] = 0, 50
        out = np.empty(keys.shape, dtype=np.int8)

        def no_repair(*args, **kwargs):
            raise AssertionError("a row was marked again by stable rank")

        monkeypatch.setattr(np, "argsort", no_repair)
        synth._mark_smallest(keys, counts, out)
        monkeypatch.undo()
        assert np.array_equal(out, np.argsort(np.argsort(keys, axis=1), axis=1) < counts[:, None])

    @given(data=st.data())
    def test_keys_with_ties_mark_their_stable_ranks(self, data):
        # keys from a few values tie often; each row marks exactly its count,
        # and marks the classes whose stable rank is below it
        n = data.draw(st.integers(1, 30), label="n")
        k = data.draw(st.integers(1, 12), label="k")
        keys = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.999]),
                                           min_size=n * k, max_size=n * k), label="keys"))
        keys = keys.reshape(n, k)
        counts = np.array(data.draw(st.lists(st.integers(0, k), min_size=n, max_size=n),
                                    label="counts"))
        out = np.empty((n, k), dtype=np.int8)
        synth._mark_smallest(keys, counts, out)
        assert np.array_equal(out.sum(axis=1), counts)
        ranks = np.argsort(np.argsort(keys, axis=1, kind="stable"), axis=1)
        assert np.array_equal(out, ranks < counts[:, None])

    def test_large_draw_holds_small_key_blocks(self):
        # The keys are drawn and sorted in row blocks: traced at LARGE the
        # generator peaks at ~22 MB; drawn whole, the N x K keys and their sort
        # put it at ~27 MB
        tracemalloc.start()
        try:
            gen_multilabel(LARGE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28e6


class TestWordDraw:
    """Word counts as independent Poisson(lambda * p) cells: the law of the
    Poisson-length multinomial draw they replaced, after the same labels."""

    @pytest.mark.parametrize("config", [SMALL, WIDE_CONFIG], ids=["small", "2000x50"])
    def test_labels_match_multinomial_generator(self, config):
        dataset = gen_multilabel(config)
        labels, features = reference.gen_multinomial(config)
        assert np.array_equal(dataset.true_labels, labels)
        assert dataset.features.shape == features.shape
        assert not np.array_equal(dataset.features, features)  # the words are redrawn

    def test_cells_of_one_mixture_are_independent_poissons(self):
        # rows with one label set share one mixture p; a Poisson(lambda * p_d)
        # cell has variance equal to its mean and no covariance with another
        # cell, where a fixed-length multinomial has variance L p_d (1 - p_d)
        # and covariance -L p_d p_e
        config = GenConfig(n_samples=20_000, n_test=1, n_features=3, n_classes=2,
                           expected_labels_per_example=0.5, seed=5)
        dataset = gen_multilabel(config)
        codes = dataset.true_labels @ np.array([1, 2])
        for code in (0, 1):  # no label (p = 1/3 each) and class 0 alone
            cells = dataset.features[codes == code]
            n = len(cells)
            assert n >= 2000
            mean = cells.mean(axis=0)
            var = cells.var(axis=0, ddof=1)
            # the sample variance of a Poisson(m) cell has variance (m + 2 m^2) / n
            assert (np.abs(var - mean) < 5 * np.sqrt((mean + 2 * mean**2) / n)).all()
            cov = np.cov(cells, rowvar=False)
            for a, b in ((0, 1), (0, 2), (1, 2)):
                assert abs(cov[a, b]) < 5 * math.sqrt(mean[a] * mean[b] / n)
        uniform = dataset.features[codes == 0]
        se = math.sqrt(500.0 / 3 / len(uniform))
        assert np.abs(uniform.mean(axis=0) - 500.0 / 3).max() < 5 * se


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

    @pytest.mark.parametrize("param", ["gamma_shape", "gamma_scale"])
    def test_infinite_gamma_parameter_rejected(self, param):
        # an infinite parameter would draw inf for every class: every trace 2, no noise
        for draw in (sample_noise_traces, draw_noise_spec):
            with pytest.raises(ValueError, match="gamma parameters must be positive and finite"):
                draw(4, **{param: math.inf})


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

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    @pytest.mark.parametrize("n_classes", [1, 4, 50])
    @pytest.mark.parametrize("gamma_scale", [0.01, 0.3, 2.0])
    def test_asymmetric_split_matches_per_class_loop(self, seed, n_classes, gamma_scale):
        spec = draw_noise_spec(n_classes, gamma_scale=gamma_scale, seed=seed, symmetric=False)
        expected = reference.asymmetric_noise_matrices(spec.traces, seed + 1)
        assert np.array_equal(spec.matrices.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    @pytest.mark.parametrize("n_classes", [1, 4, 50])
    @pytest.mark.parametrize("gamma_scale", [0.01, 0.3, 2.0])
    def test_symmetric_split_matches_per_class_loop(self, seed, n_classes, gamma_scale):
        spec = draw_noise_spec(n_classes, gamma_scale=gamma_scale, seed=seed)
        expected = np.stack([build_noise_matrix(t) for t in spec.traces])
        assert np.array_equal(spec.matrices.view(np.uint64), expected.view(np.uint64))


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
    """The whole-matrix injector against a per-example loop, bit for bit."""

    @staticmethod
    def check(truth, matrices, cap, seed):
        got = inject_noise(truth, matrices, cap, seed)
        want = reference.inject_noise(truth, matrices, cap, seed)  # in the dtype of truth
        assert got.dtype == np.int8
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

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("cap", [0, 1, 3])
    def test_row_blocks_draw_the_stream_of_one_draw(self, cap, symmetric, monkeypatch):
        # 301 rows in blocks of 25: twelve full blocks and a one-row remainder
        n, k = 301, 20
        monkeypatch.setattr(synth, "_BLOCK_CELLS", 25 * k)
        draws = []
        real_rng = np.random.default_rng

        class RecordingRng:
            def __init__(self, seed):
                self.rng = real_rng(seed)

            def random(self, size):
                draws.append(size)
                return self.rng.random(size)

        truth = np.random.default_rng(cap + 200).integers(0, 2, size=(n, k))
        matrices = draw_noise_spec(k, gamma_scale=0.3, seed=cap, symmetric=symmetric).matrices
        monkeypatch.setattr(np.random, "default_rng", RecordingRng)
        got = inject_noise(truth, matrices, cap, seed=cap)
        monkeypatch.setattr(np.random, "default_rng", real_rng)
        proposed = (reference.inject_noise(truth, matrices, k, cap) != truth).sum(axis=1)
        n_capped = int((proposed > cap).sum())
        assert n_capped >= 10
        # the capped rows' keys are one draw after the blocks
        assert draws == [(25, k)] * 12 + [(1, k)] + [(n_capped, k)]
        assert got.dtype == np.int8
        assert np.array_equal(got, reference.inject_noise(truth, matrices, cap, cap))

    def test_capped_row_keeps_a_uniform_subset(self):
        # every row proposes the same 5 of 8 classes and keeps 3: each of the
        # C(5, 3) = 10 subsets should be kept by ~1/10 of the rows
        n, k, cap = 10000, 8, 3
        noisy_classes = [0, 2, 3, 5, 7]
        matrices = np.stack([np.eye(2)] * k)
        matrices[noisy_classes] = [[0.0, 1.0], [1.0, 0.0]]
        truth = np.random.default_rng(30).integers(0, 2, size=(n, k))
        flips = inject_noise(truth, matrices, cap, seed=31) != truth
        assert (flips.sum(axis=1) == cap).all()
        assert not flips[:, [1, 4, 6]].any()
        kept = flips[:, noisy_classes] @ (1 << np.arange(5))  # one bit a proposed class
        subsets, counts = np.unique(kept, return_counts=True)
        assert len(subsets) == math.comb(5, cap)
        assert scipy.stats.chisquare(counts).pvalue > 1e-3

    @pytest.mark.parametrize("gamma_scale, noise_seed, caps, digest", [
        (0.3, 4, (12, 20), "08f56109ed854c28e59bb6c70e0a9ad63b08ab5c86f554ec2de29e168f0a67b2"),
        (0.01, 5, (5, 20), "1b56e784a0981f05b6d38f3e07015bf6cfdf9e5f8f3acc300aeee39c99ce6ba6"),
    ])
    def test_no_capped_row_keeps_the_bits_of_the_choice_injector(
            self, gamma_scale, noise_seed, caps, digest):
        # digests of the injector that drew one rng.choice per capped row;
        # with no row over the cap, no key is drawn and the bits are its bits
        truth = np.random.default_rng(8).integers(0, 2, size=(3000, 20))
        matrices = draw_noise_spec(20, gamma_scale=gamma_scale, seed=3).matrices
        for cap in caps:
            noisy = inject_noise(truth, matrices, cap, seed=noise_seed)
            assert (noisy != truth).sum(axis=1).max() == caps[0]
            assert hashlib.sha256(noisy.tobytes()).hexdigest() == digest


class TestNoiseSpec:
    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "noise.json"
        keys = ["gamma_shape", "gamma_scale", "max_errors_per_example", "seed", "traces", "matrices"]
        for spec in (draw_noise_spec(6, seed=11),
                     draw_noise_spec(6, gamma_shape=3.5, gamma_scale=0.02,
                                     max_errors_per_example=2, seed=12, symmetric=False)):
            save_noise_spec_json(path, spec)
            loaded = load_noise_spec_json(path)
            written = json.loads(path.read_text())
            assert list(written) == keys
            for key in keys:
                want, got = getattr(spec, key), getattr(loaded, key)
                assert type(got) is type(want) and np.array_equal(got, want), key
                if isinstance(want, np.ndarray):
                    assert got.shape == want.shape and got.dtype == want.dtype, key
        # numpy integers, which NoiseSpec accepts, are written as the ints they hold
        text = path.read_text()
        save_noise_spec_json(path, dataclasses.replace(
            spec, max_errors_per_example=np.int64(2), seed=np.int64(12)))
        assert path.read_text() == text
        for key in keys:
            path.write_text(json.dumps({k: v for k, v in written.items() if k != key}))
            with pytest.raises(KeyError, match=key):
                load_noise_spec_json(path)

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
        ("gamma_scale", math.inf, "gamma parameters must be positive and finite"),
        ("gamma_shape", math.inf, "gamma parameters must be positive and finite"),
    ])
    def test_bad_parameter_rejected_at_construction(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            NoiseSpec(**{field: value})
        if field == "max_errors_per_example":
            with pytest.raises(ValueError, match=message):
                draw_noise_spec(4, max_errors_per_example=value)

    def test_injected_noise_on_generated_labels_respects_cap(self):
        # generate, then inject, as bench and the gen command do
        config = GenConfig(n_samples=400, n_test=50, n_features=4, n_classes=6,
                           expected_labels_per_example=2.0, seed=1)
        noise = draw_noise_spec(6, seed=2)
        truth = gen_multilabel(config).true_labels
        noisy = inject_noise(truth, noise.matrices, noise.max_errors_per_example, noise.seed)
        assert (noisy != truth).sum(axis=1).max() <= 3
        assert np.isin(noisy, (0, 1)).all()
