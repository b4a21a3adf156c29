import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

import reference
from labelaudit.metrics import (
    METRIC_NAMES,
    ErrorTruth,
    MetricResult,
    _average_ranks,
    ap_at_t,
    auprc,
    error_truth,
    evaluate,
    rank_ascending,
    spearman,
)


def truth_from_counts(counts):
    counts = np.asarray(counts)
    return ErrorTruth(counts > 0, counts)


class TestRankAscending:
    def test_three_elements(self):
        assert rank_ascending(np.array([0.3, 0.1, 0.2])).tolist() == [1, 2, 0]

    def test_all_equal_is_identity(self):
        assert rank_ascending(np.full(5, 0.4)).tolist() == [0, 1, 2, 3, 4]

    def test_reversed_input(self):
        assert rank_ascending(np.array([3.0, 2.0, 1.0]))[::-1].tolist() == [0, 1, 2]

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            rank_ascending(np.array([0.1, math.nan]))

    @staticmethod
    def assert_stable_argsort(values):
        values = np.asarray(values, dtype=np.float64)
        got = rank_ascending(values)
        assert got.dtype == np.intp
        assert got.tolist() == np.argsort(values, kind="stable").tolist()

    # a handful of values, so most draws are runs of ties; -0.0 == 0.0 ties too
    @given(st.lists(st.sampled_from([-0.0, 0.0, 0.25, 1.0, -1.5, math.inf, -math.inf]),
                    max_size=300))
    def test_tie_heavy_vectors_rank_as_the_stable_argsort(self, values):
        self.assert_stable_argsort(values)

    @pytest.mark.parametrize("values", [
        [], [0.5], [0.5, 0.5], [0.7, 0.2], [0.2, 0.7], [-0.0, 0.0], [0.0, -0.0],
        [0.0, -0.0, 0.0, -0.0], [math.inf, math.inf], [-math.inf, 0.0, -math.inf],
    ])
    def test_short_vectors_rank_as_the_stable_argsort(self, values):
        self.assert_stable_argsort(values)

    @pytest.mark.parametrize("n", [2, 3, 17, 1000])
    @pytest.mark.parametrize("value", [-0.0, 0.0, 0.3, math.inf])
    def test_all_equal_vectors_are_the_identity(self, n, value):
        assert rank_ascending(np.full(n, value)).tolist() == list(range(n))

    @pytest.mark.parametrize("levels", [None, 50])
    def test_benchmark_length_vector_ranks_as_the_stable_argsort(self, levels):
        values = np.random.default_rng(10).random(30000)
        if levels is not None:  # 50 distinct values: every run of ties is long
            values = np.floor(values * levels) / levels
        self.assert_stable_argsort(values)


class TestApAtT:
    def test_hand_evaluation(self):
        # ranked ascending: positives at ranks 1 and 3; window T=2 sees one hit
        scores = np.array([0.1, 0.2, 0.3])
        truth = truth_from_counts([1, 0, 1])
        result = ap_at_t(scores, truth, t=2)
        assert result.value == pytest.approx(1.0)
        assert result.param_t == 2

    def test_perfect_ranking(self):
        scores = np.array([0.0, 0.1, 0.2, 0.8, 0.9])
        truth = truth_from_counts([1, 1, 2, 0, 0])
        for t in (1, 2, 3):
            assert ap_at_t(scores, truth, t=t).value == 1.0

    def test_zero_positives_in_window(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        truth = truth_from_counts([0, 0, 1, 1])
        assert ap_at_t(scores, truth, t=2).value == 0.0

    def test_severe_variants_use_error_count_threshold(self):
        scores = np.array([0.05, 0.1, 0.2, 0.9])
        truth = truth_from_counts([3, 1, 2, 0])
        assert ap_at_t(scores, truth, t=4, min_errors=2).n_positives == 2
        assert ap_at_t(scores, truth, t=1, min_errors=3).value == 1.0
        assert ap_at_t(scores, truth, t=1, min_errors=2).value == 1.0

    def test_default_t_is_number_of_mislabeled(self):
        scores = np.array([0.4, 0.3, 0.2, 0.1])
        truth = truth_from_counts([1, 0, 0, 1])
        assert ap_at_t(scores, truth).param_t == 2

    def test_parameter_errors(self):
        scores = np.array([0.1, 0.2])
        truth = truth_from_counts([1, 0])
        with pytest.raises(ValueError, match="T must be"):
            ap_at_t(scores, truth, t=3)
        with pytest.raises(ValueError, match="min_errors"):
            ap_at_t(scores, truth, t=1, min_errors=0)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(0)
        scores = rng.random(30)
        truth = truth_from_counts(rng.integers(0, 3, size=30))
        for t in (5, 15, 30):
            base = ap_at_t(scores, truth, t=t).value
            assert ap_at_t(np.exp(scores), truth, t=t).value == pytest.approx(base)
            assert ap_at_t(scores * 7 + 3, truth, t=t).value == pytest.approx(base)

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(2, 50))
            scores = rng.random(n)
            counts = rng.integers(0, 4, size=n)
            truth = truth_from_counts(counts)
            for k in (1, 2):
                t = int(rng.integers(1, n + 1))
                mine = ap_at_t(scores, truth, t=t, min_errors=k).value
                ref = reference.ap_at_t(scores.tolist(), (counts >= k).tolist(), t)
                assert mine == pytest.approx(ref, abs=1e-12)


class TestAuprc:
    def test_perfect_ranking(self):
        scores = np.array([0.1, 0.2, 0.9, 1.0])
        truth = truth_from_counts([1, 1, 0, 0])
        assert auprc(scores, truth).value == 1.0

    def test_anti_perfect_closed_form(self):
        # 3 positives ranked dead last among 10: precision hits 1/8, 2/9, 3/10
        scores = np.arange(10, dtype=float)
        truth = truth_from_counts([0] * 7 + [1, 1, 1])
        expected = (1 / 8 + 2 / 9 + 3 / 10) / 3
        got = auprc(scores, truth).value
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.21574074074074073, abs=1e-12)

    def test_equals_ap_at_n_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            scores = rng.random(n)
            counts = rng.integers(0, 3, size=n)
            if not (counts > 0).any():
                counts[0] = 1
            truth = truth_from_counts(counts)
            assert auprc(scores, truth).value == ap_at_t(scores, truth, t=n).value

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 50))
            scores = rng.random(n)
            counts = rng.integers(0, 2, size=n)
            if not (counts > 0).any():
                counts[0] = 1
            truth = truth_from_counts(counts)
            ref = reference.auprc(scores.tolist(), (counts > 0).tolist())
            assert auprc(scores, truth).value == pytest.approx(ref, abs=1e-12)

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError, match="no mislabeled"):
            auprc(np.array([0.1, 0.2]), truth_from_counts([0, 0]))


class TestSpearman:
    def test_perfect_antitone(self):
        assert spearman(np.array([1.0, 2.0, 3.0]), np.array([5, 4, 3])).value == pytest.approx(-1.0)

    def test_perfect_monotone(self):
        counts = np.array([0, 1, 2, 5])
        assert spearman(counts.astype(float), counts).value == pytest.approx(1.0)

    def test_tied_data_average_ranks(self):
        got = spearman(np.array([1.0, 1.0, 2.0]), np.array([1, 2, 3])).value
        assert got == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
        assert got == pytest.approx(0.866025, abs=1e-6)

    def test_constant_input_reported_missing(self):
        result = spearman(np.full(4, 0.5), np.array([1, 2, 3, 4]))
        assert result.missing
        result = spearman(np.array([0.5, 0.7, 0.1, 0.2]), np.zeros(4, dtype=int))
        assert result.missing

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(4)
        x = rng.random(40)
        y = rng.integers(0, 5, size=40)
        base = spearman(x, y).value
        assert spearman(np.exp(x), y).value == pytest.approx(base, abs=1e-12)
        assert spearman(x, y * 10 + 1).value == pytest.approx(base, abs=1e-12)

    def test_matches_reference_and_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(3, 50))
            x = rng.integers(0, 6, size=n).astype(float)  # plenty of ties
            y = rng.integers(0, 4, size=n)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            mine = spearman(x, y).value
            assert mine == pytest.approx(reference.spearman(x, y), abs=1e-12)
            assert mine == pytest.approx(scipy.stats.spearmanr(x, y).statistic, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            spearman(np.array([1.0]), np.array([2]))

    def test_nan_score_rejected(self):
        # as evaluate, ap_at_t and auprc reject it; a NaN used to rank last
        with pytest.raises(ValueError, match="scores contain NaN"):
            spearman(np.array([1.0, np.nan, 3.0, 4.0]), np.array([0, 1, 1, 2]))

    def test_nan_error_count_rejected(self):
        with pytest.raises(ValueError, match="error counts contain NaN"):
            spearman(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.0, np.nan, 1.0, 2.0]))

    @staticmethod
    def doubled_centred_ranks(values):
        """2 * (average rank - mean rank) of each value, as Python integers.

        A run of ties at sorted positions s..s+m-1 (from 0) has the average
        rank s + (m+1)/2, and the ranks' mean is (n+1)/2.
        """
        n = len(values)
        order = sorted(range(n), key=values.__getitem__)
        doubled = [0] * n
        start = 0
        while start < n:
            stop = start
            while stop < n and values[order[stop]] == values[order[start]]:
                stop += 1
            for i in order[start:stop]:
                doubled[i] = 2 * start + (stop - start) + 1 - (n + 1)
            start = stop
        return doubled

    def test_exact_at_benchmark_length(self):
        # The centred ranks are half-integers. Below N ~ 3e5 every partial sum
        # of their products is a multiple of 1/4 below 2**53, so each dot
        # product is exact in any summation order, and rho cannot depend on
        # how BLAS splits it. With the doubled ranks a, b it is then
        # (sum ab / 4) / sqrt((sum aa / 4) * (sum bb / 4)), each quotient exact.
        rng = np.random.default_rng(11)
        n = 30000
        scores = rng.integers(0, 700, size=n) / 700  # ties in the scores
        counts = rng.integers(0, 4, size=n)  # and in the counts
        a = self.doubled_centred_ranks(scores.tolist())
        b = self.doubled_centred_ranks(counts.tolist())
        expected = (sum(x * y for x, y in zip(a, b)) / 4) / math.sqrt(
            (sum(x * x for x in a) / 4) * (sum(y * y for y in b) / 4))
        assert spearman(scores, counts).value == expected
        rho = {r.name: r.value for r in evaluate(scores, truth_from_counts(counts))}["spearman"]
        assert rho == expected


class TestErrorTruth:
    def test_error_truth_from_label_pair(self):
        given = np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1]])
        true = np.array([[1, 0, 1], [1, 1, 0], [0, 0, 0]])
        truth = error_truth(given, true)
        assert truth.error_counts.tolist() == [0, 2, 3]
        assert truth.error_flags.tolist() == [False, True, True]
        assert truth.n_mislabeled == 2

    def test_inconsistent_flags_rejected(self):
        with pytest.raises(ValueError, match="error_flags must equal"):
            ErrorTruth(np.array([True, False]), np.array([0, 1]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            error_truth(np.zeros((2, 2)), np.zeros((3, 2)))


class TestAverageRanks:
    SPECIALS = [math.nan, 0.0, -0.0, math.inf, -math.inf]

    @staticmethod
    def assert_bitwise_reference(values):
        values = np.asarray(values, dtype=np.float64)
        expected = np.array(reference._average_ranks(values.tolist()), dtype=np.float64)
        got = _average_ranks(values)
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    @pytest.mark.parametrize("values", [
        [0.5], [0.5, 0.5], [0.7, 0.2], [math.nan], [math.nan, math.nan], [math.nan, 1.0],
        [0.0, -0.0, 0.0], [-0.0, 1.0, 0.0], [math.inf, -math.inf, math.inf, 0.0],
        [1.0, math.nan, 1.0, math.nan, -math.inf], [2.0] * 7 + [1.0] * 5,
    ])
    def test_edge_vectors_match_reference(self, values):
        self.assert_bitwise_reference(values)

    def test_random_tied_and_special_vectors_match_reference(self):
        rng = np.random.default_rng(6)
        for trial in range(200):
            n = int(rng.integers(1, 120))
            values = rng.integers(0, 1 + trial % 7, size=n).astype(float)
            special = rng.random(n) < 0.2 * (trial % 3)
            values[special] = rng.choice(self.SPECIALS, size=int(special.sum()))
            self.assert_bitwise_reference(values)

    def test_given_order_gives_the_same_ranks(self):
        values = np.random.default_rng(7).integers(0, 5, size=300).astype(float)
        order = np.argsort(values, kind="stable")
        assert np.array_equal(_average_ranks(values, order), _average_ranks(values))

    @pytest.mark.parametrize("counts", [
        [0], [3], [1, 1], [2, 0],
        np.random.default_rng(8).integers(0, 4, size=30000),
    ], ids=["one-zero", "one-three", "two-tied", "two-apart", "30000-tied"])
    def test_count_ranks_take_the_bits_of_the_stable_order(self, counts):
        # the error counts are ranked from numpy's default argsort, which may
        # order a run of ties otherwise; every run takes one averaged rank
        counts = np.asarray(counts, dtype=np.int64)
        ranks = _average_ranks(counts, np.argsort(counts, kind="stable"))
        expected = ranks - ranks.mean()
        got = truth_from_counts(counts).centred_count_ranks
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


class TestEvaluate:
    @staticmethod
    def public_results(scores, truth):
        rho = spearman(scores, truth.error_counts)
        return [auprc(scores, truth), ap_at_t(scores, truth),
                ap_at_t(scores, truth, min_errors=2), ap_at_t(scores, truth, min_errors=3),
                rho, MetricResult("neg_spearman", -rho.value)]

    @pytest.mark.parametrize("levels", [None, 3, 1000])
    def test_equals_public_functions_exactly(self, levels):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(5, 400))
            scores = rng.random(n) if levels is None else rng.integers(0, levels, n) / levels
            counts = rng.integers(0, 4, size=n)
            counts[0] = 3
            truth = truth_from_counts(counts)
            got = evaluate(scores, truth)
            assert [r.name for r in got] == list(METRIC_NAMES)
            for mine, public in zip(got, self.public_results(scores, truth)):
                assert mine.value == public.value
                assert (mine.param_t, mine.param_k, mine.n_positives) == \
                    (public.param_t, public.param_k, public.n_positives)

    def test_neg_spearman_is_exactly_minus_spearman(self):
        rng = np.random.default_rng(9)
        scores = rng.integers(0, 20, size=500) / 20
        truth = truth_from_counts(rng.integers(0, 3, size=500))
        rho, neg = evaluate(scores, truth, ("spearman", "neg_spearman"))
        assert neg.value == -rho.value
        assert rho.value == spearman(scores, truth.error_counts).value

    def test_truth_ranks_are_made_once(self):
        truth = truth_from_counts([0, 2, 1, 0, 3])
        ranks = truth.centred_count_ranks
        evaluate(np.array([0.3, 0.1, 0.2, 0.5, 0.0]), truth)
        assert truth.centred_count_ranks is ranks

    def test_constant_scores_give_missing_spearman(self):
        truth = truth_from_counts([1, 0, 2, 0])
        results = {r.name: r for r in evaluate(np.full(4, 0.5), truth)}
        assert results["spearman"].missing and results["neg_spearman"].missing
        assert not results["auprc"].missing

    def test_nan_scores_rejected(self):
        with pytest.raises(ValueError, match="^scores contain NaN$"):
            evaluate(np.array([0.1, math.nan, 0.3]), truth_from_counts([1, 0, 0]),
                     ("spearman",))

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric 'ap4_at_t'"):
            evaluate(np.array([0.1, 0.2]), truth_from_counts([1, 0]), ("ap4_at_t",))

    def test_errors_of_the_public_functions(self):
        # with no mislabeled example every metric is undefined: evaluate
        # reports NaN where auprc and ap_at_t raise
        scores = np.array([0.1, 0.2])
        results = evaluate(scores, truth_from_counts([0, 0]))
        assert [r.name for r in results] == list(METRIC_NAMES)
        assert all(r.missing for r in results)
        assert [(r.param_t, r.param_k, r.n_positives) for r in results[:4]] == \
            [(None, 1, 0), (None, 1, 0), (None, 2, 0), (None, 3, 0)]
        with pytest.raises(ValueError, match="no mislabeled"):
            auprc(scores, truth_from_counts([0, 0]))
        with pytest.raises(ValueError, match="T must be"):
            ap_at_t(scores, truth_from_counts([0, 0]))
        for names in (METRIC_NAMES, ("ap_at_t",), ("spearman",)):
            for counts in ([1, 0, 0], [0, 0, 0]):
                with pytest.raises(ValueError, match="2 scores vs 3 truth entries"):
                    evaluate(scores, truth_from_counts(counts), names)
