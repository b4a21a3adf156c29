import math
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference
from labelaudit import scoring
from labelaudit.scoring import (
    POOLER_NAMES,
    PoolingMethod,
    pool,
    rescale_for_display,
    score_all,
    score_examples,
    self_confidence,
)

row = lambda *vals: np.array([list(vals)])

score_rows = st.lists(
    st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=8
)


class TestSelfConfidence:
    def test_given_positive_returns_probability(self):
        assert self_confidence(row(1), row(0.9))[0, 0] == pytest.approx(0.9)

    def test_given_negative_returns_complement(self):
        assert self_confidence(row(0), row(0.9))[0, 0] == pytest.approx(0.1)

    def test_boundary(self):
        assert self_confidence(row(0), row(0.0))[0, 0] == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            self_confidence(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=(50, 6))
        probs = rng.random((50, 6))
        s = self_confidence(labels, probs)
        assert (s >= 0).all() and (s <= 1).all()


def pooled(name, scores, **params):
    return pool(scores, PoolingMethod(name, **params))


class TestBaselinePoolers:
    def test_two_element_reductions(self):
        s = row(0.2, 0.8)
        assert pooled("min", s)[0] == 0.2
        assert pooled("max", s)[0] == 0.8
        assert pooled("mean", s)[0] == pytest.approx(0.5)
        assert pooled("median", s)[0] == pytest.approx(0.5)

    def test_constant_vector(self):
        s = row(0.5, 0.5, 0.5)
        for name in ("min", "max", "mean", "median"):
            assert pooled(name, s)[0] == 0.5

    def test_median_even_count_midpoint(self):
        # sorted (0.1, 0.4, 0.9, 1.0) -> midpoint of 0.4 and 0.9
        assert pooled("median", row(0.1, 0.4, 0.9, 1.0))[0] == pytest.approx(0.65)

    def test_empty_class_axis_rejected(self):
        with pytest.raises(ValueError, match="empty class axis"):
            pooled("min", np.empty((3, 0)))


class TestEma:
    def test_single_class_returns_score(self):
        for alpha in (0.1, 0.8, 1.0):
            assert pooled("ema", row(0.4), alpha=alpha)[0] == 0.4

    def test_hand_evaluation(self):
        # descending (0.9, 0.5): start 0.9, then 0.8*0.5 + 0.2*0.9 = 0.58
        assert pooled("ema", row(0.9, 0.5), alpha=0.8)[0] == pytest.approx(0.58, abs=1e-15)

    def test_alpha_one_is_min(self):
        rng = np.random.default_rng(1)
        s = rng.random((40, 7))
        assert np.array_equal(pooled("ema", s, alpha=1.0), pooled("min", s))

    def test_alpha_to_zero_is_max(self):
        rng = np.random.default_rng(2)
        s = rng.random((40, 7))
        assert np.max(np.abs(pooled("ema", s, alpha=1e-6) - pooled("max", s))) < 1e-4

    def test_sorted_position_weights(self):
        # Contribution of the k-th smallest score is alpha*(1-alpha)^(k-1)
        # (k < K); probed by bumping one sorted position of an increasing row.
        alpha, k_classes = 0.8, 6
        base = np.linspace(0.1, 0.6, k_classes)
        delta = 1.0 / 64.0
        for k in range(1, k_classes):
            bumped = base.copy()
            bumped[k - 1] += delta
            w = (pooled("ema", bumped[None, :], alpha=alpha)
                 - pooled("ema", base[None, :], alpha=alpha))[0] / delta
            assert w == pytest.approx(alpha * (1 - alpha) ** (k - 1), abs=1e-12)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError, match="alpha"):
            pooled("ema", row(0.5), alpha=1.5)
        with pytest.raises(ValueError, match="alpha"):
            pooled("ema", row(0.5), alpha=0.0)


class TestSoftmin:
    def test_constant_input(self):
        for c in (0.0, 0.3, 1.0):
            assert pooled("softmin", row(c, c, c, c))[0] == pytest.approx(c, abs=1e-15)

    def test_two_term_closed_form(self):
        # weights ~ (e^10, e^0): pooled = 1 / (e^10 + 1)
        expected = 1.0 / (math.exp(10.0) + 1.0)
        assert pooled("softmin", row(0.0, 1.0), tau=0.1)[0] == pytest.approx(expected, rel=1e-12)
        assert pooled("softmin", row(0.0, 1.0), tau=0.1)[0] == pytest.approx(4.5398e-5, rel=1e-4)

    def test_small_temperature_approaches_min(self):
        rng = np.random.default_rng(3)
        s = rng.random((30, 5))
        assert np.max(np.abs(pooled("softmin", s, tau=1e-4) - pooled("min", s))) < 1e-6

    def test_extreme_temperature_does_not_overflow(self):
        s = row(0.0, 1.0)
        for tau in (1e-9, 1e9):
            assert np.isfinite(pooled("softmin", s, tau=tau)).all()

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError, match="tau"):
            pooled("softmin", row(0.5), tau=0.0)
        # an infinite tau weights every score alike: softmin would be the mean
        with pytest.raises(ValueError, match="^tau must be finite and > 0, got inf$"):
            pooled("softmin", row(0.5), tau=math.inf)


class TestLogPool:
    def test_all_ones(self):
        assert pooled("log", row(1.0, 1.0))[0] == pytest.approx(math.log(1 + 1e-8), rel=1e-12)

    def test_zero_and_one(self):
        expected = (math.log(1e-8) + math.log(1 + 1e-8)) / 2
        got = pooled("log", row(0.0, 1.0))[0]
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(-9.2103, abs=1e-4)

    def test_all_zero_is_finite_floor(self):
        got = pooled("log", np.zeros((1, 4)))[0]
        assert got == pytest.approx(math.log(1e-8), rel=1e-12)
        assert np.isfinite(got)

    @pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -1e-8])
    def test_eps_must_be_finite_and_positive(self, eps):
        with pytest.raises(ValueError, match="eps must be finite and > 0"):
            PoolingMethod("log", eps=eps)


class TestCumAvgBottom:
    def test_j1_is_min(self):
        rng = np.random.default_rng(4)
        s = rng.random((30, 6))
        assert np.array_equal(pooled("cumavg_bottom", s, bottom_j=1), pooled("min", s))

    def test_jk_is_mean(self):
        rng = np.random.default_rng(5)
        s = rng.random((30, 6))
        np.testing.assert_allclose(pooled("cumavg_bottom", s, bottom_j=6), pooled("mean", s),
                                   rtol=1e-12)

    def test_hand_evaluation(self):
        assert pooled("cumavg_bottom", row(0.9, 0.1, 0.3), bottom_j=2)[0] == pytest.approx(0.2, abs=1e-15)

    def test_j_out_of_range(self):
        with pytest.raises(ValueError, match="bottom_j"):
            pooled("cumavg_bottom", row(0.5, 0.6), bottom_j=3)


class TestWeightedCumAvg:
    def test_single_class(self):
        assert pooled("weighted_cumavg", row(0.5))[0] == pytest.approx(0.5, abs=1e-15)

    def test_two_term_hand_evaluation(self):
        expected = math.exp(-1.0) * 0.5  # J=1 term is 0, J=2 term is e^-1 * 1/2
        got = pooled("weighted_cumavg", row(0.0, 1.0))[0]
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.18394, abs=1e-5)

    def test_constant_input_scales_by_weight_sum(self):
        for k in (1, 3, 7):
            weight_sum = sum(math.exp(1 - j) for j in range(1, k + 1))
            got = pooled("weighted_cumavg", np.full((1, k), 0.4))[0]
            assert got == pytest.approx(0.4 * weight_sum, rel=1e-12)


class TestSma:
    def test_p1_is_mean(self):
        rng = np.random.default_rng(6)
        s = rng.random((30, 6))
        np.testing.assert_allclose(pooled("sma", s, period=1), pooled("mean", s), rtol=1e-12)

    def test_pk_is_mean(self):
        rng = np.random.default_rng(7)
        s = rng.random((30, 6))
        np.testing.assert_allclose(pooled("sma", s, period=6), pooled("mean", s), rtol=1e-12)

    def test_hand_window_sums(self):
        # windows (0.1,0.3) and (0.3,0.9): total 1.6 over denominator 4
        assert pooled("sma", row(0.1, 0.3, 0.9), period=2)[0] == pytest.approx(0.4, abs=1e-15)

    def test_constant_input(self):
        for p in (1, 2, 3, 5):
            assert pooled("sma", np.full((1, 5), 0.7), period=p)[0] == pytest.approx(0.7, rel=1e-12)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError, match="period"):
            pooled("sma", row(0.5, 0.6), period=3)


class TestDispatcher:
    def test_min_after_self_confidence(self):
        result = score_examples(row(1, 0), row(0.9, 0.2), PoolingMethod("min"))
        assert result.values[0] == pytest.approx(0.8)
        assert result.method.name == "min"

    def test_ema_alpha_one_equals_min(self):
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 2, size=(25, 5))
        probs = rng.random((25, 5))
        via_ema = score_examples(labels, probs, PoolingMethod("ema", alpha=1.0))
        via_min = score_examples(labels, probs, PoolingMethod("min"))
        assert np.array_equal(via_ema.values, via_min.values)

    def test_mean_on_half_probabilities(self):
        labels = np.array([[1, 0, 1], [0, 0, 0]])
        probs = np.full((2, 3), 0.5)
        result = score_examples(labels, probs, PoolingMethod("mean"))
        np.testing.assert_allclose(result.values, 0.5)

    def test_method_params_recorded(self):
        method = PoolingMethod("ema", alpha=0.9)
        result = score_examples(row(1), row(0.7), method)
        assert result.method.params() == {"alpha": 0.9}
        # each method reports the one parameter it reads, or none
        assert {name: PoolingMethod(name).params() for name in POOLER_NAMES} == {
            "min": {}, "max": {}, "mean": {}, "median": {},
            "ema": {"alpha": 0.8}, "softmin": {"tau": 0.1}, "log": {"eps": 1e-8},
            "cumavg_bottom": {"bottom_j": 2}, "weighted_cumavg": {}, "sma": {"period": 2},
        }

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown pooling method"):
            PoolingMethod("softmax")

    def test_param_check_against_class_count(self):
        with pytest.raises(ValueError, match="bottom_j"):
            pool(np.full((2, 2), 0.5), PoolingMethod("cumavg_bottom", bottom_j=3))
        with pytest.raises(ValueError, match="period=3 exceeds the 2 classes"):
            pool(np.full((2, 2), 0.5), PoolingMethod("sma", period=3))
        # a window size bounds only the method that reads it, and tau is no window
        for method in (PoolingMethod("sma", bottom_j=3), PoolingMethod("softmin", tau=3)):
            method.check_n_classes(2)

    @pytest.mark.parametrize("field", ["bottom_j", "period"])
    @pytest.mark.parametrize("value", [2.5, 2.0, "2", 0, -1, True])
    def test_window_sizes_must_be_positive_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            PoolingMethod("sma", **{field: value})

    def test_numpy_integer_window_sizes_accepted(self):
        s = row(0.9, 0.1, 0.3)
        assert pooled("cumavg_bottom", s, bottom_j=np.int64(2))[0] == pytest.approx(0.2, abs=1e-15)
        assert pooled("sma", s, period=np.int32(2))[0] == pooled("sma", s, period=2)[0]

    @pytest.mark.parametrize("name", POOLER_NAMES)
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_scores_rejected(self, name, bad):
        scores = np.full((3, 4), 0.5)
        scores[1, 2] = bad
        with pytest.raises(ValueError, match="must be finite"):
            pool(scores, PoolingMethod(name))


def default_method(name):
    return PoolingMethod(name)


@pytest.mark.parametrize("name", POOLER_NAMES)
@given(data=st.data())
def test_permutation_invariance(name, data):
    scores = np.array([data.draw(score_rows, label="row")])
    perm = data.draw(st.permutations(range(scores.shape[1])), label="perm")
    method = default_method(name)
    if name in ("cumavg_bottom", "sma") and scores.shape[1] < 2:
        method = PoolingMethod(name, bottom_j=1, period=1)
    a = pool(scores, method)[0]
    b = pool(scores[:, perm], method)[0]
    assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


CONVEX_POOLERS = ("min", "max", "mean", "median", "ema", "softmin", "cumavg_bottom", "sma")


@pytest.mark.parametrize("name", CONVEX_POOLERS)
@given(values=score_rows)
def test_convex_poolers_bounded_by_extremes(name, values):
    scores = np.array([values])
    method = default_method(name)
    if name in ("cumavg_bottom", "sma") and scores.shape[1] < 2:
        method = PoolingMethod(name, bottom_j=1, period=1)
    pooled = pool(scores, method)[0]
    assert min(values) - 1e-12 <= pooled <= max(values) + 1e-12


MONOTONE_POOLERS = tuple(n for n in POOLER_NAMES if n != "softmin")


@pytest.mark.parametrize("name", MONOTONE_POOLERS)
@given(data=st.data())
def test_monotone_in_each_coordinate(name, data):
    values = data.draw(score_rows, label="row")
    j = data.draw(st.integers(0, len(values) - 1), label="coord")
    bump = data.draw(st.floats(0.0, 1.0 - values[j], allow_nan=False), label="bump")
    scores = np.array([values])
    bumped = scores.copy()
    bumped[0, j] += bump
    method = default_method(name)
    if name in ("cumavg_bottom", "sma") and len(values) < 2:
        method = PoolingMethod(name, bottom_j=1, period=1)
    assert pool(bumped, method)[0] >= pool(scores, method)[0] - 1e-12


def test_softmin_is_deliberately_not_monotone():
    # Raising an already-high score can *lower* the pooled value because its
    # softmax weight shrinks slower than its contribution grows; this pins
    # the formula's behavior so nobody "fixes" it into a monotone variant.
    before = pooled("softmin", row(0.0, 0.9), tau=0.1)[0]
    after = pooled("softmin", row(0.0, 1.0), tau=0.1)[0]
    assert after < before


@pytest.mark.parametrize("name", POOLER_NAMES)
def test_single_class_returns_the_score(name):
    scores = row(0.37)
    method = PoolingMethod(name, bottom_j=1, period=1)
    pooled = pool(scores, method)[0]
    if name == "log":
        assert pooled == pytest.approx(math.log(0.37 + 1e-8), rel=1e-12)
    else:
        assert pooled == pytest.approx(0.37, rel=1e-12)


SORTING_POOLERS = ("min", "max", "mean", "median", "ema", "cumavg_bottom", "weighted_cumavg", "sma")


def test_tie_order_cannot_affect_pooled_values():
    # Duplicated values shuffled into every rotation: sorting-based poolers
    # see the identical sorted array, so results are bit-identical; the
    # column-order poolers (softmin, log) never sort, so tie order is
    # vacuous for them and only float summation order differs (~1 ulp).
    base = np.array([0.2, 0.2, 0.7, 0.7, 0.2])
    for name in POOLER_NAMES:
        method = default_method(name)
        outs = [float(pool(np.roll(base, r)[None, :], method)[0]) for r in range(5)]
        if name in SORTING_POOLERS:
            assert len(set(outs)) == 1, name
        else:
            assert max(outs) - min(outs) <= 1e-12 * max(1.0, abs(outs[0])), name


@pytest.mark.parametrize("name", POOLER_NAMES)
def test_matches_brute_force_oracle(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for trial in range(60):
        n = int(rng.integers(1, 30))
        k = 50 if trial % 10 == 0 else int(rng.integers(1, 51))
        scores = rng.random((n, k))
        if rng.random() < 0.2:  # exercise exact 0/1 entries
            scores[rng.random((n, k)) < 0.1] = 0.0
            scores[rng.random((n, k)) < 0.1] = 1.0
        if rng.random() < 0.3:  # duplicated rows: ranks at ties need them pooled bit-equal
            scores = scores[rng.integers(0, max(1, n // 3), size=n)]
        method = PoolingMethod(name, bottom_j=min(2, k), period=min(2, k))
        mine = pool(scores, method)
        assert np.isfinite(mine).all()
        ref = reference.pool_matrix(name, scores.tolist(), **method.params())
        np.testing.assert_allclose(mine, ref, rtol=1e-12, atol=1e-12)
        first = {}
        for r, value in zip(scores, mine):
            assert first.setdefault(r.tobytes(), value) == value


SPARSE_METHODS = (PoolingMethod("min"), PoolingMethod("max"), PoolingMethod("median"),
                  PoolingMethod("cumavg_bottom", bottom_j=1),
                  PoolingMethod("cumavg_bottom", bottom_j=2))
# signed zeros, negative scores and subnormals, whose halves round to zero
signed_scores = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]),
                          st.floats(-1e300, 1e300, allow_nan=False))


@pytest.mark.parametrize("method", SPARSE_METHODS, ids=lambda m: f"{m.name}{m.params()}")
@given(data=st.data())
def test_sparse_l_statistics_equal_the_dense_sum(method, data):
    # these read one or two sorted columns; the weighted sum over the whole
    # sorted row must give the same bits, signed zeros included
    k = data.draw(st.integers(method.bottom_j if method.name == "cumavg_bottom" else 1, 7))
    scores = np.array(data.draw(st.lists(st.lists(signed_scores, min_size=k, max_size=k),
                                         min_size=1, max_size=6)))
    weights = scoring._SORTED_WEIGHTS[method.name](method, np.arange(1.0, k + 1), k)
    dense = np.multiply(np.sort(scores, axis=1), weights).sum(axis=1)
    assert np.array_equal(bits(pool(scores, method)), bits(dense))


def test_sparse_l_statistics_equal_the_dense_sum_at_signed_zeros():
    rows = np.array([[-0.0, -0.0, -0.0, -0.0], [-0.0, 0.0, -0.0, 0.0], [-1.0, -0.0, -0.0, -0.0],
                     [-0.0, -0.0, -0.0, 1.0], [-2.0, -2.0, 2.0, 2.0], [-3.0, -0.0, 3.0, 7.0],
                     [-5e-324, -5e-324, 0.0, -0.0], [-5e-324, 5e-324, 5e-324, 1.0]])
    for method in SPARSE_METHODS:
        weights = scoring._SORTED_WEIGHTS[method.name](method, np.arange(1.0, 5), 4)
        dense = np.multiply(np.sort(rows, axis=1), weights).sum(axis=1)
        assert np.array_equal(bits(pool(rows, method)), bits(dense)), method.name


def test_softmin_alone_equals_softmin_among_sorting_methods():
    # alone, softmin takes its row maximum from the exponents; beside a
    # sorting method, from the sorted row's smallest score
    rng = np.random.default_rng(31)
    scores = rng.random((200, 9))
    scores[::7] = 0.0
    scores[1::7, 2] = -0.0
    scores[2::7] = np.where(rng.random((29, 9)) < 0.5, -0.0, 0.0)
    scores[3::7] *= -4.0
    for tau in (0.1, 1e-3, 1e-300):
        softmin = PoolingMethod("softmin", tau=tau)
        alone = pool(scores, softmin)
        among = scoring._pool_all(scores, (PoolingMethod("min"), softmin))[1]
        assert np.array_equal(bits(alone), bits(among)), tau
        expected = reference.score_one_method(np.ones(scores.shape, dtype=np.int8), scores, softmin)
        assert np.array_equal(bits(alone), bits(expected)), tau


def every_method(k):
    return tuple(PoolingMethod(name, bottom_j=min(2, k), period=min(2, k))
                 for name in POOLER_NAMES)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestScoreAll:
    """One check, one self-confidence matrix and one sort for every method."""

    @staticmethod
    def labels_probs(case):
        rng = np.random.default_rng(zlib.crc32(case.encode()))
        n, k = (300, 1) if case == "one_class" else (300, 9)
        labels = rng.integers(0, 2, size=(n, k))
        if case == "ties":  # few distinct scores, so most rows hold ties
            probs = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=(n, k))
        else:
            probs = rng.random((n, k))
        if case == "repeated_rows":
            rows = rng.integers(0, 25, size=n)
            labels, probs = labels[rows], probs[rows]
        return labels, probs

    @pytest.mark.parametrize("case", ["random", "one_class", "ties", "repeated_rows"])
    def test_bit_equal_to_one_method_calls(self, case):
        labels, probs = self.labels_probs(case)
        methods = every_method(labels.shape[1])
        together = score_all(labels, probs, methods)
        assert [scored.method for scored in together] == list(methods)
        for scored, method in zip(together, methods):
            alone = score_examples(labels, probs, method).values
            assert np.array_equal(bits(scored.values), bits(alone)), method.name
            expected = reference.score_one_method(labels, probs, method)
            assert np.array_equal(bits(scored.values), bits(expected)), method.name
        if case == "repeated_rows":  # equal rows pool to equal bits, so ranks tie
            for scored in together:
                first = {}
                for r, value in zip(np.column_stack([labels, probs]), scored.values):
                    assert first.setdefault(r.tobytes(), value) == value

    def test_mixed_methods_come_back_in_input_order(self):
        labels, probs = self.labels_probs("random")
        methods = (PoolingMethod("sma", period=3), PoolingMethod("log"),
                   PoolingMethod("ema", alpha=0.5), PoolingMethod("softmin", tau=0.2),
                   PoolingMethod("min"), PoolingMethod("ema", alpha=1.0))
        together = score_all(labels, probs, methods)
        assert tuple(scored.method for scored in together) == methods
        for scored, method in zip(together, methods):
            assert np.array_equal(bits(scored.values),
                                  bits(score_examples(labels, probs, method).values))
        assert score_all(labels, probs, ()) == ()

    @pytest.mark.parametrize("labels, probs, message", [
        ([[0, 2]], [[0.5, 0.5]], r"label 2 not in \{0,1\} at \(example 0, class 1\)"),
        ([[0, 1]], [[0.5, np.nan]], r"non-finite probability \(nan\) at \(example 0, class 1\)"),
        ([[0, 1]], [[1.5, 0.5]], r"probability out of \[0,1\] \(1.5\) at \(example 0, class 0\)"),
        ([[0, 1]], [[0.5, 0.5, 0.5]], r"labels shape \(1, 2\) != probs shape \(1, 3\)"),
        ([0, 1], [0.5, 0.5], "must be 2-D"),
    ])
    def test_bad_input_raises_as_score_examples(self, labels, probs, message):
        with pytest.raises(ValueError, match=message):
            score_examples(labels, probs, PoolingMethod("ema"))
        with pytest.raises(ValueError, match=message):
            score_all(labels, probs, every_method(2))

    def test_bad_method_for_class_count_raises_before_pooling(self):
        methods = (PoolingMethod("min"), PoolingMethod("cumavg_bottom", bottom_j=3))
        with pytest.raises(ValueError, match="bottom_j=3 exceeds the 2 classes"):
            score_all([[0, 1]], [[0.5, 0.5]], methods)

    def test_sorts_once_and_only_for_l_statistics(self, monkeypatch):
        labels, probs = self.labels_probs("random")
        real_sort, calls = np.sort, []

        def counting_sort(*args, **kwargs):
            calls.append(args[0].shape)
            return real_sort(*args, **kwargs)

        monkeypatch.setattr(scoring.np, "sort", counting_sort)
        score_all(labels, probs, (PoolingMethod("softmin"), PoolingMethod("log")))
        assert calls == []
        score_all(labels, probs, every_method(labels.shape[1]))
        assert calls == [labels.shape]


class TestRowBlocks:
    """Pooling in row blocks gives every row the bits of a one-block pass."""

    @pytest.mark.parametrize("rows", [1, 13, 64])  # 300 = 23 * 13 + 1: a one-row last block
    @pytest.mark.parametrize("case", ["random", "ties", "repeated_rows"])
    def test_blocks_pool_as_one_block_and_as_the_oracle(self, case, rows, monkeypatch):
        labels, probs = TestScoreAll.labels_probs(case)
        n, k = labels.shape
        methods = every_method(k)
        monkeypatch.setattr(scoring, "_BLOCK_CELLS", n * k)
        whole = score_all(labels, probs, methods)
        monkeypatch.setattr(scoring, "_BLOCK_CELLS", rows * k)
        real_sort, sorted_blocks = np.sort, []

        def counting_sort(*args, **kwargs):
            sorted_blocks.append(len(args[0]))
            return real_sort(*args, **kwargs)

        monkeypatch.setattr(scoring.np, "sort", counting_sort)
        blocked = score_all(labels, probs, methods)
        monkeypatch.setattr(scoring.np, "sort", real_sort)
        assert sorted_blocks == [rows] * (n // rows) + [n % rows] * (n % rows > 0)
        for one, many, method in zip(whole, blocked, methods):
            assert np.array_equal(bits(many.values), bits(one.values)), method.name
            expected = reference.score_one_method(labels, probs, method)
            assert np.array_equal(bits(many.values), bits(expected)), method.name

    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_equal_rows_in_different_blocks_pool_to_equal_bits(self, rows, monkeypatch):
        rng = np.random.default_rng(12)
        k = 50
        labels = rng.integers(0, 2, size=(4, k))
        probs = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0], size=(4, k)) * rng.random(k)
        picks = rng.integers(0, 4, size=41)  # each of the 4 rows recurs across blocks
        monkeypatch.setattr(scoring, "_BLOCK_CELLS", rows * k)
        methods = every_method(k)
        for method, scored in zip(methods, score_all(labels[picks], probs[picks], methods)):
            by_row = {}
            for pick, value in zip(picks.tolist(), bits(scored.values).tolist()):
                assert by_row.setdefault(pick, value) == value, method.name
            assert len(by_row) == 4


def test_rescale_for_display():
    np.testing.assert_allclose(rescale_for_display(np.array([2.0, 4.0, 3.0])),
                               [0.0, 1.0, 0.5])
    np.testing.assert_allclose(rescale_for_display(np.array([1.5, 1.5])), [0.5, 0.5])
    assert rescale_for_display(np.array([])).shape == (0,)
