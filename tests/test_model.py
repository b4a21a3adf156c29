import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference
from labelaudit import model as model_module
from labelaudit.data import MultiLabelDataset, check_labels_probs
from labelaudit.model import (
    CVConfig,
    LogRegModel,
    TrainConfig,
    TrainingDivergedError,
    _logit_bound,
    _row_blocks,
    _sigmoid_of_negated,
    _standardized_block,
    cross_val_pred_probs,
    fold_assignments,
    predict_proba,
    train,
)


def manual_model(weights, biases, d=None):
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    d = weights.shape[1] if d is None else d
    return LogRegModel(
        weights=weights,
        biases=np.atleast_1d(np.asarray(biases, dtype=float)),
        feature_mean=np.zeros(d),
        feature_scale=np.ones(d),
        loss_history=np.zeros(1),
    )


def random_training_set(seed, n=12, d=3):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d)) * 3
    y = rng.integers(0, 2, size=n).astype(float)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return X, y


class TestTrain:
    def test_linearly_separable_toy_reaches_perfect_accuracy(self):
        features = np.array([[0.0, 0.0], [1.0, 0.0], [8.0, 8.0], [9.0, 10.0]])
        labels = np.array([[0], [0], [1], [1]])
        model = train(features, labels, TrainConfig(epochs=2000))
        preds = predict_proba(model, features)[:, 0] >= 0.5
        assert np.array_equal(preds, labels[:, 0].astype(bool))

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(0)
        features = rng.poisson(20.0, size=(80, 5)).astype(float)
        labels = rng.integers(0, 2, size=(80, 3))
        model = train(features, labels, TrainConfig(loss_every=1))
        diffs = np.diff(model.loss_history)
        assert (diffs <= 1e-9).all()

    def test_divergence_raises_with_epoch(self):
        features, y = random_training_set(1)
        with pytest.raises(TrainingDivergedError, match=r"epoch 26$"):
            train(features, y[:, None], TrainConfig(learning_rate=1e10, epochs=500))

    def test_label_outside_0_1_rejected(self):
        features, y = random_training_set(5, n=20)
        labels = np.column_stack([y, 2 * y]).astype(int)
        with pytest.raises(ValueError, match=r"^label 2 not in \{0,1\} at \(example \d+, class 1\)$"):
            train(features, labels)

    def test_degenerate_class_gets_constant_base_rate_model(self):
        rng = np.random.default_rng(2)
        features = rng.random((20, 3))
        labels = np.column_stack([np.ones(20, dtype=int), rng.integers(0, 2, 20)])
        model = train(features, labels)
        assert np.array_equal(model.weights[0], np.zeros(3))
        probs = predict_proba(model, features)[:, 0]
        assert np.all(probs == probs[0])
        assert probs[0] == pytest.approx(20.5 / 21.0, abs=1e-12)

    def test_every_class_constant_fits_no_parameters(self):
        features = np.random.default_rng(14).poisson(5.0, size=(10, 3)).astype(float)
        labels = np.column_stack([np.ones(10, dtype=int), np.zeros(10, dtype=int)])
        model = train(features, labels)
        assert np.array_equal(model.weights, np.zeros((2, 3)))
        np.testing.assert_allclose(model.biases, [np.log(10.5 / 0.5), np.log(0.5 / 10.5)],
                                   rtol=1e-15, atol=0)
        assert np.array_equal(model.loss_history, np.zeros(11))  # epochs 0, 50, ..., 500

    def test_fit_holds_no_row_major_copy_of_the_features(self):
        # the fit holds class-major copies of the features, with their row
        # of ones, and a float copy of each block's labels, taken from the
        # int8 class-major labels it is given, plus one block's scratch and
        # temporaries; a row-major standardized copy would add another n * d
        # floats
        n, d, k = 40000, 20, 4
        rng = np.random.default_rng(16)
        logged = np.log1p(rng.poisson(5.0, size=(n, d)).astype(float))
        labels = rng.integers(0, 2, size=(n, k))
        tracemalloc.start()
        try:
            labels_t = np.ascontiguousarray(labels.T, dtype=np.int8)
            model_module._fit(logged, labels_t, TrainConfig(epochs=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        copies = (n * (d + 1) + k * n) * 8
        assert copies < peak < copies + n * d * 8 / 2

    def test_huge_l2_drives_weights_to_zero_constant_predictions(self):
        features, y = random_training_set(3, n=30)
        model = train(features, y[:, None],
                      TrainConfig(learning_rate=1e-6, l2=1e6, epochs=300))
        assert np.max(np.abs(model.weights)) < 1e-4
        probs = predict_proba(model, features)[:, 0]
        np.testing.assert_allclose(probs, probs[0], atol=1e-4)

    def test_moderate_l2_converges_bias_to_base_rate(self):
        rng = np.random.default_rng(4)
        features = rng.random((200, 3))
        labels = (rng.random(200) < 0.3).astype(int)[:, None]
        model = train(features, labels, TrainConfig(learning_rate=0.05, l2=10.0, epochs=8000))
        base_rate = labels.mean()
        probs = predict_proba(model, features)[:, 0]
        assert abs(probs.mean() - base_rate) < 0.02
        assert np.max(np.abs(model.weights)) < 0.02

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="incompatible shapes"):
            train(np.zeros((5, 2)), np.zeros((4, 1)))

    @pytest.mark.parametrize("field, value, message", [
        ("learning_rate", float("nan"), "learning_rate must be finite and positive"),
        ("learning_rate", float("inf"), "learning_rate must be finite and positive"),
        ("learning_rate", 0.0, "learning_rate must be finite and positive"),
        ("l2", float("nan"), "l2 must be finite and non-negative"),
        ("l2", float("inf"), "l2 must be finite and non-negative"),
        ("l2", -1e-4, "l2 must be finite and non-negative"),
        ("epochs", 2.5, r"epochs must be an integer >= 1, got 2.5"),
        ("epochs", True, r"epochs must be an integer >= 1, got True"),
        ("epochs", 0, r"epochs must be an integer >= 1, got 0"),
        ("loss_every", 0, r"loss_every must be an integer >= 1, got 0"),
        ("loss_every", -1, r"loss_every must be an integer >= 1, got -1"),
        ("loss_every", 2.5, r"loss_every must be an integer >= 1, got 2.5"),
        ("loss_every", True, r"loss_every must be an integer >= 1, got True"),
    ])
    def test_bad_config_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})


class TestLossRecording:
    """Epochs off the record skip the loss but not the divergence check."""

    def test_default_history_is_the_full_history_at_recorded_epochs(self):
        features, labels, _ = oracle_case("constant_everywhere")
        full = train(features, labels, TrainConfig(epochs=120, loss_every=1)).loss_history
        sparse = train(features, labels, TrainConfig(epochs=120)).loss_history
        assert np.array_equal(sparse.view(np.uint64), full[[0, 50, 100, 120]].view(np.uint64))

    @pytest.mark.parametrize("n, d, k", [(12, 3, 1), (80, 5, 3), (60, 4, 2)])
    def test_same_epoch_raised_or_same_fit_bits_in_small_blocks(self, n, d, k, monkeypatch):
        # four row blocks, the last one short for n = 60 and 80; the last
        # class of k > 1 is constant, so k - 1 classes are fitted
        monkeypatch.setattr(model_module, "_BLOCK_CELLS", (n - 1) // 3 * max(1, k - 1))
        self.test_same_epoch_raised_or_same_fit_bits(n, d, k)

    @pytest.mark.parametrize("n, d, k", [(12, 3, 1), (80, 5, 3), (60, 4, 2)])
    def test_same_epoch_raised_or_same_fit_bits(self, n, d, k):
        rng = np.random.default_rng(n + d + k)
        features = rng.poisson(5.0, size=(n, d)).astype(float)
        labels = rng.integers(0, 2, size=(n, k))
        labels[:, -1] = 1  # for k > 1, the last class gets no fit of its own
        labels[:2, 0] = (0, 1)
        outcomes = set()
        for learning_rate in 10.0 ** np.arange(-2, 13):
            for l2 in (0.0, 1e-4):
                fits = []
                for loss_every in (1, 50):
                    config = TrainConfig(learning_rate=float(learning_rate), l2=l2,
                                         epochs=200, loss_every=loss_every)
                    try:
                        model = train(features, labels, config)
                        fits.append((model.weights.tobytes(), model.biases.tobytes()))
                    except TrainingDivergedError as exc:
                        fits.append(str(exc))
                assert fits[0] == fits[1], (learning_rate, l2)
                outcomes.add(isinstance(fits[0], str))
        assert outcomes == {False, True}  # the sweep both converges and diverges

    def test_bias_alone_overflowing_the_loss_raises_on_time(self):
        # all-zero features scale to zero, so only the unpenalized bias moves:
        # the penalty stays 0 and only the bound on |z| sees the loss overflow
        labels = (np.arange(40) < 21).astype(int)[:, None]
        with pytest.raises(TrainingDivergedError, match=r"epoch 2$"):
            train(np.zeros((40, 2)), labels, TrainConfig(learning_rate=1e308, epochs=100))


def oracle_case(case, seed=11):
    """Features, labels and CV settings for one trainer-oracle case."""
    n = {"equal_folds": 5000, "unequal_folds": 1003}.get(case, 1000)
    cv = CVConfig(n_folds=5, seed=seed)
    rng = np.random.default_rng(seed)
    features = rng.poisson(5.0, size=(n, 3)).astype(float)
    # labels follow a noisy linear rule, so the fitted weights move off zero
    logits = np.log1p(features) @ rng.normal(size=(3, 4)) + rng.normal(size=4)
    labels = (rng.random((n, 4)) < 1.0 / (1.0 + np.exp(-logits))).astype(int)
    if case == "constant_in_one_fold":
        # every positive of class 1 is held out in fold 0
        labels[:, 1] = 0
        labels[np.flatnonzero(fold_assignments(n, cv) == 0)[:10], 1] = 1
    elif case == "constant_everywhere":
        labels[:, 2] = 1
    return features, labels, cv


def oracle_fits(case):
    """(rows, active classes) of each fit a trainer-oracle case makes: the
    whole set, then each fold's training rows."""
    features, labels, cv = oracle_case(case)
    folds = fold_assignments(features.shape[0], cv)
    fits = [labels] + [labels[folds != f] for f in range(cv.n_folds)]
    return [(y.shape[0], int((y.min(axis=0) != y.max(axis=0)).sum())) for y in fits]


def shrunk_block_cells(fits):
    """The smallest ``_BLOCK_CELLS`` from 100 up that splits every fit into at
    least 3 row blocks, leaves one fit a short last block and another a
    one-row remainder, which must join the block before it."""
    for cells in range(100, 4000):
        rows = [(n, max(2, cells // k)) for n, k in fits]
        if (all(n // r >= 3 for n, r in rows) and any(n % r == 1 for n, r in rows)
                and any(n % r > 1 for n, r in rows)):
            return cells
    raise AssertionError(f"no block size splits {fits} as wanted")


class TestTrainerOracle:
    """The trainer against a literal statement of its class-major epoch, bit
    for bit, and against the original masked-sigmoid loop to 1e-12."""

    CASES = ["equal_folds", "unequal_folds", "constant_in_one_fold", "constant_everywhere"]

    def test_cases_are_what_they_claim(self):
        assert oracle_case("equal_folds")[0].shape[0] % 5 == 0
        assert oracle_case("unequal_folds")[0].shape[0] % 5 != 0
        features, labels, cv = oracle_case("constant_in_one_fold")
        folds = fold_assignments(features.shape[0], cv)
        assert labels[folds != 0, 1].max() == 0
        assert all(labels[folds != f, 1].max() == 1 for f in range(1, 5))
        labels = oracle_case("constant_everywhere")[1]
        assert labels[:, 2].min() == 1

    @pytest.mark.parametrize("case", CASES)
    def test_train_and_cv_match_oracle_in_small_blocks(self, case, monkeypatch):
        fits = oracle_fits(case)
        monkeypatch.setattr(model_module, "_BLOCK_CELLS", shrunk_block_cells(fits))
        spans = [_row_blocks(n, k) for n, k in fits]
        assert min(len(span) for span in spans) >= 3
        # one fit merged a one-row remainder into a longer last block, and
        # another ends on a short one
        lasts = [(span[-1][1] - span[-1][0], span[0][1]) for span in spans]
        assert any(last == rows + 1 for last, rows in lasts)
        assert any(last < rows for last, rows in lasts)
        self.test_train_and_cv_match_oracle(case)

    @pytest.mark.parametrize("case", CASES)
    def test_train_and_cv_match_oracle(self, case):
        features, labels, cv = oracle_case(case)
        config = TrainConfig(epochs=100, loss_every=1)
        model = train(features, labels, config)
        blocks = _row_blocks(*oracle_fits(case)[0])
        weights, biases, losses, _, _ = reference.train_class_major(
            features, labels, blocks, epochs=100)
        assert np.array_equal(model.weights, weights)
        assert np.array_equal(model.biases, biases)
        assert np.array_equal(model.loss_history, losses)
        # the sums run in another order than the original loop's, and its
        # sigmoid takes e/(1+e) for z < 0: the fits differ by rounding alone
        weights, biases, losses, _, _ = reference.train(features, labels, epochs=100)
        np.testing.assert_allclose(model.weights, weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.biases, biases, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.loss_history, losses, rtol=1e-12, atol=0)

        ids = tuple(f"e{i}" for i in range(features.shape[0]))
        probs = cross_val_pred_probs(MultiLabelDataset(labels, ids, features=features), cv, config)
        expected = reference.cross_val_pred_probs(features, labels, cv.n_folds, cv.seed,
                                                  _row_blocks, epochs=100)
        assert np.array_equal(probs, expected)

    def test_int8_labels_give_the_bits_of_float_labels(self):
        # the fits take int8 class-major labels and convert each block's to
        # float; the oracle takes float labels throughout. At 8000 x 12 every
        # fit spans three default-size blocks, and class 5 is constant
        n, d, k = 8000, 5, 12
        rng = np.random.default_rng(22)
        features = rng.poisson(5.0, size=(n, d)).astype(float)
        logits = np.log1p(features) @ rng.normal(size=(d, k)) + rng.normal(size=k)
        labels = (rng.random((n, k)) < 1.0 / (1.0 + np.exp(-logits))).astype(np.int8)
        labels[:, 5] = 1
        assert all(len(_row_blocks(rows, k - 1)) == 3 for rows in (n, n * 4 // 5))
        weights, biases, losses, _, _ = reference.train_class_major(
            features, labels.astype(float), _row_blocks(n, k - 1), epochs=20)
        for dtype in (np.int8, np.int64, np.float64, bool):
            model = train(features, labels.astype(dtype), TrainConfig(epochs=20, loss_every=1))
            assert np.array_equal(model.weights, weights)
            assert np.array_equal(model.biases, biases)
            assert np.array_equal(model.loss_history, losses)

        dataset = MultiLabelDataset(labels, tuple(f"e{i}" for i in range(n)), features=features)
        probs = cross_val_pred_probs(dataset, CVConfig(seed=4), TrainConfig(epochs=20))
        expected = reference.cross_val_pred_probs(features, labels.astype(float), 5, 4,
                                                  _row_blocks, epochs=20)
        assert np.array_equal(probs, expected)


def counting_sigmoid(monkeypatch):
    """Count the trainer's and the predictor's calls of the logistic."""
    calls = []
    real = model_module._sigmoid_of_negated

    def counted(q):
        calls.append(q.shape)
        return real(q)

    monkeypatch.setattr(model_module, "_sigmoid_of_negated", counted)
    return calls


def oracle_dataset(case):
    features, labels, cv = oracle_case(case)
    ids = tuple(f"e{i}" for i in range(features.shape[0]))
    return MultiLabelDataset(labels, ids, features=features), cv


class TestClosedFormFirstEpoch:
    """Every fit starts from A = 0, so its epoch-0 logistic is 1/2 in every
    cell: it writes the residual 1/2 - y without the forward product, and
    every bit stays that of the full epoch."""

    @pytest.mark.parametrize("epochs", [1, 2])
    @pytest.mark.parametrize("case", ["unequal_folds", "constant_in_one_fold"])
    def test_cv_and_losses_match_oracle_in_small_blocks(self, case, epochs, monkeypatch):
        fits = oracle_fits(case)
        monkeypatch.setattr(model_module, "_BLOCK_CELLS", shrunk_block_cells(fits))
        assert min(len(_row_blocks(n, k)) for n, k in fits) >= 3
        features, labels, cv = oracle_case(case)
        dataset, _ = oracle_dataset(case)
        probs = cross_val_pred_probs(dataset, cv, TrainConfig(epochs=epochs))
        expected = reference.cross_val_pred_probs(features, labels, cv.n_folds, cv.seed,
                                                  _row_blocks, epochs=epochs)
        assert np.array_equal(probs, expected)
        # train() records epoch 0's loss in a pass of its own
        model = train(features, labels, TrainConfig(epochs=epochs, loss_every=1))
        _, _, losses, _, _ = reference.train_class_major(
            features, labels, _row_blocks(*fits[0]), epochs=epochs)
        assert np.array_equal(model.loss_history.view(np.uint64), losses.view(np.uint64))

    def test_first_epoch_takes_no_logistic(self, monkeypatch):
        # epochs 1 and 2 of 3 take one logistic a block, epoch 0 none and
        # the last epoch, which makes no update, none; predicting takes one
        dataset, cv = oracle_dataset("unequal_folds")
        calls = counting_sigmoid(monkeypatch)
        cross_val_pred_probs(dataset, cv, TrainConfig(epochs=3))
        fits = oracle_fits("unequal_folds")[1:]
        assert len(calls) == sum(2 * len(_row_blocks(n, k)) + 1 for n, k in fits)

    def test_a_failing_bound_runs_the_loss_every_epoch(self, monkeypatch):
        # with the bound below n*K no epoch can skip its loss, as for
        # features too large for the bound to show the loss finite: every
        # epoch of every fold, the last included, runs the loss pass, epoch
        # 0 still takes no logistic, and the bits are the same
        dataset, cv = oracle_dataset("unequal_folds")
        expected = cross_val_pred_probs(dataset, cv, TrainConfig(epochs=2))
        monkeypatch.setattr(model_module, "_FINITE_BOUND", 1.0)
        weights_seen = []
        real_loss = model_module._loss

        def counted_loss(A, *args):
            weights_seen.append(A.copy())
            return real_loss(A, *args)

        monkeypatch.setattr(model_module, "_loss", counted_loss)
        calls = counting_sigmoid(monkeypatch)
        probs = cross_val_pred_probs(dataset, cv, TrainConfig(epochs=2))
        fits = oracle_fits("unequal_folds")[1:]
        # epochs 0, 1 and 2 of each fold, at A = 0 and after each update
        assert len(weights_seen) == 3 * len(fits)
        for start, after_one, after_two in zip(*[iter(weights_seen)] * 3):
            assert not start.any()
            assert after_one.any() and not np.array_equal(after_two, after_one)
        # only epoch 1 takes one logistic a block; predicting takes one
        assert len(calls) == sum(len(_row_blocks(n, k)) + 1 for n, k in fits)
        assert np.array_equal(probs, expected)

    def test_penalty_alone_overflowing_the_loss_raises_on_time(self):
        # a decay of lr * l2 = 1e10 multiplies the weights by about -1e10 an
        # epoch, so the L2 penalty overflows near |W| = 1e149, long before
        # the logit bound fails; the bound on the penalty must see it in time
        dataset, cv = oracle_dataset("unequal_folds")
        messages = []
        for loss_every in (1, 50):
            config = TrainConfig(learning_rate=1.0, l2=1e10, epochs=100, loss_every=loss_every)
            with pytest.raises(TrainingDivergedError) as raised:
                train(dataset.features, dataset.given_labels, config)
            messages.append(str(raised.value))
        assert messages == ["non-finite loss at epoch 17"] * 2
        rows = fold_assignments(dataset.n_examples, cv) != 0
        with pytest.raises(TrainingDivergedError) as raised:
            train(dataset.features[rows], dataset.given_labels[rows], config)
        with pytest.raises(TrainingDivergedError, match=f"^{raised.value}$"):
            cross_val_pred_probs(dataset, cv, config)


class TestFeatureRule:
    """A negative, NaN or infinite feature is a ``ValueError`` naming its cell
    wherever features enter, before any arithmetic on it."""

    @pytest.mark.parametrize("bad", [-5.0, np.nan, np.inf])
    def test_bad_feature_rejected_before_training(self, bad):
        dataset, _ = oracle_dataset("unequal_folds")
        features = dataset.features.copy()
        features[3, 1] = bad
        message = f"^feature value {bad} is not a non-negative number at \\(example 3, column 1\\)$"
        model = train(dataset.features, dataset.given_labels, TrainConfig(epochs=5))
        with np.errstate(all="raise"):  # no log1p of the bad cell runs first
            with pytest.raises(ValueError, match=message):
                MultiLabelDataset(dataset.given_labels, dataset.example_ids, features=features)
            with pytest.raises(ValueError, match=message):
                train(features, dataset.given_labels, TrainConfig(epochs=5))
            with pytest.raises(ValueError, match=message):
                predict_proba(model, features)


class TestRowBlocks:
    @given(n=st.integers(2, 3000), k=st.integers(0, 60), cells=st.integers(1, 5000))
    def test_blocks_tile_the_rows_with_no_single_row(self, n, k, cells):
        rows = max(2, cells // max(k, 1))
        default = model_module._BLOCK_CELLS
        try:  # hypothesis runs many examples per test, so no monkeypatch fixture
            model_module._BLOCK_CELLS = cells
            blocks = _row_blocks(n, k)
        finally:
            model_module._BLOCK_CELLS = default
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
        assert all(2 <= hi - lo <= rows + 1 for lo, hi in blocks)
        assert all(hi - lo == rows for lo, hi in blocks[:-1])


finite = st.floats(-1e100, 1e100, allow_nan=False)


def class_major(X):
    """``X``'s rows as the trainer holds them: ``(D+1, n)`` above a row of ones."""
    return _standardized_block(X, np.zeros(X.shape[1]), np.ones(X.shape[1]))


@given(data=st.data())
def test_logits_never_exceed_the_weight_bound(data):
    n, d, k = (data.draw(st.integers(1, 12)), data.draw(st.integers(1, 8)),
               data.draw(st.integers(0, 6)))
    X = np.array(data.draw(st.lists(finite, min_size=n * d, max_size=n * d))).reshape(n, d)
    A = np.array(data.draw(st.lists(finite, min_size=k * (d + 1),
                                    max_size=k * (d + 1)))).reshape(k, d + 1)
    xt = class_major(X)
    assert np.array_equal(xt[:d], X.T) and (xt[d] == 1.0).all()
    # the column sum and the product as the fit takes them
    bound = _logit_bound(np.abs(xt).sum(axis=0).max(), A)
    assert np.abs(np.matmul(-A, xt)).max(initial=0.0) <= bound
    assert np.abs(X @ A[:, :d].T + A[:, d]).max(initial=0.0) <= bound


def test_weight_bound_covers_subnormal_rounding():
    # each product 0.6 * 5e-324 rounds up to 5e-324, so the logit is 6
    # subnormals, while the unpadded bound, (6 * 0.6 + 1) * 5e-324, rounds to 5
    xt = class_major(np.full((2, 6), 0.6))
    A = np.append(np.full(6, 5e-324), 0.0)[None, :]
    x_abs_sum = np.abs(xt).sum(axis=0).max()
    assert (np.matmul(-A, xt) == -6 * 5e-324).all()
    assert x_abs_sum * 5e-324 < 6 * 5e-324
    assert _logit_bound(x_abs_sum, A) >= 6 * 5e-324


def test_weight_bound_is_nan_at_nan_weights():
    assert np.isnan(_logit_bound(3.0, np.array([[1.0, np.nan, 0.0]])))
    assert np.isnan(_logit_bound(3.0, np.array([[1.0, 1.0, np.nan]])))


class TestSigmoid:
    EDGES = [0.0, 1e-300, 1.0, 36.0, 709.0, 710.0, 745.0, np.inf, np.nan]

    def inputs(self):
        edges = np.array(self.EDGES)
        normals = np.random.default_rng(12).normal(size=10**5) * 50
        return np.concatenate([edges, -edges, normals])

    def test_three_passes_equal_the_literal_formula_bit_for_bit(self):
        z = self.inputs()
        # the negated edges carry the sign bit, so -0.0 and -nan are covered
        assert np.signbit(z[len(self.EDGES):2 * len(self.EDGES)]).all()
        q = -z
        with np.errstate(over="ignore"):
            expected = (1.0 / (1.0 + np.exp(-z))).view(np.uint64)
            assert _sigmoid_of_negated(q) is q
        assert np.array_equal(q.view(np.uint64), expected)

    def test_within_four_ulps_of_the_masked_formula(self):
        z = self.inputs()
        with np.errstate(over="ignore"):
            p = _sigmoid_of_negated(-z)
        masked = reference.masked_sigmoid(z)
        # where z >= 0 both take 1/(1 + exp(-z)); elsewhere the masked
        # formula takes e/(1 + e), which keeps subnormal results; each of
        # exp, + 1 and the division rounds once, so each formula is within
        # two ulps of the logistic
        pos = z >= 0
        assert np.array_equal(p[pos].view(np.uint64), masked[pos].view(np.uint64))
        assert np.array_equal(np.isnan(p), np.isnan(masked))
        tiny = np.finfo(np.float64).tiny
        normal = ~pos & (masked >= tiny)
        assert (np.abs(p[normal] - masked[normal]) <= 4 * np.spacing(masked[normal])).all()
        subnormal = ~pos & (masked < tiny)
        assert subnormal.sum() == 4 and (np.abs(p - masked)[subnormal] < tiny).all()


class TestKernelMatchesCheckedGradient:
    """The epoch loop and binary_loss_and_grad agree on a one-class problem."""

    def test_first_loss_and_first_step(self):
        features, y = random_training_set(13, n=40, d=4)
        config = TrainConfig(learning_rate=0.1, l2=1e-3, epochs=1)
        model = train(features, y[:, None], config)
        X = (np.log1p(features) - model.feature_mean) / model.feature_scale
        loss, grad_w, grad_b = reference.binary_loss_and_grad(np.zeros(4), 0.0, X, y, config.l2)
        assert abs(model.loss_history[0] - loss) <= 1e-15
        np.testing.assert_allclose(model.weights[0], -config.learning_rate * grad_w,
                                   rtol=0, atol=1e-15)
        assert abs(model.biases[0] + config.learning_rate * grad_b) <= 1e-15


class TestGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(10):
            n, d = int(rng.integers(3, 12)), int(rng.integers(1, 5))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n).astype(float)
            w = rng.normal(size=d)
            b = float(rng.normal())
            l2 = float(rng.choice([0.0, 1e-4, 0.1]))
            _, grad_w, grad_b = reference.binary_loss_and_grad(w, b, X, y, l2)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                up = reference.binary_loss_and_grad(w + e, b, X, y, l2)[0]
                down = reference.binary_loss_and_grad(w - e, b, X, y, l2)[0]
                fd = (up - down) / (2 * h)
                assert abs(grad_w[j] - fd) / max(1e-8, abs(grad_w[j]) + abs(fd)) < 1e-5
            fd_b = (reference.binary_loss_and_grad(w, b + h, X, y, l2)[0]
                    - reference.binary_loss_and_grad(w, b - h, X, y, l2)[0]) / (2 * h)
            assert abs(grad_b - fd_b) / max(1e-8, abs(grad_b) + abs(fd_b)) < 1e-5


class TestPredict:
    def test_zero_model_predicts_half(self):
        model = manual_model([[0.0, 0.0]], [0.0])
        probs = predict_proba(model, np.array([[3.0, 7.0], [0.0, 0.0]]))
        np.testing.assert_array_equal(probs, 0.5)

    def test_saturated_bias(self):
        model = manual_model([[0.0]], [50.0])
        p = predict_proba(model, np.array([[1.0]]))[0, 0]
        assert p > 1 - 1e-9
        assert p < 1.0  # strictly inside (0, 1)

    def test_negation_flips_probabilities(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(2, 4))
        b = rng.normal(size=2)
        X = rng.random((20, 4)) * 5
        p = predict_proba(manual_model(w, b), X)
        q = predict_proba(manual_model(-w, -b), X)
        np.testing.assert_allclose(q, 1.0 - p, atol=1e-12)

    def test_width_mismatch(self):
        model = manual_model([[0.1, 0.2]], [0.0])
        with pytest.raises(ValueError, match="incompatible with model width"):
            predict_proba(model, np.zeros((3, 5)))

    def test_probabilities_strictly_inside_unit_interval(self):
        model = manual_model([[100.0], [-100.0]], [0.0, 0.0], d=1)
        probs = predict_proba(model, np.array([[1e6]]))
        assert (probs > 0).all() and (probs < 1).all()


class TestCrossValidation:
    def test_fold_partition(self):
        folds = fold_assignments(10, CVConfig(n_folds=5, seed=1))
        sizes = np.bincount(folds, minlength=5)
        assert sizes.tolist() == [2, 2, 2, 2, 2]
        assert folds.shape == (10,)

    def test_fold_determinism(self):
        a = fold_assignments(37, CVConfig(n_folds=5, seed=9))
        b = fold_assignments(37, CVConfig(n_folds=5, seed=9))
        c = fold_assignments(37, CVConfig(n_folds=5, seed=10))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_invalid_fold_count(self):
        with pytest.raises(ValueError, match="n_folds"):
            fold_assignments(4, CVConfig(n_folds=5))

    def test_too_few_training_rows_rejected_before_any_fit(self, monkeypatch):
        # at 3 examples and 2 folds the larger fold leaves 1 example to train on
        monkeypatch.setattr(model_module, "_fit", lambda *a, **k: pytest.fail("fitted"))
        dataset = MultiLabelDataset(np.eye(3, 2, dtype=np.int8), ("a", "b", "c"),
                                    features=np.ones((3, 2)))
        with pytest.raises(ValueError, match="n_folds=2 over 3 examples leaves 1 to train on"):
            cross_val_pred_probs(dataset, CVConfig(n_folds=2))

    @pytest.mark.parametrize("field, value, message", [
        ("n_folds", 2.5, r"n_folds must be an integer >= 2, got 2.5"),
        # numpy 2 writes np.float64(3.0), older versions 3.0
        ("n_folds", np.float64(3.0), r"n_folds must be an integer >= 2, got (np\.float64\()?3\.0"),
        ("n_folds", True, r"n_folds must be an integer >= 2, got True"),
        ("n_folds", 1, r"n_folds must be an integer >= 2, got 1"),
        ("n_folds", "5", r"n_folds must be an integer >= 2, got '5'"),
        ("seed", 1.5, r"seed must be a non-negative integer, got 1.5"),
        ("seed", -1, r"seed must be a non-negative integer, got -1"),
        ("seed", False, r"seed must be a non-negative integer, got False"),
        ("seed", None, r"seed must be a non-negative integer, got None"),
    ])
    def test_bad_config_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            CVConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cv = CVConfig(n_folds=np.int64(4), seed=np.int32(3))
        assert np.array_equal(fold_assignments(20, cv), fold_assignments(20, CVConfig(4, 3)))

    def test_every_class_constant_in_every_fold(self, monkeypatch):
        # 10 rows all 1 in class 0 and all 0 in class 1: each fold's 8
        # training rows fit a (0, D+1) parameter matrix
        rng = np.random.default_rng(15)
        labels = np.column_stack([np.ones(10, dtype=int), np.zeros(10, dtype=int)])
        dataset = MultiLabelDataset(labels, tuple(f"e{i}" for i in range(10)),
                                    features=rng.poisson(5.0, size=(10, 3)).astype(float))
        fits = []
        fit = model_module._fit

        def recording_fit(*args, **kwargs):
            fits.append(fit(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(model_module, "_fit", recording_fit)
        probs = cross_val_pred_probs(dataset, CVConfig(), TrainConfig(epochs=20))
        assert len(fits) == 5
        log_odds = np.log(8.5 / 0.5)
        for model in fits:
            assert np.array_equal(model.weights, np.zeros((2, 3)))
            np.testing.assert_allclose(model.biases, [log_odds, -log_odds], rtol=1e-15, atol=0)
            assert model.loss_history.shape == (0,)  # a CV fit records no loss
        np.testing.assert_allclose(probs, np.tile([8.5 / 9, 0.5 / 9], (10, 1)),
                                   rtol=1e-14, atol=0)

    def test_label_outside_0_1_rejected(self):
        rng = np.random.default_rng(17)
        labels = rng.integers(0, 2, size=(20, 2))
        labels[3, 1] = 2
        # the dataset rejects the label at construction, so no fit can see it
        with pytest.raises(ValueError, match=r"^label 2 not in \{0,1\} at \(example 3, class 1\)$"):
            MultiLabelDataset(labels, tuple(f"e{i}" for i in range(20)),
                              features=rng.poisson(5.0, size=(20, 3)).astype(float))

    @pytest.mark.parametrize("loss_every", [1, 50])
    def test_divergence_raises_at_the_epoch_train_raises(self, loss_every):
        # a CV fit records no loss, yet diverges at the epoch train() names
        # on the same rows, at the config of test_divergence_raises_with_epoch
        features, y = random_training_set(1)
        config = TrainConfig(learning_rate=1e10, epochs=500, loss_every=loss_every)
        cv = CVConfig()
        rows = fold_assignments(features.shape[0], cv) != 0
        with pytest.raises(TrainingDivergedError) as raised:
            train(features[rows], y[rows, None], config)
        dataset = MultiLabelDataset(y[:, None], tuple(f"e{i}" for i in range(len(y))),
                                    features=features)
        with pytest.raises(TrainingDivergedError, match=f"^{raised.value}$"):
            cross_val_pred_probs(dataset, cv, config)

    def test_same_seed_identical_probabilities(self):
        rng = np.random.default_rng(7)
        dataset = MultiLabelDataset(
            rng.integers(0, 2, size=(60, 3)),
            tuple(f"e{i}" for i in range(60)),
            features=rng.poisson(10.0, size=(60, 4)).astype(float),
        )
        config = TrainConfig(epochs=50)
        a = cross_val_pred_probs(dataset, CVConfig(seed=3), config)
        b = cross_val_pred_probs(dataset, CVConfig(seed=3), config)
        assert np.array_equal(a, b)

    def test_output_passes_validation(self):
        rng = np.random.default_rng(8)
        dataset = MultiLabelDataset(
            rng.integers(0, 2, size=(50, 3)),
            tuple(f"e{i}" for i in range(50)),
            features=rng.poisson(10.0, size=(50, 4)).astype(float),
        )
        probs = cross_val_pred_probs(dataset, CVConfig(seed=1), TrainConfig(epochs=50))
        check_labels_probs(dataset.given_labels, probs)

    def test_memorization_probe_stays_uncommitted(self):
        # Two examples share identical features but contradict on class 0;
        # out-of-sample predictions for them must not copy either hard label.
        rng = np.random.default_rng(9)
        n_background = 38
        features = np.vstack([
            np.full((2, 3), 10.0),
            rng.poisson(10.0, size=(n_background, 3)).astype(float),
        ])
        labels = np.vstack([
            np.array([[1], [0]]),
            rng.integers(0, 2, size=(n_background, 1)),
        ])
        ids = tuple(f"e{i}" for i in range(n_background + 2))
        dataset = MultiLabelDataset(labels, ids, features=features)
        for seed in range(20):
            folds = fold_assignments(dataset.n_examples, CVConfig(seed=seed))
            if folds[0] != folds[1]:
                break
        else:
            pytest.fail("no seed separated the probe examples")
        probs = cross_val_pred_probs(dataset, CVConfig(seed=seed), TrainConfig(epochs=200))
        for i in (0, 1):
            assert 0.05 < probs[i, 0] < 0.95
