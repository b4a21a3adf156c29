import numpy as np
import pytest

import reference
from labelaudit.data import MultiLabelDataset, validate
from labelaudit.model import (
    CVConfig,
    LogRegModel,
    TrainConfig,
    TrainingDivergedError,
    _exp_neg_abs,
    _sigmoid,
    binary_loss_and_grad,
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
        preds = predict_proba(model, features).values[:, 0] >= 0.5
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

    def test_degenerate_class_gets_constant_base_rate_model(self):
        rng = np.random.default_rng(2)
        features = rng.random((20, 3))
        labels = np.column_stack([np.ones(20, dtype=int), rng.integers(0, 2, 20)])
        model = train(features, labels)
        assert np.array_equal(model.weights[0], np.zeros(3))
        probs = predict_proba(model, features).values[:, 0]
        assert np.all(probs == probs[0])
        assert probs[0] == pytest.approx(20.5 / 21.0, abs=1e-12)

    def test_huge_l2_drives_weights_to_zero_constant_predictions(self):
        features, y = random_training_set(3, n=30)
        model = train(features, y[:, None],
                      TrainConfig(learning_rate=1e-6, l2=1e6, epochs=300))
        assert np.max(np.abs(model.weights)) < 1e-4
        probs = predict_proba(model, features).values[:, 0]
        np.testing.assert_allclose(probs, probs[0], atol=1e-4)

    def test_moderate_l2_converges_bias_to_base_rate(self):
        rng = np.random.default_rng(4)
        features = rng.random((200, 3))
        labels = (rng.random(200) < 0.3).astype(int)[:, None]
        model = train(features, labels, TrainConfig(learning_rate=0.05, l2=10.0, epochs=8000))
        base_rate = labels.mean()
        probs = predict_proba(model, features).values[:, 0]
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


class TestTrainerOracle:
    """The in-place kernel against a literal copy of the original epoch loop."""

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
    def test_train_and_cv_match_oracle(self, case):
        features, labels, cv = oracle_case(case)
        config = TrainConfig(epochs=100, loss_every=1)
        model = train(features, labels, config)
        weights, biases, losses, _, _ = reference.train(features, labels, epochs=100)
        assert np.array_equal(model.weights, weights)
        assert np.array_equal(model.biases, biases)
        np.testing.assert_allclose(model.loss_history, losses, rtol=1e-12, atol=0)

        ids = tuple(f"e{i}" for i in range(features.shape[0]))
        probs = cross_val_pred_probs(MultiLabelDataset(labels, ids, features=features), cv, config)
        expected = reference.cross_val_pred_probs(features, labels, cv.n_folds, cv.seed, epochs=100)
        assert np.array_equal(probs.values, expected)


class TestSigmoid:
    EDGES = [0.0, 1e-300, 1.0, 36.0, 709.0, 710.0, 745.0, np.inf, np.nan]

    def inputs(self):
        edges = np.array(self.EDGES)
        normals = np.random.default_rng(12).normal(size=10**5) * 50
        return np.concatenate([edges, -edges, normals])

    def test_branch_free_equals_masked_formula_bit_for_bit(self):
        z = self.inputs()
        # the negated edges carry the sign bit, so -0.0 and -nan are covered
        assert np.signbit(z[len(self.EDGES):2 * len(self.EDGES)]).all()
        expected = reference.masked_sigmoid(z).view(np.uint64)
        assert np.array_equal(_sigmoid(z).view(np.uint64), expected)

    def test_buffer_path_equals_masked_formula_bit_for_bit(self):
        z = self.inputs().reshape(-1, 2)
        out = np.empty_like(z)
        result = _sigmoid(z, _exp_neg_abs(z, out=np.empty_like(z)), out=out)
        assert result is out
        assert np.array_equal(out.view(np.uint64), reference.masked_sigmoid(z).view(np.uint64))


class TestKernelMatchesCheckedGradient:
    """The epoch loop and binary_loss_and_grad agree on a one-class problem."""

    def test_first_loss_and_first_step(self):
        features, y = random_training_set(13, n=40, d=4)
        config = TrainConfig(learning_rate=0.1, l2=1e-3, epochs=1)
        model = train(features, y[:, None], config)
        X = (np.log1p(features) - model.feature_mean) / model.feature_scale
        loss, grad_w, grad_b = binary_loss_and_grad(np.zeros(4), 0.0, X, y, config.l2)
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
            _, grad_w, grad_b = binary_loss_and_grad(w, b, X, y, l2)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                up = binary_loss_and_grad(w + e, b, X, y, l2)[0]
                down = binary_loss_and_grad(w - e, b, X, y, l2)[0]
                fd = (up - down) / (2 * h)
                assert abs(grad_w[j] - fd) / max(1e-8, abs(grad_w[j]) + abs(fd)) < 1e-5
            fd_b = (binary_loss_and_grad(w, b + h, X, y, l2)[0]
                    - binary_loss_and_grad(w, b - h, X, y, l2)[0]) / (2 * h)
            assert abs(grad_b - fd_b) / max(1e-8, abs(grad_b) + abs(fd_b)) < 1e-5


class TestPredict:
    def test_zero_model_predicts_half(self):
        model = manual_model([[0.0, 0.0]], [0.0])
        probs = predict_proba(model, np.array([[3.0, 7.0], [0.0, 0.0]]))
        np.testing.assert_array_equal(probs.values, 0.5)

    def test_saturated_bias(self):
        model = manual_model([[0.0]], [50.0])
        p = predict_proba(model, np.array([[1.0]])).values[0, 0]
        assert p > 1 - 1e-9
        assert p < 1.0  # strictly inside (0, 1)

    def test_negation_flips_probabilities(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(2, 4))
        b = rng.normal(size=2)
        X = rng.random((20, 4)) * 5
        p = predict_proba(manual_model(w, b), X).values
        q = predict_proba(manual_model(-w, -b), X).values
        np.testing.assert_allclose(q, 1.0 - p, atol=1e-12)

    def test_width_mismatch(self):
        model = manual_model([[0.1, 0.2]], [0.0])
        with pytest.raises(ValueError, match="incompatible with model width"):
            predict_proba(model, np.zeros((3, 5)))

    def test_probabilities_strictly_inside_unit_interval(self):
        model = manual_model([[100.0], [-100.0]], [0.0, 0.0], d=1)
        probs = predict_proba(model, np.array([[1e6]])).values
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
        assert np.array_equal(a.values, b.values)

    def test_output_passes_validation(self):
        rng = np.random.default_rng(8)
        dataset = MultiLabelDataset(
            rng.integers(0, 2, size=(50, 3)),
            tuple(f"e{i}" for i in range(50)),
            features=rng.poisson(10.0, size=(50, 4)).astype(float),
        )
        probs = cross_val_pred_probs(dataset, CVConfig(seed=1), TrainConfig(epochs=50))
        assert validate(dataset, probs).violations == ()

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
            assert 0.05 < probs.values[i, 0] < 0.95
