"""One-vs-rest logistic regression with k-fold CV for out-of-sample probabilities.

Deliberately minimal: full-batch gradient descent with a fixed learning rate
on an L2-regularized binary cross-entropy (bias unregularized), one
independent sigmoid output per class. Bag-of-words counts are log(1+x)
transformed and standardized with statistics computed on the training folds
only. This closes the benchmark loop; it is not meant to be a competitive
multi-label classifier.

Each epoch of :func:`train` takes one ``exp`` pass: from ``e = exp(-|z|)``
come both the loss, ``max(z, 0) + log1p(e) - y*z``, and the sigmoid,
``1/(1+e)`` where ``z >= 0`` and ``e/(1+e)`` elsewhere. The epoch writes
into ``(n, K)`` buffers allocated once per fit, and the folds of
:func:`cross_val_pred_probs` are fitted one after another, so peak memory is
that of one fold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import MultiLabelDataset, ProbMatrix

_PROB_CLIP = 1e-15  # keeps predicted probabilities strictly inside (0, 1)


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    l2: float = 1e-4
    epochs: int = 500

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass(frozen=True)
class CVConfig:
    n_folds: int = 5
    seed: int = 0


@dataclass(frozen=True)
class LogRegModel:
    """Per-class weights and bias plus the scaling statistics and
    hyperparameters used to fit them."""

    weights: np.ndarray        # (K, D)
    biases: np.ndarray         # (K,)
    feature_mean: np.ndarray   # (D,) mean of log1p(features) on training data
    feature_scale: np.ndarray  # (D,) std of log1p(features), floored at 1
    loss_history: np.ndarray   # (epochs + 1,) total loss across trained classes
    config: TrainConfig = TrainConfig()

    def __post_init__(self):
        for name in ("weights", "biases", "feature_mean", "feature_scale", "loss_history"):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not np.all(np.isfinite(self.weights)) or not np.all(np.isfinite(self.biases)):
            raise ValueError("model parameters must be finite")

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]


def _exp_neg_abs(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(-|z|): at most 1, so it never overflows.

    -|z| is taken as min(z, -z), which keeps the sign bit of a NaN.
    """
    out = np.negative(z, out=out)
    np.minimum(z, out, out=out)
    return np.exp(out, out=out)


def _sigmoid(z: np.ndarray, e: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Stable logistic: 1/(1+e) where z >= 0 and e/(1+e) elsewhere, e = exp(-|z|).

    Branch-free: the numerator max(e, [z >= 0]) is 1 where z >= 0 (e <= 1
    there) and e elsewhere, and NaN stays NaN. A given ``e`` must hold
    exp(-|z|) and is overwritten with 1 + e; ``out`` may be any float
    buffer shaped like ``z`` other than ``z`` and ``e``.
    """
    if e is None:
        e = _exp_neg_abs(z)
    out = np.greater_equal(z, 0.0, out=np.empty_like(z) if out is None else out)
    np.maximum(e, out, out=out)
    e += 1.0
    return np.divide(out, e, out=out)


def binary_loss_and_grad(
    weights: np.ndarray, bias: float, X: np.ndarray, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray, float]:
    """Mean binary cross-entropy + (l2/2)||w||^2 and its exact gradient.

    The bias is excluded from the penalty. Exposed separately so the
    analytic gradient can be checked against finite differences.
    """
    z = X @ weights + bias
    e = _exp_neg_abs(z)
    # mean of softplus(z) - y*z equals the mean binary cross-entropy.
    bce = float(np.mean(np.maximum(z, 0.0) + np.log1p(e) - y * z))
    loss = bce + 0.5 * l2 * float(weights @ weights)
    residual = _sigmoid(z, e) - y
    grad_w = X.T @ residual / X.shape[0] + l2 * weights
    grad_b = float(residual.mean())
    return loss, grad_w, grad_b


def _fit_scaler(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    logged = np.log1p(features)
    mean = logged.mean(axis=0)
    scale = logged.std(axis=0)
    scale = np.where(scale < 1e-12, 1.0, scale)
    return mean, scale


def _apply_scaler(features, mean, scale) -> np.ndarray:
    return (np.log1p(features) - mean) / scale


def _base_rate_bias(y: np.ndarray) -> float:
    # Laplace-smoothed log-odds; finite even when all labels agree.
    rate = (y.sum() + 0.5) / (y.shape[0] + 1.0)
    return float(np.log(rate / (1.0 - rate)))


def train(features: np.ndarray, labels: np.ndarray, config: TrainConfig = TrainConfig()) -> LogRegModel:
    """Fit one independent logistic regression per class by full-batch descent.

    Classes whose labels are all identical get a bias-only constant model at
    the smoothed base rate. Raises :class:`TrainingDivergedError` if the
    loss ever becomes non-finite (e.g. a too-large learning rate).
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if features.ndim != 2 or labels.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ValueError(
            f"incompatible shapes: features {features.shape}, labels {labels.shape}"
        )
    n, d = features.shape
    k = labels.shape[1]
    if n < 2:
        raise ValueError("need at least 2 examples to train")

    mean, scale = _fit_scaler(features)
    X = _apply_scaler(features, mean, scale)

    col_min = labels.min(axis=0)
    active = col_min != labels.max(axis=0)
    Y = np.ascontiguousarray(labels[:, active])  # the boolean column pick is F-ordered

    W = np.zeros((Y.shape[1], d))
    b = np.zeros(Y.shape[1])
    Z, E, P, L = (np.empty(Y.shape) for _ in range(4))
    losses = []
    # overflow here is the divergence signal, reported as an error below
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs + 1):
            np.matmul(X, W.T, out=Z)
            Z += b
            _exp_neg_abs(Z, out=E)
            np.log1p(E, out=L)
            _sigmoid(Z, E, out=P)  # consumes E
            # L = softplus(Z) - Y*Z = max(Z, 0) + log1p(exp(-|Z|)) - Y*Z
            L += np.maximum(Z, 0.0, out=E)
            L -= np.multiply(Y, Z, out=E)
            loss = float(L.sum() / n + 0.5 * config.l2 * (W * W).sum())
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            losses.append(loss)
            if epoch == config.epochs:
                break
            residual = np.subtract(P, Y, out=P)
            W -= config.learning_rate * (residual.T @ X / n + config.l2 * W)
            # einsum sums the rows in order, as residual.mean(axis=0) does,
            # so the bias bits match it at a third of the cost
            b -= config.learning_rate * (np.einsum("ij->j", residual) / n)

    weights = np.zeros((k, d))
    biases = np.zeros(k)
    weights[active] = W
    biases[active] = b
    for j in np.flatnonzero(~active):
        biases[j] = _base_rate_bias(labels[:, j])

    return LogRegModel(weights, biases, mean, scale, np.array(losses), config)


def predict_proba(model: LogRegModel, features: np.ndarray) -> ProbMatrix:
    """Per-class sigmoid probabilities; rows are not normalized across classes."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.n_features:
        raise ValueError(
            f"features shape {features.shape} incompatible with model width {model.n_features}"
        )
    X = _apply_scaler(features, model.feature_mean, model.feature_scale)
    probs = _sigmoid(X @ model.weights.T + model.biases)
    return ProbMatrix(np.clip(probs, _PROB_CLIP, 1.0 - _PROB_CLIP))


def fold_assignments(n_examples: int, cv: CVConfig) -> np.ndarray:
    """Disjoint, exhaustive, seed-deterministic fold index per example."""
    if not 2 <= cv.n_folds <= n_examples:
        raise ValueError(f"n_folds must be in [2, {n_examples}], got {cv.n_folds}")
    order = np.random.default_rng(cv.seed).permutation(n_examples)
    folds = np.empty(n_examples, dtype=np.int64)
    folds[order] = np.arange(n_examples) % cv.n_folds
    return folds


def cross_val_pred_probs(
    dataset: MultiLabelDataset,
    cv: CVConfig = CVConfig(),
    config: TrainConfig = TrainConfig(),
) -> ProbMatrix:
    """Out-of-sample probabilities: each example is predicted by the model
    trained on the other folds; scaling statistics come from training folds only."""
    if dataset.features is None:
        raise ValueError("dataset has no features to train on")
    folds = fold_assignments(dataset.n_examples, cv)
    probs = np.empty((dataset.n_examples, dataset.n_classes))
    for f in range(cv.n_folds):
        held_out = folds == f
        model = train(dataset.features[~held_out], dataset.given_labels[~held_out], config)
        probs[held_out] = predict_proba(model, dataset.features[held_out]).values
    return ProbMatrix(probs)
