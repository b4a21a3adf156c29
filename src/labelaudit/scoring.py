"""Per-class label-quality scores and the pooling methods that combine them.

The base score for each (example, class) cell is *self-confidence*: the
classifier-estimated probability of the given binary label,

    score = p        when the class was annotated as present,
    score = 1 - p    when it was annotated as absent.

Each pooling method then reduces the K per-class scores of an example to a
single number whose ascending order ranks examples from most to least
suspicious. Lower pooled scores mean the annotation is more likely to
contain at least one error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import check_labels_probs

POOLER_NAMES = (
    "min",
    "max",
    "mean",
    "median",
    "ema",
    "softmin",
    "log",
    "cumavg_bottom",
    "weighted_cumavg",
    "sma",
)


@dataclass(frozen=True)
class PoolingMethod:
    """A pooling method tag plus the parameters it uses.

    Only the parameters relevant to ``name`` matter; the rest are ignored.
    ``alpha`` may be exactly 1.0, which degenerates the moving average to
    plain min-pooling (useful for tests).
    """

    name: str
    alpha: float = 0.8       # ema forgetting factor, 0 < alpha <= 1
    tau: float = 0.1         # softmin temperature, > 0
    eps: float = 1e-8        # log-pooling floor, > 0
    bottom_j: int = 2        # number of smallest scores averaged, 1 <= J <= K
    period: int = 2          # moving-average window, 1 <= P <= K

    def __post_init__(self):
        if self.name not in POOLER_NAMES:
            raise ValueError(f"unknown pooling method {self.name!r}; expected one of {POOLER_NAMES}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if self.bottom_j < 1:
            raise ValueError(f"bottom_j must be >= 1, got {self.bottom_j}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")

    def check_n_classes(self, n_classes: int) -> None:
        if n_classes < 1:
            raise ValueError("need at least one class to pool over")
        if self.name == "cumavg_bottom" and self.bottom_j > n_classes:
            raise ValueError(f"bottom_j={self.bottom_j} exceeds the {n_classes} classes")
        if self.name == "sma" and self.period > n_classes:
            raise ValueError(f"period={self.period} exceeds the {n_classes} classes")

    def params(self) -> Mapping[str, float]:
        """The parameters actually used by this method, for reporting."""
        relevant = {
            "ema": {"alpha": self.alpha},
            "softmin": {"tau": self.tau},
            "log": {"eps": self.eps},
            "cumavg_bottom": {"bottom_j": self.bottom_j},
            "sma": {"period": self.period},
        }
        return relevant.get(self.name, {})


@dataclass(frozen=True)
class QualityScoreVector:
    """Pooled per-example label-quality scores; only the ranking is contractual."""

    values: np.ndarray
    method: PoolingMethod

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64, copy=True)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def self_confidence(labels: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Per-class score matrix: p where the label is 1, 1 - p where it is 0."""
    labels = np.asarray(labels)
    probs = np.asarray(probs, dtype=np.float64)
    if labels.shape != probs.shape:
        raise ValueError(f"labels shape {labels.shape} != probs shape {probs.shape}")
    return np.where(labels == 1, probs, 1.0 - probs)


def _as_matrix(per_class_scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(per_class_scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"per-class scores must be 2-D, got shape {scores.shape}")
    if scores.shape[1] < 1:
        raise ValueError("empty class axis")
    return scores


def pool_min(per_class_scores: np.ndarray) -> np.ndarray:
    return _as_matrix(per_class_scores).min(axis=1)


def pool_max(per_class_scores: np.ndarray) -> np.ndarray:
    return _as_matrix(per_class_scores).max(axis=1)


def pool_mean(per_class_scores: np.ndarray) -> np.ndarray:
    return _as_matrix(per_class_scores).mean(axis=1)


def pool_median(per_class_scores: np.ndarray) -> np.ndarray:
    # Even class count: midpoint of the two central sorted values.
    return np.median(_as_matrix(per_class_scores), axis=1)


def pool_ema(per_class_scores: np.ndarray, alpha: float = 0.8) -> np.ndarray:
    """Exponential moving average run over each row sorted in decreasing order.

    Running the average largest-first makes the smallest per-class score
    dominate the result: the k-th smallest score contributes with weight
    alpha * (1 - alpha)^(k-1) (the largest with weight (1 - alpha)^(K-1)),
    so alpha close to 1 approaches min-pooling and alpha close to 0
    approaches max-pooling.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    scores = _as_matrix(per_class_scores)
    descending = np.sort(scores, axis=1)[:, ::-1]
    running = descending[:, 0].copy()
    for t in range(1, descending.shape[1]):
        running = alpha * descending[:, t] + (1.0 - alpha) * running
    return running


def pool_softmin(per_class_scores: np.ndarray, tau: float = 0.1) -> np.ndarray:
    """Softmax-weighted average that emphasizes the smallest scores.

    Weights are proportional to exp((1 - score) / tau); the max exponent is
    subtracted before exponentiating so user-supplied temperatures cannot
    overflow.
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    scores = _as_matrix(per_class_scores)
    z = (1.0 - scores) / tau
    z = z - z.max(axis=1, keepdims=True)
    w = np.exp(z)
    return (scores * w).sum(axis=1) / w.sum(axis=1)


def pool_log(per_class_scores: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Mean of log(score + eps); finite even when some scores are exactly 0."""
    if not eps > 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    scores = _as_matrix(per_class_scores)
    return np.log(scores + eps).mean(axis=1)


def pool_cumavg_bottom(per_class_scores: np.ndarray, bottom_j: int = 2) -> np.ndarray:
    """Mean of the J smallest per-class scores of each example."""
    scores = _as_matrix(per_class_scores)
    if not 1 <= bottom_j <= scores.shape[1]:
        raise ValueError(f"bottom_j must be in [1, {scores.shape[1]}], got {bottom_j}")
    ascending = np.sort(scores, axis=1)
    return ascending[:, :bottom_j].mean(axis=1)


def pool_weighted_cumavg(per_class_scores: np.ndarray) -> np.ndarray:
    """Exponentially-weighted sum of the cumulative bottom-J averages.

    Sums exp(1 - J) * (mean of the J smallest scores) over J = 1..K. The
    weights sum to more than 1, so the output is not confined to the range
    of the inputs; only its ranking is meaningful.
    """
    scores = _as_matrix(per_class_scores)
    n_classes = scores.shape[1]
    ascending = np.sort(scores, axis=1)
    cum_means = np.cumsum(ascending, axis=1) / np.arange(1, n_classes + 1)
    weights = np.exp(1.0 - np.arange(1, n_classes + 1, dtype=np.float64))
    return cum_means @ weights


def pool_sma(per_class_scores: np.ndarray, period: int = 2) -> np.ndarray:
    """Mean of all period-P moving-window sums over ascending-sorted scores.

    Every window of P adjacent sorted scores is summed and the grand total
    is divided by P * (K - P + 1); both P = 1 and P = K reduce to plain
    mean-pooling.
    """
    scores = _as_matrix(per_class_scores)
    n_classes = scores.shape[1]
    if not 1 <= period <= n_classes:
        raise ValueError(f"period must be in [1, {n_classes}], got {period}")
    ascending = np.sort(scores, axis=1)
    padded = np.concatenate(
        [np.zeros((scores.shape[0], 1)), np.cumsum(ascending, axis=1)], axis=1
    )
    window_sums = padded[:, period:] - padded[:, :-period]
    return window_sums.sum(axis=1) / (period * (n_classes - period + 1))


def pool(per_class_scores: np.ndarray, method: PoolingMethod) -> np.ndarray:
    """Apply the named pooling method to an N x K per-class score matrix."""
    scores = _as_matrix(per_class_scores)
    method.check_n_classes(scores.shape[1])
    if method.name == "min":
        return pool_min(scores)
    if method.name == "max":
        return pool_max(scores)
    if method.name == "mean":
        return pool_mean(scores)
    if method.name == "median":
        return pool_median(scores)
    if method.name == "ema":
        return pool_ema(scores, method.alpha)
    if method.name == "softmin":
        return pool_softmin(scores, method.tau)
    if method.name == "log":
        return pool_log(scores, method.eps)
    if method.name == "cumavg_bottom":
        return pool_cumavg_bottom(scores, method.bottom_j)
    if method.name == "weighted_cumavg":
        return pool_weighted_cumavg(scores)
    if method.name == "sma":
        return pool_sma(scores, method.period)
    raise AssertionError(f"unhandled pooling method {method.name!r}")


def score_examples(labels: np.ndarray, probs: np.ndarray, method: PoolingMethod) -> QualityScoreVector:
    """Self-confidence followed by the selected pooler, with the method recorded.

    Raises ``ValueError`` for a label outside {0,1} or a probability that is
    not a finite number in [0, 1].
    """
    per_class = self_confidence(*check_labels_probs(labels, probs))
    return QualityScoreVector(pool(per_class, method), method)


def rescale_for_display(scores: np.ndarray) -> np.ndarray:
    """Min-max rescale scores to [0,1] for reporting only.

    Ranking metrics must always use raw values; constant inputs map to 0.5.
    """
    scores = np.asarray(scores, dtype=np.float64)
    lo, hi = scores.min(), scores.max()
    if hi == lo:
        return np.full_like(scores, 0.5)
    return (scores - lo) / (hi - lo)
