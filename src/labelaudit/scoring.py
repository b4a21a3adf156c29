"""Per-class label-quality scores and the pooling methods that combine them.

The base score for each (example, class) cell is *self-confidence*: the
classifier-estimated probability of the given binary label,

    score = p        when the class was annotated as present,
    score = 1 - p    when it was annotated as absent.

Each pooling method then reduces the K per-class scores of an example to a
single number whose ascending order ranks examples from most to least
suspicious. Lower pooled scores mean the annotation is more likely to
contain at least one error.

Eight poolers are L-statistics: each sorts a row ascending, s_(1) <= ... <=
s_(K), and returns sum_j w_j * s_(j) for a fixed weight vector. By sorted
position j = 1..K:

    min              w_1 = 1, all others 0
    max              w_K = 1, all others 0
    mean             1/K everywhere
    median           1 at (K+1)/2 for odd K; 1/2 at K/2 and K/2+1 for even K
    ema(alpha)       alpha * (1-alpha)^(j-1) for j < K, (1-alpha)^(K-1) at j = K
    cumavg_bottom(J) 1/J for j <= J, 0 above
    weighted_cumavg  sum over J = j..K of e^(1-J) / J
    sma(P)           min(j, K-j+1, P, K-P+1) / (P * (K-P+1))

``ema`` is the paper's exponential moving average run largest-first over the
sorted row. At K=4 and alpha=0.8 its weights are 0.8, 0.16, 0.032 and
0.008, so it is nearly min-pooling; alpha -> 0 approaches max-pooling.
``cumavg_bottom`` is the mean of the J smallest scores, ``weighted_cumavg``
the sum of those bottom-J means weighted by e^(1-J) (its weights sum to more
than 1, so only its ranking is meaningful), and ``sma`` the mean of every
period-P moving-window sum over the sorted row (P = 1 and P = K are the mean).

The other two are not L-statistics: ``softmin(tau)`` averages the scores
with weights proportional to exp((1 - score) / tau), and ``log(eps)`` is the
mean of log(score + eps), finite even where a score is 0.

:func:`score_all` scores a list of methods in one pass. It checks the labels
and probabilities once and computes self-confidence once. It then pools in
row blocks of about ``_BLOCK_CELLS`` cells (~1024 rows at K=50). Each block
is sorted once, and only if an L-statistic is asked for, and every method
runs on it while it is in cache; one block-sized buffer holds all their
temporaries, so no method needs an (N, K) array of its own. A row's
arithmetic does not depend on its block, so equal rows pool to equal bits
wherever they fall. :func:`score_examples` and :func:`pool` are its
one-method views, so a method gives the same bits alone or in a list.

Work whose answer is known is skipped without moving a bit. An L-statistic
with at most two nonzero weights (min, max, median, and cumavg_bottom with
J <= 2) reads those sorted columns instead of summing the whole weighted
row; only a row whose sum is zero, where the sign of the zero depends on
every term, takes the whole sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import _read_only, check_labels_probs, is_integer

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

# the one parameter that each method with a parameter reads
_PARAM_OF = {"ema": "alpha", "softmin": "tau", "log": "eps",
             "cumavg_bottom": "bottom_j", "sma": "period"}


@dataclass(frozen=True)
class PoolingMethod:
    """A pooling method tag plus the parameters it uses.

    Every parameter is validated, but only those relevant to ``name`` affect
    the result. ``alpha`` may be exactly 1.0, which degenerates the moving
    average to plain min-pooling (useful for tests).
    """

    name: str
    alpha: float = 0.8       # ema forgetting factor, 0 < alpha <= 1
    tau: float = 0.1         # softmin temperature, finite and > 0
    eps: float = 1e-8        # log-pooling floor, > 0
    bottom_j: int = 2        # number of smallest scores averaged, 1 <= J <= K
    period: int = 2          # moving-average window, 1 <= P <= K

    def __post_init__(self):
        if self.name not in POOLER_NAMES:
            raise ValueError(f"unknown pooling method {self.name!r}; expected one of {POOLER_NAMES}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")
        for field in ("bottom_j", "period"):
            value = getattr(self, field)
            if not is_integer(value) or value < 1:
                raise ValueError(f"{field} must be an integer >= 1, got {value}")

    def check_n_classes(self, n_classes: int) -> None:
        if n_classes < 1:
            raise ValueError("need at least one class to pool over")
        for field, value in self.params().items():
            if field in ("bottom_j", "period") and value > n_classes:  # window sizes
                raise ValueError(f"{field}={value} exceeds the {n_classes} classes")

    def params(self) -> Mapping[str, float]:
        """The parameters actually used by this method, for reporting."""
        field = _PARAM_OF.get(self.name)
        return {} if field is None else {field: getattr(self, field)}


@dataclass(frozen=True)
class QualityScoreVector:
    """Pooled per-example label-quality scores; only the ranking is contractual."""

    values: np.ndarray
    method: PoolingMethod

    def __post_init__(self):
        object.__setattr__(self, "values", _read_only(self.values, np.float64))


def self_confidence(labels: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Per-class score matrix: p where the label is 1, 1 - p where it is 0.

    Raises ``ValueError`` for a label outside {0,1} or a probability that is
    not a finite number in [0, 1].
    """
    labels, probs = check_labels_probs(labels, probs)
    scores = np.subtract(1.0, probs)
    np.copyto(scores, probs, where=labels == 1)
    return scores


# Weight of each ascending sorted position j = 1..K (as floats) for the
# eight poolers that are L-statistics; see the table in the module docstring.
_SORTED_WEIGHTS = {
    "min": lambda m, j, k: np.where(j == 1, 1.0, 0.0),
    "max": lambda m, j, k: np.where(j == k, 1.0, 0.0),
    "mean": lambda m, j, k: np.full(k, 1.0 / k),
    "median": lambda m, j, k: np.where(abs(j - (k + 1) / 2) < 1, 1.0 / (2 - k % 2), 0.0),
    "ema": lambda m, j, k: np.where(j < k, m.alpha, 1.0) * (1.0 - m.alpha) ** (j - 1),
    "cumavg_bottom": lambda m, j, k: np.where(j <= m.bottom_j, 1.0 / m.bottom_j, 0.0),
    "weighted_cumavg": lambda m, j, k: np.cumsum((np.exp(1.0 - j) / j)[::-1])[::-1],
    "sma": lambda m, j, k: (np.minimum(np.minimum(j, k + 1 - j), min(m.period, k + 1 - m.period))
                            / (m.period * (k + 1 - m.period))),
}


_BLOCK_CELLS = 51200  # cells per row block of pooling: the block's temporaries stay in cache


def pool(per_class_scores: np.ndarray, method: PoolingMethod) -> np.ndarray:
    """Apply the named pooling method to an N x K matrix of finite per-class scores."""
    return _pool_all(per_class_scores, (method,))[0]


def _pool_all(per_class_scores: np.ndarray, methods: Sequence[PoolingMethod]) -> list[np.ndarray]:
    """Every method's pooled scores, in order, from one check and at most one sort a row."""
    scores = np.asarray(per_class_scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"per-class scores must be 2-D, got shape {scores.shape}")
    if scores.shape[1] < 1:
        raise ValueError("empty class axis")
    if not np.isfinite(scores).all():
        raise ValueError("per-class scores must be finite")
    n_examples, n_classes = scores.shape
    for method in methods:
        method.check_n_classes(n_classes)
    positions = np.arange(1.0, n_classes + 1)
    weights = [_SORTED_WEIGHTS[m.name](m, positions, n_classes) if m.name in _SORTED_WEIGHTS
               else None for m in methods]
    # the sorted positions an L-statistic with at most two nonzero weights reads
    sparse = [None if w is None or np.count_nonzero(w) > 2 else np.flatnonzero(w)
              for w in weights]
    sorting = any(w is not None for w in weights)
    pooled = [np.empty(n_examples) for _ in methods]
    rows = max(1, _BLOCK_CELLS // n_classes)
    work = np.empty((min(rows, n_examples), n_classes))
    for start in range(0, n_examples, rows):
        block = scores[start:start + rows]
        ordered = np.sort(block, axis=1) if sorting else None
        out = work[:len(block)]
        for method, w, columns, result in zip(methods, weights, sparse, pooled):
            dest = result[start:start + len(block)]
            if method.name == "softmin":
                # weights exp((1 - s)/tau - row max); subtracting the row's largest
                # exponent keeps any temperature from overflowing
                z = np.subtract(1.0, block, out=out)
                z /= method.tau
                z -= z.max(axis=1, keepdims=True)
                e = np.exp(z, out=z)
                total = e.sum(axis=1)
                np.divide(np.multiply(block, e, out=e).sum(axis=1), total, out=dest)
            elif method.name == "log":
                np.log(np.add(block, method.eps, out=out), out=out).mean(axis=1, out=dest)
            elif columns is None:
                # Not `@`: a BLAS product can sum equal rows in different orders,
                # and ranks at ties need equal rows pooled to bit-equal values.
                np.multiply(ordered, w, out=out).sum(axis=1, out=dest)
            else:
                _sparse_sum(ordered, w, columns, dest)
    return pooled


def _sparse_sum(ordered: np.ndarray, w: np.ndarray, columns: np.ndarray, dest: np.ndarray) -> None:
    """``np.multiply(ordered, w).sum(axis=1)`` into ``dest`` where ``w`` is
    nonzero only at ``columns``, one or two of them.

    Adding a zero term leaves a nonzero partial sum as it is, so a nonzero
    row sum is the one rounding of its nonzero terms' sum, in any order. A
    zero one carries a sign that depends on every term, so those rows take
    the dense sum.
    """
    np.multiply(ordered[:, columns[0]], w[columns[0]], out=dest)
    if len(columns) == 2:
        dest += ordered[:, columns[1]] * w[columns[1]]
    zero = np.flatnonzero(dest == 0.0)
    if zero.size:
        dest[zero] = np.multiply(ordered[zero], w).sum(axis=1)


def score_examples(labels: np.ndarray, probs: np.ndarray, method: PoolingMethod) -> QualityScoreVector:
    """Self-confidence followed by the selected pooler, with the method recorded.

    Raises ``ValueError`` for a label outside {0,1} or a probability that is
    not a finite number in [0, 1].
    """
    return score_all(labels, probs, (method,))[0]


def score_all(
    labels: np.ndarray, probs: np.ndarray, methods: Sequence[PoolingMethod]
) -> tuple[QualityScoreVector, ...]:
    """:func:`score_examples` for each method, in order, from one input check,
    one self-confidence matrix and at most one sort; raises as it does."""
    per_class = self_confidence(labels, probs)
    return tuple(QualityScoreVector(values, method)
                 for values, method in zip(_pool_all(per_class, methods), methods))


def rescale_for_display(scores: np.ndarray) -> np.ndarray:
    """Min-max rescale scores to [0,1] for reporting only.

    Ranking metrics must always use raw values; constant inputs map to 0.5
    and empty ones to an empty array.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        return scores.copy()
    lo, hi = scores.min(), scores.max()
    if hi == lo:
        return np.full_like(scores, 0.5)
    return (scores - lo) / (hi - lo)
