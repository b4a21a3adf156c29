"""Metrics comparing quality scores and flags against ground-truth error sets.

Examples are ranked by ascending score (lowest = most suspicious) and
compared against which examples truly contain annotation errors. AP@T
restricts average precision to the bottom-T ranked examples; with T = N it
coincides exactly with AUPRC. The "at least k errors" variants target
severely mislabeled examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .data import _read_only


@dataclass(frozen=True)
class ErrorTruth:
    """Ground-truth targets: per-example error flags and error counts."""

    error_flags: np.ndarray   # (N,) bool: any per-class annotation wrong
    error_counts: np.ndarray  # (N,) int: number of wrong per-class annotations

    def __post_init__(self):
        flags = _read_only(self.error_flags, bool)
        counts = _read_only(self.error_counts, np.int64)
        if flags.shape != counts.shape or flags.ndim != 1:
            raise ValueError("error_flags and error_counts must be matching 1-D arrays")
        if (counts < 0).any():
            raise ValueError("error counts must be non-negative")
        if not np.array_equal(flags, counts > 0):
            raise ValueError("error_flags must equal (error_counts > 0)")
        object.__setattr__(self, "error_flags", flags)
        object.__setattr__(self, "error_counts", counts)

    @property
    def n_mislabeled(self) -> int:
        return int(self.error_flags.sum())

    @cached_property
    def centred_count_ranks(self) -> np.ndarray:
        """Tie-averaged ranks of the error counts minus their mean (Spearman's y side).

        Each run of equal counts takes one averaged rank, so any order that
        sorts them gives the same bits; numpy's default argsort is the fastest.
        """
        ranks = _average_ranks(self.error_counts, np.argsort(self.error_counts))
        return ranks - ranks.mean()


def error_truth(given_labels: np.ndarray, true_labels: np.ndarray) -> ErrorTruth:
    """Build the evaluation targets by comparing given labels with ground truth."""
    given = np.asarray(given_labels)
    truth = np.asarray(true_labels)
    if given.shape != truth.shape:
        raise ValueError(f"shape mismatch: {given.shape} vs {truth.shape}")
    counts = (given != truth).sum(axis=1)
    return ErrorTruth(counts > 0, counts)


@dataclass(frozen=True)
class MetricResult:
    """A single metric value plus the parameters it was computed with.

    ``value`` is NaN when the metric is undefined (e.g. Spearman on a
    constant vector); it is reported as missing, never silently as 0.
    """

    name: str
    value: float
    param_t: int | None = None
    param_k: int | None = None
    n_positives: int | None = None

    @property
    def missing(self) -> bool:
        return math.isnan(self.value)


def rank_ascending(scores: np.ndarray) -> np.ndarray:
    """Stable ascending ordering; ties break by original index.

    The order is exactly ``np.argsort(scores, kind="stable")``, built from
    numpy's faster default argsort, which may leave equal values in any
    order. Only when equal values exist is each run of them put back in
    index order, by one integer sort of ``run * n + index``: its keys are
    distinct, so that sort has one answer.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError("scores must be 1-D")
    if np.isnan(scores).any():
        raise ValueError("scores contain NaN")
    order = np.argsort(scores)
    ordered = scores[order]
    starts_run = ordered[1:] != ordered[:-1]  # -0.0 and 0.0 tie, as in the stable sort
    if starts_run.all():
        return order
    run = np.zeros(len(order), dtype=np.int64)
    np.cumsum(starts_run, out=run[1:])
    run *= len(order)
    return np.sort(run + order) - run


def _ap(values: np.ndarray, truth: ErrorTruth, t: int | None, min_errors: int,
        name: str | None = None, order: np.ndarray | None = None) -> MetricResult:
    """AP@T, or AUPRC when ``name`` is "auprc"; ``order`` is the scores' order if known."""
    if name == "auprc":
        if truth.n_mislabeled == 0:
            raise ValueError("AUPRC is undefined with no mislabeled examples")
        t = len(values)
    n = values.shape[0]
    if truth.error_counts.shape[0] != n:
        raise ValueError(f"{n} scores vs {truth.error_counts.shape[0]} truth entries")
    if min_errors < 1:
        raise ValueError("min_errors must be >= 1")
    if t is None:
        t = truth.n_mislabeled
    if not 1 <= t <= n:
        raise ValueError(f"T must be in [1, {n}], got {t}")
    if order is None:
        order = rank_ascending(values)
    rel = truth.error_counts[order[:t]] >= min_errors
    precision_at = np.cumsum(rel) / np.arange(1, t + 1)
    value = float((precision_at * rel).sum() / max(1, int(rel.sum())))
    return MetricResult(name or f"ap{min_errors if min_errors > 1 else ''}_at_t", value,
                        int(t), min_errors, int((truth.error_counts >= min_errors).sum()))


def ap_at_t(scores: np.ndarray, truth: ErrorTruth, t: int | None = None,
            min_errors: int = 1) -> MetricResult:
    """Average precision over the bottom-T scored examples.

    Positives are examples with at least ``min_errors`` wrong per-class
    annotations. The denominator is the number of positives among the
    bottom T (clamped to at least 1), which makes AP@N equal standard
    average precision. T defaults to the number of truly mislabeled
    examples.
    """
    return _ap(np.asarray(scores, dtype=np.float64), truth, t, min_errors)


def auprc(scores: np.ndarray, truth: ErrorTruth) -> MetricResult:
    """Area under the precision-recall curve; identical to AP@N by definition."""
    return _ap(np.asarray(scores, dtype=np.float64), truth, None, 1, "auprc")


def _average_ranks(values: np.ndarray, order: np.ndarray | None = None) -> np.ndarray:
    """Ranks 1..N with ties (runs of equal sorted values) assigned the mean of their rank range.

    Without ``order`` the values are sorted stably: each NaN is a run of its
    own, and its rank follows its index.
    """
    if order is None:
        order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    sizes = np.diff(np.append(starts, len(ordered)))
    ranks = np.empty(len(ordered), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (2 * starts + sizes - 1) + 1.0, sizes)
    return ranks


def _rho(x: np.ndarray, y: np.ndarray, order: np.ndarray, ry=None) -> float:
    """Spearman's rho from x's stable order, and y's centred ranks when known."""
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be matching 1-D arrays")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 examples")
    if np.all(x == x[0]) or np.all(y == y[0]):
        return math.nan
    rx = _average_ranks(x, order)
    rx = rx - rx.mean()
    if ry is None:
        ry = _average_ranks(y)
        ry = ry - ry.mean()
    return float((rx @ ry) / math.sqrt((rx @ rx) * (ry @ ry)))


def spearman(scores: np.ndarray, error_counts: np.ndarray) -> MetricResult:
    """Spearman rank correlation between scores and per-example error counts.

    Reported raw: a good scorer gives strongly *negative* values because low
    scores should coincide with many errors. Undefined (NaN) when either
    input is constant. Scores are ranked by :func:`rank_ascending`, as
    :func:`evaluate` ranks them; a NaN score or error count is a ``ValueError``.
    """
    x = np.asarray(scores, dtype=np.float64)
    y = np.asarray(error_counts, dtype=np.float64)
    if np.isnan(y).any():
        raise ValueError("error counts contain NaN")
    return MetricResult("spearman", _rho(x, y, rank_ascending(x)))


# AP-family metric -> least number of wrong annotations that makes a positive;
# "auprc" is AP@N, the others AP@T at T = the number of mislabeled examples
AP_MIN_ERRORS = {"auprc": 1, "ap_at_t": 1, "ap2_at_t": 2, "ap3_at_t": 3}
METRIC_NAMES = (*AP_MIN_ERRORS, "spearman", "neg_spearman")


def evaluate(scores: np.ndarray, truth: ErrorTruth,
             names: Sequence[str] = METRIC_NAMES) -> list[MetricResult]:
    """The named metrics of one score vector, all read from one stable order.

    Results and errors are those of ``auprc``, ``ap_at_t`` and ``spearman``,
    except that scores that are not 1-D, contain NaN or are not one per
    ``truth`` entry are rejected first, and that with no mislabeled example
    the AP-family metrics are NaN (undefined) where those functions raise;
    "neg_spearman" is exactly minus "spearman". The error counts are ranked
    once per ``truth``, however many score vectors are evaluated against it.
    """
    x = np.asarray(scores, dtype=np.float64)
    order = rank_ascending(x)
    if truth.error_counts.shape != x.shape:
        raise ValueError(f"{x.shape[0]} scores vs {truth.error_counts.shape[0]} truth entries")
    rho = None
    results = []
    for name in names:
        if name in AP_MIN_ERRORS and truth.n_mislabeled == 0:
            results.append(MetricResult(name, math.nan, None, AP_MIN_ERRORS[name], 0))
        elif name in AP_MIN_ERRORS:
            results.append(_ap(x, truth, None, AP_MIN_ERRORS[name], name, order))
        elif name in ("spearman", "neg_spearman"):
            if rho is None:
                rho = _rho(x, truth.error_counts, order, truth.centred_count_ranks)
            results.append(MetricResult(name, rho if name == "spearman" else -rho))
        else:
            raise ValueError(f"unknown metric {name!r}; expected among {METRIC_NAMES}")
    return results
