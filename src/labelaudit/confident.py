"""Flag suspected annotation errors via per-class binary confident joints.

Each class is treated as its own binary present/absent problem. Per class we
estimate two confidence thresholds (the mean predicted probability among
annotated positives, and the mean complement among annotated negatives),
confidently assign each example a binary "true" label where a threshold is
cleared, and count (given, confident-true) pairs in a 2x2 joint. Examples
landing in an off-diagonal cell are flagged for that class; the per-example
result is the union of flags over all classes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import check_labels_probs, write_csv_rows

UNCOUNTED = -1


@dataclass(frozen=True)
class BinaryConfidentJoint:
    """2x2 count matrix over (given binary label, confident true label) for one class.

    ``counts[g][t]`` is the number of examples with given label g confidently
    counted as truly t. Examples clearing neither threshold are not counted,
    so the counts sum to at most N.
    """

    class_index: int
    counts: np.ndarray          # (2, 2) ints, rows: given 0/1, cols: confident 0/1
    threshold_positive: float   # mean p over annotated positives
    threshold_negative: float   # mean (1 - p) over annotated negatives

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64, copy=True)
        if counts.shape != (2, 2) or (counts < 0).any():
            raise ValueError(f"counts must be a non-negative 2x2 matrix, got {counts}")
        for name in ("threshold_positive", "threshold_negative"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class FlagReport:
    """Per-class and union flags plus per-class error statistics.

    ``example_flags[i]`` is the OR of ``per_class_flags[i, :]``. Skipped
    classes (no annotated positives or no annotated negatives, so one
    threshold is undefined) contribute no flags; their noise matrix falls
    back to the identity.
    """

    per_class_flags: np.ndarray        # (N, K) bool
    example_flags: np.ndarray          # (N,) bool
    per_class_error_counts: np.ndarray  # (K,) off-diagonal totals
    estimated_noise_rates: np.ndarray  # (K, 2, 2) row-stochastic
    skipped_classes: tuple[int, ...]
    thresholds: np.ndarray             # (K, 2) [t_pos, t_neg], NaN when skipped

    def __post_init__(self):
        for name in ("per_class_flags", "example_flags", "per_class_error_counts",
                     "estimated_noise_rates", "thresholds"):
            arr = np.array(getattr(self, name), copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def class_thresholds(labels: np.ndarray, probs: np.ndarray, class_index: int) -> tuple[float, float]:
    """Confidence thresholds for one class: (mean p | given 1, mean 1-p | given 0).

    Raises ``ValueError`` when the class has no positives or no negatives;
    callers that want flags should skip such classes instead.
    """
    given = np.asarray(labels)[:, class_index]
    p = np.asarray(probs, dtype=np.float64)[:, class_index]
    pos = given == 1
    neg = given == 0
    if not pos.any():
        raise ValueError(f"class {class_index} has no annotated positives")
    if not neg.any():
        raise ValueError(f"class {class_index} has no annotated negatives")
    return float(p[pos].mean()), float((1.0 - p[neg]).mean())


def _confident_true_labels(
    given: np.ndarray, p: np.ndarray, t_pos: float, t_neg: float
) -> np.ndarray:
    """Per-example confident binary label, or UNCOUNTED when neither side clears.

    When both sides clear their thresholds the side with the larger predicted
    probability wins; an exact tie (p == 0.5) keeps the given label.
    """
    conf_pos = p >= t_pos
    conf_neg = (1.0 - p) >= t_neg
    out = np.full(given.shape[0], UNCOUNTED, dtype=np.int64)
    out[conf_pos & ~conf_neg] = 1
    out[conf_neg & ~conf_pos] = 0
    both = conf_pos & conf_neg
    out[both & (p > 0.5)] = 1
    out[both & (p < 0.5)] = 0
    tie = both & (p == 0.5)
    out[tie] = given[tie]
    return out


def binary_confident_joint(
    labels: np.ndarray,
    probs: np.ndarray,
    class_index: int,
    thresholds: tuple[float, float] | None = None,
) -> BinaryConfidentJoint:
    """Count (given, confident true) pairs for one class."""
    given = np.asarray(labels)[:, class_index]
    p = np.asarray(probs, dtype=np.float64)[:, class_index]
    if thresholds is None:
        thresholds = class_thresholds(labels, probs, class_index)
    t_pos, t_neg = thresholds
    confident = _confident_true_labels(given, p, t_pos, t_neg)
    counts = np.zeros((2, 2), dtype=np.int64)
    counted = confident != UNCOUNTED
    np.add.at(counts, (given[counted], confident[counted]), 1)
    return BinaryConfidentJoint(class_index, counts, t_pos, t_neg)


def flag_class(
    labels: np.ndarray,
    probs: np.ndarray,
    class_index: int,
    thresholds: tuple[float, float] | None = None,
) -> np.ndarray:
    """Boolean vector flagging the off-diagonal members of the class joint.

    A skipped class (single-sided labels) yields an all-false vector.
    """
    given = np.asarray(labels)[:, class_index]
    p = np.asarray(probs, dtype=np.float64)[:, class_index]
    try:
        t_pos, t_neg = thresholds if thresholds is not None \
            else class_thresholds(labels, probs, class_index)
    except ValueError:
        return np.zeros(given.shape[0], dtype=bool)
    confident = _confident_true_labels(given, p, t_pos, t_neg)
    return (confident != UNCOUNTED) & (confident != given)


def _noise_rate_matrix(counts: np.ndarray, n_given: np.ndarray) -> np.ndarray:
    """Calibrate the joint (scale row g to the given-label count) and row-normalize.

    Empty rows carry no evidence and fall back to the identity row so the
    matrix stays row-stochastic.
    """
    rates = np.eye(2)
    for g in range(2):
        row_total = counts[g].sum()
        if row_total > 0 and n_given[g] > 0:
            calibrated = counts[g] * (n_given[g] / row_total)
            rates[g] = calibrated / calibrated.sum()
    return rates


def flag_multilabel(labels: np.ndarray, probs: np.ndarray) -> FlagReport:
    """Run per-class confident flagging for every class and take the union.

    Skips (degenerate classes) are recorded, never fatal. Noise-rate matrices
    are calibrated joints, used for reporting only; flag decisions come from
    raw off-diagonal membership. Raises ``ValueError`` for a label outside
    {0,1} or a probability that is not a finite number in [0, 1].
    """
    labels, probs = check_labels_probs(labels, probs)
    n_examples, n_classes = labels.shape

    per_class_flags = np.zeros((n_examples, n_classes), dtype=bool)
    error_counts = np.zeros(n_classes, dtype=np.int64)
    noise_rates = np.zeros((n_classes, 2, 2))
    thresholds = np.full((n_classes, 2), np.nan)
    skipped: list[int] = []

    for k in range(n_classes):
        given = labels[:, k]
        try:
            t_pos, t_neg = class_thresholds(labels, probs, k)
        except ValueError:
            skipped.append(k)
            noise_rates[k] = np.eye(2)
            continue
        thresholds[k] = (t_pos, t_neg)
        confident = _confident_true_labels(given, probs[:, k], t_pos, t_neg)
        counted = confident != UNCOUNTED
        counts = np.zeros((2, 2), dtype=np.int64)
        np.add.at(counts, (given[counted], confident[counted]), 1)
        per_class_flags[:, k] = counted & (confident != given)
        error_counts[k] = counts[0, 1] + counts[1, 0]
        n_given = np.array([(given == 0).sum(), (given == 1).sum()])
        noise_rates[k] = _noise_rate_matrix(counts, n_given)

    return FlagReport(
        per_class_flags=per_class_flags,
        example_flags=per_class_flags.any(axis=1),
        per_class_error_counts=error_counts,
        estimated_noise_rates=noise_rates,
        skipped_classes=tuple(skipped),
        thresholds=thresholds,
    )


def save_flags_csv(path, ids: Sequence[str], report: FlagReport) -> None:
    """Write ``id,flagged,classes_flagged`` rows; flagged classes are ;-joined."""
    n_examples = report.example_flags.shape[0]
    if len(ids) != n_examples:
        raise ValueError(f"{len(ids)} ids for {n_examples} examples")
    rows, classes = np.nonzero(report.per_class_flags)  # row-major: classes ascend per row
    names = [str(k) for k in classes.tolist()]
    bounds = np.searchsorted(rows, np.arange(n_examples + 1)).tolist()
    joined = np.array([";".join(names[a:b]) for a, b in zip(bounds, bounds[1:])], dtype=object)
    write_csv_rows(path, ["id", "flagged", "classes_flagged"], ids,
                   [report.example_flags, joined], ["%d", "%s"])


def save_flag_summary_json(path, report: FlagReport) -> None:
    summary = {
        "n_flagged_examples": int(report.example_flags.sum()),
        "per_class_error_counts": [int(c) for c in report.per_class_error_counts],
        "estimated_noise_rates": report.estimated_noise_rates.tolist(),
        "skipped_classes": list(report.skipped_classes),
        "thresholds": [
            [None if np.isnan(v) else float(v) for v in row] for row in report.thresholds
        ],
    }
    Path(path).write_text(json.dumps(summary, indent=2) + "\n")
