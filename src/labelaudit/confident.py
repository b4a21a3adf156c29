"""Flag suspected annotation errors via per-class binary confident joints.

Each class is treated as its own binary present/absent problem with two
confidence thresholds: the mean predicted probability among annotated
positives and the mean complement among annotated negatives. Each mean is
taken over one contiguous gather (``ndarray.compress``) of the class's row
of a class-major copy of the probabilities, transposed a row block at a
time. One pass over row blocks of all K classes then compares every
probability with its class's thresholds, assigns a confident binary "true"
label where one is cleared, and counts (given, confident-true) pairs into a
2x2 joint per class from one histogram of per-cell codes (given, counted,
confidently present) per class. Examples in an off-diagonal
cell are flagged for that class; the per-example result is the union of
flags over all classes. The counts and flags of a block are its own, so no
(N, K) temporary is made beyond the class-major copies and the flags. A
class with no positives or no negatives has NaN thresholds, which nothing
clears.

``flag_multilabel`` returns every class's thresholds, joint counts and flags
in one ``FlagReport``; one class's view is its row or column there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import _read_only, check_labels_probs, write_csv_rows


@dataclass(frozen=True)
class FlagReport:
    """Per-class and union flags plus per-class error statistics.

    ``example_flags[i]`` is the OR of ``per_class_flags[i, :]``.
    ``joint_counts[k, g, t]`` is the number of examples with given label g
    confidently counted as truly t for class k; examples clearing neither
    threshold are not counted, so each class's counts sum to at most N.
    Skipped classes (no annotated positives or no annotated negatives, so one
    threshold is undefined) count and flag nothing; their noise matrix falls
    back to the identity.
    """

    per_class_flags: np.ndarray        # (N, K) bool
    example_flags: np.ndarray          # (N,) bool
    joint_counts: np.ndarray           # (K, 2, 2) ints, [k, given, confident true]
    estimated_noise_rates: np.ndarray  # (K, 2, 2) row-stochastic
    skipped_classes: tuple[int, ...]
    thresholds: np.ndarray             # (K, 2) [t_pos, t_neg], NaN when skipped

    def __post_init__(self):
        for name in ("per_class_flags", "example_flags", "joint_counts",
                     "estimated_noise_rates", "thresholds"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    @property
    def per_class_error_counts(self) -> np.ndarray:
        """(K,) off-diagonal totals of the joints: each class's flagged examples."""
        return self.joint_counts[:, 0, 1] + self.joint_counts[:, 1, 0]


_BLOCK_CELLS = 32768  # cells per row block of the class-major copies and the joint pass


def _row_blocks(n: int, k: int) -> list[slice]:
    rows = max(1, _BLOCK_CELLS // max(k, 1))
    return [slice(start, start + rows) for start in range(0, n, rows)]


def _thresholds(labels: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """(K, 2) rows [mean p | given 1, mean 1-p | given 0]; NaN for one-sided classes."""
    # class-major copies, transposed a row block at a time while the block is
    # in cache: each class's gathers then read one contiguous row
    n, k = probs.shape
    pos = np.empty((k, n), dtype=bool)
    major = np.empty((k, n))
    for rows in _row_blocks(n, k):
        np.equal(labels[rows].T, 1, out=pos[:, rows])
        major[:, rows] = probs[rows].T
    out = np.full((k, 2), np.nan)
    for c in np.flatnonzero(pos.any(axis=1) & ~pos.all(axis=1)):
        # compress gathers what a boolean index does, in the same order, faster
        out[c] = major[c].compress(pos[c]).mean(), (1.0 - major[c].compress(~pos[c])).mean()
    return out


def _confident_joint(
    labels: np.ndarray, probs: np.ndarray, thresholds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(N, K) off-diagonal flags, (K, 2, 2) joint counts, (N,) union flags and
    (K,) given-positive counts, in one pass over row blocks.

    An example is confidently present where p clears the class's positive
    threshold and absent where 1 - p clears the negative one. Where both
    clear, p > 0.5 wins and p == 0.5 keeps the given label; where neither
    clears (always, under a NaN threshold) the example is not counted.
    """
    n, k = probs.shape
    flags = np.empty((n, k), dtype=bool)
    example_flags = np.empty(n, dtype=bool)
    # each cell's code is given + 2 counted + 4 present (present implies
    # counted); one histogram of the codes per class holds every count
    codes = np.zeros(8 * k, dtype=np.int64)
    class_base = 8 * np.arange(k)
    for rows in _row_blocks(n, k):
        p, given = probs[rows], labels[rows] == 1
        clears_pos = p >= thresholds[:, 0]
        clears_neg = 1.0 - p >= thresholds[:, 1]
        counted = clears_pos | clears_neg
        present = clears_pos & (~clears_neg | (p > 0.5) | ((p == 0.5) & given))
        code = given.view(np.uint8) | counted.view(np.uint8) << 1 | present.view(np.uint8) << 2
        codes += np.bincount((code + class_base).ravel(), minlength=8 * k)
        np.logical_and(counted, present != given, out=flags[rows])
        np.any(flags[rows], axis=1, out=example_flags[rows])
    codes = codes.reshape(k, 8)
    # joint[g, t] counts code 2 + g + 4 t: counted, given g, confidently t
    return flags, codes[:, [[2, 6], [3, 7]]], example_flags, codes[:, 1::2].sum(axis=1)


def flag_multilabel(labels: np.ndarray, probs: np.ndarray) -> FlagReport:
    """Run per-class confident flagging for every class and take the union.

    Skips (degenerate classes) are recorded, never fatal. Noise-rate matrices
    are calibrated joints (row g scaled to the given-label count, then
    row-normalised), used for reporting only; a row with no counted example
    carries no evidence and falls back to the identity row. Flag decisions
    come from raw off-diagonal membership. Raises ``ValueError`` for a label
    outside {0,1} or a probability that is not a finite number in [0, 1].
    """
    labels, probs = check_labels_probs(labels, probs)
    thresholds = _thresholds(labels, probs)
    per_class_flags, counts, example_flags, n_positive = _confident_joint(labels, probs, thresholds)
    n_given = np.stack([labels.shape[0] - n_positive, n_positive], axis=1)[:, :, None]
    row_total = counts.sum(axis=2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        calibrated = counts * (n_given / row_total)
        rates = calibrated / calibrated.sum(axis=2, keepdims=True)
    return FlagReport(
        per_class_flags=per_class_flags,
        example_flags=example_flags,
        joint_counts=counts,
        estimated_noise_rates=np.where(row_total > 0, rates, np.eye(2)),
        skipped_classes=tuple(np.flatnonzero(np.isnan(thresholds[:, 0])).tolist()),
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
