"""Dataset containers, validation, and CSV/JSON-lines I/O shared by all modules.

Labels are dense N x K 0/1 matrices; predicted probabilities are N x K floats
whose rows do NOT need to sum to 1 (classes are not mutually exclusive).
Containers are immutable after construction: arrays are copied and marked
read-only so they can be shared freely across workers.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np


class DataFormatError(ValueError):
    """An input file does not match the expected schema."""


def _read_only(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MultiLabelDataset:
    """A multi-label dataset: one row per example, one 0/1 column per class.

    ``true_labels`` is only present for synthetic data where ground truth is
    known. ``features`` holds optional non-negative bag-of-words counts.
    Constructors enforce structural shape consistency; value-domain checks
    (0/1-ness, ranges) are the job of :func:`validate` so that malformed
    matrices can still be inspected and reported.
    """

    given_labels: np.ndarray
    example_ids: tuple[str, ...]
    true_labels: np.ndarray | None = None
    features: np.ndarray | None = None

    def __post_init__(self):
        labels = _read_only(self.given_labels, dtype=np.int64)
        if labels.ndim != 2:
            raise ValueError(f"given_labels must be 2-D, got shape {labels.shape}")
        object.__setattr__(self, "given_labels", labels)
        ids = tuple(str(i) for i in self.example_ids)
        if len(ids) != labels.shape[0]:
            raise ValueError(
                f"{len(ids)} example ids for {labels.shape[0]} label rows"
            )
        if len(set(ids)) != len(ids):
            raise ValueError("example ids must be unique")
        object.__setattr__(self, "example_ids", ids)
        if self.true_labels is not None:
            truth = _read_only(self.true_labels, dtype=np.int64)
            if truth.shape != labels.shape:
                raise ValueError(
                    f"true_labels shape {truth.shape} != given_labels shape {labels.shape}"
                )
            object.__setattr__(self, "true_labels", truth)
        if self.features is not None:
            feats = _read_only(self.features, dtype=np.float64)
            if feats.ndim != 2 or feats.shape[0] != labels.shape[0]:
                raise ValueError(
                    f"features shape {feats.shape} incompatible with {labels.shape[0]} examples"
                )
            object.__setattr__(self, "features", feats)

    @property
    def n_examples(self) -> int:
        return self.given_labels.shape[0]

    @property
    def n_classes(self) -> int:
        return self.given_labels.shape[1]


@dataclass(frozen=True)
class ProbMatrix:
    """Out-of-sample predicted class probabilities, one row per example."""

    values: np.ndarray

    def __post_init__(self):
        vals = _read_only(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError(f"probabilities must be 2-D, got shape {vals.shape}")
        object.__setattr__(self, "values", vals)

    @property
    def n_examples(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: hard violations plus advisory warnings."""

    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(dataset: MultiLabelDataset, probs: ProbMatrix | None = None) -> ValidationReport:
    """Check value domains and cross-object shape consistency.

    Returns a report rather than raising: shape mismatches, out-of-range
    entries and NaN/Inf are violations; a class with no positive (or no
    negative) given labels is a warning because downstream modules define
    their own handling for one-sided classes.
    """
    violations: list[str] = []
    warnings: list[str] = []

    labels = dataset.given_labels
    bad = np.argwhere((labels != 0) & (labels != 1))
    for i, k in bad[:20]:
        violations.append(f"label not in {{0,1}} at (example {i}, class {k})")
    if dataset.true_labels is not None:
        bad = np.argwhere((dataset.true_labels != 0) & (dataset.true_labels != 1))
        for i, k in bad[:20]:
            violations.append(f"true label not in {{0,1}} at (example {i}, class {k})")
    if dataset.features is not None:
        feats = dataset.features
        if not np.all(np.isfinite(feats)):
            violations.append("non-finite feature value")
        elif np.any(feats < 0):
            i, d = np.argwhere(feats < 0)[0]
            violations.append(f"negative feature at (example {i}, column {d})")

    if probs is not None:
        p = probs.values
        if p.shape != labels.shape:
            violations.append(
                f"shape mismatch: labels {labels.shape} vs probabilities {p.shape}"
            )
        nonfinite = np.argwhere(~np.isfinite(p))
        for i, k in nonfinite[:20]:
            violations.append(f"non-finite probability at (example {i}, class {k})")
        finite = np.where(np.isfinite(p), p, 0.5)
        out = np.argwhere((finite < 0.0) | (finite > 1.0))
        for i, k in out[:20]:
            violations.append(f"probability out of [0,1] at (example {i}, class {k})")

    pos_counts = labels.sum(axis=0)
    for k in range(dataset.n_classes):
        if pos_counts[k] == 0:
            warnings.append(f"class {k} has zero positive examples")
        if pos_counts[k] == dataset.n_examples:
            warnings.append(f"class {k} has zero negative examples")

    return ValidationReport(tuple(violations), tuple(warnings))


def check_labels_probs(labels, probs) -> tuple[np.ndarray, np.ndarray]:
    """Labels (as int64) and probabilities as arrays; ``ValueError`` at the first bad cell.

    The library's counterpart of :func:`validate`: both must be N x K, every
    label 0 or 1, every probability finite and in [0, 1]. Each value check
    is one vectorised pass; the bad cell is only looked for once one fails.
    """
    labels = np.asarray(labels)
    probs = np.asarray(probs, dtype=np.float64)
    if labels.shape != probs.shape:
        raise ValueError(f"labels shape {labels.shape} != probs shape {probs.shape}")
    if labels.ndim != 2:
        raise ValueError(f"labels and probabilities must be 2-D, got shape {labels.shape}")
    bad_label = (labels != 0) & (labels != 1)
    if bad_label.any():
        i, k = np.argwhere(bad_label)[0]
        raise ValueError(f"label {labels[i, k]} not in {{0,1}} at (example {i}, class {k})")
    in_range = (probs >= 0.0) & (probs <= 1.0)  # False at NaN as well
    if not in_range.all():
        i, k = np.argwhere(~in_range)[0]
        what = "probability out of [0,1]" if np.isfinite(probs[i, k]) else "non-finite probability"
        raise ValueError(f"{what} ({probs[i, k]}) at (example {i}, class {k})")
    return labels.astype(np.int64, copy=False), probs


# ---------------------------------------------------------------------------
# CSV formats.
#
# labels:   id,label_0,...,label_{K-1}     values 0/1
# probs:    id,prob_0,...,prob_{K-1}       full-precision decimals
# features: id,feat_0,...,feat_{D-1}       non-negative numbers
# scores:   id,score
# Ids must align row-wise between files that describe the same dataset.
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    # 17 significant digits round-trip float64 exactly.
    return format(float(x), ".17g")


def _read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataFormatError(f"{path}: empty file") from None
            rows = list(reader)
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    return header, rows


def _check_header(path, header: list[str], prefix: str) -> int:
    if not header or header[0] != "id":
        raise DataFormatError(f"{path}: first header column must be 'id', got {header[:1]}")
    width = len(header) - 1
    expected = [f"{prefix}_{k}" for k in range(width)]
    if header[1:] != expected:
        raise DataFormatError(
            f"{path}: header columns must be {['id'] + expected[:3]}..., got {header}"
        )
    if width == 0:
        raise DataFormatError(f"{path}: no {prefix} columns in header")
    return width


def _parse_matrix_csv(path, prefix: str, parse_cell) -> tuple[list[str], np.ndarray]:
    header, rows = _read_csv_rows(path)
    width = _check_header(path, header, prefix)
    ids: list[str] = []
    data = np.empty((len(rows), width), dtype=np.float64)
    seen = set()
    for r, row in enumerate(rows):
        if len(row) != width + 1:
            raise DataFormatError(
                f"{path}: row {r + 2} has {len(row)} cells, expected {width + 1}"
            )
        ex_id = row[0]
        if ex_id in seen:
            raise DataFormatError(f"{path}: duplicate example id {ex_id!r} at row {r + 2}")
        seen.add(ex_id)
        ids.append(ex_id)
        for c, cell in enumerate(row[1:]):
            try:
                data[r, c] = parse_cell(cell)
            except ValueError as exc:
                raise DataFormatError(
                    f"{path}: row {r + 2}, column {header[c + 1]}: {exc}"
                ) from None
    return ids, data


def _parse_binary_cell(cell: str) -> int:
    value = cell.strip()
    if value not in ("0", "1"):
        raise ValueError(f"label value {cell!r} is not 0 or 1")
    return int(value)


def _parse_float_cell(cell: str) -> float:
    return float(cell)


def _parse_count_cell(cell: str) -> float:
    value = float(cell)
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"feature value {cell!r} is not a non-negative number")
    return value


def check_ids_aligned(ids_a: Sequence[str], ids_b: Sequence[str], what: str) -> None:
    if list(ids_a) != list(ids_b):
        n = min(len(ids_a), len(ids_b))
        for i in range(n):
            if ids_a[i] != ids_b[i]:
                raise DataFormatError(
                    f"{what}: id mismatch at row {i}: {ids_a[i]!r} vs {ids_b[i]!r}"
                )
        raise DataFormatError(f"{what}: {len(ids_a)} ids vs {len(ids_b)} ids")


def load_labels_csv(path) -> tuple[list[str], np.ndarray]:
    ids, data = _parse_matrix_csv(path, "label", _parse_binary_cell)
    return ids, data.astype(np.int64)


def load_probs_csv(path) -> tuple[list[str], ProbMatrix]:
    ids, data = _parse_matrix_csv(path, "prob", _parse_float_cell)
    return ids, ProbMatrix(data)


def load_features_csv(path) -> tuple[list[str], np.ndarray]:
    return _parse_matrix_csv(path, "feat", _parse_count_cell)


def load_dataset(
    labels_path,
    format: str = "csv",
    features_path=None,
    true_labels_path=None,
) -> MultiLabelDataset:
    """Load a dataset from the declared file formats.

    ``format="csv"`` reads the labels CSV plus optional aligned features /
    true-labels CSVs. ``format="jsonl"`` reads only the labels field of a
    JSON-lines file (use :func:`load_jsonl` to also get probabilities).
    """
    if format == "csv":
        ids, labels = load_labels_csv(labels_path)
        features = None
        truth = None
        if features_path is not None:
            fids, features = load_features_csv(features_path)
            check_ids_aligned(ids, fids, f"{labels_path} vs {features_path}")
        if true_labels_path is not None:
            tids, truth = load_labels_csv(true_labels_path)
            check_ids_aligned(ids, tids, f"{labels_path} vs {true_labels_path}")
        return MultiLabelDataset(labels, tuple(ids), true_labels=truth, features=features)
    if format == "jsonl":
        dataset, _ = load_jsonl(labels_path)
        return dataset
    raise ValueError(f"unknown format {format!r} (expected 'csv' or 'jsonl')")


def _write_matrix_csv(path, prefix: str, ids: Sequence[str], data: np.ndarray, fmt) -> None:
    path = Path(path)
    if len(ids) != data.shape[0]:
        raise ValueError(f"{len(ids)} ids for {data.shape[0]} rows")
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"{prefix}_{k}" for k in range(data.shape[1])])
        for ex_id, row in zip(ids, data):
            writer.writerow([ex_id] + [fmt(v) for v in row])


def save_labels_csv(path, ids: Sequence[str], labels: np.ndarray) -> None:
    _write_matrix_csv(path, "label", ids, np.asarray(labels), lambda v: str(int(v)))


def save_probs_csv(path, ids: Sequence[str], probs: ProbMatrix | np.ndarray) -> None:
    values = probs.values if isinstance(probs, ProbMatrix) else np.asarray(probs)
    _write_matrix_csv(path, "prob", ids, values, _fmt_float)


def save_features_csv(path, ids: Sequence[str], features: np.ndarray) -> None:
    _write_matrix_csv(path, "feat", ids, np.asarray(features), _fmt_float)


def save_scores_csv(path, ids: Sequence[str], scores: np.ndarray) -> None:
    """Write per-example quality scores as ``id,score`` rows."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or len(ids) != scores.shape[0]:
        raise ValueError(f"scores must be 1-D with one value per id, got {scores.shape}")
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "score"])
        for ex_id, s in zip(ids, scores):
            writer.writerow([ex_id, _fmt_float(s)])


def load_scores_csv(path) -> tuple[list[str], np.ndarray]:
    header, rows = _read_csv_rows(path)
    if header != ["id", "score"]:
        raise DataFormatError(f"{path}: expected header 'id,score', got {header}")
    ids = [row[0] for row in rows]
    try:
        scores = np.array([float(row[1]) for row in rows], dtype=np.float64)
    except (IndexError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed score row: {exc}") from None
    return ids, scores


def save_jsonl(path, dataset: MultiLabelDataset, probs: ProbMatrix) -> None:
    """One JSON object per example: ``{"id": ..., "labels": [...], "probs": [...]}``."""
    if probs.values.shape != dataset.given_labels.shape:
        raise ValueError("dataset and probabilities have different shapes")
    with Path(path).open("w") as fh:
        for i, ex_id in enumerate(dataset.example_ids):
            fh.write(json.dumps({
                "id": ex_id,
                "labels": [int(v) for v in dataset.given_labels[i]],
                "probs": [float(v) for v in probs.values[i]],
            }) + "\n")


def load_jsonl(path) -> tuple[MultiLabelDataset, ProbMatrix | None]:
    """Read :func:`save_jsonl` output; the probabilities are None if no row has any."""
    path = Path(path)
    ids: list[str] = []
    labels: list[list[int]] = []
    probs: list[list[float]] = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
            try:
                ids.append(str(obj["id"]))
                row = [int(v) for v in obj["labels"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
            if any(v not in (0, 1) for v in row):
                raise DataFormatError(f"{path}: line {lineno}: labels must be 0/1")
            labels.append(row)
            probs.append([float(v) for v in obj.get("probs", [])])
    if not ids:
        raise DataFormatError(f"{path}: empty file")
    if not any(probs):  # a labels-only file
        probs = []
    widths = {len(r) for r in labels} | {len(r) for r in probs}
    if len(widths) != 1:
        raise DataFormatError(f"{path}: inconsistent row widths {sorted(widths)}")
    if len(set(ids)) != len(ids):
        raise DataFormatError(f"{path}: duplicate example id")
    dataset = MultiLabelDataset(np.array(labels), tuple(ids))
    return dataset, ProbMatrix(np.array(probs)) if probs else None
