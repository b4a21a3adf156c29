"""Dataset containers, validation, and CSV/JSON-lines I/O shared by all modules.

Labels are dense N x K 0/1 matrices; predicted probabilities are N x K floats
whose rows do NOT need to sum to 1 (classes are not mutually exclusive).
Containers are immutable after construction: arrays are copied and marked
read-only so they can be shared freely across workers.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
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


def check_binary_labels(labels: np.ndarray) -> None:
    """``ValueError`` naming the first cell of the 2-D ``labels`` that is not 0 or 1."""
    bad = (labels != 0) & (labels != 1)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise ValueError(f"label {labels[i, k]} not in {{0,1}} at (example {i}, class {k})")


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
    check_binary_labels(labels)
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
# All four loaders read through _parse_matrix_csv: numpy-converted blocks of
# lines, else one streaming csv.reader scan that parses cell by cell.
# ---------------------------------------------------------------------------

# 17 significant digits round-trip float64 exactly; "%.17g" % x == _fmt_float(x).
_FLOAT_CELL = "%.17g"


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


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


def _check_row(path, r: int, row: list[str], n_cells: int, seen: set[str]) -> None:
    """Raise if data row ``r`` has another width or an id in ``seen``; else add its id."""
    if len(row) != n_cells:
        raise DataFormatError(f"{path}: row {r + 2} has {len(row)} cells, expected {n_cells}")
    if row[0] in seen:
        raise DataFormatError(f"{path}: duplicate example id {row[0]!r} at row {r + 2}")
    seen.add(row[0])


_BLOCK_LINES = 4096
# A double quote changes how csv splits a line, and NUL is kept out of the
# conversion. np.loadtxt strips \x1c-\x1f around a number as whitespace,
# which float() does not.
_NOT_PLAIN = '"\0\x1c\x1d\x1e\x1f'


def _plain_block(lines: list[str], width: int) -> bool:
    """Whether ``csv.reader`` would split each line at its commas into ``width`` + 1 cells.

    A line with a character of ``_NOT_PLAIN``, or longer than the csv
    module's field limit, is not plain. The comma count is only a total
    here: the caller's conversion rejects a line with fewer than ``width``
    commas, so no line then has more.
    """
    text = "".join(lines)
    return (not any(c in text for c in _NOT_PLAIN) and text.count(",") == width * len(lines)
            and max(map(len, lines)) <= csv.field_size_limit())


def _read_blocks(path, width_of, convert) -> tuple[list[str], np.ndarray] | None:
    """The ids and values of a CSV file read ``_BLOCK_LINES`` lines at a time, or None.

    ``width_of(path, header)`` checks the header's cells and returns the
    number of value columns. ``convert`` turns a block of lines, each ending
    in ``"\\n"``, into a ``(lines, width)`` array, or raises ``ValueError``
    unless every cell of the block is one it accepts. None means the file
    needs the per-cell scan, which finds the same values or the first
    problem: some block is not plain, a cell is not accepted, an id repeats,
    or the file cannot be opened or decoded. Only one block of text is held
    at a time.
    """
    ids: list[str] = []
    blocks: list[np.ndarray] = []
    try:
        with Path(path).open() as fh:  # universal newlines, as csv splits lines
            width = width_of(path, fh.readline().rstrip("\n").split(","))
            while lines := list(islice(fh, _BLOCK_LINES)):
                if not lines[-1].endswith("\n"):  # the file's last line
                    lines[-1] += "\n"
                if not _plain_block(lines, width):
                    return None
                ids += [line[:line.index(",")] for line in lines]
                blocks.append(convert(lines, width))
    except (OSError, ValueError):  # UnicodeDecodeError and DataFormatError are ValueErrors
        return None
    if len(set(ids)) != len(ids):
        return None
    return ids, np.concatenate(blocks) if blocks else np.empty((0, width))


def _scan_cells(path, header: list[str], rows, parse_cell, ids: list[str]):
    """Each value cell of ``rows`` parsed by ``parse_cell``; each row's id goes to ``ids``."""
    seen: set[str] = set()
    for r, row in enumerate(rows):
        _check_row(path, r, row, len(header), seen)
        ids.append(row[0])
        for column, cell in zip(header[1:], row[1:]):
            try:
                yield parse_cell(cell)
            except ValueError as exc:
                raise DataFormatError(f"{path}: row {r + 2}, column {column}: {exc}") from None


def _scan_matrix_csv(path, width_of, parse_cell) -> tuple[list[str], np.ndarray]:
    """The ids and the N x width value matrix of a CSV file, cell by cell.

    ``csv.reader`` streams the rows: ``width_of(path, header)`` checks the
    header, :func:`_check_row` each row and ``parse_cell`` each value cell,
    all in file order, so the first problem in the file is the one reported.
    Only one row of text is held at a time.
    """
    ids: list[str] = []
    try:
        with Path(path).open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataFormatError(f"{Path(path)}: empty file")
            width = width_of(path, header)
            data = np.fromiter(_scan_cells(path, header, reader, parse_cell, ids), np.float64)
    except OSError as exc:
        raise DataFormatError(f"{Path(path)}: {exc}") from exc
    except csv.Error as exc:
        raise DataFormatError(f"{Path(path)}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{Path(path)}: {exc}") from None
    return ids, data.reshape(-1, width)


def _parse_matrix_csv(path, width_of, convert, parse_cell) -> tuple[list[str], np.ndarray]:
    """The ids and the N x width value matrix of a CSV file whose header ``width_of`` checks.

    The file is read in blocks converted by ``convert`` (see
    :func:`_read_blocks`). When that fails, :func:`_scan_matrix_csv` reads
    it again: it reports the first problem in file order, and loads a cell
    that only ``parse_cell`` accepts (a label padded with spaces, ``"1_0"``).
    """
    loaded = _read_blocks(path, width_of, convert)
    return loaded if loaded is not None else _scan_matrix_csv(path, width_of, parse_cell)


def _convert_binary(lines: list[str], width: int) -> np.ndarray:
    # Byte by byte: past its id, each line must read ",d" per class, each
    # d a "0" or "1" byte, then "\n". Once the commas and digits sit where
    # they should, the lines' newlines can only be the last byte of each row.
    tails = "".join([line[line.index(","):] for line in lines]).encode("ascii")
    cells = np.frombuffer(tails, dtype=np.uint8)
    if cells.size != len(lines) * (2 * width + 1):
        raise ValueError("a label cell is not one byte")
    cells = cells.reshape(len(lines), 2 * width + 1)
    digits = cells[:, 1::2] - np.uint8(ord("0"))  # wraps below "0"
    if not ((cells[:, 0:-1:2] == ord(",")).all() and (digits <= 1).all()):
        raise ValueError("a label cell is not 0 or 1")
    return digits


def _convert_float(lines: list[str], width: int) -> np.ndarray:
    # loadtxt parses a cell as float() does (PyOS_string_to_double after
    # stripping whitespace), but rejects some that float() accepts, such as
    # "1_0" and "１"; those go to the per-cell scan. With usecols it would
    # also take a row with extra cells, which _plain_block's comma count
    # rules out. It skips empty lines, but every line here holds a comma.
    return np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None,
                      usecols=range(1, width + 1), ndmin=2)


def _convert_count(lines: list[str], width: int) -> np.ndarray:
    data = _convert_float(lines, width)
    if not (np.isfinite(data) & (data >= 0)).all():
        raise ValueError("a feature value is not a non-negative number")
    return data


def _parse_binary_cell(cell: str) -> int:
    value = cell.strip()
    if value not in ("0", "1"):
        raise ValueError(f"label value {cell!r} is not 0 or 1")
    return int(value)


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
    ids, data = _parse_matrix_csv(path, partial(_check_header, prefix="label"),
                                  _convert_binary, _parse_binary_cell)
    return ids, data.astype(np.int64)


def load_probs_csv(path) -> tuple[list[str], ProbMatrix]:
    ids, data = _parse_matrix_csv(path, partial(_check_header, prefix="prob"),
                                  _convert_float, float)
    return ids, ProbMatrix(data)


def load_features_csv(path) -> tuple[list[str], np.ndarray]:
    return _parse_matrix_csv(path, partial(_check_header, prefix="feat"),
                             _convert_count, _parse_count_cell)


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


_BLOCK_ROWS = 1000
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _csv_field(value: str) -> str:
    """``value`` as the csv module's excel dialect writes it beside other fields."""
    if _NEEDS_QUOTES.search(value):
        return '"' + value.replace('"', '""') + '"'
    return value


def _id_fields(ids: Sequence[str], alone: bool) -> list[str]:
    """``ids`` as csv fields; ``alone`` if no other field follows on the row."""
    fields = [_csv_field(str(ex_id)) for ex_id in ids]
    if alone:  # csv quotes an empty field that is alone on its row
        fields = [field or '""' for field in fields]
    return fields


def write_csv_rows(path, header: Sequence[str], ids: Sequence[str],
                   columns: Sequence[np.ndarray], cell_fmts: Sequence[str]) -> None:
    """Write ``header``, then per id a row of the id and its entry in each column.

    ``columns`` are arrays of one value per id and ``cell_fmts`` their
    %-formats (``"%d"``, ``"%.17g"``, ``"%s"``); ids are quoted as needed.
    The bytes, ``\r\n`` line ends included, are those of ``csv.writer``.
    Rows are %-formatted ``_BLOCK_ROWS`` at a time and each block is written
    out before the next, so no more than one block of text is held.
    """
    row_fmt = ",".join(["%s", *cell_fmts]) + "\r\n"
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(ids), _BLOCK_ROWS):
            hi = lo + _BLOCK_ROWS
            block_ids = _id_fields(ids[lo:hi], alone=not cell_fmts)
            rows = zip(block_ids, *(col[lo:hi].tolist() for col in columns))
            fh.write((row_fmt * len(block_ids)) % tuple(chain.from_iterable(rows)))


def _matrix_header(prefix: str, ids: Sequence[str], data: np.ndarray) -> list[str]:
    if data.ndim != 2:
        raise ValueError(f"{prefix} matrix must be 2-D, got shape {data.shape}")
    if len(ids) != data.shape[0]:
        raise ValueError(f"{len(ids)} ids for {data.shape[0]} rows")
    return ["id"] + [f"{prefix}_{k}" for k in range(data.shape[1])]


def _write_matrix_csv(path, prefix: str, ids: Sequence[str], data: np.ndarray,
                      cell_fmt: str) -> None:
    header = _matrix_header(prefix, ids, data)
    write_csv_rows(path, header, ids, data.T, [cell_fmt] * data.shape[1])


def save_labels_csv(path, ids: Sequence[str], labels: np.ndarray) -> None:
    """Write a 0/1 label matrix; ``ValueError`` at the first other value.

    The bytes are those of ``csv.writer`` with one digit per cell. Each
    ``_BLOCK_ROWS`` block of cells is laid out as one array of ASCII bytes,
    ``,d`` per class and ``\r\n`` per row, and decoded once; only the
    quoted ids are joined in per row.
    """
    labels = np.asarray(labels)
    header = _matrix_header("label", ids, labels)
    check_binary_labels(labels)
    width = labels.shape[1]
    line = 2 * width + 2
    cells = np.empty((_BLOCK_ROWS, line), dtype=np.uint8)
    cells[:, 0:-2:2] = ord(",")
    cells[:, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(ids), _BLOCK_ROWS):
            block = labels[lo:lo + _BLOCK_ROWS]
            rows = cells[:len(block)]
            digits = rows[:, 1:-2:2]
            digits[...] = block
            digits += ord("0")
            text = rows.tobytes().decode("ascii")
            tails = [text[j:j + line] for j in range(0, len(text), line)]
            block_ids = _id_fields(ids[lo:lo + _BLOCK_ROWS], alone=not width)
            fh.write("".join(chain.from_iterable(zip(block_ids, tails))))


def save_probs_csv(path, ids: Sequence[str], probs: ProbMatrix | np.ndarray) -> None:
    values = probs.values if isinstance(probs, ProbMatrix) else np.asarray(probs)
    _write_matrix_csv(path, "prob", ids, values, _FLOAT_CELL)


def save_features_csv(path, ids: Sequence[str], features: np.ndarray) -> None:
    _write_matrix_csv(path, "feat", ids, np.asarray(features), _FLOAT_CELL)


def save_scores_csv(path, ids: Sequence[str], scores: np.ndarray) -> None:
    """Write per-example quality scores as ``id,score`` rows."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or len(ids) != scores.shape[0]:
        raise ValueError(f"scores must be 1-D with one value per id, got {scores.shape}")
    write_csv_rows(path, ["id", "score"], ids, [scores], [_FLOAT_CELL])


def _check_scores_header(path, header: list[str]) -> int:
    if header != ["id", "score"]:
        raise DataFormatError(f"{path}: expected header 'id,score', got {header}")
    return 1


def load_scores_csv(path) -> tuple[list[str], np.ndarray]:
    ids, scores = _parse_matrix_csv(path, _check_scores_header, _convert_float, float)
    return ids, scores.ravel()


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
    ids: dict[str, None] = {}  # in file order
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
                ex_id = str(obj["id"])
                row = obj["labels"]
                bad = [v for v in row if type(v) is not int or v not in (0, 1)]
                if bad:  # type(), since bool is an int subclass
                    raise ValueError(f"labels must be 0/1, got {bad[0]!r}")
                probs.append([float(v) for v in obj.get("probs", [])])
            except (KeyError, TypeError, ValueError) as exc:
                raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
            if ex_id in ids:
                raise DataFormatError(f"{path}: line {lineno}: duplicate example id {ex_id!r}")
            ids[ex_id] = None
            labels.append(row)
    if not ids:
        raise DataFormatError(f"{path}: empty file")
    if not any(probs):  # a labels-only file
        probs = []
    widths = {len(r) for r in labels} | {len(r) for r in probs}
    if len(widths) != 1:
        raise DataFormatError(f"{path}: inconsistent row widths {sorted(widths)}")
    dataset = MultiLabelDataset(np.array(labels), tuple(ids))
    return dataset, ProbMatrix(np.array(probs)) if probs else None
