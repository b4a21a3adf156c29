"""Dataset containers, input checks, and CSV/JSON-lines I/O shared by all modules.

Labels are dense N x K 0/1 matrices, held as ``LABEL_DTYPE`` (int8) in
every layer: the containers, the loaders, :func:`check_labels_probs` and
the generator all return int8, checked for 0/1 before the cast, so the cast
is exact. Arithmetic on labels that can pass 127 must widen first:
``labels.sum(axis=0)`` does so by itself (numpy sums small integers in the
platform integer), but ``labels.T @ labels`` overflows in int8, so write
``labels.T.astype(np.int64) @ labels``. Predicted probabilities are a plain
N x K float64 array whose rows do NOT need to sum to 1 (classes are not
mutually exclusive). The loaders return plain arrays that the caller owns.
The one container, :class:`MultiLabelDataset`, is immutable: it holds
read-only copies of its arrays, so it can be shared freely across workers.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np


# The dtype of every label matrix the library holds; see the module docstring.
LABEL_DTYPE = np.int8


class DataFormatError(ValueError):
    """An input file does not match the expected schema."""


def _read_only(values, dtype=None) -> np.ndarray:
    """A read-only copy of ``values``, as ``dtype`` if one is given."""
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


def check_count(name: str, value, minimum: int = 0) -> None:
    """``ValueError`` unless ``value`` is an integer (:func:`is_integer`) >= ``minimum``."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _read_only_labels(labels: np.ndarray) -> np.ndarray:
    """A read-only ``LABEL_DTYPE`` copy of the 2-D 0/1 ``labels``; else ``ValueError``."""
    check_binary_labels(labels)
    return _read_only(labels, LABEL_DTYPE)


@dataclass(frozen=True)
class MultiLabelDataset:
    """A multi-label dataset: one row per example, one 0/1 column per class.

    ``true_labels`` is only present for synthetic data where ground truth is
    known. ``features`` holds optional non-negative bag-of-words counts.
    Both label matrices are checked for 0/1 at construction (a ``ValueError``
    names the first other cell, as :func:`check_binary_labels` does) and
    held as read-only ``LABEL_DTYPE`` (int8) copies, so a label of 0.5 or
    256 is rejected rather than truncated or wrapped. Widen them before a
    product that can pass 127, such as ``labels.T @ labels``. The features
    are held as a read-only float64 copy, one row per example, and checked
    by :func:`check_features`: a negative, NaN or infinite cell is a
    ``ValueError`` that names it, as everywhere features enter the library.
    """

    given_labels: np.ndarray
    example_ids: tuple[str, ...]
    true_labels: np.ndarray | None = None
    features: np.ndarray | None = None

    def __post_init__(self):
        labels = np.asarray(self.given_labels)
        if labels.ndim != 2:
            raise ValueError(f"given_labels must be 2-D, got shape {labels.shape}")
        labels = _read_only_labels(labels)
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
            truth = np.asarray(self.true_labels)
            if truth.shape != labels.shape:
                raise ValueError(
                    f"true_labels shape {truth.shape} != given_labels shape {labels.shape}"
                )
            object.__setattr__(self, "true_labels", _read_only_labels(truth))
        if self.features is not None:
            feats = _read_only(self.features, dtype=np.float64)
            if feats.ndim != 2 or feats.shape[0] != labels.shape[0]:
                raise ValueError(
                    f"features shape {feats.shape} incompatible with {labels.shape[0]} examples"
                )
            check_features(feats)
            object.__setattr__(self, "features", feats)

    @property
    def n_examples(self) -> int:
        return self.given_labels.shape[0]

    @property
    def n_classes(self) -> int:
        return self.given_labels.shape[1]


def check_binary_labels(labels: np.ndarray) -> None:
    """``ValueError`` naming the first cell of the 2-D ``labels`` that is not 0 or 1.

    A string or bytes matrix is rejected as a whole, by its dtype: its cells
    are not numbers, however valid ``"1"`` looks.
    """
    if labels.dtype.kind in "US":
        raise ValueError(f"labels are not numbers (dtype {labels.dtype})")
    bad = (labels != 0) & (labels != 1)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise ValueError(f"label {labels[i, k]} not in {{0,1}} at (example {i}, class {k})")


def check_features(features: np.ndarray) -> None:
    """``ValueError`` naming the first cell of the 2-D float ``features`` that is
    negative, NaN or infinite; ``-0.0`` is a valid count."""
    valid = (features >= 0.0) & (features < np.inf)  # False at NaN as well
    if not valid.all():
        i, d = np.argwhere(~valid)[0]
        raise ValueError(
            f"feature value {features[i, d]} is not a non-negative number at (example {i}, column {d})"
        )


def check_labels_probs(labels, probs) -> tuple[np.ndarray, np.ndarray]:
    """Labels (as int8) and probabilities (as float64); ``ValueError`` at the first bad cell.

    Both must be N x K, every label 0 or 1, every probability finite and in
    [0, 1]. The library's entry points and the CLI check their input here.
    Each value check is one vectorised pass; the bad cell is only looked for
    once one fails. The labels are cast to ``LABEL_DTYPE`` after their 0/1
    check, so the cast is exact; widen them before a product that can pass
    127.
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
    return labels.astype(LABEL_DTYPE, copy=False), probs


# ---------------------------------------------------------------------------
# CSV formats.
#
# labels:   id,label_0,...,label_{K-1}     values 0/1, loaded as LABEL_DTYPE
# probs:    id,prob_0,...,prob_{K-1}       full-precision decimals
# features: id,feat_0,...,feat_{D-1}       non-negative numbers
# scores:   id,score
# Ids must align row-wise between files that describe the same dataset.
# All four loaders read through _parse_matrix_csv: numpy-converted blocks of
# bytes, else one streaming csv.reader scan that parses cell by cell. A block
# is a fixed number of bytes read from the file, cut at its last line end,
# with the partial line carried to the next. One pass over its uint8 view
# finds its commas and newlines (_index_block); the quote, NUL, line-width
# and field-limit checks, the ids, and every cell's start and end come from
# that index, and one more pass finds the exponent marks. The decimal cells
# go through a numpy kernel over the block's bytes (_convert_float): it
# takes "-"?, then "<digits>" or "<digits>.<digits>" with at most 19
# significant digits, then an optional "e" or "E", sign and 1-3 digits,
# which covers "%.17g", repr, "%.18e" and integer counts. It scales the
# digits exactly and rounds them as float() would, and hands float() every
# other cell, and every cell whose rounding it cannot prove, so the values
# are float()'s bit for bit. A pass in which few cells start and end with a
# digit goes to float() whole.
# Every CSV writer goes through write_csv_rows, with the bytes of csv.writer.
# Labels, truth and whole-number features are all-integer ("%d"): each block
# of their rows is laid out as one byte grid (_grid_block) and written with
# one call; probabilities, scores, flags and any block the grid cannot hold
# are %-formatted row by row.
# ---------------------------------------------------------------------------

# 17 significant digits round-trip float64 exactly
_FLOAT_CELL = "%.17g"
_fmt_float = _FLOAT_CELL.__mod__


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


# A block is at most this many bytes of the file, plus the partial line
# carried over from the block before, and at most about this many commas and
# newlines, as the block before predicts them. So a block's bytes, its index
# and every array made from it stay under 128 KiB: glibc mmaps a larger
# array and, once one is freed, serves arrays up to its size from the heap,
# which keeps their pages (128 KiB blocks of labels raised gen-export's peak
# RSS by ~5 MB).
_BLOCK_BYTES = 120 << 10
_BLOCK_SEPS = 12 << 10
# the header: a byte-order mark, if any, then the first line
_FIRST_LINE = re.compile(rb"(?:\xef\xbb\xbf)?([^\r\n]*)(?:\r\n|\r|\n)")


def _index_block(data: bytes, lo: int, end: int, width: int,
                 ids: list[str]) -> tuple[bytes, np.ndarray]:
    """The structural index of the lines ``data[lo:end]``; each line's id goes to ``ids``.

    Returns the data (rewritten if it held a lone ``"\r"``) and a ``(lines,
    width + 1)`` array: line i's id ends at ``[i, 0]``, its value cell k at
    ``[i, k + 1]``, and each of these is a comma but the last, where the
    line end (``"\r\n"`` or ``"\n"``) starts. One pass finds the commas and
    newlines; the line-width, quote, NUL and field-limit checks and the ids
    come from them. ``ValueError`` unless every line holds ``width`` + 1
    cells and is plain: no double quote (which changes how csv splits a
    line), no NUL (which csv.reader before Python 3.11 rejects) and no line
    longer than the csv module's field limit.
    """
    buf = np.frombuffer(data, dtype=np.uint8, count=end)
    text = buf[lo:]
    seps = np.flatnonzero((text == ord(",")) | (text == ord("\n")))
    seps += lo
    at_line_end = buf[seps] == ord("\n")
    crlf = buf[seps[at_line_end] - 1] == ord("\r")
    # the bytes up to '"' are all line ends unless a NUL, a quote or a lone
    # "\r" is among them (or a space, a tab or another control character)
    if np.count_nonzero(text <= ord('"')) != np.count_nonzero(at_line_end) + np.count_nonzero(crlf):
        if np.count_nonzero(text == ord("\r")) != np.count_nonzero(crlf):
            lines = data[lo:end].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            return _index_block(_PAD + lines + b"\0", len(_PAD), len(_PAD) + len(lines), width, ids)
        if ((text == ord('"')) | (text == 0)).any():
            raise ValueError("a line is not plain")
    if seps.size != crlf.size * (width + 1) or not at_line_end[width::width + 1].all():
        raise ValueError(f"a line does not hold {width + 1} cells")
    rows = seps.reshape(-1, width + 1)
    line_starts = np.concatenate(([lo], rows[:-1, -1] + 1))
    if (rows[:, -1] - line_starts).max() > csv.field_size_limit():  # no field is longer than its line
        raise ValueError("a line is longer than the field limit")
    ids += [data[a:b].decode() for a, b in zip(line_starts.tolist(), rows[:, 0].tolist())]
    rows[:, -1] -= crlf
    return data, rows


def _read_blocks(path, width_of, convert) -> tuple[list[str], np.ndarray] | None:
    """The ids and values of a CSV file read in blocks of whole lines, or None.

    Each read takes at most ``_BLOCK_BYTES`` bytes, is cut at its last line
    end and carries the rest to the next read. ``width_of(path, header)``
    checks the header's cells and returns the number of value columns.
    Each block of whole lines is indexed by
    :func:`_index_block`, and ``convert`` turns its cells into a
    ``(lines, width)`` array, or raises ``ValueError`` unless every cell is
    one it accepts: a 0/1 label (:func:`_convert_binary`), or a cell that
    ``float()`` accepts (:func:`_convert_float`, whose kernel takes the
    decimal cells this library and numpy write and hands ``float()`` the
    rest). None means the file needs the per-cell scan, which finds the
    same values or the first problem: some line is not plain, a cell is
    not accepted, an id repeats, or the file cannot be opened or is not
    UTF-8 (every id, and every cell the kernel does not take, is decoded).
    Lines end in ``"\n"``, ``"\r\n"`` or ``"\r"``, as csv splits them, and
    a byte-order mark at the start of the file is skipped. Only one block
    is held at a time, and each block's values are appended to one array
    that is resized in place (a realloc, which the allocator can often do
    without a copy), so the values are never held twice.
    """
    ids: list[str] = []
    values = width = None
    size, carry = min(_BLOCK_BYTES, _BLOCK_SEPS), b""  # no more separators than bytes
    try:
        with Path(path).open("rb") as fh:
            # at the end of the file, what is carried is given a "\n": a last
            # line with no line end gets one, and a last "\r" reads as "\r\n"
            while chunk := fh.read(size) or carry and b"\n":
                data = b"".join((_PAD, carry, chunk, b"\0"))
                # a "\r" that ends the read may pair with the next read's "\n"
                end = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -2)) + 1
                carry = data[max(end, len(_PAD)):-1]
                lo = len(_PAD)
                if width is None and end:  # the header is the first line
                    header = _FIRST_LINE.match(data, lo)
                    width = width_of(path, header[1].decode().split(","))
                    lo = header.end()
                if lo >= end:
                    continue
                rows = len(ids)
                data, seps = _index_block(data, lo, end, width, ids)
                size = min(_BLOCK_BYTES, (end - lo) * _BLOCK_SEPS // seps.size)
                block = convert(data, seps)
                if values is None:
                    values = np.empty((0, width), dtype=block.dtype)
                values.resize((len(ids), width), refcheck=False)  # no view of it exists
                values[rows:] = block
    except (OSError, ValueError):  # UnicodeDecodeError and DataFormatError are ValueErrors
        return None
    if width is None or len(dict.fromkeys(ids)) != len(ids):  # an empty file, or a repeated id
        return None  # (a dict's table is a quarter of a set's)
    return ids, values if values is not None else np.empty((0, width))


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
        with Path(path).open(newline="", encoding="utf-8-sig") as fh:
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
    that only ``parse_cell`` accepts, such as a label padded with spaces.
    """
    loaded = _read_blocks(path, width_of, convert)
    return loaded if loaded is not None else _scan_matrix_csv(path, width_of, parse_cell)


def _convert_binary(data: bytes, seps: np.ndarray) -> np.ndarray:
    # Past its id, each line must read ",d" per class, each d a "0" or "1"
    # byte. Once its cells span two bytes a class and every other byte is a
    # digit, the commas can only sit between them.
    width = seps.shape[1] - 1
    if not (seps[:, -1] - seps[:, 0] == 2 * width).all():
        raise ValueError("a label cell is not one byte")
    cells = _byte_runs(data, 2 * width)[seps[:, 0]].view(np.uint8)
    digits = cells.reshape(-1, 2 * width)[:, 1::2] - np.uint8(ord("0"))  # wraps below "0"
    if not (digits <= 1).all():
        raise ValueError("a label cell is not 0 or 1")
    return digits.view(LABEL_DTYPE)  # 0 and 1 read the same in either byte type


# The decimal kernel converts about this many cells a pass, which keeps its
# per-cell temporaries near 2 MB and takes a 128 KiB block of probabilities
# in one pass.
_KERNEL_CELLS = 8192
# A pass whose cells mostly cannot be taken (such as " 0.5 ", padded with
# spaces) costs more than float() of the cells it would take: when fewer
# than this share of a pass's cells start and end with a digit, all go to
# float().
_KERNEL_SHARE = 0.25
# The powers 10**q the kernel scales by, each as a double-double: the power
# rounded, and the rest rounded, each from the exact rational (an int true
# division is correctly rounded). Outside this range of q a product or one
# of its error terms could leave the normal doubles; such a cell goes to
# float().
_POW10_Q = range(-270, 281)


def _pow10_table() -> tuple[np.ndarray, np.ndarray]:
    hi, lo = [], []
    for q in _POW10_Q:
        if q >= 0:
            hi.append(float(10**q))
            lo.append(float(10**q - int(hi[-1])))
        else:
            den = 10**-q
            hi.append(1 / den)
            num, pow2 = hi[-1].as_integer_ratio()  # hi[-1] == num / pow2 exactly
            lo.append((pow2 - num * den) / (pow2 * den))
    return np.array(hi), np.array(lo)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``x == high + low``, each of at most 26 significant bits."""
    high = 134217729.0 * x  # 2**27 + 1
    high -= high - x
    return high, x - high


_POW10_HI, _POW10_LO = _pow10_table()
_POW10_SPLIT = _split(_POW10_HI)
# Per length n of a digit run (n <= 24): the low bits of each of its three
# right-aligned 8-byte words that lie before the run, and 10**n (n < 20), by
# which a leading "<d>." is scaled. One row is one 32-byte item.
_RUN_ROWS = np.array([[min(max(8 * (24 - n) - 64 * j, 0), 64) for j in range(3)]
                      + [10**n if n < 20 else 0] for n in range(25)],
                     dtype=np.uint64).view("V32")[:, 0]
_U64 = np.uint64
_ZEROS = _U64(0x3030303030303030)  # eight ASCII "0" bytes
_BYTE_HIGH = _U64(0x8080808080808080)
# bytes before a block's text, so that each cell's 24 bytes before its end
# are inside the buffer
_PAD = b"\0" * 24


def _byte_runs(data: bytes, size: int) -> np.ndarray:
    """Every ``size``-byte run of ``data`` as one item: item i holds ``data[i:i + size]``."""
    return np.ndarray((len(data) - size + 1,), dtype=f"V{size}", buffer=data, strides=(1,))


def _words_ending_at(data: bytes, ends: np.ndarray, n_words: int) -> np.ndarray:
    """The ``8 * n_words`` bytes before each of ``ends``, as little-endian uint64 words."""
    items = _byte_runs(data, 8 * n_words)[ends - 8 * n_words]
    return items.view("<u8").reshape(-1, n_words)


def _eight_digits(words: np.ndarray, skip_bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each uint64 of ``words`` read as eight ASCII digits, and a nonzero mark where it holds another byte.

    A word's low byte holds its first digit, as a little-endian load of the
    text puts it. The low ``skip_bits`` bits (whole bytes, up to 64) are read
    as zeros. ``words`` is overwritten. The digits are combined in pairs,
    then fours, then all eight, with three multiplies, as fast_float does.
    Every operand is a uint64, so numpy 1.x and 2.x cast alike.
    """
    keep = np.left_shift(_U64(2**64 - 1), skip_bits)  # numpy shifts a word by 64 to 0
    words &= keep
    keep &= _ZEROS
    words -= keep  # each kept byte minus "0", with no borrow out of a skipped byte
    marks = np.add(words, _U64(0x7676767676767676), out=keep)  # a byte above 9 sets its high bit
    marks |= words  # and one below "0" has it set already
    marks &= _BYTE_HIGH
    pairs = words >> _U64(8)
    words *= _U64(10)
    words += pairs  # byte 2i now holds digit 2i's and 2i + 1's value
    low = _U64(0x000000FF000000FF)
    np.right_shift(words, _U64(16), out=pairs)
    pairs &= low
    pairs *= _U64(1 + (10**4 << 32))
    words &= low
    words *= _U64(100 + (10**6 << 32))
    words += pairs
    words >>= _U64(32)
    return words, marks


def _exponent_marks(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Where each cell's digits end: at the first ``e`` or ``E`` in its last five bytes, else at its end.

    ``starts`` and ``ends`` are flat and ascending. One pass over the bytes
    of ``buf`` that they span finds every mark; a mark outside a cell's
    last five bytes, such as the ``e`` of an id ``ex12``, is dropped.
    """
    marks = np.flatnonzero((buf[starts[0]:ends[-1]] | np.uint8(0x20)) == ord("e"))  # "E" as "e"
    marks += starts[0]
    cell = np.searchsorted(ends, marks, side="right")  # the first cell that ends past each mark
    inside = marks >= np.maximum(starts[cell], ends[cell] - 5)
    cell, first = np.unique(cell[inside], return_index=True)
    at = ends.copy()
    at[cell] = marks[inside][first]
    return at


def _scaled(mant: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``mant * 10**p`` rounded, for ``p = _POW10_Q[q]``, and whether that is the correct rounding.

    The product is formed as a double-double: Dekker's exact product of
    ``mant`` rounded and the rounded power, plus the cross terms with their
    rests. It is within 2**-100 of ``mant * 10**p``, so its rounded sum is
    the correctly rounded value unless the sum's tail lies within 2**-40 of
    half an ulp of it (the gap below a power of two is half the gap above).
    """
    m_hi = mant.astype(np.float64)
    m_lo = (mant - m_hi.astype(np.uint64)).view(np.int64).astype(np.float64)
    p_hi = _POW10_HI[q]
    product = m_hi * p_hi
    a1, a2 = _split(m_hi)
    b1, b2 = _POW10_SPLIT[0][q], _POW10_SPLIT[1][q]
    error = ((a1 * b1 - product) + a1 * b2 + a2 * b1) + a2 * b2  # product + error is exact
    error += m_hi * _POW10_LO[q] + m_lo * p_hi
    value = product + error
    rest = error - (value - product)  # value + rest == product + error exactly
    bits = value.view(np.uint64)
    half_ulp = (bits & _U64(0x7FF0000000000000)).view(np.float64)  # the power of two at or below
    half_ulp *= np.where(bits & _U64(0x000FFFFFFFFFFFFF), 2.0**-53, 2.0**-54) * (1 - 2.0**-40)
    return value, np.abs(rest) <= half_ulp


def _digits(data: bytes, ends: np.ndarray, n: np.ndarray):
    """The ``n <= 24`` bytes before each of ``ends`` read as a decimal integer m, as three right-aligned 8-byte words.

    Returns m, whether m < 10**19 (so that the uint64 holds it), the words'
    marks (nonzero where a byte is not a digit, see :func:`_eight_digits`)
    and ``10**n``, which is 0 from ``n = 20`` on.
    """
    rows = _RUN_ROWS[np.minimum(n, 24)].view(np.uint64).reshape(-1, 4)
    words, marks = _eight_digits(_words_ending_at(data, ends, 3), rows[:, :3])
    mant = words[:, 0] * _U64(10**16) + words[:, 1] * _U64(10**8) + words[:, 2]
    return mant, words[:, 0] < _U64(1000), marks, rows[:, 3]


def _first_marked(marks: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The position of the first marked byte of each row of three words that ends at ``ends``."""
    word = (marks != _U64(0)).argmax(axis=1)
    lowest = marks[np.arange(len(word)), word]
    lowest &= ~lowest + _U64(1)
    # the lowest mark, 2**(8 * j + 7) for byte j of its word, is exactly a
    # double whose bits >> 55 are 128 + j
    return ends - 152 + 8 * word + (lowest.astype(np.float64).view(np.int64) >> 55)


def _decimal_cells(data: bytes, starts: np.ndarray, ends: np.ndarray,
                   run_end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float64 value of each cell ``data[starts[i]:ends[i]]``, and whether it is float()'s.

    ``data`` holds at least 24 bytes before the first cell and one after
    the last, and the digits of each cell end at ``run_end``, where its
    exponent mark is (:func:`_exponent_marks`). A cell is taken when it
    reads ``-``, then ``<digits>`` or ``<digits>.<digits>``, then ``e`` or
    ``E``, a sign and 1-3 digits, each part but the first digits optional;
    when its last digit ends the run before the exponent, and that run (past
    a ``<d>.``) has at most 24 bytes; when its digits make an integer
    ``m < 10**19`` (at most 19 digits if the point is not the second byte);
    and when :func:`_scaled` can prove its rounding. A run is read as three
    right-aligned 8-byte words. When fewer than ``_KERNEL_SHARE`` of the
    cells start and end their run with a digit, none is taken.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    neg = buf[starts] == ord("-")
    first = starts + neg
    lead = buf[first] - np.uint8(ord("0"))  # wraps below "0"
    taken = (lead <= 9) & (buf[run_end - 1] - np.uint8(ord("0")) <= 9)
    point = buf[first + 1] == ord(".")
    run = first + 2 * point  # past a "<d>."
    n_run = run_end - run
    taken &= n_run <= 24
    if np.count_nonzero(taken) < _KERNEL_SHARE * taken.size:
        return np.empty(taken.size), np.zeros(taken.size, dtype=bool)
    mant, small, marks, scale = _digits(data, run_end, n_run)
    digits_only = (marks[:, 0] | marks[:, 1] | marks[:, 2]) == _U64(0)
    wide = np.flatnonzero(taken & ~point & ~digits_only)  # "<digits>.<digits>", if anything
    leading = (lead * point).astype(np.uint64)
    taken &= digits_only & small & ((leading == _U64(0)) | (n_run <= 18))  # so that m < 10**19
    mant += leading * scale
    q = np.where(point, -n_run, 0)
    if wide.size:
        # the point is the first byte of the run that is not a digit
        dot = _first_marked(marks[wide], run_end[wide])
        n_int, n_frac = dot - first[wide], run_end[wide] - dot - 1
        fraction, _, marks, scale = _digits(data, run_end[wide], n_frac)
        taken[wide] = ((buf[dot] == ord(".")) & (n_int + n_frac <= 19)
                       & ((marks[:, 0] | marks[:, 1] | marks[:, 2]) == _U64(0)))
        mant[wide] = _digits(data, dot, n_int)[0] * scale + fraction
        q[wide] = -n_frac
    marked = np.flatnonzero(run_end != ends)
    if marked.size:
        sign = buf[run_end[marked] + 1]
        n_exp = ends[marked] - run_end[marked] - 1 - ((sign == ord("+")) | (sign == ord("-")))
        skip = (np.clip(8 - n_exp, 0, 8) * 8).astype(np.uint64)
        digits, marks = _eight_digits(_words_ending_at(data, ends[marked], 1)[:, 0], skip)
        taken[marked] &= (n_exp >= 1) & (n_exp <= 3) & (marks == _U64(0))
        digits = digits.astype(np.int64)
        q[marked] += np.where(sign == ord("-"), -digits, digits)
    q -= _POW10_Q.start
    taken &= (q >= 0) & (q < len(_POW10_Q))
    mant *= taken  # so that no m of a cell not taken rounds up to 2**64
    q *= taken
    value, exact = _scaled(mant, q)
    return np.where(neg, -value, value), taken & exact


def _float_cells(data: bytes, starts: np.ndarray, ends: np.ndarray) -> list[float]:
    """``float()`` of each cell ``data[starts[i]:ends[i]]``, decoded from UTF-8."""
    return [float(data[a:b].decode()) for a, b in zip(starts.tolist(), ends.tolist())]


def _convert_float(data: bytes, seps: np.ndarray) -> np.ndarray:
    # A cell the kernel does not take is converted by float(), so a block
    # holds float()'s values, and a cell float() rejects raises ValueError.
    # Every byte of a non-ASCII character in UTF-8 is >= 0x80, so none is
    # read as a separator, digit, sign, point or exponent mark.
    buf = np.frombuffer(data, dtype=np.uint8)
    values = np.empty((len(seps), seps.shape[1] - 1))
    step = max(1, _KERNEL_CELLS // values.shape[1])  # lines a pass
    for lo in range(0, len(seps), step):
        starts = (seps[lo:lo + step, :-1] + 1).ravel()
        ends = seps[lo:lo + step, 1:].ravel()
        part, taken = _decimal_cells(data, starts, ends, _exponent_marks(buf, starts, ends))
        others = np.flatnonzero(~taken)
        if others.size:
            part[others] = _float_cells(data, starts[others], ends[others])
        values[lo:lo + step] = part.reshape(-1, values.shape[1])
    return values


def _convert_count(data: bytes, seps: np.ndarray) -> np.ndarray:
    values = _convert_float(data, seps)
    check_features(values)
    return values


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
    """The ids and the ``LABEL_DTYPE`` 0/1 matrix of a labels CSV."""
    ids, data = _parse_matrix_csv(path, partial(_check_header, prefix="label"),
                                  _convert_binary, _parse_binary_cell)
    return ids, data.astype(LABEL_DTYPE, copy=False)  # the block reader's values are int8


def load_probs_csv(path) -> tuple[list[str], np.ndarray]:
    return _parse_matrix_csv(path, partial(_check_header, prefix="prob"), _convert_float, float)


def load_features_csv(path) -> tuple[list[str], np.ndarray]:
    return _parse_matrix_csv(path, partial(_check_header, prefix="feat"),
                             _convert_count, _parse_count_cell)


def load_dataset(labels_path, features_path=None, true_labels_path=None) -> MultiLabelDataset:
    """A dataset from a labels CSV plus optional aligned features and true-labels CSVs.

    A JSON-lines file loads with :func:`load_jsonl`.
    """
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


_BLOCK_ROWS = 1000
# csv.writer quotes a field that holds one of these
_QUOTED_CHARS = ',"\r\n'


def _csv_field(value: str) -> str:
    """``value`` as the csv module's excel dialect writes it beside other fields."""
    if any(c in value for c in _QUOTED_CHARS):
        return '"' + value.replace('"', '""') + '"'
    return value


def _id_fields(ids: Sequence[str], alone: bool) -> list[str]:
    """``ids`` as csv fields; ``alone`` if no other field follows on the row.

    The joined ids are searched once; only when one needs quotes is each
    id quoted on its own. An id that is not a ``str`` is written as
    ``str()`` gives it.
    """
    fields = list(ids)
    try:
        text = "".join(fields)
    except TypeError:
        fields = list(map(str, fields))
        text = "".join(fields)
    if any(c in text for c in _QUOTED_CHARS):
        fields = [_csv_field(field) for field in fields]
    if alone:  # csv quotes an empty field that is alone on its row
        fields = [field or '""' for field in fields]
    return fields


def _int_matrix(columns: Sequence[np.ndarray], cell_fmts: Sequence[str],
                n_rows: int) -> np.ndarray | None:
    """The columns as one C x N integer array if each is written with ``"%d"``, else None.

    Bool columns are viewed as uint8. None also when the columns share no
    integer type (int64 beside uint64 would promote to float64).
    """
    if any(fmt != "%d" for fmt in cell_fmts):
        return None
    if not len(columns):
        return np.zeros((0, n_rows), dtype=np.uint8)
    matrix = np.asarray(columns)  # a view when the columns are one transposed matrix
    if matrix.dtype.kind == "b":
        return matrix.view(np.uint8)
    return matrix if matrix.dtype.kind in "iu" else None


def _digit_cells(values: np.ndarray, digits: int, cell: int) -> np.ndarray:
    """Each of the non-negative ``values`` below ``10**digits`` as a ``cell``-byte csv cell.

    A cell is NUL padding, a comma, then the value's digits with NULs in
    place of leading zeros: with the NULs dropped, ``",%d" % value``.
    """
    out = np.zeros(values.shape + (cell,), dtype=np.uint8)
    out[..., cell - 1 - digits] = ord(",")
    out[..., -1] = values % 10 + ord("0")
    for j in range(1, digits):
        values = values // 10
        out[..., -1 - j] = np.where(values > 0, values % 10 + ord("0"), 0)
    return out


def _grid_block(fields: list[str], values: np.ndarray) -> str | None:
    """The rows of ``fields`` and the rows x C integer ``values``, laid out as one byte grid.

    Each grid row holds the id field, left-aligned to the block's longest
    id, then per value a cell of :func:`_digit_cells`, as wide as the
    block's widest value needs, then ``\r\n``; the NUL padding is dropped
    at the end (a block with none, such as 0/1 labels beside ids of one
    length, is taken as it is). Values with at most three digits are cells
    of 2 or 4 bytes, copied from a table of every such value as one machine
    word each. None if an id is not ASCII or holds a NUL (dropping the
    padding would drop it too), or if a value is negative: such a block is
    %-formatted instead.
    """
    text = "\0".join(fields) + "\0"  # each id and a NUL, which marks its end
    if not text.isascii() or (values.dtype.kind == "i" and (values < 0).any()):
        return None
    terminated = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    ends = np.flatnonzero(terminated == 0)
    if len(ends) != len(fields):
        return None
    n_rows, n_cols = values.shape
    lengths = np.diff(ends, prepend=-1) - 1
    id_width = int(lengths.max())
    digits = len(str(values.max(initial=0)))
    cell = 2 if digits == 1 else 4 if digits <= 3 else 1 + digits
    grid = np.zeros((n_rows, id_width + n_cols * cell + 2), dtype=np.uint8)
    id_bytes = terminated[terminated != 0]
    # byte j of row i's id goes to grid[i, j]
    starts = np.arange(n_rows) * grid.shape[1] - (np.cumsum(lengths) - lengths)
    grid.reshape(-1)[np.repeat(starts, lengths) + np.arange(id_bytes.size)] = id_bytes
    if cell in (2, 4):
        table = _digit_cells(np.arange(10**digits), digits, cell).view(f"u{cell}")[:, 0]
        cells = grid[:, id_width:-2].view(table.dtype)
        np.take(table, values.astype(np.intp), out=cells, mode="clip")
    else:
        grid[:, id_width:-2] = _digit_cells(values, digits, cell).reshape(n_rows, -1)
    grid[:, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    out = grid.tobytes()
    return (out.translate(None, b"\0") if b"\0" in out else out).decode("ascii")


def write_csv_rows(path, header: Sequence[str], ids: Sequence[str],
                   columns: Sequence[np.ndarray], cell_fmts: Sequence[str]) -> None:
    """Write ``header``, then per id a row of the id and its entry in each column.

    ``columns`` are arrays of one value per id and ``cell_fmts`` their
    %-formats (``"%d"``, ``"%.17g"``, ``"%s"``); ids are quoted as needed.
    The bytes, ``\r\n`` line ends included, are those of ``csv.writer``.
    ``ValueError``, before the file is opened, unless ``header`` names the
    id and each column, there is one format per column, and every column
    holds one value per id. Rows go out ``_BLOCK_ROWS`` at a time, so no
    more than one block of text is held. When every format is ``"%d"`` and
    every column is bool or integer, a block is laid out as one byte grid
    (:func:`_grid_block`), with no Python string per row or cell; a block
    the grid cannot hold, and every block of any other file, is
    %-formatted row by row.
    """
    if not len(header) == 1 + len(columns) == 1 + len(cell_fmts):
        raise ValueError(f"header of {len(header)} names for {len(columns)} columns "
                         f"and {len(cell_fmts)} formats")
    lengths = {len(col) for col in columns}
    if lengths - {len(ids)}:
        raise ValueError(f"columns of {sorted(lengths)} values for {len(ids)} ids")
    matrix = _int_matrix(columns, cell_fmts, len(ids))
    row_fmt = ",".join(["%s", *cell_fmts]) + "\r\n"
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(ids), _BLOCK_ROWS):
            hi = lo + _BLOCK_ROWS
            fields = _id_fields(ids[lo:hi], alone=not cell_fmts)
            text = None if matrix is None else _grid_block(fields, matrix[:, lo:hi].T)
            if text is None:
                text = _format_block(row_fmt, fields, [col[lo:hi] for col in columns])
            fh.write(text)


def _format_block(row_fmt: str, fields: list[str], columns: list[np.ndarray]) -> str:
    """The rows of ``fields`` and ``columns``, each %-formatted by ``row_fmt``."""
    rows = zip(fields, *(col.tolist() for col in columns))
    return (row_fmt * len(fields)) % tuple(chain.from_iterable(rows))


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

    After the 0/1 check the labels are cast to ``LABEL_DTYPE`` (exact) and
    written with ``"%d"`` through :func:`write_csv_rows`, in the byte grid
    that integer counts take too; the bytes are those of ``csv.writer``.
    """
    labels = np.asarray(labels)
    _matrix_header("label", ids, labels)  # a shape error comes before a value error
    check_binary_labels(labels)
    _write_matrix_csv(path, "label", ids, labels.astype(LABEL_DTYPE, copy=False), "%d")


def save_probs_csv(path, ids: Sequence[str], probs: np.ndarray) -> None:
    _write_matrix_csv(path, "prob", ids, np.asarray(probs), _FLOAT_CELL)


def save_features_csv(path, ids: Sequence[str], features: np.ndarray) -> None:
    """Write a non-negative feature matrix; ``ValueError`` at the first negative or non-finite cell.

    A matrix of whole numbers in [0, 2**53) without a ``-0.0`` is written as
    int64 integers with ``"%d"``: for each such number that gives the bytes
    of ``"%.17g"``, and :func:`write_csv_rows` lays such blocks out as one
    byte grid with no Python string per cell. Any other matrix is written
    with ``"%.17g"``, row by row.
    """
    data = np.asarray(features, dtype=np.float64)
    _matrix_header("feat", ids, data)  # a shape error comes before a value error
    check_features(data)
    cells, cell_fmt = data, _FLOAT_CELL
    if (data < 2.0**53).all() and not np.signbit(data).any():
        counts = data.astype(np.int64)  # in range, so the cast is exact for whole numbers
        if (counts == data).all():
            cells, cell_fmt = counts, "%d"
    _write_matrix_csv(path, "feat", ids, cells, cell_fmt)


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


def save_jsonl(path, dataset: MultiLabelDataset, probs: np.ndarray) -> None:
    """One JSON object per example: ``{"id": ..., "labels": [...], "probs": [...]}``."""
    probs = np.asarray(probs)
    if probs.shape != dataset.given_labels.shape:
        raise ValueError("dataset and probabilities have different shapes")
    with Path(path).open("w") as fh:
        for i, ex_id in enumerate(dataset.example_ids):
            fh.write(json.dumps({
                "id": ex_id,
                "labels": [int(v) for v in dataset.given_labels[i]],
                "probs": [float(v) for v in probs[i]],
            }) + "\n")


def load_jsonl(path) -> tuple[MultiLabelDataset, np.ndarray | None]:
    """Read :func:`save_jsonl` output; the probabilities are None if no row has any."""
    path = Path(path)
    ids: dict[str, None] = {}  # in file order
    labels: list[list[int]] = []
    probs: list[list[float]] = []
    with path.open(encoding="utf-8-sig") as fh:
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
    if widths == {0}:
        raise DataFormatError(f"{path}: no label columns (every labels list is empty)")
    dataset = MultiLabelDataset(np.array(labels, dtype=LABEL_DTYPE), tuple(ids))
    return dataset, np.array(probs, dtype=np.float64) if probs else None
