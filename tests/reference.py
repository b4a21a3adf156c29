"""Independent brute-force reference implementations used as test oracles.

Pure Python with explicit sorts and loops, deliberately sharing no code with
the library implementations they check. Deliberately slow and literal.

The oracles at the end are the exception: they are numpy, literal copies of
code the library replaced or statements of what it computes. Two are
trainers. The original epoch loop (masked two-sided sigmoid,
``np.logaddexp`` loss, fresh temporaries every epoch) is a cross-check
within a rounding tolerance. The class-major epoch, with the bias folded
into its products as a column of the parameter matrix, fresh temporaries
and the row blocks passed in, must give the library's weights, losses and
probabilities bit for bit. ``binary_loss_and_grad`` is the one-class loss
and gradient that the finite-difference checks and the trainer's first step
are checked against. One is the per-class loop of the multi-label flagger
(one ``np.add.at`` joint and one noise-rate matrix per class); one is the
per-example loop of the noise injector; one is the per-class loop that
split each trace of an asymmetric noise spec with its own ``uniform`` call;
one is the one-method-per-call scorer (its own sort and temporaries for
every method). Only the same floating-point operations and the same RNG
calls can show that a rewrite gives bit-identical weights, probabilities,
thresholds, noise rates, noise matrices, noisy labels and pooled scores.
Another is the generator's per-example label loop; the batched draw that
replaced it consumes the RNG differently, so only its per-row label counts
must match. Another is the generator with its multinomial word draw: the
word counts come after the labels in the RNG stream, so the independent
Poisson counts that replaced it leave the labels bit for bit as they are.
Its labels are stated on the whole N x K key matrix, each row's ranks below
its count, so they check the generator's row-blocked sort-and-threshold
without sharing its code. The last is the CSV writer that %-formats every
row in Python, whose bytes the byte-grid writer must give.
"""

import math
import re
from itertools import chain
from pathlib import Path

import numpy as np


# --- per-class score and poolers (one row at a time) -----------------------

def self_confidence_row(labels_row, probs_row):
    return [p if b == 1 else 1.0 - p for b, p in zip(labels_row, probs_row)]


def pool_min(row):
    best = row[0]
    for v in row[1:]:
        if v < best:
            best = v
    return best


def pool_max(row):
    best = row[0]
    for v in row[1:]:
        if v > best:
            best = v
    return best


def pool_mean(row):
    total = 0.0
    for v in row:
        total += v
    return total / len(row)


def pool_median(row):
    ordered = sorted(row)
    n = len(ordered)
    if n % 2 == 1:
        return ordered[n // 2]
    return 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])


def pool_ema(row, alpha=0.8):
    ordered = sorted(row, reverse=True)
    acc = ordered[0]
    for v in ordered[1:]:
        acc = alpha * v + (1.0 - alpha) * acc
    return acc


def pool_softmin(row, tau=0.1):
    shift = max((1.0 - v) / tau for v in row)
    num = 0.0
    den = 0.0
    for v in row:
        w = math.exp((1.0 - v) / tau - shift)
        num += v * w
        den += w
    return num / den


def pool_log(row, eps=1e-8):
    total = 0.0
    for v in row:
        total += math.log(v + eps)
    return total / len(row)


def pool_cumavg_bottom(row, bottom_j=2):
    ordered = sorted(row)
    total = 0.0
    for v in ordered[:bottom_j]:
        total += v
    return total / bottom_j


def pool_weighted_cumavg(row):
    ordered = sorted(row)
    total = 0.0
    for j in range(1, len(ordered) + 1):
        for k in range(j):
            total += math.exp(1.0 - j) / j * ordered[k]
    return total


def pool_sma(row, period=2):
    ordered = sorted(row)
    n = len(ordered)
    total = 0.0
    for upper in range(period, n + 1):          # window ends (1-based)
        for k in range(upper - period + 1, upper + 1):
            total += ordered[k - 1]
    return total / (period * (n - period + 1))


POOLERS = {
    "min": pool_min,
    "max": pool_max,
    "mean": pool_mean,
    "median": pool_median,
    "ema": pool_ema,
    "softmin": pool_softmin,
    "log": pool_log,
    "cumavg_bottom": pool_cumavg_bottom,
    "weighted_cumavg": pool_weighted_cumavg,
    "sma": pool_sma,
}


def pool_matrix(name, matrix, **params):
    return [POOLERS[name](list(row), **params) for row in matrix]


# --- metrics ----------------------------------------------------------------

def ascending_order(scores):
    return sorted(range(len(scores)), key=lambda i: (scores[i], i))


def ap_at_t(scores, positives, t):
    """O(N^2) average precision over the bottom-t ranked examples."""
    order = ascending_order(scores)
    total_rel = 0
    ap_sum = 0.0
    for rank in range(1, t + 1):
        if positives[order[rank - 1]]:
            hits = 0
            for r in range(rank):
                if positives[order[r]]:
                    hits += 1
            ap_sum += hits / rank
            total_rel += 1
    return ap_sum / max(1, total_rel)


def auprc(scores, positives):
    return ap_at_t(scores, positives, len(scores))


def _average_ranks(values):
    # NaN sorts last, in index order, as in numpy; it equals nothing, so ranks alone
    order = sorted(range(len(values)),
                   key=lambda i: (math.isnan(values[i]), 0.0 if math.isnan(values[i]) else values[i], i))
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = 0.5 * (i + j) + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    return ranks


def spearman(x, y):
    rx = _average_ranks(list(x))
    ry = _average_ranks(list(y))
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


# --- confident flagging for one class ---------------------------------------

def flag_class(given, probs):
    """Enumerate every example against the two-sided confidence thresholds."""
    pos = [p for b, p in zip(given, probs) if b == 1]
    neg = [1.0 - p for b, p in zip(given, probs) if b == 0]
    if not pos or not neg:
        return [False] * len(given)
    t_pos = sum(pos) / len(pos)
    t_neg = sum(neg) / len(neg)
    flags = []
    for b, p in zip(given, probs):
        side_pos = p >= t_pos
        side_neg = (1.0 - p) >= t_neg
        if not side_pos and not side_neg:
            flags.append(False)
            continue
        if side_pos and side_neg:
            if p > 0.5:
                star = 1
            elif p < 0.5:
                star = 0
            else:
                star = b
        else:
            star = 1 if side_pos else 0
        flags.append(star != b)
    return flags


# --- trainer: the original masked-sigmoid loop and the class-major epoch ------

def masked_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def train(features, labels, learning_rate=0.1, l2=1e-4, epochs=500):
    """Return (weights, biases, loss_history, feature_mean, feature_scale)
    as the original trainer computed them."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n, d = features.shape
    k = labels.shape[1]
    logged = np.log1p(features)
    mean = logged.mean(axis=0)
    scale = logged.std(axis=0)
    scale = np.where(scale < 1e-12, 1.0, scale)
    X = (np.log1p(features) - mean) / scale

    active = labels.min(axis=0) != labels.max(axis=0)
    Y = labels[:, active]
    W = np.zeros((int(active.sum()), d))
    b = np.zeros(int(active.sum()))
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs + 1):
            Z = X @ W.T + b
            P = masked_sigmoid(Z)
            bce = np.mean(np.logaddexp(0.0, Z) - Y * Z, axis=0)
            losses.append(float(bce.sum() + 0.5 * l2 * (W * W).sum()))
            if epoch == epochs:
                break
            residual = P - Y
            W -= learning_rate * (residual.T @ X / n + l2 * W)
            b -= learning_rate * residual.mean(axis=0)

    weights = np.zeros((k, d))
    biases = np.zeros(k)
    weights[active] = W
    biases[active] = b
    for j in np.flatnonzero(~active):
        rate = (labels[:, j].sum() + 0.5) / (n + 1.0)
        biases[j] = np.log(rate / (1.0 - rate))
    return weights, biases, np.array(losses), mean, scale


def train_class_major(features, labels, blocks, learning_rate=0.1, l2=1e-4, epochs=500):
    """Return (weights, biases, loss_history, feature_mean, feature_scale) as
    the class-major trainer computes them over the row ranges ``blocks``.

    The weights and biases are one matrix ``A = [W | b]``, and each block's
    features are ``[X_blk.T; 1]``, a row of ones below them. Each block forms
    ``-z`` as ``-A @ [X_blk.T; 1]``, its loss cells as ``log1p(exp(-|z|)) +
    max(z, 0) - y*z`` written in ``-z``, the sigmoid as ``1/(1 + exp(-z))``
    and its share of the weight and bias gradients as one product ``(p - y)
    @ [X_blk.T; 1].T``, summed block by block. One update moves ``A``, with
    decay ``l2`` on the weights and 0 on the bias.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n, d = features.shape
    k = labels.shape[1]
    logged = np.log1p(features)
    mean = logged.mean(axis=0)
    scale = logged.std(axis=0)
    scale = np.where(scale < 1e-12, 1.0, scale)
    X = (logged - mean) / scale

    active = labels.min(axis=0) != labels.max(axis=0)
    Y = labels[:, active]
    A = np.zeros((Y.shape[1], d + 1))
    decay = np.array([l2] * d + [0.0])
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs + 1):
            cell_sum = 0.0
            G = np.zeros(A.shape)
            for lo, hi in blocks:
                # class-major and C-ordered, as the trainer holds it: the
                # products then run the same gemm (vstack alone gives F order)
                xt = np.ascontiguousarray(np.vstack([X[lo:hi].T, np.ones(hi - lo)]))
                minus_z = -A @ xt
                y = Y[lo:hi].T
                cells = np.log1p(np.exp(-np.abs(minus_z))) - np.minimum(minus_z, 0.0) + y * minus_z
                cell_sum += cells.sum()
                residual = 1.0 / (1.0 + np.exp(minus_z)) - y
                G += residual @ xt.T
            W = A[:, :d]
            losses.append(float(cell_sum / n + 0.5 * l2 * (W * W).sum()))
            if epoch == epochs:
                break
            A -= learning_rate * (G / n + decay * A)

    weights = np.zeros((k, d))
    biases = np.zeros(k)
    weights[active] = A[:, :d]
    biases[active] = A[:, d]
    for j in np.flatnonzero(~active):
        rate = (labels[:, j].sum() + 0.5) / (n + 1.0)
        biases[j] = np.log(rate / (1.0 - rate))
    return weights, biases, np.array(losses), mean, scale


def cross_val_pred_probs(features, labels, n_folds, seed, row_blocks, **train_args):
    """Out-of-sample probabilities over shuffled folds, fitted one at a time by
    :func:`train_class_major`; ``row_blocks(n, k)`` gives a fit's blocks for
    n rows and k non-constant classes."""
    n = features.shape[0]
    order = np.random.default_rng(seed).permutation(n)
    folds = np.empty(n, dtype=np.int64)
    folds[order] = np.arange(n) % n_folds
    probs = np.empty(labels.shape)
    for f in range(n_folds):
        held_out = folds == f
        y = labels[~held_out]
        blocks = row_blocks(y.shape[0], int((y.min(axis=0) != y.max(axis=0)).sum()))
        weights, biases, _, mean, scale = train_class_major(
            features[~held_out], y, blocks, **train_args
        )
        X = (np.log1p(features[held_out]) - mean) / scale
        with np.errstate(over="ignore"):
            probs[held_out] = 1.0 / (1.0 + np.exp(-(X @ weights.T + biases)))
    return np.clip(probs, 1e-15, 1.0 - 1e-15)


def binary_loss_and_grad(weights, bias, X, y, l2):
    """Mean binary cross-entropy + (l2/2)||w||^2 and its exact gradient, for
    one class; the bias is excluded from the penalty."""
    z = X @ weights + bias
    # mean of softplus(z) - y*z equals the mean binary cross-entropy
    bce = float(np.mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - y * z))
    loss = bce + 0.5 * l2 * float(weights @ weights)
    residual = masked_sigmoid(z) - y
    grad_w = X.T @ residual / X.shape[0] + l2 * weights
    grad_b = float(residual.mean())
    return loss, grad_w, grad_b


# --- multi-label flagger: the original per-class loop -----------------------

UNCOUNTED = -1


def _confident_true_labels(given, p, t_pos, t_neg):
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


def _noise_rate_matrix(counts, n_given):
    rates = np.eye(2)
    for g in range(2):
        row_total = counts[g].sum()
        if row_total > 0 and n_given[g] > 0:
            calibrated = counts[g] * (n_given[g] / row_total)
            rates[g] = calibrated / calibrated.sum()
    return rates


def flag_multilabel(labels, probs):
    """The fields of a ``FlagReport``, as the original K-loop computed them."""
    labels = np.asarray(labels).astype(np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    n_examples, n_classes = labels.shape
    per_class_flags = np.zeros((n_examples, n_classes), dtype=bool)
    joint_counts = np.zeros((n_classes, 2, 2), dtype=np.int64)
    noise_rates = np.zeros((n_classes, 2, 2))
    thresholds = np.full((n_classes, 2), np.nan)
    skipped = []
    for k in range(n_classes):
        given = labels[:, k]
        p = probs[:, k]
        pos = given == 1
        neg = given == 0
        if not pos.any() or not neg.any():
            skipped.append(k)
            noise_rates[k] = np.eye(2)
            continue
        t_pos, t_neg = float(p[pos].mean()), float((1.0 - p[neg]).mean())
        thresholds[k] = (t_pos, t_neg)
        confident = _confident_true_labels(given, p, t_pos, t_neg)
        counted = confident != UNCOUNTED
        counts = np.zeros((2, 2), dtype=np.int64)
        np.add.at(counts, (given[counted], confident[counted]), 1)
        per_class_flags[:, k] = counted & (confident != given)
        joint_counts[k] = counts
        n_given = np.array([(given == 0).sum(), (given == 1).sum()])
        noise_rates[k] = _noise_rate_matrix(counts, n_given)
    return dict(
        per_class_flags=per_class_flags,
        example_flags=per_class_flags.any(axis=1),
        joint_counts=joint_counts,
        estimated_noise_rates=noise_rates,
        skipped_classes=tuple(skipped),
        thresholds=thresholds,
    )


# --- noise injection: one example at a time ----------------------------------

def inject_noise(true_labels, matrices, max_errors=3, seed=0):
    """Noisy labels made one example at a time.

    One uniform per cell proposes the flips. Then each example with more
    than ``max_errors`` proposed flips, in row order, draws K uniform keys
    of its own and keeps the ``max_errors`` proposed flips whose keys come
    first in a stable argsort.
    """
    truth = np.asarray(true_labels)
    matrices = np.asarray(matrices, dtype=np.float64)
    n, k = truth.shape
    rng = np.random.default_rng(seed)
    flip_prob = np.where(truth == 1, matrices[:, 1, 0][None, :], matrices[:, 0, 1][None, :])
    proposed = rng.random((n, k)) < flip_prob

    noisy = truth.copy()
    for i in range(n):
        flips = np.flatnonzero(proposed[i])
        if flips.size > max_errors:
            keys = rng.random(k)
            flips = flips[np.argsort(keys[flips], kind="stable")[:max_errors]]
        noisy[i, flips] = 1 - noisy[i, flips]
    return noisy


# --- asymmetric noise matrices: the original per-class loop ------------------

def asymmetric_noise_matrices(traces, seed):
    """Each trace split at random across the diagonal, one ``uniform`` call per class."""
    rng = np.random.default_rng(seed)
    matrices = []
    for trace in traces:
        keep0 = rng.uniform(max(0.0, trace - 1.0), min(1.0, trace))
        keep1 = trace - keep0
        matrices.append(np.array([[keep0, 1.0 - keep0], [1.0 - keep1, keep1]]))
    return np.stack(matrices)


# --- label generation: the original per-example loop ------------------------

def gen_label_loop(config):
    """True labels as the original generator drew them, one ``choice`` per example."""
    rng = np.random.default_rng(config.seed)
    n, d, k = config.n_samples, config.n_features, config.n_classes
    rng.dirichlet(np.ones(d), size=k)  # the word distributions come first in the stream
    label_counts = rng.poisson(config.expected_labels_per_example, size=n)
    over = label_counts > k
    while over.any():
        label_counts[over] = rng.poisson(config.expected_labels_per_example, size=int(over.sum()))
        over = label_counts > k
    labels = np.zeros((n, k), dtype=np.int64)
    for i in range(n):
        if label_counts[i]:
            labels[i, rng.choice(k, size=label_counts[i], replace=False)] = 1
    return labels


def gen_multinomial(config):
    """True labels and word counts as the generator drew them with one
    Poisson document length per row, split multinomially over its mixture."""
    rng = np.random.default_rng(config.seed)
    n, d, k = config.n_samples, config.n_features, config.n_classes
    word_dists = rng.dirichlet(np.ones(d), size=k)
    label_counts = rng.poisson(config.expected_labels_per_example, size=n)
    over = label_counts > k
    while over.any():
        label_counts[over] = rng.poisson(config.expected_labels_per_example, size=int(over.sum()))
        over = label_counts > k
    keys = rng.random((n, k))  # row i's labels are its label_counts[i] smallest keys
    labels = (np.argsort(np.argsort(keys, axis=1), axis=1) < label_counts[:, None]).astype(np.int64)
    mixtures = labels @ word_dists
    counts = label_counts.astype(np.float64)
    mixtures = np.where(counts[:, None] > 0, mixtures / np.maximum(counts, 1.0)[:, None], 1.0 / d)
    doc_lengths = rng.poisson(config.expected_doc_length, size=n)
    features = rng.multinomial(doc_lengths, mixtures).astype(np.float64)
    return labels, features


# --- scoring: one call per pooling method -----------------------------------

def score_one_method(labels, probs, method):
    """Pooled scores as a call scoring only ``method`` computed them: its own
    self-confidence, and for the L-statistics its own sort, weighted in place.
    The weight table is the library's; only the pass around it is copied."""
    from labelaudit.scoring import _SORTED_WEIGHTS

    probs = np.asarray(probs, dtype=np.float64)
    scores = np.where(np.asarray(labels) == 1, probs, 1.0 - probs)
    k = scores.shape[1]
    if method.name == "softmin":
        z = (1.0 - scores) / method.tau
        w = np.exp(z - z.max(axis=1, keepdims=True))
        return (scores * w).sum(axis=1) / w.sum(axis=1)
    if method.name == "log":
        return np.log(scores + method.eps).mean(axis=1)
    ordered = np.sort(scores, axis=1)
    ordered *= _SORTED_WEIGHTS[method.name](method, np.arange(1.0, k + 1), k)
    return ordered.sum(axis=1)


# --- CSV writer: one %-format per row ---------------------------------------

_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _csv_field(value):
    if _NEEDS_QUOTES.search(value):
        return '"' + value.replace('"', '""') + '"'
    return value


def write_csv_rows(path, header, ids, columns, cell_fmts):
    """``header`` and per id a row of the id and each column's entry, each
    row %-formatted; ids are quoted per id, as csv.writer quotes them."""
    row_fmt = ",".join(["%s", *cell_fmts]) + "\r\n"
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(ids), 1000):
            hi = lo + 1000
            block_ids = [_csv_field(str(ex_id)) for ex_id in ids[lo:hi]]
            if not cell_fmts:  # csv quotes an empty field that is alone on its row
                block_ids = [field or '""' for field in block_ids]
            rows = zip(block_ids, *(col[lo:hi].tolist() for col in columns))
            fh.write((row_fmt * len(block_ids)) % tuple(chain.from_iterable(rows)))
