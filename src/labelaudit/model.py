"""One-vs-rest logistic regression with k-fold CV for out-of-sample probabilities.

Deliberately minimal: full-batch gradient descent with a fixed learning rate
on an L2-regularized binary cross-entropy (bias unregularized), one
independent sigmoid output per class. Bag-of-words counts are log(1+x)
transformed and standardized with statistics computed on the training folds
only. This closes the benchmark loop; it is not meant to be a competitive
multi-label classifier.

The weights and biases of a fit are one ``(K, D+1)`` matrix ``A``:
``W = A[:, :D]`` and ``b = A[:, D]``. :func:`_fit` trains a stack of ``F``
fits of one row count ``n`` and one count ``K`` of fitted classes in one
epoch loop, with ``A`` of shape ``(F, K, D+1)``; :func:`train` is a stack
of one. It splits the rows into blocks of about ``_BLOCK_CELLS`` cells and,
once per fit, standardizes each block straight into that fit's class-major
``(D+1, m)`` slab of an ``(F, D+1, m)`` array whose last row is all ones,
and converts its columns of the fit's int8 class-major ``(K, n)`` labels
into the fit's float ``(K, m)`` slab. An epoch then runs every step on one
block while the block is in cache: the negated logits ``-z = (-A) @
X_blk``, one product that takes in the bias through the row of ones
(negation is exact), the sigmoid ``1/(1 + exp(-z))`` in three passes, the
residual ``p - y``, and the block's share of the weight and bias gradients
together, ``(p - y) @ X_blk.T``. Each is one numpy call for the whole
stack; a stacked ``matmul`` calls the 2-D gemm once per fit, so each fit
gets the bits it gets alone. One update with a per-column decay, ``l2`` on
the weights and 0 on the bias, then moves ``A``. The scratch is one
``(F, K, m)`` array for the gradient and two ``(K, m)`` arrays for one
fit's loss, all shared by the blocks. Each block has at least two rows: a
one-row product goes through gemv, whose sums can differ in the last bit
from gemm's.

No weight update reads the loss. :func:`_loss` sums one fit's in a pass of
its own over the blocks, before an epoch's update: the same forward
product, then the cells ``log1p(exp(-|z|)) + max(z, 0) - y*z``, and the L2
penalty. It runs on the epochs ``loss_history`` records and for any fit
and epoch where a bound taken from ``A`` cannot show the loss finite. A
cross-validation fit, whose model is dropped once it has predicted,
records no loss: the bound alone guards it, and its last epoch, which
makes no update, checks the bound and no more. Each cell lies in ``[0, |z|
+ 1]``, and ``|z| <= max_i (1 + sum_d |x_id|) * max|A|`` (the sum over each
row and its 1 is taken once per fit, from the class-major blocks). That
bound is at least ``max|A|``, since each sum holds the 1, so the penalty is
at most ``l2/2 * K*D`` times its square. The loss is finite while the cell
count times the bound plus 1, and that bound on the penalty, both stay
below 1e300. The divergence error therefore names the same epoch whichever
epochs are recorded, and whether any is. Each epoch first takes one bound
over the whole stack, which covers every fit's, and a fit's own bound only
when that fails. A fit that diverges drops out of the checks; the error
names the epoch of the stack's lowest diverging fit, as fitting the folds
one after another would, so it is raised once no fit before it can still
diverge.

Every fit starts from ``A = 0``, where each logistic is exactly
``1/(1 + exp(0)) = 1/2``. So epoch 0 writes each block's residual as
``1/2 - y`` and skips the forward product and the sigmoid; ``train`` takes
epoch 0's recorded loss in its loss pass.

:func:`cross_val_pred_probs` takes ``log1p`` of the features once and
builds the labels once as a C-contiguous int8 class-major ``(K, N)`` array
(1.5 MB at 30000×50, 12 MB as float64). It groups consecutive folds into
stacks: a fold joins the stack before it when each trains on a single row
block (``K·n <= _BLOCK_CELLS``), with the same ``n`` and the same number of
fitted classes, and the stack's slabs of features, float labels and
gradient scratch stay within ``_STACK_CELLS`` cells (4 MiB), so that
leave-one-out cannot stack thousands of folds. A fold of several blocks
trains alone. A ``small`` CV (5000×4, D=3) is one stack of five folds; a
``large`` fold (24000 training rows, K=50) spans 37 blocks. Each fit takes
its training rows of the features and labels with one integer index, and
drops them once its slabs are built. Peak memory is the logged features,
the labels and the ``(N, K)`` float probabilities, plus one stack's slabs
and scratch and one fold's logged training rows while its slabs are built;
no row-major standardized copy is made. The folds write their predictions
into that one ``(N, K)`` float64 array, which is returned as it is, with
no copy (12 MB at 30000×50): the caller owns it, as it owns
:func:`predict_proba`'s. A ``large`` benchmark replicate (30000×50, D=20)
peaks here at ~49 MB traced by ``tracemalloc``, with scoring and flagging
next at ~40 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (LABEL_DTYPE, MultiLabelDataset, _read_only, check_binary_labels, check_features,
                   is_integer)

_PROB_CLIP = 1e-15  # keeps predicted probabilities strictly inside (0, 1)
_FINITE_BOUND = 1e300  # far enough below the float maximum to absorb rounding
_BLOCK_CELLS = 32768  # cells per row block of an epoch: its scratch stays in cache
_STACK_CELLS = 1 << 19  # cells a stack of one-block folds holds: 4 MiB of float64
_EPS = float(np.finfo(np.float64).eps)
_TINY = 5e-324  # the smallest subnormal float64


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    l2: float = 1e-4
    epochs: int = 500
    loss_every: int = 50  # loss_history records every loss_every-th epoch

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate!r}")
        if not (math.isfinite(self.l2) and self.l2 >= 0):
            raise ValueError(f"l2 must be finite and non-negative, got {self.l2!r}")
        for name in ("epochs", "loss_every"):
            value = getattr(self, name)
            if not is_integer(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class CVConfig:
    n_folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if not is_integer(self.n_folds) or self.n_folds < 2:
            raise ValueError(f"n_folds must be an integer >= 2, got {self.n_folds!r}")
        if not is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class LogRegModel:
    """Per-class weights and bias plus the scaling statistics and
    hyperparameters used to fit them."""

    weights: np.ndarray        # (K, D)
    biases: np.ndarray         # (K,)
    feature_mean: np.ndarray   # (D,) mean of log1p(features) on training data
    feature_scale: np.ndarray  # (D,) std of log1p(features), floored at 1
    # total loss across trained classes at epoch 0, every config.loss_every-th
    # epoch and the last epoch, in epoch order
    loss_history: np.ndarray
    config: TrainConfig = TrainConfig()

    def __post_init__(self):
        for name in ("weights", "biases", "feature_mean", "feature_scale", "loss_history"):
            object.__setattr__(self, name, _read_only(getattr(self, name), np.float64))
        if not np.all(np.isfinite(self.weights)) or not np.all(np.isfinite(self.biases)):
            raise ValueError("model parameters must be finite")

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]


def _sigmoid_of_negated(q: np.ndarray) -> np.ndarray:
    """Overwrite ``q``, which holds ``-z``, with the logistic ``1 / (1 + exp(-z))``.

    Three passes: ``exp``, ``+ 1`` and a reciprocal. ``exp`` overflows to inf
    only where ``z < -709.78``; there the logistic is below 5.6e-309, and the
    result is exactly 0. NaN stays NaN.
    """
    np.exp(q, out=q)
    q += 1.0
    return np.divide(1.0, q, out=q)


def _base_rate_bias(positives: float, n: int) -> float:
    # Laplace-smoothed log-odds; finite even when all labels agree.
    rate = (positives + 0.5) / (n + 1.0)
    return float(np.log(rate / (1.0 - rate)))


def _logit_bound(x_abs_sum: float, A: np.ndarray) -> float:
    """An upper bound on every ``|A @ x|`` whose column has ``sum |x_d| <= x_abs_sum``,
    for ``A`` one fit's ``(K, D+1)`` parameters or a stack's ``(F, K, D+1)``.

    ``|a_k . x| <= sum_d |x_d| * max|A|``. The padding, a few ulps and a few
    subnormals per column of ``A``, covers the rounding of the computed
    logits and of the bound itself. A NaN anywhere gives NaN.
    """
    d = A.shape[-1]
    bound = x_abs_sum * np.abs(A).max(initial=0.0)
    return bound * (1.0 + (2 * d + 4) * _EPS) + (d + 2) * _TINY


def _bound_holds(bound: float, n: int, ka: int, d: int, l2: float) -> bool:
    """Whether a logit bound shows the loss of a fit of ``n`` rows and ``ka``
    fitted classes finite: each loss cell lies in ``[0, |z| + 1]``, and
    ``max|A| <= bound``, since every column's sum holds the row of ones, so
    the penalty is at most ``l2/2 * ka*d * bound**2``. A NaN bound fails."""
    return (n * ka * (bound + 1.0) < _FINITE_BOUND
            and 0.5 * l2 * (ka * d) * bound * bound < _FINITE_BOUND)


def _row_blocks(n: int, k: int) -> list[tuple[int, int]]:
    """Row ranges of about ``_BLOCK_CELLS`` cells each, none of them a single row.

    A one-row product goes through gemv, whose sums can differ in the last bit
    from the gemm that computes a block of two or more rows, so a one-row
    remainder joins the block before it.
    """
    rows = max(2, _BLOCK_CELLS // max(k, 1))
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _standardized_block(logged: np.ndarray, mean: np.ndarray, scale: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
    """``(logged - mean) / scale`` for the rows of ``logged``, written class-major
    as ``(D+1, m)`` above a row of ones, which multiplies the bias; into
    ``out`` when it is given."""
    m, d = logged.shape
    xt = np.empty((d + 1, m)) if out is None else out
    np.subtract(logged.T, mean[:, None], out=xt[:d])
    xt[:d] /= scale[:, None]
    xt[d] = 1.0
    return xt


def _loss(A: np.ndarray, blocks: list, n: int, l2: float) -> float:
    """One fit's loss at ``A``: its cross-entropy cells summed over the blocks
    and divided by ``n``, plus the L2 penalty on the weights ``A[:, :-1]``."""
    minus_A = -A
    cell_sum = 0.0
    for xt, yt, q, cells, tmp in blocks:
        np.matmul(minus_A, xt, out=q)  # -z, exactly: negation is exact
        # softplus(z) - y*z = log1p(exp(-|z|)) + max(z, 0) - y*z
        # with q = -z: max(z, 0) = -min(q, 0) and -y*z = y*q
        np.negative(np.abs(q, out=cells), out=cells)
        np.log1p(np.exp(cells, out=cells), out=cells)
        cells -= np.minimum(q, 0.0, out=tmp)
        cells += np.multiply(yt, q, out=tmp)
        cell_sum += cells.sum()
    W = A[:, :-1]
    return float(cell_sum / n + 0.5 * l2 * (W * W).sum())


def train(features: np.ndarray, labels: np.ndarray, config: TrainConfig = TrainConfig()) -> LogRegModel:
    """Fit one independent logistic regression per class by full-batch descent.

    Classes whose labels are all identical get a bias-only constant model at
    the smoothed base rate. Raises ``ValueError`` at a label that is not 0 or
    1 or a feature that is negative, NaN or infinite (see
    :func:`~labelaudit.data.check_features`), and
    :class:`TrainingDivergedError` at the first epoch whose loss is
    non-finite (e.g. a too-large learning rate), whether or not that epoch is
    recorded in ``loss_history``.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or labels.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ValueError(
            f"incompatible shapes: features {features.shape}, labels {labels.shape}"
        )
    check_binary_labels(labels)
    check_features(features)
    return _fit(np.log1p(features),
                np.ascontiguousarray(labels.T, dtype=LABEL_DTYPE), config)[0]


def _fit(logged: np.ndarray, labels_t: np.ndarray, config: TrainConfig, record: bool = True,
         row_sets: list[tuple[np.ndarray, np.ndarray]] | None = None) -> list[LogRegModel]:
    """:func:`train` on ``log1p(features)`` and the class-major ``(K, N)`` int8
    0/1 labels, once for each training set of ``row_sets`` (its row indices
    and its count of positives per class; with ``None``, one fit on every
    row), all in one epoch loop.

    The training sets must have one size and the same number of non-constant
    classes. Each is gathered, standardized straight into its slab of every
    row block and dropped before the next. With ``record=False`` no loss is
    recorded: :func:`_loss` runs only for the fits and epochs whose bound
    cannot show it finite. A divergence raises the epoch of the lowest fit
    that diverges, as fitting them one after another would."""
    d = logged.shape[1]
    k = labels_t.shape[0]
    n_fits = 1 if row_sets is None else len(row_sets)
    subsets = ([(logged, labels_t, labels_t.sum(axis=1))] if row_sets is None else
               ((logged.take(rows, axis=0), labels_t.take(rows, axis=1), positives)
                for rows, positives in row_sets))
    fits = []  # per fit: mean, scale, positives, active classes
    for f, (sub, sub_labels, positives) in enumerate(subsets):
        n = sub.shape[0]
        if n < 2:
            raise ValueError("need at least 2 examples to train")
        mean = sub.mean(axis=0)
        scale = sub.std(axis=0)
        scale = np.where(scale < 1e-12, 1.0, scale)
        active = (positives > 0) & (positives < n)
        if f == 0:
            ka = int(active.sum())
            spans = _row_blocks(n, ka)
            rows = max(hi - lo for lo, hi in spans)
            scratch = np.empty(n_fits * ka * rows)
            loss_scratch = np.empty((2, ka * rows))
            # per block: (F, ., m) slabs of the standardized features (D+1, m)
            # above a row of ones, their transpose, a float copy of the labels
            # (K, m), both class-major, and a (K, m) scratch view for each fit,
            # and two (K, m) scratch views for one fit's loss
            blocks = []
            for lo, hi in spans:
                xt = np.empty((n_fits, d + 1, hi - lo))
                blocks.append((xt, xt.transpose(0, 2, 1), np.empty((n_fits, ka, hi - lo)),
                               scratch[:n_fits * ka * (hi - lo)].reshape(n_fits, ka, hi - lo),
                               *(buf[:ka * (hi - lo)].reshape(ka, hi - lo)
                                 for buf in loss_scratch)))
            x_abs_sums = np.empty(n_fits)
        if ka < k:
            sub_labels = sub_labels[active]
        for (lo, hi), (xt, _, yt, *_) in zip(spans, blocks):
            _standardized_block(sub[lo:hi], mean, scale, out=xt[f])
            yt[f] = sub_labels[:, lo:hi]
        x_abs_sums[f] = max(np.abs(xt[f]).sum(axis=0).max() for xt, *_ in blocks)
        fits.append((mean, scale, positives, active))
    del sub, sub_labels

    A = np.zeros((n_fits, ka, d + 1))  # weights A[f, :, :d], biases A[f, :, d]
    minus_A, G, decayed = (np.empty_like(A) for _ in range(3))
    decay = np.append(np.full(d, config.l2), 0.0)  # the bias is not penalized
    x_abs_max = x_abs_sums.max()
    losses = []
    live = list(range(n_fits))
    diverged = {}  # fit: the epoch of its first non-finite loss
    # overflow here is the divergence signal, which the loss reports as an error
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs + 1):
            recorded = record and (epoch == config.epochs or epoch % config.loss_every == 0)
            # the stack's bound covers every fit's, so a fit's own bound is
            # taken only when the stack's fails
            if recorded or not _bound_holds(_logit_bound(x_abs_max, A), n, ka, d, config.l2):
                for f in [f for f in live if recorded or not _bound_holds(
                        _logit_bound(x_abs_sums[f], A[f]), n, ka, d, config.l2)]:
                    loss = _loss(A[f], [(xt[f], yt[f], q[f], cells, tmp)
                                        for xt, _, yt, q, cells, tmp in blocks], n, config.l2)
                    if not np.isfinite(loss):
                        diverged[f] = epoch
                        live.remove(f)
                    elif recorded:
                        losses.append(loss)
            # the lowest diverging fit names the epoch once no fit before it
            # can still diverge
            if diverged and (epoch == config.epochs or min(diverged) < min(live, default=n_fits)):
                raise TrainingDivergedError(f"non-finite loss at epoch {diverged[min(diverged)]}")
            if epoch == config.epochs:
                break
            np.negative(A, out=minus_A)
            G.fill(0.0)
            for xt, xt_t, yt, q, _, _ in blocks:
                if epoch == 0:  # A = 0, so every logistic is 1/(1 + exp(0)) = 1/2
                    np.subtract(0.5, yt, out=q)  # the residual
                else:
                    np.matmul(minus_A, xt, out=q)  # -z, exactly: negation is exact
                    _sigmoid_of_negated(q)
                    q -= yt  # the residual
                G += q @ xt_t  # the weight gradient, and the bias's in column d
            # A -= learning_rate * (G / n + decay * A), in G's buffer
            G /= n
            G += np.multiply(decay, A, out=decayed)
            G *= config.learning_rate
            A -= G

    models = []
    for f, (mean, scale, positives, active) in enumerate(fits):
        weights = np.zeros((k, d))
        biases = np.zeros(k)
        weights[active] = A[f, :, :d]
        biases[active] = A[f, :, d]
        for j in np.flatnonzero(~active):
            biases[j] = _base_rate_bias(positives[j], n)
        models.append(LogRegModel(weights, biases, mean, scale, np.array(losses), config))
    return models


def predict_proba(model: LogRegModel, features: np.ndarray) -> np.ndarray:
    """Per-class sigmoid probabilities; rows are not normalized across classes.

    Raises ``ValueError`` at a feature that is negative, NaN or infinite.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.n_features:
        raise ValueError(
            f"features shape {features.shape} incompatible with model width {model.n_features}"
        )
    check_features(features)
    return _predict_logged(model, np.log1p(features))


def _predict_logged(model: LogRegModel, logged: np.ndarray) -> np.ndarray:
    X = logged - model.feature_mean
    X /= model.feature_scale
    q = X @ model.weights.T
    q += model.biases
    np.negative(q, out=q)
    with np.errstate(over="ignore"):
        _sigmoid_of_negated(q)
    return np.clip(q, _PROB_CLIP, 1.0 - _PROB_CLIP, out=q)


def fold_assignments(n_examples: int, cv: CVConfig) -> np.ndarray:
    """Disjoint, exhaustive, seed-deterministic fold index per example."""
    if not 2 <= cv.n_folds <= n_examples:
        raise ValueError(f"n_folds must be in [2, {n_examples}], got {cv.n_folds}")
    order = np.random.default_rng(cv.seed).permutation(n_examples)
    folds = np.empty(n_examples, dtype=np.int64)
    folds[order] = np.arange(n_examples) % cv.n_folds
    return folds


def check_training_rows(n_examples: int, n_folds: int) -> None:
    """``ValueError`` unless ``n_folds`` is an integer in ``[2, n_examples]``
    and every fold leaves at least 2 examples to train on.

    The largest of ``n_folds`` folds holds ``ceil(n_examples / n_folds)``
    examples, so the smallest training set holds the rest.
    """
    if not is_integer(n_folds) or not 2 <= n_folds <= n_examples:
        raise ValueError(f"n_folds must be an integer in [2, {n_examples}], got {n_folds!r}")
    rows = n_examples - math.ceil(n_examples / n_folds)
    if rows < 2:
        raise ValueError(f"n_folds={n_folds} over {n_examples} examples leaves {rows} "
                         f"to train on; need at least 2 examples to train")


def _fold_stacks(folds: np.ndarray, n_folds: int, labels_t: np.ndarray, d: int):
    """The folds in order, each with its training rows and their positives
    per class, grouped into the stacks that :func:`_fit` trains together.
    A fold joins the stack before it when both train on a single row block
    of the same size with the same number of non-constant classes, and the
    stack's slabs and scratch stay within ``_STACK_CELLS`` cells. A fold
    whose training rows span several blocks trains alone."""
    positives = labels_t.sum(axis=1)  # exact: int8 sums widen to the platform integer
    stack, shape = [], None
    for f in range(n_folds):
        held_out = np.flatnonzero(folds == f)
        n = folds.size - held_out.size
        kept = positives - labels_t.take(held_out, axis=1).sum(axis=1)
        ka = int(np.count_nonzero((kept > 0) & (kept < n)))
        cells = n * (d + 1 + 2 * ka)  # a fit's features, float labels and gradient scratch
        if stack and not (shape == (n, ka) and (len(stack) + 1) * cells <= _STACK_CELLS):
            yield stack
            stack = []
        stack.append((f, np.flatnonzero(folds != f), kept))
        shape = (n, ka) if len(_row_blocks(n, ka)) == 1 else None
    yield stack


def cross_val_pred_probs(
    dataset: MultiLabelDataset,
    cv: CVConfig = CVConfig(),
    config: TrainConfig = TrainConfig(),
) -> np.ndarray:
    """Out-of-sample probabilities: each example is predicted by the model
    trained on the other folds; scaling statistics come from training folds only.
    The labels need no check here: ``MultiLabelDataset`` holds only 0/1."""
    if dataset.features is None:
        raise ValueError("dataset has no features to train on")
    check_training_rows(dataset.n_examples, cv.n_folds)
    folds = fold_assignments(dataset.n_examples, cv)
    # elementwise, so each fold's rows hold the bits train() would compute
    logged = np.log1p(dataset.features)
    labels_t = np.ascontiguousarray(dataset.given_labels.T)  # (K, N), int8 as held
    probs = np.empty((dataset.n_examples, dataset.n_classes))
    for stack in _fold_stacks(folds, cv.n_folds, labels_t, logged.shape[1]):
        models = _fit(logged, labels_t, config, record=False,
                      row_sets=[(rows, kept) for _, rows, kept in stack])
        for (f, _, _), model in zip(stack, models):
            held_out = folds == f
            probs[held_out] = _predict_logged(model, logged[held_out])
    return probs
