"""Synthetic multi-label bag-of-words datasets with class-conditional label noise.

Generation: each class owns a word distribution drawn once from a uniform
Dirichlet over the vocabulary. Per example, a Poisson label count (resampled
while it exceeds K; zero-label examples are kept) picks that many distinct
classes, and a Poisson-length document is drawn from the mixture of the
chosen classes' word distributions. The classes are picked by random keys:
row i's labels are the classes of the c_i smallest of row i of one uniform
N x K draw, a uniform random subset of exactly c_i classes. The word counts
are drawn as independent Poisson(lambda * p_d) counts, lambda the expected
document length and p the row's mixture: the same distribution as a
Poisson(lambda) length split multinomially over p.

Noise: per class k a 2x2 row-stochastic flip matrix is built from a sampled
trace; flips are proposed independently per (example, class) and capped at a
maximum number of errors per example, an example over the cap keeping a
uniform subset of its proposed flips picked by random keys, as its labels are.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import LABEL_DTYPE, MultiLabelDataset, _read_only, check_binary_labels, check_count

_BLOCK_CELLS = 32768  # cells per row block of the key and noise draws: temporaries stay small

# numpy's largest Poisson mean (``lam``): int64 max - 10 sqrt(int64 max)
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


@dataclass(frozen=True)
class GenConfig:
    """Shape and scale of one generated dataset group."""

    n_samples: int
    n_test: int
    n_features: int
    n_classes: int
    expected_labels_per_example: float
    expected_doc_length: float = 500.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_samples", "n_test", "n_features", "n_classes"):
            check_count(name, getattr(self, name), minimum=1)
        check_count("seed", self.seed)
        if not 0 < self.expected_labels_per_example <= self.n_classes:
            raise ValueError(
                f"expected_labels_per_example must be in (0, {self.n_classes}], "
                f"got {self.expected_labels_per_example}"
            )
        if not 0 < self.expected_doc_length < np.inf:  # False at NaN as well
            raise ValueError(
                f"expected_doc_length must be positive and finite, got {self.expected_doc_length}"
            )
        if self.expected_doc_length > POISSON_LAM_MAX:
            raise ValueError(
                f"expected_doc_length must be at most {POISSON_LAM_MAX!r} (the largest "
                f"Poisson mean numpy draws from), got {self.expected_doc_length}"
            )


SMALL = GenConfig(n_samples=5000, n_test=1000, n_features=3, n_classes=4,
                  expected_labels_per_example=2.0)
LARGE = GenConfig(n_samples=30000, n_test=7500, n_features=20, n_classes=50,
                  expected_labels_per_example=5.0)


@dataclass(frozen=True)
class NoiseSpec:
    """Sampled per-class noise: traces plus the 2x2 flip matrices built from them."""

    gamma_shape: float = 2.0
    gamma_scale: float = 0.01
    max_errors_per_example: int = 3
    seed: int = 0
    traces: np.ndarray = field(default_factory=lambda: np.zeros(0))
    matrices: np.ndarray = field(default_factory=lambda: np.zeros((0, 2, 2)))

    def __post_init__(self):
        _check_gamma(self.gamma_shape, self.gamma_scale)
        check_count("max_errors_per_example", self.max_errors_per_example)
        traces = _read_only(self.traces, np.float64)
        matrices = _read_only(self.matrices, np.float64)
        if traces.size and not ((traces > 0) & (traces <= 2)).all():
            raise ValueError("every trace must lie in (0, 2]")
        if matrices.size:
            if matrices.shape != (traces.size, 2, 2):
                raise ValueError(f"matrices shape {matrices.shape} does not match {traces.size} traces")
            if not np.allclose(matrices.sum(axis=2), 1.0, atol=1e-9):
                raise ValueError("noise matrix rows must sum to 1")
        object.__setattr__(self, "traces", traces)
        object.__setattr__(self, "matrices", matrices)


def _check_gamma(gamma_shape: float, gamma_scale: float) -> None:
    # an infinite parameter makes every draw inf, so every trace 2: no noise at all
    if not (0 < gamma_shape < np.inf and 0 < gamma_scale < np.inf):  # False at NaN as well
        raise ValueError(f"gamma parameters must be positive and finite, "
                         f"got shape {gamma_shape!r}, scale {gamma_scale!r}")


def traces_from_draws(draws: np.ndarray) -> np.ndarray:
    """Map raw per-class gamma draws to noise-matrix traces in (0, 2].

    With K = len(draws) and rank_k the 1-based ascending rank of draw k, each
    trace is T_k = max(2 Y_k, 2 - 2 Y_k) where
    Y_k = (1 - draw_k) * (1 - exp(-(rank_k - 1)^2 / K) / (2K)). The rank term
    re-weights classes so the ones with the largest draws get the strongest
    noise. Y is clamped to [0, 1], which only matters in the astronomically
    unlikely tail draw_k > 1 and keeps every trace in (0, 2].
    """
    x = np.asarray(draws, dtype=np.float64)
    n_classes = x.shape[0]
    if n_classes < 1:
        raise ValueError("need at least one draw")
    ranks = np.empty(n_classes, dtype=np.int64)
    ranks[np.argsort(x, kind="stable")] = np.arange(1, n_classes + 1)
    damping = 1.0 - np.exp(-((ranks - 1) ** 2) / n_classes) / (2.0 * n_classes)
    y = np.clip((1.0 - x) * damping, 0.0, 1.0)
    return np.maximum(2.0 * y, 2.0 - 2.0 * y)


def sample_noise_traces(
    n_classes: int,
    gamma_shape: float = NoiseSpec.gamma_shape,
    gamma_scale: float = NoiseSpec.gamma_scale,
    seed: int = 0,
) -> np.ndarray:
    """Sample one trace per class in (0, 2]; trace 2 means a noise-free class."""
    if n_classes < 1:
        raise ValueError("n_classes must be >= 1")
    _check_gamma(gamma_shape, gamma_scale)
    rng = np.random.default_rng(seed)
    return traces_from_draws(rng.gamma(shape=gamma_shape, scale=gamma_scale, size=n_classes))


def build_noise_matrix(trace: float) -> np.ndarray:
    """Symmetric 2x2 row-stochastic matrix with the given trace.

    Both diagonal entries are trace/2, so the per-class flip probability is
    1 - trace/2 regardless of the binary label value.
    """
    if not 0.0 < trace <= 2.0:
        raise ValueError(f"trace must be in (0, 2], got {trace}")
    keep = trace / 2.0
    return np.array([[keep, 1.0 - keep], [1.0 - keep, keep]])


def draw_noise_spec(
    n_classes: int,
    gamma_shape: float = NoiseSpec.gamma_shape,
    gamma_scale: float = NoiseSpec.gamma_scale,
    max_errors_per_example: int = NoiseSpec.max_errors_per_example,
    seed: int = 0,
    symmetric: bool = True,
) -> NoiseSpec:
    """Sample traces and build the per-class flip matrices in one step.

    Each matrix splits its trace t across the diagonal: it keeps label 0
    with probability ``keep0`` and label 1 with the rest of t, and each row
    sums to 1. A symmetric matrix takes ``keep0 = t / 2``, which gives the
    bits of :func:`build_noise_matrix` (every trace lies in [1, 2], where
    both t/2 and t - t/2 are exact). An asymmetric one draws ``keep0``
    uniformly from ``[max(0, t - 1), min(1, t)]``, so that every entry lies
    in [0, 1]: one draw from ``default_rng(seed + 1)`` takes every class's
    split, in class order.
    """
    traces = sample_noise_traces(n_classes, gamma_shape, gamma_scale, seed)
    if symmetric:
        keep0 = traces / 2.0
    else:
        rng = np.random.default_rng(seed + 1)
        keep0 = rng.uniform(np.maximum(0.0, traces - 1.0), np.minimum(1.0, traces))
    keep1 = traces - keep0
    matrices = np.stack([keep0, 1.0 - keep0, 1.0 - keep1, keep1], axis=1).reshape(-1, 2, 2)
    return NoiseSpec(
        gamma_shape=gamma_shape,
        gamma_scale=gamma_scale,
        max_errors_per_example=max_errors_per_example,
        seed=seed,
        traces=traces,
        matrices=matrices,
    )


def _mark_smallest(keys: np.ndarray, counts: np.ndarray, out: np.ndarray) -> None:
    """Set ``out[i]`` to 1 at the ``counts[i]`` smallest keys of row ``i``, else 0.

    One sort of each row gives its c-th smallest key, and every key up to it
    is marked. A key equal to the c-th but sorted after it would be marked
    too, so each row whose marks do not sum to its count is marked again by
    stable rank: of equal keys, the one in the lower column ranks first.
    Uniform float64 keys tie in about one row of 50 keys in 1e13.
    """
    kth = np.take_along_axis(np.sort(keys, axis=1), np.maximum(counts - 1, 0)[:, None], axis=1)
    kth[counts == 0] = -np.inf
    np.less_equal(keys, kth, out=out)
    tied = np.flatnonzero(out.sum(axis=1) != counts)
    if tied.size:
        ranks = np.argsort(np.argsort(keys[tied], axis=1, kind="stable"), axis=1)
        out[tied] = ranks < counts[tied, None]


def gen_multilabel(config: GenConfig) -> MultiLabelDataset:
    """Generate a clean dataset (true labels only; no noise applied yet).

    Deterministic given ``config.seed``. Returned ``given_labels`` equal
    ``true_labels`` (both ``LABEL_DTYPE``) until noise is injected.
    """
    rng = np.random.default_rng(config.seed)
    n, d, k = config.n_samples, config.n_features, config.n_classes

    word_dists = rng.dirichlet(np.ones(d), size=k)  # one word distribution per class

    # Poisson label counts, resampled while they exceed K; zeros are kept.
    label_counts = rng.poisson(config.expected_labels_per_example, size=n)
    over = label_counts > k
    while over.any():
        label_counts[over] = rng.poisson(config.expected_labels_per_example, size=int(over.sum()))
        over = label_counts > k
    # Row i's labels are the classes of the c_i smallest of row i of
    # rng.random((N, K)), a uniform subset of exactly c_i classes. The keys
    # are drawn in row blocks: the generator yields the same stream drawn
    # whole or block by block, so the labels do not depend on the block size.
    labels = np.empty((n, k), dtype=LABEL_DTYPE)
    rows = max(1, _BLOCK_CELLS // k)
    for start in range(0, n, rows):
        block = labels[start:start + rows]
        _mark_smallest(rng.random(block.shape), label_counts[start:start + rows], block)

    # Words drawn from the mixture of each example's class distributions;
    # unlabeled examples fall back to a uniform mixture over the vocabulary.
    # A Poisson(lambda) length split multinomially over the mixture p gives
    # independent Poisson(lambda * p_d) counts, so each cell is drawn as one.
    # Every p_d <= 1, so no mean exceeds expected_doc_length.
    mixtures = labels @ word_dists
    counts = label_counts.astype(np.float64)
    mixtures = np.where(counts[:, None] > 0, mixtures / np.maximum(counts, 1.0)[:, None], 1.0 / d)
    features = rng.poisson(config.expected_doc_length * mixtures)  # made float64 by the dataset

    ids = [f"ex{i}" for i in range(n)]
    return MultiLabelDataset(labels, ids, true_labels=labels, features=features)


def inject_noise(
    true_labels: np.ndarray,
    matrices: np.ndarray,
    max_errors: int = 3,
    seed: int = 0,
) -> np.ndarray:
    """Flip binary labels class-conditionally, capped at max_errors per example.

    Each (example, class) flips independently with the off-diagonal
    probability of that class's matrix row for the true value. When more
    than ``max_errors`` classes of one example would flip, a uniformly
    random subset of exactly ``max_errors`` flips is kept, so the per-class
    marginal noise is preserved as closely as the cap allows. The noisy
    labels are returned as ``LABEL_DTYPE`` whatever the dtype of
    ``true_labels``.

    The flips are proposed by one uniform per cell, drawn and compared in
    row blocks of about ``_BLOCK_CELLS`` cells: the generator yields the
    same stream whether it draws N x K numbers at once or block by block,
    and no N x K float array is made. The capped rows then take their kept
    flips by random keys, the rule :func:`gen_multilabel` picks labels by:
    one ``rng.random((n_capped, K))`` draw, in row order, sets each capped
    row's keys, a key that proposes no flip is ``+inf``, and the
    ``max_errors`` smallest keys of the row are kept.
    """
    truth = np.asarray(true_labels)
    matrices = np.asarray(matrices, dtype=np.float64)
    if truth.ndim != 2:
        raise ValueError(f"true_labels must be 2-D, got shape {truth.shape}")
    n, k = truth.shape
    if matrices.shape != (k, 2, 2):
        raise ValueError(f"need {k} 2x2 matrices, got shape {matrices.shape}")
    if not ((matrices >= 0.0) & (matrices <= 1.0)).all():  # False at NaN as well
        raise ValueError("noise matrix entries must lie in [0, 1]")
    check_count("max_errors", max_errors)
    check_binary_labels(truth)

    rng = np.random.default_rng(seed)
    flips = np.empty((n, k), dtype=bool)
    rows = max(1, _BLOCK_CELLS // max(k, 1))
    for start in range(0, n, rows):
        block = truth[start:start + rows]
        flip_prob = np.where(block == 1, matrices[:, 1, 0], matrices[:, 0, 1])
        np.less(rng.random(block.shape), flip_prob, out=flips[start:start + rows])
    capped = np.flatnonzero(flips.sum(axis=1) > max_errors)
    keys = rng.random((capped.size, k))
    keys[~flips[capped]] = np.inf
    kept = np.empty(keys.shape, dtype=bool)
    _mark_smallest(keys, np.full(capped.size, max_errors), kept)
    flips[capped] = kept

    noisy = truth.astype(LABEL_DTYPE)  # exact: checked 0/1 above
    noisy ^= flips
    return noisy


def save_noise_spec_json(path, spec: NoiseSpec) -> None:
    """Write every ``NoiseSpec`` field, in field order; arrays as nested lists and
    numpy integers as the ints they hold."""
    Path(path).write_text(json.dumps({f.name: getattr(spec, f.name) for f in fields(NoiseSpec)},
                                     indent=2, default=lambda value: value.tolist()) + "\n")


def load_noise_spec_json(path) -> NoiseSpec:
    """Read what :func:`save_noise_spec_json` writes; a missing field raises ``KeyError``."""
    obj = json.loads(Path(path).read_text())
    return NoiseSpec(**{f.name: obj[f.name] for f in fields(NoiseSpec)})
