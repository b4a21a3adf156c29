"""Synthetic multi-label bag-of-words datasets with class-conditional label noise.

Generation: each class owns a word distribution drawn once from a uniform
Dirichlet over the vocabulary. Per example, a Poisson label count (resampled
while it exceeds K; zero-label examples are kept) picks that many distinct
classes, and a Poisson-length document is drawn from the mixture of the
chosen classes' word distributions.

Noise: per class k a 2x2 row-stochastic flip matrix is built from a sampled
trace; flips are applied independently per (example, class) and capped at a
maximum number of errors per example.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import MultiLabelDataset, check_binary_labels


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
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 < self.expected_labels_per_example <= self.n_classes:
            raise ValueError(
                f"expected_labels_per_example must be in (0, {self.n_classes}], "
                f"got {self.expected_labels_per_example}"
            )
        if self.expected_doc_length <= 0:
            raise ValueError("expected_doc_length must be positive")


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
        _check_cap("max_errors_per_example", self.max_errors_per_example)
        traces = np.array(self.traces, dtype=np.float64, copy=True)
        matrices = np.array(self.matrices, dtype=np.float64, copy=True)
        if traces.size and not ((traces > 0) & (traces <= 2)).all():
            raise ValueError("every trace must lie in (0, 2]")
        if matrices.size:
            if matrices.shape != (traces.size, 2, 2):
                raise ValueError(f"matrices shape {matrices.shape} does not match {traces.size} traces")
            if not np.allclose(matrices.sum(axis=2), 1.0, atol=1e-9):
                raise ValueError("noise matrix rows must sum to 1")
        traces.setflags(write=False)
        matrices.setflags(write=False)
        object.__setattr__(self, "traces", traces)
        object.__setattr__(self, "matrices", matrices)


def _check_gamma(gamma_shape: float, gamma_scale: float) -> None:
    if not (gamma_shape > 0 and gamma_scale > 0):  # False at NaN as well
        raise ValueError("gamma parameters must be positive")


def _check_cap(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0")


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
    n_classes: int, gamma_shape: float = 2.0, gamma_scale: float = 0.01, seed: int = 0
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


def _asymmetric_noise_matrix(trace: float, rng: np.random.Generator) -> np.ndarray:
    """Random split of the trace across the two diagonal entries."""
    lo = max(0.0, trace - 1.0)
    hi = min(1.0, trace)
    keep0 = rng.uniform(lo, hi)
    keep1 = trace - keep0
    return np.array([[keep0, 1.0 - keep0], [1.0 - keep1, keep1]])


def draw_noise_spec(
    n_classes: int,
    gamma_shape: float = 2.0,
    gamma_scale: float = 0.01,
    max_errors_per_example: int = 3,
    seed: int = 0,
    symmetric: bool = True,
) -> NoiseSpec:
    """Sample traces and build the per-class flip matrices in one step."""
    traces = sample_noise_traces(n_classes, gamma_shape, gamma_scale, seed)
    if symmetric:
        matrices = np.stack([build_noise_matrix(t) for t in traces])
    else:
        rng = np.random.default_rng(seed + 1)
        matrices = np.stack([_asymmetric_noise_matrix(t, rng) for t in traces])
    return NoiseSpec(
        gamma_shape=gamma_shape,
        gamma_scale=gamma_scale,
        max_errors_per_example=max_errors_per_example,
        seed=seed,
        traces=traces,
        matrices=matrices,
    )


def gen_multilabel(config: GenConfig) -> MultiLabelDataset:
    """Generate a clean dataset (true labels only; no noise applied yet).

    Deterministic given ``config.seed``. Returned ``given_labels`` equal
    ``true_labels`` until noise is injected.
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
    labels = np.zeros((n, k), dtype=np.int64)
    for i in range(n):
        if label_counts[i]:
            labels[i, rng.choice(k, size=label_counts[i], replace=False)] = 1

    # Words drawn from the mixture of each example's class distributions;
    # unlabeled examples fall back to a uniform mixture over the vocabulary.
    mixtures = labels @ word_dists
    counts = label_counts.astype(np.float64)
    mixtures = np.where(counts[:, None] > 0, mixtures / np.maximum(counts, 1.0)[:, None], 1.0 / d)
    doc_lengths = rng.poisson(config.expected_doc_length, size=n)
    features = rng.multinomial(doc_lengths, mixtures).astype(np.float64)

    ids = tuple(f"ex{i}" for i in range(n))
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
    marginal noise is preserved as closely as the cap allows.

    All flips are proposed in one N x K uniform draw. After it, only the
    capped rows draw from the RNG, one ``choice`` each in row order; every
    other flip is applied in one masked pass over the matrix.
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
    _check_cap("max_errors", max_errors)
    check_binary_labels(truth)

    rng = np.random.default_rng(seed)
    flip_prob = np.where(truth == 1, matrices[:, 1, 0][None, :], matrices[:, 0, 1][None, :])
    flips = rng.random((n, k)) < flip_prob
    for i in np.flatnonzero(flips.sum(axis=1) > max_errors):
        kept = rng.choice(np.flatnonzero(flips[i]), size=max_errors, replace=False)
        flips[i] = False
        flips[i, kept] = True

    noisy = truth.copy()
    noisy[flips] = 1 - noisy[flips]
    return noisy


def make_noisy_dataset(config: GenConfig, noise: NoiseSpec) -> MultiLabelDataset:
    """Generate a dataset and corrupt its given labels per the noise spec."""
    clean = gen_multilabel(config)
    noisy = inject_noise(
        clean.true_labels, noise.matrices, noise.max_errors_per_example, noise.seed
    )
    return MultiLabelDataset(
        noisy, clean.example_ids, true_labels=clean.true_labels, features=clean.features
    )


def save_noise_spec_json(path, spec: NoiseSpec) -> None:
    Path(path).write_text(json.dumps({
        "gamma_shape": spec.gamma_shape,
        "gamma_scale": spec.gamma_scale,
        "max_errors_per_example": spec.max_errors_per_example,
        "seed": spec.seed,
        "traces": spec.traces.tolist(),
        "matrices": spec.matrices.tolist(),
    }, indent=2) + "\n")


def load_noise_spec_json(path) -> NoiseSpec:
    obj = json.loads(Path(path).read_text())
    return NoiseSpec(
        gamma_shape=obj["gamma_shape"],
        gamma_scale=obj["gamma_scale"],
        max_errors_per_example=obj["max_errors_per_example"],
        seed=obj["seed"],
        traces=np.array(obj["traces"]),
        matrices=np.array(obj["matrices"]),
    )
