"""The four benchmark workloads: set-up, the timed op, and the op's output check.

Every workload builds its inputs from the workload seed alone. Per-op seeds
come from it through ``bench.derive_seeds``, so a seed names the same inputs
on every machine. ``op`` is the only timed call; ``verify`` runs after it,
untimed, and returns a :class:`Verdict` for that op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from labelaudit import bench, cli
from labelaudit.confident import flag_multilabel, save_flag_summary_json, save_flags_csv
from labelaudit.data import (
    load_features_csv, load_labels_csv, save_labels_csv, save_probs_csv, save_scores_csv,
)
from labelaudit.metrics import ap_at_t, error_truth
from labelaudit.model import TrainConfig
from labelaudit.scoring import PoolingMethod, score_examples
from labelaudit.synth import (
    LARGE, draw_noise_spec, gen_multilabel, inject_noise, load_noise_spec_json,
)

# The CLI workloads keep the LARGE preset's classes, features and label
# density with fewer examples, so that one run holds enough ops for a steady
# median.
AUDIT_EXAMPLES = 5_000
GEN_EXAMPLES = 10_000
LARGE_BENCH_EPOCHS = 5
EMA = PoolingMethod("ema")
BOUNDED_METRICS = ("auprc", "ap_at_t", "ap2_at_t", "ap3_at_t")
SIGNED_METRICS = ("spearman", "neg_spearman")


@dataclass(frozen=True)
class Verdict:
    """What the untimed check found about one op."""

    failure: str | None      # None when every output is correct
    ema_ap_at_t: float       # AP@T of EMA scores against the true errors
    flag_f1: float           # F1 of the confident-learning flags
    fingerprint: object      # equal for equal outputs; compares traced and untraced ops


def base_seed(seed: int) -> int:
    """Spread workload seeds apart so runs with nearby seeds share no replicate."""
    return 1000 * seed


def flag_f1(flags: np.ndarray, error_flags: np.ndarray) -> float:
    tp = int((flags & error_flags).sum())
    n_flagged = int(flags.sum())
    n_errors = int(error_flags.sum())
    if tp == 0:
        return 0.0
    precision, recall = tp / n_flagged, tp / n_errors
    return 2 * precision * recall / (precision + recall)


def draw_probs(true_labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Stand-in for a user's classifier: noisy logits around the true labels."""
    logits = np.where(true_labels == 1, 2.0, -2.0) + rng.normal(0.0, 1.5, true_labels.shape)
    return 1.0 / (1.0 + np.exp(-logits))


def oracle_quality(noisy: np.ndarray, truth: np.ndarray, probs: np.ndarray) -> tuple[float, float]:
    """EMA AP@T and flag F1 of the library on given labels and probabilities."""
    errors = error_truth(noisy, truth)
    scores = score_examples(noisy, probs, EMA).values
    flags = flag_multilabel(noisy, probs).example_flags
    return ap_at_t(scores, errors).value, flag_f1(flags, errors.error_flags)


def _digest(paths) -> tuple[str, ...]:
    return tuple(hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths)


def _quiet_cli(argv: list[str]) -> int:
    """``cli.main`` with its one-line progress message kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class ReplicateWorkload:
    """One op is ``bench.run_replicate(plan, r)``: the researcher's replicate loop."""

    entry = "bench"

    def __init__(self, name: str, plan: bench.BenchmarkPlan):
        self.name = name
        self.plan = plan
        self.n_examples = plan.gen_config.n_samples
        self.noise_matrices = None  # the traced op captures them from draw_noise_spec

    def setup(self, workdir: Path) -> None:
        """Nothing to build: every replicate generates its own data."""

    def op(self, i: int) -> bench.ReplicateResult:
        return bench.run_replicate(self.plan, i)

    def verify(self, i: int, result: bench.ReplicateResult) -> Verdict:
        failure = check_replicate(self.plan, result)
        if failure is not None:
            return Verdict(failure, math.nan, math.nan, result)
        ema = next(row[7] for row in result.metric_rows
                   if row[3] == "ema" and row[4] == "ap_at_t")
        return Verdict(None, ema, result.flag_row[-1], result)


def check_replicate(plan: bench.BenchmarkPlan, result: bench.ReplicateResult) -> str | None:
    """No error, methods x metrics rows, AP/AUPRC in [0,1], Spearman in [-1,1]."""
    if result.error is not None:
        return f"replicate {result.replicate} failed: {result.error}"
    expected = len(plan.methods) * len(plan.metrics)
    if len(result.metric_rows) != expected:
        return f"{len(result.metric_rows)} metric rows, expected {expected}"
    for row in result.metric_rows:
        metric, value = row[4], row[7]
        lo = 0.0 if metric in BOUNDED_METRICS else -1.0
        if metric not in BOUNDED_METRICS + SIGNED_METRICS or not lo <= value <= 1.0:
            return f"metric row out of range: {row}"
    f1 = result.flag_row[-1] if len(result.flag_row) == len(bench.FLAG_HEADER) else math.nan
    if not 0.0 <= f1 <= 1.0:
        return f"flag row malformed: {result.flag_row}"
    return None


class AuditCsvWorkload:
    """One op is ``labelaudit score`` then ``labelaudit flag`` on fixed CSV files.

    Set-up writes ``labels.csv`` and ``probs.csv`` and, from in-memory library
    results on the same arrays, the reference outputs the op must reproduce
    byte for byte.
    """

    entry = "cli"
    outputs = ("scores.csv", "flags.csv", "flag_summary.json")

    def __init__(self, seed: int, n_examples: int = AUDIT_EXAMPLES):
        self.seed = seed
        self.n_examples = n_examples
        self.noise_matrices = None

    def setup(self, workdir: Path) -> None:
        self.dir = workdir
        gen_seed, noise_seed, probs_seed = bench.derive_seeds(base_seed(self.seed), 0)
        clean = gen_multilabel(replace(LARGE, n_samples=self.n_examples, seed=gen_seed))
        noise = draw_noise_spec(LARGE.n_classes, seed=noise_seed)
        noisy = inject_noise(clean.true_labels, noise.matrices,
                             noise.max_errors_per_example, noise_seed)
        probs = draw_probs(clean.true_labels, np.random.default_rng(probs_seed))
        ids = clean.example_ids
        save_labels_csv(workdir / "labels.csv", ids, noisy)
        save_probs_csv(workdir / "probs.csv", ids, probs)

        ref = workdir / "reference"
        ref.mkdir(exist_ok=True)
        scores = score_examples(noisy, probs, EMA)
        save_scores_csv(ref / "scores.csv", ids, scores.values)
        report = flag_multilabel(noisy, probs)
        save_flags_csv(ref / "flags.csv", ids, report)
        save_flag_summary_json(ref / "flag_summary.json", report)
        self.reference = _digest(ref / name for name in self.outputs)
        self.noise_matrices = noise.matrices
        errors = error_truth(noisy, clean.true_labels)
        self.quality = (ap_at_t(scores.values, errors).value,
                        flag_f1(report.example_flags, errors.error_flags))

    def op(self, i: int) -> tuple[int, int]:
        d = self.dir
        common = ["--labels", str(d / "labels.csv"), "--probs", str(d / "probs.csv")]
        score_rc = _quiet_cli(["score", *common, "--out", str(d / "scores.csv"),
                               "--method", "ema"])
        flag_rc = _quiet_cli(["flag", *common, "--out", str(d / "flags.csv"),
                              "--summary-json", str(d / "flag_summary.json")])
        return score_rc, flag_rc

    def verify(self, i: int, exit_codes: tuple[int, int]) -> Verdict:
        if exit_codes != (0, 0):
            return Verdict(f"score/flag exit codes {exit_codes}", math.nan, math.nan, exit_codes)
        digest = _digest(self.dir / name for name in self.outputs)
        differ = [n for n, a, b in zip(self.outputs, digest, self.reference) if a != b]
        failure = f"differs from the library reference: {differ}" if differ else None
        return Verdict(failure, *self.quality, digest)


class GenExportWorkload:
    """One op is ``labelaudit gen`` with fresh seeds: generate, corrupt, write CSVs."""

    entry = "cli"
    outputs = ("labels.csv", "truth.csv", "features.csv", "noise_spec.json")

    def __init__(self, seed: int, n_examples: int = GEN_EXAMPLES):
        self.seed = seed
        self.n_examples = n_examples
        self.config = replace(LARGE, n_samples=n_examples, n_test=max(1, n_examples // 5))
        self.noise_matrices = None

    def setup(self, workdir: Path) -> None:
        self.dir = workdir

    def _seeds(self, i: int) -> tuple[int, int, int]:
        return bench.derive_seeds(base_seed(self.seed), i)

    def op(self, i: int) -> int:
        gen_seed, noise_seed, _ = self._seeds(i)
        c = self.config
        return _quiet_cli([
            "gen", "--n-samples", str(c.n_samples), "--n-features", str(c.n_features),
            "--n-classes", str(c.n_classes),
            "--expected-labels", str(c.expected_labels_per_example),
            "--seed", str(gen_seed), "--noise-seed", str(noise_seed), "--out-dir", str(self.dir),
        ])

    def verify(self, i: int, exit_code: int) -> Verdict:
        if exit_code != 0:
            return Verdict(f"gen exit code {exit_code}", math.nan, math.nan, exit_code)
        digest = _digest(self.dir / name for name in self.outputs)
        gen_seed, noise_seed, probs_seed = self._seeds(i)
        clean = gen_multilabel(replace(self.config, seed=gen_seed))
        noise = draw_noise_spec(self.config.n_classes, seed=noise_seed)
        noisy = inject_noise(clean.true_labels, noise.matrices,
                             noise.max_errors_per_example, noise_seed)

        ids, labels = load_labels_csv(self.dir / "labels.csv")
        truth_ids, truth = load_labels_csv(self.dir / "truth.csv")
        feature_ids, features = load_features_csv(self.dir / "features.csv")
        spec = load_noise_spec_json(self.dir / "noise_spec.json")
        ids_ok = list(clean.example_ids) == ids == truth_ids == feature_ids
        if not (ids_ok and np.array_equal(labels, noisy)
                and np.array_equal(truth, clean.true_labels)
                and np.array_equal(features, clean.features)
                and np.array_equal(spec.matrices, noise.matrices)):
            return Verdict("reloaded files differ from gen_multilabel + inject_noise",
                           math.nan, math.nan, digest)
        probs = draw_probs(truth, np.random.default_rng(probs_seed))
        return Verdict(None, *oracle_quality(labels, truth, probs), digest)


WORKLOAD_NAMES = ("small-bench", "large-bench", "audit-csv", "gen-export")


def make(name: str, seed: int):
    if name == "small-bench":
        return ReplicateWorkload(name, bench.small_plan(base_seed=base_seed(seed)))
    if name == "large-bench":
        return ReplicateWorkload(name, bench.large_plan(
            base_seed=base_seed(seed), train_config=TrainConfig(epochs=LARGE_BENCH_EPOCHS)))
    if name == "audit-csv":
        return AuditCsvWorkload(seed)
    if name == "gen-export":
        return GenExportWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOAD_NAMES}")
