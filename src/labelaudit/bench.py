"""End-to-end benchmark: generate, corrupt, train/predict, score/flag, evaluate.

Each replicate draws a fresh dataset and noise realization from seeds derived
deterministically from the plan, produces out-of-sample probabilities via
cross-validated logistic regression, scores every pooling method, flags via
the confident-learning extension, and evaluates everything against ground
truth. Results land in a long-format CSV (one row per replicate x method x
metric) plus per-method aggregates; a replicate that fails is recorded and
the others proceed.
"""

from __future__ import annotations

import csv
import json
import math
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .confident import flag_multilabel
from .data import MultiLabelDataset, _fmt_float
from .metrics import METRIC_NAMES, error_truth, evaluate
from .model import CVConfig, TrainConfig, cross_val_pred_probs
from .scoring import POOLER_NAMES, PoolingMethod, score_examples
from .synth import (
    LARGE, SMALL, GenConfig, NoiseSpec, draw_noise_spec, gen_multilabel, inject_noise,
)

DEFAULT_METRICS = METRIC_NAMES

METRICS_HEADER = ["dataset", "seed", "classifier", "method", "metric",
                  "param_T", "param_k", "value"]
FLAG_HEADER = ["dataset", "seed", "classifier", "n_true_errors", "n_flagged",
               "flag_precision", "flag_recall", "flag_f1"]


def default_methods() -> tuple[PoolingMethod, ...]:
    return tuple(PoolingMethod(name) for name in POOLER_NAMES)


@dataclass(frozen=True)
class BenchmarkPlan:
    """Everything that determines a benchmark run, and hence every output byte."""

    gen_config: GenConfig
    dataset_name: str = "custom"
    n_replicates: int = 10
    base_seed: int = 0
    classifier: str = "logreg"
    train_config: TrainConfig = TrainConfig()
    n_folds: int = 5
    gamma_shape: float = 2.0
    gamma_scale: float = 0.01
    max_errors_per_example: int = 3
    methods: tuple[PoolingMethod, ...] = field(default_factory=default_methods)
    metrics: tuple[str, ...] = DEFAULT_METRICS

    def __post_init__(self):
        if self.n_replicates < 1:
            raise ValueError("n_replicates must be >= 1")
        n_samples = self.gen_config.n_samples
        if (isinstance(self.n_folds, bool) or not isinstance(self.n_folds, (int, np.integer))
                or not 2 <= self.n_folds <= n_samples):
            raise ValueError(f"n_folds must be an integer in [2, {n_samples}], got {self.n_folds!r}")
        # a spec with no traces yet: raises as draw_noise_spec would in each replicate
        NoiseSpec(self.gamma_shape, self.gamma_scale, self.max_errors_per_example)
        unknown = set(self.metrics) - set(DEFAULT_METRICS)
        if unknown:
            raise ValueError(f"unknown metrics {sorted(unknown)}; expected among {DEFAULT_METRICS}")
        names = [m.name for m in self.methods]
        if len(names) != len(set(names)):
            raise ValueError("duplicate pooling methods in plan")
        if not self.methods:
            raise ValueError("plan needs at least one pooling method")


def small_plan(**overrides) -> BenchmarkPlan:
    return BenchmarkPlan(gen_config=SMALL, dataset_name="small", **overrides)


def large_plan(**overrides) -> BenchmarkPlan:
    return BenchmarkPlan(gen_config=LARGE, dataset_name="large", **overrides)


def derive_seeds(base_seed: int, replicate: int) -> tuple[int, int, int]:
    """(generator, noise, cross-validation) seeds for one replicate.

    Plain offsets keep the derivation obvious and reproducible from the CLI,
    where the same seeds can be passed to ``gen`` and ``train-predict``.
    """
    replicate_seed = base_seed + replicate
    return replicate_seed, replicate_seed + 10_000, replicate_seed + 20_000


@dataclass(frozen=True)
class ReplicateResult:
    replicate: int
    metric_rows: tuple[tuple, ...]   # rows matching METRICS_HEADER
    flag_row: tuple
    error: str | None = None


def run_replicate(plan: BenchmarkPlan, replicate: int) -> ReplicateResult:
    """One full generate/corrupt/predict/score/flag/evaluate pass."""
    gen_seed, noise_seed, cv_seed = derive_seeds(plan.base_seed, replicate)
    try:
        config = replace(plan.gen_config, seed=gen_seed)
        clean = gen_multilabel(config)
        noise = draw_noise_spec(
            config.n_classes,
            gamma_shape=plan.gamma_shape,
            gamma_scale=plan.gamma_scale,
            max_errors_per_example=plan.max_errors_per_example,
            seed=noise_seed,
        )
        noisy_labels = inject_noise(
            clean.true_labels, noise.matrices, noise.max_errors_per_example, noise_seed
        )
        dataset = MultiLabelDataset(
            noisy_labels, clean.example_ids,
            true_labels=clean.true_labels, features=clean.features,
        )
        truth = error_truth(dataset.given_labels, dataset.true_labels)

        probs = cross_val_pred_probs(
            dataset, CVConfig(n_folds=plan.n_folds, seed=cv_seed), plan.train_config
        )

        metric_rows = [
            (plan.dataset_name, gen_seed, plan.classifier, method.name, result.name,
             "" if result.param_t is None else result.param_t,
             "" if result.param_k is None else result.param_k, result.value)
            for method in plan.methods
            for result in evaluate(score_examples(dataset.given_labels, probs.values,
                                                  method).values, truth, plan.metrics)
        ]

        report = flag_multilabel(dataset.given_labels, probs.values)
        flagged = report.example_flags
        tp = int((flagged & truth.error_flags).sum())
        n_flagged = int(flagged.sum())
        precision = tp / n_flagged if n_flagged else math.nan
        recall = tp / truth.n_mislabeled if truth.n_mislabeled else math.nan
        denom = precision + recall
        f1 = 2 * precision * recall / denom if denom and not math.isnan(denom) else math.nan
        flag_row = (plan.dataset_name, gen_seed, plan.classifier,
                    truth.n_mislabeled, n_flagged, precision, recall, f1)
        return ReplicateResult(replicate, tuple(metric_rows), flag_row)
    except Exception as exc:  # recorded, other replicates proceed
        return ReplicateResult(replicate, (), (), error=f"{type(exc).__name__}: {exc}")


@dataclass(frozen=True)
class BenchmarkReport:
    plan: BenchmarkPlan
    metric_rows: tuple[tuple, ...]
    flag_rows: tuple[tuple, ...]
    failures: tuple[tuple[int, str], ...]
    wall_time_s: float


def run_benchmark(plan: BenchmarkPlan, jobs: int = 1) -> BenchmarkReport:
    """Run all replicates (optionally in parallel) and assemble the report.

    Results are assembled in replicate order, so the report is identical
    whatever ``jobs`` is.
    """
    start = time.perf_counter()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_replicate, [plan] * plan.n_replicates,
                                    range(plan.n_replicates)))
    else:
        results = [run_replicate(plan, r) for r in range(plan.n_replicates)]

    metric_rows: list[tuple] = []
    flag_rows: list[tuple] = []
    failures: list[tuple[int, str]] = []
    for res in results:
        if res.error is not None:
            failures.append((res.replicate, res.error))
            continue
        metric_rows.extend(res.metric_rows)
        flag_rows.append(res.flag_row)
    return BenchmarkReport(
        plan=plan,
        metric_rows=tuple(metric_rows),
        flag_rows=tuple(flag_rows),
        failures=tuple(failures),
        wall_time_s=time.perf_counter() - start,
    )


def aggregate_rows(metric_rows: Sequence[tuple]) -> list[tuple]:
    """Per (classifier, method, metric) mean and sample std over replicates.

    NaN values (undefined metrics) are skipped; ``n_values`` records how many
    replicates contributed. Output order follows first appearance, so
    aggregates are recomputable and byte-stable.
    """
    groups: dict[tuple, list[float]] = {}  # insertion-ordered
    for row in metric_rows:
        # classifier, method, metric, param_k
        values = groups.setdefault((row[2], row[3], row[4], row[6]), [])
        if not math.isnan(float(row[7])):
            values.append(float(row[7]))
    out = []
    for key, values in groups.items():
        if values:
            mean = float(np.mean(values))
            std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        else:
            mean = std = math.nan
        out.append((*key, mean, std, len(values)))
    return out


def _csv_value(v) -> str:
    if isinstance(v, float):
        return "" if math.isnan(v) else _fmt_float(v)
    return str(v)


def _write_csv(header: list[str], path, rows: Sequence[tuple]) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_csv_value(v) for v in row] for row in rows)


write_metrics_csv = partial(_write_csv, METRICS_HEADER)


def read_metrics_csv(path) -> list[tuple]:
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != METRICS_HEADER:
            raise ValueError(f"{path}: expected header {METRICS_HEADER}, got {header}")
        rows = []
        for r, row in enumerate(reader, start=2):
            if len(row) != len(METRICS_HEADER):
                raise ValueError(f"{path}: row {r} has {len(row)} cells, "
                                 f"expected {len(METRICS_HEADER)}")
            column = "seed"
            try:
                seed = int(row[1])
                column = "value"
                value = float(row[7]) if row[7] else math.nan
            except ValueError as exc:
                raise ValueError(f"{path}: row {r}, column {column}: {exc}") from None
            rows.append((row[0], seed, row[2], row[3], row[4], row[5], row[6], value))
        return rows


AGGREGATE_HEADER = ["classifier", "method", "metric", "param_k", "mean", "std", "n_values"]
write_flag_csv = partial(_write_csv, FLAG_HEADER)
write_aggregate_csv = partial(_write_csv, AGGREGATE_HEADER)


def render_aggregate_table(aggregates: Sequence[tuple]) -> str:
    """Aligned text table: one row per method, one column pair per metric."""
    metrics: list[str] = []
    methods: list[str] = []
    cells: dict[tuple[str, str], str] = {}
    for classifier, method, metric, _k, mean, std, n in aggregates:
        if metric not in metrics:
            metrics.append(metric)
        if method not in methods:
            methods.append(method)
        cells[(method, metric)] = "--" if math.isnan(mean) else f"{mean:.4f}±{std:.4f}"
    widths = {m: max(len(m), *(len(cells.get((mm, m), "--")) for mm in methods))
              for m in metrics}
    name_w = max([len("method"), *(len(m) for m in methods)])
    lines = ["  ".join(["method".ljust(name_w)] + [m.rjust(widths[m]) for m in metrics])]
    for method in methods:
        lines.append("  ".join(
            [method.ljust(name_w)]
            + [cells.get((method, m), "--").rjust(widths[m]) for m in metrics]
        ))
    return "\n".join(lines)


def write_run_meta(path, report: BenchmarkReport) -> None:
    """Run metadata; the timestamp is the only non-deterministic field."""
    plan = report.plan
    meta = {
        "labelaudit_version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dataset": plan.dataset_name,
        "n_replicates": plan.n_replicates,
        "base_seed": plan.base_seed,
        "replicate_seeds": [derive_seeds(plan.base_seed, r) for r in range(plan.n_replicates)],
        "classifier": plan.classifier,
        "train_config": {"learning_rate": plan.train_config.learning_rate,
                         "l2": plan.train_config.l2, "epochs": plan.train_config.epochs,
                         "n_folds": plan.n_folds},
        "methods": [{"name": m.name, **m.params()} for m in plan.methods],
        "metrics": list(plan.metrics),
        "failures": [{"replicate": r, "error": e} for r, e in report.failures],
        # the one non-deterministic output line, kept to a single field
        "run_stamp": f"{time.strftime('%Y-%m-%dT%H:%M:%S%z')} "
                     f"wall_time_s={report.wall_time_s:.3f}",
    }
    Path(path).write_text(json.dumps(meta, indent=2) + "\n")


def write_report(report: BenchmarkReport, out_dir) -> dict[str, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "metrics": out_dir / "metrics.csv",
        "flags": out_dir / "flag_metrics.csv",
        "aggregate": out_dir / "aggregate.csv",
        "meta": out_dir / "run_meta.json",
    }
    write_metrics_csv(paths["metrics"], report.metric_rows)
    write_flag_csv(paths["flags"], report.flag_rows)
    write_aggregate_csv(paths["aggregate"], aggregate_rows(report.metric_rows))
    write_run_meta(paths["meta"], report)
    return paths


def method_means(metric_rows: Sequence[tuple], metric: str) -> dict[str, float]:
    """Mean value per method for one metric, NaN-skipping; used by rank checks."""
    out: dict[str, float] = {}
    for classifier, method, m, _k, mean, _std, _n in aggregate_rows(metric_rows):
        if m == metric:
            out[method] = mean
    return out
