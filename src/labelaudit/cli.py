"""Command-line interface: gen | train-predict | score | flag | bench | report.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal invariant
violation. The LABELAUDIT_OUT_DIR environment variable supplies the default
output directory for subcommands that take one.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace
from pathlib import Path


from . import __version__, bench
from .confident import flag_multilabel, save_flag_summary_json, save_flags_csv
from .data import (
    DataFormatError,
    check_ids_aligned,
    load_features_csv,
    load_labels_csv,
    load_probs_csv,
    save_features_csv,
    save_labels_csv,
    save_probs_csv,
    save_scores_csv,
    validate,
    MultiLabelDataset,
)
from .model import CVConfig, TrainConfig, TrainingDivergedError, cross_val_pred_probs
from .scoring import POOLER_NAMES, PoolingMethod, rescale_for_display, score_examples
from .synth import (
    LARGE,
    SMALL,
    GenConfig,
    draw_noise_spec,
    gen_multilabel,
    inject_noise,
    save_noise_spec_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; route through UsageError
    # so usage problems report exit code 1 and data problems keep 2.
    def error(self, message):
        raise UsageError(message)


def _out_dir(args) -> Path:
    if args.out_dir:
        return Path(args.out_dir)
    env = os.environ.get("LABELAUDIT_OUT_DIR")
    if env:
        return Path(env)
    raise UsageError("--out-dir is required (or set LABELAUDIT_OUT_DIR)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="labelaudit",
                     description="Detect mislabeled examples in multi-label datasets.")
    parser.add_argument("--version", action="version", version=f"labelaudit {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("gen", parents=[], help="generate a synthetic noisy dataset",
                       description="Write labels.csv, truth.csv, features.csv and "
                                   "noise_spec.json into the output directory.")
    p.add_argument("--preset", choices=["small", "large"])
    p.add_argument("--n-samples", type=int)
    p.add_argument("--n-features", type=int)
    p.add_argument("--n-classes", type=int)
    p.add_argument("--expected-labels", type=float)
    p.add_argument("--doc-length", type=float, help="defaults to 500")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-seed", type=int, help="defaults to --seed + 10000")
    p.add_argument("--gamma-shape", type=float, default=2.0)
    p.add_argument("--gamma-scale", type=float, default=0.01)
    p.add_argument("--max-errors", type=int, default=3)
    p.add_argument("--asymmetric", action="store_true",
                   help="random (not symmetric) split of each noise-matrix trace")
    p.add_argument("--out-dir")

    p = sub.add_parser("train-predict",
                       help="cross-validated logistic regression probabilities",
                       description="Read labels + features CSVs, write out-of-sample "
                                   "predicted probabilities CSV.")
    p.add_argument("--labels", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--l2", type=float, default=1e-4)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("score", help="pooled label-quality score per example",
                       description="Lower scores mean the annotation is more likely wrong.")
    p.add_argument("--labels", required=True)
    p.add_argument("--probs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=POOLER_NAMES, default="ema")
    p.add_argument("--alpha", type=float, default=0.8)
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--bottom-j", type=int, default=2)
    p.add_argument("--period", type=int, default=2)
    p.add_argument("--rescale", action="store_true",
                   help="min-max rescale scores to [0,1] for display")

    p = sub.add_parser("flag", help="flag suspected label errors (union over classes)")
    p.add_argument("--labels", required=True)
    p.add_argument("--probs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--summary-json")

    p = sub.add_parser("bench", help="run the synthetic benchmark",
                       description="Generate replicates, corrupt labels, train, score, "
                                   "flag and evaluate; writes metrics.csv, "
                                   "flag_metrics.csv, aggregate.csv, run_meta.json.")
    p.add_argument("--preset", choices=["small", "large"], default="small")
    p.add_argument("--replicates", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--methods", help="comma-separated subset of pooling methods")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--l2", type=float, default=1e-4)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--allow-large", action="store_true",
                   help="required for --preset large (slow at desk scale)")
    p.add_argument("--out-dir")

    p = sub.add_parser("report", help="aggregate a metrics CSV into a table")
    p.add_argument("--metrics", required=True)
    p.add_argument("--out", help="also write the aggregate CSV here")

    return parser


def _pooling_method(args) -> PoolingMethod:
    try:
        return PoolingMethod(
            name=args.method, alpha=args.alpha, tau=args.tau, eps=args.eps,
            bottom_j=args.bottom_j, period=args.period,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load_labels_probs(labels_path, probs_path):
    ids, labels = load_labels_csv(labels_path)
    pids, probs = load_probs_csv(probs_path)
    check_ids_aligned(ids, pids, f"{labels_path} vs {probs_path}")
    dataset = MultiLabelDataset(labels, tuple(ids))
    report = validate(dataset, probs)
    if not report.ok:
        raise DataFormatError("; ".join(report.violations))
    return ids, labels, probs


# gen's shape flags (argparse dest -> GenConfig field); --preset fixes them all
_GEN_SHAPE = {
    "n_samples": "n_samples",
    "n_features": "n_features",
    "n_classes": "n_classes",
    "expected_labels": "expected_labels_per_example",
    "doc_length": "expected_doc_length",
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _cmd_gen(args) -> int:
    given = {dest: getattr(args, dest) for dest in _GEN_SHAPE if getattr(args, dest) is not None}
    if args.preset:
        if given:
            raise UsageError(f"{_flag(next(iter(given)))} cannot be combined with --preset")
        config = replace({"small": SMALL, "large": LARGE}[args.preset], seed=args.seed)
    else:
        missing = [dest for dest in _GEN_SHAPE if dest not in given and dest != "doc_length"]
        if missing:
            raise UsageError(f"without --preset, set {_flag(missing[0])}")
        try:
            config = GenConfig(
                n_test=max(1, args.n_samples // 5), seed=args.seed,
                **{_GEN_SHAPE[dest]: value for dest, value in given.items()},
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    noise_seed = args.noise_seed if args.noise_seed is not None else args.seed + 10_000
    try:
        noise = draw_noise_spec(
            config.n_classes, gamma_shape=args.gamma_shape, gamma_scale=args.gamma_scale,
            max_errors_per_example=args.max_errors, seed=noise_seed,
            symmetric=not args.asymmetric,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out_dir = _out_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)

    clean = gen_multilabel(config)
    noisy = inject_noise(clean.true_labels, noise.matrices,
                         noise.max_errors_per_example, noise_seed)

    save_labels_csv(out_dir / "labels.csv", clean.example_ids, noisy)
    save_labels_csv(out_dir / "truth.csv", clean.example_ids, clean.true_labels)
    save_features_csv(out_dir / "features.csv", clean.example_ids, clean.features)
    save_noise_spec_json(out_dir / "noise_spec.json", noise)
    n_errors = int((noisy != clean.true_labels).any(axis=1).sum())
    print(f"wrote {config.n_samples} examples ({n_errors} mislabeled) to {out_dir}")
    return EXIT_OK


def _cmd_train_predict(args) -> int:
    ids, labels = load_labels_csv(args.labels)
    fids, features = load_features_csv(args.features)
    check_ids_aligned(ids, fids, f"{args.labels} vs {args.features}")
    dataset = MultiLabelDataset(labels, tuple(ids), features=features)
    try:
        train_config = TrainConfig(learning_rate=args.lr, l2=args.l2, epochs=args.epochs)
        cv = CVConfig(n_folds=args.folds, seed=args.seed)
        probs = cross_val_pred_probs(dataset, cv, train_config)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    except TrainingDivergedError as exc:
        raise UsageError(f"training diverged ({exc}); try a smaller --lr") from None
    save_probs_csv(args.out, ids, probs)
    print(f"wrote {probs.n_examples}x{probs.n_classes} probabilities to {args.out}")
    return EXIT_OK


def _cmd_score(args) -> int:
    method = _pooling_method(args)
    ids, labels, probs = _load_labels_probs(args.labels, args.probs)
    try:
        method.check_n_classes(labels.shape[1])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    result = score_examples(labels, probs.values, method)
    values = rescale_for_display(result.values) if args.rescale else result.values
    save_scores_csv(args.out, ids, values)
    print(f"wrote {len(ids)} {method.name} scores to {args.out}")
    return EXIT_OK


def _cmd_flag(args) -> int:
    ids, labels, probs = _load_labels_probs(args.labels, args.probs)
    report = flag_multilabel(labels, probs.values)
    save_flags_csv(args.out, ids, report)
    if args.summary_json:
        save_flag_summary_json(args.summary_json, report)
    n = int(report.example_flags.sum())
    skipped = f", skipped classes {list(report.skipped_classes)}" if report.skipped_classes else ""
    print(f"flagged {n}/{len(ids)} examples{skipped}; wrote {args.out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.preset == "large" and not args.allow_large:
        raise UsageError("--preset large is slow; pass --allow-large to confirm")
    out_dir = _out_dir(args)
    try:
        methods = tuple(PoolingMethod(name.strip()) for name in args.methods.split(",")) \
            if args.methods else bench.default_methods()
        maker = bench.small_plan if args.preset == "small" else bench.large_plan
        plan = maker(
            n_replicates=args.replicates, base_seed=args.seed,
            train_config=TrainConfig(learning_rate=args.lr, l2=args.l2, epochs=args.epochs),
            n_folds=args.folds, methods=methods,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    report = bench.run_benchmark(plan, jobs=max(1, args.jobs))
    paths = bench.write_report(report, out_dir)
    if report.metric_rows:
        print(bench.render_aggregate_table(bench.aggregate_rows(report.metric_rows)))
    for replicate, error in report.failures:
        print(f"replicate {replicate} failed: {error}", file=sys.stderr)
    print(f"wrote {', '.join(str(p) for p in paths.values())}")
    return EXIT_OK if not report.failures else EXIT_DATA


def _cmd_report(args) -> int:
    try:
        rows = bench.read_metrics_csv(args.metrics)
    except (OSError, ValueError, csv.Error) as exc:
        raise DataFormatError(str(exc)) from None
    if not rows:
        raise DataFormatError(f"{args.metrics}: no metric rows")
    aggregates = bench.aggregate_rows(rows)
    print(bench.render_aggregate_table(aggregates))
    if args.out:
        bench.write_aggregate_csv(args.out, aggregates)
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "train-predict": _cmd_train_predict,
    "score": _cmd_score,
    "flag": _cmd_flag,
    "bench": _cmd_bench,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return EXIT_USAGE
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, FileNotFoundError, PermissionError, IsADirectoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps everything else to 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
