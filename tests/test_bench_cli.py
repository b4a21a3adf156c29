import csv
import json

import numpy as np
import pytest

from labelaudit import bench
from labelaudit.cli import main
from labelaudit.data import load_probs_csv, load_scores_csv
from labelaudit.model import TrainConfig
from labelaudit.scoring import PoolingMethod, QualityScoreVector, score_examples
from labelaudit.synth import GenConfig

TINY_GEN = GenConfig(n_samples=150, n_test=30, n_features=3, n_classes=4,
                     expected_labels_per_example=2.0, expected_doc_length=60.0)
FAST_TRAIN = TrainConfig(epochs=60)


def tiny_plan(**overrides):
    defaults = dict(
        gen_config=TINY_GEN,
        dataset_name="tiny",
        n_replicates=1,
        train_config=FAST_TRAIN,
        methods=(PoolingMethod("min"), PoolingMethod("ema")),
    )
    defaults.update(overrides)
    return bench.BenchmarkPlan(**defaults)


class TestBenchmark:
    def test_row_count_contract(self):
        plan = tiny_plan()
        report = bench.run_benchmark(plan)
        assert not report.failures
        assert len(report.metric_rows) == 2 * len(plan.metrics)  # methods x metrics
        assert len(report.flag_rows) == 1

    def test_deterministic_metrics_csv(self, tmp_path):
        plan = tiny_plan(n_replicates=2)
        a = bench.run_benchmark(plan)
        b = bench.run_benchmark(plan)
        bench.write_metrics_csv(tmp_path / "a.csv", a.metric_rows)
        bench.write_metrics_csv(tmp_path / "b.csv", b.metric_rows)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_plan_determines_every_output_byte_except_one_line(self, tmp_path):
        plan = tiny_plan()
        for sub in ("x", "y"):
            bench.write_report(bench.run_benchmark(plan), tmp_path / sub)
        for name in ("metrics.csv", "flag_metrics.csv", "aggregate.csv"):
            assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()
        ax = (tmp_path / "x" / "run_meta.json").read_text().splitlines()
        ay = (tmp_path / "y" / "run_meta.json").read_text().splitlines()
        differing = [i for i, (la, lb) in enumerate(zip(ax, ay)) if la != lb]
        assert len(ax) == len(ay)
        assert len(differing) <= 1
        for i in differing:
            assert "run_stamp" in ax[i]

    def test_parallel_equals_serial(self):
        plan = tiny_plan(n_replicates=3)
        serial = bench.run_benchmark(plan, jobs=1)
        parallel = bench.run_benchmark(plan, jobs=3)
        assert serial.metric_rows == parallel.metric_rows
        assert serial.flag_rows == parallel.flag_rows

    def test_failed_replicate_recorded_others_proceed(self):
        # one replicate cannot even generate: impossible pooling parameter
        plan = tiny_plan(methods=(PoolingMethod("cumavg_bottom", bottom_j=4),
                                  PoolingMethod("min")), n_replicates=2)
        report = bench.run_benchmark(plan)
        assert not report.failures  # bottom_j=4 is fine for K=4
        bad = tiny_plan(methods=(PoolingMethod("cumavg_bottom", bottom_j=9),),
                        n_replicates=2)
        report = bench.run_benchmark(bad)
        assert len(report.failures) == 2
        assert "bottom_j" in report.failures[0][1]
        assert report.metric_rows == ()

    @pytest.mark.parametrize("field, value, message", [
        ("max_errors_per_example", 1.5, "max_errors_per_example must be an integer"),
        ("max_errors_per_example", True, "max_errors_per_example must be an integer"),
        ("max_errors_per_example", -1, "max_errors_per_example must be >= 0"),
        ("n_folds", 1, r"n_folds must be an integer in \[2, 150\], got 1"),
        ("n_folds", 151, r"n_folds must be an integer in \[2, 150\], got 151"),
        ("n_folds", 2.0, r"n_folds must be an integer in \[2, 150\], got 2.0"),
        ("gamma_scale", -1.0, "gamma parameters must be positive"),
        ("gamma_shape", 0.0, "gamma parameters must be positive"),
    ])
    def test_bad_plan_rejected_at_construction(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            tiny_plan(**{field: value})

    def test_nan_scores_fail_the_replicate(self, monkeypatch):
        def nan_scores(labels, probs, method):
            pooled = score_examples(labels, probs, method)
            return QualityScoreVector(np.where(np.arange(len(pooled.values)) == 7, np.nan,
                                               pooled.values), method)

        monkeypatch.setattr(bench, "score_examples", nan_scores)
        report = bench.run_benchmark(tiny_plan())
        assert report.failures == ((0, "ValueError: scores contain NaN"),)

    def test_aggregates_recomputable_from_rows(self):
        plan = tiny_plan(n_replicates=3)
        report = bench.run_benchmark(plan)
        aggregates = bench.aggregate_rows(report.metric_rows)
        by_key = {(r[1], r[2]): (r[4], r[5], r[6]) for r in aggregates}
        values = [row[7] for row in report.metric_rows
                  if row[3] == "min" and row[4] == "auprc"]
        mean, std, n = by_key[("min", "auprc")]
        assert n == 3
        assert mean == pytest.approx(np.mean(values), abs=1e-15)
        assert std == pytest.approx(np.std(values, ddof=1), abs=1e-15)

    def test_metrics_csv_roundtrip(self, tmp_path):
        report = bench.run_benchmark(tiny_plan())
        path = tmp_path / "metrics.csv"
        bench.write_metrics_csv(path, report.metric_rows)
        rows = bench.read_metrics_csv(path)
        assert len(rows) == len(report.metric_rows)
        assert rows[0][7] == pytest.approx(report.metric_rows[0][7], abs=0)

    def test_spearman_sign_conventions_both_reported(self):
        report = bench.run_benchmark(tiny_plan())
        values = {row[4]: row[7] for row in report.metric_rows if row[3] == "ema"}
        assert values["neg_spearman"] == pytest.approx(-values["spearman"], abs=1e-15)

    def test_render_table_of_no_rows_is_the_header(self):
        assert bench.render_aggregate_table([]) == "method"

    @pytest.mark.parametrize("row, column, bad", [
        ("tiny,zero,logreg,ema,auprc,,,0.5", "seed", "'zero'"),
        ("tiny,0,logreg,ema,auprc,,,half", "value", "'half'"),
    ])
    def test_bad_metrics_cell_names_file_row_and_column(self, tmp_path, row, column, bad):
        path = tmp_path / "metrics.csv"
        path.write_text(f"{','.join(bench.METRICS_HEADER)}\ntiny,0,logreg,ema,auprc,,,0.5\n"
                        f"{row}\n")
        with pytest.raises(ValueError) as info:
            bench.read_metrics_csv(path)
        assert str(info.value).startswith(f"{path}: row 3, column {column}: ")
        assert str(info.value).endswith(bad)

    def test_render_table_mentions_every_method_and_metric(self):
        report = bench.run_benchmark(tiny_plan())
        table = bench.render_aggregate_table(bench.aggregate_rows(report.metric_rows))
        for token in ("min", "ema", "auprc", "ap_at_t", "neg_spearman"):
            assert token in table


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_gen_emits_four_files(self, tmp_path):
        out = tmp_path / "data"
        code = self.run("gen", "--n-samples", "80", "--n-features", "3",
                        "--n-classes", "4", "--expected-labels", "2",
                        "--doc-length", "50", "--seed", "7", "--out-dir", str(out))
        assert code == 0
        for name in ("labels.csv", "truth.csv", "features.csv", "noise_spec.json"):
            assert (out / name).exists(), name

    def test_gen_deterministic(self, tmp_path):
        args = ["gen", "--n-samples", "60", "--n-features", "3", "--n-classes", "4",
                "--expected-labels", "2", "--doc-length", "50", "--seed", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run(*args, "--out-dir", str(a)) == 0
        assert self.run(*args, "--out-dir", str(b)) == 0
        for name in ("labels.csv", "truth.csv", "features.csv", "noise_spec.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_gen_doc_length_defaults_to_gen_config(self, tmp_path):
        args = ["gen", "--n-samples", "40", "--n-features", "3", "--n-classes", "4",
                "--expected-labels", "2", "--seed", "5"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run(*args, "--out-dir", str(a)) == 0
        assert self.run(*args, "--doc-length", "500", "--out-dir", str(b)) == 0
        assert (a / "features.csv").read_bytes() == (b / "features.csv").read_bytes()

    def test_full_pipeline_and_benchmark_composability(self, tmp_path):
        """CLI gen -> train-predict -> score must equal the in-process
        benchmark replicate bit for bit (same derived seeds)."""
        plan = tiny_plan(n_replicates=1, base_seed=5)
        gen_seed, noise_seed, cv_seed = bench.derive_seeds(plan.base_seed, 0)

        out = tmp_path / "pipe"
        assert self.run(
            "gen", "--n-samples", str(TINY_GEN.n_samples), "--n-features", "3",
            "--n-classes", "4", "--expected-labels", "2.0", "--doc-length", "60.0",
            "--seed", str(gen_seed), "--noise-seed", str(noise_seed),
            "--out-dir", str(out),
        ) == 0
        assert self.run(
            "train-predict", "--labels", str(out / "labels.csv"),
            "--features", str(out / "features.csv"), "--out", str(out / "probs.csv"),
            "--epochs", "60", "--seed", str(cv_seed),
        ) == 0
        assert self.run(
            "score", "--labels", str(out / "labels.csv"),
            "--probs", str(out / "probs.csv"), "--method", "ema",
            "--out", str(out / "scores.csv"),
        ) == 0

        # in-process benchmark path over the same derived seeds
        from dataclasses import replace
        from labelaudit.data import MultiLabelDataset
        from labelaudit.model import CVConfig, cross_val_pred_probs
        from labelaudit.scoring import score_examples
        from labelaudit.synth import draw_noise_spec, gen_multilabel, inject_noise

        config = replace(TINY_GEN, seed=gen_seed)
        clean = gen_multilabel(config)
        noise = draw_noise_spec(4, seed=noise_seed)
        noisy = inject_noise(clean.true_labels, noise.matrices, 3, noise_seed)
        dataset = MultiLabelDataset(noisy, clean.example_ids, features=clean.features)
        probs = cross_val_pred_probs(dataset, CVConfig(seed=cv_seed), FAST_TRAIN)
        expected = score_examples(noisy, probs.values, PoolingMethod("ema")).values

        _, cli_probs = load_probs_csv(out / "probs.csv")
        assert np.array_equal(cli_probs.values, probs.values)
        _, cli_scores = load_scores_csv(out / "scores.csv")
        assert np.array_equal(cli_scores, expected)

    def test_flag_subcommand(self, tmp_path):
        out = tmp_path / "d"
        self.run("gen", "--n-samples", "60", "--n-features", "3", "--n-classes", "4",
                 "--expected-labels", "2", "--doc-length", "50", "--seed", "1",
                 "--out-dir", str(out))
        self.run("train-predict", "--labels", str(out / "labels.csv"),
                 "--features", str(out / "features.csv"),
                 "--out", str(out / "probs.csv"), "--epochs", "40")
        code = self.run("flag", "--labels", str(out / "labels.csv"),
                        "--probs", str(out / "probs.csv"),
                        "--out", str(out / "flags.csv"),
                        "--summary-json", str(out / "summary.json"))
        assert code == 0
        lines = (out / "flags.csv").read_text().strip().splitlines()
        assert lines[0] == "id,flagged,classes_flagged"
        assert len(lines) == 61
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["per_class_error_counts"]) == 4

    def test_bench_and_report_subcommands(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = self.run("bench", "--preset", "small", "--replicates", "1",
                        "--epochs", "2", "--methods", "min,ema",
                        "--out-dir", str(out))
        assert code == 0
        assert (out / "aggregate.csv").exists()
        assert (out / "run_meta.json").exists()
        assert (out / "flag_metrics.csv").exists()
        # exactly replicates x methods x metrics rows plus the header
        metric_lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(metric_lines) == 1 + 1 * 2 * len(bench.DEFAULT_METRICS)
        capsys.readouterr()
        assert self.run("report", "--metrics", str(out / "metrics.csv"),
                        "--out", str(out / "agg2.csv")) == 0
        shown = capsys.readouterr().out
        assert "ema" in shown and "auprc" in shown
        assert (out / "agg2.csv").read_bytes() == (out / "aggregate.csv").read_bytes()

    def test_bench_with_every_replicate_failed_reports_them(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert self.run("bench", "--preset", "small", "--replicates", "2", "--epochs", "40",
                        "--lr", "1e10", "--out-dir", str(out)) == 2
        err = capsys.readouterr().err
        for replicate in (0, 1):
            assert f"replicate {replicate} failed: TrainingDivergedError" in err
        assert (out / "metrics.csv").read_text().strip() == ",".join(bench.METRICS_HEADER)

    def test_report_on_header_only_metrics_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "metrics.csv"
        bench.write_metrics_csv(path, [])
        assert self.run("report", "--metrics", str(path)) == 2
        assert capsys.readouterr().err == f"data error: {path}: no metric rows\n"

    @pytest.mark.parametrize("command", ["train-predict", "bench"])
    @pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--lr", "inf"), ("--l2", "nan")])
    def test_non_finite_hyperparameter_is_usage_error(self, tmp_path, capsys, command,
                                                      flag, value):
        (tmp_path / "l.csv").write_text("id,label_0\na,1\nb,0\nc,1\nd,0\n")
        (tmp_path / "f.csv").write_text("id,feat_0\na,3\nb,1\nc,2\nd,0\n")
        argv = {"train-predict": ["--labels", str(tmp_path / "l.csv"),
                                  "--features", str(tmp_path / "f.csv"),
                                  "--out", str(tmp_path / "p.csv"), "--folds", "2"],
                "bench": ["--replicates", "1", "--out-dir", str(tmp_path / "bench")]}[command]
        assert self.run(command, *argv, flag, value) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists() and not (tmp_path / "bench").exists()

    def test_diverged_train_predict_is_usage_error(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        ids = [f"e{i}" for i in range(20)]
        (tmp_path / "l.csv").write_text("id,label_0\n" + "".join(
            f"{i},{v}\n" for i, v in zip(ids, [0, 1] * 10)))
        (tmp_path / "f.csv").write_text("id,feat_0,feat_1\n" + "".join(
            f"{i},{a},{b}\n" for i, (a, b) in zip(ids, rng.integers(0, 9, size=(20, 2)))))
        assert self.run("train-predict", "--labels", str(tmp_path / "l.csv"),
                        "--features", str(tmp_path / "f.csv"), "--out", str(tmp_path / "p.csv"),
                        "--lr", "1e10") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged (non-finite loss at epoch ")
        assert err.endswith("); try a smaller --lr\n")
        assert not (tmp_path / "p.csv").exists()

    def test_large_preset_gated(self, tmp_path):
        code = self.run("bench", "--preset", "large", "--out-dir", str(tmp_path))
        assert code == 1

    def test_usage_error_exit_code(self):
        assert self.run("score", "--labels", "x.csv") == 1      # missing required
        assert self.run("frobnicate") == 1                       # unknown command
        assert self.run("gen", "--n-samples", "10") == 1         # incomplete custom

    @pytest.mark.parametrize("flag, value", [("--max-errors", "-1"), ("--gamma-scale", "0"),
                                             ("--gamma-shape", "-1")])
    def test_gen_bad_noise_flag_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "data"
        assert self.run("gen", "--preset", "small", flag, value, "--out-dir", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--n-samples", "100"), ("--n-features", "2"),
                                             ("--n-classes", "3"), ("--expected-labels", "1"),
                                             ("--doc-length", "0")])
    def test_gen_preset_excludes_shape_flags(self, tmp_path, capsys, flag, value):
        out = tmp_path / "data"
        assert self.run("gen", "--preset", "small", flag, value, "--out-dir", str(out)) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_bench_one_fold_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert self.run("bench", "--replicates", "1", "--folds", "1", "--out-dir", str(out)) == 1
        assert "n_folds must be an integer in [2, 5000], got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_bench_method_is_usage_error(self, tmp_path):
        assert self.run("bench", "--methods", "min,bogus",
                        "--out-dir", str(tmp_path)) == 1

    def test_report_on_missing_file_is_data_error(self, tmp_path):
        assert self.run("report", "--metrics", str(tmp_path / "none.csv")) == 2

    def test_report_on_ragged_metrics_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "metrics.csv"
        bench.write_metrics_csv(path, [("tiny", 0, "logreg", "ema", "auprc", "", "", 0.5)] * 2)
        with path.open("a", newline="") as fh:
            fh.write("tiny,0,logreg,ema\r\n")
        assert self.run("report", "--metrics", str(path)) == 2
        assert capsys.readouterr().err == f"data error: {path}: row 4 has 4 cells, expected 8\n"

    def test_report_on_csv_error_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "metrics.csv"
        path.write_text(",".join(bench.METRICS_HEADER) + "\n" + "x" * (csv.field_size_limit() + 1))
        assert self.run("report", "--metrics", str(path)) == 2
        assert "field larger than field limit" in capsys.readouterr().err

    def test_too_many_folds_is_usage_error(self, tmp_path):
        (tmp_path / "l.csv").write_text("id,label_0\na,1\nb,0\nc,1\n")
        (tmp_path / "f.csv").write_text("id,feat_0\na,3\nb,1\nc,2\n")
        assert self.run("train-predict", "--labels", str(tmp_path / "l.csv"),
                        "--features", str(tmp_path / "f.csv"),
                        "--out", str(tmp_path / "p.csv"), "--folds", "5") == 1

    def test_data_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.csv"
        assert self.run("score", "--labels", str(missing), "--probs", str(missing),
                        "--out", str(tmp_path / "s.csv")) == 2
        bad = tmp_path / "bad.csv"
        bad.write_text("id,label_0\na,7\n")
        assert self.run("flag", "--labels", str(bad), "--probs", str(bad),
                        "--out", str(tmp_path / "f.csv")) == 2

    def test_mismatched_ids_exit_code(self, tmp_path):
        (tmp_path / "l.csv").write_text("id,label_0\na,1\nb,0\n")
        (tmp_path / "p.csv").write_text("id,prob_0\na,0.5\nc,0.5\n")
        assert self.run("score", "--labels", str(tmp_path / "l.csv"),
                        "--probs", str(tmp_path / "p.csv"),
                        "--out", str(tmp_path / "s.csv")) == 2

    def test_invalid_method_parameter_is_usage_error(self, tmp_path):
        (tmp_path / "l.csv").write_text("id,label_0\na,1\nb,0\n")
        (tmp_path / "p.csv").write_text("id,prob_0\na,0.5\nb,0.5\n")
        assert self.run("score", "--labels", str(tmp_path / "l.csv"),
                        "--probs", str(tmp_path / "p.csv"),
                        "--out", str(tmp_path / "s.csv"),
                        "--method", "ema", "--alpha", "7") == 1

    def test_non_finite_eps_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "l.csv").write_text("id,label_0\na,1\nb,0\n")
        (tmp_path / "p.csv").write_text("id,prob_0\na,0.5\nb,0.5\n")
        assert self.run("score", "--labels", str(tmp_path / "l.csv"),
                        "--probs", str(tmp_path / "p.csv"),
                        "--out", str(tmp_path / "s.csv"),
                        "--method", "log", "--eps", "inf") == 1
        assert "eps must be finite" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_env_var_supplies_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LABELAUDIT_OUT_DIR", str(tmp_path / "envout"))
        code = self.run("gen", "--n-samples", "30", "--n-features", "3",
                        "--n-classes", "4", "--expected-labels", "2",
                        "--doc-length", "40", "--seed", "2")
        assert code == 0
        assert (tmp_path / "envout" / "labels.csv").exists()

    def test_rescaled_scores_in_unit_interval(self, tmp_path):
        (tmp_path / "l.csv").write_text("id,label_0,label_1\na,1,0\nb,0,1\nc,1,1\n")
        (tmp_path / "p.csv").write_text("id,prob_0,prob_1\na,0.9,0.1\nb,0.4,0.6\nc,0.2,0.3\n")
        assert self.run("score", "--labels", str(tmp_path / "l.csv"),
                        "--probs", str(tmp_path / "p.csv"),
                        "--out", str(tmp_path / "s.csv"),
                        "--method", "log", "--rescale") == 0
        _, scores = load_scores_csv(tmp_path / "s.csv")
        assert scores.min() == 0.0 and scores.max() == 1.0
