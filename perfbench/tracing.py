"""Per-layer spans around the calls the entry points make into each module.

``Tracer.patched()`` replaces, for the duration of a traced op, the names that
``labelaudit.bench`` and ``labelaudit.cli`` imported from the layer modules
with timing wrappers. The entry points therefore run unchanged and call the
same functions in the same order; each wrapper records a span (op id, name,
start, end) and the counts visible at that boundary. None of the wrapped
calls nests inside another, so the entry point's self time is the op's time
minus the sum of its spans.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from labelaudit import bench, cli
from labelaudit.scoring import POOLER_NAMES

# name imported into bench/cli -> span (layer.function) it is timed under
SPAN_OF = {
    "gen_multilabel": "synth.gen_multilabel",
    "draw_noise_spec": "synth.inject_noise",
    "inject_noise": "synth.inject_noise",
    "cross_val_pred_probs": "model.cross_val_pred_probs",
    "score_examples": "scoring.score_examples",
    "error_truth": "metrics.error_truth",
    "ap_at_t": "metrics.ap_at_t",
    "auprc": "metrics.auprc",
    "spearman": "metrics.spearman",
    "flag_multilabel": "confident.flag_multilabel",
    "save_flags_csv": "confident.save_flags_csv",
    "save_flag_summary_json": "confident.save_flags_csv",
    "load_labels_csv": "data.load_labels_csv",
    "load_probs_csv": "data.load_probs_csv",
    "validate": "data.validate",
    "save_labels_csv": "data.save_labels_csv",
    "save_features_csv": "data.save_features_csv",
    "save_scores_csv": "data.save_scores_csv",
}
ENTRY_MODULES = (bench, cli)
DATA_SPANS = [span for span in SPAN_OF.values() if span.startswith("data.")]

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"{span}.s", "s", "lower") for span in dict.fromkeys(SPAN_OF.values())]
    + [(f"scoring.{name}.s", "s", "lower") for name in POOLER_NAMES]
    + [
        ("synth.cells", "count", "higher"),
        ("synth.errors_injected", "count", "higher"),
        ("model.epoch_updates", "count", "lower"),
        ("model.gflop", "gflop", "lower"),
        ("model.gflops_per_s", "gflop/s", "higher"),
        ("metrics.evaluations", "count", "higher"),
        ("confident.flagged_examples", "count", "higher"),
        ("confident.skipped_classes", "count", "lower"),
        ("confident.noise_rate_abs_err", "prob", "lower"),
        ("data.bytes_read", "bytes", "lower"),
        ("data.bytes_written", "bytes", "lower"),
        ("data.read_mb_per_s", "MB/s", "higher"),
        ("data.write_mb_per_s", "MB/s", "higher"),
        ("bench.self.s", "s", "lower"),
        ("cli.self.s", "s", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


@dataclass(frozen=True)
class Span:
    op: int
    name: str
    start: float
    end: float


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.per_op: dict[int, defaultdict[str, float]] = {}
        self.op = -1
        self.noise_matrices = None

    def begin_op(self, op: int, noise_matrices=None) -> None:
        """Start attributing spans to ``op``; true noise defaults to the workload's."""
        self.op = op
        self.per_op[op] = defaultdict(float)
        self.noise_matrices = noise_matrices

    def end_op(self, op_seconds: float, entry: str) -> None:
        """Derive the op's ratio metrics and its entry point's self time."""
        m = self.per_op[self.op]
        spans = sum(s.end - s.start for s in self.spans if s.op == self.op)
        m[f"{entry}.self.s"] = op_seconds - spans
        m["model.gflops_per_s"] = _ratio(m["model.gflop"], m["model.cross_val_pred_probs.s"])
        read_s = sum(m[f"{s}.s"] for s in DATA_SPANS if s.startswith("data.load_"))
        write_s = sum(m[f"{s}.s"] for s in DATA_SPANS if s.startswith("data.save_"))
        m["data.read_mb_per_s"] = _ratio(m["data.bytes_read"] / 1e6, read_s)
        m["data.write_mb_per_s"] = _ratio(m["data.bytes_written"] / 1e6, write_s)

    @contextlib.contextmanager
    def patched(self):
        saved = []
        try:
            for module in ENTRY_MODULES:
                for attr, span in SPAN_OF.items():
                    if hasattr(module, attr):
                        fn = getattr(module, attr)
                        saved.append((module, attr, fn))
                        setattr(module, attr, self._wrap(span, fn))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def _wrap(self, span: str, fn):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            self.spans.append(Span(self.op, span, start, end))
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            self._count(span, call.arguments, result, end - start)
            return result

        return traced

    def _count(self, span: str, arguments: dict, result, seconds: float) -> None:
        m = self.per_op[self.op]
        m[f"{span}.s"] += seconds
        if span == "synth.gen_multilabel":
            m["synth.cells"] += result.given_labels.size
        elif span == "synth.inject_noise":
            if "matrices" in arguments:  # inject_noise, not draw_noise_spec
                m["synth.errors_injected"] += int((result != arguments["true_labels"]).sum())
            else:
                self.noise_matrices = result.matrices
        elif span == "model.cross_val_pred_probs":
            dataset, cv, config = arguments["dataset"], arguments["cv"], arguments["config"]
            updates = cv.n_folds * config.epochs
            m["model.epoch_updates"] += updates
            # each fold-epoch: forward X @ W.T and gradient R.T @ X over its training rows,
            # 2 flops per multiply-add each; the folds' training rows sum to (F-1) N
            n_train = (cv.n_folds - 1) * dataset.n_examples
            m["model.gflop"] += 4 * n_train * dataset.features.shape[1] * dataset.n_classes \
                * config.epochs / 1e9
        elif span == "scoring.score_examples":
            m[f"scoring.{arguments['method'].name}.s"] += seconds
        elif span.startswith("metrics.") and span != "metrics.error_truth":
            m["metrics.evaluations"] += 1
        elif span == "confident.flag_multilabel":
            m["confident.flagged_examples"] += int(result.example_flags.sum())
            m["confident.skipped_classes"] += len(result.skipped_classes)
            if self.noise_matrices is not None:
                err = np.abs(result.estimated_noise_rates - self.noise_matrices).mean()
                m["confident.noise_rate_abs_err"] += float(err)
        elif span.startswith("data.load_"):
            m["data.bytes_read"] += os.path.getsize(arguments["path"])
        elif span.startswith("data.save_"):
            m["data.bytes_written"] += os.path.getsize(arguments["path"])

    def layer_medians(self) -> dict[str, float]:
        """Per-op median of every per-layer metric (0 where a layer is not called)."""
        ops = list(self.per_op.values())
        return {name: statistics.median(op[name] for op in ops)
                for name, _, _ in PER_LAYER if name != "trace.overhead_frac"}

    def span_records(self) -> list[dict]:
        return [{"op": s.op, "name": s.name, "start": s.start, "end": s.end} for s in self.spans]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0
