"""Find mislabeled examples in multi-label classification datasets.

Works from any classifier's out-of-sample predicted class probabilities:
per-class confident-learning flags (with a union rule across classes) plus
pooled per-example label-quality scores for ranking, and a synthetic
benchmark that exercises the whole pipeline.
"""

__version__ = "0.1.0"

from .confident import FlagReport, flag_multilabel
from .data import (
    DataFormatError,
    MultiLabelDataset,
    load_dataset,
    load_jsonl,
    save_jsonl,
    save_scores_csv,
)
from .metrics import (
    ErrorTruth,
    MetricResult,
    ap_at_t,
    auprc,
    error_truth,
    evaluate,
    rank_ascending,
    spearman,
)
from .model import CVConfig, LogRegModel, TrainConfig, cross_val_pred_probs, predict_proba, train
from .scoring import (
    POOLER_NAMES,
    PoolingMethod,
    QualityScoreVector,
    pool,
    score_all,
    score_examples,
    self_confidence,
)
from .synth import (
    GenConfig,
    NoiseSpec,
    build_noise_matrix,
    draw_noise_spec,
    gen_multilabel,
    inject_noise,
    sample_noise_traces,
)

__all__ = [
    "CVConfig",
    "DataFormatError",
    "ErrorTruth",
    "FlagReport",
    "GenConfig",
    "LogRegModel",
    "MetricResult",
    "MultiLabelDataset",
    "NoiseSpec",
    "POOLER_NAMES",
    "PoolingMethod",
    "QualityScoreVector",
    "TrainConfig",
    "ap_at_t",
    "auprc",
    "build_noise_matrix",
    "cross_val_pred_probs",
    "draw_noise_spec",
    "error_truth",
    "evaluate",
    "flag_multilabel",
    "gen_multilabel",
    "inject_noise",
    "load_dataset",
    "load_jsonl",
    "pool",
    "predict_proba",
    "rank_ascending",
    "sample_noise_traces",
    "save_jsonl",
    "save_scores_csv",
    "score_all",
    "score_examples",
    "self_confidence",
    "spearman",
    "train",
]
