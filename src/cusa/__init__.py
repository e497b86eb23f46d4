"""Soft-label alignment toolkit for contrastive image-text retrieval.

Trains a linear-projection student over precomputed features with an
InfoNCE objective plus two KL regularizers driven by frozen teacher
similarities: a cross-modal term that softens in-batch false negatives
and a uni-modal term that preserves within-modality structure. Ships
analytic gradients, a deterministic training loop, a multi-positive
retrieval metric suite, bit-exact binary formats, a synthetic corpus
generator, and a CLI (``cusa``).
"""

from .dataio import (
    FeatureTable,
    load_checkpoint,
    read_features,
    read_pairs,
    read_relevance,
    read_scored_pairs,
    save_checkpoint,
    write_features,
)
from .errors import (
    CusaError,
    DataError,
    FormatError,
    NumericError,
    UsageError,
)
from .losses import (
    LossGradients,
    LossReport,
    batch_loss_and_grads,
    cusa_total,
    loss_from_logits,
)
from .mathops import (
    cosine_similarity,
    l2_normalize_rows,
    row_softmax,
)
from .metrics import (
    Relevance,
    evaluate_cross_modal,
    evaluate_uni_modal,
    map_at_r,
    r_precision,
    rank_by_similarity,
    recall_at_k,
    rsum,
    spearman,
)
from .model import (
    StudentOutputs,
    StudentParams,
    backward,
    embed_images,
    embed_texts,
    forward,
    init_params,
)
from .softlabels import (
    TeacherBatch,
    TeacherTargets,
    build_batch_targets,
)
from .synthetic import SynthConfig, SynthData, generate, synth_generate
from .trainer import TrainConfig, TrainData, TrainLog, train

__version__ = "0.1.0"

__all__ = [
    "CusaError", "UsageError", "FormatError", "DataError", "NumericError",
    "l2_normalize_rows", "cosine_similarity", "row_softmax",
    "build_batch_targets", "TeacherBatch", "TeacherTargets",
    "loss_from_logits", "cusa_total", "batch_loss_and_grads",
    "LossReport", "LossGradients",
    "StudentParams", "StudentOutputs", "init_params", "forward", "backward",
    "embed_images", "embed_texts",
    "TrainConfig", "TrainData", "TrainLog", "train",
    "Relevance", "rank_by_similarity", "recall_at_k", "r_precision", "map_at_r",
    "rsum", "spearman", "evaluate_cross_modal", "evaluate_uni_modal",
    "FeatureTable", "read_features", "write_features", "read_pairs",
    "read_relevance", "read_scored_pairs", "save_checkpoint", "load_checkpoint",
    "SynthConfig", "SynthData", "generate", "synth_generate",
    "__version__",
]
