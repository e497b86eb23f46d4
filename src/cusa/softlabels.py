"""Teacher soft-label targets from precomputed uni-modal features.

The teacher never trains: its features are validated once, its pairwise
similarities are turned into row-stochastic target distributions once
per batch and treated as constants by every loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, NonPositiveTemperature, ShapeMismatch
from .mathops import _as_matrix, check_normalized, row_softmax_with_log


@dataclass
class TeacherBatch:
    """Validated teacher features; row i of each matrix is pair i.

    Hold a single batch, or every training pair with batches taken as
    rows of it by build_batch_targets.
    """

    image_features: np.ndarray
    text_features: np.ndarray

    def __post_init__(self):
        self.image_features = _as_matrix(self.image_features, "image_features")
        self.text_features = _as_matrix(self.text_features, "text_features")
        if self.image_features.shape[0] != self.text_features.shape[0]:
            raise ShapeMismatch(
                "teacher image/text row counts differ: "
                f"{self.image_features.shape[0]} vs {self.text_features.shape[0]}"
            )
        check_normalized(self.image_features, "image_features")
        check_normalized(self.text_features, "text_features")


@dataclass
class TeacherTargets:
    """Constant target distributions for one batch (no gradient flows here)."""

    p_i2i: np.ndarray
    p_t2t: np.ndarray


def _distribution(feats: np.ndarray, teacher_inv_temp: float) -> np.ndarray:
    # no validation: callers have checked the features and temperature
    p, _ = row_softmax_with_log(feats @ feats.T, float(teacher_inv_temp))
    return p


def _check_batch(n_rows: int, teacher_inv_temp: float) -> None:
    if n_rows < 2:
        raise DegenerateInput("need at least 2 rows to form a target distribution")
    if not (teacher_inv_temp > 0.0):
        raise NonPositiveTemperature(
            f"teacher_inv_temp must be > 0, got {teacher_inv_temp!r}"
        )


def teacher_distribution(features, teacher_inv_temp: float = 1.0) -> np.ndarray:
    """Row-softmax of the teacher's self-similarity matrix.

    The diagonal (self-similarity, always 1) stays inside the softmax:
    the normalization runs over all batch members including the anchor
    itself. Default inverse temperature 1.0 applies no extra scaling to
    the raw cosine similarities.
    """
    feats = _as_matrix(features, "features")
    _check_batch(feats.shape[0], teacher_inv_temp)
    check_normalized(feats, "features")
    return _distribution(feats, teacher_inv_temp)


def build_batch_targets(teacher: TeacherBatch, teacher_inv_temp: float = 1.0,
                        rows=None) -> TeacherTargets:
    """Both uni-modal target distributions for a batch.

    The batch is `rows` of `teacher` (an index array; all rows when
    None). The features were validated when `teacher` was built, so a
    training loop builds one TeacherBatch over all its pairs and passes
    each batch's indices; only the batch size and the temperature are
    checked here.
    """
    img, txt = teacher.image_features, teacher.text_features
    if rows is not None:
        img, txt = img[rows], txt[rows]
    _check_batch(img.shape[0], teacher_inv_temp)
    return TeacherTargets(
        p_i2i=_distribution(img, teacher_inv_temp),
        p_t2t=_distribution(txt, teacher_inv_temp),
    )
