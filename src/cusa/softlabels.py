"""Teacher soft-label targets from precomputed uni-modal features.

The teacher never trains: its features are validated once, its pairwise
similarities are turned into row-stochastic target distributions once
per batch and treated as constants by every loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, NonPositiveTemperature, NumericError, ShapeMismatch
from .mathops import (NORM_TOL, Workspace, _as_matrix, check_normalized, neg_entropy_rows,
                      row_softmax_with_log)


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
    """Constant target distributions for one batch (no gradient flows here).

    h_i2i and h_t2t hold each row's sum(p log p), which every KL against
    that target shares. build_batch_targets takes them from the
    teacher's own log-softmax; left as None, they come from p through
    mathops.neg_entropy_rows (0 log 0 = 0).
    """

    p_i2i: np.ndarray
    p_t2t: np.ndarray
    h_i2i: np.ndarray | None = None
    h_t2t: np.ndarray | None = None

    def __post_init__(self):
        if self.h_i2i is None:
            self.h_i2i = neg_entropy_rows(self.p_i2i)
        if self.h_t2t is None:
            self.h_t2t = neg_entropy_rows(self.p_t2t)


def _distribution(feats: np.ndarray, teacher_inv_temp: float, p: np.ndarray,
                  gram: np.ndarray):
    """(p, per-row sum(p log p)) of the teacher similarity softmax; the
    Gram matrix goes to `gram`, where the softmax leaves its shifted
    logits. No validation: TeacherBatch has checked the features and
    build_batch_targets the temperature."""
    gram = np.matmul(feats, feats.T, out=gram)
    p, z, lse = row_softmax_with_log(gram, float(teacher_inv_temp), p, gram)
    # log p = z - lse, and each row of p sums to 1
    h = np.einsum("ij,ij->i", p, z)
    h -= lse[:, 0]
    return p, h


def build_batch_targets(teacher: TeacherBatch, teacher_inv_temp: float,
                        rows=None, ws: Workspace | None = None) -> TeacherTargets:
    """Both uni-modal target distributions for a batch.

    The batch is `rows` of `teacher` (an index array; all rows when
    None). The features were validated when `teacher` was built, so a
    training loop builds one TeacherBatch over all its pairs and passes
    each batch's indices; only the batch size and the temperature are
    checked here (NumericError if 2 (1 + NORM_TOL)^2 t, the logits' span bound, overflows).

    The targets are written into `ws` (a fresh Workspace when None) and
    stay valid until its next use.
    """
    img, txt = teacher.image_features, teacher.text_features
    if rows is not None:
        img, txt = img[rows], txt[rows]
    n = img.shape[0]
    if n < 2:
        raise DegenerateInput("need at least 2 rows to form a target distribution")
    if not (teacher_inv_temp > 0.0):
        raise NonPositiveTemperature(f"teacher_inv_temp must be > 0, got {teacher_inv_temp!r}")
    if not math.isfinite(2.0 * (1.0 + NORM_TOL) ** 2 * float(teacher_inv_temp)):
        raise NumericError(f"teacher_inv_temp {teacher_inv_temp!r} overflows the teacher logits")
    ws = Workspace() if ws is None else ws
    # "scratch" holds nothing past this call; the loss reuses it
    gram = ws.buffer("scratch", (n, n))
    p_i2i, h_i2i = _distribution(img, teacher_inv_temp, ws.buffer("p_i2i", (n, n)), gram)
    p_t2t, h_t2t = _distribution(txt, teacher_inv_temp, ws.buffer("p_t2t", (n, n)), gram)
    return TeacherTargets(p_i2i, p_t2t, h_i2i, h_t2t)
