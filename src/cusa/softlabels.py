"""Teacher soft-label targets from precomputed uni-modal features.

The teacher never trains: its features are validated once, its pairwise
similarities are turned into row-stochastic target distributions once
per batch and treated as constants by every loss. A batch's targets
are one (2, n, n) stack, i2i then t2t, from one softmax call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, NonPositiveTemperature, NumericError, ShapeMismatch
from .mathops import (NORM_TOL, Workspace, _as_matrix, check_normalized, neg_entropy_rows,
                      row_softmax_with_log, stack_slice)


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

    `p` stacks p_i2i and p_t2t; `h` stacks h_i2i and h_t2t, each row's
    sum(p log p), which every KL against that target shares.
    build_batch_targets takes h from the teacher's own log-softmax; left
    as None, it comes from p through mathops.neg_entropy_rows.
    """

    p: np.ndarray
    h: np.ndarray | None = None

    p_i2i = stack_slice("p", 0)
    p_t2t = stack_slice("p", 1)
    h_i2i = stack_slice("h", 0)
    h_t2t = stack_slice("h", 1)

    def __post_init__(self):
        if self.h is None:
            self.h = neg_entropy_rows(self.p)


def _distribution(feats: tuple, teacher_inv_temp: float, p: np.ndarray, gram: np.ndarray):
    """(p, per-row sum(p log p)) stacks of the teacher similarity softmax
    of each matrix of `feats`; the Gram matrices go to the stack `gram`,
    where the softmax leaves its shifted logits. No validation:
    TeacherBatch has checked the features and build_batch_targets the
    temperature."""
    for k, f in enumerate(feats):  # teacher dims may differ: one Gram matrix each
        np.matmul(f, f.T, out=gram[k])
    p, z, lse = row_softmax_with_log(gram, float(teacher_inv_temp), p, gram)
    # log p = z - lse, and each row of p sums to 1
    h = np.einsum("bij,bij->bi", p, z)
    h -= lse[..., 0]
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
    # the Gram stack is dead once the targets are formed, so it borrows
    # the cross-modal half of the loss's softmax stack, written later
    return TeacherTargets(*_distribution((img, txt), teacher_inv_temp, ws.buffer("p", (2, n, n)),
                                         ws.buffer("q", (2, 2, n, n))[0]))
