"""Loss values and analytic gradients for the combined training objective.

Three terms are computed over a batch of N image-text pairs:

* ``l_original``: symmetric InfoNCE over the cross-modal logits, with
  the one-hot positive on the diagonal, averaged over both retrieval
  directions.
* ``l_csa``: KL divergence from the teacher's uni-modal distributions
  to the student's cross-modal distributions, both directions averaged.
* ``l_usa``: KL divergence from the same teacher distributions to the
  student's within-modality distributions (the projector branch).

Teacher distributions are constants: no gradient flows into them. For a
row-softmax loss over scaled logits s * inv_temp, the gradient w.r.t. s
is (Q - target) * inv_temp / N per direction, and the gradient w.r.t.
log(inv_temp) follows from the identity d/d(log it) = sum(dL/ds * s),
since every logit enters the loss only through s * inv_temp. One
inverse temperature scales all four softmaxes, so that derivative is
one sum over the four directions.

The four directions are one (2, 2, n, n) stack of logits, [[i2t, t2i],
[i2i, t2t]]: cross-modal then uni-modal, image rows then text rows, so
matrix [a, k] takes its target from the teacher's p[k]. One row softmax
covers the stack, and each direction's logit gradient is formed in its
own softmax slot. The t2i logits are a matrix of their own; nothing
assumes they are the transpose of the i2t ones. Every KL comes from the
log-sum-exp form, KL(p || q) = sum(p log p) - sum(p z) + lse per row,
with z the shifted logits and lse their log-sum-exp; log q is never
formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NegativeWeight, NumericError, ShapeMismatch
from .mathops import Workspace, row_softmax_with_log, stack_slice


@dataclass
class LossReport:
    """Scalar loss values for one batch.

    ``per_direction`` holds the four KL alignment terms keyed i2t, t2i
    (cross-modal) and i2i, t2t (uni-modal); each is nonnegative. The
    total satisfies l_total = l_original + alpha*l_csa + beta*l_usa.
    """

    l_original: float
    l_csa: float
    l_usa: float
    l_total: float
    per_direction: dict = field(default_factory=dict)


@dataclass
class LossGradients:
    """Gradients of a scalar loss w.r.t. the similarity logits.

    d_s is laid out like the logit stack, [[i2t, t2i], [i2i, t2t]], and
    d_s_i2t, d_s_t2i, d_s_i2i and d_s_t2t view its matrices.
    d_log_inv_temp is the derivative w.r.t. the log of the one inverse
    temperature that every softmax of the objective shares.
    """

    d_s: np.ndarray
    d_log_inv_temp: float

    d_s_i2t = stack_slice("d_s", (0, 0))
    d_s_t2i = stack_slice("d_s", (0, 1))
    d_s_i2i = stack_slice("d_s", (1, 0))
    d_s_t2t = stack_slice("d_s", (1, 1))


def _check_weights(alpha: float, beta: float) -> None:
    if not (math.isfinite(alpha) and math.isfinite(beta) and alpha >= 0.0 and beta >= 0.0):
        raise NegativeWeight(f"alpha and beta must be finite and >= 0, got {alpha}, {beta}")


def cusa_total(l_original: float, l_csa: float, l_usa: float,
               alpha: float, beta: float) -> float:
    """Weighted sum of the three loss terms; NumericError if it is not finite."""
    _check_weights(alpha, beta)
    total = float(l_original) + float(alpha) * float(l_csa) + float(beta) * float(l_usa)
    if not math.isfinite(total):
        raise NumericError(f"the loss is not finite: l_total = {total}")
    return total


def loss_from_logits(s, targets, it: float, alpha: float, beta: float,
                     ws: Workspace | None = None):
    """The training objective and its gradients from the logit stack.

    Args:
        s: 2 x 2 x N x N stack of the logits, [[i2t, t2i], [i2i, t2t]]:
            the cross-modal pair, whose entries (i, i) are the positive
            pairs, then the uni-modal pair of the projector branch.
        targets: TeacherTargets with the constant stack p of p_i2i /
            p_t2t and the stack h of their row sums of p log p.
        it: inverse temperature of every softmax, cross-modal and
            uni-modal.
        alpha: CSA weight; beta: USA weight. Both finite and >= 0.
        ws: Workspace for the softmax and the gradients (a fresh one
            when None).

    Returns:
        (LossReport, LossGradients). d_log_inv_temp is the derivative
        w.r.t. log(it), summed over all four directions. The gradients
        are a buffer of `ws`, valid until its next use. A zero weight
        scales its term's gradient by zero: with alpha = 0 the
        cross-modal gradients keep the bits of pure InfoNCE (c1 + 0 = c1
        and d - 0 = d). No input is modified. A total loss that is not
        finite raises NumericError.
    """
    _check_weights(alpha, beta)
    n = s.shape[-1]
    p, h = targets.p, targets.h
    for name, m, shape in (("s", s, (2, 2, n, n)), ("p", p, (2, n, n)), ("h", h, (2, n))):
        if m.shape != shape:
            raise ShapeMismatch(f"{name} shape {m.shape} does not match batch size {n}")
    it = float(it)
    ws = Workspace() if ws is None else ws
    q, z, lse = row_softmax_with_log(s, it, ws.buffer("q", s.shape), ws.buffer("z", s.shape))
    # kl[a, k]: the mean over rows of KL(p[k] || q[a, k])
    kl = np.add.reduce(h, axis=-1) - np.einsum("kij,akij->ak", p, z)
    kl += np.add.reduce(lse, axis=(-2, -1))
    kl /= n
    # InfoNCE: the mean -log q of the positive pairs, over both directions
    l_original = -float(np.add.reduce(z[0].diagonal(axis1=-2, axis2=-1) - lse[0, ..., 0],
                                      axis=None)) / (2.0 * n)
    # cross-modal, per direction: c1 (Q - I) + c2 (Q - P) = (c1 + c2) Q - c2 P - c1 I,
    # with c2 P formed in the dead shifted logits
    c1 = it / (2.0 * n)
    c2 = alpha * c1
    q[0] *= c1 + c2
    q[0] -= np.multiply(p, c2, out=z[0])
    q[0].reshape(2, -1)[:, ::n + 1] -= c1
    # uni-modal: beta * it / 2n * (Q - P)
    q[1] -= p
    q[1] *= beta * it / (2.0 * n)

    (kl_i2t, kl_t2i), (kl_i2i, kl_t2t) = kl.tolist()
    l_csa = 0.5 * (kl_i2t + kl_t2i)
    l_usa = 0.5 * (kl_i2i + kl_t2t)
    report = LossReport(
        l_original=l_original,
        l_csa=l_csa,
        l_usa=l_usa,
        l_total=cusa_total(l_original, l_csa, l_usa, alpha, beta),
        per_direction={"i2t": kl_i2t, "t2i": kl_t2i, "i2i": kl_i2i, "t2t": kl_t2t},
    )
    return report, LossGradients(q, float(np.einsum("akij,akij->", q, s)))


def student_logits(outputs, ws: Workspace | None = None) -> np.ndarray:
    """The (2, 2, n, n) logit stack of a batch, [[i2t, t2i], [i2i, t2t]]:
    each modality's retrieval embeddings against the other's, then each
    projector head's Gram matrix; written into a buffer of `ws` when one
    is given."""
    emb, usa = outputs.emb, outputs.usa
    n = emb.shape[1]
    s = np.empty((2, 2, n, n)) if ws is None else ws.buffer("s", (2, 2, n, n))
    np.matmul(emb, emb[::-1].mT, out=s[0])
    np.matmul(usa, usa.mT, out=s[1])
    return s


def batch_loss_and_grads(outputs, targets, alpha: float, beta: float,
                         ws: Workspace | None = None):
    """Full forward loss and logit-level gradients for one batch.

    Forms the logit stack with student_logits in `ws` (a fresh array
    when None) and hands it to loss_from_logits with the same
    workspace, whose gradients it returns unchanged.

    Args:
        outputs: StudentOutputs with normalized embeddings and the
            clamped inverse temperature.
        targets: TeacherTargets with constant p_i2i / p_t2t.
        alpha: CSA weight.
        beta: USA weight.
        ws: Workspace; the returned gradients stay valid until its next use.

    Returns:
        (LossReport, LossGradients).
    """
    return loss_from_logits(student_logits(outputs, ws), targets, outputs.inv_temp,
                            alpha, beta, ws=ws)


__all__ = [
    "LossReport",
    "LossGradients",
    "cusa_total",
    "loss_from_logits",
    "student_logits",
    "batch_loss_and_grads",
]
