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
the cross-modal sum with the two uni-modal sums added to it.

The t2i direction is never stored separately: its logits are the
transpose of the i2t matrix, so its softmax is taken along the columns
of that matrix and its gradient lands there directly. Every KL comes
from the log-sum-exp form, KL(p || q) = sum(p log p) - sum(p z) + lse
per row, with z the shifted logits and lse their log-sum-exp; log q is
never formed.
The two uni-modal directions run as one, on (2, n, n) stacks of
their logits, targets, softmax and gradient, i2i then t2t.
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

    d_s_i2t carries both cross-modal directions (the t2i part enters
    transposed); d_s_uni stacks d_s_i2i and d_s_t2t. d_log_inv_temp is
    the derivative w.r.t. the log of the one inverse temperature that
    every softmax of the objective shares.
    """

    d_s_i2t: np.ndarray
    d_s_uni: np.ndarray
    d_log_inv_temp: float

    d_s_i2i = stack_slice("d_s_uni", 0)
    d_s_t2t = stack_slice("d_s_uni", 1)


def _mean_kl(h: np.ndarray, p: np.ndarray, z: np.ndarray, lse: np.ndarray) -> float:
    """Mean over rows of KL(p || q), from h = sum(p log p) per row and
    the shifted logits z and log-sum-exp lse of q; p and z share a layout."""
    return float((np.add.reduce(h, axis=None) - np.vdot(p, z)
                  + np.add.reduce(lse, axis=None)) / h.shape[0])


def _mean_diag_log_q(z: np.ndarray, lse: np.ndarray) -> float:
    # the sum over the count, as ndarray.mean forms it
    return float(np.add.reduce(z.diagonal() - lse.ravel(), axis=None) / lse.size)


def _usa_directions(s: np.ndarray, p: np.ndarray, h: np.ndarray, it: float,
                    beta: float, q: np.ndarray, z: np.ndarray):
    """Both uni-modal directions of the objective, from (2, n, n) stacks.

    Returns ((KL from p[k] to softmax(s[k] * it) for k = i2i, t2t), the
    logit gradient stack beta * it / 2n * (q - p) formed in the buffer
    `q`, sum(gradient * s) over both). With beta = 0 the gradient's
    entries and its sums are +-0.0, which backward and Adam take as
    zeros. `s` and `p` are not modified.
    """
    q, z, lse = row_softmax_with_log(s, it, q, z)
    kl = (_mean_kl(h[0], p[0], z[0], lse[0]), _mean_kl(h[1], p[1], z[1], lse[1]))
    q -= p
    q *= beta * it / (2.0 * s.shape[1])
    return kl, q, float(np.vdot(q[0], s[0])) + float(np.vdot(q[1], s[1]))


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


def loss_from_logits(s_i2t, s_uni, targets, it: float, alpha: float, beta: float,
                     ws: Workspace | None = None):
    """The training objective and its gradients from the logit matrices.

    Args:
        s_i2t: N x N cross-modal logits; entry (i, i) is the positive
            pair and the t2i logits are its transpose.
        s_uni: 2 x N x N stack of the uni-modal logits of the projector
            branch, [0] = i2i and [1] = t2t.
        targets: TeacherTargets with the constant stack p of p_i2i /
            p_t2t and the stack h of their row sums of p log p.
        it: inverse temperature of every softmax, cross-modal and
            uni-modal.
        alpha: CSA weight; beta: USA weight. Both finite and >= 0.
        ws: Workspace for the softmaxes and gradients (a fresh one when
            None).

    Returns:
        (LossReport, LossGradients). d_log_inv_temp is the derivative
        w.r.t. log(it): the cross-modal part, then the uni-modal one
        (i2i plus t2t) added. The gradients are buffers of `ws`, valid until
        its next use. A zero weight scales its term's gradient by zero:
        with alpha = 0 the cross-modal gradient keeps the bits of pure
        InfoNCE (c1 + 0 = c1 and d - 0 = d). No input is modified. A
        total loss that is not finite raises NumericError.
    """
    _check_weights(alpha, beta)
    n = s_i2t.shape[0]
    p, h = targets.p, targets.h
    for name, m, shape in (("s_i2t", s_i2t, (n, n)), ("s_uni", s_uni, (2, n, n)),
                           ("p", p, (2, n, n))):
        if m.shape != shape:
            raise ShapeMismatch(f"{name} shape {m.shape} does not match batch size {n}")
    it = float(it)
    ws = Workspace() if ws is None else ws
    q, z = ws.buffer("q", (2, n, n)), ws.buffer("z", (2, n, n))

    # cross-modal: InfoNCE and CSA share the i2t logits. The t2i softmax
    # runs along the columns, so q_t2i and z_t2i are held transposed and
    # C-ordered, like every other buffer here.
    q_i2t, z_i2t, lse_i2t = row_softmax_with_log(s_i2t, it, q[0], z[0])
    q_t2i_t, z_t2i_t, lse_t2i = row_softmax_with_log(s_i2t, it, q[1], z[1], axis=-2)
    l_original = -0.5 * (_mean_diag_log_q(z_i2t, lse_i2t) + _mean_diag_log_q(z_t2i_t, lse_t2i))
    kl_i2t = _mean_kl(h[0], p[0], z_i2t, lse_i2t)
    p_sum = ws.buffer("scratch", (n, n))
    np.copyto(p_sum, p[1].T)  # P_t^T, laid out like z_t2i_t
    kl_t2i = _mean_kl(h[1], p_sum, z_t2i_t, lse_t2i)
    # d_s_i2t = c1 * ((Q_i2t - I) + (Q_t2i - I)^T) + c2 * ((Q_i2t - P_i) + (Q_t2i - P_t)^T)
    #         = (c1 + c2) * (Q_i2t + Q_t2i^T) - c2 * (P_i + P_t^T) - 2 c1 I,
    # formed in the q_i2t buffer
    c1 = it / (2.0 * n)
    d_s_i2t = q_i2t
    d_s_i2t += q_t2i_t
    c2 = alpha * c1
    d_s_i2t *= c1 + c2
    p_sum += p[0]
    p_sum *= c2
    d_s_i2t -= p_sum
    d_s_i2t.reshape(-1)[::n + 1] -= 2.0 * c1
    d_log_it = float(np.vdot(d_s_i2t, s_i2t))

    # uni-modal: USA, in the dead z pair of the cross-modal softmaxes
    (kl_i2i, kl_t2t), d_s_uni, d_log_uni = _usa_directions(
        s_uni, p, h, it, beta, ws.buffer("q_uni", (2, n, n)), z)

    l_csa = 0.5 * (kl_i2t + kl_t2i)
    l_usa = 0.5 * (kl_i2i + kl_t2t)
    report = LossReport(
        l_original=float(l_original),
        l_csa=l_csa,
        l_usa=l_usa,
        l_total=cusa_total(l_original, l_csa, l_usa, alpha, beta),
        per_direction={"i2t": kl_i2t, "t2i": kl_t2i, "i2i": kl_i2i, "t2t": kl_t2t},
    )
    grads = LossGradients(d_s_i2t, d_s_uni, d_log_it + d_log_uni)
    return report, grads


def student_logits(outputs, ws: Workspace | None = None) -> tuple:
    """(s_i2t, s_uni) of a batch: the Gram matrix of the image and text
    embeddings and the (2, n, n) stack of each projector head's Gram
    matrix, written into buffers of `ws` when one is given."""
    n = outputs.emb.shape[1]

    def out(name, shape):
        return None if ws is None else ws.buffer(name, shape)

    return (np.matmul(outputs.emb[0], outputs.emb[1].T, out=out("s_i2t", (n, n))),
            np.matmul(outputs.usa, outputs.usa.mT, out=out("s_uni", (2, n, n))))


def batch_loss_and_grads(outputs, targets, alpha: float, beta: float,
                         ws: Workspace | None = None):
    """Full forward loss and logit-level gradients for one batch.

    Forms the logits with student_logits in `ws` (fresh
    arrays when None) and hands them to loss_from_logits with the same
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
    return loss_from_logits(*student_logits(outputs, ws), targets, outputs.inv_temp,
                            alpha, beta, ws=ws)


__all__ = [
    "LossReport",
    "LossGradients",
    "cusa_total",
    "loss_from_logits",
    "student_logits",
    "batch_loss_and_grads",
]
