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
since every logit enters the loss only through s * inv_temp.

The t2i direction is never stored separately: its logits are the
transpose of the i2t matrix, so its softmax is taken along the columns
of that matrix and its gradient lands there directly. Every KL comes
from the log-sum-exp form, KL(p || q) = sum(p log p) - sum(p z) + lse
per row, with z the shifted logits and lse their log-sum-exp; log q is
never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NegativeWeight, NumericError, ShapeMismatch
from .mathops import Workspace, row_softmax_with_log


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
    transposed). d_log_inv_temp is the derivative w.r.t. the log of the
    cross-modal temperature and d_log_inv_temp_uni the one w.r.t. the
    log of the uni-modal temperature, always apart: model.backward adds
    the second into the first when the parameters have no separate
    uni-modal temperature.
    """

    d_s_i2t: np.ndarray
    d_s_i2i: np.ndarray
    d_s_t2t: np.ndarray
    d_log_inv_temp: float
    d_log_inv_temp_uni: float = 0.0


def _mean_kl(h: np.ndarray, p: np.ndarray, z: np.ndarray, lse: np.ndarray) -> float:
    """Mean over rows of KL(p || q), from h = sum(p log p) per row and
    the shifted logits z and log-sum-exp lse of q; p and z share a layout."""
    return float((h.sum() - np.vdot(p, z) + lse.sum()) / h.shape[0])


def _mean_diag_log_q(z: np.ndarray, lse: np.ndarray) -> float:
    return float((np.diagonal(z) - lse.ravel()).mean())


def _usa_direction(s: np.ndarray, p: np.ndarray, h: np.ndarray, it_u: float,
                   beta: float, q: np.ndarray, z: np.ndarray):
    """One uni-modal direction of the objective.

    Returns (KL from p to softmax(s * it_u), the logit gradient
    beta * it_u / 2n * (q - p) formed in the buffer `q`, sum(gradient
    * s)). With beta = 0 the gradient's entries and its sum are +-0.0,
    which backward and Adam take as zeros. `s` and `p` are not modified.
    """
    q, z, lse = row_softmax_with_log(s, it_u, q, z)
    kl = _mean_kl(h, p, z, lse)
    q -= p
    q *= beta * it_u / (2.0 * s.shape[0])
    return kl, q, float(np.vdot(q, s))


def _check_weights(alpha: float, beta: float) -> None:
    if not (math.isfinite(alpha) and math.isfinite(beta) and alpha >= 0.0 and beta >= 0.0):
        raise NegativeWeight(f"alpha and beta must be finite and >= 0, got {alpha}, {beta}")


def cusa_total(l_original: float, l_csa: float, l_usa: float,
               alpha: float, beta: float) -> float:
    """Weighted sum of the three loss terms."""
    _check_weights(alpha, beta)
    return float(l_original + alpha * l_csa + beta * l_usa)


def loss_from_logits(s_i2t, s_i2i, s_t2t, targets, it: float, it_u: float,
                     alpha: float, beta: float, ws: Workspace | None = None):
    """The training objective and its gradients from the three logit matrices.

    Args:
        s_i2t: N x N cross-modal logits; entry (i, i) is the positive
            pair and the t2i logits are its transpose.
        s_i2i, s_t2t: N x N uni-modal logits of the projector branch.
        targets: TeacherTargets with constant p_i2i / p_t2t and their
            row sums h_i2i / h_t2t of p log p.
        it: inverse temperature of the cross-modal softmaxes.
        it_u: inverse temperature of the uni-modal softmaxes.
        alpha: CSA weight; beta: USA weight. Both finite and >= 0.
        ws: Workspace for the softmaxes and gradients (a fresh one when
            None).

    Returns:
        (LossReport, LossGradients). d_log_inv_temp is the derivative
        w.r.t. log(it) and d_log_inv_temp_uni the one w.r.t. log(it_u).
        The gradient matrices are buffers of `ws`, valid until its next
        use. A zero weight scales its term's gradient by zero: with
        alpha = 0 the cross-modal gradient keeps the bits of pure
        InfoNCE (c1 + 0 = c1 and d - 0 = d). No input is modified. A
        total loss that is not finite raises NumericError.
    """
    _check_weights(alpha, beta)
    n = s_i2t.shape[0]
    p_i2i, p_t2t = targets.p_i2i, targets.p_t2t
    for name, m in (("s_i2t", s_i2t), ("s_i2i", s_i2i), ("s_t2t", s_t2t),
                    ("p_i2i", p_i2i), ("p_t2t", p_t2t)):
        if m.shape != (n, n):
            raise ShapeMismatch(f"{name} shape {m.shape} does not match batch size {n}")
    it, it_u = float(it), float(it_u)
    ws = Workspace() if ws is None else ws

    def buf(name):
        return ws.buffer(name, (n, n))

    # cross-modal: InfoNCE and CSA share the i2t logits. The t2i softmax
    # runs along the columns, so q_t2i and z_t2i are held transposed and
    # C-ordered, like every other buffer here.
    q_i2t, z_i2t, lse_i2t = row_softmax_with_log(s_i2t, it, buf("q_i2t"), buf("z_i2t"))
    q_t2i_t, z_t2i_t, lse_t2i = row_softmax_with_log(s_i2t, it, buf("q_t2i"), buf("z_t2i"),
                                                     axis=0)
    l_original = -0.5 * (_mean_diag_log_q(z_i2t, lse_i2t) + _mean_diag_log_q(z_t2i_t, lse_t2i))
    kl_i2t = _mean_kl(targets.h_i2i, p_i2i, z_i2t, lse_i2t)
    p_sum = buf("scratch")
    np.copyto(p_sum, p_t2t.T)  # P_t^T, laid out like z_t2i_t
    kl_t2i = _mean_kl(targets.h_t2t, p_sum, z_t2i_t, lse_t2i)
    # d_s_i2t = c1 * ((Q_i2t - I) + (Q_t2i - I)^T) + c2 * ((Q_i2t - P_i) + (Q_t2i - P_t)^T)
    #         = (c1 + c2) * (Q_i2t + Q_t2i^T) - c2 * (P_i + P_t^T) - 2 c1 I,
    # formed in the q_i2t buffer
    c1 = it / (2.0 * n)
    d_s_i2t = q_i2t
    d_s_i2t += q_t2i_t
    c2 = alpha * c1
    d_s_i2t *= c1 + c2
    p_sum += p_i2i
    p_sum *= c2
    d_s_i2t -= p_sum
    d_s_i2t.reshape(-1)[::n + 1] -= 2.0 * c1
    d_log_it = float(np.vdot(d_s_i2t, s_i2t))

    # uni-modal: USA, in the dead z buffers of the cross-modal softmaxes
    kl_i2i, d_s_i2i, d_img = _usa_direction(
        s_i2i, p_i2i, targets.h_i2i, it_u, beta, buf("q_i2i"), z_i2t)
    kl_t2t, d_s_t2t, d_txt = _usa_direction(
        s_t2t, p_t2t, targets.h_t2t, it_u, beta, buf("q_t2t"), z_t2i_t)

    l_csa = 0.5 * (kl_i2t + kl_t2i)
    l_usa = 0.5 * (kl_i2i + kl_t2t)
    report = LossReport(
        l_original=float(l_original),
        l_csa=l_csa,
        l_usa=l_usa,
        l_total=cusa_total(l_original, l_csa, l_usa, alpha, beta),
        per_direction={"i2t": kl_i2t, "t2i": kl_t2i, "i2i": kl_i2i, "t2t": kl_t2t},
    )
    if not math.isfinite(report.l_total):
        raise NumericError(f"the loss is not finite: l_total = {report.l_total}")
    grads = LossGradients(d_s_i2t, d_s_i2i, d_s_t2t, d_log_it, float(d_img + d_txt))
    return report, grads


def student_logits(outputs, ws: Workspace | None = None) -> tuple:
    """(s_i2t, s_i2i, s_t2t) of a batch: the Gram matrix of the image
    and text embeddings and the Gram matrix of each projector head,
    written into buffers of `ws` when one is given."""
    n = outputs.img_emb.shape[0]

    def gram(a, b, name):
        return np.matmul(a, b.T, out=None if ws is None else ws.buffer(name, (n, n)))

    return (gram(outputs.img_emb, outputs.txt_emb, "s_i2t"),
            gram(outputs.img_usa, outputs.img_usa, "s_i2i"),
            gram(outputs.txt_usa, outputs.txt_usa, "s_t2t"))


def batch_loss_and_grads(outputs, targets, alpha: float, beta: float,
                         ws: Workspace | None = None):
    """Full forward loss and logit-level gradients for one batch.

    Forms the three logit matrices with student_logits in `ws` (fresh
    arrays when None) and hands them to loss_from_logits with the same
    workspace, whose gradients it returns unchanged.

    Args:
        outputs: StudentOutputs with normalized embeddings and the
            clamped inverse temperature(s).
        targets: TeacherTargets with constant p_i2i / p_t2t.
        alpha: CSA weight.
        beta: USA weight.
        ws: Workspace; the returned gradients stay valid until its next use.

    Returns:
        (LossReport, LossGradients).
    """
    return loss_from_logits(
        *student_logits(outputs, ws), targets, outputs.inv_temp, outputs.inv_temp_uni,
        alpha, beta, ws=ws,
    )


__all__ = [
    "LossReport",
    "LossGradients",
    "cusa_total",
    "loss_from_logits",
    "student_logits",
    "batch_loss_and_grads",
]
