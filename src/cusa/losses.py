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
transpose of the i2t matrix, and its gradient contribution is routed
back through that transpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NegativeWeight, ShapeMismatch
from .mathops import kl_rows_raw, log_prob, row_softmax_with_log


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

    def as_dict(self) -> dict:
        return {
            "l_original": self.l_original,
            "l_csa": self.l_csa,
            "l_usa": self.l_usa,
            "l_total": self.l_total,
            "per_direction": dict(self.per_direction),
        }


@dataclass
class LossGradients:
    """Gradients of a scalar loss w.r.t. the similarity logits.

    d_s_i2t carries both cross-modal directions (the t2i part enters
    transposed). loss_from_logits returns the derivatives w.r.t. the
    two log-temperatures apart; batch_loss_and_grads folds the
    uni-modal one into d_log_inv_temp, leaving d_log_inv_temp_uni 0.0,
    unless a separate uni-modal temperature is in use.
    """

    d_s_i2t: np.ndarray
    d_s_i2i: np.ndarray
    d_s_t2t: np.ndarray
    d_log_inv_temp: float
    d_log_inv_temp_uni: float = 0.0


def _infonce_logit_grad(q_i2t: np.ndarray, q_t2i: np.ndarray, it: float) -> np.ndarray:
    """(it / 2n) * ((q_i2t - I) + (q_t2i - I)^T), built without an identity
    matrix: off the diagonal both subtractions are exact no-ops, so only
    the diagonal is evaluated as written. Inputs are not modified."""
    n = q_i2t.shape[0]
    d_s = q_i2t + q_t2i.T
    np.fill_diagonal(d_s, (np.diagonal(q_i2t) - 1.0) + (np.diagonal(q_t2i) - 1.0))
    d_s *= it / (2.0 * n)
    return d_s


def _usa_direction(s: np.ndarray, p: np.ndarray, log_p: np.ndarray,
                   it_u: float, beta: float, keep_q: bool):
    """One uni-modal direction of the objective.

    Returns (KL from p to softmax(s * it_u), the logit gradient
    beta * it_u / 2n * (q - p), sum(gradient * s), a copy of q or None);
    the gradient is zeros and the sum 0.0 when beta is 0. `s` and `p`
    are not modified; the product is formed in the dead log q buffer.
    """
    q, log_q = row_softmax_with_log(s, it_u)
    kl = float(kl_rows_raw(p, log_q, log_p).mean())
    kept = q.copy() if keep_q else None
    if beta == 0.0:
        return kl, np.zeros(s.shape), 0.0, kept
    q -= p
    q *= beta * it_u / (2.0 * s.shape[0])
    return kl, q, np.multiply(s, q, out=log_q).sum(), kept


def _check_weights(alpha: float, beta: float) -> None:
    if not (math.isfinite(alpha) and math.isfinite(beta) and alpha >= 0.0 and beta >= 0.0):
        raise NegativeWeight(f"alpha and beta must be finite and >= 0, got {alpha}, {beta}")


def cusa_total(l_original: float, l_csa: float, l_usa: float,
               alpha: float, beta: float) -> float:
    """Weighted sum of the three loss terms."""
    _check_weights(alpha, beta)
    return float(l_original + alpha * l_csa + beta * l_usa)


def loss_from_logits(s_i2t, s_i2i, s_t2t, targets, it: float, it_u: float,
                     alpha: float, beta: float, keep_q: bool = False):
    """The training objective and its gradients from the three logit matrices.

    Args:
        s_i2t: N x N cross-modal logits; entry (i, i) is the positive
            pair and the t2i logits are its transpose.
        s_i2i, s_t2t: N x N uni-modal logits of the projector branch.
        targets: TeacherTargets with constant p_i2i / p_t2t.
        it: inverse temperature of the cross-modal softmaxes.
        it_u: inverse temperature of the uni-modal softmaxes.
        alpha: CSA weight; beta: USA weight. Both finite and >= 0.
        keep_q: also return copies of the four student distributions.

    Returns:
        (LossReport, LossGradients, qs). d_log_inv_temp is the derivative
        w.r.t. log(it) and d_log_inv_temp_uni the one w.r.t. log(it_u).
        qs is None, or with keep_q a dict of q_i2t, q_t2i, q_i2i, q_t2t.
        Component gradients are skipped entirely (not just scaled by
        zero) when their weight is zero, so an alpha=beta=0 result is
        bit-identical to pure InfoNCE. No input is modified.
    """
    _check_weights(alpha, beta)
    n = s_i2t.shape[0]
    p_i2i, p_t2t = targets.p_i2i, targets.p_t2t
    for name, m in (("s_i2t", s_i2t), ("s_i2i", s_i2i), ("s_t2t", s_t2t),
                    ("p_i2i", p_i2i), ("p_t2t", p_t2t)):
        if m.shape != (n, n):
            raise ShapeMismatch(f"{name} shape {m.shape} does not match batch size {n}")
    it, it_u = float(it), float(it_u)
    qs = {} if keep_q else None

    # Each student log-softmax and teacher log is dropped after its last
    # use and every gradient and sum(d * s) product is formed in buffers
    # this function allocated, so few n x n arrays are alive at once (the
    # caller holds the three logit matrices throughout); the in-place
    # updates keep the association order of the written-out expressions,
    # and so their bits. Each teacher log is shared by its CSA and USA
    # terms.
    log_p_i2i = log_prob(p_i2i)
    log_p_t2t = log_prob(p_t2t)

    # cross-modal: InfoNCE and CSA share the i2t logits
    q_i2t, log_q = row_softmax_with_log(s_i2t, it)
    kl_i2t = float(kl_rows_raw(p_i2i, log_q, log_p_i2i).mean())
    diag_i2t = np.diagonal(log_q).mean()
    del log_q
    q_t2i, log_q = row_softmax_with_log(s_i2t.T, it)
    kl_t2i = float(kl_rows_raw(p_t2t, log_q, log_p_t2t).mean())
    l_original = -0.5 * (diag_i2t + np.diagonal(log_q).mean())
    del log_q
    if keep_q:
        qs.update(q_i2t=q_i2t.copy(), q_t2i=q_t2i.copy())
    # d_s_i2t = c1 * ((q_i2t - I) + (q_t2i - I)^T)
    #         + c2 * ((q_i2t - P_i) + (q_t2i - P_t)^T), c2's term in the q's
    d_s_i2t = _infonce_logit_grad(q_i2t, q_t2i, it)
    if alpha != 0.0:
        q_i2t -= p_i2i
        q_t2i -= p_t2t
        q_i2t += q_t2i.T
        q_i2t *= alpha * it / (2.0 * n)
        d_s_i2t += q_i2t
    del q_t2i
    d_log_it = float(np.multiply(s_i2t, d_s_i2t, out=q_i2t).sum())
    del q_i2t

    # uni-modal: USA
    kl_i2i, d_s_i2i, d_img, q_i2i = _usa_direction(s_i2i, p_i2i, log_p_i2i, it_u, beta, keep_q)
    del log_p_i2i
    kl_t2t, d_s_t2t, d_txt, q_t2t = _usa_direction(s_t2t, p_t2t, log_p_t2t, it_u, beta, keep_q)
    if keep_q:
        qs.update(q_i2i=q_i2i, q_t2t=q_t2t)

    l_csa = 0.5 * (kl_i2t + kl_t2i)
    l_usa = 0.5 * (kl_i2i + kl_t2t)
    report = LossReport(
        l_original=float(l_original),
        l_csa=l_csa,
        l_usa=l_usa,
        l_total=cusa_total(l_original, l_csa, l_usa, alpha, beta),
        per_direction={"i2t": kl_i2t, "t2i": kl_t2i, "i2i": kl_i2i, "t2t": kl_t2t},
    )
    grads = LossGradients(d_s_i2t, d_s_i2i, d_s_t2t, d_log_it, float(d_img + d_txt))
    return report, grads, qs


def batch_loss_and_grads(outputs, targets, alpha: float, beta: float):
    """Full forward loss and logit-level gradients for one batch.

    Forms the three logit matrices from the student outputs and hands
    them to loss_from_logits. Unless the outputs carry a separate
    uni-modal temperature, its derivative is folded into d_log_inv_temp
    and d_log_inv_temp_uni is 0.0.

    Args:
        outputs: StudentOutputs with normalized embeddings and the
            clamped inverse temperature(s).
        targets: TeacherTargets with constant p_i2i / p_t2t.
        alpha: CSA weight.
        beta: USA weight.

    Returns:
        (LossReport, LossGradients).
    """
    report, grads, _ = loss_from_logits(
        outputs.img_emb @ outputs.txt_emb.T,
        outputs.img_usa @ outputs.img_usa.T,
        outputs.txt_usa @ outputs.txt_usa.T,
        targets, outputs.inv_temp, outputs.inv_temp_uni, alpha, beta,
    )
    if not outputs.separate_uni_temp:
        grads.d_log_inv_temp += grads.d_log_inv_temp_uni
        grads.d_log_inv_temp_uni = 0.0
    return report, grads


__all__ = [
    "LossReport",
    "LossGradients",
    "cusa_total",
    "loss_from_logits",
    "batch_loss_and_grads",
]
