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

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDistribution, NegativeWeight, ShapeMismatch
from .mathops import _as_matrix, kl_rows_raw, log_prob, row_softmax_with_log


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
    transposed). d_log_inv_temp_uni stays 0.0 unless a separate
    uni-modal temperature is in use.
    """

    d_s_i2t: np.ndarray
    d_s_i2i: np.ndarray
    d_s_t2t: np.ndarray
    d_log_inv_temp: float
    d_log_inv_temp_uni: float = 0.0


def _check_square(m: np.ndarray, name: str) -> None:
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"{name} must be square, got {m.shape}")


def _infonce_logit_grad(q_i2t: np.ndarray, q_t2i: np.ndarray, it: float) -> np.ndarray:
    """(it / 2n) * ((q_i2t - I) + (q_t2i - I)^T), built without an identity
    matrix: off the diagonal both subtractions are exact no-ops, so only
    the diagonal is evaluated as written. Inputs are not modified."""
    n = q_i2t.shape[0]
    d_s = q_i2t + q_t2i.T
    np.fill_diagonal(d_s, (np.diagonal(q_i2t) - 1.0) + (np.diagonal(q_t2i) - 1.0))
    d_s *= it / (2.0 * n)
    return d_s


def _log_of(q: np.ndarray, name: str) -> np.ndarray:
    if np.any(q <= 0.0):
        raise InvalidDistribution(f"{name} has a non-positive entry")
    return np.log(q)


def infonce_loss(s_i2t, inv_temp: float):
    """Symmetric InfoNCE over cross-modal logits.

    Args:
        s_i2t: square N x N similarity logits; entry (i, i) is the
            positive pair.
        inv_temp: inverse temperature, > 0.

    Returns:
        (value, LossGradients): the averaged two-direction loss and its
        gradients w.r.t. the logits and log(inv_temp). The uni-modal
        gradient matrices are zero.
    """
    s = _as_matrix(s_i2t, "s_i2t")
    _check_square(s, "s_i2t")
    n = s.shape[0]
    it = float(inv_temp)
    q_i2t, log_i2t = row_softmax_with_log(s, it)
    q_t2i, log_t2i = row_softmax_with_log(s.T, it)
    value = -0.5 * (np.diagonal(log_i2t).mean() + np.diagonal(log_t2i).mean())
    d_s = _infonce_logit_grad(q_i2t, q_t2i, it)
    d_log_it = float((d_s * s).sum())
    zero = np.zeros((n, n))
    return float(value), LossGradients(d_s, zero, zero.copy(), d_log_it)


def csa_loss(p_i2i, p_t2t, q_i2t, q_t2i, inv_temp: float = 1.0):
    """Cross-modal alignment: KL from teacher targets to student Q's.

    Args:
        p_i2i, p_t2t: teacher target distributions (constants).
        q_i2t, q_t2i: student cross-modal distributions from
            row_softmax over logits scaled by inv_temp.
        inv_temp: the inverse temperature those logits were scaled by;
            needed because the returned gradient is w.r.t. the raw
            logits.

    Returns:
        (value, d_s_i2t): the averaged two-direction KL and its
        gradient w.r.t. the i2t logit matrix (t2i enters transposed).
    """
    pi = _as_matrix(p_i2i, "p_i2i")
    pt = _as_matrix(p_t2t, "p_t2t")
    qi = _as_matrix(q_i2t, "q_i2t")
    qt = _as_matrix(q_t2i, "q_t2i")
    for name, m in (("p_t2t", pt), ("q_i2t", qi), ("q_t2i", qt)):
        if m.shape != pi.shape:
            raise ShapeMismatch(f"{name} shape {m.shape} != p_i2i shape {pi.shape}")
    _check_square(pi, "p_i2i")
    n = pi.shape[0]
    value = 0.5 * (
        kl_rows_raw(pi, _log_of(qi, "q_i2t"), log_prob(pi)).mean()
        + kl_rows_raw(pt, _log_of(qt, "q_t2i"), log_prob(pt)).mean()
    )
    d_s = (float(inv_temp) / (2.0 * n)) * ((qi - pi) + (qt - pt).T)
    return float(value), d_s


def usa_loss(p_i2i, p_t2t, q_i2i, q_t2t, inv_temp: float = 1.0):
    """Uni-modal alignment: KL from teacher targets to the student's
    within-modality distributions.

    Same form as csa_loss but the gradients route to the two uni-modal
    logit matrices instead of the shared cross-modal one.

    Returns:
        (value, d_s_i2i, d_s_t2t)
    """
    pi = _as_matrix(p_i2i, "p_i2i")
    pt = _as_matrix(p_t2t, "p_t2t")
    qi = _as_matrix(q_i2i, "q_i2i")
    qt = _as_matrix(q_t2t, "q_t2t")
    for name, m in (("p_t2t", pt), ("q_i2i", qi), ("q_t2t", qt)):
        if m.shape != pi.shape:
            raise ShapeMismatch(f"{name} shape {m.shape} != p_i2i shape {pi.shape}")
    _check_square(pi, "p_i2i")
    n = pi.shape[0]
    value = 0.5 * (
        kl_rows_raw(pi, _log_of(qi, "q_i2i"), log_prob(pi)).mean()
        + kl_rows_raw(pt, _log_of(qt, "q_t2t"), log_prob(pt)).mean()
    )
    scale = float(inv_temp) / (2.0 * n)
    return float(value), scale * (qi - pi), scale * (qt - pt)


def _usa_direction(f: np.ndarray, p: np.ndarray, log_p: np.ndarray,
                   it_u: float, beta: float):
    """One uni-modal direction of the batch loss.

    Returns (KL from p to softmax(f f^T * it_u), the logit gradient
    beta * it_u / 2n * (q - p), sum(gradient * logits)); the gradient is
    zeros and the sum 0.0 when beta is 0. Inputs are not modified.
    """
    s = f @ f.T
    q, log_q = row_softmax_with_log(s, it_u)
    kl = float(kl_rows_raw(p, log_q, log_p).mean())
    if beta == 0.0:
        return kl, np.zeros(s.shape), 0.0
    q -= p
    q *= beta * it_u / (2.0 * s.shape[0])
    s *= q
    return kl, q, s.sum()


def cusa_total(l_original: float, l_csa: float, l_usa: float,
               alpha: float, beta: float) -> float:
    """Weighted sum of the three loss terms."""
    if alpha < 0.0 or beta < 0.0:
        raise NegativeWeight(f"alpha and beta must be >= 0, got {alpha}, {beta}")
    return float(l_original + alpha * l_csa + beta * l_usa)


def batch_loss_and_grads(outputs, targets, alpha: float, beta: float):
    """Full forward loss and logit-level gradients for one batch.

    Args:
        outputs: StudentOutputs with normalized embeddings and the
            clamped inverse temperature(s).
        targets: TeacherTargets with constant p_i2i / p_t2t.
        alpha: CSA weight.
        beta: USA weight.

    Returns:
        (LossReport, LossGradients). Component gradients are skipped
        entirely (not just scaled by zero) when their weight is zero,
        so an alpha=beta=0 run is bit-identical to pure InfoNCE.
    """
    if alpha < 0.0 or beta < 0.0:
        raise NegativeWeight(f"alpha and beta must be >= 0, got {alpha}, {beta}")
    e_img, e_txt = outputs.img_emb, outputs.txt_emb
    f_img, f_txt = outputs.img_usa, outputs.txt_usa
    it = float(outputs.inv_temp)
    it_u = float(outputs.inv_temp_uni)
    n = e_img.shape[0]
    p_i2i, p_t2t = targets.p_i2i, targets.p_t2t
    if p_i2i.shape != (n, n) or p_t2t.shape != (n, n):
        raise ShapeMismatch(
            f"teacher targets {p_i2i.shape}/{p_t2t.shape} do not match batch size {n}"
        )

    # Each student log-softmax is dropped after its KL term and every
    # gradient is formed in buffers this function allocated, so few n x n
    # arrays are alive at once; the in-place updates keep the association
    # order of the written-out expressions, and so their bits. Each
    # teacher log is shared by its CSA and USA terms.
    log_p_i2i = log_prob(p_i2i)
    log_p_t2t = log_prob(p_t2t)

    # cross-modal: InfoNCE and CSA share the i2t logits
    s_i2t = e_img @ e_txt.T
    q_i2t, log_q = row_softmax_with_log(s_i2t, it)
    kl_i2t = float(kl_rows_raw(p_i2i, log_q, log_p_i2i).mean())
    diag_i2t = np.diagonal(log_q).mean()
    q_t2i, log_q = row_softmax_with_log(s_i2t.T, it)
    kl_t2i = float(kl_rows_raw(p_t2t, log_q, log_p_t2t).mean())
    l_original = -0.5 * (diag_i2t + np.diagonal(log_q).mean())
    del log_q
    # d_s_i2t = c1 * ((q_i2t - I) + (q_t2i - I)^T)
    #         + c2 * ((q_i2t - P_i) + (q_t2i - P_t)^T), c2's term in the q's
    d_s_i2t = _infonce_logit_grad(q_i2t, q_t2i, it)
    if alpha != 0.0:
        q_i2t -= p_i2i
        q_t2i -= p_t2t
        q_i2t += q_t2i.T
        q_i2t *= alpha * it / (2.0 * n)
        d_s_i2t += q_i2t
    del q_i2t, q_t2i
    s_i2t *= d_s_i2t
    d_log_it = float(s_i2t.sum())
    del s_i2t

    # uni-modal: USA
    kl_i2i, d_s_i2i, d_img = _usa_direction(f_img, p_i2i, log_p_i2i, it_u, beta)
    kl_t2t, d_s_t2t, d_txt = _usa_direction(f_txt, p_t2t, log_p_t2t, it_u, beta)
    d_uni = float(d_img + d_txt)

    l_csa = 0.5 * (kl_i2t + kl_t2i)
    l_usa = 0.5 * (kl_i2i + kl_t2t)
    l_total = cusa_total(l_original, l_csa, l_usa, alpha, beta)
    report = LossReport(
        l_original=float(l_original),
        l_csa=l_csa,
        l_usa=l_usa,
        l_total=l_total,
        per_direction={"i2t": kl_i2t, "t2i": kl_t2i, "i2i": kl_i2i, "t2t": kl_t2t},
    )
    if getattr(outputs, "separate_uni_temp", False):
        grads = LossGradients(d_s_i2t, d_s_i2i, d_s_t2t, d_log_it, d_uni)
    else:
        grads = LossGradients(d_s_i2t, d_s_i2i, d_s_t2t, d_log_it + d_uni)
    return report, grads


__all__ = [
    "LossReport",
    "LossGradients",
    "infonce_loss",
    "csa_loss",
    "usa_loss",
    "cusa_total",
    "batch_loss_and_grads",
]
