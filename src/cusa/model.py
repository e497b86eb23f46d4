"""Linear-projection student over precomputed base features.

The student is deliberately minimal: one bias-free linear head per
modality into a shared retrieval space, an extra bias-free projector
per modality feeding the uni-modal alignment term, and a learnable
log-inverse-temperature. Every quantity the losses need is exposed
while keeping exact manual gradients tractable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, InvalidDimension, ShapeMismatch, ZeroRow
from .losses import LossGradients
from .mathops import _as_matrix, ZERO_ROW_TOL

INIT_TAU = 0.07
INV_TEMP_MIN = 1.0
INV_TEMP_MAX = 100.0


@dataclass
class StudentParams:
    """Trainable parameters. log_inv_temp_uni is None when the
    uni-modal softmaxes share the main temperature."""

    w_img: np.ndarray  # (d_bi, d_e)
    w_txt: np.ndarray  # (d_bt, d_e)
    u_img: np.ndarray  # (d_e, d_u)
    u_txt: np.ndarray  # (d_e, d_u)
    log_inv_temp: float
    log_inv_temp_uni: float | None = None

    @property
    def dims(self) -> tuple:
        return (
            self.w_img.shape[0],
            self.w_txt.shape[0],
            self.w_img.shape[1],
            self.u_img.shape[1],
        )

    def copy(self) -> "StudentParams":
        return replace(
            self,
            w_img=self.w_img.copy(),
            w_txt=self.w_txt.copy(),
            u_img=self.u_img.copy(),
            u_txt=self.u_txt.copy(),
        )


@dataclass
class ForwardTape:
    """What backward needs from forward besides the embeddings: the
    batch's base rows and the pre-normalization norm of every projected
    row (retrieval heads, then projector heads)."""

    base_img: np.ndarray
    base_txt: np.ndarray
    img_norms: np.ndarray
    txt_norms: np.ndarray
    img_usa_norms: np.ndarray
    txt_usa_norms: np.ndarray


@dataclass
class StudentOutputs:
    img_emb: np.ndarray
    txt_emb: np.ndarray
    img_usa: np.ndarray
    txt_usa: np.ndarray
    inv_temp: float
    inv_temp_uni: float
    separate_uni_temp: bool = False
    tape: ForwardTape | None = None


def clamped_inv_temp(log_inv_temp: float) -> float:
    """exp(log_inv_temp) clamped to [1, 100]."""
    return float(min(max(math.exp(log_inv_temp), INV_TEMP_MIN), INV_TEMP_MAX))


def _clamp_gate(log_inv_temp: float) -> float:
    # zero gradient once the clamp is active (boundary included)
    it = math.exp(log_inv_temp)
    return 1.0 if INV_TEMP_MIN < it < INV_TEMP_MAX else 0.0


def init_params(seed: int, d_bi: int, d_bt: int, d_e: int, d_u: int,
                separate_uni_temp: bool = False) -> StudentParams:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)].

    log_inv_temp starts at log(1/0.07). Identical seeds give
    bit-identical parameters.
    """
    for name, d in (("d_bi", d_bi), ("d_bt", d_bt), ("d_e", d_e), ("d_u", d_u)):
        if int(d) < 1:
            raise InvalidDimension(f"{name} must be >= 1, got {d}")
    rng = np.random.default_rng(seed)

    def draw(fan_in, shape):
        bound = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    log_it = float(np.log(1.0 / INIT_TAU))
    return StudentParams(
        w_img=draw(d_bi, (d_bi, d_e)),
        w_txt=draw(d_bt, (d_bt, d_e)),
        u_img=draw(d_e, (d_e, d_u)),
        u_txt=draw(d_e, (d_e, d_u)),
        log_inv_temp=log_it,
        log_inv_temp_uni=log_it if separate_uni_temp else None,
    )


def _project_normalize(base: np.ndarray, w: np.ndarray, name: str):
    if base.shape[1] != w.shape[0]:
        raise DimensionMismatch(
            f"{name}: base feature dim {base.shape[1]} != weight rows {w.shape[0]}"
        )
    z = base @ w
    norms = np.linalg.norm(z, axis=1)
    collapsed = norms < ZERO_ROW_TOL
    if np.any(collapsed):
        raise ZeroRow(int(np.argmax(collapsed)), f"{name}: projected row collapsed")
    return z / norms[:, None], norms


def embed_images(base_img, params: StudentParams, usa_branch: bool = False) -> np.ndarray:
    """Retrieval embeddings for images; optionally the projector branch."""
    base = _as_matrix(base_img, "base_img")
    emb, _ = _project_normalize(base, params.w_img, "img_emb")
    if not usa_branch:
        return emb
    usa, _ = _project_normalize(emb, params.u_img, "img_usa")
    return usa


def embed_texts(base_txt, params: StudentParams, usa_branch: bool = False) -> np.ndarray:
    base = _as_matrix(base_txt, "base_txt")
    emb, _ = _project_normalize(base, params.w_txt, "txt_emb")
    if not usa_branch:
        return emb
    usa, _ = _project_normalize(emb, params.u_txt, "txt_usa")
    return usa


def forward(base_img, base_txt, params: StudentParams) -> StudentOutputs:
    """Embed one batch of paired base features.

    img_emb = normalize(base_img @ w_img); the projector branch applies
    u_img on the normalized embedding and re-normalizes. Row counts of
    the two modalities must match (the batch is paired). The outputs
    carry the tape that backward consumes.
    """
    bi = _as_matrix(base_img, "base_img")
    bt = _as_matrix(base_txt, "base_txt")
    if bi.shape[0] != bt.shape[0]:
        raise ShapeMismatch(
            f"paired batch row counts differ: {bi.shape[0]} vs {bt.shape[0]}"
        )
    img_emb, n_img = _project_normalize(bi, params.w_img, "img_emb")
    txt_emb, n_txt = _project_normalize(bt, params.w_txt, "txt_emb")
    img_usa, m_img = _project_normalize(img_emb, params.u_img, "img_usa")
    txt_usa, m_txt = _project_normalize(txt_emb, params.u_txt, "txt_usa")
    separate = params.log_inv_temp_uni is not None
    it = clamped_inv_temp(params.log_inv_temp)
    it_u = clamped_inv_temp(params.log_inv_temp_uni) if separate else it
    tape = ForwardTape(bi, bt, n_img, n_txt, m_img, m_txt)
    return StudentOutputs(img_emb, txt_emb, img_usa, txt_usa, it, it_u, separate, tape)


def _normalize_backward(g: np.ndarray, y: np.ndarray, norms: np.ndarray) -> np.ndarray:
    # row-wise (I - y y^T)/||x|| applied to g, with y the normalized row
    proj = (g * y).sum(axis=1, keepdims=True)
    return (g - proj * y) / norms[:, None]


def backward(outputs: StudentOutputs, params: StudentParams,
             upstream: LossGradients) -> StudentParams:
    """Exact parameter gradients for the batch loss.

    Chains the upstream logit gradients through cosine similarity, the
    normalization Jacobian, and the linear maps, reading the forward
    intermediates from `outputs` and its tape (nothing is recomputed or
    modified). `params` must be the parameters `outputs` came from.
    Returns a StudentParams-shaped container holding gradients. The
    temperature gradient is gated to zero whenever the clamp is active.
    """
    tape = outputs.tape
    if tape is None:
        raise ShapeMismatch("backward needs the outputs of forward, which carry its tape")
    bi, bt = tape.base_img, tape.base_txt
    e_img, n_img = outputs.img_emb, tape.img_norms
    e_txt, n_txt = outputs.txt_emb, tape.txt_norms
    f_img, m_img = outputs.img_usa, tape.img_usa_norms
    f_txt, m_txt = outputs.txt_usa, tape.txt_usa_norms

    g_it = upstream.d_s_i2t
    if g_it.shape != (bi.shape[0], bi.shape[0]):
        raise ShapeMismatch(
            f"upstream d_s_i2t shape {g_it.shape} != batch {bi.shape[0]}"
        )

    # uni-modal branches: s = f f^T pulls on f from both sides
    g_f_img = (upstream.d_s_i2i + upstream.d_s_i2i.T) @ f_img
    g_f_txt = (upstream.d_s_t2t + upstream.d_s_t2t.T) @ f_txt
    g_a_img = _normalize_backward(g_f_img, f_img, m_img)
    g_a_txt = _normalize_backward(g_f_txt, f_txt, m_txt)
    g_u_img = e_img.T @ g_a_img
    g_u_txt = e_txt.T @ g_a_txt

    # retrieval embeddings collect the cross-modal and projector paths
    g_e_img = g_it @ e_txt + g_a_img @ params.u_img.T
    g_e_txt = g_it.T @ e_img + g_a_txt @ params.u_txt.T
    g_z_img = _normalize_backward(g_e_img, e_img, n_img)
    g_z_txt = _normalize_backward(g_e_txt, e_txt, n_txt)
    g_w_img = bi.T @ g_z_img
    g_w_txt = bt.T @ g_z_txt

    g_log_it = upstream.d_log_inv_temp * _clamp_gate(params.log_inv_temp)
    if params.log_inv_temp_uni is not None:
        g_log_it_uni = upstream.d_log_inv_temp_uni * _clamp_gate(params.log_inv_temp_uni)
    else:
        g_log_it_uni = None
    return StudentParams(g_w_img, g_w_txt, g_u_img, g_u_txt, g_log_it, g_log_it_uni)
