"""Linear-projection student over precomputed base features.

The student is deliberately minimal: one bias-free linear head per
modality into a shared retrieval space, an extra bias-free projector
per modality feeding the uni-modal alignment term, and one learnable
log-inverse-temperature that the cross-modal and uni-modal softmaxes
share. Every quantity the losses need is exposed while keeping exact
manual gradients tractable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidDimension, ShapeMismatch, too_large_to_allocate
from .losses import LossGradients
from .mathops import _as_matrix, unit_rows

INIT_TAU = 0.07
INV_TEMP_MIN = 1.0
INV_TEMP_MAX = 100.0


def param_segments(dims) -> tuple:
    """(name, start, stop, shape) of every parameter in StudentParams.flat.

    The order is the checkpoint's: log_inv_temp, then w_img | w_txt |
    u_img | u_txt row-major. dims is (d_bi, d_bt, d_e, d_u). Only index
    arithmetic: nothing is allocated.
    """
    d_bi, d_bt, d_e, d_u = dims
    shapes = [("log_inv_temp", ()), ("w_img", (d_bi, d_e)), ("w_txt", (d_bt, d_e)),
              ("u_img", (d_e, d_u)), ("u_txt", (d_e, d_u))]
    segments, start = [], 0
    for name, shape in shapes:
        stop = start + math.prod(shape)
        segments.append((name, start, stop, shape))
        start = stop
    return tuple(segments)


# layouts by dims tuple: training binds its parameters and their
# gradients anew at every step
_shared_segments = functools.lru_cache(maxsize=16)(param_segments)


class _Segment:
    """One named parameter of StudentParams: a view into `flat` for a
    matrix, a float for a temperature. Assignment writes into `flat`."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, params, owner=None):
        if params is None:
            return self
        view = params._views.get(self.name)
        return float(view) if view is not None and view.ndim == 0 else view

    def __set__(self, params, value):
        view = params._views.get(self.name)
        if view is None or np.shape(value) != view.shape:
            raise ShapeMismatch(f"{self.name}: shape {np.shape(value)} does not fit the layout")
        view[...] = value


class StudentParams:
    """Trainable parameters viewing one float64 vector `flat` (no copy),
    laid out by param_segments(dims). An attribute outside the layout
    raises AttributeError."""

    __slots__ = ("dims", "segments", "flat", "_views")

    w_img = _Segment()  # (d_bi, d_e)
    w_txt = _Segment()  # (d_bt, d_e)
    u_img = _Segment()  # (d_e, d_u)
    u_txt = _Segment()  # (d_e, d_u)
    log_inv_temp = _Segment()

    def __init__(self, flat: np.ndarray, dims):
        self.dims = tuple(dims)
        self.segments = _shared_segments(self.dims)
        if flat.shape != (self.segments[-1][2],):
            raise ShapeMismatch(f"flat parameters of shape {flat.shape} do not fit dims {self.dims}")
        self.flat = flat
        self._views = {name: flat[start:stop].reshape(shape)
                       for name, start, stop, shape in self.segments}


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
    tape: ForwardTape | None = None


def clamped_inv_temp(log_inv_temp: float) -> float:
    """exp(log_inv_temp) clamped to [1, 100], finite for every float: the
    log is capped one above log(100) before the exp."""
    it = math.exp(min(log_inv_temp, math.log(INV_TEMP_MAX) + 1.0))
    return float(min(max(it, INV_TEMP_MIN), INV_TEMP_MAX))


def _clamp_gate(log_inv_temp: float) -> float:
    # zero gradient once the clamp is active (boundary included). The
    # lower boundary is reachable: exp(0.0) is exactly INV_TEMP_MIN. The
    # upper one is not: no float64 x has exp(x) == INV_TEMP_MAX (the two
    # around log(100.0) give 99.99999999999996 and 100.00000000000004).
    it = clamped_inv_temp(log_inv_temp)
    return 1.0 if INV_TEMP_MIN < it < INV_TEMP_MAX else 0.0


def init_params(seed: int, d_bi: int, d_bt: int, d_e: int, d_u: int) -> StudentParams:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)].

    log_inv_temp starts at log(1/0.07). Identical seeds give
    bit-identical parameters. Dimensions whose parameters cannot be
    allocated raise InvalidDimension.
    """
    for name, d in (("d_bi", d_bi), ("d_bt", d_bt), ("d_e", d_e), ("d_u", d_u)):
        if int(d) < 1:
            raise InvalidDimension(f"{name} must be >= 1, got {d}")
    rng = np.random.default_rng(seed)

    def draw(fan_in, shape):
        bound = 1.0 / math.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    dims = (d_bi, d_bt, d_e, d_u)
    with too_large_to_allocate(InvalidDimension, f"d_e={d_e} and d_u={d_u} (base dims "
                               f"{d_bi}, {d_bt}) give parameters"):
        params = StudentParams(np.empty(param_segments(dims)[-1][2]), dims)
        params.w_img = draw(d_bi, (d_bi, d_e))
        params.w_txt = draw(d_bt, (d_bt, d_e))
        params.u_img = draw(d_e, (d_e, d_u))
        params.u_txt = draw(d_e, (d_e, d_u))
    params.log_inv_temp = float(np.log(1.0 / INIT_TAU))
    return params


def _project_normalize(base: np.ndarray, w: np.ndarray, name: str):
    if base.shape[1] != w.shape[0]:
        raise DimensionMismatch(
            f"{name}: base feature dim {base.shape[1]} != weight rows {w.shape[0]}"
        )
    # parameters of a loaded checkpoint may overflow the product; unit_rows
    # then raises NumericError for the row whose norm is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        projected = base @ w
    return unit_rows(projected, f"{name}: projected row collapsed")


def _embed(base, w, u, side: str, usa_branch: bool) -> np.ndarray:
    emb, _ = _project_normalize(_as_matrix(base, f"base_{side}"), w, f"{side}_emb")
    return _project_normalize(emb, u, f"{side}_usa")[0] if usa_branch else emb


def embed_images(base_img, params: StudentParams, usa_branch: bool = False) -> np.ndarray:
    """Retrieval embeddings for images; optionally the projector branch."""
    return _embed(base_img, params.w_img, params.u_img, "img", usa_branch)


def embed_texts(base_txt, params: StudentParams, usa_branch: bool = False) -> np.ndarray:
    """Retrieval embeddings for texts; optionally the projector branch."""
    return _embed(base_txt, params.w_txt, params.u_txt, "txt", usa_branch)


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
    it = clamped_inv_temp(params.log_inv_temp)
    tape = ForwardTape(bi, bt, n_img, n_txt, m_img, m_txt)
    return StudentOutputs(img_emb, txt_emb, img_usa, txt_usa, it, tape)


def _normalize_backward(g: np.ndarray, y: np.ndarray, norms: np.ndarray) -> np.ndarray:
    # row-wise (I - y y^T)/||x|| applied to g, with y the normalized row
    proj = (g * y).sum(axis=1, keepdims=True)
    return (g - proj * y) / norms[:, None]


def _modality_backward(d_uni, d_cross, other, e, f, base, norms, usa_norms, u,
                       g_u, g_w) -> None:
    """One modality's chain: from the uni-modal logit gradient d_uni and
    the cross-modal one d_cross (rows are this side's queries, columns
    the `other` side's embeddings) to the gradients of its projector u
    and retrieval head w, written into g_u and g_w."""
    # uni-modal branch: s = f f^T pulls on f from both sides
    g_a = _normalize_backward(d_uni @ f + d_uni.T @ f, f, usa_norms)
    np.matmul(e.T, g_a, out=g_u)
    # the retrieval embedding collects the cross-modal and projector paths
    g_z = _normalize_backward(d_cross @ other + g_a @ u.T, e, norms)
    np.matmul(base.T, g_z, out=g_w)


def backward(outputs: StudentOutputs, params: StudentParams,
             upstream: LossGradients) -> StudentParams:
    """Exact parameter gradients for the batch loss.

    Chains the upstream logit gradients through cosine similarity, the
    normalization Jacobian, and the linear maps, reading the forward
    intermediates from `outputs` and its tape (nothing is recomputed or
    modified). `params` must be the parameters `outputs` came from.
    Returns the gradients as StudentParams, laid out like `params`. The
    temperature's gradient is the loss core's d_log_inv_temp, gated to
    zero whenever the clamp is active.
    """
    tape = outputs.tape
    if tape is None:
        raise ShapeMismatch("backward needs the outputs of forward, which carry its tape")
    g_it = upstream.d_s_i2t
    n = tape.base_img.shape[0]
    if g_it.shape != (n, n):
        raise ShapeMismatch(f"upstream d_s_i2t shape {g_it.shape} != batch {n}")

    # the gradient matrices are written straight into views of one vector
    grads = StudentParams(np.empty_like(params.flat), params.dims)
    _modality_backward(upstream.d_s_i2i, g_it, outputs.txt_emb, outputs.img_emb,
                       outputs.img_usa, tape.base_img, tape.img_norms, tape.img_usa_norms,
                       params.u_img, grads.u_img, grads.w_img)
    _modality_backward(upstream.d_s_t2t, g_it.T, outputs.img_emb, outputs.txt_emb,
                       outputs.txt_usa, tape.base_txt, tape.txt_norms, tape.txt_usa_norms,
                       params.u_txt, grads.u_txt, grads.w_txt)

    grads.log_inv_temp = upstream.d_log_inv_temp * _clamp_gate(params.log_inv_temp)
    return grads
