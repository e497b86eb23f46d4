"""Linear-projection student over precomputed base features.

The student is deliberately minimal: one bias-free linear head per
modality into a shared retrieval space, an extra bias-free projector
per modality feeding the uni-modal alignment term, and one learnable
log-inverse-temperature that the cross-modal and uni-modal softmaxes
share. Every quantity the losses need is exposed while keeping exact
manual gradients tractable.
A step holds each per-batch array of the two modalities as one (2, n,
.) stack, images first, and runs each paired computation once on it.
The retrieval heads' row counts may differ, so they stay per modality.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidDimension, ShapeMismatch, too_large_to_allocate
from .losses import LossGradients
from .mathops import _as_matrix, stack_slice, unit_rows

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
    laid out by param_segments(dims); `u` stacks u_img and u_txt. An
    attribute outside the layout raises AttributeError."""

    __slots__ = ("dims", "segments", "flat", "_views")

    w_img = _Segment()  # (d_bi, d_e)
    w_txt = _Segment()  # (d_bt, d_e)
    u_img = _Segment()  # (d_e, d_u)
    u_txt = _Segment()  # (d_e, d_u)
    u = _Segment()  # (2, d_e, d_u): u_img | u_txt are adjacent
    log_inv_temp = _Segment()

    def __init__(self, flat: np.ndarray, dims):
        self.dims = tuple(dims)
        self.segments = _shared_segments(self.dims)
        if flat.shape != (self.segments[-1][2],):
            raise ShapeMismatch(f"flat parameters of shape {flat.shape} do not fit dims {self.dims}")
        self.flat = flat
        self._views = {name: flat[start:stop].reshape(shape)
                       for name, start, stop, shape in self.segments}
        (_, start, _, shape), (_, _, stop, _) = self.segments[3:]
        self._views["u"] = flat[start:stop].reshape(2, *shape)


@dataclass
class ForwardTape:
    """What backward needs from forward besides the embeddings: the
    batch's base rows and the (2, n) stacks of the pre-normalization
    norms of the retrieval heads and of the projector heads."""

    base_img: np.ndarray
    base_txt: np.ndarray
    norms: np.ndarray
    usa_norms: np.ndarray


@dataclass
class StudentOutputs:
    """Stacks of one batch, images first: `emb` (2, n, d_e) of the
    retrieval embeddings, `usa` (2, n, d_u) of the projector heads."""

    emb: np.ndarray
    usa: np.ndarray
    inv_temp: float
    tape: ForwardTape | None = None

    img_emb = stack_slice("emb", 0)
    txt_emb = stack_slice("emb", 1)
    img_usa = stack_slice("usa", 0)
    txt_usa = stack_slice("usa", 1)


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


def _check_fit(base: np.ndarray, w: np.ndarray, name: str) -> None:
    if base.shape[1] != w.shape[0]:
        raise DimensionMismatch(
            f"{name}: base feature dim {base.shape[1]} != weight rows {w.shape[0]}"
        )


# the ZeroRow message of each matrix of forward's two stacks
_COLLAPSED = {head: tuple(f"{side}_{head}: projected row collapsed" for side in ("img", "txt"))
              for head in ("emb", "usa")}


def _project_normalize(base: np.ndarray, w: np.ndarray, name: str):
    _check_fit(base, w, name)
    return unit_rows(base @ w, (f"{name}: projected row collapsed",))


def _embed(base, w, u, side: str, usa_branch: bool) -> np.ndarray:
    # parameters of a loaded checkpoint may overflow the products; unit_rows
    # then raises NumericError for the row whose norm is not finite
    with np.errstate(over="ignore", invalid="ignore"):
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
    _check_fit(bi, params.w_img, "img_emb")
    _check_fit(bt, params.w_txt, "txt_emb")
    with np.errstate(over="ignore", invalid="ignore"):  # as in _embed
        return _forward(bi, bt, params)


def _forward(bi: np.ndarray, bt: np.ndarray, params: StudentParams) -> StudentOutputs:
    """forward on paired float64 base rows whose widths fit `params`,
    unchecked and under the caller's np.errstate."""
    emb = np.empty((2, bi.shape[0], params.dims[2]))
    np.matmul(bi, params.w_img, out=emb[0])
    np.matmul(bt, params.w_txt, out=emb[1])
    emb, norms = unit_rows(emb, _COLLAPSED["emb"])
    usa, usa_norms = unit_rows(emb @ params.u, _COLLAPSED["usa"])
    return StudentOutputs(emb, usa, clamped_inv_temp(params.log_inv_temp),
                          ForwardTape(bi, bt, norms, usa_norms))


def _normalize_backward(g: np.ndarray, y: np.ndarray, norms: np.ndarray) -> np.ndarray:
    # row-wise (I - y y^T)/||x|| applied to g, with y the normalized row
    proj = np.add.reduce(g * y, axis=-1, keepdims=True)
    return (g - proj * y) / norms[..., None]


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
    emb, usa, d_uni = outputs.emb, outputs.usa, upstream.d_s_uni
    # uni-modal branch: s = f f^T pulls on f from both sides
    g_a = _normalize_backward(d_uni @ usa + d_uni.mT @ usa, usa, tape.usa_norms)
    np.matmul(emb.mT, g_a, out=grads.u)
    # the retrieval embedding collects the projector and cross-modal paths;
    # image rows query the text embeddings through d_s_i2t, text rows the
    # image embeddings through its transpose
    g_z = g_a @ params.u.mT
    g_z[0] += g_it @ emb[1]
    g_z[1] += g_it.T @ emb[0]
    g_z = _normalize_backward(g_z, emb, tape.norms)
    np.matmul(tape.base_img.T, g_z[0], out=grads.w_img)
    np.matmul(tape.base_txt.T, g_z[1], out=grads.w_txt)

    grads.log_inv_temp = upstream.d_log_inv_temp * _clamp_gate(params.log_inv_temp)
    return grads
